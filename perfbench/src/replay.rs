//! The correctness reference: the pass's op log re-run on bare
//! `ServeEngine`s, one per shard, with no router, no channels, no wire and
//! no backpressure.
//!
//! Per-sample kernels do not depend on batch composition and a session's
//! state depends only on its own submits, ticks and adaptation, so each
//! frame's joints must match the cluster's answer bit for bit. Session `id`
//! replays on engine `id % 2`, its initial shard (a migrated session
//! carries its state exactly, so where it moved to does not matter). With
//! tracing on, the replay doubles as the serve-layer probe: spans around
//! every `submit` and `step`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use fuse_core::{build_mars_cnn, ModelConfig};
use fuse_serve::{ServeConfig, ServeEngine, SessionConfig};

use crate::inputs::{Inputs, ADAPT_EPOCHS};
use crate::serving::{frame_for, model_seed, patient_for, Op};
use crate::trace::Tracer;

/// Engines the replay runs, one thread each (the cluster's shard count).
pub const ENGINES: u64 = 2;

/// What the replay produced.
#[derive(Debug)]
pub struct Replay {
    /// Joints by `(session, frame)`.
    pub answered: BTreeMap<(u64, u64), Vec<f32>>,
    /// `new_error_at(epochs)` per adapted session.
    pub adapted_mae: BTreeMap<u64, f32>,
    /// Frames per `step` that produced any.
    pub batch_frames: Vec<f64>,
    /// Spans of every engine thread (`serve.submit`, `serve.step`).
    pub tracer: Tracer,
}

/// Re-runs `log` on bare engines. With `step_each_submit`, each submit is
/// served alone (the open loop's batch-1 steps); otherwise frames are
/// served once per round.
///
/// # Errors
///
/// Returns the first engine error.
pub fn replay(
    inputs: &Inputs,
    log: &[Op],
    plan_files: &[PathBuf],
    step_each_submit: bool,
    trace: bool,
) -> Result<Replay, String> {
    let results: Vec<Result<Replay, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ENGINES)
            .map(|engine| {
                scope.spawn(move || {
                    replay_engine(inputs, log, plan_files, engine, step_each_submit, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("replay thread panicked".into())))
            .collect()
    });
    let mut merged = Replay {
        answered: BTreeMap::new(),
        adapted_mae: BTreeMap::new(),
        batch_frames: Vec::new(),
        tracer: Tracer::new(trace),
    };
    for result in results {
        let part = result?;
        merged.answered.extend(part.answered);
        merged.adapted_mae.extend(part.adapted_mae);
        merged.batch_frames.extend(part.batch_frames);
        merged.tracer.absorb(part.tracer);
    }
    Ok(merged)
}

fn replay_engine(
    inputs: &Inputs,
    log: &[Op],
    plan_files: &[PathBuf],
    engine_index: u64,
    step_each_submit: bool,
    trace: bool,
) -> Result<Replay, String> {
    let model = build_mars_cnn(&ModelConfig::default(), model_seed(inputs.seed))
        .map_err(|e| e.to_string())?;
    let mut engine = ServeEngine::new(model, ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut out = Replay {
        answered: BTreeMap::new(),
        adapted_mae: BTreeMap::new(),
        batch_frames: Vec::new(),
        tracer: Tracer::new(trace),
    };
    let mine = |id: u64| id % ENGINES == engine_index;
    let step_all = |engine: &mut ServeEngine, out: &mut Replay| -> Result<(), String> {
        while engine.pending_len() > 0 {
            let open = out.tracer.begin("serve.step", engine_index);
            let produced = engine.step();
            out.tracer.end(open);
            let produced = produced.map_err(|e| e.to_string())?;
            out.batch_frames.push(produced as f64);
            for r in engine.take_responses() {
                out.answered.insert((r.session_id, r.frame_index), r.joints);
            }
        }
        Ok(())
    };
    for &op in log {
        match op {
            Op::Open { id, slo } if mine(id) => {
                engine.open_session(SessionConfig::new(id).slo(slo)).map_err(|e| e.to_string())?;
            }
            Op::Submit { id, k } if mine(id) => {
                let frame = frame_for(inputs, id, k).clone();
                let open = out.tracer.begin("serve.submit", id);
                let submitted = engine.submit(id, frame);
                out.tracer.end(open);
                submitted.map_err(|e| e.to_string())?;
                if step_each_submit {
                    step_all(&mut engine, &mut out)?;
                }
            }
            Op::Tick { id } if mine(id) => engine.tick(id).map_err(|e| e.to_string())?,
            Op::Round => step_all(&mut engine, &mut out)?,
            Op::Adapt { id } if mine(id) => {
                let patient = patient_for(inputs, id);
                let result = engine
                    .adapt_session(id, &patient.adapt, &patient.finetune)
                    .map_err(|e| e.to_string())?;
                out.adapted_mae.insert(id, result.new_error_at(ADAPT_EPOCHS).average_cm());
            }
            Op::Swap { file } => {
                step_all(&mut engine, &mut out)?;
                engine.hot_swap_plan(&plan_files[file]).map_err(|e| e.to_string())?;
            }
            Op::Close { id } if mine(id) => {
                step_all(&mut engine, &mut out)?;
                engine.close_session(id).map_err(|e| e.to_string())?;
            }
            _ => {}
        }
    }
    step_all(&mut engine, &mut out)?;
    Ok(out)
}
