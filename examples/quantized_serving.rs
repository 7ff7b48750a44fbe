//! Serving an int8 weight-quantized `.fplan` artifact end to end.
//!
//! The relaxed-contract deployment story this example demonstrates:
//!
//! 1. **Producer**: build the MARS CNN, let the serving engine compile it,
//!    then export *two* artifacts — the exact float plan
//!    ([`ServeEngine::export_plan`]) and the int8 weight-quantized v2 plan
//!    ([`ServeEngine::export_quantized_plan`]), roughly a quarter the size.
//! 2. **Receiver engine**: hot-swap the quantized artifact
//!    ([`ServeEngine::hot_swap_plan`]) and serve a multi-session stream
//!    through the int8 kernels behind the `fuse-quant` device seam.
//! 3. **Edge**: load the same artifact with [`fuse_edge::EdgeSession`] and
//!    serve the same frames — no lowering stack, no compiler.
//!
//! Quantized outputs are *not* bit-identical to the float plan — that is the
//! point of the relaxed tier — so both consumers are verified against the
//! float engine with the tolerance comparator (`fuse_quant::compare`) and
//! per-sample top-1 agreement, the same harness the relaxed golden tests
//! use (see `REPRODUCIBILITY.md`).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p fuse-examples --bin quantized_serving
//! ```
//!
//! Knobs: `FUSE_QUANT_FRAMES` frames per session (default 10), plus the
//! usual `FUSE_THREADS` / `FUSE_BACKEND` kernel knobs.

use std::error::Error;

use fuse_cluster::env_usize;
use fuse_core::{build_mars_cnn, ModelConfig};
use fuse_edge::EdgeSession;
use fuse_examples::print_header;
use fuse_quant::compare::{compare, top1, CompareReport, Tolerance};
use fuse_radar::{FastScatterModel, PointCloudFrame, RadarConfig, Scatterer, Scene};
use fuse_serve::{ServeConfig, ServeEngine, SessionConfig};
use fuse_skeleton::{body_surface_points, Movement, MovementAnimator, Subject};

/// The committed serving budget for the int8 tier (see `REPRODUCIBILITY.md`).
const BUDGET: Tolerance = Tolerance { max_ulp: 0, max_abs: 5e-2, max_rel: 2e-2 };

fn knob(name: &str, default: usize) -> usize {
    match env_usize(name) {
        Ok(n) => n.unwrap_or(default),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

fn frame_stream(subject: usize, movement: Movement, frames: usize) -> Vec<PointCloudFrame> {
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());
    let animator = MovementAnimator::new(Subject::profile(subject), movement, 10.0).with_seed(13);
    animator
        .sample_frames_with_velocities(0.0, frames)
        .iter()
        .enumerate()
        .map(|(i, (skeleton, velocities))| {
            let scene: Scene = body_surface_points(skeleton, velocities, 4)
                .iter()
                .map(|p| Scatterer::new(p.position, p.velocity, p.reflectivity))
                .collect();
            scatter.sample(&scene, i as u64)
        })
        .collect()
}

fn merge(worst: &mut CompareReport, report: CompareReport) {
    worst.max_abs = worst.max_abs.max(report.max_abs);
    worst.max_rel = worst.max_rel.max(report.max_rel);
    worst.max_ulp = worst.max_ulp.max(report.max_ulp);
}

/// Top-1 agreement between the float reference and the relaxed output.
///
/// A flipped top-1 is admitted only as a *genuine near-tie*: the reference
/// scores of the two competing indices must themselves sit within the
/// absolute budget, i.e. quantization noise flipped a contest the float
/// model had not decided. (The relaxed golden harness asserts *strict*
/// top-1 on the committed stream, which is verified tie-free; this example
/// streams arbitrary knob-chosen frames, so ties can occur.)
fn top1_agrees(reference: &[f32], relaxed: &[f32]) -> bool {
    let (r, q) = (top1(reference), top1(relaxed));
    if r == q {
        return true;
    }
    match (r, q) {
        (Some(a), Some(b)) => (reference[a] - reference[b]).abs() <= BUDGET.max_abs,
        _ => false,
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let frames = knob("FUSE_QUANT_FRAMES", 10);
    let dir = std::env::temp_dir().join("fuse_quantized_serving_example");
    std::fs::create_dir_all(&dir)?;
    let float_path = dir.join("mars.fplan");
    let quant_path = dir.join("mars-int8.fplan");

    print_header("Producer: compile the MARS CNN, export float + int8 artifacts");
    let model = build_mars_cnn(&ModelConfig::default(), 11)?;
    let mut float_engine = ServeEngine::new(model, ServeConfig::default())?;
    float_engine.export_plan(&float_path)?;
    float_engine.export_quantized_plan(&quant_path)?;
    let (fsize, qsize) =
        (std::fs::metadata(&float_path)?.len(), std::fs::metadata(&quant_path)?.len());
    println!(
        "float plan {fsize} bytes -> int8 plan {qsize} bytes ({:.2}x smaller)",
        fsize as f64 / qsize as f64,
    );

    print_header("Receiver: hot-swap the quantized artifact into a serving engine");
    let mut quant_engine =
        ServeEngine::new(build_mars_cnn(&ModelConfig::default(), 11)?, ServeConfig::default())?;
    quant_engine.hot_swap_plan(&quant_path)?;
    let plan = quant_engine.plan();
    println!(
        "installed plan v{}: quantized={}, {} int8 weights through device '{}'",
        quant_engine.model_version(),
        plan.is_quantized(),
        plan.qweight_len(),
        plan.device_name().unwrap_or("<unbound>"),
    );

    print_header(&format!("Streaming {frames} frames x 2 sessions through both engines"));
    let sessions = [(1u64, 0usize, Movement::Squat), (2u64, 1, Movement::BothUpperLimbExtension)];
    for (id, _, _) in sessions {
        float_engine.open_session(SessionConfig::new(id))?;
        quant_engine.open_session(SessionConfig::new(id))?;
    }
    let streams: Vec<(u64, Vec<PointCloudFrame>)> = sessions
        .iter()
        .map(|&(id, subject, movement)| (id, frame_stream(subject, movement, frames)))
        .collect();
    let mut worst = CompareReport::default();
    let mut served = 0usize;
    let mut agreed = 0usize;
    for step in 0..frames {
        for (id, stream) in &streams {
            float_engine.submit(*id, stream[step].clone())?;
            quant_engine.submit(*id, stream[step].clone())?;
        }
        float_engine.step()?;
        quant_engine.step()?;
        let want = float_engine.take_responses();
        let got = quant_engine.take_responses();
        assert_eq!(want.len(), got.len(), "both engines serve the same schedule");
        for (w, g) in want.iter().zip(&got) {
            let report = compare(&w.joints, &g.joints, &BUDGET)
                .map_err(|e| format!("session {} frame {}: {e}", w.session_id, w.frame_index))?;
            merge(&mut worst, report);
            served += 1;
            agreed += usize::from(top1_agrees(&w.joints, &g.joints));
        }
    }
    println!(
        "{served}/{served} responses within budget (max_abs {:.3e}, max_rel {:.3e}); \
         top-1 agreement {agreed}/{served}",
        worst.max_abs, worst.max_rel,
    );
    assert_eq!(agreed, served, "the int8 tier must preserve every undisputed top-1 index");

    print_header("Edge: the same artifact serves standalone");
    let mut edge = EdgeSession::load(&quant_path)?;
    assert!(edge.is_quantized());
    float_engine.submit(1, streams[0].1[frames - 1].clone())?;
    let features = float_engine.session(1).expect("open").featurize_latest()?;
    float_engine.step()?;
    let want = float_engine.take_responses();
    let got = edge.infer(features.as_slice(), 1)?;
    let report = compare(&want[0].joints, got, &BUDGET)?;
    println!(
        "edge session: quantized inference within budget (max_abs {:.3e}), top-1 {:?} vs {:?}",
        report.max_abs,
        top1(got),
        top1(&want[0].joints),
    );
    assert!(
        top1_agrees(&want[0].joints, got),
        "the edge int8 tier must preserve every undisputed top-1 index"
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
