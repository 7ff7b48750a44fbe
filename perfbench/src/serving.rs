//! The timed passes: each workload driven through the public
//! `fuse-cluster` API, exactly as an embedding application would.
//!
//! A pass records what it sent (an [`Op`] log the replay re-runs), what came
//! back, and its timings. With tracing on, every call into the router sits
//! inside a span.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fuse_cluster::{
    ClusterConfig, ClusterMetrics, ClusterRouter, HostShard, SessionConfig, ShardSpec, SloClass,
};
use fuse_core::{build_mars_cnn, ModelConfig};
use fuse_net::{sim_pair, FaultConfig, FaultHandle};
use fuse_radar::PointCloudFrame;
use fuse_serve::{ServeConfig, ServeEngine, ServeResponse};

use crate::inputs::{mix, Inputs, ADAPT_EPOCHS, PATIENT_ID_BASE, PATIENT_ROUNDS};
use crate::trace::Tracer;
use crate::Workload;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Standing sessions of the ward workloads.
pub const WARD_SESSIONS: usize = 64;
/// Standing sessions of the onboarding workload.
pub const ONBOARDING_BASE_SESSIONS: usize = 16;
/// Frames per standing-session stream (cycled).
pub const STREAM_FRAMES: usize = 100;
/// Distinct patients generated per run (arrivals cycle through them).
pub const PATIENT_POOL: usize = 8;
/// Per-frame budget at 10 Hz.
pub const BUDGET_MS: f64 = 100.0;
/// Cadence of one session at 10 Hz.
const PERIOD: Duration = Duration::from_millis(100);
/// Longest gap between two `poll_responses` calls in `ward_10hz`.
const POLL_EVERY: Duration = Duration::from_millis(1);
/// Untimed 10 Hz slots before `ward_10hz` starts measuring.
const WARM_SLOTS: usize = 5;
/// Untimed rounds before the closed loops start measuring.
const WARM_ROUNDS: usize = 5;

/// One thing the pass sent to the cluster, in order. The replay re-runs the
/// log on bare engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `open_session`.
    Open { id: u64, slo: SloClass },
    /// `submit` of frame `k` of the session's input stream.
    Submit { id: u64, k: usize },
    /// `tick`: the session's producer missed this slot.
    Tick { id: u64 },
    /// End of a round or 10 Hz slot: every submitted frame may be served.
    Round,
    /// `adapt_session` on the session's patient data.
    Adapt { id: u64 },
    /// `hot_swap_plan` of plan file `file`.
    Swap { file: usize },
    /// `close_session`.
    Close { id: u64 },
}

/// The SLO class of ward session `id`: 0,1 Clinical; 2 Interactive;
/// 3 Dashboard.
pub fn ward_class(id: u64) -> SloClass {
    match id % 4 {
        0 | 1 => SloClass::Clinical,
        2 => SloClass::Interactive,
        _ => SloClass::Dashboard,
    }
}

/// The frame behind `Op::Submit { id, k }`.
pub fn frame_for(inputs: &Inputs, id: u64, k: usize) -> &PointCloudFrame {
    if id >= PATIENT_ID_BASE {
        &patient_for(inputs, id).stream[k]
    } else {
        inputs.frame(id, k)
    }
}

/// The pool patient behind session `id`.
pub fn patient_for(inputs: &Inputs, id: u64) -> &crate::inputs::Patient {
    &inputs.patients[(id - PATIENT_ID_BASE) as usize % inputs.patients.len()]
}

/// Seed of the shared base model.
pub fn model_seed(seed: u64) -> u64 {
    mix(seed, 0xba5e)
}

/// What one timed pass observed.
#[derive(Debug, Default)]
pub struct Pass {
    /// What was sent, in order.
    pub log: Vec<Op>,
    /// Every `(session, frame)` submitted.
    pub submitted: Vec<(u64, u64)>,
    /// Answers by `(session, frame)`.
    pub answered: BTreeMap<(u64, u64), Vec<f32>>,
    /// Answers that arrived more than once.
    pub duplicate_answers: u64,
    /// Frames backpressure dropped or merged away.
    pub evicted: BTreeSet<(u64, u64)>,
    /// `FineTuneResult::new_error_at(epochs)` (cm) per adapted session.
    pub adapted_mae: BTreeMap<u64, f32>,
    /// Router calls made.
    pub calls: u64,
    /// Router calls that returned an error.
    pub call_errors: u64,
    /// First router error, for the report.
    pub first_error: Option<String>,
    /// Every set-up time (s).
    pub setup_s: Vec<f64>,
    /// Per-frame latency samples in the measured window (ms).
    pub frame_ms: Vec<f64>,
    /// Slots in the measured window (frames due plus missed slots).
    pub window_slots: u64,
    /// Frames of the measured window answered within the budget.
    pub on_time: u64,
    /// Frames of the measured window answered at all.
    pub window_answered: u64,
    /// Wall time of the measured window (s).
    pub window_s: f64,
    /// Round times in the measured window (closed loops, ms).
    pub round_ms: Vec<f64>,
    /// Generator lateness: send time minus due time (µs, `ward_10hz`).
    pub lateness_us: Vec<f64>,
    /// `adapt_session` wall times (s).
    pub adapt_s: Vec<f64>,
    /// `hot_swap_plan` wall times (ms).
    pub swap_ms: Vec<f64>,
    /// `migrate_session` wall times (ms).
    pub migrate_ms: Vec<f64>,
    /// Patients fully onboarded.
    pub patients: usize,
    /// Spans around every router call (empty when untraced).
    pub tracer: Tracer,
    /// Largest cluster queue depth seen by the traced snapshots.
    pub queue_depth_max: usize,
    /// The router's metrics after the run (traced passes).
    pub metrics: Option<ClusterMetrics>,
    /// Idle-router `poll_responses` times (ms) for workloads that never poll.
    pub idle_poll_ms: Vec<f64>,
    /// Idle-router `drain` times (ms) for the open loop, which drains once.
    pub idle_drain_ms: Vec<f64>,
    /// Frames sent over the remote link, both directions.
    pub wire_frames: u64,
}

impl Pass {
    fn new(trace: bool) -> Self {
        Pass { tracer: Tracer::new(trace), ..Pass::default() }
    }

    /// Records the outcome of one router call.
    fn call<T>(&mut self, result: fuse_cluster::Result<T>) -> Option<T> {
        self.calls += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.call_errors += 1;
                self.first_error.get_or_insert_with(|| e.to_string());
                None
            }
        }
    }

    fn answer(&mut self, response: ServeResponse) {
        let key = (response.session_id, response.frame_index);
        if self.answered.insert(key, response.joints).is_some() {
            self.duplicate_answers += 1;
        }
    }
}

/// A cluster ready for the first submit.
struct Rig {
    router: ClusterRouter,
    host: Option<JoinHandle<Result<(), String>>>,
    faults: Vec<FaultHandle>,
}

impl Rig {
    /// Shuts the router down and joins the remote host, reporting how the
    /// host ended.
    fn shutdown(self) -> Result<(), String> {
        self.router.shutdown();
        match self.host.map(JoinHandle::join) {
            None | Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("host shard failed: {e}")),
            Some(Err(_)) => Err("host shard thread panicked".into()),
        }
    }
}

fn cluster_config(workload: Workload) -> ClusterConfig {
    ClusterConfig {
        serve: ServeConfig::default(),
        shards: 2,
        // The open loop serves as frames arrive; the closed loops step only
        // inside `drain`, so a round is one full batch per shard.
        auto_step: workload == Workload::Ward10Hz,
        ..ClusterConfig::default()
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Builds the workload's cluster: model, plan compile, shard (and host)
/// spawn, session opens and, for onboarding, the two swap plans.
fn set_up(workload: Workload, seed: u64, plan_files: &[PathBuf]) -> Result<Rig, String> {
    let model = build_mars_cnn(&ModelConfig::default(), model_seed(seed)).map_err(err)?;
    let config = cluster_config(workload);
    let (router, host, faults) = if workload == Workload::Onboarding {
        let (router_end, host_end) = sim_pair(FaultConfig::default(), FaultConfig::default());
        let faults = vec![router_end.fault_handle(), host_end.fault_handle()];
        let host_shard = HostShard::new(model.clone(), config.clone()).map_err(err)?;
        let host = std::thread::Builder::new()
            .name("perfbench-host-shard".into())
            .spawn(move || host_shard.serve(host_end).map_err(err))
            .map_err(err)?;
        let specs = vec![ShardSpec::Local, ShardSpec::Remote(Box::new(router_end))];
        let router = ClusterRouter::with_shards(model.clone(), config, specs).map_err(err)?;
        (router, Some(host), faults)
    } else {
        (ClusterRouter::new(model.clone(), config).map_err(err)?, None, Vec::new())
    };
    let mut rig = Rig { router, host, faults };
    let opened = match workload {
        Workload::Ward10Hz => (0..WARD_SESSIONS as u64)
            .try_for_each(|id| rig.router.open_session(SessionConfig::new(id).slo(ward_class(id)))),
        Workload::WardSaturated => (0..WARD_SESSIONS as u64).try_for_each(|id| {
            rig.router.open_session(SessionConfig::new(id).slo(SloClass::Clinical))
        }),
        Workload::Onboarding => (0..ONBOARDING_BASE_SESSIONS as u64).try_for_each(|id| {
            rig.router.open_session(SessionConfig::new(id).slo(SloClass::Clinical))
        }),
    };
    if let Err(e) = opened {
        rig.shutdown()?;
        return Err(e.to_string());
    }
    if workload == Workload::Onboarding {
        // The base plan and an alternative one; swaps alternate between them.
        for (i, path) in plan_files.iter().enumerate() {
            let weights = build_mars_cnn(&ModelConfig::default(), model_seed(seed) + i as u64)
                .map_err(err)?;
            ServeEngine::new(weights, ServeConfig::default())
                .and_then(|engine| engine.export_plan(path))
                .map_err(err)?;
        }
    }
    Ok(rig)
}

fn open_ops(workload: Workload) -> Vec<Op> {
    match workload {
        Workload::Ward10Hz => {
            (0..WARD_SESSIONS as u64).map(|id| Op::Open { id, slo: ward_class(id) }).collect()
        }
        Workload::WardSaturated => {
            (0..WARD_SESSIONS as u64).map(|id| Op::Open { id, slo: SloClass::Clinical }).collect()
        }
        Workload::Onboarding => (0..ONBOARDING_BASE_SESSIONS as u64)
            .map(|id| Op::Open { id, slo: SloClass::Clinical })
            .collect(),
    }
}

/// Runs one timed pass of `workload`.
///
/// # Errors
///
/// Returns an error when the cluster cannot be set up.
pub fn run_pass(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    trace: bool,
    plan_files: &[PathBuf],
) -> Result<Pass, String> {
    let mut pass = Pass::new(trace);
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = rig.take() {
            Rig::shutdown(previous)?;
        }
        let start = Instant::now();
        rig = Some(set_up(workload, inputs.seed, plan_files)?);
        pass.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("SETUP_REPEATS > 0");
    pass.log = open_ops(workload);
    pass.calls += pass.log.len() as u64;
    match workload {
        Workload::Ward10Hz => ward_10hz(&mut pass, &mut rig.router, inputs, seconds),
        Workload::WardSaturated => closed_rounds(&mut pass, &mut rig.router, inputs, seconds),
        Workload::Onboarding => onboarding(&mut pass, &mut rig.router, inputs, seconds, plan_files),
    }
    if trace {
        probe_idle_router(&mut pass, &mut rig.router, workload);
        let metrics = rig.router.metrics();
        pass.metrics = pass.call(metrics);
    }
    pass.wire_frames = rig.faults.iter().map(|f| f.snapshot().sent).sum();
    rig.shutdown()?;
    Ok(pass)
}

/// Snapshots the cluster and tracks its deepest queue (traced passes).
fn snapshot(pass: &mut Pass, router: &mut ClusterRouter) {
    let open = pass.tracer.begin("cluster.metrics", 0);
    let metrics = router.metrics();
    pass.tracer.end(open);
    if let Some(m) = pass.call(metrics) {
        pass.queue_depth_max = pass.queue_depth_max.max(m.queue_depth());
    }
}

/// The open loop: 64 sessions due every 100 ms with evenly staggered
/// phases; Dashboard sessions miss every fifth slot.
fn ward_10hz(pass: &mut Pass, router: &mut ClusterRouter, inputs: &Inputs, seconds: f64) {
    let n = WARD_SESSIONS;
    let slots = WARM_SLOTS + (seconds * 10.0).round().max(1.0) as usize;
    let mut due_at: Vec<Vec<Instant>> = vec![Vec::new(); n];
    let mut in_window: Vec<Vec<bool>> = vec![Vec::new(); n];
    let start = Instant::now() + Duration::from_millis(10);
    let window_start = start + PERIOD * WARM_SLOTS as u32;
    let mut last_poll = Instant::now();
    let mut last_snapshot = Instant::now();
    let mut last_answer = window_start;

    let poll = |pass: &mut Pass,
                router: &mut ClusterRouter,
                due_at: &[Vec<Instant>],
                in_window: &[Vec<bool>],
                last_answer: &mut Instant| {
        let open = pass.tracer.begin("cluster.poll", 0);
        let polled = router.poll_responses();
        pass.tracer.end(open);
        let at = Instant::now();
        for r in pass.call(polled).unwrap_or_default() {
            let (id, fi) = (r.session_id as usize, r.frame_index as usize);
            if let Some(&due) = due_at.get(id).and_then(|d| d.get(fi)) {
                if in_window[id][fi] {
                    let ms = at.duration_since(due).as_secs_f64() * 1e3;
                    pass.frame_ms.push(ms);
                    pass.window_answered += 1;
                    pass.on_time += u64::from(ms <= BUDGET_MS);
                    *last_answer = at;
                }
            }
            pass.answer(r);
        }
    };

    for slot in 0..slots {
        let measured = slot >= WARM_SLOTS;
        for i in 0..n {
            let due = start + PERIOD * slot as u32 + PERIOD * i as u32 / n as u32;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let next_poll = last_poll + POLL_EVERY;
                if now >= next_poll {
                    poll(pass, router, &due_at, &in_window, &mut last_answer);
                    last_poll = Instant::now();
                } else {
                    std::thread::sleep(due.min(next_poll) - now);
                }
            }
            let id = i as u64;
            let sent = Instant::now();
            if measured {
                pass.lateness_us.push(sent.duration_since(due).as_secs_f64() * 1e6);
                pass.window_slots += 1;
            }
            if ward_class(id) == SloClass::Dashboard && slot % 5 == 4 {
                let open = pass.tracer.begin("cluster.tick", id);
                let ticked = router.tick(id);
                pass.tracer.end(open);
                pass.call(ticked);
                pass.log.push(Op::Tick { id });
            } else {
                let frame_index = due_at[i].len() as u64;
                let frame = frame_for(inputs, id, slot).clone();
                let open = pass.tracer.begin("cluster.submit", id << 32 | frame_index);
                let submitted = router.submit(id, frame);
                pass.tracer.end(open);
                pass.call(submitted);
                due_at[i].push(due);
                in_window[i].push(measured);
                pass.submitted.push((id, frame_index));
                pass.log.push(Op::Submit { id, k: slot });
            }
            if Instant::now() >= last_poll + POLL_EVERY {
                poll(pass, router, &due_at, &in_window, &mut last_answer);
                last_poll = Instant::now();
            }
            if pass.tracer.enabled() && last_snapshot.elapsed() >= PERIOD {
                snapshot(pass, router);
                last_snapshot = Instant::now();
            }
        }
        pass.log.push(Op::Round);
    }
    // Collect the tail, then a barrier for stragglers and eviction records.
    let tail_deadline = Instant::now() + Duration::from_secs(1);
    while pass.answered.len() < pass.submitted.len() && Instant::now() < tail_deadline {
        std::thread::sleep(POLL_EVERY);
        poll(pass, router, &due_at, &in_window, &mut last_answer);
    }
    let open = pass.tracer.begin("cluster.drain", 0);
    let drained = router.drain();
    pass.tracer.end(open);
    let at = Instant::now();
    if let Some(report) = pass.call(drained) {
        for r in report.responses {
            let (id, fi) = (r.session_id as usize, r.frame_index as usize);
            if in_window.get(id).and_then(|w| w.get(fi)) == Some(&true) {
                let ms = at.duration_since(due_at[id][fi]).as_secs_f64() * 1e3;
                pass.frame_ms.push(ms);
                pass.window_answered += 1;
                pass.on_time += u64::from(ms <= BUDGET_MS);
                last_answer = at;
            }
            pass.answer(r);
        }
        pass.evicted.extend(report.dropped.into_iter().chain(report.merged));
    }
    pass.window_s = last_answer.saturating_duration_since(window_start).as_secs_f64();
}

/// One closed-loop round: submit a frame for each `(session, stream index)`,
/// then `drain`. Returns the round time in ms and the number of answers.
fn round(
    pass: &mut Pass,
    router: &mut ClusterRouter,
    inputs: &Inputs,
    frames: &[(u64, usize)],
    next_index: &mut BTreeMap<u64, u64>,
    snapshot_queued: bool,
) -> (f64, u64) {
    let start = Instant::now();
    let open_round = pass.tracer.begin("round", 0);
    for &(id, k) in frames {
        let frame_index = next_index.entry(id).or_insert(0);
        let frame = frame_for(inputs, id, k).clone();
        let open = pass.tracer.begin("cluster.submit", id << 32 | *frame_index);
        let submitted = router.submit(id, frame);
        pass.tracer.end(open);
        pass.call(submitted);
        pass.submitted.push((id, *frame_index));
        pass.log.push(Op::Submit { id, k });
        *frame_index += 1;
    }
    if snapshot_queued && pass.tracer.enabled() {
        // Every frame of the round is queued now.
        snapshot(pass, router);
    }
    let open = pass.tracer.begin("cluster.drain", 0);
    let drained = router.drain();
    pass.tracer.end(open);
    pass.tracer.end(open_round);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    pass.log.push(Op::Round);
    let mut answers = 0;
    if let Some(report) = pass.call(drained) {
        answers = report.responses.len() as u64;
        for r in report.responses {
            pass.answer(r);
        }
        pass.evicted.extend(report.dropped.into_iter().chain(report.merged));
    }
    (ms, answers)
}

/// Books a measured closed-loop round: every frame in it waited the whole
/// round.
fn book_round(pass: &mut Pass, ms: f64, answers: u64, frames: usize) {
    pass.round_ms.push(ms);
    pass.window_slots += frames as u64;
    pass.window_answered += answers;
    for _ in 0..answers {
        pass.frame_ms.push(ms);
    }
    if ms <= BUDGET_MS {
        pass.on_time += answers;
    }
}

/// The saturated closed loop: 64 Clinical sessions, one frame each per
/// round, then `drain`.
fn closed_rounds(pass: &mut Pass, router: &mut ClusterRouter, inputs: &Inputs, seconds: f64) {
    let mut next_index = BTreeMap::new();
    let mut window_start = Instant::now();
    for r in 0.. {
        if r == WARM_ROUNDS {
            window_start = Instant::now();
        }
        let frames: Vec<(u64, usize)> = (0..WARD_SESSIONS as u64).map(|id| (id, r)).collect();
        let (ms, answers) = round(pass, router, inputs, &frames, &mut next_index, r % 10 == 0);
        if r >= WARM_ROUNDS {
            book_round(pass, ms, answers, frames.len());
            if window_start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }
    pass.window_s = window_start.elapsed().as_secs_f64();
}

/// Patients arrive one after another beside 16 streaming sessions: open,
/// adapt, stream, migrate across the wire, stream, close, swap the base
/// plan.
fn onboarding(
    pass: &mut Pass,
    router: &mut ClusterRouter,
    inputs: &Inputs,
    seconds: f64,
    plan_files: &[PathBuf],
) {
    let mut next_index = BTreeMap::new();
    let mut base_round = 0usize;
    let base_frames = |r: usize| -> Vec<(u64, usize)> {
        (0..ONBOARDING_BASE_SESSIONS as u64).map(|id| (id, r)).collect()
    };
    for _ in 0..WARM_ROUNDS {
        round(pass, router, inputs, &base_frames(base_round), &mut next_index, false);
        base_round += 1;
    }
    let window_start = Instant::now();
    for p in 0.. {
        let id = PATIENT_ID_BASE + p as u64;
        let patient = patient_for(inputs, id);
        let open_patient = pass.tracer.begin("patient", id);

        let opened = pass.tracer.span("cluster.open", id, || {
            router.open_session(SessionConfig::new(id).slo(SloClass::Clinical))
        });
        pass.call(opened);
        pass.log.push(Op::Open { id, slo: SloClass::Clinical });

        let start = Instant::now();
        let adapted = pass.tracer.span("cluster.adapt", id, || {
            router.adapt_session(id, &patient.adapt, &patient.finetune)
        });
        let adapt_s = start.elapsed().as_secs_f64();
        pass.log.push(Op::Adapt { id });
        if let Some(result) = pass.call(adapted) {
            pass.adapt_s.push(adapt_s);
            pass.adapted_mae.insert(id, result.new_error_at(ADAPT_EPOCHS).average_cm());
        }

        for half in 0..2 {
            if half == 1 {
                let target = 1 - router.shard_of(id);
                let start = Instant::now();
                let migrated =
                    pass.tracer.span("cluster.migrate", id, || router.migrate_session(id, target));
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if pass.call(migrated).is_some() {
                    pass.migrate_ms.push(ms);
                }
            }
            for k in half * PATIENT_ROUNDS..(half + 1) * PATIENT_ROUNDS {
                let mut frames = base_frames(base_round);
                frames.push((id, k));
                base_round += 1;
                let (ms, answers) =
                    round(pass, router, inputs, &frames, &mut next_index, k == PATIENT_ROUNDS);
                book_round(pass, ms, answers, frames.len());
            }
        }

        let closed = pass.tracer.span("cluster.close", id, || router.close_session(id));
        if let Some(closed) = pass.call(closed) {
            // Frames still queued at close were never answered; the
            // completeness check reports them.
            debug_assert!(closed.unserved_frames.is_empty());
        }
        pass.log.push(Op::Close { id });

        let file = (p + 1) % plan_files.len();
        let start = Instant::now();
        let swapped = pass
            .tracer
            .span("cluster.swap", id, || router.hot_swap_plan(Path::new(&plan_files[file])));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if pass.call(swapped).is_some() {
            pass.swap_ms.push(ms);
        }
        pass.log.push(Op::Swap { file });
        pass.tracer.end(open_patient);
        pass.patients += 1;
        if window_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    pass.window_s = window_start.elapsed().as_secs_f64();
}

/// Router calls a workload never makes, timed on the quiesced router after
/// the traced pass so every cluster metric has a value.
fn probe_idle_router(pass: &mut Pass, router: &mut ClusterRouter, workload: Workload) {
    const CALLS: usize = 50;
    for _ in 0..CALLS {
        let start = Instant::now();
        if workload == Workload::Ward10Hz {
            let drained = router.drain();
            pass.idle_drain_ms.push(start.elapsed().as_secs_f64() * 1e3);
            pass.call(drained);
        } else {
            let polled = router.poll_responses();
            pass.idle_poll_ms.push(start.elapsed().as_secs_f64() * 1e3);
            pass.call(polled);
        }
    }
}
