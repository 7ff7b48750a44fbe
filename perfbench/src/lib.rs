//! # fuse-perfbench
//!
//! The end-to-end benchmark of the FUSE serving stack. One command runs a
//! workload against the public APIs of `fuse-cluster`, `fuse-serve` and
//! `fuse-core`, checks every answer against a bare-engine replay, and prints
//! the metrics `BENCHMARK.json` names. `--trace 1` runs the workload a
//! second time with spans around every router call, replays the same inputs
//! through each lower layer, and prints the per-layer metrics instead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ward_10hz --seed 1 --seconds 10 --trace 0
//! ```

pub mod inputs;
pub mod probes;
pub mod replay;
pub mod serving;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use fuse_backend::BackendChoice;
use fuse_serve::Stage;

use crate::inputs::{Fnv, Inputs};
use crate::serving::{run_pass, Pass, BUDGET_MS};
use crate::stats::{beyond, mean, median, percentile};
use crate::trace::Tracer;

/// The workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop: 64 sessions at 10 Hz with staggered phases.
    Ward10Hz,
    /// Closed loop: 64 Clinical sessions, submit-all then `drain` rounds.
    WardSaturated,
    /// Closed loop with patient onboarding beside 16 streaming sessions.
    Onboarding,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::Ward10Hz, Workload::WardSaturated, Workload::Onboarding];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ward10Hz => "ward_10hz",
            Workload::WardSaturated => "ward_saturated",
            Workload::Onboarding => "onboarding",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics every workload prints with `--trace 0`: name, unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("frame_p50_ms", "ms"), ("frames_per_s", "1/s")];

/// Per-layer metrics every workload prints with `--trace 1`: name, unit.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("cluster.submit_us", "us"),
    ("cluster.poll_us", "us"),
    ("cluster.drain_ms", "ms"),
    ("cluster.dropped_frames", "count"),
    ("cluster.merged_frames", "count"),
    ("cluster.blocked_submits", "count"),
    ("cluster.queue_depth_max", "count"),
    ("serve.submit_us", "us"),
    ("serve.step_ms", "ms"),
    ("serve.batch_frames_mean", "frames"),
    ("serve.stage.fuse.p50_ms", "ms"),
    ("serve.stage.featurize.p50_ms", "ms"),
    ("serve.stage.inference.p50_ms", "ms"),
    ("serve.stage.total.p50_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("dataset.featurize_us", "us"),
    ("graph.plan_run_ms.b1", "ms"),
    ("graph.plan_run_ms.b8", "ms"),
    ("graph.plan_run_ms.b32", "ms"),
    ("graph.compile_ms", "ms"),
    ("graph.plan_decode_ms", "ms"),
    ("quant.plan_run_ms.b1", "ms"),
    ("quant.plan_run_ms.b8", "ms"),
    ("tensor.fc1_gflops.b1", "GFLOP/s"),
    ("tensor.fc1_gflops.b32", "GFLOP/s"),
    ("tensor.conv_gflops.b32", "GFLOP/s"),
    ("nn.train_batch_ms", "ms"),
    ("nn.param_sync_ms", "ms"),
    ("nn.adam_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("core.eval_share", "ratio"),
    ("net.rpc_round_trip_us", "us"),
    ("net.codec_ms_per_mib", "ms/MiB"),
    ("net.frames_per_op", "count"),
    ("trace.overhead_pct", "%"),
    ("layersum.unaccounted_ms", "ms"),
];

/// Environment pins every run holds: `(variable, value)`.
pub const PINS: [(&str, &str); 2] = [("FUSE_THREADS", "1"), ("FUSE_BACKEND", "simd")];

/// Command-line arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per pass.
    pub seconds: f64,
    /// Print per-layer metrics from a traced pass instead of end-to-end ones.
    pub trace: bool,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (router calls of every pass).
    pub attempted: u64,
    /// Operations that failed (errors, missing, non-finite or mismatched
    /// answers).
    pub failed: u64,
    /// Printed metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run conditions, one JSON object.
    pub conditions: String,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Applies the environment pins before any kernel reads them, and refuses
/// to run when a pin is overridden.
///
/// # Errors
///
/// Returns an error naming the overridden pin, or when the kernels do not
/// resolve to the pinned thread count and backend.
pub fn pin_environment() -> Result<(), String> {
    for (name, value) in PINS {
        match std::env::var(name) {
            Ok(set) if set != value => {
                return Err(format!(
                    "{name}={set} overrides the benchmark's pin {name}={value}; unset it"
                ))
            }
            Ok(_) => {}
            Err(_) => std::env::set_var(name, value),
        }
    }
    if fuse_parallel::available_threads() != 1 {
        return Err("kernels do not resolve to one thread".into());
    }
    if fuse_backend::active_choice() != BackendChoice::Simd {
        return Err("kernels do not resolve to the simd backend".into());
    }
    Ok(())
}

/// CPU SIMD features the kernels can use on this host.
fn cpu_simd_flags() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut flags = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) { flags.push($f); }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vnni");
        flags
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Where the run writes its scratch files: inside the build directory.
fn scratch_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("perfbench")
}

/// Inputs of a workload.
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn workload_inputs(workload: Workload, seed: u64) -> Result<Inputs, String> {
    use serving::{ONBOARDING_BASE_SESSIONS, PATIENT_POOL, STREAM_FRAMES, WARD_SESSIONS};
    match workload {
        Workload::Ward10Hz | Workload::WardSaturated => {
            // One patient: the traced run's training probes adapt on it.
            Inputs::generate(seed, WARD_SESSIONS, STREAM_FRAMES, 1)
        }
        Workload::Onboarding => {
            Inputs::generate(seed, ONBOARDING_BASE_SESSIONS, STREAM_FRAMES, PATIENT_POOL)
        }
    }
}

/// The correctness verdict of one pass.
#[derive(Debug, Default)]
struct Check {
    failed: u64,
    notes: Vec<String>,
}

/// Compares a pass with its bare-engine replay.
fn check(pass: &Pass, reference: &replay::Replay) -> Check {
    let mut c = Check::default();
    let (mut missing, mut both, mut unexpected, mut nonfinite, mut mismatched) = (0, 0, 0, 0, 0);
    for key in &pass.submitted {
        match (pass.answered.contains_key(key), pass.evicted.contains(key)) {
            (true, false) | (false, true) => {}
            (false, false) => missing += 1,
            (true, true) => both += 1,
        }
    }
    let submitted: std::collections::BTreeSet<_> = pass.submitted.iter().collect();
    let (mut cluster_digest, mut replay_digest) = (Fnv::default(), Fnv::default());
    for (key, joints) in &pass.answered {
        unexpected += u64::from(!submitted.contains(key));
        if joints.len() != fuse_dataset::LABEL_DIM || !joints.iter().all(|v| v.is_finite()) {
            nonfinite += 1;
        }
        let expected = reference.answered.get(key);
        let same = expected.is_some_and(|r| {
            r.len() == joints.len() && r.iter().zip(joints).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        mismatched += u64::from(!same);
        for (digest, values) in
            [(&mut cluster_digest, Some(joints)), (&mut replay_digest, expected)]
        {
            digest.word(key.0);
            digest.word(key.1);
            for v in values.into_iter().flatten() {
                digest.word(v.to_bits() as u64);
            }
        }
    }
    let mut mae_mismatch = 0;
    for (id, mae) in &pass.adapted_mae {
        let same = reference.adapted_mae.get(id).is_some_and(|r| r.to_bits() == mae.to_bits());
        mae_mismatch += u64::from(!same || !mae.is_finite());
    }
    c.failed = pass.call_errors
        + pass.duplicate_answers
        + missing
        + both
        + unexpected
        + nonfinite
        + mismatched
        + mae_mismatch;
    c.notes.push(format!(
        "answers {} (evicted {}) digest cluster {:016x} replay {:016x}; missing {missing}, \
         answered-and-evicted {both}, unexpected {unexpected}, non-finite {nonfinite}, \
         mismatched {mismatched}, adapted-MAE mismatches {mae_mismatch}, router errors {}, \
         duplicate answers {}",
        pass.answered.len(),
        pass.evicted.len(),
        cluster_digest.0,
        replay_digest.0,
        pass.call_errors,
        pass.duplicate_answers,
    ));
    if let Some(e) = &pass.first_error {
        c.notes.push(format!("first router error: {e}"));
    }
    c
}

/// The end-to-end metrics of one pass.
fn end_to_end(pass: &Pass) -> BTreeMap<&'static str, f64> {
    let nan = f64::NAN;
    BTreeMap::from([
        ("setup_s", median(&pass.setup_s).unwrap_or(nan)),
        ("frame_p50_ms", percentile(&pass.frame_ms, 50.0).unwrap_or(nan)),
        ("frames_per_s", pass.window_answered as f64 / pass.window_s),
    ])
}

/// Report lines for one pass: every end-to-end number, including the
/// workload-specific ones that are not gated.
fn describe(workload: Workload, label: &str, pass: &Pass, out: &mut Vec<String>) {
    let e2e = end_to_end(pass);
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    out.push(format!("[{label}] {} measured {:.2} s", workload.name(), pass.window_s));
    for (name, unit) in END_TO_END {
        out.push(format!("[{label}]   {name:<16} {:>12.4} {unit}", e2e[name]));
    }
    out.push(format!(
        "[{label}]   frame_p90_ms     {:>12} ms  (diagnostic)",
        fmt(percentile(&pass.frame_ms, 90.0))
    ));
    out.push(format!(
        "[{label}]   frame_p99_ms     {:>12} ms  (diagnostic; {} samples, {} beyond p99)",
        fmt(percentile(&pass.frame_ms, 99.0)),
        pass.frame_ms.len(),
        beyond(&pass.frame_ms, 99.0)
    ));
    out.push(format!(
        "[{label}]   miss_frac        {:>12.6} ratio  ({} of {} slots without an answer within {BUDGET_MS} ms)",
        1.0 - pass.on_time as f64 / pass.window_slots as f64,
        pass.window_slots - pass.on_time,
        pass.window_slots
    ));
    let chunk = (pass.frame_ms.len() / pass.window_s.round().max(1.0) as usize).max(1);
    let windows: Vec<String> = pass
        .frame_ms
        .chunks(chunk)
        .map(|c| {
            format!(
                "{:.2}/{:.2}",
                percentile(c, 50.0).unwrap_or(0.0),
                percentile(c, 90.0).unwrap_or(0.0)
            )
        })
        .collect();
    out.push(format!("[{label}]   per-second p50/p90 ms {}", windows.join(" ")));
    out.push(format!(
        "[{label}]   setup samples s  {:?}",
        pass.setup_s.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>()
    ));
    match workload {
        Workload::Ward10Hz => out.push(format!(
            "[{label}]   generator lateness p50 {} us, p99 {} us ({} sends)",
            fmt(percentile(&pass.lateness_us, 50.0)),
            fmt(percentile(&pass.lateness_us, 99.0)),
            pass.lateness_us.len()
        )),
        Workload::WardSaturated => out.push(format!(
            "[{label}]   round_p50_ms     {:>12} ms ({} rounds); patients per box {:.1}",
            fmt(median(&pass.round_ms)),
            pass.round_ms.len(),
            e2e["frames_per_s"] / 10.0
        )),
        Workload::Onboarding => {
            out.push(format!(
                "[{label}]   round_p50_ms     {:>12} ms ({} rounds)",
                fmt(median(&pass.round_ms)),
                pass.round_ms.len()
            ));
            let maes: Vec<f64> = pass.adapted_mae.values().map(|&m| m as f64).collect();
            out.push(format!(
                "[{label}]   adapt_s {} s, adapted_mae_cm {} cm, swap_ms {} ms, migrate_ms {} ms ({} patients)",
                fmt(median(&pass.adapt_s)),
                fmt(mean(&maes)),
                fmt(median(&pass.swap_ms)),
                fmt(median(&pass.migrate_ms)),
                pass.patients
            ));
        }
    }
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Returns an error when the environment pins are overridden or a layer
/// fails outside the checked paths (set-up, replay, probes, scratch I/O).
pub fn run(args: Args) -> Result<Outcome, String> {
    pin_environment()?;
    let scratch = scratch_dir();
    static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let run_dir = scratch.join(format!("run-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(args, &scratch, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(
    args: Args,
    scratch: &std::path::Path,
    run_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let workload = args.workload;
    let inputs = workload_inputs(workload, args.seed)?;
    let plan_files = vec![run_dir.join("base.fplan"), run_dir.join("alternate.fplan")];
    let step_each_submit = workload == Workload::Ward10Hz;
    let mut report = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;

    let cpu_before = cpu_ticks();
    let untraced = run_pass(workload, &inputs, args.seconds, false, &plan_files)?;
    let steal_pct = steal_percent(cpu_before, cpu_ticks());
    let reference = replay::replay(&inputs, &untraced.log, &plan_files, false, false)?;
    let verdict = check(&untraced, &reference);
    attempted += untraced.calls;
    failed += verdict.failed;
    describe(workload, "untraced", &untraced, &mut report);
    report.extend(verdict.notes.iter().map(|n| format!("[untraced] check: {n}")));
    let e2e = end_to_end(&untraced);

    let mut metrics = Vec::new();
    if !args.trace {
        for (name, unit) in END_TO_END {
            metrics.push((name, e2e[name], unit));
        }
    } else {
        let traced = run_pass(workload, &inputs, args.seconds, true, &plan_files)?;
        let reference = replay::replay(&inputs, &traced.log, &plan_files, step_each_submit, true)?;
        let verdict = check(&traced, &reference);
        attempted += traced.calls;
        failed += verdict.failed;
        describe(workload, "traced", &traced, &mut report);
        report.extend(verdict.notes.iter().map(|n| format!("[traced] check: {n}")));
        // Same seed, same adaptation: the fine-tune numerics must repeat.
        for (id, mae) in &traced.adapted_mae {
            if let Some(first) = untraced.adapted_mae.get(id) {
                if first.to_bits() != mae.to_bits() {
                    failed += 1;
                    report.push(format!("adapted MAE of session {id} differs across passes"));
                }
            }
        }
        let traced_e2e = end_to_end(&traced);
        for (name, unit) in END_TO_END {
            report.push(format!(
                "tracing overhead {name}: untraced {:.4} traced {:.4} {unit} ({:+.2}%)",
                e2e[name],
                traced_e2e[name],
                (traced_e2e[name] / e2e[name] - 1.0) * 100.0
            ));
        }

        let mut probe_tracer = Tracer::new(true);
        let adapt_base =
            (workload == Workload::Onboarding).then(|| median(&untraced.adapt_s)).flatten();
        let probed = probes::run_probes(&inputs, adapt_base, &mut probe_tracer, &mut report)?;
        let values =
            layer_values(workload, &e2e, &traced_e2e, &traced, &reference, probed, &mut report);
        for (name, unit) in PER_LAYER {
            let value =
                *values.get(name).ok_or_else(|| format!("per-layer metric {name} missing"))?;
            metrics.push((name, value, unit));
        }

        let mut spans = traced.tracer;
        spans.absorb(reference.tracer);
        spans.absorb(probe_tracer);
        let path = scratch.join(format!("trace-{}-seed{}.jsonl", workload.name(), args.seed));
        spans.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        report.push(format!("{} spans written to {}", spans.spans().len(), path.display()));
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
    }

    let attempted = attempted.max(1);
    report.push(format!(
        "operations: attempted {attempted}, succeeded {}, failed {failed}",
        attempted.saturating_sub(failed)
    ));
    let conditions = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"FUSE_THREADS\":\"{}\",\
         \"FUSE_BACKEND\":\"{}\",\"nproc\":{},\"cpu_simd\":\"{}\",\"gen_lateness_p50_us\":{},\
         \"gen_lateness_p99_us\":{},\"host_steal_pct\":{}}}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        PINS[0].1,
        PINS[1].1,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_simd_flags().join(","),
        json_number(percentile(&untraced.lateness_us, 50.0)),
        json_number(percentile(&untraced.lateness_us, 99.0)),
        json_number(steal_pct),
    );
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics, conditions, report })
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`, where the
/// kernel reports them.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings: wall-clock numbers inflate by about this much.
fn steal_percent(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
}

fn json_number(v: Option<f64>) -> String {
    v.filter(|v| v.is_finite()).map_or("null".into(), |v| v.to_string())
}

/// Assembles the per-layer metrics and prints the layer-sum report.
fn layer_values(
    workload: Workload,
    e2e: &BTreeMap<&'static str, f64>,
    traced_e2e: &BTreeMap<&'static str, f64>,
    traced: &Pass,
    reference: &replay::Replay,
    mut v: probes::LayerValues,
    report: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let nan = f64::NAN;
    let spans = &traced.tracer;
    let med_or = |samples: Vec<f64>, idle: &[f64]| {
        median(if idle.is_empty() { &samples } else { idle }).unwrap_or(nan)
    };
    let submit_ms = median(&spans.durations_ms("cluster.submit")).unwrap_or(nan);
    v.insert("cluster.submit_us", submit_ms * 1e3);
    v.insert(
        "cluster.poll_us",
        med_or(spans.durations_ms("cluster.poll"), &traced.idle_poll_ms) * 1e3,
    );
    v.insert(
        "cluster.drain_ms",
        med_or(spans.durations_ms("cluster.drain"), &traced.idle_drain_ms),
    );
    let stage = |s: Stage| {
        traced.metrics.as_ref().and_then(|m| {
            m.report.stages.iter().find(|(st, _)| *st == s).map(|(_, stats)| stats.p50_ms)
        })
    };
    if let Some(m) = &traced.metrics {
        v.insert("cluster.dropped_frames", m.dropped_frames() as f64);
        v.insert("cluster.merged_frames", m.merged_frames() as f64);
        v.insert("cluster.blocked_submits", m.blocked_submits() as f64);
    }
    v.insert("cluster.queue_depth_max", traced.queue_depth_max as f64);
    let serve_submit_ms = median(&reference.tracer.durations_ms("serve.submit")).unwrap_or(nan);
    let step_ms = median(&reference.tracer.durations_ms("serve.step")).unwrap_or(nan);
    let batch = mean(&reference.batch_frames).unwrap_or(nan);
    v.insert("serve.submit_us", serve_submit_ms * 1e3);
    v.insert("serve.step_ms", step_ms);
    v.insert("serve.batch_frames_mean", batch);
    let stages: Vec<f64> = Stage::ALL.iter().map(|&s| stage(s).unwrap_or(nan)).collect();
    for (name, value) in [
        "serve.stage.fuse.p50_ms",
        "serve.stage.featurize.p50_ms",
        "serve.stage.inference.p50_ms",
        "serve.stage.total.p50_ms",
    ]
    .into_iter()
    .zip(&stages)
    {
        v.insert(name, *value);
    }
    v.insert("serve.queue_wait_ms", stages[3] - stages[0] - stages[1] - stages[2]);
    if workload == Workload::Onboarding {
        v.insert("net.frames_per_op", traced.wire_frames as f64 / traced.calls as f64);
    }
    v.insert(
        "trace.overhead_pct",
        (traced_e2e["frame_p50_ms"] / e2e["frame_p50_ms"] - 1.0) * 100.0,
    );

    // Layer sum: the self times on one frame's blocking path against the
    // untraced end-to-end median.
    let selfs = spans.self_times_ms();
    let self_med = |name: &str| selfs.get(name).and_then(|s| median(s)).unwrap_or(0.0);
    let per_round = match workload {
        Workload::Ward10Hz => 1.0,
        Workload::WardSaturated => serving::WARD_SESSIONS as f64,
        Workload::Onboarding => (serving::ONBOARDING_BASE_SESSIONS + 1) as f64,
    };
    let mut parts = vec![
        (format!("cluster.submit self x {per_round}"), per_round * self_med("cluster.submit")),
        (format!("serve.submit x {:.1} frames/step", batch), batch * serve_submit_ms),
        (format!("serve.step at {batch:.1} frames"), step_ms),
    ];
    if workload == Workload::Ward10Hz {
        parts.push(("cluster.poll self".into(), self_med("cluster.poll")));
    } else {
        parts.push(("round self".into(), self_med("round")));
    }
    let accounted: f64 = parts.iter().map(|(_, ms)| ms).sum();
    let unaccounted = e2e["frame_p50_ms"] - accounted;
    v.insert("layersum.unaccounted_ms", unaccounted);
    report.push(format!(
        "layer sum ({}), ms: frame_p50_ms {:.4} (untraced)",
        workload.name(),
        e2e["frame_p50_ms"]
    ));
    for (name, ms) in &parts {
        report.push(format!("layer sum   {name:<34} {ms:>10.4}"));
    }
    report.push(format!("layer sum   {:<34} {unaccounted:>10.4}", "unaccounted_ms"));
    v
}
