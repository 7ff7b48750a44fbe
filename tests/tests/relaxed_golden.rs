//! Relaxed-contract golden verification: tolerance-based replay of the
//! committed serve-stream golden through the int8 quantized tier and the
//! FMA-capable backend leg.
//!
//! The exact contract pins outputs byte-for-byte (`golden_trace.rs`). The
//! relaxed tier — int8 weight-quantized plans and `FUSE_BACKEND=simd-fma`
//! float kernels — is *allowed* to deviate, but only within a **declared,
//! committed accuracy budget**: `tests/goldens/relaxed_budgets.json` maps
//! each relaxed leg to the `fuse_quant::compare::Tolerance` it must satisfy
//! against the same float goldens the exact tests use, and every response
//! must preserve the float golden's top-1 index. The budget file is policy,
//! not output: it is hand-maintained and never regenerated by
//! `UPDATE_GOLDENS`.
//!
//! The FMA test is the target of the CI `FUSE_BACKEND=simd-fma` leg; under
//! an exact backend (`scalar`/`simd`/`auto`) it degenerates to bitwise
//! equality, so it is safe on hosts without FMA where `simd-fma` refuses to
//! start.

use std::collections::HashMap;
use std::path::PathBuf;

use serde::Deserialize;

use fuse_core::{build_mars_cnn, ModelConfig};
use fuse_edge::EdgeSession;
use fuse_quant::compare::{compare, top1, CompareReport, Tolerance};
use fuse_radar::{FastScatterModel, PointCloudFrame, RadarConfig, Scatterer, Scene};
use fuse_serve::{ServeConfig, ServeEngine, SessionConfig};
use fuse_skeleton::{body_surface_points, Movement, MovementAnimator, Subject};
use fuse_tests::golden::goldens_dir;

/// The fields of the committed serve-stream golden this harness replays
/// (`serve_session_stream.json`, written by `golden_trace.rs`).
#[derive(Debug, Deserialize)]
struct ServeStreamGolden {
    responses: Vec<Vec<f32>>,
}

#[derive(Debug, Deserialize)]
struct BudgetSpec {
    max_ulp: u64,
    max_abs: f32,
    max_rel: f32,
}

/// Loads the committed budget for one relaxed leg. A missing entry is a
/// test failure: a relaxed path without a declared budget is unverifiable.
fn budget(leg: &str) -> Tolerance {
    let path: PathBuf = goldens_dir().join("relaxed_budgets.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing budget file {} ({e})", path.display()));
    let budgets: HashMap<String, BudgetSpec> =
        serde_json::from_str(&raw).expect("relaxed_budgets.json parses");
    let spec =
        budgets.get(leg).unwrap_or_else(|| panic!("no committed budget for relaxed leg {leg:?}"));
    Tolerance { max_ulp: spec.max_ulp, max_abs: spec.max_abs, max_rel: spec.max_rel }
}

fn golden_responses() -> Vec<Vec<f32>> {
    let path = goldens_dir().join("serve_session_stream.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing serve golden {} ({e})", path.display()));
    let golden: ServeStreamGolden = serde_json::from_str(&raw).expect("serve golden parses");
    assert_eq!(golden.responses.len(), 5, "the committed stream is five frames");
    golden.responses
}

/// The exact frame stream behind the committed serve golden (same subject,
/// movement, seeds and scatter model as `golden_trace.rs`).
fn golden_frames() -> Vec<PointCloudFrame> {
    let animator =
        MovementAnimator::new(Subject::profile(1), Movement::BothUpperLimbExtension, 10.0)
            .with_seed(4);
    let samples = animator.sample_frames_with_velocities(0.0, 5);
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());
    samples
        .iter()
        .enumerate()
        .map(|(i, (skeleton, velocities))| {
            let scene: Scene = body_surface_points(skeleton, velocities, 3)
                .iter()
                .map(|p| Scatterer::new(p.position, p.velocity, p.reflectivity))
                .collect();
            scatter.sample(&scene, i as u64)
        })
        .collect()
}

fn golden_engine() -> ServeEngine {
    let model = build_mars_cnn(&ModelConfig::tiny(), 21).expect("model builds");
    ServeEngine::new(model, ServeConfig::default()).expect("engine builds")
}

/// Streams the five golden frames through `engine`, comparing each response
/// against the committed golden within `tol` and requiring top-1 agreement
/// on every frame. Returns the worst observed deviations.
fn replay_against_golden(engine: &mut ServeEngine, tol: &Tolerance) -> CompareReport {
    let golden = golden_responses();
    let mut worst = CompareReport::default();
    engine.open_session(SessionConfig::new(0)).expect("session opens");
    for (i, frame) in golden_frames().into_iter().enumerate() {
        engine.submit(0, frame).expect("submit succeeds");
        assert_eq!(engine.step().expect("step succeeds"), 1);
        let responses = engine.take_responses();
        let report = compare(&golden[i], &responses[0].joints, tol)
            .unwrap_or_else(|e| panic!("frame {i} out of budget: {e}"));
        worst.max_abs = worst.max_abs.max(report.max_abs);
        worst.max_rel = worst.max_rel.max(report.max_rel);
        worst.max_ulp = worst.max_ulp.max(report.max_ulp);
        assert_eq!(
            top1(&responses[0].joints),
            top1(&golden[i]),
            "frame {i} must preserve the golden's top-1 index"
        );
    }
    worst
}

#[test]
fn quantized_plan_serves_the_golden_stream_within_budget() {
    let tol = budget("serve_session_stream/int8");
    let dir = std::env::temp_dir().join("fuse_relaxed_golden_int8");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden-int8.fplan");

    // Export the int8 artifact from one engine, hot-swap it into another —
    // the full deployment round trip — then replay the golden stream.
    golden_engine().export_quantized_plan(&path).unwrap();
    let mut engine = golden_engine();
    engine.hot_swap_plan(&path).unwrap();
    assert!(engine.plan().is_quantized());
    let worst = replay_against_golden(&mut engine, &tol);
    eprintln!("int8 serve leg: worst deviation {worst:?} within {tol:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quantized_edge_session_serves_the_golden_stream_within_budget() {
    let tol = budget("serve_session_stream/int8");
    let golden = golden_responses();

    // The edge half of the acceptance criterion: the same quantized plan,
    // loaded standalone from artifact bytes, must track the committed float
    // golden frame for frame. A float reference engine supplies the fused
    // feature maps (fusion/featurization are exact-contract stages).
    let mut reference = golden_engine();
    let bytes = reference.plan().quantize().unwrap().to_bytes();
    reference.open_session(SessionConfig::new(0)).expect("session opens");
    let mut edge = EdgeSession::from_bytes(&bytes).unwrap();
    assert!(edge.is_quantized());
    for (i, frame) in golden_frames().into_iter().enumerate() {
        reference.submit(0, frame).expect("submit succeeds");
        let features = reference.session(0).expect("open").featurize_latest().expect("features");
        let joints = edge.infer(features.as_slice(), 1).unwrap();
        compare(&golden[i], joints, &tol)
            .unwrap_or_else(|e| panic!("edge frame {i} out of budget: {e}"));
        assert_eq!(top1(joints), top1(&golden[i]), "edge frame {i} top-1 must agree");
    }
}

#[test]
fn active_backend_serves_the_golden_stream_within_fma_budget() {
    // The CI relaxed leg runs this whole test binary under
    // `FUSE_BACKEND=simd-fma`: float plans then route their gemm/conv steps
    // through the FMA kernels, and this test bounds the drift. Under the
    // exact backends the engine reproduces the golden bit-for-bit and the
    // comparison is trivially within budget.
    let tol = budget("serve_session_stream/fma");
    let worst = replay_against_golden(&mut golden_engine(), &tol);
    eprintln!("float serve leg: worst deviation {worst:?} within {tol:?}");
}
