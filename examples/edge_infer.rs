//! Serving a compiled `.fplan` artifact on an edge device.
//!
//! The deployment split this example demonstrates:
//!
//! 1. **Producer** (a training or serving host): build the MARS CNN, let the
//!    serving engine lower and compile it, then export the compiled plan as a
//!    self-contained `.fplan` artifact ([`ServeEngine::export_plan`]) —
//!    signature, fused step schedule, arena layout and parameter snapshot in
//!    one versioned, checksummed binary file.
//! 2. **Edge** (the deployment target): load the artifact with
//!    [`fuse_edge::EdgeSession`] and serve frames. The edge side carries no
//!    `fuse-nn`, no lowering and no compiler — just the artifact and the
//!    kernels — and its outputs are bit-identical to the producer's.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p fuse-examples --bin edge_infer
//! ```
//!
//! Knobs: `FUSE_EDGE_FRAMES` frames to stream (default 20), plus the usual
//! `FUSE_THREADS` / `FUSE_BACKEND` kernel knobs.

use std::error::Error;

use fuse_cluster::env_usize;
use fuse_core::{build_mars_cnn, ModelConfig};
use fuse_edge::EdgeSession;
use fuse_examples::print_header;
use fuse_radar::{FastScatterModel, PointCloudFrame, RadarConfig, Scatterer, Scene};
use fuse_serve::{ServeConfig, ServeEngine, SessionConfig};
use fuse_skeleton::{body_surface_points, Movement, MovementAnimator, Subject};

fn knob(name: &str, default: usize) -> usize {
    match env_usize(name) {
        Ok(n) => n.unwrap_or(default),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

fn frame_stream(frames: usize) -> Vec<PointCloudFrame> {
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());
    let animator = MovementAnimator::new(Subject::profile(0), Movement::Squat, 10.0).with_seed(7);
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

fn main() -> Result<(), Box<dyn Error>> {
    let frames = knob("FUSE_EDGE_FRAMES", 20);
    let dir = std::env::temp_dir().join("fuse_edge_infer_example");
    std::fs::create_dir_all(&dir)?;
    let artifact = dir.join("mars.fplan");
    let checkpoint = dir.join("mars.json");

    print_header("Producer: compile the MARS CNN and export the plan artifact");
    let model = build_mars_cnn(&ModelConfig::default(), 11)?;
    let mut producer = ServeEngine::new(model, ServeConfig::default())?;
    let plan = producer.plan();
    println!(
        "compiled plan: {} layers -> {} fused steps, input {:?}, output {:?}, max_batch {}",
        plan.signature().layer_names().len(),
        plan.step_count(),
        plan.input_meta().dims(),
        plan.output_meta().dims(),
        plan.max_batch(),
    );
    producer.export_plan(&artifact)?;
    producer.save_checkpoint("mars", &checkpoint)?;
    let artifact_len = std::fs::metadata(&artifact)?.len();
    let checkpoint_len = std::fs::metadata(&checkpoint)?.len();
    println!(
        "exported {} ({artifact_len} bytes; JSON checkpoint of the same weights: \
         {checkpoint_len} bytes, {:.1}x larger — and it carries no schedule)",
        artifact.display(),
        checkpoint_len as f64 / artifact_len as f64,
    );

    print_header("Edge: load the artifact — no fuse-nn, no lowering, no compiler");
    let mut edge = EdgeSession::load(&artifact)?;
    println!(
        "loaded plan for {:?} ({} params), input {:?} -> output {:?}",
        edge.signature().layer_names(),
        edge.signature().param_len(),
        edge.input_meta().dims(),
        edge.output_meta().dims(),
    );

    print_header(&format!("Streaming {frames} frames through both sides"));
    // The producer engine serves each frame through its in-memory plan; the
    // edge session serves the same fused features from the artifact. The
    // reproducibility contract says the two must agree bit for bit.
    producer.open_session(SessionConfig::new(0))?;
    let mut identical = 0usize;
    for frame in frame_stream(frames) {
        producer.submit(0, frame)?;
        let features = producer.session(0).expect("open").featurize_latest()?;
        producer.step()?;
        let served = producer.take_responses();
        let edge_joints = edge.infer(features.as_slice(), 1)?;
        if served[0].joints.as_slice() == edge_joints {
            identical += 1;
        }
    }
    println!("{identical}/{frames} frames bit-identical between producer and edge");
    assert_eq!(identical, frames, "edge outputs must match the producer bit for bit");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
