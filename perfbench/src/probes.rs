//! Per-layer probes for the traced run: the run's own inputs replayed
//! through each lower layer's public functions, one call per span.
//!
//! Each probe names the layer (crate) it measures; `BENCHMARK.json` lists
//! which end-to-end metric each one should move.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use fuse_core::{build_mars_cnn, evaluate_model, fine_tune, ModelConfig};
use fuse_dataset::{FeatureMapBuilder, FrameFusion};
use fuse_graph::ExecPlan;
use fuse_net::{decode_frame, encode_frame, sim_pair, FaultConfig, RpcClient, RpcServer};
use fuse_nn::Checkpoint;
use fuse_nn::{
    Adam, Compiled, L1Loss, LayerLowering, Loss, LoweringRequest, Optimizer, Sequential,
};
use fuse_tensor::conv::conv2d_forward_into;
use fuse_tensor::linalg::affine_a_bt;
use fuse_tensor::Tensor;

use crate::inputs::{Inputs, ADAPT_EPOCHS};
use crate::serving::model_seed;
use crate::stats::median;
use crate::trace::Tracer;

/// Per-sample input dimensions of the MARS feature map.
const INPUT_DIMS: [usize; 3] = [5, 8, 8];
/// Values in one feature map.
const SAMPLE_LEN: usize = INPUT_DIMS[0] * INPUT_DIMS[1] * INPUT_DIMS[2];
/// Largest batch the serving engines compile for.
const ENGINE_MAX_BATCH: usize = 64;
/// Time box of one repeated-call probe.
const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// Per-layer values by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Calls `f` inside a `name` span at least `min` times and until the time
/// box is spent; returns each call's wall time in ms.
fn repeat<E: std::fmt::Display>(
    tracer: &mut Tracer,
    name: &'static str,
    min: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (started.elapsed() < PROBE_BUDGET && samples.len() < 10_000) {
        let open = tracer.begin(name, samples.len() as u64);
        let start = Instant::now();
        let result = f();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        tracer.end(open);
        result.map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(samples)
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

fn compile(model: &Sequential, max_batch: usize) -> Result<ExecPlan, String> {
    match LoweringRequest::new(model, &INPUT_DIMS).max_batch(max_batch).compile() {
        Ok(Compiled::Plan(plan)) => Ok(plan),
        Ok(Compiled::Fallback(e)) | Err(e) => Err(format!("the MARS CNN does not compile: {e}")),
    }
}

/// Runs every probe. `adapt_base_s` is the onboarding workload's median
/// `adapt_s` when the run has one; otherwise the probe times one
/// `fine_tune` of its own and uses that as the base of `core.eval_share`.
///
/// # Errors
///
/// Returns the first layer error.
pub fn run_probes(
    inputs: &Inputs,
    adapt_base_s: Option<f64>,
    tracer: &mut Tracer,
    report: &mut Vec<String>,
) -> Result<LayerValues, String> {
    let mut v = LayerValues::new();
    let base = build_mars_cnn(&ModelConfig::default(), model_seed(inputs.seed))
        .map_err(|e| e.to_string())?;

    // dataset: feature-map construction on fused windows, as the engine
    // builds them at submit time. The first 32 maps feed the plan probes.
    let fusion = FrameFusion::default();
    let builder = FeatureMapBuilder::default();
    let mut featurize_us = Vec::new();
    let mut input = Vec::with_capacity(32 * SAMPLE_LEN);
    for stream in inputs.streams.iter().take(8) {
        for k in 0..stream.len() {
            let points = fusion.fused_points_owned(&stream[..=k], k);
            let open = tracer.begin("dataset.featurize", k as u64);
            let start = Instant::now();
            let built = builder.build(&points, None);
            featurize_us.push(start.elapsed().as_secs_f64() * 1e6);
            tracer.end(open);
            let features = built.map_err(|e| e.to_string())?;
            if input.len() < 32 * SAMPLE_LEN {
                input.extend_from_slice(features.as_slice());
            }
        }
    }
    v.insert("dataset.featurize_us", med(&featurize_us));
    if input.len() < 32 * SAMPLE_LEN {
        return Err("not enough frames to build a batch of 32".into());
    }

    // graph: compile, decode and run the base plan.
    let compile_ms =
        repeat(tracer, "graph.compile", 5, || compile(&base, ENGINE_MAX_BATCH).map(drop))?;
    v.insert("graph.compile_ms", med(&compile_ms));
    let mut plan = compile(&base, ENGINE_MAX_BATCH)?;
    let plan_bytes = plan.to_bytes();
    let decode_ms =
        repeat(tracer, "graph.plan_decode", 5, || ExecPlan::from_bytes(&plan_bytes).map(drop))?;
    v.insert("graph.plan_decode_ms", med(&decode_ms));
    for (name, batch) in
        [("graph.plan_run_ms.b1", 1), ("graph.plan_run_ms.b8", 8), ("graph.plan_run_ms.b32", 32)]
    {
        let samples =
            repeat(tracer, name, 5, || plan.run(&input[..batch * SAMPLE_LEN], batch).map(drop))?;
        v.insert(name, med(&samples));
    }

    // quant: the int8 plan on the same inputs.
    let mut qplan = plan.quantize().map_err(|e| e.to_string())?;
    for (name, batch) in [("quant.plan_run_ms.b1", 1), ("quant.plan_run_ms.b8", 8)] {
        let samples =
            repeat(tracer, name, 5, || qplan.run(&input[..batch * SAMPLE_LEN], batch).map(drop))?;
        v.insert(name, med(&samples));
    }

    // tensor: the FC1 and conv kernels on plan shapes.
    tensor_probes(&base, &input, tracer, &mut v)?;

    // nn + core: one replayed fine-tune on the first patient's set.
    let patient = &inputs.patients[0];
    let mut model = base.clone();
    let mask = vec![true; model.param_len()];
    let mut adam = Adam::new(patient.finetune.learning_rate, model.param_len());
    let (mut train_ms, mut sync_ms, mut adam_ms) = (Vec::new(), Vec::new(), Vec::new());
    for epoch in 0..3u64 {
        for (x, y) in patient.adapt.batches(patient.finetune.batch_size, epoch) {
            let open = tracer.begin("nn.train_batch", epoch);
            let start = Instant::now();
            let pred = model.forward(&x, true).map_err(|e| e.to_string())?;
            let (_, grad) = L1Loss.evaluate(&pred, &y).map_err(|e| e.to_string())?;
            model.zero_grad();
            model.backward(&grad).map_err(|e| e.to_string())?;
            train_ms.push(start.elapsed().as_secs_f64() * 1e3);
            tracer.end(open);

            let open = tracer.begin("nn.param_sync", epoch);
            let start = Instant::now();
            let mut params = model.flat_params();
            let grads = model.flat_grads();
            let gather = start.elapsed();
            tracer.end(open);

            let open = tracer.begin("nn.adam", epoch);
            let start = Instant::now();
            adam.step_masked(&mut params, &grads, &mask);
            adam_ms.push(start.elapsed().as_secs_f64() * 1e3);
            tracer.end(open);

            let open = tracer.begin("nn.param_sync", epoch);
            let start = Instant::now();
            model.set_flat_params(&params).map_err(|e| e.to_string())?;
            sync_ms.push((gather + start.elapsed()).as_secs_f64() * 1e3);
            tracer.end(open);
        }
    }
    v.insert("nn.train_batch_ms", med(&train_ms));
    v.insert("nn.param_sync_ms", med(&sync_ms));
    v.insert("nn.adam_ms", med(&adam_ms));

    let eval_batch = patient.finetune.batch_size.max(64);
    let mut eval_model = base.clone();
    let eval_ms = repeat(tracer, "core.eval", 5, || {
        evaluate_model(&mut eval_model, &patient.adapt, eval_batch).map(drop)
    })?;
    let eval_ms = med(&eval_ms);
    v.insert("core.eval_ms", eval_ms);
    let (adapt_s, base_name) = match adapt_base_s {
        Some(s) => (s, "adapt_s of this run"),
        None => {
            let mut tuned = base.clone();
            let open = tracer.begin("core.fine_tune", 0);
            let start = Instant::now();
            let d = &patient.adapt;
            let result = fine_tune(&mut tuned, d, d, d, &patient.finetune);
            let s = start.elapsed().as_secs_f64();
            tracer.end(open);
            result.map_err(|e| e.to_string())?;
            (s, "one probe fine_tune")
        }
    };
    // `Session::adapt` evaluates the set twice (as new and as original data)
    // before training and after every epoch.
    let share = 2.0 * (ADAPT_EPOCHS + 1) as f64 * eval_ms / 1e3 / adapt_s;
    v.insert("core.eval_share", share);
    report.push(format!(
        "core.eval_share = 2 x {} evaluations x {eval_ms:.3} ms / {adapt_s:.4} s ({base_name})",
        ADAPT_EPOCHS + 1
    ));

    // net: RPC round trip and frame codec on swap- and migrate-size payloads.
    let (rpc_us, frames_per_call) = rpc_probe(tracer)?;
    v.insert("net.rpc_round_trip_us", rpc_us);
    v.insert("net.frames_per_op", frames_per_call);
    let migrate_payload = Checkpoint::capture(&model, "session").to_binary();
    let mut codec = Vec::new();
    for payload in [&plan_bytes, &migrate_payload] {
        let mib = payload.len() as f64 / (1024.0 * 1024.0);
        let samples = repeat(tracer, "net.codec", 3, || {
            let frame = encode_frame(payload);
            decode_frame(&frame).map(drop)
        })?;
        codec.extend(samples.iter().map(|ms| ms / mib));
    }
    v.insert("net.codec_ms_per_mib", med(&codec));
    report.push(format!(
        "net.codec payloads: swap {} B, migrate {} B",
        plan_bytes.len(),
        migrate_payload.len()
    ));
    Ok(v)
}

/// FC1 and the two convolutions, timed as bare kernel calls; throughput is
/// multiply-accumulates from the plan shapes, two flops each.
fn tensor_probes(
    model: &Sequential,
    input: &[f32],
    tracer: &mut Tracer,
    v: &mut LayerValues,
) -> Result<(), String> {
    let mut linears = Vec::new();
    let mut convs = Vec::new();
    for layer in model.layers() {
        match layer.lowering() {
            Some(LayerLowering::Linear { in_features, out_features, weight, bias }) => {
                linears.push((in_features, out_features, weight, bias));
            }
            Some(LayerLowering::Conv2d { spec, weight, bias }) => convs.push((spec, weight, bias)),
            _ => {}
        }
    }
    let &(k, n, weight, bias) = linears.first().ok_or("the model has no Linear layer")?;
    let a = Tensor::randn(&[32, k], 1.0, 7);
    let mut out = vec![0.0f32; 32 * n];
    for (name, m) in [("tensor.fc1_gflops.b1", 1usize), ("tensor.fc1_gflops.b32", 32)] {
        let samples = repeat(tracer, name, 5, || {
            affine_a_bt(a.as_slice(), weight.as_slice(), bias.as_slice(), &mut out, m, k, n, true);
            black_box(&mut out);
            Ok::<(), String>(())
        })?;
        v.insert(name, 2.0 * (m * k * n) as f64 / (med(&samples) / 1e3) / 1e9);
    }

    let batch = 32;
    let [_, h, w] = INPUT_DIMS;
    let mut macs = 0usize;
    let mut buffers = Vec::new();
    for (spec, _, _) in &convs {
        let (oh, ow) = spec.output_size(h, w).map_err(|e| e.to_string())?;
        let taps = spec.in_channels * spec.kernel * spec.kernel;
        macs += batch * spec.out_channels * oh * ow * taps;
        buffers.push((
            vec![0.0f32; batch * taps * oh * ow],
            vec![0.0f32; batch * spec.out_channels * oh * ow],
        ));
    }
    let samples = repeat(tracer, "tensor.conv", 5, || {
        let mut x: &[f32] = &input[..batch * SAMPLE_LEN];
        for ((spec, weight, bias), (cols, out)) in convs.iter().zip(buffers.iter_mut()) {
            conv2d_forward_into(
                x,
                batch,
                h,
                w,
                weight.as_slice(),
                bias.as_slice(),
                spec,
                cols,
                out,
                true,
            )
            .map_err(|e| e.to_string())?;
            x = black_box(out);
        }
        Ok::<(), String>(())
    })?;
    v.insert("tensor.conv_gflops.b32", 2.0 * macs as f64 / (med(&samples) / 1e3) / 1e9);
    Ok(())
}

/// Echo RPCs over a clean simulated link: median round trip (µs) and wire
/// frames per call.
fn rpc_probe(tracer: &mut Tracer) -> Result<(f64, f64), String> {
    let (client_end, server_end) = sim_pair(FaultConfig::default(), FaultConfig::default());
    let handles = [client_end.fault_handle(), server_end.fault_handle()];
    let echo = std::thread::spawn(move || {
        let mut server = RpcServer::new(server_end);
        loop {
            match server.next_request(Duration::from_millis(20)) {
                Ok(Some(body)) => {
                    if server.respond(&body).is_err() {
                        return;
                    }
                }
                Ok(None) => continue,
                Err(_) => return,
            }
        }
    });
    let mut client = RpcClient::new(client_end);
    let body = vec![0x5au8; 256];
    let samples = repeat(tracer, "net.rpc", 50, || client.call(&body).map(drop));
    // Dropping the client disconnects the link, which ends the echo loop.
    drop(client);
    echo.join().map_err(|_| "echo server thread panicked".to_string())?;
    let samples = samples?;
    let frames: u64 = handles.iter().map(|h| h.snapshot().sent).sum();
    Ok((med(&samples) * 1e3, frames as f64 / samples.len() as f64))
}
