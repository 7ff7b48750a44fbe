//! Byte-level goldens for the `FCKP` checkpoint and `FNET` wire formats.
//!
//! `.fplan` is pinned by `tiny.fplan` / `tiny_v1.fplan` (see
//! `plan_artifact.rs`); these two goldens pin the other two binary formats
//! the same way, so a codec change that alters a single byte fails here
//! instead of surfacing as an incompatibility between hosts of different
//! builds:
//!
//! * `tiny.fckp` — `Checkpoint::to_binary` of a small fixed-seed model;
//! * `wire_requests.fnet` — one `encode_frame(request.encode())` frame per
//!   [`WireRequest`] variant, concatenated in declaration order (the byte
//!   stream a TCP link would carry);
//! * `wire_responses.fnet` — the same for every [`WireResponse`] variant,
//!   the stream a router decodes from a remote shard.
//!
//! Regenerate only after an intentional, version-bumped format change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p fuse-tests --test codec_goldens
//! ```

use fuse_core::{FineTuneConfig, FineTuneResult, FineTuneScope, PoseError};
use fuse_dataset::{EncodedDataset, EncodedSample, FeatureMapBuilder, FrameFusion};
use fuse_net::frame::frame_len;
use fuse_net::{
    decode_frame, encode_frame, WireCheckpointMeta, WireCloseReport, WireError, WireFlushReport,
    WireGauge, WireRequest, WireResponse,
};
use fuse_nn::layers::{Linear, Relu};
use fuse_nn::{AxisMae, Checkpoint, Sequential};
use fuse_radar::{PointCloudFrame, RadarPoint};
use fuse_serve::{LatencyRecorder, ServeResponse, SessionConfig, SessionState, SloClass, Stage};
use fuse_skeleton::Movement;
use fuse_tensor::{Normalizer, Tensor};
use fuse_tests::golden::{check_or_update_bytes, goldens_dir};

/// The fixed-seed checkpoint behind `tiny.fckp`.
fn tiny_checkpoint() -> Checkpoint {
    let model = Sequential::new(vec![
        Box::new(Linear::new(4, 8, 41).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(8, 3, 42).unwrap()),
    ]);
    Checkpoint::capture(&model, "tiny-fckp")
}

/// A migrated session's state with every field set.
fn session_state() -> SessionState {
    SessionState {
        id: 11,
        slo: Some(SloClass::Interactive),
        fusion: FrameFusion::new(2),
        frames_seen: 5,
        ticks_seen: 7,
        history: vec![radar_frame(3), radar_frame(4)],
        slot_mask: vec![true, false, true],
        checkpoint: Some(tiny_checkpoint()),
        pending: vec![(5, Tensor::from_vec(vec![1.0, -2.5, 3.25, 0.5], &[4]).unwrap())],
    }
}

fn radar_frame(index: usize) -> PointCloudFrame {
    PointCloudFrame::new(
        index,
        0.1 * index as f64,
        vec![
            RadarPoint::new(1.5, -2.25, 0.75, -0.0, f32::MIN_POSITIVE),
            RadarPoint::new(-1.0, 2.0, 3.0, 4.0, 5.0),
        ],
    )
}

/// One request per [`WireRequest`] variant, in declaration order, each
/// carrying non-default values in every field it has.
fn one_request_per_variant() -> Vec<WireRequest> {
    let tiny_fplan = std::fs::read(goldens_dir().join("tiny.fplan")).expect("tiny.fplan fixture");
    let sample = EncodedSample {
        input: Tensor::randn(&[2, 2, 2], 1.0, 43),
        label: vec![0.25, -0.5, 1.0],
        subject_id: 2,
        movement: Movement::ALL[7],
        sequence_index: 13,
    };
    let data = EncodedDataset::from_parts(
        vec![sample],
        Normalizer::from_stats(vec![0.1, 0.2], vec![1.0, 2.0]),
        [2, 2, 2],
    );
    let config = FineTuneConfig {
        epochs: 3,
        batch_size: 4,
        learning_rate: 1e-3,
        scope: FineTuneScope::LastLayer,
        seed: 99,
    };
    vec![
        WireRequest::Open {
            config: SessionConfig::new(7)
                .slo(SloClass::Clinical)
                .fusion(FrameFusion::new(3))
                .feature_map(FeatureMapBuilder::new(16, 12)),
        },
        WireRequest::Close { id: 8 },
        WireRequest::Submit { id: 9, frame: radar_frame(42) },
        WireRequest::Tick { id: 10 },
        WireRequest::SetCapacity { class: SloClass::Dashboard, queue_capacity: 3 },
        WireRequest::Adapt { id: 1, data, config },
        WireRequest::Flush,
        WireRequest::Poll,
        WireRequest::Snapshot,
        WireRequest::PrepareCheckpoint { bytes: tiny_checkpoint().to_binary() },
        WireRequest::PreparePlan { bytes: tiny_fplan, name: "tiny".into() },
        WireRequest::CommitSwap,
        WireRequest::AbortSwap,
        WireRequest::ExportSession { id: 3 },
        WireRequest::ImportSession { state: Box::new(session_state()) },
        WireRequest::Shutdown,
    ]
}

fn serve_response(session_id: u64, adapted: bool) -> ServeResponse {
    ServeResponse {
        session_id,
        frame_index: 8,
        model_version: 2,
        adapted,
        joints: vec![1.0, -0.0, 0.125, f32::from_bits(0x7f80_0001)],
    }
}

fn pose_error(base: f32) -> PoseError {
    PoseError { meters: AxisMae { x: base, y: base * 2.0, z: base * 3.0 } }
}

/// One response per [`WireResponse`] variant, in declaration order, each
/// carrying non-default values in every field it has. The snapshot's
/// recorder holds samples in every stage.
fn one_response_per_variant() -> Vec<WireResponse> {
    let mut recorder = LatencyRecorder::new(22.0).with_sample_window(16);
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        recorder.record(stage, 1.25 + i as f64);
        recorder.record(stage, 0.5 * (i + 1) as f64);
    }
    vec![
        WireResponse::Opened,
        WireResponse::Closed(WireCloseReport { adapted: true, unserved: vec![2, 5] }),
        WireResponse::Submitted,
        WireResponse::Ticked,
        WireResponse::CapacitySet,
        WireResponse::Adapted(FineTuneResult {
            new_data_error: vec![pose_error(0.01), pose_error(0.02)],
            original_data_error: vec![pose_error(0.04)],
            train_loss: vec![0.5, 0.25],
        }),
        WireResponse::Flushed(WireFlushReport {
            responses: vec![serve_response(1, false), serve_response(4, true)],
            dropped: vec![(1, 0)],
            merged: vec![(1, 1), (4, 2)],
        }),
        WireResponse::Polled(vec![serve_response(3, true)]),
        WireResponse::Snapshot {
            recorder: Box::new(recorder),
            gauge: WireGauge {
                shard: 1,
                sessions: 2,
                queue_depth: 3,
                deepest_queue: Some((9, 3)),
                ready: 4,
                dropped_frames: 5,
                merged_frames: 6,
                blocked_submits: 7,
                steps: 8,
                responses: 9,
                model_version: 10,
            },
        },
        WireResponse::Prepared(WireCheckpointMeta { model_name: "mars-cnn".into(), param_len: 83 }),
        WireResponse::Committed { version: 4 },
        WireResponse::Aborted,
        WireResponse::Exported(Box::new(session_state())),
        WireResponse::Imported,
        WireResponse::ShuttingDown,
        WireResponse::Error(WireError::Other("shard on fire".into())),
    ]
}

/// Splits a concatenated `FNET` stream into its frames' payloads.
fn frame_payloads(stream: &[u8]) -> Vec<&[u8]> {
    let mut payloads = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let len = frame_len(rest).unwrap();
        payloads.push(decode_frame(&rest[..len]).unwrap());
        rest = &rest[len..];
    }
    payloads
}

#[test]
fn committed_fckp_golden_is_byte_stable() {
    let bytes = tiny_checkpoint().to_binary();
    check_or_update_bytes("tiny.fckp", &bytes);
    let back = Checkpoint::from_binary(&bytes).unwrap();
    assert_eq!(back.to_binary(), bytes, "the golden decodes and re-encodes to itself");
}

#[test]
fn committed_fnet_goldens_are_byte_stable() {
    let requests = one_request_per_variant();
    let stream: Vec<u8> = requests.iter().flat_map(|r| encode_frame(&r.encode())).collect();
    check_or_update_bytes("wire_requests.fnet", &stream);

    // The stream splits back into one frame per variant, each decoding to a
    // request that re-encodes to the same payload.
    let payloads = frame_payloads(&stream);
    assert_eq!(payloads.len(), requests.len());
    for (request, payload) in requests.iter().zip(payloads) {
        assert_eq!(payload, request.encode());
        assert_eq!(WireRequest::decode(payload).unwrap().encode(), payload);
    }
}

#[test]
fn committed_fnet_response_golden_is_byte_stable() {
    let responses = one_response_per_variant();
    let stream: Vec<u8> = responses.iter().flat_map(|r| encode_frame(&r.encode())).collect();
    check_or_update_bytes("wire_responses.fnet", &stream);

    let payloads = frame_payloads(&stream);
    assert_eq!(payloads.len(), 16, "one frame per WireResponse variant");
    for (response, payload) in responses.iter().zip(payloads) {
        assert_eq!(payload, response.encode());
        assert_eq!(WireResponse::decode(payload).unwrap().encode(), payload);
    }
}
