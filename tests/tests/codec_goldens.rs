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
//!   stream a TCP link would carry).
//!
//! Regenerate only after an intentional, version-bumped format change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p fuse-tests --test codec_goldens
//! ```

use fuse_core::{FineTuneConfig, FineTuneScope};
use fuse_dataset::{EncodedDataset, EncodedSample, FeatureMapBuilder, FrameFusion};
use fuse_net::frame::frame_len;
use fuse_net::{decode_frame, encode_frame, WireRequest};
use fuse_nn::layers::{Linear, Relu};
use fuse_nn::{Checkpoint, Sequential};
use fuse_radar::{PointCloudFrame, RadarPoint};
use fuse_serve::{SessionConfig, SessionState, SloClass};
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
    let state = SessionState {
        id: 11,
        slo: Some(SloClass::Interactive),
        fusion: FrameFusion::new(2),
        frames_seen: 5,
        ticks_seen: 7,
        history: vec![radar_frame(3), radar_frame(4)],
        slot_mask: vec![true, false, true],
        checkpoint: Some(tiny_checkpoint()),
        pending: vec![(5, Tensor::from_vec(vec![1.0, -2.5, 3.25, 0.5], &[4]).unwrap())],
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
        WireRequest::ImportSession { state: Box::new(state) },
        WireRequest::Shutdown,
    ]
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
    let mut rest = &stream[..];
    for request in &requests {
        let len = frame_len(rest).unwrap();
        let payload = decode_frame(&rest[..len]).unwrap();
        assert_eq!(payload, request.encode());
        assert_eq!(WireRequest::decode(payload).unwrap().encode(), payload);
        rest = &rest[len..];
    }
    assert!(rest.is_empty(), "no bytes after the last frame");
}
