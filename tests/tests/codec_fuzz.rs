//! Deterministic mutation fuzzing of every binary decoder in the workspace:
//! `.fplan` plans, `FCKP` checkpoints, and `FNET` frames with the
//! `WireRequest` and `WireResponse` messages inside them (a router decodes
//! responses from remote shards, so they are untrusted input too).
//!
//! Every case starts from a committed golden (`tiny.fplan` and its int8
//! `quantize()` form, `tiny.fckp`, each frame of `wire_requests.fnet` and
//! `wire_responses.fnet`) and a fixed seed, so a failure replays exactly.
//! Three mutation families run:
//!
//! * bit flips at seeded positions;
//! * truncation of the container at every header and trailer boundary, and
//!   of the payload at every byte;
//! * a large value written over the word at every payload offset (so every
//!   8-byte-aligned word included) and over every aligned header word.
//!
//! Payload mutations are re-sealed: the checksum is an integrity check that
//! anyone can recompute, so it must not be what stands between a forged
//! field and a crash. Each case must return `Ok` or a typed error; a panic
//! fails the test, and a plan that decodes must also run. The binary's
//! `#[global_allocator]` records the largest single allocation, which must
//! stay within the codec's size cap (it refuses anything larger, so an
//! over-cap request aborts with its size instead of committing memory).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fuse_graph::ExecPlan;
use fuse_net::frame::frame_len;
use fuse_net::{decode_frame, WireRequest, WireResponse};
use fuse_nn::Checkpoint;
use fuse_tensor::codec::{self, fnv1a64, Reader, Writer, HEADER_LEN, MAX_PAYLOAD, TRAILER_LEN};
use fuse_tests::golden::goldens_dir;

const CAP: usize = MAX_PAYLOAD as usize;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// System allocator wrapper that records the largest single request and
/// refuses any above [`CAP`]. `alloc_zeroed` and `realloc` keep their
/// default implementations, which allocate through `alloc`.
struct CapAlloc;

// SAFETY: `alloc` forwards the caller's layout to `System` or returns null,
// which `GlobalAlloc` allows as a failed allocation; `dealloc` only receives
// pointers `System` returned.
unsafe impl GlobalAlloc for CapAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A statistic publishing no other data: `Relaxed` suffices.
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CapAlloc = CapAlloc;

#[derive(Clone, Copy)]
enum Format {
    Fplan,
    Fckp,
    /// An `FNET` frame holding a [`WireRequest`].
    Fnet,
    /// An `FNET` frame holding a [`WireResponse`].
    FnetResponse,
}

impl Format {
    /// Bytes before the payload: `FCKP` has no length field.
    fn header_len(self) -> usize {
        match self {
            Format::Fckp => 8,
            Format::Fplan | Format::Fnet | Format::FnetResponse => HEADER_LEN,
        }
    }

    /// Decodes `bytes` all the way to a domain value. A plan that decodes
    /// is also run once, since loading promises a panic-free `run`.
    fn decode(self, bytes: &[u8]) -> Result<(), String> {
        match self {
            Format::Fplan => {
                let mut plan = ExecPlan::from_bytes(bytes).map_err(|e| e.to_string())?;
                let input = vec![0.5; plan.input_meta().len()];
                plan.run(&input, 1).map(drop).map_err(|e| e.to_string())
            }
            Format::Fckp => Checkpoint::from_binary(bytes).map(drop).map_err(|e| e.to_string()),
            Format::Fnet => decode_frame(bytes)
                .and_then(WireRequest::decode)
                .map(drop)
                .map_err(|e| e.to_string()),
            Format::FnetResponse => decode_frame(bytes)
                .and_then(WireResponse::decode)
                .map(drop)
                .map_err(|e| e.to_string()),
        }
    }

    /// How this format's own checksum failure displays (a nested container,
    /// such as the checkpoint inside a migrated session, reports its own).
    fn checksum_failure(self) -> &'static str {
        match self {
            Format::Fplan => "plan artifact: checksum mismatch",
            Format::Fckp => "serialization error: binary checkpoint: checksum mismatch",
            Format::Fnet | Format::FnetResponse => "wire codec error: checksum mismatch",
        }
    }

    /// Wraps `payload` in `original`'s header with a fresh length and
    /// checksum.
    fn reseal(self, original: &[u8], payload: &[u8]) -> Vec<u8> {
        match self {
            Format::Fplan | Format::Fnet | Format::FnetResponse => {
                let mut r = Reader::new(original);
                let magic = r.raw(4, "magic").unwrap().try_into().unwrap();
                codec::seal(magic, r.u32("version").unwrap(), payload)
            }
            Format::Fckp => {
                let mut w = Writer::new();
                w.raw(&original[..8]);
                w.raw(payload);
                w.u64(fnv1a64(payload));
                w.into_bytes()
            }
        }
    }
}

/// One golden container under test.
struct Subject {
    name: String,
    format: Format,
    bytes: Vec<u8>,
}

impl Subject {
    fn payload(&self) -> &[u8] {
        &self.bytes[self.format.header_len()..self.bytes.len() - TRAILER_LEN]
    }

    /// Decodes a re-sealed mutation of the payload; the checksum must never
    /// be what rejects it.
    fn resealed(&self, payload: &[u8], case: &str) {
        let bytes = self.format.reseal(&self.bytes, payload);
        if let Err(e) = self.format.decode(&bytes) {
            let rejected_by_checksum = e.starts_with(self.format.checksum_failure());
            assert!(!rejected_by_checksum, "{}: {case}: resealed yet {e}", self.name);
        }
    }
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(goldens_dir().join(name)).unwrap_or_else(|e| panic!("golden {name}: {e}"))
}

fn fplan_subjects() -> Vec<Subject> {
    let bytes = golden("tiny.fplan");
    let quantized = ExecPlan::from_bytes(&bytes).unwrap().quantize().unwrap().to_bytes();
    vec![
        Subject { name: "tiny.fplan".into(), format: Format::Fplan, bytes },
        Subject { name: "tiny.fplan quantized".into(), format: Format::Fplan, bytes: quantized },
    ]
}

/// One subject per frame of the concatenated `FNET` golden `file`.
fn fnet_subjects(file: &str, format: Format) -> Vec<Subject> {
    let stream = golden(file);
    let mut subjects = Vec::new();
    let mut rest = &stream[..];
    while !rest.is_empty() {
        let len = frame_len(rest).unwrap();
        let name = format!("{file} frame {}", subjects.len());
        subjects.push(Subject { name, format, bytes: rest[..len].to_vec() });
        rest = &rest[len..];
    }
    assert_eq!(subjects.len(), 16, "{file}: one frame per message variant");
    subjects
}

/// SplitMix64: a fixed seed gives a fixed case sequence on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const FLIP_CASES: u64 = 400;

const LARGE: [u64; 4] = [u64::MAX, 1 << 62, 1 << 40, 1 << 31];

fn fuzz(subject: &Subject) {
    let payload = subject.payload();
    assert!(subject.format.decode(&subject.bytes).is_ok(), "{}: golden decodes", subject.name);

    for seed in 0..FLIP_CASES {
        let mut rng = Rng(seed);
        let mut mutated = payload.to_vec();
        for _ in 0..=rng.below(3) {
            let at = rng.below(mutated.len());
            mutated[at] ^= 1 << rng.below(8);
        }
        subject.resealed(&mutated, &format!("bit flips, seed {seed}"));
    }

    let len = subject.bytes.len();
    let header = subject.format.header_len();
    let mut boundaries = vec![0, 4, 8, header, header + 1, len - TRAILER_LEN, len - 1];
    boundaries.dedup();
    for cut in boundaries {
        assert!(
            subject.format.decode(&subject.bytes[..cut]).is_err(),
            "{}: container cut at {cut} must not decode",
            subject.name
        );
    }
    for cut in 0..payload.len() {
        subject.resealed(&payload[..cut], &format!("payload cut at {cut}"));
    }

    for value in LARGE {
        let mut word = Writer::new();
        word.u64(value);
        let word = word.into_bytes();
        for at in 0..payload.len().saturating_sub(7) {
            let mut mutated = payload.to_vec();
            mutated[at..at + 8].copy_from_slice(&word);
            subject.resealed(&mutated, &format!("word {value:#x} at payload offset {at}"));
        }
        for at in (0..header).step_by(8).chain([len - TRAILER_LEN]) {
            let mut mutated = subject.bytes.clone();
            mutated[at..at + 8].copy_from_slice(&word);
            // Not re-sealed: these words are the header and trailer themselves.
            assert!(
                subject.format.decode(&mutated).is_err(),
                "{}: header word {value:#x} at {at} must not decode",
                subject.name
            );
        }
    }

    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= CAP, "largest allocation {largest} exceeds the {CAP}-byte codec cap");
}

#[test]
fn fplan_decoding_survives_every_mutation() {
    fplan_subjects().iter().for_each(fuzz);
}

#[test]
fn fckp_decoding_survives_every_mutation() {
    fuzz(&Subject { name: "tiny.fckp".into(), format: Format::Fckp, bytes: golden("tiny.fckp") });
}

#[test]
fn fnet_decoding_survives_every_mutation() {
    fnet_subjects("wire_requests.fnet", Format::Fnet).iter().for_each(fuzz);
}

#[test]
fn fnet_response_decoding_survives_every_mutation() {
    fnet_subjects("wire_responses.fnet", Format::FnetResponse).iter().for_each(fuzz);
}
