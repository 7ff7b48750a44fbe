//! Seeded input generation, done before any timed region.
//!
//! The served program only ever sees what a deployed device would hand it:
//! point-cloud frames (the `FastScatterModel` recipe of
//! `fuse_bench::subject_streams`, with the seed mixed into every subject,
//! movement and scatter draw) and, for onboarding, labelled adaptation sets
//! synthesised by `MarsSynthesizer` and encoded as `EncodedDataset`s.

use fuse_bench::SERVING_MOVEMENTS;
use fuse_core::{FineTuneConfig, FineTuneScope};
use fuse_dataset::{
    encode_dataset, EncodedDataset, FeatureMapBuilder, FrameFusion, MarsSynthesizer,
    SynthesisConfig,
};
use fuse_radar::{FastScatterModel, PointCloudFrame, RadarConfig, Scatterer, Scene};
use fuse_skeleton::{body_surface_points, Movement, MovementAnimator, Subject};

/// Session ids of onboarded patients start here; ward sessions use `0..n`.
pub const PATIENT_ID_BASE: u64 = 1000;
/// Labelled frames in one patient's adaptation set.
pub const ADAPT_FRAMES: usize = 40;
/// Fine-tuning epochs per patient.
pub const ADAPT_EPOCHS: usize = 5;
/// Frames a patient streams on each side of its migration.
pub const PATIENT_ROUNDS: usize = 20;

/// SplitMix64 of `seed` combined with `salt`: decorrelates nearby seeds and
/// ids so every draw depends on both.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `frames` consecutive point-cloud frames of one simulated subject.
pub fn session_stream(seed: u64, session: u64, frames: usize) -> Vec<PointCloudFrame> {
    let key = mix(seed, session);
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());
    let movement = SERVING_MOVEMENTS[(key >> 8) as usize % SERVING_MOVEMENTS.len()];
    let animator =
        MovementAnimator::new(Subject::profile(key as usize % 4), movement, 10.0).with_seed(key);
    let start_s = ((key >> 16) % 50) as f32 * 0.1;
    animator
        .sample_frames_with_velocities(start_s, frames)
        .iter()
        .enumerate()
        .map(|(i, (skeleton, velocities))| {
            let scene: Scene = body_surface_points(skeleton, velocities, 4)
                .iter()
                .map(|p| Scatterer::new(p.position, p.velocity, p.reflectivity))
                .collect();
            scatter.sample(&scene, mix(key, i as u64))
        })
        .collect()
}

/// One patient who arrives during the onboarding workload.
#[derive(Debug, Clone)]
pub struct Patient {
    /// The patient's session id.
    pub session_id: u64,
    /// Labelled frames the session adapts on.
    pub adapt: EncodedDataset,
    /// Fine-tuning schedule (5 epochs, batch 16, all layers).
    pub finetune: FineTuneConfig,
    /// Frames streamed after adaptation: `PATIENT_ROUNDS` before the
    /// migration and `PATIENT_ROUNDS` after.
    pub stream: Vec<PointCloudFrame>,
}

/// Builds patient `p`: its own subject, movement and seed.
///
/// # Errors
///
/// Propagates synthesis and encoding failures.
pub fn patient(seed: u64, p: usize) -> Result<Patient, String> {
    let session_id = PATIENT_ID_BASE + p as u64;
    let key = mix(seed, session_id);
    let config = SynthesisConfig {
        subjects: vec![p % 4],
        movements: vec![Movement::ALL[(key % Movement::ALL.len() as u64) as usize]],
        frames_per_sequence: ADAPT_FRAMES,
        frame_rate_hz: 10.0,
        radar: RadarConfig::iwr1443_indoor(),
        points_per_bone: 4,
        seed: key,
    };
    let dataset = MarsSynthesizer::new(config).generate().map_err(|e| e.to_string())?;
    let adapt = encode_dataset(&dataset, &FrameFusion::default(), &FeatureMapBuilder::default())
        .map_err(|e| e.to_string())?;
    let finetune = FineTuneConfig {
        epochs: ADAPT_EPOCHS,
        batch_size: 16,
        scope: FineTuneScope::AllLayers,
        seed: key,
        ..FineTuneConfig::default()
    };
    let stream = session_stream(seed, session_id, 2 * PATIENT_ROUNDS);
    Ok(Patient { session_id, adapt, finetune, stream })
}

/// Everything one run feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// Frame streams of the standing sessions, indexed by session id; a
    /// session cycles through its stream.
    pub streams: Vec<Vec<PointCloudFrame>>,
    /// Patients in arrival order; the workload cycles through the pool,
    /// giving each arrival a fresh session id.
    pub patients: Vec<Patient>,
}

impl Inputs {
    /// Generates `sessions` streams of `frames` frames and `patients`
    /// patients from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates patient synthesis failures.
    pub fn generate(
        seed: u64,
        sessions: usize,
        frames: usize,
        patients: usize,
    ) -> Result<Self, String> {
        let streams = (0..sessions as u64).map(|s| session_stream(seed, s, frames)).collect();
        let patients = (0..patients).map(|p| patient(seed, p)).collect::<Result<_, _>>()?;
        Ok(Inputs { seed, streams, patients })
    }

    /// Frame `k` of standing session `id` (streams cycle).
    pub fn frame(&self, id: u64, k: usize) -> &PointCloudFrame {
        let stream = &self.streams[id as usize];
        &stream[k % stream.len()]
    }

    /// FNV-1a digest of every input bit, for determinism checks.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        let frames =
            self.streams.iter().flatten().chain(self.patients.iter().flat_map(|p| &p.stream));
        for frame in frames {
            h.word(frame.points.len() as u64);
            for p in &frame.points {
                for v in p.features() {
                    h.word(v.to_bits() as u64);
                }
            }
        }
        for patient in &self.patients {
            h.word(patient.session_id);
            for sample in patient.adapt.samples() {
                for v in sample.input.as_slice().iter().chain(sample.label.iter()) {
                    h.word(v.to_bits() as u64);
                }
            }
        }
        h.0
    }
}

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one 64-bit word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
