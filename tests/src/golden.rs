//! Golden-file machinery for the numeric regression suite.
//!
//! A golden test serializes a trace of the pipeline's intermediate and final
//! numerics to JSON and compares it against a committed file under
//! `tests/goldens/`. The comparison is exact: every value in the trace is a
//! deterministic, bit-reproducible function of fixed seeds (the
//! `fuse-parallel` contract guarantees this for any `FUSE_THREADS`), and f32
//! values survive the JSON round-trip losslessly (f32 → f64 → shortest
//! round-trip decimal → f64 → f32).
//!
//! **Platform assumption:** the traces run through `f32::sin`/`cos`/`exp`,
//! which defer to the platform libm and may differ by an ulp across targets
//! or libc versions. The committed goldens pin the CI platform
//! (x86_64-linux, the same target the thread-matrix jobs use). On another
//! target, regenerate locally first and treat the diff against the committed
//! files as informational, not as a regression.
//!
//! Regenerate the committed files after an *intentional* numeric change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p fuse-tests --test golden_trace
//! ```

use std::fmt::Debug;
use std::fs;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// Directory holding the committed golden files.
pub fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// `true` when the run should rewrite golden files instead of checking them.
pub fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1")
}

/// Checks `actual` against the committed golden `name`.json, or rewrites the
/// file when `UPDATE_GOLDENS=1` is set.
///
/// # Panics
///
/// Panics (failing the test) when the golden file is missing, unreadable, or
/// disagrees with `actual`.
pub fn check_or_update<T>(name: &str, actual: &T)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let path = goldens_dir().join(format!("{name}.json"));
    let encoded = serde_json::to_string(actual).expect("golden trace encodes to JSON");
    if update_requested() {
        fs::create_dir_all(goldens_dir()).expect("goldens directory can be created");
        fs::write(&path, &encoded)
            .unwrap_or_else(|e| panic!("cannot write golden {}: {e}", path.display()));
        eprintln!("updated golden {}", path.display());
        return;
    }
    let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             `UPDATE_GOLDENS=1 cargo test -p fuse-tests --test golden_trace`",
            path.display()
        )
    });
    let expected: T = serde_json::from_str(&committed)
        .unwrap_or_else(|e| panic!("golden file {} is not valid JSON: {e}", path.display()));
    assert!(
        expected == *actual,
        "trace diverged from golden {}:\n  expected: {:?}\n  actual:   {:?}\n\
         If the numeric change is intentional, regenerate with \
         `UPDATE_GOLDENS=1 cargo test -p fuse-tests --test golden_trace`.",
        path.display(),
        expected,
        actual
    );
}

/// Checks `actual` byte for byte against the committed binary golden `name`
/// (a file name under `tests/goldens/`), or rewrites the file when
/// `UPDATE_GOLDENS=1` is set. Binary goldens pin wire and file formats, so a
/// mismatch names the first differing offset instead of dumping both buffers.
///
/// # Panics
///
/// Panics (failing the test) when the golden file is missing, unreadable, or
/// differs from `actual`.
pub fn check_or_update_bytes(name: &str, actual: &[u8]) {
    let path = goldens_dir().join(name);
    if update_requested() {
        fs::create_dir_all(goldens_dir()).expect("goldens directory can be created");
        fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot write golden {}: {e}", path.display()));
        eprintln!("updated golden {}", path.display());
        return;
    }
    let committed = fs::read(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); generate it with UPDATE_GOLDENS=1", path.display())
    });
    if committed != actual {
        let first = committed.iter().zip(actual).position(|(a, b)| a != b);
        panic!(
            "bytes diverged from golden {}: committed {} bytes, actual {} bytes, first \
             difference at offset {}. An intentional format change bumps the format \
             version before the golden is regenerated with UPDATE_GOLDENS=1.",
            path.display(),
            committed.len(),
            actual.len(),
            first.unwrap_or(committed.len().min(actual.len()))
        );
    }
}

/// Compact numeric summary of one pipeline stage: enough to pin the stage's
/// numerics without committing every value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageDigest {
    /// Number of scalar values summarised.
    pub count: usize,
    /// Sum of the values (f32 accumulation in index order).
    pub sum: f32,
    /// Sum of squares of the values (f32 accumulation in index order).
    pub sum_squares: f32,
    /// The first values, verbatim.
    pub head: Vec<f32>,
}

impl StageDigest {
    /// Digests a slice, keeping the first `head` values verbatim.
    pub fn of(values: &[f32], head: usize) -> Self {
        assert!(values.iter().all(|v| v.is_finite()), "golden traces must be finite");
        let mut sum = 0.0f32;
        let mut sum_squares = 0.0f32;
        for &v in values {
            sum += v;
            sum_squares += v * v;
        }
        StageDigest {
            count: values.len(),
            sum,
            sum_squares,
            head: values[..head.min(values.len())].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_summarises_in_index_order() {
        let digest = StageDigest::of(&[1.0, 2.0, 3.0], 2);
        assert_eq!(digest.count, 3);
        assert_eq!(digest.sum, 6.0);
        assert_eq!(digest.sum_squares, 14.0);
        assert_eq!(digest.head, vec![1.0, 2.0]);
        let empty = StageDigest::of(&[], 4);
        assert_eq!(empty.count, 0);
        assert!(empty.head.is_empty());
    }

    #[test]
    fn digest_round_trips_through_json_losslessly() {
        let digest = StageDigest::of(&[0.1, -2.75, 3.0e-7, f32::MIN_POSITIVE], 4);
        let json = serde_json::to_string(&digest).unwrap();
        let back: StageDigest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, digest);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn digest_rejects_non_finite_values() {
        StageDigest::of(&[1.0, f32::NAN], 1);
    }
}
