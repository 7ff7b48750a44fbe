//! Typed errors for graph construction, compilation and execution.

use std::fmt;

use fuse_tensor::codec::CodecError;
use fuse_tensor::TensorError;

/// Errors produced while building, compiling or running an op graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A shape or parameter-length mismatch while building or validating the
    /// graph.
    Shape(String),
    /// The graph (or an op in it) cannot be compiled to an [`crate::ExecPlan`].
    Unsupported(String),
    /// [`crate::ExecPlan::run`] was called with a batch outside
    /// `1..=max_batch`.
    BatchOutOfRange {
        /// Requested batch size.
        batch: usize,
        /// The plan's compiled capacity.
        max_batch: usize,
    },
    /// [`crate::ExecPlan::run`] was called with an input slice whose length
    /// does not match `batch * input_len`.
    InputLenMismatch {
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        actual: usize,
    },
    /// An underlying tensor kernel rejected the operation.
    Tensor(TensorError),
    /// Reading or writing a plan artifact failed at the I/O layer.
    Io(String),
    /// The artifact's container or byte encoding is corrupt: wrong magic,
    /// unsupported version, checksum mismatch, truncation, oversized payload
    /// or trailing bytes.
    Codec(CodecError),
    /// The artifact decoded structurally but describes an invalid plan
    /// (out-of-range offsets, inconsistent lengths, unknown tags, ...).
    Malformed(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Shape(msg) => write!(f, "graph shape error: {msg}"),
            GraphError::Unsupported(msg) => write!(f, "graph not compilable: {msg}"),
            GraphError::BatchOutOfRange { batch, max_batch } => {
                write!(f, "batch {batch} outside the plan's capacity 1..={max_batch}")
            }
            GraphError::InputLenMismatch { expected, actual } => {
                write!(f, "plan input has {actual} elements, expected {expected}")
            }
            GraphError::Tensor(e) => write!(f, "tensor kernel error: {e}"),
            GraphError::Io(msg) => write!(f, "plan artifact i/o error: {msg}"),
            GraphError::Codec(e) => write!(f, "plan artifact: {e}"),
            GraphError::Malformed(msg) => write!(f, "malformed plan artifact: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Tensor(e) => Some(e),
            GraphError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        GraphError::Tensor(e)
    }
}

impl From<CodecError> for GraphError {
    fn from(e: CodecError) -> Self {
        GraphError::Codec(e)
    }
}
