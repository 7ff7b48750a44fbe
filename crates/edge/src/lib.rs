//! # fuse-edge
//!
//! A thin edge-deployment runtime for compiled `.fplan` plan artifacts.
//!
//! Deployment targets used to carry the full `fuse-nn` lowering stack and
//! recompile the model at every startup. This crate is the other half of the
//! `fuse-graph` artifact story: a `.fplan` written by
//! [`fuse_graph::ExecPlan::write_plan`] is fully self-contained — signature,
//! scheduled steps, arena layout, parameter snapshot — so the edge side needs
//! only this crate, `fuse-graph`'s executor and the `fuse-tensor` /
//! `fuse-backend` kernels. **No `fuse-nn`, no lowering, no startup
//! compilation.** Outputs are bit-identical to the in-memory plan the
//! artifact was exported from, on every backend × thread-count combination
//! the reproducibility contract covers.
//!
//! The same session also loads `.fplan` **v2** artifacts carrying
//! int8-quantized weights ([`fuse_graph::ExecPlan::quantize`] /
//! `ServeEngine::export_quantized_plan`): those serve through the
//! `fuse-quant` device seam under the relaxed contract, verified against
//! float goldens by declared tolerance ([`EdgeSession::is_quantized`]).
//!
//! ```
//! use fuse_edge::EdgeSession;
//! use fuse_graph::{Graph, TensorMeta};
//!
//! // Producer side (normally a training/serving host): compile and export.
//! let mut g = Graph::new(TensorMeta::f32(&[3]));
//! g.push_linear("sum", 3, 1, &[1.0, 1.0, 1.0], &[0.0])?;
//! let bytes = g.compile(2)?.to_bytes();
//!
//! // Edge side: load the artifact and serve — no model, no compiler.
//! let mut session = EdgeSession::from_bytes(&bytes)?;
//! assert_eq!(session.infer(&[1.0, 2.0, 3.0], 1)?, &[6.0]);
//! # Ok::<(), fuse_edge::EdgeError>(())
//! ```

#![warn(missing_docs)]

use std::path::Path;

use fuse_graph::ExecPlan;

pub use fuse_graph::{GraphError as EdgeError, ShapeSignature, TensorMeta};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EdgeError>;

/// A loaded `.fplan` artifact, ready to serve inference requests.
///
/// Wraps the deserialized [`ExecPlan`] with nothing added: the artifact
/// already carries everything execution needs, and keeping this type thin is
/// the proof. The session is stateful only in the sense that the plan's
/// arena is reused across calls — results do not depend on prior calls.
#[derive(Debug)]
pub struct EdgeSession {
    plan: ExecPlan,
}

impl EdgeSession {
    /// Loads a `.fplan` artifact from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::Io`] when the file cannot be read and the
    /// [`fuse_graph::ExecPlan::from_bytes`] errors for a corrupt or
    /// incompatible artifact.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Ok(EdgeSession { plan: ExecPlan::read_plan(path)? })
    }

    /// Builds a session from in-memory `.fplan` bytes.
    ///
    /// # Errors
    ///
    /// Returns the [`fuse_graph::ExecPlan::from_bytes`] error for a corrupt
    /// or incompatible artifact.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(EdgeSession { plan: ExecPlan::from_bytes(bytes)? })
    }

    /// Runs the plan on `batch` samples packed contiguously in `input`,
    /// returning the batched output (`batch * output_meta().len()`
    /// elements). Steady state allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::BatchOutOfRange`] or
    /// [`EdgeError::InputLenMismatch`] for invalid calls, exactly like
    /// [`ExecPlan::run`].
    pub fn infer(&mut self, input: &[f32], batch: usize) -> Result<&[f32]> {
        self.plan.run(input, batch)
    }

    /// The shape identity recorded in the artifact (layer names in push
    /// order, parameter count, input/output shapes).
    pub fn signature(&self) -> &ShapeSignature {
        self.plan.signature()
    }

    /// Per-sample shape of the expected input.
    pub fn input_meta(&self) -> &TensorMeta {
        self.plan.input_meta()
    }

    /// Per-sample shape of the produced output.
    pub fn output_meta(&self) -> &TensorMeta {
        self.plan.output_meta()
    }

    /// Largest batch the plan was compiled for.
    pub fn max_batch(&self) -> usize {
        self.plan.max_batch()
    }

    /// Whether the artifact carries int8-quantized weights (a `.fplan` v2
    /// relaxed-contract plan). Quantized sessions serve through the
    /// `fuse-quant` device seam and are verified against float goldens by
    /// declared tolerance instead of bit equality.
    pub fn is_quantized(&self) -> bool {
        self.plan.is_quantized()
    }

    /// Unwraps the underlying execution plan.
    pub fn into_plan(self) -> ExecPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use fuse_graph::{Graph, GraphError, TensorMeta};
    use fuse_tensor::codec::CodecError;
    use fuse_tensor::Tensor;

    use super::*;

    fn artifact_bytes() -> (Vec<u8>, ExecPlan) {
        let cw = Tensor::randn(&[3, 2, 3, 3], 0.5, 81);
        let cb = Tensor::randn(&[3], 0.1, 82);
        let w = Tensor::randn(&[5, 12], 0.2, 83);
        let b = Tensor::randn(&[5], 0.1, 84);
        let mut g = Graph::new(TensorMeta::f32(&[2, 4, 4]));
        g.push_conv2d("conv", fuse_tensor::Conv2dSpec::same(2, 3, 3), cw.as_slice(), cb.as_slice())
            .unwrap();
        g.push_relu("relu").unwrap();
        g.push_maxpool2d("pool", 2).unwrap();
        g.push_flatten("flatten").unwrap();
        g.push_linear("fc", 12, 5, w.as_slice(), b.as_slice()).unwrap();
        let plan = g.compile(4).unwrap();
        (plan.to_bytes(), plan)
    }

    #[test]
    fn session_matches_the_in_memory_plan_bit_for_bit() {
        let (bytes, mut plan) = artifact_bytes();
        let mut session = EdgeSession::from_bytes(&bytes).unwrap();
        assert_eq!(session.max_batch(), 4);
        assert_eq!(session.input_meta().dims(), &[2, 4, 4]);
        assert_eq!(session.output_meta().dims(), &[5]);
        assert_eq!(session.signature().layer_names().len(), 5);
        for batch in 1..=4usize {
            let input = Tensor::randn(&[batch, 2, 4, 4], 1.0, 85 + batch as u64);
            assert_eq!(
                session.infer(input.as_slice(), batch).unwrap(),
                plan.run(input.as_slice(), batch).unwrap()
            );
        }
    }

    #[test]
    fn quantized_artifacts_serve_within_tolerance_of_the_float_plan() {
        use fuse_quant::compare::{assert_close_ulp, top1, Tolerance};
        let (_, float_plan) = artifact_bytes();
        let bytes = float_plan.quantize().unwrap().to_bytes();
        let mut session = EdgeSession::from_bytes(&bytes).unwrap();
        assert!(session.is_quantized());
        assert_eq!(session.signature(), float_plan.signature());

        let mut float_plan = float_plan;
        let budget = Tolerance { max_ulp: 0, max_abs: 5e-2, max_rel: 2e-2 };
        for batch in 1..=4usize {
            let input = Tensor::randn(&[batch, 2, 4, 4], 1.0, 90 + batch as u64);
            let got = session.infer(input.as_slice(), batch).unwrap().to_vec();
            let want = float_plan.run(input.as_slice(), batch).unwrap();
            assert_close_ulp(want, &got, &budget, &format!("edge quantized batch {batch}"));
            for (g, w) in got.chunks(5).zip(want.chunks(5)) {
                assert_eq!(top1(g), top1(w), "top-1 agreement must hold per sample");
            }
        }
    }

    #[test]
    fn corrupt_artifacts_are_typed_errors() {
        let (bytes, _) = artifact_bytes();
        assert!(matches!(
            EdgeSession::from_bytes(&bytes[..bytes.len() / 2]),
            Err(GraphError::Codec(
                CodecError::Truncated { .. } | CodecError::ChecksumMismatch { .. }
            ))
        ));
        assert!(matches!(EdgeSession::load("/nonexistent/model.fplan"), Err(GraphError::Io(_))));
    }
}
