//! 2-D convolution primitives (im2col based).
//!
//! The MARS baseline CNN and the FUSE model both use small 2-D convolutions
//! over 8×8 feature maps. The forward pass lowers each input window into a
//! column matrix (im2col) and performs a single GEMM per sample; the backward
//! passes reuse the same lowering.

use fuse_backend::KernelBackend;
use fuse_parallel as par;
use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::linalg;
use crate::tensor::Tensor;
use crate::Result;

/// Geometry of a 2-D convolution.
///
/// All convolutions in the FUSE models use square kernels, unit stride and
/// symmetric zero padding, but the spec keeps the fields general so the radar
/// feature experiments can vary them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels (filters).
    pub out_channels: usize,
    /// Kernel height and width.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Symmetric zero padding in both dimensions.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec with unit stride and "same" padding for odd kernels.
    pub fn same(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        Conv2dSpec { in_channels, out_channels, kernel, stride: 1, padding: kernel / 2 }
    }

    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvolution`] when the padded input is
    /// smaller than the kernel or overflows, or the stride is zero.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidConvolution("stride must be nonzero".into()));
        }
        // Geometry may come from a decoded artifact, so overflow is an error.
        let padded = |n: usize| {
            self.padding.checked_mul(2).and_then(|p| p.checked_add(n)).ok_or_else(|| {
                TensorError::InvalidConvolution(format!(
                    "input {n} padded by {} overflows",
                    self.padding
                ))
            })
        };
        let (ph, pw) = (padded(h)?, padded(w)?);
        if ph < self.kernel || pw < self.kernel {
            return Err(TensorError::InvalidConvolution(format!(
                "padded input {ph}x{pw} smaller than kernel {k}x{k}",
                k = self.kernel
            )));
        }
        Ok(((ph - self.kernel) / self.stride + 1, (pw - self.kernel) / self.stride + 1))
    }

    /// Number of weight parameters (`out * in * k * k`).
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }
}

/// Lowers a single `[C, H, W]` sample into an im2col matrix of shape
/// `[C*k*k, out_h*out_w]` stored row-major in `cols`, on the given backend
/// (row filling is pure data movement; the SIMD backend lowers stride-1 rows
/// with bulk copies).
///
/// Rows are independent, so large lowerings (single-sample inference with the
/// batch dimension unavailable for parallelism) fan out row-wise on the
/// `fuse-parallel` pool; inside a pool worker this runs inline.
fn im2col(
    be: &dyn KernelBackend,
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    cols: &mut [f32],
) {
    let (out_h, out_w) = spec.output_size(h, w).expect("output_size validated by caller");
    let k = spec.kernel;
    let n_cols = out_h * out_w;
    let rows = c * k * k;
    let cols = &mut cols[..rows * n_cols];
    if rows > 1 && par::parallel_beneficial(rows * n_cols) {
        par::par_chunks_mut(cols, n_cols, |row, row_out| {
            be.im2col_row(input, h, w, k, spec.stride, spec.padding, row, row_out, out_w);
        });
    } else {
        for (row, row_out) in cols.chunks_exact_mut(n_cols).enumerate() {
            be.im2col_row(input, h, w, k, spec.stride, spec.padding, row, row_out, out_w);
        }
    }
}

/// Scatters an im2col matrix back into a `[C, H, W]` gradient buffer
/// (the adjoint of [`im2col`]).
fn col2im(cols: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, grad_input: &mut [f32]) {
    let (out_h, out_w) = spec.output_size(h, w).expect("output_size validated by caller");
    let k = spec.kernel;
    let n_cols = out_h * out_w;
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                for oy in 0..out_h {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..out_w {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        grad_input[(ch * h + iy as usize) * w + ix as usize] +=
                            cols[row * n_cols + oy * out_w + ox];
                    }
                }
            }
        }
    }
}

fn check_input(input: &Tensor, spec: &Conv2dSpec) -> Result<(usize, usize, usize, usize)> {
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input.shape().rank() });
    }
    let dims = input.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    if c != spec.in_channels {
        return Err(TensorError::InvalidConvolution(format!(
            "input has {c} channels but the spec expects {}",
            spec.in_channels
        )));
    }
    Ok((n, c, h, w))
}

/// Forward 2-D convolution.
///
/// * `input`: `[N, C_in, H, W]`
/// * `weight`: `[C_out, C_in, k, k]`
/// * `bias`: `[C_out]`
///
/// Returns `[N, C_out, H_out, W_out]`.
///
/// # Errors
///
/// Returns an error when shapes are inconsistent with `spec`.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let (n, c, h, w) = check_input(input, spec)?;
    if weight.len() != spec.weight_len() {
        return Err(TensorError::ShapeDataMismatch {
            expected: spec.weight_len(),
            actual: weight.len(),
        });
    }
    if bias.len() != spec.out_channels {
        return Err(TensorError::ShapeDataMismatch {
            expected: spec.out_channels,
            actual: bias.len(),
        });
    }
    let (out_h, out_w) = spec.output_size(h, w)?;
    let col_rows = c * spec.kernel * spec.kernel;
    let n_cols = out_h * out_w;
    let mut out = vec![0.0f32; n * spec.out_channels * n_cols];

    let in_stride = c * h * w;
    let out_stride = spec.out_channels * n_cols;
    let input_data = input.as_slice();
    let weight_data = weight.as_slice();
    let bias_data = bias.as_slice();

    // One fully independent unit of work per batch sample: lower the sample,
    // run the per-output-channel GEMM, add the bias. The backend is resolved
    // once here and captured, so the per-sample pool tasks use the caller's
    // backend.
    let be = fuse_backend::active();
    let forward_sample = |s: usize, cols: &mut [f32], out_sample: &mut [f32]| {
        im2col(be, &input_data[s * in_stride..(s + 1) * in_stride], c, h, w, spec, cols);
        // out[s] = weight[(C_out) x (C_in*k*k)] * cols[(C_in*k*k) x (n_cols)]
        linalg::gemm(weight_data, cols, out_sample, spec.out_channels, col_rows, n_cols);
        for (oc, out_channel) in out_sample.chunks_exact_mut(n_cols).enumerate() {
            be.add_scalar_assign(out_channel, bias_data[oc]);
        }
    };

    if n > 1 && par::parallel_beneficial(n * spec.out_channels * col_rows * n_cols) {
        par::par_chunks_mut(&mut out, out_stride, |s, out_sample| {
            let mut cols = vec![0.0f32; col_rows * n_cols];
            forward_sample(s, &mut cols, out_sample);
        });
    } else {
        let mut cols = vec![0.0f32; col_rows * n_cols];
        for (s, out_sample) in out.chunks_exact_mut(out_stride).enumerate() {
            forward_sample(s, &mut cols, out_sample);
        }
    }
    Tensor::from_vec(out, &[n, spec.out_channels, out_h, out_w])
}

/// Forward 2-D convolution into caller-provided buffers (the arena-backed
/// entry point used by compiled `fuse-graph` execution plans).
///
/// Semantically identical to [`conv2d_forward`] — the same im2col lowering,
/// the same per-sample GEMM, the same backend bias broadcast, the same
/// parallel gate — but every intermediate lives in slices owned by the
/// caller, so steady-state execution performs no heap allocation. An optional
/// fused ReLU applies `x.max(0.0)` element-wise after the bias, which is
/// bit-identical to running a separate ReLU layer on the result.
///
/// * `input`: `[N, C_in, H, W]` (flattened, `n * c * h * w` elements)
/// * `cols`: scratch of at least `n * (C_in*k*k) * (H_out*W_out)` elements
/// * `out`: at least `n * C_out * H_out * W_out` elements
///
/// # Errors
///
/// Returns an error when the geometry is degenerate or any buffer is shorter
/// than the dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_into(
    input: &[f32],
    n: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    cols: &mut [f32],
    out: &mut [f32],
    relu: bool,
) -> Result<()> {
    conv2d_forward_into_on(
        fuse_backend::active(),
        input,
        n,
        h,
        w,
        weight,
        bias,
        spec,
        cols,
        out,
        relu,
    )
}

/// [`conv2d_forward_into`] under **relaxed** dispatch: bit-identical to the
/// exact entry point for `scalar`/`simd`/`auto`, fused FMA kernels under
/// the opt-in `FUSE_BACKEND=simd-fma` on a capable host. Only the
/// compiled-plan serve path calls this.
///
/// # Errors
///
/// Same conditions as [`conv2d_forward_into`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_into_relaxed(
    input: &[f32],
    n: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    cols: &mut [f32],
    out: &mut [f32],
    relu: bool,
) -> Result<()> {
    let be = fuse_backend::active_for(fuse_backend::ContractMode::Relaxed);
    conv2d_forward_into_on(be, input, n, h, w, weight, bias, spec, cols, out, relu)
}

#[allow(clippy::too_many_arguments)]
fn conv2d_forward_into_on(
    be: &'static dyn fuse_backend::KernelBackend,
    input: &[f32],
    n: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    cols: &mut [f32],
    out: &mut [f32],
    relu: bool,
) -> Result<()> {
    let c = spec.in_channels;
    let (out_h, out_w) = spec.output_size(h, w)?;
    let col_rows = c * spec.kernel * spec.kernel;
    let n_cols = out_h * out_w;
    check_buffer(input.len(), n * c * h * w)?;
    check_buffer(weight.len(), spec.weight_len())?;
    check_buffer(bias.len(), spec.out_channels)?;
    check_buffer(cols.len(), n * col_rows * n_cols)?;
    check_buffer(out.len(), n * spec.out_channels * n_cols)?;

    let in_stride = c * h * w;
    let col_stride = col_rows * n_cols;
    let out_stride = spec.out_channels * n_cols;
    let cols = &mut cols[..n * col_stride];
    let out = &mut out[..n * out_stride];

    // Same per-sample unit of work as `conv2d_forward`, with the scratch
    // column matrix carved out of the caller's slab instead of a fresh
    // allocation. `im2col` fully overwrites its scratch, so slab reuse
    // cannot change any bit. The backend was resolved once by the public
    // wrapper (exact or relaxed) and governs the whole dispatch.
    let forward_sample = |s: usize, cols_s: &mut [f32], out_s: &mut [f32]| {
        im2col(be, &input[s * in_stride..(s + 1) * in_stride], c, h, w, spec, cols_s);
        linalg::gemm_on(be, weight, cols_s, out_s, spec.out_channels, col_rows, n_cols);
        for (oc, out_channel) in out_s.chunks_exact_mut(n_cols).enumerate() {
            be.add_scalar_assign(out_channel, bias[oc]);
        }
        if relu {
            for v in out_s.iter_mut() {
                *v = v.max(0.0);
            }
        }
    };

    if n > 1 && par::parallel_beneficial(n * spec.out_channels * col_rows * n_cols) {
        // `par_chunks_mut` hands out one slice; per-sample scratch needs a
        // second, so zip the two slabs under a fork-join scope instead. The
        // pool may allocate task cells here — the zero-alloc guarantee holds
        // for serial steady state (`FUSE_THREADS=1`), which the allocation
        // gate pins.
        let forward_sample = &forward_sample;
        par::scope(|scope| {
            for (s, (cols_s, out_s)) in
                cols.chunks_exact_mut(col_stride).zip(out.chunks_exact_mut(out_stride)).enumerate()
            {
                scope.spawn(move || forward_sample(s, cols_s, out_s));
            }
        });
    } else {
        for (s, (cols_s, out_s)) in
            cols.chunks_exact_mut(col_stride).zip(out.chunks_exact_mut(out_stride)).enumerate()
        {
            forward_sample(s, cols_s, out_s);
        }
    }
    Ok(())
}

/// Forward 1×1 / stride-1 / unpadded convolution as a direct GEMM into
/// caller-provided buffers.
///
/// For this geometry the im2col matrix of a sample *is* the sample
/// (`cols[ch * n_cols + i] == input[ch * n_cols + i]`), so the lowering is
/// pure data movement and can be elided: `out[s] = weight * input[s]` (a
/// `[C_out x C_in] x [C_in x H*W]` GEMM) runs on the input directly,
/// bit-identically to [`conv2d_forward`] / [`conv2d_forward_into`] because
/// the GEMM sees the exact same operand values and dimensions.
///
/// # Errors
///
/// Returns an error when `spec` is not `kernel == 1, stride == 1, padding ==
/// 0` or any buffer is shorter than the dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn conv1x1_forward_into(
    input: &[f32],
    n: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    out: &mut [f32],
    relu: bool,
) -> Result<()> {
    conv1x1_forward_into_on(fuse_backend::active(), input, n, h, w, weight, bias, spec, out, relu)
}

/// [`conv1x1_forward_into`] under **relaxed** dispatch (see
/// [`conv2d_forward_into_relaxed`] for the contract).
///
/// # Errors
///
/// Same conditions as [`conv1x1_forward_into`].
#[allow(clippy::too_many_arguments)]
pub fn conv1x1_forward_into_relaxed(
    input: &[f32],
    n: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    out: &mut [f32],
    relu: bool,
) -> Result<()> {
    let be = fuse_backend::active_for(fuse_backend::ContractMode::Relaxed);
    conv1x1_forward_into_on(be, input, n, h, w, weight, bias, spec, out, relu)
}

#[allow(clippy::too_many_arguments)]
fn conv1x1_forward_into_on(
    be: &'static dyn fuse_backend::KernelBackend,
    input: &[f32],
    n: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    out: &mut [f32],
    relu: bool,
) -> Result<()> {
    if spec.kernel != 1 || spec.stride != 1 || spec.padding != 0 {
        return Err(TensorError::InvalidConvolution(format!(
            "direct-gemm path requires a 1x1/stride-1/unpadded conv, got k={} s={} p={}",
            spec.kernel, spec.stride, spec.padding
        )));
    }
    let c = spec.in_channels;
    let n_cols = h * w;
    check_buffer(input.len(), n * c * n_cols)?;
    check_buffer(weight.len(), spec.weight_len())?;
    check_buffer(bias.len(), spec.out_channels)?;
    check_buffer(out.len(), n * spec.out_channels * n_cols)?;

    let in_stride = c * n_cols;
    let out_stride = spec.out_channels * n_cols;
    let out = &mut out[..n * out_stride];

    let forward_sample = |s: usize, out_s: &mut [f32]| {
        linalg::gemm_on(
            be,
            weight,
            &input[s * in_stride..(s + 1) * in_stride],
            out_s,
            spec.out_channels,
            c,
            n_cols,
        );
        for (oc, out_channel) in out_s.chunks_exact_mut(n_cols).enumerate() {
            be.add_scalar_assign(out_channel, bias[oc]);
        }
        if relu {
            for v in out_s.iter_mut() {
                *v = v.max(0.0);
            }
        }
    };

    // Same gate expression as the general conv (col_rows == C_in when k=1).
    if n > 1 && par::parallel_beneficial(n * spec.out_channels * c * n_cols) {
        par::par_chunks_mut(out, out_stride, forward_sample);
    } else {
        for (s, out_s) in out.chunks_exact_mut(out_stride).enumerate() {
            forward_sample(s, out_s);
        }
    }
    Ok(())
}

fn check_buffer(actual: usize, expected: usize) -> Result<()> {
    if actual < expected {
        return Err(TensorError::ShapeDataMismatch { expected, actual });
    }
    Ok(())
}

/// Gradient of the convolution output with respect to its input.
///
/// * `grad_output`: `[N, C_out, H_out, W_out]`
///
/// Returns `[N, C_in, H, W]` where `(H, W)` is taken from `input_dims`.
///
/// # Errors
///
/// Returns an error when shapes are inconsistent with `spec`.
pub fn conv2d_backward_input(
    grad_output: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: input_dims.len() });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (out_h, out_w) = spec.output_size(h, w)?;
    let n_cols = out_h * out_w;
    let col_rows = c * spec.kernel * spec.kernel;
    if grad_output.len() != n * spec.out_channels * n_cols {
        return Err(TensorError::ShapeDataMismatch {
            expected: n * spec.out_channels * n_cols,
            actual: grad_output.len(),
        });
    }

    let mut grad_input = vec![0.0f32; n * c * h * w];
    let go_stride = spec.out_channels * n_cols;
    let gi_stride = c * h * w;
    let go_data = grad_output.as_slice();
    let weight_data = weight.as_slice();

    // Per-sample adjoint: un-GEMM into column space, then scatter back.
    let backward_sample = |s: usize, grad_cols: &mut [f32], gi_sample: &mut [f32]| {
        // grad_cols = weightᵀ [col_rows x C_out] * grad_out [C_out x n_cols]
        linalg::gemm_at_b(
            weight_data,
            &go_data[s * go_stride..(s + 1) * go_stride],
            grad_cols,
            spec.out_channels,
            col_rows,
            n_cols,
        );
        col2im(grad_cols, c, h, w, spec, gi_sample);
    };

    if n > 1 && par::parallel_beneficial(n * spec.out_channels * col_rows * n_cols) {
        par::par_chunks_mut(&mut grad_input, gi_stride, |s, gi_sample| {
            let mut grad_cols = vec![0.0f32; col_rows * n_cols];
            backward_sample(s, &mut grad_cols, gi_sample);
        });
    } else {
        let mut grad_cols = vec![0.0f32; col_rows * n_cols];
        for (s, gi_sample) in grad_input.chunks_exact_mut(gi_stride).enumerate() {
            backward_sample(s, &mut grad_cols, gi_sample);
        }
    }
    Tensor::from_vec(grad_input, &[n, c, h, w])
}

/// Gradients of the convolution output with respect to the weights and bias.
///
/// Returns `(grad_weight [C_out, C_in, k, k], grad_bias [C_out])`, summed over
/// the batch.
///
/// # Errors
///
/// Returns an error when shapes are inconsistent with `spec`.
pub fn conv2d_backward_weight(
    input: &Tensor,
    grad_output: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor)> {
    let (n, c, h, w) = check_input(input, spec)?;
    let (out_h, out_w) = spec.output_size(h, w)?;
    let n_cols = out_h * out_w;
    let col_rows = c * spec.kernel * spec.kernel;
    if grad_output.len() != n * spec.out_channels * n_cols {
        return Err(TensorError::ShapeDataMismatch {
            expected: n * spec.out_channels * n_cols,
            actual: grad_output.len(),
        });
    }

    let mut grad_weight = vec![0.0f32; spec.weight_len()];
    let mut grad_bias = vec![0.0f32; spec.out_channels];
    let in_stride = c * h * w;
    let go_stride = spec.out_channels * n_cols;
    let input_data = input.as_slice();
    let go_data = grad_output.as_slice();

    // The weight/bias gradients are reductions over the batch. Each sample
    // produces an independent partial (`cols` is fully overwritten per call,
    // so the buffer can be shared or private without changing any bit). The
    // per-channel bias sums are in-order reductions, which every backend
    // computes in the scalar association (the reproducibility contract).
    let be = fuse_backend::active();
    let weight_partial = |s: usize, cols: &mut [f32]| {
        im2col(be, &input_data[s * in_stride..(s + 1) * in_stride], c, h, w, spec, cols);
        // grad_w += grad_out [C_out x n_cols] * colsᵀ [n_cols x col_rows]
        let go = &go_data[s * go_stride..(s + 1) * go_stride];
        let mut gw = vec![0.0f32; spec.out_channels * col_rows];
        linalg::gemm_a_bt(go, cols, &mut gw, spec.out_channels, n_cols, col_rows);
        let gb: Vec<f32> =
            (0..spec.out_channels).map(|oc| be.sum(&go[oc * n_cols..(oc + 1) * n_cols])).collect();
        (gw, gb)
    };

    // Parallel partials are materialised per sample and merged in sample
    // order: band-local accumulation would tie the floating-point association
    // to the thread count and break bit-identity. The transient cost is
    // O(batch × weight_len), small for every workload in this workspace.
    let partials: Vec<(Vec<f32>, Vec<f32>)> =
        if n > 1 && par::parallel_beneficial(n * spec.out_channels * col_rows * n_cols) {
            par::par_map_index(n, |s| {
                let mut cols = vec![0.0f32; col_rows * n_cols];
                weight_partial(s, &mut cols)
            })
        } else {
            let mut cols = vec![0.0f32; col_rows * n_cols];
            (0..n).map(|s| weight_partial(s, &mut cols)).collect()
        };
    for (gw, gb) in &partials {
        linalg::axpy(1.0, gw, &mut grad_weight);
        linalg::add_assign(&mut grad_bias, gb);
    }
    Ok((
        Tensor::from_vec(
            grad_weight,
            &[spec.out_channels, spec.in_channels, spec.kernel, spec.kernel],
        )?,
        Tensor::from_vec(grad_bias, &[spec.out_channels])?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (non-im2col) convolution used as a reference implementation.
    fn conv2d_reference(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (out_h, out_w) = spec.output_size(h, w).unwrap();
        let mut out = Tensor::zeros(&[n, spec.out_channels, out_h, out_w]);
        for s in 0..n {
            for oc in 0..spec.out_channels {
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        let mut acc = bias.as_slice()[oc];
                        for ic in 0..c {
                            for ky in 0..spec.kernel {
                                for kx in 0..spec.kernel {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let xv = input.at(&[s, ic, iy as usize, ix as usize]).unwrap();
                                    let wv = weight.at(&[oc, ic, ky, kx]).unwrap();
                                    acc += xv * wv;
                                }
                            }
                        }
                        out.set(&[s, oc, oy, ox], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    fn small_case() -> (Tensor, Tensor, Tensor, Conv2dSpec) {
        let spec = Conv2dSpec::same(2, 3, 3);
        let input = Tensor::randn(&[2, 2, 5, 5], 1.0, 11);
        let weight = Tensor::randn(&[3, 2, 3, 3], 0.5, 12);
        let bias = Tensor::randn(&[3], 0.1, 13);
        (input, weight, bias, spec)
    }

    #[test]
    fn forward_matches_reference_convolution() {
        let (input, weight, bias, spec) = small_case();
        let fast = conv2d_forward(&input, &weight, &bias, &spec).unwrap();
        let slow = conv2d_reference(&input, &weight, &bias, &spec);
        assert_eq!(fast.dims(), slow.dims());
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn output_size_same_padding_preserves_spatial_dims() {
        let spec = Conv2dSpec::same(5, 16, 3);
        assert_eq!(spec.output_size(8, 8).unwrap(), (8, 8));
        assert_eq!(spec.padding, 1);
    }

    #[test]
    fn output_size_rejects_degenerate_geometry() {
        let spec = Conv2dSpec { in_channels: 1, out_channels: 1, kernel: 5, stride: 1, padding: 0 };
        assert!(spec.output_size(3, 3).is_err());
        let bad = Conv2dSpec { stride: 0, ..spec };
        assert!(bad.output_size(8, 8).is_err());
    }

    #[test]
    fn forward_rejects_wrong_channel_count() {
        let spec = Conv2dSpec::same(3, 4, 3);
        let input = Tensor::zeros(&[1, 2, 8, 8]);
        let weight = Tensor::zeros(&[4, 3, 3, 3]);
        let bias = Tensor::zeros(&[4]);
        assert!(conv2d_forward(&input, &weight, &bias, &spec).is_err());
    }

    /// Finite-difference check of the input gradient.
    #[test]
    fn backward_input_matches_finite_differences() {
        let spec = Conv2dSpec::same(1, 2, 3);
        let input = Tensor::randn(&[1, 1, 4, 4], 1.0, 21);
        let weight = Tensor::randn(&[2, 1, 3, 3], 0.5, 22);
        let bias = Tensor::zeros(&[2]);

        // Loss = sum(conv(x)); dLoss/dOut = ones.
        let out = conv2d_forward(&input, &weight, &bias, &spec).unwrap();
        let grad_out = Tensor::ones(out.dims());
        let grad_in = conv2d_backward_input(&grad_out, &weight, input.dims(), &spec).unwrap();

        let eps = 1e-3;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let f_plus = conv2d_forward(&plus, &weight, &bias, &spec).unwrap().sum();
            let f_minus = conv2d_forward(&minus, &weight, &bias, &spec).unwrap().sum();
            let fd = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (fd - grad_in.as_slice()[i]).abs() < 1e-2,
                "input grad mismatch at {i}: fd={fd} analytic={}",
                grad_in.as_slice()[i]
            );
        }
    }

    /// Finite-difference check of the weight and bias gradients.
    #[test]
    fn backward_weight_matches_finite_differences() {
        let spec = Conv2dSpec::same(2, 2, 3);
        let input = Tensor::randn(&[2, 2, 4, 4], 1.0, 31);
        let weight = Tensor::randn(&[2, 2, 3, 3], 0.5, 32);
        let bias = Tensor::randn(&[2], 0.1, 33);

        let out = conv2d_forward(&input, &weight, &bias, &spec).unwrap();
        let grad_out = Tensor::ones(out.dims());
        let (grad_w, grad_b) = conv2d_backward_weight(&input, &grad_out, &spec).unwrap();

        let eps = 1e-3;
        for i in (0..weight.len()).step_by(5) {
            let mut plus = weight.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = weight.clone();
            minus.as_mut_slice()[i] -= eps;
            let f_plus = conv2d_forward(&input, &plus, &bias, &spec).unwrap().sum();
            let f_minus = conv2d_forward(&input, &minus, &bias, &spec).unwrap().sum();
            let fd = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (fd - grad_w.as_slice()[i]).abs() < 2e-2,
                "weight grad mismatch at {i}: fd={fd} analytic={}",
                grad_w.as_slice()[i]
            );
        }
        for i in 0..bias.len() {
            let mut plus = bias.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = bias.clone();
            minus.as_mut_slice()[i] -= eps;
            let f_plus = conv2d_forward(&input, &weight, &plus, &spec).unwrap().sum();
            let f_minus = conv2d_forward(&input, &weight, &minus, &spec).unwrap().sum();
            let fd = (f_plus - f_minus) / (2.0 * eps);
            assert!((fd - grad_b.as_slice()[i]).abs() < 2e-2);
        }
    }

    #[test]
    fn weight_len_matches_tensor_shape() {
        let spec = Conv2dSpec::same(5, 16, 3);
        assert_eq!(spec.weight_len(), 16 * 5 * 3 * 3);
    }
}
