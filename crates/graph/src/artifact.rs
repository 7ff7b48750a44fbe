//! The `.fplan` plan artifact: a versioned, checksummed, little-endian
//! binary container for compiled [`ExecPlan`]s.
//!
//! An artifact is fully self-contained — shape signature, scheduled steps,
//! arena slot layout (with the compiled `max_batch`), and a raw-f32
//! parameter snapshot — so an edge deployment can load and serve it against
//! `fuse-tensor`/`fuse-backend` alone, with no `fuse-nn` lowering stack and
//! no startup compilation. The byte layout is specified normatively in
//! `REPRODUCIBILITY.md`; the container is [`fuse_tensor::codec::seal`]'s:
//!
//! ```text
//! magic "FPLN" | format version u32 | payload length u64 | payload | FNV-1a-64 checksum u64
//! ```
//!
//! All integers are little-endian; `f32` values are stored as the
//! little-endian bytes of their IEEE-754 bit patterns, so a round trip is
//! bit-exact (NaN payloads included). Format v2 appends two length-prefixed
//! tables after the f32 parameters — int8 quantized weights and per-channel
//! f32 scales — and adds the quantized step tags; readers accept
//! `v1..=v2`, decoding v1 artifacts to float plans with empty quantized
//! sections. Every malformed input — wrong magic,
//! unknown version, short file, corrupt payload, or a structurally valid
//! payload describing an inconsistent plan — is a typed [`GraphError`];
//! loading never panics, and a loaded plan's `run` is panic-free because all
//! arena and parameter ranges are bounds- and overlap-checked here.

use std::fs;
use std::ops::Range;
use std::path::Path;

use fuse_tensor::codec::{self, Reader, Writer, MAX_PAYLOAD};
use fuse_tensor::Conv2dSpec;

use crate::error::GraphError;
use crate::graph::ShapeSignature;
use crate::meta::{DType, TensorMeta};
use crate::plan::{ExecPlan, Src, Step};
use crate::Result;

/// The four magic bytes opening every `.fplan` artifact.
pub const FPLAN_MAGIC: [u8; 4] = *b"FPLN";

/// The artifact format version this build writes. Readers accept
/// `1..=FPLAN_VERSION`: v1 is the float-only layout, v2 appends the int8
/// quantized-weight and per-channel scale tables (and may carry quantized
/// step tags). A v1 artifact decodes to a float plan with empty quantized
/// sections.
///
/// Any change to the byte layout — new step tags included — must bump this;
/// readers reject every newer or unknown version with
/// [`fuse_tensor::codec::CodecError::UnsupportedVersion`] rather than
/// guessing.
pub const FPLAN_VERSION: u32 = 2;

/// The oldest artifact format version this build still reads.
pub const FPLAN_MIN_VERSION: u32 = 1;

const TAG_CONV2D: u8 = 0;
const TAG_CONV1X1: u8 = 1;
const TAG_LINEAR: u8 = 2;
const TAG_RELU: u8 = 3;
const TAG_MAXPOOL2D: u8 = 4;
// v2-only tags: quantized steps referencing the int8/scale tables.
const TAG_QCONV2D: u8 = 5;
const TAG_QLINEAR: u8 = 6;

const SRC_INPUT: u8 = 0;
const SRC_ARENA: u8 = 1;

const DTYPE_F32: u8 = 0;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn write_range(w: &mut Writer, r: &Range<usize>) {
    w.usize(r.start);
    w.usize(r.end);
}

fn write_meta(w: &mut Writer, m: &TensorMeta) {
    match m.dtype() {
        DType::F32 => w.u8(DTYPE_F32),
    }
    w.len_prefix_u32(m.dims().len());
    for &d in m.dims() {
        w.usize(d);
    }
}

fn write_src(w: &mut Writer, s: &Src) {
    match s {
        Src::Input => w.u8(SRC_INPUT),
        Src::Arena { offset } => {
            w.u8(SRC_ARENA);
            w.usize(*offset);
        }
    }
}

fn write_spec(w: &mut Writer, s: &Conv2dSpec) {
    w.usize(s.in_channels);
    w.usize(s.out_channels);
    w.usize(s.kernel);
    w.usize(s.stride);
    w.usize(s.padding);
}

fn encode_payload(plan: &ExecPlan) -> Vec<u8> {
    let mut e = Writer::new();

    let sig = &plan.signature;
    e.len_prefix_u32(sig.layer_names().len());
    for name in sig.layer_names() {
        e.str_u32(name);
    }
    e.usize(sig.param_len());
    write_meta(&mut e, sig.input());
    write_meta(&mut e, sig.output());

    write_meta(&mut e, &plan.input);
    write_meta(&mut e, &plan.output);
    e.usize(plan.max_batch);
    e.usize(plan.out_offset);
    e.usize(plan.arena.len());

    e.len_prefix_u32(plan.steps.len());
    for step in &plan.steps {
        match step {
            Step::Conv2d {
                spec,
                h,
                w,
                src,
                src_len,
                cols_offset,
                cols_len,
                dst_offset,
                dst_len,
                weight,
                bias,
                relu,
            } => {
                e.u8(TAG_CONV2D);
                write_spec(&mut e, spec);
                e.usize(*h);
                e.usize(*w);
                write_src(&mut e, src);
                e.usize(*src_len);
                e.usize(*cols_offset);
                e.usize(*cols_len);
                e.usize(*dst_offset);
                e.usize(*dst_len);
                write_range(&mut e, weight);
                write_range(&mut e, bias);
                e.u8(u8::from(*relu));
            }
            Step::Conv1x1 { spec, h, w, src, src_len, dst_offset, dst_len, weight, bias, relu } => {
                e.u8(TAG_CONV1X1);
                write_spec(&mut e, spec);
                e.usize(*h);
                e.usize(*w);
                write_src(&mut e, src);
                e.usize(*src_len);
                e.usize(*dst_offset);
                e.usize(*dst_len);
                write_range(&mut e, weight);
                write_range(&mut e, bias);
                e.u8(u8::from(*relu));
            }
            Step::Linear { in_features, out_features, src, dst_offset, weight, bias, relu } => {
                e.u8(TAG_LINEAR);
                e.usize(*in_features);
                e.usize(*out_features);
                write_src(&mut e, src);
                e.usize(*dst_offset);
                write_range(&mut e, weight);
                write_range(&mut e, bias);
                e.u8(u8::from(*relu));
            }
            Step::Relu { src, len, dst_offset } => {
                e.u8(TAG_RELU);
                write_src(&mut e, src);
                e.usize(*len);
                e.usize(*dst_offset);
            }
            Step::MaxPool2d { window, c, h, w, src, src_len, dst_offset, dst_len } => {
                e.u8(TAG_MAXPOOL2D);
                e.usize(*window);
                e.usize(*c);
                e.usize(*h);
                e.usize(*w);
                write_src(&mut e, src);
                e.usize(*src_len);
                e.usize(*dst_offset);
                e.usize(*dst_len);
            }
            Step::QConv2d {
                spec,
                h,
                w,
                src,
                src_len,
                dst_offset,
                dst_len,
                weight,
                scale,
                bias,
                relu,
            } => {
                e.u8(TAG_QCONV2D);
                write_spec(&mut e, spec);
                e.usize(*h);
                e.usize(*w);
                write_src(&mut e, src);
                e.usize(*src_len);
                e.usize(*dst_offset);
                e.usize(*dst_len);
                write_range(&mut e, weight);
                write_range(&mut e, scale);
                write_range(&mut e, bias);
                e.u8(u8::from(*relu));
            }
            Step::QLinear {
                in_features,
                out_features,
                src,
                dst_offset,
                weight,
                scale,
                bias,
                relu,
            } => {
                e.u8(TAG_QLINEAR);
                e.usize(*in_features);
                e.usize(*out_features);
                write_src(&mut e, src);
                e.usize(*dst_offset);
                write_range(&mut e, weight);
                write_range(&mut e, scale);
                write_range(&mut e, bias);
                e.u8(u8::from(*relu));
            }
        }
    }

    e.f32_slice(&plan.params);
    // v2 quantized sections: length-prefixed int8 weights, then f32 scales.
    e.i8_slice(&plan.qweights);
    e.f32_slice(&plan.qscales);
    e.into_bytes()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn read_range(r: &mut Reader<'_>, what: &'static str) -> Result<Range<usize>> {
    let start = r.usize(what)?;
    let end = r.usize(what)?;
    if start > end {
        return Err(GraphError::Malformed(format!("inverted {what} range {start}..{end}")));
    }
    Ok(start..end)
}

fn read_meta(r: &mut Reader<'_>) -> Result<TensorMeta> {
    match r.u8("dtype tag")? {
        DTYPE_F32 => {}
        tag => return Err(GraphError::Malformed(format!("unknown dtype tag {tag}"))),
    }
    let rank = r.len_prefix_u32(8, "tensor rank")?;
    if rank > 8 {
        return Err(GraphError::Malformed(format!("implausible tensor rank {rank}")));
    }
    let dims = (0..rank).map(|_| r.usize("tensor dim")).collect::<codec::Result<Vec<_>>>()?;
    Ok(TensorMeta::f32(&dims))
}

fn read_src(r: &mut Reader<'_>) -> Result<Src> {
    match r.u8("source tag")? {
        SRC_INPUT => Ok(Src::Input),
        SRC_ARENA => Ok(Src::Arena { offset: r.usize("source offset")? }),
        tag => Err(GraphError::Malformed(format!("unknown source tag {tag}"))),
    }
}

fn read_spec(r: &mut Reader<'_>) -> Result<Conv2dSpec> {
    Ok(Conv2dSpec {
        in_channels: r.usize("conv in_channels")?,
        out_channels: r.usize("conv out_channels")?,
        kernel: r.usize("conv kernel")?,
        stride: r.usize("conv stride")?,
        padding: r.usize("conv padding")?,
    })
}

fn decode_payload(payload: &[u8], version: u32) -> Result<ExecPlan> {
    let mut r = Reader::new(payload);

    let name_count = r.len_prefix_u32(4, "layer name count")?;
    let layer_names =
        (0..name_count).map(|_| r.str_u32("layer name")).collect::<codec::Result<Vec<_>>>()?;
    let sig_param_len = r.usize("signature param_len")?;
    let sig_input = read_meta(&mut r)?;
    let sig_output = read_meta(&mut r)?;
    let signature = ShapeSignature::from_parts(layer_names, sig_param_len, sig_input, sig_output);

    let input = read_meta(&mut r)?;
    let output = read_meta(&mut r)?;
    let max_batch = r.usize("max_batch")?;
    let out_offset = r.usize("out_offset")?;
    let arena_len = r.usize("arena_len")?;

    // The shortest step encoding is a Relu's: tag, source tag, len, dst_offset.
    let step_count = r.len_prefix_u32(18, "step count")?;
    let mut steps = Vec::with_capacity(step_count);
    for _ in 0..step_count {
        let step = match r.u8("step tag")? {
            TAG_CONV2D => Step::Conv2d {
                spec: read_spec(&mut r)?,
                h: r.usize("conv2d h")?,
                w: r.usize("conv2d w")?,
                src: read_src(&mut r)?,
                src_len: r.usize("conv2d src_len")?,
                cols_offset: r.usize("conv2d cols_offset")?,
                cols_len: r.usize("conv2d cols_len")?,
                dst_offset: r.usize("conv2d dst_offset")?,
                dst_len: r.usize("conv2d dst_len")?,
                weight: read_range(&mut r, "conv2d weight")?,
                bias: read_range(&mut r, "conv2d bias")?,
                relu: r.u8("conv2d relu")? != 0,
            },
            TAG_CONV1X1 => Step::Conv1x1 {
                spec: read_spec(&mut r)?,
                h: r.usize("conv1x1 h")?,
                w: r.usize("conv1x1 w")?,
                src: read_src(&mut r)?,
                src_len: r.usize("conv1x1 src_len")?,
                dst_offset: r.usize("conv1x1 dst_offset")?,
                dst_len: r.usize("conv1x1 dst_len")?,
                weight: read_range(&mut r, "conv1x1 weight")?,
                bias: read_range(&mut r, "conv1x1 bias")?,
                relu: r.u8("conv1x1 relu")? != 0,
            },
            TAG_LINEAR => Step::Linear {
                in_features: r.usize("linear in_features")?,
                out_features: r.usize("linear out_features")?,
                src: read_src(&mut r)?,
                dst_offset: r.usize("linear dst_offset")?,
                weight: read_range(&mut r, "linear weight")?,
                bias: read_range(&mut r, "linear bias")?,
                relu: r.u8("linear relu")? != 0,
            },
            TAG_RELU => Step::Relu {
                src: read_src(&mut r)?,
                len: r.usize("relu len")?,
                dst_offset: r.usize("relu dst_offset")?,
            },
            TAG_MAXPOOL2D => Step::MaxPool2d {
                window: r.usize("maxpool2d window")?,
                c: r.usize("maxpool2d c")?,
                h: r.usize("maxpool2d h")?,
                w: r.usize("maxpool2d w")?,
                src: read_src(&mut r)?,
                src_len: r.usize("maxpool2d src_len")?,
                dst_offset: r.usize("maxpool2d dst_offset")?,
                dst_len: r.usize("maxpool2d dst_len")?,
            },
            tag @ (TAG_QCONV2D | TAG_QLINEAR) if version < 2 => {
                return Err(GraphError::Malformed(format!(
                    "quantized step tag {tag} in a v{version} artifact"
                )))
            }
            TAG_QCONV2D => Step::QConv2d {
                spec: read_spec(&mut r)?,
                h: r.usize("qconv2d h")?,
                w: r.usize("qconv2d w")?,
                src: read_src(&mut r)?,
                src_len: r.usize("qconv2d src_len")?,
                dst_offset: r.usize("qconv2d dst_offset")?,
                dst_len: r.usize("qconv2d dst_len")?,
                weight: read_range(&mut r, "qconv2d weight")?,
                scale: read_range(&mut r, "qconv2d scale")?,
                bias: read_range(&mut r, "qconv2d bias")?,
                relu: r.u8("qconv2d relu")? != 0,
            },
            TAG_QLINEAR => Step::QLinear {
                in_features: r.usize("qlinear in_features")?,
                out_features: r.usize("qlinear out_features")?,
                src: read_src(&mut r)?,
                dst_offset: r.usize("qlinear dst_offset")?,
                weight: read_range(&mut r, "qlinear weight")?,
                scale: read_range(&mut r, "qlinear scale")?,
                bias: read_range(&mut r, "qlinear bias")?,
                relu: r.u8("qlinear relu")? != 0,
            },
            tag => return Err(GraphError::Malformed(format!("unknown step tag {tag}"))),
        };
        steps.push(step);
    }

    let params = r.f32_vec("parameter table")?;
    // v2 quantized sections; a v1 artifact simply has none.
    let (qweights, qscales) = if version >= 2 {
        (r.i8_vec("quantized weights")?, r.f32_vec("quantized scales")?)
    } else {
        (Vec::new(), Vec::new())
    };
    r.finish("parameter tables")?;

    let mut plan = ExecPlan {
        signature,
        input,
        output,
        max_batch,
        params,
        steps,
        arena: Vec::new(),
        out_offset,
        qweights,
        qscales,
        device: None,
    };
    validate(&plan, arena_len)?;
    plan.arena = vec![0.0; arena_len];
    Ok(plan)
}

/// Semantic validation of a decoded plan, run before its arena of
/// `arena_len` floats is allocated: every arena slot, parameter range and
/// geometry a step will touch is bounds-checked against the artifact's own
/// arena/parameter tables, same-dispatch buffers are checked disjoint, and
/// `arena_len` may not exceed the sum of the regions the steps imply (each
/// destination, plus each conv's `max_batch × in_ch × k² × out_h × out_w`
/// im2col scratch, which a quantized conv no longer references but keeps in
/// the arena it inherits from its float plan). The compile-time planner only
/// grows the arena by appending such a region, so every compiled plan meets
/// the bound. Independently of the steps, the arena may not exceed the
/// [`MAX_PAYLOAD`] cap [`codec::open`] puts on the payload, so a forgery that
/// inflates `max_batch`, the slot offsets and `arena_len` consistently still
/// cannot size a multi-TiB allocation. Every size derived from the artifact's
/// fields is computed with checked arithmetic. So [`ExecPlan::run`] on a
/// loaded plan can never panic, and a lying artifact fails here with
/// [`GraphError::Malformed`] instead.
fn validate(plan: &ExecPlan, arena_len: usize) -> Result<()> {
    let mb = plan.max_batch;
    if mb == 0 {
        return Err(GraphError::Malformed("max_batch must be at least 1".into()));
    }
    let arena_cap = MAX_PAYLOAD as usize / std::mem::size_of::<f32>();
    if arena_len > arena_cap {
        return Err(GraphError::Malformed(format!(
            "arena of {arena_len} values exceeds the {arena_cap}-value cap"
        )));
    }
    // Each quantized weight replaces exactly one f32 parameter (biases stay
    // f32; scales are extra metadata), so the signature's parameter count —
    // the hot-swap identity — is conserved across quantization.
    let quantized = plan.steps.iter().any(|s| s.is_quantized());
    if quantized {
        let total = plan.params.len().checked_add(plan.qweights.len());
        if total != Some(plan.signature.param_len()) {
            return Err(GraphError::Malformed(format!(
                "parameter table ({}) plus quantized weights ({}) must equal the \
                 signature's {} parameters",
                plan.params.len(),
                plan.qweights.len(),
                plan.signature.param_len()
            )));
        }
    } else {
        if plan.params.len() != plan.signature.param_len() {
            return Err(GraphError::Malformed(format!(
                "parameter table holds {} values but the signature records {}",
                plan.params.len(),
                plan.signature.param_len()
            )));
        }
        if !plan.qweights.is_empty() || !plan.qscales.is_empty() {
            return Err(GraphError::Malformed(
                "quantized tables present but no step references them".into(),
            ));
        }
    }
    if let Some(bad) = plan.qscales.iter().find(|s| !s.is_finite() || **s <= 0.0) {
        return Err(GraphError::Malformed(format!(
            "dequantization scale {bad} is not a positive finite value"
        )));
    }
    if plan.steps.is_empty() {
        return Err(GraphError::Malformed("plan has no steps".into()));
    }
    let in_len = product("input meta", plan.input.dims())?;

    let slot = |what: &str, offset: usize, per_sample: usize| -> Result<(usize, usize)> {
        let total = per_sample
            .checked_mul(mb)
            .and_then(|n| n.checked_add(offset))
            .ok_or_else(|| GraphError::Malformed(format!("{what} slot size overflows")))?;
        if total > arena_len {
            return Err(GraphError::Malformed(format!(
                "{what} slot {offset}+{mb}*{per_sample} exceeds the arena ({arena_len})"
            )));
        }
        Ok((offset, mb * per_sample))
    };
    let table_range =
        |what: &str, table: &str, len: usize, r: &Range<usize>, expected: usize| -> Result<()> {
            if r.end > len {
                return Err(GraphError::Malformed(format!(
                    "{what} range {r:?} exceeds the {table} table ({len})"
                )));
            }
            if r.len() != expected {
                return Err(GraphError::Malformed(format!(
                    "{what} range {r:?} holds {} values, geometry implies {expected}",
                    r.len()
                )));
            }
            Ok(())
        };
    let params_range = |what: &str, r: &Range<usize>, expected: usize| -> Result<()> {
        table_range(what, "parameter", plan.params.len(), r, expected)
    };
    let qweights_range = |what: &str, r: &Range<usize>, expected: usize| -> Result<()> {
        table_range(what, "quantized-weight", plan.qweights.len(), r, expected)
    };
    let qscales_range = |what: &str, r: &Range<usize>, expected: usize| -> Result<()> {
        table_range(what, "scale", plan.qscales.len(), r, expected)
    };
    let src_slot = |what: &str, src: &Src, per_sample: usize| -> Result<Option<(usize, usize)>> {
        match src {
            Src::Input => {
                if per_sample != in_len {
                    return Err(GraphError::Malformed(format!(
                        "{what} reads {per_sample} input values per sample, input meta has {in_len}"
                    )));
                }
                Ok(None)
            }
            Src::Arena { offset } => slot(what, *offset, per_sample).map(Some),
        }
    };
    let disjoint = |what: &str, regions: &[(usize, usize)]| -> Result<()> {
        let mut sorted = regions.to_vec();
        sorted.sort_by_key(|&(off, _)| off);
        for pair in sorted.windows(2) {
            let (a_off, a_len) = pair[0];
            let (b_off, _) = pair[1];
            if a_off + a_len > b_off {
                return Err(GraphError::Malformed(format!("{what} uses overlapping arena slots")));
            }
        }
        Ok(())
    };

    // Sum of the regions the steps imply; bounds `arena_len` below.
    let mut planned = 0usize;
    for (i, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Conv2d {
                spec,
                h,
                w,
                src,
                src_len,
                cols_offset,
                cols_len,
                dst_offset,
                dst_len,
                weight,
                bias,
                ..
            } => {
                let what = format!("step {i} (conv2d)");
                let (out_h, out_w) = spec
                    .output_size(*h, *w)
                    .map_err(|e| GraphError::Malformed(format!("{what}: {e}")))?;
                if *src_len != product(&what, &[spec.in_channels, *h, *w])? {
                    return Err(GraphError::Malformed(format!("{what}: src_len mismatch")));
                }
                let cols_per_sample =
                    product(&what, &[spec.in_channels, spec.kernel, spec.kernel, out_h, out_w])?;
                if *cols_len != cols_per_sample {
                    return Err(GraphError::Malformed(format!("{what}: cols_len mismatch")));
                }
                if *dst_len != product(&what, &[spec.out_channels, out_h, out_w])? {
                    return Err(GraphError::Malformed(format!("{what}: dst_len mismatch")));
                }
                params_range(&what, weight, weight_len(&what, spec)?)?;
                params_range(&what, bias, spec.out_channels)?;
                let cols = slot(&what, *cols_offset, *cols_len)?;
                let dst = slot(&what, *dst_offset, *dst_len)?;
                planned = planned.saturating_add(cols.1).saturating_add(dst.1);
                let mut regions = vec![cols, dst];
                if let Some(r) = src_slot(&what, src, *src_len)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::Conv1x1 {
                spec, h, w, src, src_len, dst_offset, dst_len, weight, bias, ..
            } => {
                let what = format!("step {i} (conv1x1)");
                if spec.kernel != 1 || spec.stride != 1 || spec.padding != 0 {
                    return Err(GraphError::Malformed(format!(
                        "{what}: collapsed conv must be 1x1/stride-1/unpadded"
                    )));
                }
                if *src_len != product(&what, &[spec.in_channels, *h, *w])? {
                    return Err(GraphError::Malformed(format!("{what}: src_len mismatch")));
                }
                if *dst_len != product(&what, &[spec.out_channels, *h, *w])? {
                    return Err(GraphError::Malformed(format!("{what}: dst_len mismatch")));
                }
                params_range(&what, weight, weight_len(&what, spec)?)?;
                params_range(&what, bias, spec.out_channels)?;
                let dst = slot(&what, *dst_offset, *dst_len)?;
                planned = planned.saturating_add(dst.1);
                let mut regions = vec![dst];
                if let Some(r) = src_slot(&what, src, *src_len)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::Linear { in_features, out_features, src, dst_offset, weight, bias, .. } => {
                let what = format!("step {i} (linear)");
                params_range(&what, weight, product(&what, &[*in_features, *out_features])?)?;
                params_range(&what, bias, *out_features)?;
                let dst = slot(&what, *dst_offset, *out_features)?;
                planned = planned.saturating_add(dst.1);
                let mut regions = vec![dst];
                if let Some(r) = src_slot(&what, src, *in_features)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::Relu { src, len, dst_offset } => {
                let what = format!("step {i} (relu)");
                let dst = slot(&what, *dst_offset, *len)?;
                planned = planned.saturating_add(dst.1);
                let mut regions = vec![dst];
                if let Some(r) = src_slot(&what, src, *len)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::MaxPool2d { window, c, h, w, src, src_len, dst_offset, dst_len } => {
                let what = format!("step {i} (maxpool2d)");
                if *window == 0 || *h < *window || *w < *window {
                    return Err(GraphError::Malformed(format!(
                        "{what}: window {window} incompatible with input {h}x{w}"
                    )));
                }
                if *src_len != product(&what, &[*c, *h, *w])? {
                    return Err(GraphError::Malformed(format!("{what}: src_len mismatch")));
                }
                if *dst_len != product(&what, &[*c, h / window, w / window])? {
                    return Err(GraphError::Malformed(format!("{what}: dst_len mismatch")));
                }
                let dst = slot(&what, *dst_offset, *dst_len)?;
                planned = planned.saturating_add(dst.1);
                let mut regions = vec![dst];
                if let Some(r) = src_slot(&what, src, *src_len)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::QConv2d {
                spec,
                h,
                w,
                src,
                src_len,
                dst_offset,
                dst_len,
                weight,
                scale,
                bias,
                ..
            } => {
                let what = format!("step {i} (qconv2d)");
                let (out_h, out_w) = spec
                    .output_size(*h, *w)
                    .map_err(|e| GraphError::Malformed(format!("{what}: {e}")))?;
                if *src_len != product(&what, &[spec.in_channels, *h, *w])? {
                    return Err(GraphError::Malformed(format!("{what}: src_len mismatch")));
                }
                if *dst_len != product(&what, &[spec.out_channels, out_h, out_w])? {
                    return Err(GraphError::Malformed(format!("{what}: dst_len mismatch")));
                }
                qweights_range(&what, weight, weight_len(&what, spec)?)?;
                qscales_range(&what, scale, spec.out_channels)?;
                params_range(&what, bias, spec.out_channels)?;
                // The im2col scratch a float conv of this geometry reserves:
                // a quantized plan keeps its float plan's arena.
                let scratch = product(
                    &what,
                    &[spec.in_channels, spec.kernel, spec.kernel, out_h, out_w, mb],
                )?;
                planned = planned.saturating_add(scratch);
                let dst = slot(&what, *dst_offset, *dst_len)?;
                planned = planned.saturating_add(dst.1);
                let mut regions = vec![dst];
                if let Some(r) = src_slot(&what, src, *src_len)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
            Step::QLinear {
                in_features,
                out_features,
                src,
                dst_offset,
                weight,
                scale,
                bias,
                ..
            } => {
                let what = format!("step {i} (qlinear)");
                qweights_range(&what, weight, product(&what, &[*in_features, *out_features])?)?;
                qscales_range(&what, scale, *out_features)?;
                params_range(&what, bias, *out_features)?;
                let dst = slot(&what, *dst_offset, *out_features)?;
                planned = planned.saturating_add(dst.1);
                let mut regions = vec![dst];
                if let Some(r) = src_slot(&what, src, *in_features)? {
                    regions.push(r);
                }
                disjoint(&what, &regions)?;
            }
        }
    }

    slot("output", plan.out_offset, product("output meta", plan.output.dims())?)?;
    if arena_len > planned {
        return Err(GraphError::Malformed(format!(
            "arena of {arena_len} values exceeds the {planned} its steps imply"
        )));
    }
    Ok(())
}

/// The product of sizes read from an artifact, or `Malformed` when it
/// overflows.
fn product(what: &str, factors: &[usize]) -> Result<usize> {
    factors
        .iter()
        .try_fold(1usize, |acc, &f| acc.checked_mul(f))
        .ok_or_else(|| GraphError::Malformed(format!("{what}: size overflows")))
}

fn weight_len(what: &str, spec: &Conv2dSpec) -> Result<usize> {
    product(what, &[spec.out_channels, spec.in_channels, spec.kernel, spec.kernel])
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

impl ExecPlan {
    /// Serializes the plan into a self-contained `.fplan` byte buffer
    /// (header, payload, checksum — see the module docs for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::seal(FPLAN_MAGIC, FPLAN_VERSION, &encode_payload(self))
    }

    /// Deserializes a plan from `.fplan` bytes, verifying magic, version,
    /// length, checksum and full semantic consistency.
    ///
    /// # Errors
    ///
    /// [`GraphError::Codec`] when the container or its encoding is corrupt,
    /// and [`GraphError::Malformed`] when the payload describes an
    /// inconsistent plan; never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<ExecPlan> {
        let (version, payload) =
            codec::open(bytes, FPLAN_MAGIC, FPLAN_MIN_VERSION..=FPLAN_VERSION)?;
        decode_payload(payload, version)
    }

    /// Writes the plan to `path` as a `.fplan` artifact.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Io`] when the file cannot be written.
    pub fn write_plan(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        fs::write(path, self.to_bytes())
            .map_err(|e| GraphError::Io(format!("writing {}: {e}", path.display())))
    }

    /// Reads a `.fplan` artifact from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Io`] when the file cannot be read, and any
    /// [`Self::from_bytes`] error for a corrupt or incompatible artifact.
    pub fn read_plan(path: impl AsRef<Path>) -> Result<ExecPlan> {
        let path = path.as_ref();
        let bytes = fs::read(path)
            .map_err(|e| GraphError::Io(format!("reading {}: {e}", path.display())))?;
        ExecPlan::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use fuse_tensor::codec::{CodecError, HEADER_LEN, TRAILER_LEN};
    use fuse_tensor::Tensor;

    use super::*;
    use crate::graph::Graph;
    use crate::meta::TensorMeta;

    fn pooled_plan() -> ExecPlan {
        let cw = Tensor::randn(&[3, 2, 3, 3], 0.5, 71);
        let cb = Tensor::randn(&[3], 0.1, 72);
        let w = Tensor::randn(&[4, 12], 0.2, 73);
        let b = Tensor::randn(&[4], 0.1, 74);
        let mut g = Graph::new(TensorMeta::f32(&[2, 4, 4]));
        g.push_conv2d("conv", Conv2dSpec::same(2, 3, 3), cw.as_slice(), cb.as_slice()).unwrap();
        g.push_relu("relu").unwrap();
        g.push_maxpool2d("pool", 2).unwrap();
        g.push_flatten("flatten").unwrap();
        g.push_linear("fc", 12, 4, w.as_slice(), b.as_slice()).unwrap();
        g.compile(3).unwrap()
    }

    #[test]
    fn round_trip_preserves_every_field_and_every_bit() {
        let plan = pooled_plan();
        let bytes = plan.to_bytes();
        let mut loaded = ExecPlan::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.signature, plan.signature);
        assert_eq!(loaded.input, plan.input);
        assert_eq!(loaded.output, plan.output);
        assert_eq!(loaded.max_batch, plan.max_batch);
        assert_eq!(loaded.steps, plan.steps);
        assert_eq!(loaded.out_offset, plan.out_offset);
        assert_eq!(loaded.arena.len(), plan.arena.len());
        let same_bits =
            loaded.params.iter().zip(&plan.params).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same_bits, "parameters must survive bit-exactly");

        let mut original = plan;
        let input = Tensor::randn(&[3, 2, 4, 4], 1.0, 75);
        assert_eq!(
            loaded.run(input.as_slice(), 3).unwrap(),
            original.run(input.as_slice(), 3).unwrap()
        );
    }

    #[test]
    fn header_corruptions_yield_the_matching_typed_errors() {
        let bytes = pooled_plan().to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            ExecPlan::from_bytes(&bad_magic),
            Err(GraphError::Codec(CodecError::BadMagic { expected: FPLAN_MAGIC, .. }))
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(
            ExecPlan::from_bytes(&bad_version),
            Err(GraphError::Codec(CodecError::UnsupportedVersion { found: 99, supported }))
                if supported == (FPLAN_MIN_VERSION..=FPLAN_VERSION)
        ));

        assert!(matches!(
            ExecPlan::from_bytes(&bytes[..bytes.len() - 1]),
            Err(GraphError::Codec(CodecError::Truncated { .. }))
        ));
        assert!(matches!(
            ExecPlan::from_bytes(&[]),
            Err(GraphError::Codec(CodecError::Truncated { .. }))
        ));

        let mut flipped = bytes.clone();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN - TRAILER_LEN) / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            ExecPlan::from_bytes(&flipped),
            Err(GraphError::Codec(CodecError::ChecksumMismatch { .. }))
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            ExecPlan::from_bytes(&trailing),
            Err(GraphError::Codec(CodecError::Trailing { extra: 1, .. }))
        ));
    }

    /// Rebuilds a full artifact around a (possibly modified) payload,
    /// re-stamping length and checksum so payload-level corruptions reach
    /// the decoder instead of tripping the checksum.
    fn reassemble(payload: &[u8], version: u32) -> Vec<u8> {
        codec::seal(FPLAN_MAGIC, version, payload)
    }

    fn payload_of(bytes: &[u8]) -> Vec<u8> {
        bytes[HEADER_LEN..bytes.len() - TRAILER_LEN].to_vec()
    }

    /// The little-endian encoding of `words`, as the payload stores them.
    fn words(words: &[u64]) -> Vec<u8> {
        let mut w = Writer::new();
        words.iter().for_each(|&v| w.u64(v));
        w.into_bytes()
    }

    /// Offset of the `max_batch | out_offset | arena_len` words in `payload`.
    fn arena_header_at(plan: &ExecPlan, payload: &[u8]) -> usize {
        let header =
            words(&[plan.max_batch as u64, plan.out_offset as u64, plan.arena.len() as u64]);
        payload.windows(header.len()).position(|w| w == header).expect("arena header is encoded")
    }

    #[test]
    fn quantized_plan_round_trips_at_v2() {
        let plan = pooled_plan().quantize().unwrap();
        let bytes = plan.to_bytes();
        let mut loaded = ExecPlan::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.steps, plan.steps);
        assert_eq!(loaded.qweights, plan.qweights);
        let same_bits =
            loaded.qscales.iter().zip(&plan.qscales).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same_bits, "scales must survive bit-exactly");

        let mut original = plan;
        let input = Tensor::randn(&[2, 2, 4, 4], 1.0, 77);
        assert_eq!(
            loaded.run(input.as_slice(), 2).unwrap(),
            original.run(input.as_slice(), 2).unwrap(),
            "host-device execution of a loaded plan is deterministic"
        );
    }

    #[test]
    fn v1_artifacts_without_quantized_sections_still_decode() {
        let plan = pooled_plan();
        let bytes = plan.to_bytes();
        // A float plan's v2 payload ends with the two empty quantized
        // sections (8-byte zero counts each); stripping them yields the
        // exact v1 payload layout.
        let payload = payload_of(&bytes);
        assert_eq!(&payload[payload.len() - 16..], &[0u8; 16]);
        let v1 = reassemble(&payload[..payload.len() - 16], 1);
        let mut loaded = ExecPlan::from_bytes(&v1).unwrap();
        let input = Tensor::randn(&[1, 2, 4, 4], 1.0, 78);
        let mut original = plan;
        assert_eq!(
            loaded.run(input.as_slice(), 1).unwrap(),
            original.run(input.as_slice(), 1).unwrap()
        );
    }

    #[test]
    fn quantized_tags_in_a_v1_artifact_are_malformed() {
        let plan = pooled_plan().quantize().unwrap();
        let payload = payload_of(&plan.to_bytes());
        let v1 = reassemble(&payload, 1);
        assert!(matches!(ExecPlan::from_bytes(&v1), Err(GraphError::Malformed(_))));
    }

    #[test]
    fn inflated_arena_len_is_malformed_before_allocating() {
        // A forged 2^44-float arena with a valid checksum: allocating it would
        // abort the process, so decoding must refuse it first.
        let plan = pooled_plan();
        let mut payload = payload_of(&plan.to_bytes());
        let at = arena_header_at(&plan, &payload) + 16;
        payload[at..at + 8].copy_from_slice(&words(&[1 << 44]));
        let forged = reassemble(&payload, FPLAN_VERSION);
        match ExecPlan::from_bytes(&forged) {
            Err(GraphError::Malformed(msg)) => assert!(msg.contains("arena"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        // The bound is the sum of the regions the steps imply, max_batch 3 ×
        // (im2col 288 + conv with fused ReLU 48 + pool 12 + linear 4) = 1056:
        // the bound itself loads, one float past it is refused.
        let mut with_arena = |len: u64| {
            payload[at..at + 8].copy_from_slice(&words(&[len]));
            ExecPlan::from_bytes(&reassemble(&payload, FPLAN_VERSION))
        };
        assert_eq!(with_arena(1056).unwrap().arena_len(), 1056);
        assert!(matches!(with_arena(1057), Err(GraphError::Malformed(_))));
    }

    #[test]
    fn forged_max_batch_is_malformed_before_allocating() {
        // A consistent forgery: max_batch, every slot offset and arena_len
        // scaled together by 2^38 (max_batch ≈ 8.2e11, arena ≈ 1.1 PiB), with
        // the checksum re-sealed. Every slot still fits its arena and the
        // arena still equals what the steps imply; only the size cap stands
        // between this artifact and the allocation.
        let scale = 1usize << 38;
        let mut plan = pooled_plan();
        let arena_len = plan.arena.len() * scale;
        let scale_src = |src: &mut Src| {
            if let Src::Arena { offset } = src {
                *offset *= scale;
            }
        };
        for step in &mut plan.steps {
            match step {
                Step::Conv2d { src, cols_offset, dst_offset, .. } => {
                    scale_src(src);
                    *cols_offset *= scale;
                    *dst_offset *= scale;
                }
                Step::MaxPool2d { src, dst_offset, .. } | Step::Linear { src, dst_offset, .. } => {
                    scale_src(src);
                    *dst_offset *= scale;
                }
                other => panic!("pooled_plan has no {other:?} step"),
            }
        }
        plan.max_batch *= scale;
        plan.out_offset *= scale;
        let mut payload = encode_payload(&plan);
        let at = arena_header_at(&plan, &payload) + 16;
        payload[at..at + 8].copy_from_slice(&words(&[arena_len as u64]));
        match ExecPlan::from_bytes(&reassemble(&payload, FPLAN_VERSION)) {
            Err(GraphError::Malformed(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_scale_table_is_a_typed_truncation() {
        let plan = pooled_plan().quantize().unwrap();
        let payload = payload_of(&plan.to_bytes());
        // Cut into the trailing scale table: the count no longer fits.
        let cut = reassemble(&payload[..payload.len() - 2], FPLAN_VERSION);
        assert!(matches!(
            ExecPlan::from_bytes(&cut),
            Err(GraphError::Codec(CodecError::Truncated { what: "quantized scales", .. }))
        ));
    }

    #[test]
    fn non_positive_or_non_finite_scales_are_malformed() {
        let plan = pooled_plan().quantize().unwrap();
        let bytes = plan.to_bytes();
        for bad in [f32::NAN, 0.0, -1.0] {
            let mut payload = payload_of(&bytes);
            let n = payload.len();
            let mut w = Writer::new();
            w.f32(bad);
            payload[n - 4..].copy_from_slice(&w.into_bytes());
            let forged = reassemble(&payload, FPLAN_VERSION);
            match ExecPlan::from_bytes(&forged) {
                Err(GraphError::Malformed(msg)) => {
                    assert!(msg.contains("positive finite"), "unexpected message: {msg}")
                }
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn versions_outside_the_supported_range_are_rejected() {
        let payload = payload_of(&pooled_plan().to_bytes());
        for bad in [0u32, FPLAN_VERSION + 1, 99] {
            assert!(matches!(
                ExecPlan::from_bytes(&reassemble(&payload, bad)),
                Err(GraphError::Codec(CodecError::UnsupportedVersion { found, supported }))
                    if found == bad && supported == (FPLAN_MIN_VERSION..=FPLAN_VERSION)
            ));
        }
    }

    #[test]
    fn write_and_read_plan_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("fuse_graph_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.fplan");
        let plan = pooled_plan();
        plan.write_plan(&path).unwrap();
        let mut loaded = ExecPlan::read_plan(&path).unwrap();
        let input = Tensor::randn(&[1, 2, 4, 4], 1.0, 76);
        let mut original = plan;
        assert_eq!(
            loaded.run(input.as_slice(), 1).unwrap(),
            original.run(input.as_slice(), 1).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(ExecPlan::read_plan(&path), Err(GraphError::Io(_))));
    }
}
