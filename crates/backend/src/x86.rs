//! x86_64 `std::arch` kernels (AVX2 and SSE lane widths, plus the opt-in
//! AVX2+FMA relaxed level).
//!
//! The **exact-contract** levels (`avx2`, `sse`) vectorise **across
//! independent output elements** and perform each lane's arithmetic as a
//! separate IEEE-754 multiply followed by a separate add (`mul_ps` +
//! `add_ps`, never FMA — a fused multiply-add skips the intermediate
//! rounding and would change bits). Because each output element still sees
//! exactly the scalar reference's operation sequence, results are
//! bit-identical to [`crate::scalar`] by construction; see
//! `REPRODUCIBILITY.md`.
//!
//! The `avx2fma` level is stamped from the same macro with the multiply-add
//! helper swapped for `_mm256_fmadd_ps`: one fused rounding per term instead
//! of two. That **breaks bit-identity on purpose** — it is only reachable
//! through the relaxed contract mode ([`crate::ContractMode::Relaxed`]) and
//! is compared against goldens by tolerance, never by bits.
//!
//! The submodules are stamped from one macro and differ only in lane width,
//! intrinsic set and multiply-add composition: `avx2` (8 lanes, runtime AVX2
//! detection), `sse` (4 lanes, part of the x86_64 baseline ABI) and
//! `avx2fma` (8 lanes, runtime AVX2+FMA detection, fused).

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::{
    __m128, __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_mul_ps, _mm_add_ps, _mm_mul_ps,
};

/// `a*b + c` with two separate IEEE-754 roundings — the exact-contract
/// composition (256-bit lanes).
///
/// # Safety
///
/// Caller must ensure AVX is available (guaranteed inside the `avx2`
/// module's `#[target_feature]` kernels).
#[inline(always)]
unsafe fn mul_then_add_256(a: __m256, b: __m256, c: __m256) -> __m256 {
    _mm256_add_ps(_mm256_mul_ps(a, b), c)
}

/// `a*b + c` with two separate roundings (128-bit lanes).
///
/// # Safety
///
/// Caller must ensure SSE is available (baseline on x86_64).
#[inline(always)]
unsafe fn mul_then_add_128(a: __m128, b: __m128, c: __m128) -> __m128 {
    _mm_add_ps(_mm_mul_ps(a, b), c)
}

/// `a*b + c` fused into a single rounding — the relaxed-contract
/// composition. Bit-*different* from [`mul_then_add_256`] whenever the
/// intermediate product is inexact.
///
/// # Safety
///
/// Caller must ensure FMA is available (guaranteed inside the `avx2fma`
/// module's `#[target_feature]` kernels).
#[inline(always)]
unsafe fn fused_mul_add_256(a: __m256, b: __m256, c: __m256) -> __m256 {
    _mm256_fmadd_ps(a, b, c)
}

macro_rules! simd_level {
    ($name:ident, $feature:literal, $lanes:literal,
     $load:ident, $store:ident, $set1:ident, $mul:ident, $add:ident, $muladd:ident) => {
        pub(crate) mod $name {
            use std::arch::x86_64::*;

            /// `y += alpha * x`.
            ///
            /// # Safety
            ///
            /// The caller must ensure the CPU supports the module's target
            /// feature (checked once at [`crate::SimdBackend`] construction).
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
                debug_assert!(x.len() >= y.len(), "axpy operand shorter than output");
                let n = y.len();
                let va = $set1(alpha);
                let mut j = 0;
                while j + $lanes <= n {
                    let vx = $load(x.as_ptr().add(j));
                    let vy = $load(y.as_ptr().add(j));
                    $store(y.as_mut_ptr().add(j), super::$muladd(va, vx, vy));
                    j += $lanes;
                }
                while j < n {
                    y[j] += alpha * x[j];
                    j += 1;
                }
            }

            /// `y += x`.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn add_assign(y: &mut [f32], x: &[f32]) {
                debug_assert!(x.len() >= y.len(), "add_assign operand shorter than output");
                let n = y.len();
                let mut j = 0;
                while j + $lanes <= n {
                    let vx = $load(x.as_ptr().add(j));
                    let vy = $load(y.as_ptr().add(j));
                    $store(y.as_mut_ptr().add(j), $add(vy, vx));
                    j += $lanes;
                }
                while j < n {
                    y[j] += x[j];
                    j += 1;
                }
            }

            /// `data *= s`.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn scale_assign(data: &mut [f32], s: f32) {
                let n = data.len();
                let vs = $set1(s);
                let mut j = 0;
                while j + $lanes <= n {
                    let v = $load(data.as_ptr().add(j));
                    $store(data.as_mut_ptr().add(j), $mul(v, vs));
                    j += $lanes;
                }
                while j < n {
                    data[j] *= s;
                    j += 1;
                }
            }

            /// `data += s` (bias broadcast).
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn add_scalar_assign(data: &mut [f32], s: f32) {
                let n = data.len();
                let vs = $set1(s);
                let mut j = 0;
                while j + $lanes <= n {
                    let v = $load(data.as_ptr().add(j));
                    $store(data.as_mut_ptr().add(j), $add(v, vs));
                    j += $lanes;
                }
                while j < n {
                    data[j] += s;
                    j += 1;
                }
            }

            /// Per-row GEMM kernel: `out_row (+)= a_row · b`. The `p` loop and
            /// the zero-skip mirror the scalar reference exactly; only the
            /// independent `j` lanes are processed `$lanes` at a time.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn gemm_row(
                a_row: &[f32],
                b: &[f32],
                out_row: &mut [f32],
                accumulate: bool,
            ) {
                let n = out_row.len();
                if !accumulate {
                    out_row.fill(0.0);
                }
                for (p, &a_ip) in a_row.iter().enumerate() {
                    if a_ip == 0.0 {
                        continue;
                    }
                    axpy(a_ip, &b[p * n..(p + 1) * n], out_row);
                }
            }

            /// Register-blocked block kernel of `out (+)= a·b`: four output
            /// rows per pass, each keeping one vector accumulator per
            /// `$lanes`-wide column tile. Reuses every `b` row load across
            /// the four rows (the axpy-per-row kernel reloads `b` for each
            /// output row, which leaves it cache-bandwidth-bound) and keeps
            /// partial sums in registers instead of round-tripping
            /// `out_row` through memory once per `p`.
            ///
            /// Bit-identity: each output element still accumulates its
            /// `a[i][p] * b[p][j]` terms in `p`-ascending order with the
            /// reference's exact zero-skip (`a[i][p] == 0.0` contributes
            /// nothing, applied per row), so the value stream per element is
            /// unchanged — only *when* independent elements are computed
            /// moves.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn gemm_rows(
                a_rows: &[f32],
                b: &[f32],
                out_rows: &mut [f32],
                k: usize,
                n: usize,
                accumulate: bool,
            ) {
                const R: usize = 4;
                let rows = out_rows.len() / n;
                debug_assert!(a_rows.len() >= rows * k, "lhs block shorter than output rows");
                debug_assert!(b.len() >= k * n, "rhs shorter than [k x n]");
                let mut r = 0;
                while r + R <= rows {
                    let mut j = 0;
                    // Wide tiles first: 2 vectors per row amortise the
                    // per-(row, p) scalar broadcast and zero-test over twice
                    // the lanes.
                    while j + 2 * $lanes <= n {
                        // Freshly derived per tile so the raw accesses never
                        // interleave with the slice accesses below.
                        let out = out_rows.as_mut_ptr();
                        let mut acc = [[$set1(0.0); 2]; R];
                        if accumulate {
                            for (i, a) in acc.iter_mut().enumerate() {
                                a[0] = $load(out.add((r + i) * n + j));
                                a[1] = $load(out.add((r + i) * n + j + $lanes));
                            }
                        }
                        for p in 0..k {
                            let vb0 = $load(b.as_ptr().add(p * n + j));
                            let vb1 = $load(b.as_ptr().add(p * n + j + $lanes));
                            for (i, a) in acc.iter_mut().enumerate() {
                                let a_ip = a_rows[(r + i) * k + p];
                                if a_ip != 0.0 {
                                    let va = $set1(a_ip);
                                    a[0] = super::$muladd(va, vb0, a[0]);
                                    a[1] = super::$muladd(va, vb1, a[1]);
                                }
                            }
                        }
                        for (i, a) in acc.iter().enumerate() {
                            $store(out.add((r + i) * n + j), a[0]);
                            $store(out.add((r + i) * n + j + $lanes), a[1]);
                        }
                        j += 2 * $lanes;
                    }
                    while j + $lanes <= n {
                        let out = out_rows.as_mut_ptr();
                        let mut acc = [$set1(0.0); R];
                        if accumulate {
                            for (i, a) in acc.iter_mut().enumerate() {
                                *a = $load(out.add((r + i) * n + j));
                            }
                        }
                        for p in 0..k {
                            let vb = $load(b.as_ptr().add(p * n + j));
                            for (i, a) in acc.iter_mut().enumerate() {
                                let a_ip = a_rows[(r + i) * k + p];
                                if a_ip != 0.0 {
                                    *a = super::$muladd($set1(a_ip), vb, *a);
                                }
                            }
                        }
                        for (i, a) in acc.iter().enumerate() {
                            $store(out.add((r + i) * n + j), *a);
                        }
                        j += $lanes;
                    }
                    // Remainder columns of this row block: the scalar
                    // reference per element (same order, same zero-skip).
                    for i in 0..R {
                        for jj in j..n {
                            let mut o = if accumulate { out_rows[(r + i) * n + jj] } else { 0.0 };
                            for p in 0..k {
                                let a_ip = a_rows[(r + i) * k + p];
                                if a_ip != 0.0 {
                                    o += a_ip * b[p * n + jj];
                                }
                            }
                            out_rows[(r + i) * n + jj] = o;
                        }
                    }
                    r += R;
                }
                // Remaining rows: the vectorised single-row kernel.
                while r < rows {
                    gemm_row(
                        &a_rows[r * k..(r + 1) * k],
                        b,
                        &mut out_rows[r * n..(r + 1) * n],
                        accumulate,
                    );
                    r += 1;
                }
            }

            /// Band kernel of `out = aᵀ·b` (see the scalar reference for the
            /// layout). Accumulation stays `p`-ascending per output element.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn gemm_at_b_band(
                a: &[f32],
                b: &[f32],
                out_band: &mut [f32],
                row0: usize,
                m: usize,
                n: usize,
            ) {
                out_band.fill(0.0);
                let a_rows = a.chunks_exact(m);
                let b_rows = b.chunks_exact(n);
                debug_assert_eq!(a_rows.len(), b_rows.len(), "operands disagree on k");
                for (a_row, b_row) in a_rows.zip(b_rows) {
                    for (i, out_row) in out_band.chunks_exact_mut(n).enumerate() {
                        let a_pi = a_row[row0 + i];
                        if a_pi == 0.0 {
                            continue;
                        }
                        axpy(a_pi, b_row, out_row);
                    }
                }
            }
        }
    };
}

simd_level!(
    avx2,
    "avx2",
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps,
    mul_then_add_256
);
simd_level!(
    sse,
    "sse2",
    4,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_set1_ps,
    _mm_mul_ps,
    _mm_add_ps,
    mul_then_add_128
);
// The relaxed level: identical loop structure, fused multiply-add. Only
// dispatched through `ContractMode::Relaxed` (see `crate::FmaBackend`).
simd_level!(
    avx2fma,
    "avx2,fma",
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps,
    fused_mul_add_256
);

/// Stamps the batch-row kernel of `out = a·bᵀ` for one exact-contract level.
/// The relaxed level has no copy: its backend keeps a per-row loop.
macro_rules! batch_level {
    ($name:ident, $feature:literal, $lanes:literal,
     $load:ident, $store:ident, $set1:ident, $mul:ident, $add:ident) => {
        pub(crate) mod $name {
            use std::arch::x86_64::*;

            /// Depth of one k-block of the [`gemm_a_bt_rows`] tile.
            const KB: usize = 256;
            /// Rows per [`gemm_a_bt_rows`] tile: two vectors of batch rows.
            const TW: usize = 2 * $lanes;

            /// Batch kernel of `out = a·bᵀ` (`b` stored `[n x k]`),
            /// vectorised **across batch rows**: a `KB`-deep block of up to
            /// `TW` rows of `a` is transposed into a stack tile, then the
            /// weight rows are swept four at a time, each weight broadcast
            /// against every row of the tile. A weight is loaded once per
            /// `TW` rows instead of once per row.
            ///
            /// Bit-identity: each lane keeps one output element's running
            /// sum, starting from `0.0` and adding `a[i][p] * b[j][p]` (a
            /// separate multiply, then add) in `p`-ascending order, with no
            /// zero-skip — the scalar `gemm_a_bt_row` sequence. Between
            /// k-blocks the partial sums wait in `out_rows`; an `f32` store
            /// and reload is exact.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn gemm_a_bt_rows(
                a_rows: &[f32],
                b: &[f32],
                out_rows: &mut [f32],
                k: usize,
                n: usize,
            ) {
                let rows = out_rows.len() / n;
                assert!(a_rows.len() >= rows * k, "lhs block shorter than output rows");
                assert!(b.len() >= n * k, "rhs shorter than [n x k]");
                let mut tile = [0.0f32; KB * TW];
                let mut r0 = 0;
                while r0 < rows {
                    let rs = (rows - r0).min(TW);
                    let mut p0 = 0;
                    while p0 < k {
                        let kb = (k - p0).min(KB);
                        for r in 0..rs {
                            let src = &a_rows[(r0 + r) * k + p0..][..kb];
                            for (p, &x) in src.iter().enumerate() {
                                tile[p * TW + r] = x;
                            }
                        }
                        let blk = Block { tile: &tile, k, n, p0, kb, r0, rs };
                        // Rows past `rs` hold stale tile values; their lanes
                        // are computed but never stored.
                        if rs > $lanes {
                            a_bt_panel::<2>(&blk, b, out_rows);
                        } else {
                            a_bt_panel::<1>(&blk, b, out_rows);
                        }
                        p0 += kb;
                    }
                    r0 += rs;
                }
            }

            /// One transposed tile of [`gemm_a_bt_rows`]: `kb` values of
            /// rows `r0..r0 + rs` starting at depth `p0`, `TW` floats per
            /// depth step.
            struct Block<'t> {
                tile: &'t [f32; KB * TW],
                k: usize,
                n: usize,
                p0: usize,
                kb: usize,
                r0: usize,
                rs: usize,
            }

            /// Sweeps every weight row over one tile, four at a time, using
            /// `V` vectors of rows.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available,
            /// `b.len() >= n * k` and `V * $lanes <= TW`.
            #[target_feature(enable = $feature)]
            unsafe fn a_bt_panel<const V: usize>(blk: &Block, b: &[f32], out: &mut [f32]) {
                let mut j = 0;
                while j + 4 <= blk.n {
                    a_bt_cols::<V, 4>(blk, b, out, j);
                    j += 4;
                }
                while j < blk.n {
                    a_bt_cols::<V, 1>(blk, b, out, j);
                    j += 1;
                }
            }

            /// Output columns `j..j + J` of one tile: `J × V` vector
            /// accumulators, seeded with `0.0` on the first k-block and with
            /// the partial sums in `out` after it.
            ///
            /// # Safety
            ///
            /// Caller must ensure the module's target feature is available,
            /// `b.len() >= n * k`, `j + J <= n` and `V * $lanes <= TW`.
            #[target_feature(enable = $feature)]
            #[inline]
            unsafe fn a_bt_cols<const V: usize, const J: usize>(
                blk: &Block,
                b: &[f32],
                out: &mut [f32],
                j: usize,
            ) {
                let &Block { tile, k, n, p0, kb, r0, rs } = blk;
                let mut acc = [[$set1(0.0); V]; J];
                if p0 > 0 {
                    for (q, aq) in acc.iter_mut().enumerate() {
                        let mut col = [0.0f32; TW];
                        for (r, c) in col[..rs].iter_mut().enumerate() {
                            *c = out[(r0 + r) * n + j + q];
                        }
                        for (v, a) in aq.iter_mut().enumerate() {
                            *a = $load(col.as_ptr().add(v * $lanes));
                        }
                    }
                }
                // In bounds: weight rows `j + q < n` and depths
                // `p0 + p < k` index inside `b`'s `n * k`; a tile vector
                // at `p * TW + v * $lanes` ends by `kb * TW <= KB * TW`.
                let t = tile.as_ptr();
                let w = b.as_ptr().add(j * k + p0);
                for p in 0..kb {
                    let mut x = [$set1(0.0); V];
                    for (v, xv) in x.iter_mut().enumerate() {
                        *xv = $load(t.add(p * TW + v * $lanes));
                    }
                    for (q, aq) in acc.iter_mut().enumerate() {
                        let wq = $set1(*w.add(q * k + p));
                        for (a, &xv) in aq.iter_mut().zip(&x) {
                            *a = $add(*a, $mul(xv, wq));
                        }
                    }
                }
                for (q, aq) in acc.iter().enumerate() {
                    let mut col = [0.0f32; TW];
                    for (v, a) in aq.iter().enumerate() {
                        $store(col.as_mut_ptr().add(v * $lanes), *a);
                    }
                    for (r, &c) in col[..rs].iter().enumerate() {
                        out[(r0 + r) * n + j + q] = c;
                    }
                }
            }
        }
    };
}

/// The batch-row kernels of `out = a·bᵀ`, one module per exact level.
pub(crate) mod batch {
    batch_level!(
        avx2,
        "avx2",
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_mul_ps,
        _mm256_add_ps
    );
    batch_level!(sse, "sse2", 4, _mm_loadu_ps, _mm_storeu_ps, _mm_set1_ps, _mm_mul_ps, _mm_add_ps);
}
