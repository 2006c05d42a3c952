//! Runtime-dispatched SIMD micro-kernels for the dense backends.
//!
//! All three GEMM variants reduce to one broadcast-multiply-accumulate
//! pattern over a row-major right-hand side:
//!
//! ```text
//! out[r][j] = Σ_p  lhs(r, p) · rhs[p·n + j]      (p ascending)
//! ```
//!
//! - `gemm`:            `lhs(r, p) = a[r·k + p]`   (row stride `k`, p stride 1)
//! - `transpose_gemm`:  `lhs(c, p) = a[p·m + c]`   (row stride 1, p stride `m`)
//! - `gemm_transpose`:  after packing `Bᵀ` with [`pack_transpose`], identical
//!   to `gemm` — which is how it stops paying a strided load per multiply.
//!
//! [`broadcast_gemm`] implements that pattern with register-blocked AVX2 or
//! SSE2 micro-kernels (4 output rows × 16/8 columns held in accumulator
//! registers, the lhs element broadcast across lanes) selected by runtime
//! feature detection, with a scalar fallback.
//!
//! # Bit-identity
//!
//! Every kernel in this module is **bit-identical** to the scalar
//! [`Reference`](crate::backend::Reference) loops, by construction:
//!
//! - each output element is owned by exactly one SIMD lane and accumulated
//!   by a single chain of `add(acc, mul(av, bv))` in ascending `p` — the
//!   same IEEE operations in the same order as the scalar loop;
//! - multiply and add are issued as *separate* instructions, never fused:
//!   an FMA keeps the infinitely-precise product and would round
//!   differently from the reference;
//! - cache blocking over `p` stores and reloads the f32 accumulators
//!   between blocks, which is exact;
//! - tails (row, column, and depth) fall to narrower kernels or scalar
//!   loops that preserve the per-element accumulation order.
//!
//! NaN and Inf follow from the same construction: the lanewise vector ops
//! have the same IEEE special-value semantics as their scalar forms (x86
//! scalar f32 math is SSE anyway), so specials propagate bit-identically.
//!
//! # Selection
//!
//! The level is detected once and cached. `SILOFUSE_SIMD` overrides it:
//! `0`/`off`/`scalar` force the scalar fallback (the CI matrix uses this),
//! `sse2` caps at SSE2, `avx2`/`auto`/unset pick the best the host has.

use std::ops::Range;
use std::sync::OnceLock;

/// Instruction-set level the kernels in this module will use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Plain scalar loops (also the non-x86_64 path).
    Scalar,
    /// 128-bit SSE2 kernels (baseline on x86_64).
    Sse2,
    /// 256-bit AVX2 kernels.
    Avx2,
}

impl SimdLevel {
    /// Level name for telemetry and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Best level the host supports at runtime.
fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// The active SIMD level: host capability capped by `SILOFUSE_SIMD`
/// (`0`/`off`/`scalar` → scalar, `sse2` → at most SSE2, anything else →
/// best available). Detected once and cached for the process lifetime.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let cap = match std::env::var("SILOFUSE_SIMD") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "0" | "off" | "scalar" | "none" => SimdLevel::Scalar,
                "sse" | "sse2" => SimdLevel::Sse2,
                _ => SimdLevel::Avx2,
            },
            Err(_) => SimdLevel::Avx2,
        };
        detect().min(cap)
    })
}

/// Whether the F16C conversion instructions may be used for bulk f16
/// rounding. Honors the `SILOFUSE_SIMD` scalar override so the forced-
/// scalar CI leg exercises the software converter.
#[cfg(target_arch = "x86_64")]
pub fn f16c_enabled() -> bool {
    static F16C: OnceLock<bool> = OnceLock::new();
    *F16C
        .get_or_init(|| level() != SimdLevel::Scalar && std::arch::is_x86_feature_detected!("f16c"))
}

/// k-dimension cache-block size: accumulators stay in registers for a full
/// block; a `KC×n` panel of `rhs` stays hot while a tile of lhs rows
/// streams over it. Exact regardless of value (see module docs).
const KC: usize = 256;

/// `out_block[local·n + j] = Σ_p lhs[r·lrs + p·lps] · rhs[p·n + j]` for the
/// absolute row indices `r` in `rows` (`local` is the index within the
/// range), `p` in `0..depth` ascending. `out_block` is fully overwritten.
///
/// Bit-identical to the scalar reference loops at every level; see the
/// module docs for why.
#[allow(clippy::too_many_arguments)]
pub fn broadcast_gemm(
    rows: Range<usize>,
    depth: usize,
    n: usize,
    lhs: &[f32],
    lrs: usize,
    lps: usize,
    rhs: &[f32],
    out_block: &mut [f32],
) {
    debug_assert!(out_block.len() >= rows.len() * n);
    debug_assert!(depth == 0 || rhs.len() >= depth * n);
    debug_assert!(
        rows.is_empty() || depth == 0 || lhs.len() > (rows.end - 1) * lrs + (depth - 1) * lps
    );
    #[cfg(target_arch = "x86_64")]
    match level() {
        // SAFETY: gated on runtime feature detection.
        SimdLevel::Avx2 => unsafe {
            x86::broadcast_gemm_avx2(rows, depth, n, lhs, lrs, lps, rhs, out_block)
        },
        // SAFETY: SSE2 is part of the x86_64 baseline.
        SimdLevel::Sse2 => unsafe {
            x86::broadcast_gemm_sse2(rows, depth, n, lhs, lrs, lps, rhs, out_block)
        },
        SimdLevel::Scalar => scalar_broadcast_gemm(rows, depth, n, lhs, lrs, lps, rhs, out_block),
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_broadcast_gemm(rows, depth, n, lhs, lrs, lps, rhs, out_block)
}

/// Packs `src` (a `rows×cols` row-major matrix) transposed into `dst`
/// (`cols×rows` row-major): `dst[c·rows + r] = src[r·cols + c]`. Blocked
/// so both sides stream through cache lines; pure data movement, so it
/// cannot affect numerics.
pub fn pack_transpose(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    debug_assert!(src.len() >= rows * cols);
    debug_assert!(dst.len() >= rows * cols);
    const TILE: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// `y[i] += alpha · x[i]` (separate mul and add — bit-identical to scalar).
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: gated on runtime feature detection.
        unsafe { x86::axpy_avx2(alpha, x, y) };
        return;
    }
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `y[i] *= alpha` (bit-identical to scalar).
pub fn scale(alpha: f32, y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: gated on runtime feature detection.
        unsafe { x86::scale_avx2(alpha, y) };
        return;
    }
    for v in y.iter_mut() {
        *v *= alpha;
    }
}

/// GELU forward, `out[i] = gelu(x[i])`, with `t[i] = tanh(inner(x[i]))`
/// when `t` is given. The AVX2 and SSE2 levels run the branch-free lane
/// form of [`crate::gelu`], the scalar level its scalar oracle; all three
/// are bit-identical.
pub fn gelu(x: &[f32], out: &mut [f32], t: Option<&mut [f32]>) {
    #[cfg(target_arch = "x86_64")]
    match level() {
        // SAFETY: gated on runtime feature detection.
        SimdLevel::Avx2 => unsafe { x86::gelu_avx2(x, out, t) },
        SimdLevel::Sse2 => crate::gelu::forward_lanes(x, out, t),
        SimdLevel::Scalar => crate::gelu::forward_scalar(x, out, t),
    }
    #[cfg(not(target_arch = "x86_64"))]
    crate::gelu::forward_lanes(x, out, t)
}

/// GELU backward from the forward's `tanh` values:
/// `dx[i] = g[i] · gelu'(x[i])` (bit-identical at every level).
pub fn gelu_backward(x: &[f32], t: &[f32], g: &[f32], dx: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: gated on runtime feature detection.
        unsafe { x86::gelu_backward_avx2(x, t, g, dx) };
        return;
    }
    crate::gelu::backward_lanes(x, t, g, dx)
}

/// Scalar fallback with the identical per-element accumulation order.
#[allow(clippy::too_many_arguments)]
fn scalar_broadcast_gemm(
    rows: Range<usize>,
    depth: usize,
    n: usize,
    lhs: &[f32],
    lrs: usize,
    lps: usize,
    rhs: &[f32],
    out_block: &mut [f32],
) {
    out_block[..rows.len() * n].fill(0.0);
    let mut p0 = 0;
    while p0 < depth {
        let p1 = (p0 + KC).min(depth);
        for (local, r) in rows.clone().enumerate() {
            let out_row = &mut out_block[local * n..(local + 1) * n];
            for p in p0..p1 {
                let av = lhs[r * lrs + p * lps];
                let b_row = &rhs[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        p0 = p1;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::KC;
    use core::arch::x86_64::*;
    use std::ops::Range;

    /// Generates the register-blocked micro-kernel family for one vector
    /// width. Structure (identical for AVX2/SSE2, differing in lane count):
    /// k-blocks of [`KC`] → 4-row tiles (then 1-row tail) → column tiles of
    /// two vectors (then one, then scalar). Accumulators live in registers
    /// for a whole k-block and are stored/reloaded between blocks (exact).
    macro_rules! broadcast_gemm_impl {
        (
            $fn_name:ident, $tile4:ident, $tile1:ident, $feature:literal,
            $vec:ty, $lanes:expr, $load:ident, $store:ident, $set1:ident,
            $add:ident, $mul:ident
        ) => {
            /// See [`super::broadcast_gemm`]; caller must have verified the
            /// instruction-set feature at runtime.
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            pub(super) unsafe fn $fn_name(
                rows: Range<usize>,
                depth: usize,
                n: usize,
                lhs: &[f32],
                lrs: usize,
                lps: usize,
                rhs: &[f32],
                out_block: &mut [f32],
            ) {
                let nrows = rows.len();
                out_block[..nrows * n].fill(0.0);
                let r0 = rows.start;
                let mut p0 = 0usize;
                while p0 < depth {
                    let p1 = (p0 + KC).min(depth);
                    let mut i = 0usize;
                    while i + 4 <= nrows {
                        $tile4(r0 + i, p0, p1, n, lhs, lrs, lps, rhs, &mut out_block[i * n..]);
                        i += 4;
                    }
                    while i < nrows {
                        $tile1(r0 + i, p0, p1, n, lhs, lrs, lps, rhs, &mut out_block[i * n..]);
                        i += 1;
                    }
                    p0 = p1;
                }
            }

            /// 4 output rows × (2·lanes → lanes → scalar) columns for one
            /// k-block, accumulating on top of `out` (absolute lhs row `r`).
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $tile4(
                r: usize,
                p0: usize,
                p1: usize,
                n: usize,
                lhs: &[f32],
                lrs: usize,
                lps: usize,
                rhs: &[f32],
                out: &mut [f32],
            ) {
                const L: usize = $lanes;
                let lp = lhs.as_ptr();
                let bp = rhs.as_ptr();
                let op = out.as_mut_ptr();
                let mut j = 0usize;
                while j + 2 * L <= n {
                    let (o0, o1, o2, o3) =
                        (op.add(j), op.add(n + j), op.add(2 * n + j), op.add(3 * n + j));
                    let mut a00 = $load(o0);
                    let mut a01 = $load(o0.add(L));
                    let mut a10 = $load(o1);
                    let mut a11 = $load(o1.add(L));
                    let mut a20 = $load(o2);
                    let mut a21 = $load(o2.add(L));
                    let mut a30 = $load(o3);
                    let mut a31 = $load(o3.add(L));
                    for p in p0..p1 {
                        let b = bp.add(p * n + j);
                        let b0 = $load(b);
                        let b1 = $load(b.add(L));
                        let l = lp.add(p * lps);
                        let v0 = $set1(*l.add(r * lrs));
                        a00 = $add(a00, $mul(v0, b0));
                        a01 = $add(a01, $mul(v0, b1));
                        let v1 = $set1(*l.add((r + 1) * lrs));
                        a10 = $add(a10, $mul(v1, b0));
                        a11 = $add(a11, $mul(v1, b1));
                        let v2 = $set1(*l.add((r + 2) * lrs));
                        a20 = $add(a20, $mul(v2, b0));
                        a21 = $add(a21, $mul(v2, b1));
                        let v3 = $set1(*l.add((r + 3) * lrs));
                        a30 = $add(a30, $mul(v3, b0));
                        a31 = $add(a31, $mul(v3, b1));
                    }
                    $store(o0, a00);
                    $store(o0.add(L), a01);
                    $store(o1, a10);
                    $store(o1.add(L), a11);
                    $store(o2, a20);
                    $store(o2.add(L), a21);
                    $store(o3, a30);
                    $store(o3.add(L), a31);
                    j += 2 * L;
                }
                while j + L <= n {
                    let (o0, o1, o2, o3) =
                        (op.add(j), op.add(n + j), op.add(2 * n + j), op.add(3 * n + j));
                    let mut a0 = $load(o0);
                    let mut a1 = $load(o1);
                    let mut a2 = $load(o2);
                    let mut a3 = $load(o3);
                    for p in p0..p1 {
                        let b0 = $load(bp.add(p * n + j));
                        let l = lp.add(p * lps);
                        a0 = $add(a0, $mul($set1(*l.add(r * lrs)), b0));
                        a1 = $add(a1, $mul($set1(*l.add((r + 1) * lrs)), b0));
                        a2 = $add(a2, $mul($set1(*l.add((r + 2) * lrs)), b0));
                        a3 = $add(a3, $mul($set1(*l.add((r + 3) * lrs)), b0));
                    }
                    $store(o0, a0);
                    $store(o1, a1);
                    $store(o2, a2);
                    $store(o3, a3);
                    j += L;
                }
                while j < n {
                    for row in 0..4 {
                        let o = op.add(row * n + j);
                        let mut acc = *o;
                        for p in p0..p1 {
                            acc += *lp.add((r + row) * lrs + p * lps) * *bp.add(p * n + j);
                        }
                        *o = acc;
                    }
                    j += 1;
                }
            }

            /// Single-row kernel for the row tail; same column structure.
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $tile1(
                r: usize,
                p0: usize,
                p1: usize,
                n: usize,
                lhs: &[f32],
                lrs: usize,
                lps: usize,
                rhs: &[f32],
                out: &mut [f32],
            ) {
                const L: usize = $lanes;
                let lp = lhs.as_ptr();
                let bp = rhs.as_ptr();
                let op = out.as_mut_ptr();
                let mut j = 0usize;
                while j + 2 * L <= n {
                    let o = op.add(j);
                    let mut a0 = $load(o);
                    let mut a1 = $load(o.add(L));
                    for p in p0..p1 {
                        let b = bp.add(p * n + j);
                        let v = $set1(*lp.add(r * lrs + p * lps));
                        a0 = $add(a0, $mul(v, $load(b)));
                        a1 = $add(a1, $mul(v, $load(b.add(L))));
                    }
                    $store(o, a0);
                    $store(o.add(L), a1);
                    j += 2 * L;
                }
                while j + L <= n {
                    let o = op.add(j);
                    let mut a0 = $load(o);
                    for p in p0..p1 {
                        let v = $set1(*lp.add(r * lrs + p * lps));
                        a0 = $add(a0, $mul(v, $load(bp.add(p * n + j))));
                    }
                    $store(o, a0);
                    j += L;
                }
                while j < n {
                    let o = op.add(j);
                    let mut acc = *o;
                    for p in p0..p1 {
                        acc += *lp.add(r * lrs + p * lps) * *bp.add(p * n + j);
                    }
                    *o = acc;
                    j += 1;
                }
            }
        };
    }

    broadcast_gemm_impl!(
        broadcast_gemm_avx2,
        tile4_avx2,
        tile1_avx2,
        "avx2",
        __m256,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_add_ps,
        _mm256_mul_ps
    );

    broadcast_gemm_impl!(
        broadcast_gemm_sse2,
        tile4_sse2,
        tile1_sse2,
        "sse2",
        __m128,
        4,
        _mm_loadu_ps,
        _mm_storeu_ps,
        _mm_set1_ps,
        _mm_add_ps,
        _mm_mul_ps
    );

    /// AVX2 `y += alpha·x`: one lane per element, separate mul and add.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len().min(x.len());
        let a = _mm256_set1_ps(alpha);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let yv = _mm256_loadu_ps(yp.add(i));
            let xv = _mm256_loadu_ps(xp.add(i));
            _mm256_storeu_ps(yp.add(i), _mm256_add_ps(yv, _mm256_mul_ps(a, xv)));
            i += 8;
        }
        while i < n {
            *yp.add(i) += alpha * *xp.add(i);
            i += 1;
        }
    }

    /// AVX2 GELU forward: the lane form inlined into an AVX2 loop.
    ///
    /// # Safety
    /// The CPU must support AVX2 ([`super::level`] checks it).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gelu_avx2(x: &[f32], out: &mut [f32], t: Option<&mut [f32]>) {
        crate::gelu::forward_lanes(x, out, t)
    }

    /// AVX2 GELU backward.
    ///
    /// # Safety
    /// The CPU must support AVX2 ([`super::level`] checks it).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gelu_backward_avx2(x: &[f32], t: &[f32], g: &[f32], dx: &mut [f32]) {
        crate::gelu::backward_lanes(x, t, g, dx)
    }

    /// AVX2 `y *= alpha`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_avx2(alpha: f32, y: &mut [f32]) {
        let n = y.len();
        let a = _mm256_set1_ps(alpha);
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            _mm256_storeu_ps(yp.add(i), _mm256_mul_ps(a, _mm256_loadu_ps(yp.add(i))));
            i += 8;
        }
        while i < n {
            *yp.add(i) *= alpha;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64 * 20.0 - 10.0) as f32
            })
            .collect()
    }

    /// The scalar reference pattern every level must match bit for bit.
    fn oracle(
        rows: Range<usize>,
        depth: usize,
        n: usize,
        lhs: &[f32],
        lrs: usize,
        lps: usize,
        rhs: &[f32],
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; rows.len() * n];
        for (local, r) in rows.enumerate() {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..depth {
                    acc += lhs[r * lrs + p * lps] * rhs[p * n + j];
                }
                out[local * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn broadcast_gemm_matches_oracle_at_awkward_shapes() {
        for &(m, depth, n) in &[
            (1, 1, 1),
            (2, 3, 2),
            (3, 7, 5),
            (4, 16, 16),
            (5, 17, 9),
            (7, 31, 33),
            (8, 300, 19),
            (13, 64, 40),
        ] {
            // Row-major lhs (gemm layout) and strided lhs (transpose_gemm
            // layout, stride m) both go through the same kernel.
            for &(lrs, lps, lhs_len) in &[(depth, 1usize, m * depth), (1usize, m, depth * m)] {
                let lhs = noise(lhs_len, (m * depth * n) as u64);
                let rhs = noise(depth * n, (m + depth + n) as u64);
                let want = oracle(0..m, depth, n, &lhs, lrs, lps, &rhs);
                let mut got = vec![f32::NAN; m * n];
                broadcast_gemm(0..m, depth, n, &lhs, lrs, lps, &rhs, &mut got);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{m}x{depth}x{n} lrs={lrs} lps={lps} level={:?}",
                    level()
                );
            }
        }
    }

    #[test]
    fn broadcast_gemm_respects_row_ranges() {
        let (m, depth, n) = (9, 21, 11);
        let lhs = noise(m * depth, 3);
        let rhs = noise(depth * n, 4);
        let full = oracle(0..m, depth, n, &lhs, depth, 1, &rhs);
        let mut got = vec![0.0f32; 4 * n];
        broadcast_gemm(3..7, depth, n, &lhs, depth, 1, &rhs, &mut got);
        assert_eq!(&full[3 * n..7 * n], &got[..]);
    }

    #[test]
    fn pack_transpose_round_trips() {
        let (r, c) = (37, 23);
        let src = noise(r * c, 5);
        let mut t = vec![0.0f32; r * c];
        pack_transpose(r, c, &src, &mut t);
        for i in 0..r {
            for j in 0..c {
                assert_eq!(t[j * r + i], src[i * c + j]);
            }
        }
    }

    #[test]
    fn axpy_and_scale_match_scalar() {
        let x = noise(1003, 6);
        let y0 = noise(1003, 7);
        let mut want = y0.clone();
        for (yv, &xv) in want.iter_mut().zip(&x) {
            *yv += 0.37 * xv;
        }
        let mut got = y0.clone();
        axpy(0.37, &x, &mut got);
        assert_eq!(want, got);

        let mut want_s = y0.clone();
        for v in want_s.iter_mut() {
            *v *= -1.25;
        }
        let mut got_s = y0;
        scale(-1.25, &mut got_s);
        assert_eq!(want_s, got_s);
    }

    #[test]
    fn nan_and_inf_propagate_like_scalar() {
        let (m, depth, n) = (5, 13, 17);
        let mut lhs = noise(m * depth, 8);
        let mut rhs = noise(depth * n, 9);
        lhs[7] = f32::NAN;
        lhs[m * depth - 1] = f32::INFINITY;
        rhs[3] = f32::NEG_INFINITY;
        rhs[depth * n / 2] = f32::NAN;
        let want = oracle(0..m, depth, n, &lhs, depth, 1, &rhs);
        let mut got = vec![0.0f32; m * n];
        broadcast_gemm(0..m, depth, n, &lhs, depth, 1, &rhs, &mut got);
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
