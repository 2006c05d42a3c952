//! GELU and the `f32` hyperbolic tangent under it, with no libm call.
//!
//! [`tanh`] is a line-by-line port of the fdlibm single-precision `tanhf`
//! and `expm1f` that glibc 2.36 ships for `x86_64`: plain `f32`
//! operations and bit manipulation, no FMA. On that platform it returns
//! the same bits as `f32::tanh` for every input (NaN matches NaN), so the
//! model outputs did not change when the crate stopped calling libm — and
//! they no longer depend on which libm the host links.
//!
//! [`tanh_lane`] runs the same IEEE operations without branches: every
//! path of the scalar code is evaluated and the result is picked with
//! selects, so a loop over it vectorises. It returns the bits of [`tanh`]
//! for every input (NaN passes through as a NaN). The GELU kernels
//! ([`forward_lanes`], [`backward_lanes`]) are written over it and are
//! `#[inline(always)]`, so a `#[target_feature]` caller such as the AVX2
//! path in [`crate::simd`] compiles them with its wider vectors; a plain
//! `#[inline]` helper stays out of line and runs one lane at a time.
//!
//! GELU uses the tanh approximation (paper §V-A):
//! `gelu(x) = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`. The forward
//! kernels can hand back each element's `tanh` value, so the backward
//! pass computes no `tanh` at all and stays bit-identical to
//! recomputing it.

/// `√(2/π)` as the GELU tanh approximation spells it.
pub const GELU_C: f32 = 0.797_884_6;

/// The `tanh` argument of the GELU approximation.
#[inline(always)]
pub fn gelu_inner(x: f32) -> f32 {
    GELU_C * (x + 0.044715 * x * x * x)
}

/// GELU from `x` and `t = tanh(gelu_inner(x))`.
#[inline(always)]
pub fn gelu_from_tanh(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// GELU derivative at `x` from `t = tanh(gelu_inner(x))`.
#[inline(always)]
pub fn gelu_derivative_from_tanh(x: f32, t: f32) -> f32 {
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
}

// fdlibm's expm1f constants, bit for bit (hex words as in the source).
/// `ln2` high part, `0x3f317180`.
const LN2_HI: f32 = 0.693_138_1;
/// `ln2` low part, `0x3717f7d1`.
const LN2_LO: f32 = 9.058_001e-6;
/// `1/ln2`, `0x3fb8aa3b`.
const INV_LN2: f32 = std::f32::consts::LOG2_E;
/// Scaled polynomial coefficients, `0xbd088889` … `0xb457edbb`.
const Q1: f32 = -0.033_333_335;
const Q2: f32 = 0.001_587_301_6;
const Q3: f32 = -7.936_507_6e-5;
const Q4: f32 = 4.008_217_7e-6;
const Q5: f32 = -2.010_992_1e-7;
/// Above this `expm1` overflows, `0x42b17180`.
const O_THRESHOLD: f32 = 88.721_68;

/// `tanh(x)`: the scalar oracle, a port of fdlibm's `tanhf`.
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;

    // x is Inf or NaN: tanh(±Inf) = ±1, tanh(NaN) = NaN.
    if ix >= 0x7f80_0000 {
        return if jx >= 0 { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }

    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x; // ±0
        }
        if ix < 0x2400_0000 {
            return x * (1.0 + x); // |x| < 2^-55: tanh(x) = x
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // |x| >= 22: ±1 (fdlibm writes `one - tiny` to raise inexact).
        1.0
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// `exp(x) - 1`: a port of fdlibm's `expm1f`.
fn expm1(x: f32) -> f32 {
    let bits = x.to_bits();
    let negative = bits & 0x8000_0000 != 0;
    let hx = bits & 0x7fff_ffff;

    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        // |x| >= 27·ln2
        if hx >= 0x42b1_7218 {
            // |x| >= 88.721...
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if negative { -1.0 } else { x };
            }
            if x > O_THRESHOLD {
                return f32::INFINITY; // overflow
            }
        }
        if negative {
            return -1.0; // x < -27·ln2 (`tiny - one`)
        }
    }

    // Argument reduction: x = k·ln2 + r with |r| <= 0.5·ln2, carried as
    // `hi - lo` plus the correction `c`.
    let (x, k, c) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln2
            if negative {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INV_LN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k) // t·ln2_hi is exact here
        };
        let r = hi - lo;
        (r, k, (hi - r) - lo)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: expm1(x) = x (fdlibm adds and removes `huge` only
        // to raise inexact).
        return x;
    } else {
        (x, 0, 0.0)
    };

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 { -2.0 * (e - (x + 0.5)) } else { 1.0 + 2.0 * (x - e) };
    }
    if k <= -2 || k > 56 {
        // Suffices to return exp(x) - 1.
        let y = 1.0 - (e - x);
        let y = if k == 128 { y * 2.0 * f32::from_bits(0x7f00_0000) } else { add_exponent(y, k) };
        return y - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 - 2^-k
        add_exponent(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        add_exponent(x - (e + t) + 1.0, k)
    }
}

/// `y · 2^k` by adding `k` to the exponent field (no range check, as in
/// fdlibm's `SET_FLOAT_WORD(y, i + (k << 23))`).
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k.wrapping_shl(23)) as u32)
}

/// `2^n` for `-126 <= n <= 127`, built from the exponent field.
#[inline(always)]
fn pow2(n: i32) -> f32 {
    f32::from_bits((n.wrapping_add(0x7f)).wrapping_shl(23) as u32)
}

/// Branch-free [`expm1`] for finite `x < 88`: every reduction and
/// reconstruction path is evaluated and the result is selected by `k`.
/// Identical IEEE operations per path, so identical bits.
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let bits = x.to_bits();
    let negative = (bits as i32) < 0;
    let hx = bits & 0x7fff_ffff;

    // fdlibm's truncating `(int)` cast. Clamping first (a NaN lands on the
    // lower bound) keeps the value finite and in range, so the cast can be
    // the plain vector conversion instead of Rust's saturating `as`, which
    // does not vectorise. Only lanes whose result is replaced below (x
    // under -177, or outside the domain) are ever clamped.
    let v = INV_LN2 * x + if negative { -0.5 } else { 0.5 };
    let v = if v > -256.0 { v } else { -256.0 };
    let v = if v < 256.0 { v } else { 256.0 };
    // SAFETY: `v` is finite and within [-256, 256] after the clamps.
    let k_round: i32 = unsafe { v.to_int_unchecked() };
    let k_near = if negative { -1 } else { 1 };
    let k = if hx < 0x3f85_1592 { k_near } else { k_round };
    let k = if hx > 0x3eb1_7218 { k } else { 0 };
    // Reduction, uniformly as `hi = x - t·ln2_hi`, `lo = t·ln2_lo`: t = ±1
    // reproduces fdlibm's `x ∓ ln2_hi`, `±ln2_lo` exactly, and t = 0 leaves
    // x untouched with c = 0.
    let t = k as f32;
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t3 = 3.0 - r1 * hfx;
    let e0 = hxs * ((r1 - t3) / (6.0 - r * t3));
    let y_zero = r - (r * e0 - hxs);
    let e = r * (e0 - c) - c - hxs;
    let y_minus_one = 0.5 * (r - e) - 0.5;
    let y_one = if r < -0.25 { -2.0 * (e - (r + 0.5)) } else { 1.0 + 2.0 * (r - e) };
    // 2^-k is fdlibm's `t` for 23 <= k <= 56; 1 - 2^-k (exact for k <= 24)
    // is its `t` for 2 <= k <= 22.
    let p = pow2(k.wrapping_neg());
    let y_far = add_exponent(1.0 - (e - r), k) - 1.0;
    let y_low = add_exponent((1.0 - p) - (e - r), k);
    let y_high = add_exponent(r - (e + p) + 1.0, k);

    let y = if k < 23 { y_low } else { y_high };
    let y = if k <= -2 || k > 56 { y_far } else { y };
    let y = if k == 1 { y_one } else { y };
    let y = if k == -1 { y_minus_one } else { y };
    let y = if k == 0 { y_zero } else { y };
    let y = if hx < 0x3300_0000 { x } else { y };
    if negative && hx >= 0x4195_b844 {
        -1.0
    } else {
        y
    }
}

/// Branch-free [`tanh`]: same bits for every input, NaN passes through.
#[inline(always)]
pub fn tanh_lane(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let big = ix >= 0x3f80_0000;
    // expm1 argument: 2|x| for |x| >= 1, -2|x| below. Lanes with
    // |x| >= 22 compute garbage that the select below discards; clamping
    // them to 0 keeps the argument inside expm1_lane's domain.
    let two_ax = if ix < 0x41b0_0000 { 2.0 * f32::from_bits(ix) } else { 0.0 };
    let t = expm1_lane(if big { two_ax } else { -two_ax });
    // One division serves both branches: 1 - 2/(t+2) and -t/(t+2).
    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = if (jx as i32) < 0 { -z } else { z };
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// Scalar GELU forward: `(gelu(x), tanh(gelu_inner(x)))`.
#[inline]
pub fn gelu(x: f32) -> (f32, f32) {
    let t = tanh(gelu_inner(x));
    (gelu_from_tanh(x, t), t)
}

/// The oracle forward loop: `out[i] = gelu(x[i])`, and `t[i]` receives
/// `tanh(gelu_inner(x[i]))` when given.
pub fn forward_scalar(x: &[f32], out: &mut [f32], t: Option<&mut [f32]>) {
    match t {
        Some(t) => {
            for ((o, tv), &v) in out.iter_mut().zip(t.iter_mut()).zip(x) {
                (*o, *tv) = gelu(v);
            }
        }
        None => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = gelu(v).0;
            }
        }
    }
}

/// [`forward_scalar`] over [`tanh_lane`]: bit-identical, and vectorisable.
#[inline(always)]
pub fn forward_lanes(x: &[f32], out: &mut [f32], t: Option<&mut [f32]>) {
    match t {
        Some(t) => {
            for ((o, tv), &v) in out.iter_mut().zip(t.iter_mut()).zip(x) {
                let th = tanh_lane(gelu_inner(v));
                *o = gelu_from_tanh(v, th);
                *tv = th;
            }
        }
        None => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = gelu_from_tanh(v, tanh_lane(gelu_inner(v)));
            }
        }
    }
}

/// GELU backward from the forward's `tanh` values:
/// `dx[i] = g[i] · gelu'(x[i])`. Has no `tanh` of its own, so the oracle
/// and the vector paths share it.
#[inline(always)]
pub fn backward_lanes(x: &[f32], t: &[f32], g: &[f32], dx: &mut [f32]) {
    for (((d, &xv), &tv), &gv) in dx.iter_mut().zip(x).zip(t).zip(g) {
        *d = gv * gelu_derivative_from_tanh(xv, tv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lane ≡ scalar, with NaN matching any NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Inputs whose bits sit within ±4 ulps of every branch threshold of
    /// `tanhf`/`expm1f`, on both signs. Thresholds on the `expm1`
    /// argument `2|x|` are also hit through `x` itself, one binade down.
    fn threshold_inputs() -> Vec<f32> {
        let mut words: Vec<u32> = vec![
            0x2400_0000, // tanh: |x| < 2^-55
            0x3f80_0000, // tanh: |x| >= 1
            0x41b0_0000, // tanh: |x| >= 22
            0x3300_0000, // expm1: |x| < 2^-25
            0x3eb1_7218, // expm1: |x| > 0.5·ln2
            0x3f85_1592, // expm1: |x| < 1.5·ln2
            0x4195_b844, // expm1: |x| >= 27·ln2
            0x42b1_7218, // expm1: |x| >= 88.72
            0x7f80_0000, // Inf
            0x0000_0001, // smallest subnormal
            0x007f_ffff, // largest subnormal
            0x0080_0000, // smallest normal
        ];
        words.extend(k_boundaries());
        let expm1_args = words.clone();
        words.extend(expm1_args.iter().filter(|&&w| w >= 0x0100_0000).map(|w| w - 0x0080_0000));
        let mut out = Vec::new();
        for w in words {
            for d in -4i64..=4 {
                let b = (w as i64 + d).clamp(0, 0x7fff_ffff) as u32;
                out.push(f32::from_bits(b));
                out.push(-f32::from_bits(b));
            }
        }
        out.extend([f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001), f32::from_bits(0x7fc0_0001)]);
        out
    }

    /// The `expm1` arguments where fdlibm's rounded `k` steps onto
    /// ±1, 2, 22, 23, 24, 56 and 57 (the reconstruction branches).
    fn k_boundaries() -> Vec<u32> {
        let k_of = |x: f32| (INV_LN2 * x + if x < 0.0 { -0.5 } else { 0.5 }) as i32;
        let mut out = Vec::new();
        for target in [1, 2, 22, 23, 24, 56, 57] {
            // First positive x (by bits) whose k reaches `target`.
            let (mut lo, mut hi) = (0x3f00_0000u32, 0x4300_0000u32);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if k_of(f32::from_bits(mid)) >= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            out.push(lo);
        }
        out
    }

    /// Every `step`-th bit pattern, offset so the sweep does not only see
    /// round numbers.
    fn strided(step: u64) -> impl Iterator<Item = f32> {
        (0..=u32::MAX as u64).step_by(step as usize).map(|b| f32::from_bits((b as u32) ^ 0x55))
    }

    #[test]
    fn constants_match_the_fdlibm_words() {
        let words = [
            (LN2_HI, 0x3f31_7180),
            (LN2_LO, 0x3717_f7d1),
            (INV_LN2, 0x3fb8_aa3b),
            (Q1, 0xbd08_8889),
            (Q2, 0x3ad0_0d01),
            (Q3, 0xb8a6_70cd),
            (Q4, 0x3686_7e54),
            (Q5, 0xb457_edbb),
            (O_THRESHOLD, 0x42b1_7180),
        ];
        for (v, w) in words {
            assert_eq!(v.to_bits(), w, "{v}");
        }
    }

    #[test]
    fn tanh_lane_matches_scalar_on_thresholds_and_specials() {
        for x in threshold_inputs() {
            assert!(same(tanh_lane(x), tanh(x)), "x = {x:e} ({:#010x})", x.to_bits());
        }
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert!(tanh(f32::NAN).is_nan() && tanh_lane(f32::NAN).is_nan());
    }

    #[test]
    fn tanh_lane_matches_scalar_on_a_strided_sweep() {
        for x in strided(4099) {
            assert!(same(tanh_lane(x), tanh(x)), "x = {x:e} ({:#010x})", x.to_bits());
        }
    }

    #[test]
    fn expm1_lane_matches_scalar_below_88() {
        let domain = |x: &f32| x.is_finite() && *x < 88.0;
        for x in strided(4099).chain(threshold_inputs()).filter(domain) {
            assert!(same(expm1_lane(x), expm1(x)), "x = {x:e} ({:#010x})", x.to_bits());
        }
    }

    #[test]
    fn gelu_lane_loops_match_the_oracle_loop() {
        let x: Vec<f32> = strided(1 << 20).chain(threshold_inputs()).collect();
        let (mut want, mut want_t) = (vec![0.0; x.len()], vec![0.0; x.len()]);
        forward_scalar(&x, &mut want, Some(&mut want_t));
        let (mut got, mut got_t) = (vec![0.0; x.len()], vec![0.0; x.len()]);
        forward_lanes(&x, &mut got, Some(&mut got_t));
        let mut got_plain = vec![0.0; x.len()];
        forward_lanes(&x, &mut got_plain, None);
        for i in 0..x.len() {
            assert!(same(got[i], want[i]) && same(got_t[i], want_t[i]), "x = {:e}", x[i]);
            assert!(same(got_plain[i], want[i]), "x = {:e}", x[i]);
        }
    }

    /// The port against the host libm on the sweep; the port is a copy of
    /// glibc's code, so this is where a transcription slip shows. It
    /// assumes a glibc whose `tanhf` is the fdlibm one (2.36 is); a libm
    /// with a different `tanhf` fails here while the model's outputs,
    /// which no longer call libm, stay the same.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[test]
    fn tanh_matches_glibc_on_a_strided_sweep() {
        for x in strided(4099).chain(threshold_inputs()) {
            assert!(same(tanh(x), x.tanh()), "x = {x:e} ({:#010x})", x.to_bits());
        }
    }

    /// All 2^32 inputs; run in release:
    /// `cargo test --release -p silofuse-nn --lib gelu -- --ignored`.
    #[test]
    #[ignore = "exhaustive; run in release mode"]
    fn tanh_lane_matches_scalar_on_every_input() {
        exhaustive(|x| same(tanh_lane(x), tanh(x)));
    }

    /// All 2^32 inputs against the host libm (see above).
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[test]
    #[ignore = "exhaustive; run in release mode"]
    fn tanh_matches_glibc_on_every_input() {
        exhaustive(|x| same(tanh(x), x.tanh()));
    }

    /// Checks `ok` on every bit pattern, split across the host's cores.
    fn exhaustive(ok: impl Fn(f32) -> bool + Sync) {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(workers);
        let ok = &ok;
        std::thread::scope(|s| {
            for w in 0..workers {
                s.spawn(move || {
                    let end = ((w + 1) * span).min(1 << 32);
                    for b in w * span..end {
                        let x = f32::from_bits(b as u32);
                        assert!(ok(x), "x = {x:e} ({b:#010x})");
                    }
                });
            }
        });
    }
}
