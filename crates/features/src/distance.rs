//! Vector dissimilarity measures shared by the descriptors.
//!
//! Each descriptor has a *native* distance (the one its literature uses);
//! these are the underlying kernels. All functions treat the inputs as
//! equal-length slices and panic on length mismatch only in debug builds —
//! callers validate shapes at the descriptor level.
//!
//! The `*_f32` variants are the exact kernels of the query-path arena:
//! they read columnar `f32` slabs, widen each element to `f64` and
//! accumulate in element order, so each equals its `f64` counterpart on
//! the widened inputs bit for bit. The `*_lower_f32` variants are cheap,
//! certified floors of them, for the arena's bound tier.

/// L1 (city-block) distance.
pub fn l1(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// L2 (Euclidean) distance.
pub fn l2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Jensen–Shannon divergence between two histograms (normalised
/// internally), in `[0, ln 2]`. Symmetric and bounded, unlike KL.
pub fn jensen_shannon(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let sa: f64 = a.iter().sum();
    let sb: f64 = b.iter().sum();
    if sa <= 0.0 || sb <= 0.0 {
        return if sa == sb {
            0.0
        } else {
            std::f64::consts::LN_2
        };
    }
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let p = x / sa;
        let q = y / sb;
        let m = 0.5 * (p + q);
        if p > 0.0 {
            acc += 0.5 * p * (p / m).ln();
        }
        if q > 0.0 {
            acc += 0.5 * q * (q / m).ln();
        }
    }
    acc.max(0.0)
}

// ---------------------------------------------------------------------------
// Exact f32 kernels for the columnar query arena.
// ---------------------------------------------------------------------------

/// Sum of a slab vector, accumulated in `f64` in element order.
pub fn mass_f32(v: &[f32]) -> f64 {
    let mut s = 0.0f64;
    for &x in v {
        s += x as f64;
    }
    s
}

/// Euclidean norm of a slab vector, accumulated in `f64` in element order.
pub fn l2_norm_f32(v: &[f32]) -> f64 {
    let mut s = 0.0f64;
    for &x in v {
        let x = x as f64;
        s += x * x;
    }
    s.sqrt()
}

/// Diagonal of the RGB cube — the normaliser the naive signature uses.
pub fn rgb_diag() -> f64 {
    (3.0f64 * 255.0 * 255.0).sqrt()
}

/// L2 over `f32` slabs, in the element order of [`l2`] on the widened
/// inputs, so the result is bit-identical to it.
pub fn l2_f32(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut sum = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = x as f64 - y as f64;
        sum += d * d;
    }
    sum.sqrt()
}

/// Scaled L1: `Σ|x−y| / divisor`, bit-identical to [`l1`] on the widened
/// inputs divided by `divisor`.
pub fn scaled_l1_f32(a: &[f32], b: &[f32], divisor: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(divisor > 0.0);
    let mut sum = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        sum += (x as f64 - y as f64).abs();
    }
    sum / divisor
}

/// Jensen–Shannon on raw (unnormalised) histograms whose masses the
/// caller precomputed (`mass_f32` on each side, so the normalisation
/// matches [`jensen_shannon`] bit for bit).
pub fn jensen_shannon_f32(a: &[f32], b: &[f32], mass_a: f64, mass_b: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if mass_a <= 0.0 || mass_b <= 0.0 {
        return if mass_a == mass_b {
            0.0
        } else {
            std::f64::consts::LN_2
        };
    }
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let p = x as f64 / mass_a;
        let q = y as f64 / mass_b;
        let m = 0.5 * (p + q);
        if p > 0.0 {
            acc += 0.5 * p * (p / m).ln();
        }
        if q > 0.0 {
            acc += 0.5 * q * (q / m).ln();
        }
    }
    acc.max(0.0)
}

/// Naive-signature distance over a flat `[r,g,b, r,g,b, …]` slab: mean
/// per-point RGB Euclidean distance divided by the cube diagonal.
pub fn naive_rgb_f32(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % 3, 0);
    let points = a.len() / 3;
    if points == 0 {
        return 0.0;
    }
    let (pa, _) = a.as_chunks::<3>();
    let (pb, _) = b.as_chunks::<3>();
    let mut sum = 0.0f64;
    for (x, y) in pa.iter().zip(pb) {
        let dr = x[0] as f64 - y[0] as f64;
        let dg = x[1] as f64 - y[1] as f64;
        let db = x[2] as f64 - y[2] as f64;
        sum += (dr * dr + dg * dg + db * db).sqrt();
    }
    sum / (points as f64 * rgb_diag())
}

// ---------------------------------------------------------------------------
// Lower-bound f32 kernels: cheap, certified floors of the exact kernels.
// ---------------------------------------------------------------------------
//
// Each `*_lower_f32` kernel returns a value that never exceeds the float
// result of its exact counterpart above, for every finite input. They
// compute in `f32` over `BOUND_LANES` independent accumulators, which
// reassociates the sum — forbidden in an exact kernel, whose result must
// keep its bits, but harmless in a bound once the bound is deflated by
// the worst rounding any summation order can cause:
//
// - relative: a sum of n non-negative terms, in any order, each term the
//   result of at most a few more rounded operations, is at most
//   `(1 + 2⁻²⁴)^(n+3)` times the real sum. With n ≤ 256 that factor stays
//   below `1 + 2⁻¹⁶`, so multiplying by `1 − BOUND_REL = 1 − 2⁻¹⁵` lands
//   below the real sum, which the exact `f64` kernel misses by ~n·2⁻⁵³;
// - absolute: squares and products that underflow into the subnormal
//   range round by up to 2⁻¹⁵⁰ each, with no relative guarantee, and the
//   mass-normalised L1 loses ~2⁻²² to cancellation; the kernels subtract
//   a fixed term for each (see their docs).
//
// A result that is not finite (a difference overflowed `f32`) bounds
// nothing and is returned as 0.

/// Independent `f32` accumulators per bound kernel: four SSE or two AVX
/// registers, which the compiler keeps in registers and vectorizes.
const BOUND_LANES: usize = 16;

/// Relative deflation of every bound kernel: `2⁻¹⁵`, twice the
/// `(n + 3)·2⁻²⁴` rounding of an f32 sum of n ≤ 256 terms.
const BOUND_REL: f64 = 1.0 / 32_768.0;

/// Longest vector the bound kernels are certified for (`BOUND_REL`); a
/// longer one panics.
pub const BOUND_MAX_LEN: usize = 256;

/// `Σ f(aᵢ, bᵢ)` in `f32`, reassociated over `BOUND_LANES` lanes.
#[inline(always)]
fn lane_sum(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    assert!(
        a.len() <= BOUND_MAX_LEN,
        "bound kernels are certified up to {BOUND_MAX_LEN}"
    );
    let (ca, ra) = a.as_chunks::<BOUND_LANES>();
    let (cb, rb) = b.as_chunks::<BOUND_LANES>();
    let mut acc = [0.0f32; BOUND_LANES];
    for (x, y) in ca.iter().zip(cb) {
        for k in 0..BOUND_LANES {
            acc[k] += f(x[k], y[k]);
        }
    }
    for (k, (&x, &y)) in ra.iter().zip(rb).enumerate() {
        acc[k] += f(x, y);
    }
    acc.iter().sum()
}

/// `s · (1 − BOUND_REL) − abs`, clamped at 0; 0 for a non-finite `s`.
#[inline]
fn deflate(s: f32, abs: f64) -> f64 {
    if !s.is_finite() {
        return 0.0;
    }
    (s as f64 * (1.0 - BOUND_REL) - abs).max(0.0)
}

/// Squares below 2⁻¹²⁶ round by up to 2⁻¹⁵⁰ each: 256 of them stay
/// under 2⁻¹⁴⁰.
const SQUARE_UNDERFLOW: f64 = 1.0 / (1u128 << 127) as f64 / (1u64 << 13) as f64;

/// Lower bound of [`l2_f32`]'s distance.
pub fn l2_lower_f32(a: &[f32], b: &[f32]) -> f64 {
    let s = lane_sum(a, b, |x, y| {
        let d = x - y;
        d * d
    });
    deflate(s, SQUARE_UNDERFLOW).sqrt()
}

/// Lower bound of [`scaled_l1_f32`]'s distance. Differences and sums of
/// subnormals are exact, so no absolute term is needed.
pub fn scaled_l1_lower_f32(a: &[f32], b: &[f32], divisor: f64) -> f64 {
    debug_assert!(divisor > 0.0);
    deflate(lane_sum(a, b, |x, y| (x - y).abs()), 0.0) / divisor
}

/// Per-point square roots of underflowed squares are off by up to
/// `√(3·2⁻¹⁵⁰) < 2⁻⁷⁴` each: 85 points stay under 2⁻⁶⁷.
const ROOT_UNDERFLOW: f64 = 1.0 / (1u128 << 67) as f64;

/// Lower bound of [`naive_rgb_f32`]'s distance: the per-point RGB norms
/// in `f32`, summed over `BOUND_LANES` point lanes.
pub fn naive_rgb_lower_f32(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % 3, 0);
    assert!(
        a.len() <= BOUND_MAX_LEN,
        "bound kernels are certified up to {BOUND_MAX_LEN}"
    );
    let points = a.len() / 3;
    if points == 0 {
        return 0.0;
    }
    let (pa, _) = a.as_chunks::<3>();
    let (pb, _) = b.as_chunks::<3>();
    let mut acc = [0.0f32; BOUND_LANES];
    for (p, (x, y)) in pa.iter().zip(pb).enumerate() {
        let (dr, dg, db) = (x[0] - y[0], x[1] - y[1], x[2] - y[2]);
        acc[p % BOUND_LANES] += (dr * dr + dg * dg + db * db).sqrt();
    }
    let s: f32 = acc.iter().sum();
    deflate(s, ROOT_UNDERFLOW) / (points as f64 * rgb_diag())
}

/// The mass-normalised L1's absolute slack, `2⁻¹⁹`. Each term
/// `|aᵢ·(1/mₐ) − bᵢ·(1/m_b)|` is off by up to `~2⁻²³·(pᵢ + qᵢ)` (the
/// reciprocal and the product each round once in `f32`), and
/// `Σ(pᵢ + qᵢ) = 2`, so cancellation costs at most `~2⁻²²` however close
/// the histograms are. The other `η ≈ 2⁻¹⁹ − 2⁻²²` of slack leaves
/// `L1² − L1_bound² ≥ η²`, so the bound `L1_bound²/8` stays at least
/// `η²/8 ≈ 3e-13` below Pinsker's `L1²/8`: more than the exact kernel's
/// own rounding of its ~2n signed `f64` terms, ~(n + 10)·2⁻⁵² ≈ 6e-14
/// for n = 256.
const L1_CANCELLATION: f64 = 1.0 / (1u64 << 19) as f64;

/// Lower bound of [`jensen_shannon_f32`]'s divergence by Pinsker's
/// inequality. With `p = a/mₐ`, `q = b/m_b` and `m = (p + q)/2`, each
/// half of JS is a KL divergence to `m`, and Pinsker gives
/// `KL(p‖m) ≥ ‖p − m‖₁²/2 = ‖p − q‖₁²/8` in nats (the kernel uses `ln`,
/// weights ½ and no square root), so `JS ≥ ‖p − q‖₁²/8`. The L1 is
/// computed in `f32` lanes from the reciprocal masses and deflated by
/// `BOUND_REL` and `L1_CANCELLATION`. Inputs must be non-negative, as
/// histogram counts are.
pub fn jensen_shannon_lower_f32(a: &[f32], b: &[f32], mass_a: f64, mass_b: f64) -> f64 {
    if mass_a <= 0.0 || mass_b <= 0.0 {
        return 0.0;
    }
    let (ra, rb) = ((1.0 / mass_a) as f32, (1.0 / mass_b) as f32);
    if !(ra.is_normal() && rb.is_normal()) {
        return 0.0;
    }
    let l1 = deflate(
        lane_sum(a, b, |x, y| (x * ra - y * rb).abs()),
        L1_CANCELLATION,
    );
    l1 * l1 / 8.0
}

/// Region-statistics distance over a 3-element slab (regions, holes, major
/// regions): mean relative difference.
pub fn regions_rel_f32(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut sum = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let (x, y) = (x as f64, y as f64);
        let max = x.max(y);
        if max > 0.0 {
            sum += (x - y).abs() / max;
        }
    }
    sum / a.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
    const B: [f64; 4] = [4.0, 3.0, 2.0, 1.0];

    fn to_f32(v: &[f64]) -> Vec<f32> {
        v.iter().map(|&x| x as f32).collect()
    }

    #[test]
    fn l1_l2_known_values() {
        assert_eq!(l1(&A, &B), 8.0);
        assert!((l2(&A, &B) - 20.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn identity_of_indiscernibles() {
        for f in [l1, l2, jensen_shannon] {
            assert!(f(&A, &A).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetry() {
        for f in [l1, l2, jensen_shannon] {
            assert!((f(&A, &B) - f(&B, &A)).abs() < 1e-12);
        }
    }

    #[test]
    fn js_bounded_by_ln2() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        let d = jensen_shannon(&a, &b);
        assert!((d - std::f64::consts::LN_2).abs() < 1e-12);
    }

    // ---- exact f32 kernels ---------------------------------------------

    #[test]
    fn l2_f32_matches_f64() {
        let a: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| (i % 5) as f64 * 1.5).collect();
        assert_eq!(l2_f32(&to_f32(&a), &to_f32(&b)), l2(&a, &b));
    }

    #[test]
    fn scaled_l1_f32_matches_f64() {
        let a: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..64).map(|i| (63 - i) as f64).collect();
        assert_eq!(
            scaled_l1_f32(&to_f32(&a), &to_f32(&b), 64.0),
            l1(&a, &b) / 64.0
        );
    }

    #[test]
    fn js_f32_matches_f64() {
        let a: Vec<f64> = (0..64).map(|i| (i % 11) as f64).collect();
        let b: Vec<f64> = (0..64).map(|i| ((i + 5) % 13) as f64).collect();
        let (fa, fb) = (to_f32(&a), to_f32(&b));
        let d = jensen_shannon_f32(&fa, &fb, mass_f32(&fa), mass_f32(&fb));
        assert_eq!(d, jensen_shannon(&a, &b));
        // Empty side behaves like the f64 kernel.
        let z = vec![0.0f32; 64];
        let d = jensen_shannon_f32(&z, &fb, 0.0, mass_f32(&fb));
        assert_eq!(d, std::f64::consts::LN_2);
    }

    #[test]
    fn naive_f32_is_the_pointwise_mean() {
        // 4 points, flat RGB slab.
        let a: Vec<f32> = vec![
            0.0, 0.0, 0.0, 255.0, 0.0, 0.0, 10.0, 20.0, 30.0, 1.0, 1.0, 1.0,
        ];
        let b: Vec<f32> = vec![
            0.0, 0.0, 0.0, 0.0, 255.0, 0.0, 10.0, 20.0, 30.0, 2.0, 2.0, 2.0,
        ];
        let mut expect = 0.0f64;
        for i in 0..4 {
            let dr = a[3 * i] as f64 - b[3 * i] as f64;
            let dg = a[3 * i + 1] as f64 - b[3 * i + 1] as f64;
            let db = a[3 * i + 2] as f64 - b[3 * i + 2] as f64;
            expect += (dr * dr + dg * dg + db * db).sqrt();
        }
        expect /= 4.0 * rgb_diag();
        assert_eq!(naive_rgb_f32(&a, &b), expect);
    }

    #[test]
    fn regions_f32_is_the_mean_relative_difference() {
        let a = [5.0f32, 2.0, 1.0];
        let b = [10.0f32, 2.0, 0.0];
        let expect = (5.0 / 10.0 + 0.0 + 1.0) / 3.0;
        assert!((regions_rel_f32(&a, &b) - expect).abs() < 1e-12);
    }
}
