//! Vector dissimilarity measures shared by the descriptors.
//!
//! Each descriptor has a *native* distance (the one its literature uses);
//! these are the underlying kernels. All functions treat the inputs as
//! equal-length slices and panic on length mismatch only in debug builds —
//! callers validate shapes at the descriptor level.
//!
//! The `*_f32` variants operate on columnar `f32` slabs (the query-path
//! arena) and carry an optional *cutoff*: when the partial distance already
//! exceeds the cutoff the kernel returns `None` ("abandoned"). Every partial
//! sum they compare against the cutoff is a sum of non-negative terms, and
//! rounded-to-nearest float addition of a non-negative term never decreases
//! a non-negative accumulator, so a partial sum is always a true lower bound
//! of the full computed distance — abandonment is exact, never speculative.

/// L1 (city-block) distance.
pub fn l1(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// L2 (Euclidean) distance.
pub fn l2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// Jensen–Shannon divergence between two histograms (normalised
/// internally), in `[0, ln 2]`. Symmetric and bounded, unlike KL.
pub fn jensen_shannon(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let sa: f64 = a.iter().sum();
    let sb: f64 = b.iter().sum();
    if sa <= 0.0 || sb <= 0.0 {
        return if sa == sb { 0.0 } else { std::f64::consts::LN_2 };
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
// Bounded f32 kernels for the columnar query arena.
// ---------------------------------------------------------------------------

/// Result of a bounded kernel: the distance when it was fully computed (and
/// did not exceed the cutoff), plus the number of vector elements the kernel
/// actually visited (the cost accounting unit for the cascade telemetry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedDistance {
    /// `Some(d)` when the full distance was computed and `d <= cutoff` (or
    /// no finite cutoff was given); `None` when the kernel proved the
    /// distance exceeds the cutoff and abandoned early.
    pub distance: Option<f64>,
    /// Number of elements (slice positions) visited before returning.
    pub elements: u32,
}

impl BoundedDistance {
    fn done(distance: f64, elements: usize) -> Self {
        Self { distance: Some(distance), elements: elements as u32 }
    }

    fn abandoned(elements: usize) -> Self {
        Self { distance: None, elements: elements as u32 }
    }
}

/// How many elements between cutoff checks. A power of two keeps the check
/// branch cheap and off the inner accumulation path.
const CHECK_EVERY: usize = 32;

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

/// Bounded L2. Partial sums of squares are non-decreasing, so once
/// `sqrt(partial) > cutoff` the final distance must exceed the cutoff too.
/// The accumulation is element-order identical to [`l2`] on the widened
/// inputs, so with `cutoff = ∞` the result is bit-identical.
pub fn l2_f32(a: &[f32], b: &[f32], cutoff: f64) -> BoundedDistance {
    debug_assert_eq!(a.len(), b.len());
    let len = a.len();
    let mut sum = 0.0f64;
    let mut done = 0usize;
    while done < len {
        let end = (done + CHECK_EVERY).min(len);
        for i in done..end {
            let d = a[i] as f64 - b[i] as f64;
            sum += d * d;
        }
        done = end;
        if done < len && sum.sqrt() > cutoff {
            return BoundedDistance::abandoned(done);
        }
    }
    let d = sum.sqrt();
    if d > cutoff {
        return BoundedDistance::abandoned(len);
    }
    BoundedDistance::done(d, len)
}

/// Bounded scaled L1: `Σ|x−y| / divisor`. Partial absolute sums only grow,
/// and dividing by a positive constant is monotone, so the partial scaled
/// sum is an exact lower bound.
pub fn scaled_l1_f32(a: &[f32], b: &[f32], divisor: f64, cutoff: f64) -> BoundedDistance {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(divisor > 0.0);
    let len = a.len();
    let mut sum = 0.0f64;
    let mut done = 0usize;
    while done < len {
        let end = (done + CHECK_EVERY).min(len);
        for i in done..end {
            sum += (a[i] as f64 - b[i] as f64).abs();
        }
        done = end;
        if done < len && sum / divisor > cutoff {
            return BoundedDistance::abandoned(done);
        }
    }
    let d = sum / divisor;
    if d > cutoff {
        return BoundedDistance::abandoned(len);
    }
    BoundedDistance::done(d, len)
}

/// Bounded Jensen–Shannon on raw (unnormalised) histograms whose masses the
/// caller precomputed (`mass_f32` on each side, so the normalisation matches
/// [`jensen_shannon`] bit for bit). Per-bin contributions are non-negative
/// by the log-sum inequality; float rounding can dip a term ~1e-16 below
/// zero, which the caller's score-level epsilon absorbs.
pub fn jensen_shannon_f32(
    a: &[f32],
    b: &[f32],
    mass_a: f64,
    mass_b: f64,
    cutoff: f64,
) -> BoundedDistance {
    debug_assert_eq!(a.len(), b.len());
    if mass_a <= 0.0 || mass_b <= 0.0 {
        let d = if mass_a == mass_b { 0.0 } else { std::f64::consts::LN_2 };
        if d > cutoff {
            return BoundedDistance::abandoned(0);
        }
        return BoundedDistance::done(d, 0);
    }
    let len = a.len();
    let mut acc = 0.0f64;
    let mut done = 0usize;
    while done < len {
        let end = (done + CHECK_EVERY).min(len);
        for i in done..end {
            let p = a[i] as f64 / mass_a;
            let q = b[i] as f64 / mass_b;
            let m = 0.5 * (p + q);
            if p > 0.0 {
                acc += 0.5 * p * (p / m).ln();
            }
            if q > 0.0 {
                acc += 0.5 * q * (q / m).ln();
            }
        }
        done = end;
        if done < len && acc > cutoff {
            return BoundedDistance::abandoned(done);
        }
    }
    let d = acc.max(0.0);
    if d > cutoff {
        return BoundedDistance::abandoned(len);
    }
    BoundedDistance::done(d, len)
}

/// Bounded naive-signature distance over a flat `[r,g,b, r,g,b, …]` slab:
/// mean per-point RGB Euclidean distance divided by the cube diagonal.
/// Per-point distances are non-negative, so the running sum over points is
/// an exact lower bound; the check runs every 8 points (24 elements).
pub fn naive_rgb_f32(a: &[f32], b: &[f32], cutoff: f64) -> BoundedDistance {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % 3, 0);
    let points = a.len() / 3;
    if points == 0 {
        return BoundedDistance::done(0.0, 0);
    }
    let denom = points as f64 * rgb_diag();
    let mut sum = 0.0f64;
    let mut p = 0usize;
    while p < points {
        let end = (p + 8).min(points);
        for i in p..end {
            let dr = a[3 * i] as f64 - b[3 * i] as f64;
            let dg = a[3 * i + 1] as f64 - b[3 * i + 1] as f64;
            let db = a[3 * i + 2] as f64 - b[3 * i + 2] as f64;
            sum += (dr * dr + dg * dg + db * db).sqrt();
        }
        p = end;
        if p < points && sum / denom > cutoff {
            return BoundedDistance::abandoned(3 * p);
        }
    }
    let d = sum / denom;
    if d > cutoff {
        return BoundedDistance::abandoned(a.len());
    }
    BoundedDistance::done(d, a.len())
}

/// Region-statistics distance over a 3-element slab (regions, holes, major
/// regions): mean relative difference. Too cheap to bother abandoning — it
/// is the first cascade stage — so this always returns a distance.
pub fn regions_rel_f32(a: &[f32], b: &[f32]) -> BoundedDistance {
    debug_assert_eq!(a.len(), b.len());
    let mut sum = 0.0f64;
    for i in 0..a.len() {
        let x = a[i] as f64;
        let y = b[i] as f64;
        let max = x.max(y);
        if max > 0.0 {
            sum += (x - y).abs() / max;
        }
    }
    BoundedDistance::done(sum / a.len().max(1) as f64, a.len())
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

    // ---- bounded f32 kernels ------------------------------------------

    #[test]
    fn bounded_l2_matches_unbounded() {
        let a: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| (i % 5) as f64 * 1.5).collect();
        let r = l2_f32(&to_f32(&a), &to_f32(&b), f64::INFINITY);
        assert_eq!(r.distance, Some(l2(&a, &b)));
        assert_eq!(r.elements, 100);
    }

    #[test]
    fn bounded_l2_abandons_only_above_cutoff() {
        let a: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..100).map(|i| (i + 3) as f32).collect();
        let full = l2_f32(&a, &b, f64::INFINITY).distance.unwrap();
        let kept = l2_f32(&a, &b, full);
        assert_eq!(kept.distance, Some(full));
        let dropped = l2_f32(&a, &b, full * 0.5);
        assert_eq!(dropped.distance, None);
        assert!(dropped.elements <= 100);
    }

    #[test]
    fn bounded_scaled_l1_matches() {
        let a: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..64).map(|i| (63 - i) as f64).collect();
        let r = scaled_l1_f32(&to_f32(&a), &to_f32(&b), 64.0, f64::INFINITY);
        assert_eq!(r.distance, Some(l1(&a, &b) / 64.0));
        assert_eq!(scaled_l1_f32(&to_f32(&a), &to_f32(&b), 64.0, 0.0).distance, None);
    }

    #[test]
    fn bounded_js_matches() {
        let a: Vec<f64> = (0..64).map(|i| (i % 11) as f64).collect();
        let b: Vec<f64> = (0..64).map(|i| ((i + 5) % 13) as f64).collect();
        let (fa, fb) = (to_f32(&a), to_f32(&b));
        let r = jensen_shannon_f32(&fa, &fb, mass_f32(&fa), mass_f32(&fb), f64::INFINITY);
        assert_eq!(r.distance, Some(jensen_shannon(&a, &b)));
        // Empty side behaves like the f64 kernel.
        let z = vec![0.0f32; 64];
        let r = jensen_shannon_f32(&z, &fb, 0.0, mass_f32(&fb), f64::INFINITY);
        assert_eq!(r.distance, Some(std::f64::consts::LN_2));
    }

    #[test]
    fn bounded_naive_matches_pointwise_mean() {
        // 4 points, flat RGB slab.
        let a: Vec<f32> = vec![0.0, 0.0, 0.0, 255.0, 0.0, 0.0, 10.0, 20.0, 30.0, 1.0, 1.0, 1.0];
        let b: Vec<f32> = vec![0.0, 0.0, 0.0, 0.0, 255.0, 0.0, 10.0, 20.0, 30.0, 2.0, 2.0, 2.0];
        let r = naive_rgb_f32(&a, &b, f64::INFINITY);
        let mut expect = 0.0f64;
        for i in 0..4 {
            let dr = a[3 * i] as f64 - b[3 * i] as f64;
            let dg = a[3 * i + 1] as f64 - b[3 * i + 1] as f64;
            let db = a[3 * i + 2] as f64 - b[3 * i + 2] as f64;
            expect += (dr * dr + dg * dg + db * db).sqrt();
        }
        expect /= 4.0 * rgb_diag();
        assert_eq!(r.distance, Some(expect));
        assert_eq!(naive_rgb_f32(&a, &b, expect * 0.9).distance, None);
    }

    #[test]
    fn bounded_regions_matches() {
        let a = [5.0f32, 2.0, 1.0];
        let b = [10.0f32, 2.0, 0.0];
        let r = regions_rel_f32(&a, &b);
        let expect = (5.0 / 10.0 + 0.0 + 1.0) / 3.0;
        assert!((r.distance.unwrap() - expect).abs() < 1e-12);
    }
}
