//! The exact §4.2 range-finder, pseudocode quirks preserved.
//!
//! The pseudocode normalises bin sums by `900.0` because its rescaled
//! frames hold 90 000 pixels (300×300) — `sum/900.0` is the *percentage*
//! of mass in the range. We compute the percentage from the actual pixel
//! count so the algorithm works at any resolution, which is the only
//! generalisation. Every branch below mirrors a numbered step:
//!
//! - 1st block test (>55%): choose `[0,127]`, *else `[128,255]`
//!   unconditionally* (the paper has no third outcome);
//! - 2nd block tests (>60%): refine to a 64-wide range or stay;
//! - 3rd block tests (>60%): refine to a 32-wide range or stay.
//!
//! The pseudocode's loop bounds are also faithfully reproduced where they
//! matter: its second-level loops scan `64..127` / `128..191` /
//! `192..255` with an *exclusive* upper bound, silently dropping the last
//! bin of each range (e.g. bin 127). We keep the inclusive-range
//! semantics instead — the off-by-one is a transcription error, not a
//! design decision, and changes assignments only for frames whose mass
//! sits exactly on a boundary bin.

use cbvr_imgproc::Histogram256;

/// First-level mass threshold, percent (pseudocode step 4.D).
pub const FIRST_LEVEL_THRESHOLD: f64 = 55.0;
/// Second/third-level mass threshold, percent (steps 6–16).
pub const LOWER_LEVEL_THRESHOLD: f64 = 60.0;

/// An inclusive intensity range assigned by the range finder — the
/// `MIN`/`MAX` columns of the `KEY_FRAMES` table.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RangeKey {
    /// Inclusive lower bound.
    pub min: u8,
    /// Inclusive upper bound.
    pub max: u8,
}

impl RangeKey {
    /// Construct; normalises a reversed pair.
    pub fn new(min: u8, max: u8) -> RangeKey {
        if min <= max {
            RangeKey { min, max }
        } else {
            RangeKey { min: max, max: min }
        }
    }

    /// Width of the range in bins (inclusive).
    pub fn width(self) -> u16 {
        self.max as u16 - self.min as u16 + 1
    }

    /// True when the two ranges share at least one bin.
    pub fn overlaps(self, other: RangeKey) -> bool {
        self.min <= other.max && other.min <= self.max
    }

    /// True when `self` fully contains `other`.
    pub fn contains(self, other: RangeKey) -> bool {
        self.min <= other.min && other.max <= self.max
    }

    /// Tree depth this range lives at: 0 for the 128-wide first level,
    /// 1 for 64-wide, 2 for 32-wide.
    pub fn level(self) -> u8 {
        match self.width() {
            128 => 0,
            64 => 1,
            32 => 2,
            _ => u8::MAX, // not a range the paper's finder produces
        }
    }
}

impl std::fmt::Display for RangeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}..={}]", self.min, self.max)
    }
}

/// `mass(lo..=hi) / total > threshold%`, evaluated by cross-multiplication
/// so an exact 55% never sneaks past `> 55.0` through float rounding.
pub(crate) fn passes(hist: &Histogram256, lo: u8, hi: u8, threshold_percent: f64) -> bool {
    let total = hist.total();
    if total == 0 {
        return false;
    }
    (hist.mass(lo, hi) as f64) * 100.0 > threshold_percent * total as f64
}

/// Run the exact §4.2 range finder on a luminance histogram.
pub fn paper_range(hist: &Histogram256) -> RangeKey {
    // 1st block test: >55% in the lower half picks it, anything else
    // falls to the upper half (the pseudocode's unconditional else).
    let (mut min, mut max): (u8, u8) = if passes(hist, 0, 127, FIRST_LEVEL_THRESHOLD) {
        (0, 127)
    } else {
        (128, 255)
    };

    // 2nd block tests: refine the 128-range into a 64-range when one
    // half holds >60%.
    let refine = |lo: u8, hi: u8| -> Option<(u8, u8)> {
        let mid = lo + (hi - lo) / 2;
        if passes(hist, lo, mid, LOWER_LEVEL_THRESHOLD) {
            Some((lo, mid))
        } else if passes(hist, mid + 1, hi, LOWER_LEVEL_THRESHOLD) {
            Some((mid + 1, hi))
        } else {
            None
        }
    };

    if let Some((lo, hi)) = refine(min, max) {
        min = lo;
        max = hi;
        // 3rd block tests: refine the 64-range into a 32-range.
        if let Some((lo, hi)) = refine(min, max) {
            min = lo;
            max = hi;
        }
    }
    RangeKey { min, max }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_with(values: &[(u8, u64)]) -> Histogram256 {
        let mut h = Histogram256::new();
        for &(v, count) in values {
            for _ in 0..count {
                h.record(v);
            }
        }
        h
    }

    #[test]
    fn concentrated_dark_mass_descends_to_level_three() {
        // All mass at intensity 10 → [0,31].
        let h = hist_with(&[(10, 100)]);
        assert_eq!(paper_range(&h), RangeKey { min: 0, max: 31 });
    }

    #[test]
    fn concentrated_bright_mass_descends_to_level_three() {
        let h = hist_with(&[(240, 100)]);
        assert_eq!(paper_range(&h), RangeKey { min: 224, max: 255 });
    }

    #[test]
    fn spread_within_lower_half_stays_at_level_one() {
        // 50/50 split between the two quarters of the lower half: neither
        // quarter passes 60%, so the range stays [0,127].
        let h = hist_with(&[(10, 50), (100, 50)]);
        assert_eq!(paper_range(&h), RangeKey { min: 0, max: 127 });
    }

    #[test]
    fn mid_level_stop() {
        // 100% in [64,127] but split across its two 32-wide halves.
        let h = hist_with(&[(70, 50), (120, 50)]);
        assert_eq!(paper_range(&h), RangeKey { min: 64, max: 127 });
    }

    #[test]
    fn balanced_halves_fall_to_upper_range() {
        // Exactly 50% ≤ 55% in the lower half → the else branch assigns
        // the upper half, the pseudocode's documented quirk.
        let h = hist_with(&[(10, 50), (200, 50)]);
        let r = paper_range(&h);
        assert_eq!((r.min, r.max), (128, 255));
    }

    #[test]
    fn empty_histogram_takes_upper_half() {
        // 0% everywhere → else-branch cascade: [128,255], never refined.
        let h = Histogram256::new();
        assert_eq!(paper_range(&h), RangeKey { min: 128, max: 255 });
    }

    #[test]
    fn threshold_is_strict() {
        // Exactly 55% in the lower half is NOT >55 → upper half.
        let h = hist_with(&[(10, 55), (200, 45)]);
        assert_eq!(paper_range(&h).min, 128);
        // 56% passes.
        let h = hist_with(&[(10, 56), (200, 44)]);
        assert_eq!(paper_range(&h).max, 127);
    }

    #[test]
    fn produced_widths_are_dyadic() {
        for seed in 0..50u64 {
            let mut h = Histogram256::new();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..200 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                h.record((state % 256) as u8);
            }
            let r = paper_range(&h);
            assert!(
                matches!(r.width(), 32 | 64 | 128),
                "width {} for seed {seed}",
                r.width()
            );
            assert!(r.level() <= 2);
            // Range is dyadic-aligned.
            assert_eq!(r.min as u16 % r.width(), 0);
        }
    }

    #[test]
    fn range_key_geometry() {
        let a = RangeKey::new(0, 63);
        let b = RangeKey::new(32, 95);
        let c = RangeKey::new(128, 255);
        assert!(a.overlaps(b));
        assert!(b.overlaps(a));
        assert!(!a.overlaps(c));
        assert!(c.contains(RangeKey::new(192, 223)));
        assert!(!a.contains(b));
        assert_eq!(RangeKey::new(9, 3), RangeKey::new(3, 9));
        assert_eq!(a.width(), 64);
        assert_eq!(RangeKey::new(0, 127).level(), 0);
        assert_eq!(RangeKey::new(0, 31).level(), 2);
        assert_eq!(format!("{a}"), "[0..=63]");
    }
}
