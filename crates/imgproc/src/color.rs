//! Color-space conversions.
//!
//! The paper converts frames between three spaces:
//!
//! - **RGB → gray** with the JAI band-combine matrix `{0.114, 0.587, 0.299}`
//!   (blue, green, red order — §4.3 preprocessing and §4.8 step 2);
//! - **RGB → HSV** for the auto color correlogram's quantiser (§4.7,
//!   `convertRgbToHsv`);
//! - **HSV → RGB** for the synthetic generator's palettes.
//!
//! The HSV representation follows the convention LIRE (the Java library the
//! paper's pseudocode mirrors) uses: `h ∈ 0..=359`, `s ∈ 0..=255`,
//! `v ∈ 0..=255`, all integers.

use crate::pixel::Rgb;

/// `x.round()` (half away from zero) for `0.0 <= x < 2^24`, without the
/// libm call `f32::round` makes on baseline x86-64. The fraction
/// `x - trunc(x)` is exact in `f32` over that range, so comparing it
/// with one half rounds exactly as `f32::round` does.
#[inline]
fn round_nonneg(x: f32) -> u32 {
    let i = x as u32;
    i + ((x - i as f32) >= 0.5) as u32
}

/// Luma with the paper's band-combine weights, rounded to nearest.
///
/// `luma = 0.299 R + 0.587 G + 0.114 B`
#[inline]
pub fn luma_u8(r: u8, g: u8, b: u8) -> u8 {
    round_nonneg(0.299 * r as f32 + 0.587 * g as f32 + 0.114 * b as f32) as u8
}

/// Convert one RGB pixel to grayscale intensity.
#[inline]
pub fn rgb_to_gray(p: Rgb) -> u8 {
    luma_u8(p.r, p.g, p.b)
}

/// Convert RGB to integer HSV: hue `0..=359`, saturation `0..=255`,
/// value `0..=255`.
pub fn rgb_to_hsv(p: Rgb) -> (u16, u8, u8) {
    let r = p.r as i32;
    let g = p.g as i32;
    let b = p.b as i32;
    let max = r.max(g).max(b);
    let min = r.min(g).min(b);
    let delta = max - min;

    let v = max as u8;
    let s = if max == 0 { 0 } else { ((255 * delta) / max) as u8 };

    let h = if delta == 0 {
        0
    } else {
        let hue = if max == r {
            60.0 * ((g - b) as f32 / delta as f32)
        } else if max == g {
            120.0 + 60.0 * ((b - r) as f32 / delta as f32)
        } else {
            240.0 + 60.0 * ((r - g) as f32 / delta as f32)
        };
        let hue = if hue < 0.0 { hue + 360.0 } else { hue };
        (round_nonneg(hue) % 360) as u16
    };
    (h, s, v)
}

/// Convert integer HSV (`h ∈ 0..=359`, `s, v ∈ 0..=255`) back to RGB.
pub fn hsv_to_rgb(h: u16, s: u8, v: u8) -> Rgb {
    let h = (h % 360) as f32;
    let s = s as f32 / 255.0;
    let v = v as f32 / 255.0;
    let c = v * s;
    let hp = h / 60.0;
    let x = c * (1.0 - (hp % 2.0 - 1.0).abs());
    let (r1, g1, b1) = match hp as u32 {
        0 => (c, x, 0.0),
        1 => (x, c, 0.0),
        2 => (0.0, c, x),
        3 => (0.0, x, c),
        4 => (x, 0.0, c),
        _ => (c, 0.0, x),
    };
    let m = v - c;
    let to8 = |f: f32| ((f + m) * 255.0).round().clamp(0.0, 255.0) as u8;
    Rgb::new(to8(r1), to8(g1), to8(b1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luma_primaries() {
        assert_eq!(luma_u8(255, 0, 0), 76); // 0.299*255
        assert_eq!(luma_u8(0, 255, 0), 150); // 0.587*255
        assert_eq!(luma_u8(0, 0, 255), 29); // 0.114*255
        assert_eq!(luma_u8(255, 255, 255), 255);
    }

    #[test]
    fn hsv_primaries() {
        assert_eq!(rgb_to_hsv(Rgb::new(255, 0, 0)), (0, 255, 255));
        assert_eq!(rgb_to_hsv(Rgb::new(0, 255, 0)), (120, 255, 255));
        assert_eq!(rgb_to_hsv(Rgb::new(0, 0, 255)), (240, 255, 255));
    }

    #[test]
    fn hsv_achromatic() {
        assert_eq!(rgb_to_hsv(Rgb::new(0, 0, 0)), (0, 0, 0));
        assert_eq!(rgb_to_hsv(Rgb::new(255, 255, 255)), (0, 0, 255));
        let (h, s, v) = rgb_to_hsv(Rgb::new(128, 128, 128));
        assert_eq!((h, s), (0, 0));
        assert_eq!(v, 128);
    }

    #[test]
    fn hsv_secondaries() {
        // Yellow, cyan, magenta.
        assert_eq!(rgb_to_hsv(Rgb::new(255, 255, 0)).0, 60);
        assert_eq!(rgb_to_hsv(Rgb::new(0, 255, 255)).0, 180);
        assert_eq!(rgb_to_hsv(Rgb::new(255, 0, 255)).0, 300);
    }

    #[test]
    fn hsv_rgb_round_trip_is_close() {
        // HSV with 8-bit saturation is lossy; allow a small channel error.
        for r in (0u16..=255).step_by(37) {
            for g in (0u16..=255).step_by(41) {
                for b in (0u16..=255).step_by(43) {
                    let p = Rgb::new(r as u8, g as u8, b as u8);
                    let (h, s, v) = rgb_to_hsv(p);
                    let q = hsv_to_rgb(h, s, v);
                    for (a, c) in [(p.r, q.r), (p.g, q.g), (p.b, q.b)] {
                        assert!(
                            (a as i32 - c as i32).abs() <= 3,
                            "round trip drifted: {p:?} -> ({h},{s},{v}) -> {q:?}"
                        );
                    }
                }
            }
        }
    }

    /// Every RGB triple: luma and hue round exactly as the `f32::round`
    /// forms they replaced (kept here as the oracle).
    #[test]
    fn libm_free_rounding_matches_f32_round_on_every_color() {
        for rgb in 0u32..1 << 24 {
            let [r, g, b, _] = rgb.to_le_bytes();
            let luma = 0.299 * r as f32 + 0.587 * g as f32 + 0.114 * b as f32;
            assert_eq!(luma_u8(r, g, b), luma.round() as u8, "luma of ({r}, {g}, {b})");
            let (ri, gi, bi) = (r as i32, g as i32, b as i32);
            let (max, min) = (ri.max(gi).max(bi), ri.min(gi).min(bi));
            let delta = (max - min) as f32;
            let hue = if delta == 0.0 {
                0.0
            } else if max == ri {
                60.0 * ((gi - bi) as f32 / delta)
            } else if max == gi {
                120.0 + 60.0 * ((bi - ri) as f32 / delta)
            } else {
                240.0 + 60.0 * ((ri - gi) as f32 / delta)
            };
            let hue = if hue < 0.0 { hue + 360.0 } else { hue };
            let oracle = (hue.round() as u16) % 360;
            assert_eq!(rgb_to_hsv(Rgb::new(r, g, b)).0, oracle, "hue of ({r}, {g}, {b})");
        }
    }

    #[test]
    fn hue_wraps_into_range() {
        for r in (0u16..=255).step_by(15) {
            for b in (0u16..=255).step_by(15) {
                let (h, _, _) = rgb_to_hsv(Rgb::new(r as u8, 10, b as u8));
                assert!(h < 360, "hue {h} escaped range");
            }
        }
    }
}
