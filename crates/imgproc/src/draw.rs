//! Rendering primitives for the synthetic video generator.
//!
//! The reproduction substitutes archive.org footage with procedurally
//! rendered clips (see DESIGN.md). These helpers paint the building blocks
//! of each category style: flat regions (cartoon), gradients (movie),
//! moving shapes (sports), text blocks (e-learning) and noise (sensor
//! grain). All functions clip silently at the raster border so animation
//! code can move shapes freely off-screen.

use crate::image::RgbImage;
use crate::pixel::Rgb;

/// Fill the whole image with one color.
pub fn fill(img: &mut RgbImage, color: Rgb) {
    img.map_in_place(|_| color);
}

/// Fill an axis-aligned rectangle; clips at the raster border.
pub fn fill_rect(img: &mut RgbImage, x: i32, y: i32, w: u32, h: u32, color: Rgb) {
    let x0 = x.max(0) as u32;
    let y0 = y.max(0) as u32;
    let x1 = (x.saturating_add(w as i32)).clamp(0, img.width() as i32) as u32;
    let y1 = (y.saturating_add(h as i32)).clamp(0, img.height() as i32) as u32;
    for py in y0..y1 {
        for px in x0..x1 {
            img.put(px, py, color);
        }
    }
}

/// Draw a 1-pixel rectangle outline; clips at the raster border.
pub fn stroke_rect(img: &mut RgbImage, x: i32, y: i32, w: u32, h: u32, color: Rgb) {
    if w == 0 || h == 0 {
        return;
    }
    fill_rect(img, x, y, w, 1, color);
    fill_rect(img, x, y + h as i32 - 1, w, 1, color);
    fill_rect(img, x, y, 1, h, color);
    fill_rect(img, x + w as i32 - 1, y, 1, h, color);
}

/// Fill a disc of the given radius centred at `(cx, cy)`.
pub fn fill_circle(img: &mut RgbImage, cx: i32, cy: i32, radius: u32, color: Rgb) {
    let r = radius as i64;
    let r2 = r * r;
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy <= r2 {
                let px = cx as i64 + dx;
                let py = cy as i64 + dy;
                if px >= 0 && py >= 0 && (px as u32) < img.width() && (py as u32) < img.height() {
                    img.put(px as u32, py as u32, color);
                }
            }
        }
    }
}

/// Paint a vertical gradient from `top` (row 0) to `bottom` (last row).
pub fn vertical_gradient(img: &mut RgbImage, top: Rgb, bottom: Rgb) {
    let h = img.height();
    for y in 0..h {
        let t = if h == 1 { 0.0 } else { y as f32 / (h - 1) as f32 };
        let c = top.lerp(bottom, t);
        for x in 0..img.width() {
            img.put(x, y, c);
        }
    }
}

/// Paint a checkerboard with `cell`-sized squares in two colors.
pub fn checkerboard(img: &mut RgbImage, cell: u32, a: Rgb, b: Rgb) {
    let cell = cell.max(1);
    let (w, h) = img.dimensions();
    for y in 0..h {
        for x in 0..w {
            let parity = (x / cell + y / cell) % 2;
            img.put(x, y, if parity == 0 { a } else { b });
        }
    }
}

/// Deterministic per-pixel brightness speckle of amplitude `±amp`,
/// parameterised by a seed (xorshift, no external RNG dependency).
pub fn speckle(img: &mut RgbImage, amp: u8, seed: u64) {
    // SplitMix-style scramble so adjacent seeds diverge immediately.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x2545_F491_4F6C_DD1D) | 1;
    let (w, h) = img.dimensions();
    for y in 0..h {
        for x in 0..w {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let span = 2 * amp as i16 + 1;
            let delta = (state % span as u64) as i16 - amp as i16;
            img.put(x, y, img.get(x, y).offset(delta));
        }
    }
}

/// 5×7 bitmap glyphs for `A–Z`, `0–9` and space — enough to render the
/// e-learning slide titles the generator uses as texture.
fn glyph(ch: char) -> Option<[u8; 7]> {
    // Each byte is one row, bits 4..=0 left-to-right.
    let rows: [u8; 7] = match ch.to_ascii_uppercase() {
        'A' => [0x0E, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11],
        'B' => [0x1E, 0x11, 0x11, 0x1E, 0x11, 0x11, 0x1E],
        'C' => [0x0E, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0E],
        'D' => [0x1E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x1E],
        'E' => [0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x1F],
        'F' => [0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x10],
        'G' => [0x0E, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0E],
        'H' => [0x11, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11],
        'I' => [0x0E, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E],
        'J' => [0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0C],
        'K' => [0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11],
        'L' => [0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1F],
        'M' => [0x11, 0x1B, 0x15, 0x15, 0x11, 0x11, 0x11],
        'N' => [0x11, 0x19, 0x15, 0x13, 0x11, 0x11, 0x11],
        'O' => [0x0E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E],
        'P' => [0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10, 0x10],
        'Q' => [0x0E, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0D],
        'R' => [0x1E, 0x11, 0x11, 0x1E, 0x14, 0x12, 0x11],
        'S' => [0x0F, 0x10, 0x10, 0x0E, 0x01, 0x01, 0x1E],
        'T' => [0x1F, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04],
        'U' => [0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E],
        'V' => [0x11, 0x11, 0x11, 0x11, 0x11, 0x0A, 0x04],
        'W' => [0x11, 0x11, 0x11, 0x15, 0x15, 0x1B, 0x11],
        'X' => [0x11, 0x0A, 0x04, 0x04, 0x04, 0x0A, 0x11],
        'Y' => [0x11, 0x11, 0x0A, 0x04, 0x04, 0x04, 0x04],
        'Z' => [0x1F, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1F],
        '0' => [0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E],
        '1' => [0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E],
        '2' => [0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F],
        '3' => [0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E],
        '4' => [0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02],
        '5' => [0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E],
        '6' => [0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E],
        '7' => [0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08],
        '8' => [0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E],
        '9' => [0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C],
        ' ' => [0; 7],
        _ => return None,
    };
    Some(rows)
}

/// Render `text` with the built-in 5×7 font at scale `scale`, top-left at
/// `(x, y)`. Unknown characters render as blanks. Returns the advance
/// width in pixels.
pub fn draw_text(img: &mut RgbImage, x: i32, y: i32, text: &str, scale: u32, color: Rgb) -> u32 {
    let scale = scale.max(1);
    let mut cursor = x;
    for ch in text.chars() {
        if let Some(rows) = glyph(ch) {
            for (ry, row) in rows.iter().enumerate() {
                for rx in 0..5u32 {
                    if row & (0x10 >> rx) != 0 {
                        fill_rect(
                            img,
                            cursor + (rx * scale) as i32,
                            y + (ry as u32 * scale) as i32,
                            scale,
                            scale,
                            color,
                        );
                    }
                }
            }
        }
        cursor += (6 * scale) as i32;
    }
    (cursor - x) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(w: u32, h: u32) -> RgbImage {
        RgbImage::new(w, h).unwrap()
    }

    #[test]
    fn fill_rect_clips() {
        let mut im = img(4, 4);
        fill_rect(&mut im, -2, -2, 4, 4, Rgb::WHITE);
        assert_eq!(im.get(0, 0), Rgb::WHITE);
        assert_eq!(im.get(1, 1), Rgb::WHITE);
        assert_eq!(im.get(2, 2), Rgb::BLACK);
        // Fully off-screen rect is a no-op.
        fill_rect(&mut im, 10, 10, 4, 4, Rgb::WHITE);
        assert_eq!(im.get(3, 3), Rgb::BLACK);
    }

    #[test]
    fn stroke_rect_leaves_interior() {
        let mut im = img(6, 6);
        stroke_rect(&mut im, 1, 1, 4, 4, Rgb::WHITE);
        assert_eq!(im.get(1, 1), Rgb::WHITE);
        assert_eq!(im.get(4, 4), Rgb::WHITE);
        assert_eq!(im.get(2, 2), Rgb::BLACK);
    }

    #[test]
    fn circle_is_symmetric() {
        let mut im = img(11, 11);
        fill_circle(&mut im, 5, 5, 3, Rgb::WHITE);
        assert_eq!(im.get(5, 5), Rgb::WHITE);
        assert_eq!(im.get(8, 5), Rgb::WHITE);
        assert_eq!(im.get(2, 5), Rgb::WHITE);
        assert_eq!(im.get(5, 8), Rgb::WHITE);
        assert_eq!(im.get(0, 0), Rgb::BLACK);
        // Clipping at the border must not panic.
        fill_circle(&mut im, 0, 0, 5, Rgb::WHITE);
        assert_eq!(im.get(0, 0), Rgb::WHITE);
    }

    #[test]
    fn gradient_endpoints() {
        let mut im = img(3, 5);
        vertical_gradient(&mut im, Rgb::BLACK, Rgb::WHITE);
        assert_eq!(im.get(0, 0), Rgb::BLACK);
        assert_eq!(im.get(2, 4), Rgb::WHITE);
        let mid = im.get(1, 2);
        assert!(mid.r > 100 && mid.r < 160, "midpoint {mid:?}");
    }

    #[test]
    fn checkerboard_alternates() {
        let mut im = img(4, 4);
        checkerboard(&mut im, 2, Rgb::BLACK, Rgb::WHITE);
        assert_eq!(im.get(0, 0), Rgb::BLACK);
        assert_eq!(im.get(2, 0), Rgb::WHITE);
        assert_eq!(im.get(0, 2), Rgb::WHITE);
        assert_eq!(im.get(2, 2), Rgb::BLACK);
    }

    #[test]
    fn speckle_is_deterministic_and_bounded() {
        let mut a = img(8, 8);
        fill(&mut a, Rgb::new(128, 128, 128));
        let mut b = a.clone();
        speckle(&mut a, 10, 42);
        speckle(&mut b, 10, 42);
        assert_eq!(a, b, "same seed, same speckle");
        for p in a.pixels() {
            assert!((p.r as i32 - 128).abs() <= 10);
        }
        let mut c = img(8, 8);
        fill(&mut c, Rgb::new(128, 128, 128));
        speckle(&mut c, 10, 43);
        assert_ne!(a, c, "different seed, different speckle");
    }

    #[test]
    fn text_renders_pixels_and_advances() {
        let mut im = img(40, 10);
        let advance = draw_text(&mut im, 0, 0, "AB", 1, Rgb::WHITE);
        assert_eq!(advance, 12);
        let lit = im.pixels().filter(|p| *p == Rgb::WHITE).count();
        assert!(lit > 10, "glyphs should paint pixels, painted {lit}");
    }

    #[test]
    fn unknown_chars_are_blank() {
        let mut im = img(20, 10);
        draw_text(&mut im, 0, 0, "##", 1, Rgb::WHITE);
        assert!(im.pixels().all(|p| p == Rgb::BLACK));
    }

    #[test]
    fn text_scale_multiplies_footprint() {
        let mut im1 = img(10, 10);
        let mut im2 = img(20, 20);
        draw_text(&mut im1, 0, 0, "I", 1, Rgb::WHITE);
        draw_text(&mut im2, 0, 0, "I", 2, Rgb::WHITE);
        let c1 = im1.pixels().filter(|p| *p == Rgb::WHITE).count();
        let c2 = im2.pixels().filter(|p| *p == Rgb::WHITE).count();
        assert_eq!(c2, 4 * c1);
    }
}
