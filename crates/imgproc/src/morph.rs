//! Binary morphology: dilation and erosion.
//!
//! §4.8 preprocesses the segmentation input with *dilate, erode, erode,
//! dilate* (a closing followed by an opening) using the 5×5 structuring
//! element
//!
//! ```text
//! 0 0 0 0 0
//! 0 1 1 1 0
//! 0 1 1 1 0
//! 0 1 1 1 0
//! 0 0 0 0 0
//! ```
//!
//! which is a 3×3 box, the only element this module applies. Images are
//! treated as binary: any non-zero intensity is foreground, outside the
//! raster counts as background, and outputs are 0/255.
//!
//! The box is separable: a pixel's 3×3 neighbourhood is three horizontal
//! 3-runs stacked vertically, so each operation is a row pass followed by
//! a column pass over the raw buffer, with background padding at the
//! borders.

use crate::image::GrayImage;

#[derive(Clone, Copy)]
enum Pass {
    Dilate,
    Erode,
}

/// Binary dilation: a pixel becomes foreground when *any* pixel of its
/// 3×3 neighbourhood is foreground.
pub fn dilate(img: &GrayImage) -> GrayImage {
    apply(img, &[Pass::Dilate])
}

/// Binary erosion: a pixel stays foreground only when *all* pixels of its
/// 3×3 neighbourhood are foreground (and inside the raster).
pub fn erode(img: &GrayImage) -> GrayImage {
    apply(img, &[Pass::Erode])
}

/// Closing: dilation followed by erosion (fills small holes).
pub fn close(img: &GrayImage) -> GrayImage {
    apply(img, &[Pass::Dilate, Pass::Erode])
}

/// Opening: erosion followed by dilation (removes small specks).
pub fn open(img: &GrayImage) -> GrayImage {
    apply(img, &[Pass::Erode, Pass::Dilate])
}

/// The exact §4.8 preprocessing chain: dilate, erode, erode, dilate
/// (closing then opening) with the paper's element.
pub fn paper_morphology_chain(img: &GrayImage) -> GrayImage {
    apply(img, &[Pass::Dilate, Pass::Erode, Pass::Erode, Pass::Dilate])
}

fn apply(img: &GrayImage, passes: &[Pass]) -> GrayImage {
    let (w, h) = img.dimensions();
    let mut mask: Vec<u8> = img
        .as_raw()
        .iter()
        .map(|&v| if v != 0 { 255 } else { 0 })
        .collect();
    let mut rows = vec![0u8; mask.len()];
    for pass in passes {
        match pass {
            Pass::Dilate => box3(&mut mask, &mut rows, w as usize, |a, b| a | b),
            Pass::Erode => box3(&mut mask, &mut rows, w as usize, |a, b| a & b),
        }
    }
    GrayImage::from_raw(w, h, mask).expect("same dims and length")
}

/// Reduce every 3×3 neighbourhood of the 0/255 `mask` with `op`, in
/// place: a row pass into `rows`, then a column pass back into `mask`.
/// Background (0) pads every border.
fn box3(mask: &mut [u8], rows: &mut [u8], w: usize, op: impl Fn(u8, u8) -> u8) {
    let mut padded = vec![0u8; w + 2];
    for (src, dst) in mask.chunks_exact(w).zip(rows.chunks_exact_mut(w)) {
        padded[1..=w].copy_from_slice(src);
        for (((d, &l), &c), &r) in dst
            .iter_mut()
            .zip(&padded)
            .zip(&padded[1..])
            .zip(&padded[2..])
        {
            *d = op(op(l, c), r);
        }
    }
    let background = vec![0u8; w];
    let h = mask.len() / w;
    for (y, dst) in mask.chunks_exact_mut(w).enumerate() {
        let above = if y > 0 {
            &rows[(y - 1) * w..y * w]
        } else {
            &background
        };
        let below = if y + 1 < h {
            &rows[(y + 1) * w..(y + 2) * w]
        } else {
            &background
        };
        let centre = &rows[y * w..(y + 1) * w];
        for (((d, &a), &c), &b) in dst.iter_mut().zip(above).zip(centre).zip(below) {
            *d = op(op(a, c), b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Gray;

    fn binary(w: u32, h: u32, fg: &[(u32, u32)]) -> GrayImage {
        let mut img = GrayImage::new(w, h).unwrap();
        for &(x, y) in fg {
            img.put(x, y, Gray(255));
        }
        img
    }

    fn fg_count(img: &GrayImage) -> usize {
        img.pixels().filter(|p| p.0 != 0).count()
    }

    #[test]
    fn dilate_grows_single_pixel_to_box() {
        let img = binary(7, 7, &[(3, 3)]);
        let out = dilate(&img);
        assert_eq!(fg_count(&out), 9);
        assert_eq!(out.get(2, 2), Gray(255));
        assert_eq!(out.get(4, 4), Gray(255));
        assert_eq!(out.get(1, 1), Gray(0));
    }

    #[test]
    fn erode_removes_single_pixel() {
        let img = binary(7, 7, &[(3, 3)]);
        let out = erode(&img);
        assert_eq!(fg_count(&out), 0);
    }

    #[test]
    fn erode_then_dilate_preserves_large_blob_interior() {
        let mut fg = Vec::new();
        for y in 1..6 {
            for x in 1..6 {
                fg.push((x, y));
            }
        }
        let img = binary(7, 7, &fg);
        let opened = open(&img);
        // A 5×5 blob survives opening with a 3×3 element.
        assert_eq!(fg_count(&opened), 25);
    }

    #[test]
    fn closing_fills_one_pixel_hole() {
        let mut fg = Vec::new();
        for y in 1..6 {
            for x in 1..6 {
                if (x, y) != (3, 3) {
                    fg.push((x, y));
                }
            }
        }
        let img = binary(7, 7, &fg);
        let closed = close(&img);
        assert_eq!(closed.get(3, 3), Gray(255), "hole should be filled");
    }

    #[test]
    fn opening_removes_speck_keeps_blob() {
        let mut fg = vec![(0, 6)]; // isolated speck
        for y in 0..4 {
            for x in 0..4 {
                fg.push((x, y));
            }
        }
        let img = binary(8, 8, &fg);
        let out = paper_morphology_chain(&img);
        assert_eq!(out.get(0, 6), Gray(0), "speck removed");
        assert_eq!(out.get(1, 1), Gray(255), "blob interior kept");
    }

    #[test]
    fn outside_raster_is_background() {
        // Full-frame foreground: erosion must shave the border.
        let img = GrayImage::filled(5, 5, Gray(255)).unwrap();
        let out = erode(&img);
        assert_eq!(out.get(0, 0), Gray(0));
        assert_eq!(out.get(2, 2), Gray(255));
    }
}
