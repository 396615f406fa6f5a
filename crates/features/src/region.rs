//! Simple region growing segmentation (§4.8).
//!
//! The paper's classic stack-based region grower, preceded by its exact
//! preprocessing chain:
//!
//! 1. band-combine to gray (`{0.114, 0.587, 0.299}`);
//! 2. binarise at the histogram's minimum-fuzziness threshold;
//! 3. morphological close + open with the 5×5 box element
//!    (dilate, erode, erode, dilate);
//! 4. label 8-connected components of equal binary value, counting
//!    regions, holes (components of value 0) and *major regions*
//!    (components covering at least [`RegionConfig::major_fraction`] of
//!    the raster — the paper reports `Majorregions : 2` without defining
//!    the cutoff; 1% is our documented choice).
//!
//! Output matches the pseudocode's `run()`: `numberOfRegions`, `numhole`,
//! `majorRegions`, serialised as `SRG <regions> <holes> <major>` for the
//! `MAJORREGIONS` column (the paper stores only the major-region count;
//! we keep all three — they are free and the tests pin them).

use crate::error::{FeatureError, Result};
use cbvr_imgproc::morph::paper_morphology_chain;
use cbvr_imgproc::threshold::binarize_fuzzy;
use cbvr_imgproc::{GrayImage, RgbImage};

/// Tunables for the region grower.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionConfig {
    /// Fraction of total pixels a component needs to count as "major".
    pub major_fraction: f64,
    /// Apply the §4.8 morphological cleanup before labelling.
    pub morphology: bool,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            major_fraction: 0.01,
            morphology: true,
        }
    }
}

/// Segmentation census of one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionGrowing {
    /// Number of connected components (foreground and background alike,
    /// as the pseudocode counts them).
    pub regions: u32,
    /// Number of background-valued components ("holes").
    pub holes: u32,
    /// Number of components covering at least the major fraction.
    pub major_regions: u32,
}

impl RegionGrowing {
    /// Extract with the default configuration.
    pub fn extract(img: &RgbImage) -> RegionGrowing {
        Self::extract_with(img, RegionConfig::default())
    }

    /// Extract with an explicit configuration.
    pub fn extract_with(img: &RgbImage, config: RegionConfig) -> RegionGrowing {
        let gray = img.to_gray();
        let binary = binarize_fuzzy(&gray);
        let binary = if config.morphology {
            paper_morphology_chain(&binary)
        } else {
            binary
        };
        Self::label(&binary, config)
    }

    /// Label a prepared binary image (any non-zero pixel is foreground).
    pub fn label(binary: &GrayImage, config: RegionConfig) -> RegionGrowing {
        let (w, h) = binary.dimensions();
        let (wi, hi) = (w as i64, h as i64);
        let total = binary.pixel_count();
        let major_cutoff = ((total as f64) * config.major_fraction).ceil() as usize;

        let mut labels = vec![0u32; total];
        let idx = |x: i64, y: i64| (y * wi + x) as usize;
        let mut regions = 0u32;
        let mut holes = 0u32;
        let mut major = 0u32;
        let mut stack: Vec<(i64, i64)> = Vec::new();

        for y in 0..hi {
            for x in 0..wi {
                if labels[idx(x, y)] != 0 {
                    continue;
                }
                regions += 1;
                let value = binary.get(x as u32, y as u32).0;
                if value == 0 {
                    holes += 1;
                }
                let mut size = 0usize;
                labels[idx(x, y)] = regions;
                stack.push((x, y));
                while let Some((cx, cy)) = stack.pop() {
                    size += 1;
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if dx == 0 && dy == 0 {
                                continue;
                            }
                            let (nx, ny) = (cx + dx, cy + dy);
                            if nx < 0 || ny < 0 || nx >= wi || ny >= hi {
                                continue;
                            }
                            let i = idx(nx, ny);
                            if labels[i] == 0 && binary.get(nx as u32, ny as u32).0 == value {
                                labels[i] = regions;
                                stack.push((nx, ny));
                            }
                        }
                    }
                }
                if size >= major_cutoff {
                    major += 1;
                }
            }
        }
        RegionGrowing {
            regions,
            holes,
            major_regions: major,
        }
    }

    /// Native distance: mean relative difference over the three counts,
    /// in `[0, 1]`.
    pub fn distance(&self, other: &RegionGrowing) -> f64 {
        let rel = |a: u32, b: u32| -> f64 {
            let (a, b) = (a as f64, b as f64);
            let denom = a.max(b);
            if denom == 0.0 {
                0.0
            } else {
                (a - b).abs() / denom
            }
        };
        (rel(self.regions, other.regions)
            + rel(self.holes, other.holes)
            + rel(self.major_regions, other.major_regions))
            / 3.0
    }

    /// Feature string: `SRG <regions> <holes> <major>`.
    pub fn to_feature_string(&self) -> String {
        format!("SRG {} {} {}", self.regions, self.holes, self.major_regions)
    }

    /// Parse the feature string back.
    pub fn parse(s: &str) -> Result<RegionGrowing> {
        let mut t = s.split_whitespace();
        if t.next() != Some("SRG") {
            return Err(FeatureError::Parse("expected 'SRG' header".into()));
        }
        let mut next_u32 = |name: &str| -> Result<u32> {
            t.next()
                .ok_or_else(|| FeatureError::Parse(format!("missing {name}")))?
                .parse()
                .map_err(|e| FeatureError::Parse(format!("bad {name}: {e}")))
        };
        let regions = next_u32("regions")?;
        let holes = next_u32("holes")?;
        let major_regions = next_u32("major regions")?;
        Ok(RegionGrowing {
            regions,
            holes,
            major_regions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::{Gray, Rgb};

    fn label_no_morph(binary: &GrayImage) -> RegionGrowing {
        RegionGrowing::label(
            binary,
            RegionConfig {
                major_fraction: 0.01,
                morphology: false,
            },
        )
    }

    #[test]
    fn single_region_constant_image() {
        let img = GrayImage::filled(10, 10, Gray(255)).unwrap();
        let r = label_no_morph(&img);
        assert_eq!(r.regions, 1);
        assert_eq!(r.holes, 0);
        assert_eq!(r.major_regions, 1);
    }

    #[test]
    fn all_background_counts_as_hole() {
        let img = GrayImage::filled(10, 10, Gray(0)).unwrap();
        let r = label_no_morph(&img);
        assert_eq!(r.regions, 1);
        assert_eq!(r.holes, 1);
    }

    #[test]
    fn two_blobs_on_background() {
        let mut img = GrayImage::new(20, 20).unwrap();
        for y in 2..6 {
            for x in 2..6 {
                img.put(x, y, Gray(255));
            }
        }
        for y in 12..18 {
            for x in 12..18 {
                img.put(x, y, Gray(255));
            }
        }
        let r = label_no_morph(&img);
        // Background + two blobs = 3 components; 1 hole (the background).
        assert_eq!(r.regions, 3);
        assert_eq!(r.holes, 1);
        // 16 and 36 pixels of 400: both ≥ 1% (4 px); background too.
        assert_eq!(r.major_regions, 3);
    }

    #[test]
    fn diagonal_pixels_are_8_connected() {
        let mut img = GrayImage::new(4, 4).unwrap();
        img.put(0, 0, Gray(255));
        img.put(1, 1, Gray(255));
        let r = label_no_morph(&img);
        // The two diagonal pixels merge; background splits? No — the
        // background is also 8-connected around them.
        assert_eq!(r.regions, 2);
        assert_eq!(r.holes, 1);
    }

    #[test]
    fn enclosed_hole_is_counted() {
        // Foreground ring with a background centre: 3 components,
        // 2 of them background (outside + enclosed hole).
        let mut img = GrayImage::new(9, 9).unwrap();
        for y in 2..7 {
            for x in 2..7 {
                img.put(x, y, Gray(255));
            }
        }
        img.put(4, 4, Gray(0));
        let r = label_no_morph(&img);
        assert_eq!(r.regions, 3);
        assert_eq!(r.holes, 2);
    }

    #[test]
    fn major_fraction_cutoff_applies() {
        let mut img = GrayImage::new(20, 20).unwrap();
        img.put(0, 0, Gray(255)); // 1-pixel speck: 0.25% of 400
        let strict = RegionGrowing::label(
            &img,
            RegionConfig {
                major_fraction: 0.01,
                morphology: false,
            },
        );
        assert_eq!(strict.regions, 2);
        assert_eq!(strict.major_regions, 1); // only the background
        let lax = RegionGrowing::label(
            &img,
            RegionConfig {
                major_fraction: 0.001,
                morphology: false,
            },
        );
        assert_eq!(lax.major_regions, 2);
    }

    #[test]
    fn full_pipeline_on_rgb_finds_structure() {
        // Bright disc on dark background → after thresholding, a small
        // number of clean regions.
        let mut img = RgbImage::filled(40, 40, Rgb::new(20, 20, 20)).unwrap();
        cbvr_imgproc::draw::fill_circle(&mut img, 20, 20, 10, Rgb::new(240, 240, 240));
        let r = RegionGrowing::extract(&img);
        assert_eq!(r.regions, 2, "{r:?}");
        assert_eq!(r.holes, 1);
        assert_eq!(r.major_regions, 2);
    }

    #[test]
    fn morphology_removes_speck_regions() {
        let mut img = RgbImage::filled(40, 40, Rgb::new(10, 10, 10)).unwrap();
        cbvr_imgproc::draw::fill_circle(&mut img, 20, 20, 9, Rgb::new(250, 250, 250));
        // Pepper one isolated bright pixel.
        img.put(2, 2, Rgb::new(250, 250, 250));
        let with = RegionGrowing::extract_with(&img, RegionConfig::default());
        let without = RegionGrowing::extract_with(
            &img,
            RegionConfig {
                morphology: false,
                ..Default::default()
            },
        );
        assert!(
            with.regions < without.regions,
            "with {with:?} vs without {without:?}"
        );
    }

    #[test]
    fn distance_properties() {
        let a = RegionGrowing {
            regions: 4,
            holes: 1,
            major_regions: 2,
        };
        let b = RegionGrowing {
            regions: 8,
            holes: 2,
            major_regions: 2,
        };
        assert_eq!(a.distance(&a), 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        assert!(a.distance(&b) > 0.0 && a.distance(&b) <= 1.0);
        let zero = RegionGrowing {
            regions: 0,
            holes: 0,
            major_regions: 0,
        };
        assert_eq!(zero.distance(&zero), 0.0);
    }

    #[test]
    fn feature_string_round_trip() {
        let r = RegionGrowing {
            regions: 7,
            holes: 3,
            major_regions: 2,
        };
        let s = r.to_feature_string();
        assert_eq!(s, "SRG 7 3 2");
        assert_eq!(RegionGrowing::parse(&s).unwrap(), r);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(RegionGrowing::parse("GRS 1 2 3").is_err());
        assert!(RegionGrowing::parse("SRG 1 2").is_err());
        assert!(RegionGrowing::parse("SRG a b c").is_err());
    }
}
