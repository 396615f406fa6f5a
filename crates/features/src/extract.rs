//! Per-key-frame feature bundle.
//!
//! The `KEY_FRAMES` table stores one value of *each* feature per key frame
//! (`SCH`, `GLCM`, `GABOR`, `TAMURA`, `MAJORREGIONS` columns plus the
//! correlogram and naive signature shown in Fig. 8). [`FeatureSet`] is
//! that row's feature payload: extract once, compare per-kind, serialise
//! per-kind.

use crate::correlogram::AutoColorCorrelogram;
use crate::descriptor::{DescriptorRef, FeatureKind};
use crate::error::{FeatureError, Result};
use crate::gabor::GaborTexture;
use crate::glcm::GlcmTexture;
use crate::histogram::ColorHistogram;
use crate::naive::NaiveSignature;
use crate::region::RegionGrowing;
use crate::tamura::TamuraTexture;
use cbvr_imgproc::RgbImage;

/// All seven descriptors of one key frame.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureSet {
    /// §4.5 simple color histogram (`SCH` column).
    pub histogram: ColorHistogram,
    /// §4.3 GLCM texture (`GLCM` column).
    pub glcm: GlcmTexture,
    /// §4.4 Gabor texture (`GABOR` column).
    pub gabor: GaborTexture,
    /// Tamura texture (`TAMURA` column).
    pub tamura: TamuraTexture,
    /// §4.7 auto color correlogram.
    pub correlogram: AutoColorCorrelogram,
    /// §4.6 naive signature.
    pub naive: NaiveSignature,
    /// §4.8 region census (`MAJORREGIONS` column).
    pub regions: RegionGrowing,
}

impl FeatureSet {
    /// Extract every feature from a frame.
    pub fn extract(img: &RgbImage) -> FeatureSet {
        FeatureSet {
            histogram: ColorHistogram::extract(img),
            glcm: GlcmTexture::extract(img),
            gabor: GaborTexture::extract(img),
            tamura: TamuraTexture::extract(img),
            correlogram: AutoColorCorrelogram::extract(img),
            naive: NaiveSignature::extract(img),
            regions: RegionGrowing::extract(img),
        }
    }

    /// Borrow one descriptor by kind, without cloning its payload.
    pub fn descriptor_ref(&self, kind: FeatureKind) -> DescriptorRef<'_> {
        match kind {
            FeatureKind::ColorHistogram => DescriptorRef::ColorHistogram(&self.histogram),
            FeatureKind::Glcm => DescriptorRef::Glcm(&self.glcm),
            FeatureKind::Gabor => DescriptorRef::Gabor(&self.gabor),
            FeatureKind::Tamura => DescriptorRef::Tamura(&self.tamura),
            FeatureKind::Correlogram => DescriptorRef::Correlogram(&self.correlogram),
            FeatureKind::Naive => DescriptorRef::Naive(&self.naive),
            FeatureKind::Regions => DescriptorRef::Regions(&self.regions),
        }
    }

    /// Native per-kind distance between two feature sets.
    pub fn distance(&self, other: &FeatureSet, kind: FeatureKind) -> f64 {
        match kind {
            FeatureKind::ColorHistogram => self.histogram.distance(&other.histogram),
            FeatureKind::Glcm => self.glcm.distance(&other.glcm),
            FeatureKind::Gabor => self.gabor.distance(&other.gabor),
            FeatureKind::Tamura => self.tamura.distance(&other.tamura),
            FeatureKind::Correlogram => self.correlogram.distance(&other.correlogram),
            FeatureKind::Naive => self.naive.distance(&other.naive),
            FeatureKind::Regions => self.regions.distance(&other.regions),
        }
    }

    /// Serialise every feature to its Oracle-style string, in
    /// [`FeatureKind::ALL`] order.
    pub fn to_feature_strings(&self) -> Vec<(FeatureKind, String)> {
        FeatureKind::ALL
            .iter()
            .map(|&k| (k, self.descriptor_ref(k).to_feature_string()))
            .collect()
    }

    /// Rebuild a set from per-kind feature strings (order-insensitive;
    /// every kind must appear exactly once).
    pub fn from_feature_strings<'a>(
        strings: impl IntoIterator<Item = (FeatureKind, &'a str)>,
    ) -> Result<FeatureSet> {
        let mut histogram = None;
        let mut glcm = None;
        let mut gabor = None;
        let mut tamura = None;
        let mut correlogram = None;
        let mut naive = None;
        let mut regions = None;
        for (kind, s) in strings {
            match kind {
                FeatureKind::ColorHistogram => histogram = Some(ColorHistogram::parse(s)?),
                FeatureKind::Glcm => glcm = Some(GlcmTexture::parse(s)?),
                FeatureKind::Gabor => gabor = Some(GaborTexture::parse(s)?),
                FeatureKind::Tamura => tamura = Some(TamuraTexture::parse(s)?),
                FeatureKind::Correlogram => correlogram = Some(AutoColorCorrelogram::parse(s)?),
                FeatureKind::Naive => naive = Some(NaiveSignature::parse(s)?),
                FeatureKind::Regions => regions = Some(RegionGrowing::parse(s)?),
            }
        }
        let missing = |name: &str| FeatureError::Parse(format!("missing {name} feature"));
        Ok(FeatureSet {
            histogram: histogram.ok_or_else(|| missing("histogram"))?,
            glcm: glcm.ok_or_else(|| missing("glcm"))?,
            gabor: gabor.ok_or_else(|| missing("gabor"))?,
            tamura: tamura.ok_or_else(|| missing("tamura"))?,
            correlogram: correlogram.ok_or_else(|| missing("correlogram"))?,
            naive: naive.ok_or_else(|| missing("naive"))?,
            regions: regions.ok_or_else(|| missing("regions"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::Rgb;

    fn sample(seed: u8) -> RgbImage {
        RgbImage::from_fn(32, 32, |x, y| {
            Rgb::new(
                (x * 8).wrapping_add(seed as u32) as u8,
                (y * 8) as u8,
                ((x + y) * 4) as u8,
            )
        })
        .unwrap()
    }

    #[test]
    fn self_distance_zero_for_all_kinds() {
        let set = FeatureSet::extract(&sample(0));
        for k in FeatureKind::ALL {
            assert_eq!(set.distance(&set, k), 0.0, "{k}");
        }
    }

    #[test]
    fn string_bundle_round_trip() {
        let set = FeatureSet::extract(&sample(3));
        let strings = set.to_feature_strings();
        assert_eq!(strings.len(), 7);
        let back =
            FeatureSet::from_feature_strings(strings.iter().map(|(k, s)| (*k, s.as_str()))).unwrap();
        for k in FeatureKind::ALL {
            assert!(set.distance(&back, k) < 1e-9, "{k}");
        }
    }

    #[test]
    fn missing_feature_string_is_rejected() {
        let set = FeatureSet::extract(&sample(1));
        let mut strings = set.to_feature_strings();
        strings.pop();
        let err = FeatureSet::from_feature_strings(strings.iter().map(|(k, s)| (*k, s.as_str())));
        assert!(err.is_err());
    }

    #[test]
    fn parse_with_wrong_kind_fails() {
        let strings = FeatureSet::extract(&sample(2)).to_feature_strings();
        let swapped = |kind| match kind {
            FeatureKind::Glcm => FeatureKind::Gabor,
            FeatureKind::Gabor => FeatureKind::Glcm,
            other => other,
        };
        // Parsed in either order, whichever swapped string comes first
        // is rejected by the other kind's parser.
        let pairs = || strings.iter().map(|(k, s)| (swapped(*k), s.as_str()));
        assert!(FeatureSet::from_feature_strings(pairs()).is_err());
        assert!(FeatureSet::from_feature_strings(pairs().rev()).is_err());
    }
}
