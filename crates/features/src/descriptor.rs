//! Unified descriptor type over the seven features.
//!
//! The retrieval pipeline treats features uniformly: extract, measure a
//! distance, serialise to the Oracle-style feature string and parse back.
//! [`FeatureKind`] names the feature, [`DescriptorRef`] borrows one value
//! out of a [`crate::FeatureSet`].

use crate::correlogram::AutoColorCorrelogram;
use crate::gabor::GaborTexture;
use crate::glcm::GlcmTexture;
use crate::histogram::ColorHistogram;
use crate::naive::NaiveSignature;
use crate::region::RegionGrowing;
use crate::tamura::TamuraTexture;

/// The seven features of the paper (Table 1 columns).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FeatureKind {
    /// Simple color histogram (§4.5) — Table 1 "Histogram".
    ColorHistogram,
    /// GLCM texture (§4.3).
    Glcm,
    /// Gabor texture (§4.4).
    Gabor,
    /// Tamura texture.
    Tamura,
    /// Auto color correlogram (§4.7).
    Correlogram,
    /// Superficial (naive) signature (§4.6).
    Naive,
    /// Simple region growing (§4.8).
    Regions,
}

impl FeatureKind {
    /// All kinds in Table 1 order (Histogram appears fourth there, but a
    /// stable fixed order is what matters for iteration).
    pub const ALL: [FeatureKind; 7] = [
        FeatureKind::Glcm,
        FeatureKind::Gabor,
        FeatureKind::Tamura,
        FeatureKind::ColorHistogram,
        FeatureKind::Correlogram,
        FeatureKind::Regions,
        FeatureKind::Naive,
    ];

    /// Stable snake-case name, used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FeatureKind::ColorHistogram => "histogram",
            FeatureKind::Glcm => "glcm",
            FeatureKind::Gabor => "gabor",
            FeatureKind::Tamura => "tamura",
            FeatureKind::Correlogram => "autocorrelogram",
            FeatureKind::Naive => "naive",
            FeatureKind::Regions => "region_growing",
        }
    }

    /// Parse a [`FeatureKind::name`] back.
    pub fn from_name(s: &str) -> Option<FeatureKind> {
        FeatureKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    /// Table 1 column label.
    pub fn table1_label(self) -> &'static str {
        match self {
            FeatureKind::ColorHistogram => "Histogram",
            FeatureKind::Glcm => "GLCM",
            FeatureKind::Gabor => "Gabor",
            FeatureKind::Tamura => "Tamura",
            FeatureKind::Correlogram => "Autocorrelogram",
            FeatureKind::Naive => "Naive",
            FeatureKind::Regions => "Simple Region Growing",
        }
    }
}

impl std::fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A borrowed view of one feature descriptor.
///
/// [`crate::FeatureSet::descriptor_ref`] yields this without cloning the
/// payload (histograms and correlograms are hundreds of floats), so
/// serialisation can dispatch by kind at zero copy.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum DescriptorRef<'a> {
    /// §4.5 simple color histogram.
    ColorHistogram(&'a ColorHistogram),
    /// §4.3 GLCM texture statistics.
    Glcm(&'a GlcmTexture),
    /// §4.4 Gabor filter-bank texture.
    Gabor(&'a GaborTexture),
    /// Tamura texture.
    Tamura(&'a TamuraTexture),
    /// §4.7 auto color correlogram.
    Correlogram(&'a AutoColorCorrelogram),
    /// §4.6 naive 25-point signature.
    Naive(&'a NaiveSignature),
    /// §4.8 region growing census.
    Regions(&'a RegionGrowing),
}

impl<'a> DescriptorRef<'a> {
    /// Which feature this descriptor is.
    pub fn kind(&self) -> FeatureKind {
        match self {
            DescriptorRef::ColorHistogram(_) => FeatureKind::ColorHistogram,
            DescriptorRef::Glcm(_) => FeatureKind::Glcm,
            DescriptorRef::Gabor(_) => FeatureKind::Gabor,
            DescriptorRef::Tamura(_) => FeatureKind::Tamura,
            DescriptorRef::Correlogram(_) => FeatureKind::Correlogram,
            DescriptorRef::Naive(_) => FeatureKind::Naive,
            DescriptorRef::Regions(_) => FeatureKind::Regions,
        }
    }

    /// The Oracle `VARCHAR2` serialisation (Fig. 8 formats).
    pub fn to_feature_string(&self) -> String {
        match self {
            DescriptorRef::ColorHistogram(d) => d.to_feature_string(),
            DescriptorRef::Glcm(d) => d.to_feature_string(),
            DescriptorRef::Gabor(d) => d.to_feature_string(),
            DescriptorRef::Tamura(d) => d.to_feature_string(),
            DescriptorRef::Correlogram(d) => d.to_feature_string(),
            DescriptorRef::Naive(d) => d.to_feature_string(),
            DescriptorRef::Regions(d) => d.to_feature_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureSet;
    use cbvr_imgproc::{Rgb, RgbImage};

    fn sample() -> RgbImage {
        RgbImage::from_fn(32, 32, |x, y| {
            Rgb::new((x * 8) as u8, (y * 8) as u8, ((x + y) * 4) as u8)
        })
        .unwrap()
    }

    #[test]
    fn kind_round_trips_names() {
        for k in FeatureKind::ALL {
            assert_eq!(FeatureKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FeatureKind::from_name("bogus"), None);
    }

    #[test]
    fn extract_reports_matching_kind() {
        let set = FeatureSet::extract(&sample());
        for k in FeatureKind::ALL {
            assert_eq!(set.descriptor_ref(k).kind(), k);
        }
    }

    #[test]
    fn table1_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            FeatureKind::ALL.iter().map(|k| k.table1_label()).collect();
        assert_eq!(labels.len(), FeatureKind::ALL.len());
    }
}
