//! Error type for feature extraction and feature-string parsing.

use std::fmt;

/// Errors produced by descriptor extraction and parsing.
#[derive(Debug)]
pub enum FeatureError {
    /// A feature string (the Oracle `VARCHAR2` serialisation) failed to
    /// parse back into a descriptor.
    Parse(String),
    /// Propagated image error.
    Image(cbvr_imgproc::ImgError),
}

impl fmt::Display for FeatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureError::Parse(m) => write!(f, "feature string parse error: {m}"),
            FeatureError::Image(e) => write!(f, "image error: {e}"),
        }
    }
}

impl std::error::Error for FeatureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FeatureError::Image(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cbvr_imgproc::ImgError> for FeatureError {
    fn from(e: cbvr_imgproc::ImgError) -> Self {
        FeatureError::Image(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, FeatureError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(FeatureError::Parse("bad token".into())
            .to_string()
            .contains("bad token"));
    }
}
