//! Error type for the run-time management algorithms.

use core::fmt;

/// Errors produced by the run-time thermal-management algorithms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControlError {
    /// A configuration parameter is outside its valid range.
    BadParameter {
        /// Explanation of what is wrong.
        reason: String,
    },
    /// Input arrays have inconsistent lengths.
    DimensionMismatch {
        /// What was mismatched.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// An underlying network analysis failed.
    Network(vcsel_network::NetworkError),
    /// An underlying numerical routine failed.
    Numerics(vcsel_numerics::NumericsError),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadParameter { reason } => write!(f, "bad parameter: {reason}"),
            Self::DimensionMismatch { what, expected, got } => {
                write!(f, "dimension mismatch for {what}: expected {expected}, got {got}")
            }
            Self::Network(e) => write!(f, "network analysis failed: {e}"),
            Self::Numerics(e) => write!(f, "numerical routine failed: {e}"),
        }
    }
}

impl std::error::Error for ControlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Network(e) => Some(e),
            Self::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vcsel_network::NetworkError> for ControlError {
    fn from(e: vcsel_network::NetworkError) -> Self {
        Self::Network(e)
    }
}

impl From<vcsel_numerics::NumericsError> for ControlError {
    fn from(e: vcsel_numerics::NumericsError) -> Self {
        Self::Numerics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ControlError::BadParameter { reason: "negative gain".into() };
        assert!(e.to_string().contains("negative gain"));
        let e = ControlError::DimensionMismatch { what: "temps", expected: 4, got: 3 };
        assert!(e.to_string().contains("temps"));
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<ControlError>();
    }
}
