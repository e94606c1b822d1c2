//! Typed configuration errors.
//!
//! Every layer of the simulated machine — hierarchy, core, full system —
//! validates its parameters against the same small vocabulary of defects
//! instead of panicking deep inside the timing model. A [`ConfigError`]
//! names the offending field and the constraint it violates, so callers
//! (the sweep engine, the experiment harness, a service endpoint) can
//! reject an impossible machine before spending cycles simulating it.

use std::fmt;

/// A machine-configuration parameter that cannot describe real hardware.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A field that must be a power of two is not.
    NotPowerOfTwo {
        /// Name of the offending parameter.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A field that must be nonzero is zero.
    ZeroField {
        /// Name of the offending parameter.
        field: &'static str,
    },
    /// The L1 line size exceeds the L2 line size, so an L1 fill could not
    /// be satisfied from a single L2 line.
    LineSizeMismatch {
        /// Configured L1 line size in bytes.
        l1_line: u64,
        /// Configured L2 line size in bytes.
        l2_line: u64,
    },
    /// A field is outside its meaningful range.
    OutOfRange {
        /// Name of the offending parameter.
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// A floating-point field is not a positive finite number.
    NotPositiveFinite {
        /// Name of the offending parameter.
        field: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} must be a power of two, got {value}")
            }
            ConfigError::ZeroField { field } => write!(f, "{field} must be nonzero"),
            ConfigError::LineSizeMismatch { l1_line, l2_line } => write!(
                f,
                "L1 line size ({l1_line} B) must not exceed L2 line size ({l2_line} B)"
            ),
            ConfigError::OutOfRange {
                field,
                value,
                min,
                max,
            } => {
                write!(f, "{field} must be in {min}..={max}, got {value}")
            }
            ConfigError::NotPositiveFinite { field } => {
                write!(f, "{field} must be a positive finite number")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let cases: Vec<(ConfigError, &str)> = vec![
            (
                ConfigError::NotPowerOfTwo {
                    field: "l1 line size",
                    value: 48,
                },
                "l1 line size",
            ),
            (ConfigError::ZeroField { field: "l1_mshrs" }, "l1_mshrs"),
            (
                ConfigError::LineSizeMismatch {
                    l1_line: 64,
                    l2_line: 32,
                },
                "64 B",
            ),
            (
                ConfigError::OutOfRange {
                    field: "page_bits",
                    value: 99,
                    min: 1,
                    max: 63,
                },
                "page_bits",
            ),
            (
                ConfigError::NotPositiveFinite { field: "clock_ghz" },
                "clock_ghz",
            ),
        ];
        for (err, needle) in cases {
            assert!(format!("{err}").contains(needle), "{err:?}");
        }
    }

    #[test]
    fn implements_error_trait() {
        let err: Box<dyn std::error::Error> = Box::new(ConfigError::ZeroField { field: "x" });
        assert!(err.to_string().contains("x"));
    }
}
