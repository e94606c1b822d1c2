//! Experiment scale: how many micro-ops to simulate per benchmark.
//!
//! The paper simulates 2 billion instructions per benchmark after a
//! 1-billion-instruction warm-up. This reproduction defaults to a few
//! million micro-ops per benchmark — enough for every workload to cycle
//! its working set several times and for the prefetchers to train — and
//! lets `TCP_REPRO_OPS` scale runs up or down.

use std::env::{self, VarError};

/// The environment variable that sets [`Scale::ops`].
const OPS_VAR: &str = "TCP_REPRO_OPS";

/// Micro-ops per benchmark, shared by the full-system (IPC) and the
/// trace-characterisation experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Measured micro-ops per benchmark.
    pub ops: u64,
}

impl Scale {
    /// The scale `TCP_REPRO_OPS` sets, or the default when it is unset.
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable when it is set but is not a
    /// positive integer (`4e6`, `1_000_000`, `0`): a typo must not turn a
    /// quick run into a default-scale one.
    pub fn from_env() -> Result<Self, String> {
        match env::var(OPS_VAR) {
            Err(VarError::NotPresent) => Ok(Scale::default()),
            Ok(s) => Self::parse(&s),
            Err(VarError::NotUnicode(s)) => Err(invalid(&s.to_string_lossy())),
        }
    }

    /// Parses a `TCP_REPRO_OPS` value.
    fn parse(s: &str) -> Result<Self, String> {
        match s.parse::<u64>() {
            Ok(ops) if ops > 0 => Ok(Scale { ops }),
            _ => Err(invalid(s)),
        }
    }

    /// Per-point budget of the many-point sweeps (Figure 13's 18 PHT
    /// configurations and the ablations): half of [`Self::ops`], but
    /// never below 100,000 so every point still trains its prefetcher.
    pub fn sweep_ops(self) -> u64 {
        (self.ops / 2).max(100_000)
    }
}

fn invalid(value: &str) -> String {
    format!("{OPS_VAR} must be a positive integer, got `{value}`")
}

impl Default for Scale {
    fn default() -> Self {
        Scale { ops: 4_000_000 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_millions() {
        assert!(Scale::default().ops >= 1_000_000);
    }

    #[test]
    fn positive_integers_parse() {
        assert_eq!(Scale::parse("40000"), Ok(Scale { ops: 40_000 }));
        assert_eq!(Scale::parse("1"), Ok(Scale { ops: 1 }));
    }

    #[test]
    fn anything_else_is_rejected_naming_the_variable() {
        for bad in ["4e6", "1_000_000", "0", "", "-5", " 40000", "lots"] {
            let err = Scale::parse(bad).expect_err(bad);
            assert!(err.contains("TCP_REPRO_OPS"), "{err}");
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn sweep_ops_halves_above_the_floor() {
        assert_eq!(Scale { ops: 4_000_000 }.sweep_ops(), 2_000_000);
        assert_eq!(Scale { ops: 40_000 }.sweep_ops(), 100_000);
    }
}
