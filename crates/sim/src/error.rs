//! The typed error layer of the simulator.
//!
//! Every failure a caller can reach through the public runner API is one
//! of three kinds, unified under [`SimError`]:
//!
//! * [`ConfigError`] — the requested machine cannot exist (re-exported
//!   from `tcp-cache`, where the hierarchy and core validate themselves);
//! * [`TraceError`] — persisted miss-trace bytes are corrupt (re-exported
//!   from `tcp-analysis`);
//! * [`RunError`] — the simulation itself failed: a benchmark panicked, a
//!   run stopped making forward progress, or a derived statistic is
//!   undefined (zero-IPC baseline).
//!
//! The experiment harness's sweep engine never propagates these as
//! panics from its fallible entry points: each job's failure is that
//! job's verdict, so one bad workload cannot take down a 26-benchmark
//! batch.

use std::fmt;

pub use tcp_analysis::TraceError;
pub use tcp_cache::ConfigError;

/// Any error the simulation layer can surface.
#[derive(Debug)]
pub enum SimError {
    /// The machine configuration is invalid.
    Config(ConfigError),
    /// A persisted miss trace could not be read.
    Trace(TraceError),
    /// A simulation run failed.
    Run(RunError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "configuration error: {e}"),
            SimError::Trace(e) => write!(f, "trace error: {e}"),
            SimError::Run(e) => write!(f, "run error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Trace(e) => Some(e),
            SimError::Run(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

impl From<RunError> for SimError {
    fn from(e: RunError) -> Self {
        SimError::Run(e)
    }
}

/// A failure during (or derived from) a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The benchmark's workload or the simulator panicked; the panic was
    /// caught at the run boundary.
    Panicked {
        /// Benchmark that was running.
        benchmark: String,
        /// The panic payload, as text.
        reason: String,
    },
    /// The watchdog aborted a run that stopped making forward progress:
    /// the cycles-per-committed-op ratio exceeded the configured cap.
    Wedged {
        /// Benchmark that was running.
        benchmark: String,
        /// Ops committed when the watchdog fired.
        ops: u64,
        /// Cycles elapsed when the watchdog fired.
        cycles: u64,
        /// The cap that was exceeded.
        max_cycles_per_op: u64,
    },
    /// An IPC-improvement figure was requested against a baseline whose
    /// IPC is not positive, which would divide by zero.
    ZeroBaselineIpc {
        /// Benchmark whose baseline IPC is degenerate.
        benchmark: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panicked { benchmark, reason } => {
                write!(f, "benchmark '{benchmark}' panicked: {reason}")
            }
            RunError::Wedged {
                benchmark,
                ops,
                cycles,
                max_cycles_per_op,
            } => write!(
                f,
                "benchmark '{benchmark}' wedged: {cycles} cycles for {ops} committed ops \
                 exceeds the watchdog cap of {max_cycles_per_op} cycles/op"
            ),
            RunError::ZeroBaselineIpc { benchmark } => {
                write!(f, "baseline IPC for '{benchmark}' is not positive")
            }
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_delegates_to_inner() {
        let e = SimError::Config(ConfigError::ZeroField { field: "l1_mshrs" });
        assert!(e.to_string().contains("l1_mshrs"));
        let e = SimError::Run(RunError::Panicked {
            benchmark: "gzip".into(),
            reason: "boom".into(),
        });
        assert!(e.to_string().contains("gzip") && e.to_string().contains("boom"));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = SimError::from(RunError::ZeroBaselineIpc {
            benchmark: "art".into(),
        });
        assert!(e.source().unwrap().to_string().contains("art"));
        let e = SimError::from(ConfigError::ZeroField { field: "window" });
        assert!(e.source().is_some());
    }

    #[test]
    fn wedged_display_names_the_numbers() {
        let e = RunError::Wedged {
            benchmark: "mcf".into(),
            ops: 100,
            cycles: 2_000_000,
            max_cycles_per_op: 10_000,
        };
        let s = e.to_string();
        assert!(s.contains("mcf") && s.contains("2000000") && s.contains("10000"));
    }
}
