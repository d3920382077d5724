//! Per-solve metric records and process-level snapshots.
//!
//! Spans answer *where the wall-clock went*; a [`SolveSample`] answers
//! *where the iterations went* for one linear solve: which rung answered,
//! how many CG iterations (and measured SpMV / preconditioner-apply /
//! V-cycle / triangular-solve counts) it burned, how good the warm start
//! was, and — in full trace mode — the entire per-iteration residual
//! history. Samples are recorded once per solve on the cold path, so they
//! may own heap data (`String` labels, `Vec` histories) that the ring
//! events cannot.

/// One rung's attempt inside a ladder solve, as recorded in a
/// [`SolveSample`] (mirrors `vcsel_numerics::RungAttempt` without the
/// dependency).
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptSample {
    /// Preconditioner name of the rung (`"multigrid"`, `"ic0"`, …).
    pub rung: &'static str,
    /// CG iterations the attempt consumed.
    pub iterations: u64,
    /// Relative residual when the attempt ended.
    pub residual: f64,
    /// How the attempt ended (`"converged"`, `"stalled"`, …).
    pub outcome: &'static str,
}

/// Metrics of one linear solve (steady field or transient step).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSample {
    /// What was solved, e.g. `"steady/basis 3"` or `"transient/step 12"`.
    pub label: String,
    /// Category the sample exports under (matches the enclosing span).
    pub cat: &'static str,
    /// Solve start, nanoseconds since the trace anchor.
    pub start_ns: u64,
    /// Solve wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Rung that produced the final iterate (`"ic0"`, `"multigrid"`, …).
    pub solver: &'static str,
    /// System size (unknowns).
    pub unknowns: u64,
    /// CG iterations of the final (deciding) attempt.
    pub iterations: u64,
    /// CG iterations across every attempt, including failed rungs.
    pub total_iterations: u64,
    /// Rungs retired during this solve.
    pub escalations: u64,
    /// Whether the final attempt met the tolerance.
    pub converged: bool,
    /// Final relative residual.
    pub residual: f64,
    /// Relative residual *before* the first iteration — the warm-start hit
    /// quality (1.0 for a cold start, ≪ 1 for a good warm start). NaN when
    /// the history was not captured.
    pub initial_residual: f64,
    /// Per-iteration relative residuals of the final attempt (captured in
    /// full trace mode only; empty otherwise).
    pub residual_history: Vec<f64>,
    /// Every rung attempt of the solve, in order.
    pub attempts: Vec<AttemptSample>,
    /// Operator sweeps performed, summed over attempts as the CG kernel
    /// measured them: one per iteration, plus one for the warm-start
    /// residual unless every guess was zero. A multi-column solve's sweep
    /// serves up to eight columns at once.
    pub spmv: u64,
    /// Preconditioner applications performed, counted per column and
    /// summed over attempts: one per active column per iteration plus the
    /// initial apply.
    pub precond_applies: u64,
    /// Multigrid V-cycles consumed (preconditioner applies of the
    /// multigrid rungs; zero when no multigrid rung ran).
    pub vcycles: u64,
    /// Sparse triangular solves consumed (two per IC(0) apply; zero
    /// for Jacobi/multigrid rungs).
    pub trisolves: u64,
}

impl Default for SolveSample {
    fn default() -> Self {
        Self {
            label: String::new(),
            cat: "solver",
            start_ns: 0,
            dur_ns: 0,
            solver: "",
            unknowns: 0,
            iterations: 0,
            total_iterations: 0,
            escalations: 0,
            converged: false,
            residual: f64::NAN,
            initial_residual: f64::NAN,
            residual_history: Vec::new(),
            attempts: Vec::new(),
            spmv: 0,
            precond_applies: 0,
            vcycles: 0,
            trisolves: 0,
        }
    }
}

/// Peak resident-set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024.0);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sample_is_inert() {
        let s = SolveSample::default();
        assert!(s.residual.is_nan());
        assert!(s.initial_residual.is_nan());
        assert!(s.residual_history.is_empty());
        assert_eq!(s.escalations, 0);
    }

    #[test]
    fn peak_rss_reads_procfs_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            let mb = peak_rss_mb().expect("VmHWM present on Linux");
            assert!(mb > 0.0 && mb < 1_000_000.0, "implausible peak RSS: {mb} MiB");
        }
    }
}
