//! Shared helpers for the benchmark harness — the perf layer of the
//! workspace (see `ARCHITECTURE.md` for where it sits in the crate graph).
//!
//! Two kinds of targets live in this crate:
//!
//! * **Criterion benches** (`benches/*`): each regenerates one of the
//!   paper's tables/figures (at reduced fidelity where a full FVM study
//!   would dominate the run) and then measures the underlying kernel —
//!   solver ablations, mesh/layout sweeps, SNR evaluation. The
//!   full-fidelity reproductions live in the `src/bin` report binaries of
//!   the root crate.
//! * **The `perf_record` binary** (`src/bin/perf_record.rs`): emits
//!   `BENCH_solvers.json` (schema `bench_solvers_v12`), the committed
//!   machine-readable record of the solve-engine trajectory — steady
//!   cold/warm solves per preconditioner, IC(0)-vs-multigrid at full-die
//!   fast fidelity, the engine-cache cold-build-vs-warm-restore A/B, the
//!   batched DSE sweep, the 200-step engine transient next to the frozen
//!   seed-path row, and (env-gated) the paper-fidelity solve with its
//!   shared-operator memory story and artifact-restore timing. CI runs it
//!   in reduced form on every push and its assertions are the perf
//!   regression gate.
//!
//! The helpers below share one reduced-scale [`ThermalStudy`] across bench
//! targets so each doesn't pay the multi-solve construction.

use std::sync::OnceLock;

use vcsel_arch::SccConfig;
use vcsel_core::{DesignFlow, ThermalStudy};
use vcsel_thermal::Simulator;

/// A shared reduced-scale thermal study (2 ONIs, tiny mesh) so bench
/// targets don't each pay the multi-solve construction.
pub fn tiny_study() -> &'static ThermalStudy {
    static STUDY: OnceLock<ThermalStudy> = OnceLock::new();
    STUDY.get_or_init(|| {
        ThermalStudy::new(SccConfig::tiny_test(), &Simulator::new()).expect("study builds")
    })
}

/// A shared reduced-scale study with 4 ONIs (enough for real crosstalk).
pub fn tiny_study_4oni() -> &'static (DesignFlow, ThermalStudy) {
    static STUDY: OnceLock<(DesignFlow, ThermalStudy)> = OnceLock::new();
    STUDY.get_or_init(|| {
        let flow = DesignFlow::paper();
        let study = ThermalStudy::new(
            SccConfig { oni_count: 4, ..SccConfig::tiny_test() },
            flow.simulator(),
        )
        .expect("study builds");
        (flow, study)
    })
}
