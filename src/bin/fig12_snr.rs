//! Regenerates paper Figures 11 & 12: worst-case SNR plus signal/crosstalk
//! power for the three ONI placements (18 / 32.4 / 46.8 mm rings) under
//! uniform, diagonal and random chip activities, at the paper's operating
//! point (P_VCSEL = 3.6 mW, P_heater = 1.08 mW).
//!
//! Run with `cargo run --release --bin fig12_snr` (full-die
//! `Fidelity::Fast` by default). `--fidelity paper` (or
//! `FIGURE_FIDELITY=paper`) reproduces the paper's 5 µm meshing — nine
//! paper-scale thermal studies, a multi-hour campaign. Paper runs
//! checkpoint every completed (activity, placement) row under
//! `reports/checkpoints/`, so an interrupted sweep resumes at the first
//! missing point instead of restarting (`--fresh` discards checkpoints).
//! Each placement builds one solve engine and re-targets it across the
//! three activity patterns (`ThermalStudy::reconfigured`), so assembly and
//! multigrid-hierarchy setup are paid three times, not nine.

use vcsel_arch::Fidelity;
use vcsel_core::experiments::figure12_resumable;
use vcsel_core::{fidelity_label, DesignFlow, FigureCli};
use vcsel_numerics::solver::SolveOptions;
use vcsel_thermal::Simulator;
use vcsel_units::Watts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Root span drops at the end of `run`, then the trace flushes
    // (`finish_global` is a no-op unless VCSEL_TRACE=full).
    let result = run();
    vcsel_telemetry::finish_global("fig12");
    result
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let _root = vcsel_telemetry::global().span("report", "fig12");
    let cli = FigureCli::parse(Fidelity::Fast)?;
    let store = cli.checkpoints("fig12");

    // 1e-6 relative residual = micro-kelvin error; saves ~25 % of the CG
    // iterations over this 45-solve campaign.
    let simulator =
        Simulator::new().with_options(SolveOptions { tolerance: 1e-6, max_iterations: 50_000 });
    let flow = DesignFlow::paper().with_simulator(simulator);
    eprintln!(
        "running 9 thermal studies (3 activities x 3 placements) at {} fidelity ...",
        fidelity_label(cli.fidelity)
    );
    if let Some(s) = &store {
        eprintln!("checkpointing per-point rows under {} ...", s.dir().display());
    }
    let rows = figure12_resumable(&flow, cli.fidelity, Watts::new(12.5), store.as_ref())?;

    println!("=== Figure 12: worst-case SNR under activities x placements ===");
    println!(
        "{:>9} {:>11} {:>10} {:>13} {:>15} {:>11} {:>9}",
        "activity",
        "ring (mm)",
        "SNR (dB)",
        "signal (mW)",
        "crosstalk (mW)",
        "ΔT ONI (°C)",
        "detected"
    );
    for r in &rows {
        println!(
            "{:>9} {:>11.1} {:>10.1} {:>13.4} {:>15.6} {:>11.2} {:>9}",
            r.activity,
            r.ring_length_mm,
            r.worst_snr_db,
            r.signal_mw,
            r.crosstalk_mw,
            r.oni_spread_c,
            r.all_detected
        );
    }
    println!();
    println!(
        "paper shape: SNR falls with ring length; uniform > random > diagonal \
         (paper values: uniform 38/25/13 dB, diagonal 19/13/10 dB, random 20/17/12 dB)"
    );

    let suffix = if cli.fidelity == Fidelity::Fast {
        String::new()
    } else {
        format!("_{}", fidelity_label(cli.fidelity))
    };
    std::fs::create_dir_all("reports")?;
    let path = format!("reports/figure12{suffix}.json");
    std::fs::write(&path, serde_json::to_string_pretty(&rows)?)?;
    println!("wrote {path}");
    eprintln!("{}", vcsel_core::EngineCache::summary_line());
    Ok(())
}
