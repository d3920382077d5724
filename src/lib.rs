//! # vcsel-onoc
//!
//! A from-scratch Rust reproduction of *"Thermal Aware Design Method for
//! VCSEL-based On-Chip Optical Interconnect"* (Li et al., DATE 2015):
//! a 3D finite-volume thermal simulator, CMOS-compatible VCSEL / microring
//! device models, the ORNoC ring interconnect with its worst-case SNR
//! analysis, the Intel-SCC case-study architecture, and the thermal-aware
//! design methodology tying them together.
//!
//! This crate is a facade: it re-exports the member crates under stable
//! module names. See the README for the architecture overview and the
//! `examples/` directory for runnable entry points.
//!
//! ```no_run
//! use vcsel_onoc::prelude::*;
//!
//! let flow = DesignFlow::paper();
//! let study = ThermalStudy::new(SccConfig::default(), flow.simulator())?;
//! let outcome = study.evaluate(
//!     Watts::from_milliwatts(3.6),
//!     Watts::from_milliwatts(1.08),
//!     Watts::new(25.0),
//! )?;
//! println!("worst gradient: {}", outcome.worst_gradient());
//! # Ok::<(), vcsel_onoc::core::FlowError>(())
//! ```

// Lint levels (forbid(unsafe_code), warn(missing_docs), the clippy set)
// come from [workspace.lints] in the root Cargo.toml.

/// Physical-quantity newtypes.
pub use vcsel_units as units;

/// Sparse linear algebra, solvers, interpolation, optimization.
pub use vcsel_numerics as numerics;

/// The finite-volume thermal simulator (IcTherm-equivalent).
pub use vcsel_thermal as thermal;

/// VCSEL / microring / photodetector / waveguide device models.
pub use vcsel_photonics as photonics;

/// ORNoC topology, wavelength assignment, SNR analysis, baselines.
pub use vcsel_network as network;

/// SCC case-study architecture, package stack, activities.
pub use vcsel_arch as arch;

/// The thermal-aware design methodology (the paper's contribution).
pub use vcsel_core as core;

/// Run-time thermal management: feedback calibration \[12\], channel
/// remapping \[15\], DVFS/migration \[16\], job allocation \[14\].
pub use vcsel_control as control;

/// The most common imports, bundled.
pub mod prelude {
    pub use vcsel_arch::{Activity, Fidelity, OniLayout, PlacementCase, SccConfig, SccSystem};
    pub use vcsel_control::{CalibrationLoop, InfluenceModel, LumpedPlant};
    pub use vcsel_core::{DesignFlow, HeaterExploration, SnrSummary, ThermalOutcome, ThermalStudy};
    pub use vcsel_network::{RingTopology, SnrAnalyzer, WavelengthGrid};
    pub use vcsel_photonics::{
        BerModel, LinkReliability, MicroringResonator, Photodetector, TechnologyParams, Vcsel,
    };
    pub use vcsel_thermal::{
        Block, Boundary, BoundaryCondition, BoxRegion, Design, Material, MeshSpec, Simulator,
        ThermalMap,
    };
    pub use vcsel_units::{
        Amperes, Celsius, Dbm, Decibels, Meters, Nanometers, TemperatureDelta, Watts,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = Vcsel::paper_default();
        let _ = TechnologyParams::paper();
        let _ = Watts::from_milliwatts(3.6);
        let _ = SccConfig::default();
    }
}
