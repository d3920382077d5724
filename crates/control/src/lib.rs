//! Run-time thermal management for VCSEL-based optical interconnect.
//!
//! The paper's contribution is a *design-time* methodology: size the MR
//! heater power and VCSEL current so the interconnect tolerates the thermal
//! field. Its Section II surveys the *run-time* alternatives the community
//! uses instead — and this crate implements them, so the design-time
//! methodology can be quantitatively compared against each one:
//!
//! | Technique | Paper ref | Module |
//! |---|---|---|
//! | Feedback ring stabilization | \[12\] Padmaraju et al. | [`CalibrationLoop`] |
//! | ONoC channel remapping | \[15\] Zhang et al. | [`remap_channels`] |
//! | DVFS + workload migration | \[16\] Li et al. | [`dvfs_cap`], [`migrate_workload`] |
//! | Thermally-aware job allocation | \[14\] Zhang et al. | [`allocate_jobs`] |
//!
//! The control loops run on a lumped RC plant ([`LumpedPlant`]) whose
//! coefficients are sized from the paper's device geometry; the
//! steady-state policies run on the linear [`InfluenceModel`], which
//! [`InfluenceModel::calibrate`] fits to any power → temperature oracle,
//! the full FVM simulator included, with one query per tile. The crate
//! does not depend on the thermal simulator: the scenario engine in
//! `vcsel_core` runs these models against the FVM transient.
//!
//! # Example: closed-loop ring lock vs design-time heater
//!
//! ```
//! use vcsel_control::{CalibrationConfig, CalibrationLoop, LumpedPlant};
//! use vcsel_units::{Celsius, TemperatureDelta, Watts};
//!
//! let mut plant = LumpedPlant::oni_island(4, 4, Celsius::new(50.0))?;
//! let mut d = vec![Watts::ZERO; 8];
//! for laser in d.iter_mut().skip(4) { *laser = Watts::from_milliwatts(3.6); }
//! plant.set_disturbance(&d)?;
//!
//! let target = CalibrationLoop::auto_target(
//!     &plant, &[Watts::ZERO; 8], &[0, 1, 2, 3], TemperatureDelta::new(0.5))?;
//! let mut cal = CalibrationLoop::new(target, &[0, 1, 2, 3], CalibrationConfig::default())?;
//! let outcome = cal.run(&mut plant)?;
//! assert!(outcome.locked);
//! println!(
//!     "locked in {:.1} ms at {} total heater power",
//!     outcome.settle_time_s.unwrap() * 1e3,
//!     outcome.total_heater_power,
//! );
//! # Ok::<(), vcsel_control::ControlError>(())
//! ```

// Lint levels (forbid(unsafe_code), warn(missing_docs), the clippy set)
// come from [workspace.lints] in the root Cargo.toml.

mod allocation;
mod calibration;
mod dvfs;
mod error;
mod influence;
mod pi;
mod plant;
mod remap;

pub use allocation::{allocate_jobs, AllocationPolicy, AllocationResult, Job};
pub use calibration::{CalibrationConfig, CalibrationLoop, CalibrationOutcome};
pub use dvfs::{dvfs_cap, migrate_workload, DvfsResult, MigrationConfig, MigrationResult};
pub use error::ControlError;
pub use influence::InfluenceModel;
pub use pi::PiController;
pub use plant::{LumpedPlant, LumpedPlantBuilder};
pub use remap::{remap_channels, RemapConfig, RemapResult};
