//! 3D steady-state finite-volume thermal simulator for stacked
//! MPSoC + photonic-layer designs.
//!
//! This crate is the reproduction of **IcTherm** — the (closed-source)
//! simulator the paper uses for its thermal maps. Like IcTherm it:
//!
//! * represents the system as rectangular [`Block`]s (package, dies, BEOL,
//!   TSVs, VCSELs, microrings, drivers…), each with a constitutive
//!   [`Material`] and an optional dissipated power,
//! * discretizes the steady-state heat equation ∇·(k∇T) + q = 0 with the
//!   **Finite Volume Method** on a non-uniform rectilinear mesh
//!   ([`Mesh`], [`MeshSpec`]) whose resolution follows the structure:
//!   ~5 µm cells over the optical network interfaces, ~100 µm over the die,
//!   ~500 µm over the package,
//! * solves the resulting sparse SPD system with preconditioned conjugate
//!   gradient and returns a full-chip [`ThermalMap`] from which gradient and
//!   average temperatures of any region can be extracted (paper Figure 4).
//!
//! The crate's center of gravity is the cached solve engine: every
//! workload follows the mesh → assembly → [`SolveContext`] →
//! preconditioner-selection pipeline, where the context assembles the SPD
//! operator once, holds it behind a shared handle (the multigrid
//! hierarchy aliases it rather than cloning it), picks
//! IC(0) below [`SolveContext::MULTIGRID_CELL_THRESHOLD`] unknowns and
//! the smoothed-aggregation multigrid hierarchy above it, and serves any
//! number of warm-started right-hand sides. Engine construction itself is
//! an explicit [`EngineBlueprint`] pipeline — build → artifact → restore —
//! so a process can serialize a factored engine and a later process can
//! restore it with zero factorizations (the persistent engine cache in
//! `vcsel_core` rides on this).
//!
//! Because steady-state conduction with temperature-independent
//! conductivities is *linear* in the injected powers, the crate also offers
//! [`ResponseBasis`]: solve once per power *group* and recombine scalar
//! multiples, which turns the paper's P_VCSEL × P_heater × P_chip design
//! sweeps into trivial vector arithmetic with *identical* results.
//!
//! # Quickstart
//!
//! ```
//! use vcsel_thermal::{
//!     Block, BoxRegion, Boundary, Design, Material, MeshSpec, Simulator,
//! };
//! use vcsel_units::{Celsius, Meters, Watts, WattsPerSquareMeterKelvin};
//!
//! // A 10 x 10 x 1 mm silicon slab dissipating 1 W, cooled from the top.
//! let region = BoxRegion::new(
//!     [Meters::ZERO, Meters::ZERO, Meters::ZERO],
//!     [Meters::from_millimeters(10.0), Meters::from_millimeters(10.0),
//!      Meters::from_millimeters(1.0)],
//! )?;
//! let mut design = Design::new(region, Material::SILICON)?;
//! design.set_boundary(
//!     Boundary::top(),
//!     vcsel_thermal::BoundaryCondition::Convective {
//!         h: WattsPerSquareMeterKelvin::new(1000.0),
//!         ambient: Celsius::new(40.0),
//!     },
//! );
//! let heater = BoxRegion::new(
//!     [Meters::from_millimeters(4.0), Meters::from_millimeters(4.0), Meters::ZERO],
//!     [Meters::from_millimeters(6.0), Meters::from_millimeters(6.0),
//!      Meters::from_millimeters(0.2)],
//! )?;
//! design.add_block(Block::heat_source("core", heater, Material::SILICON, Watts::new(1.0)));
//!
//! let map = Simulator::new().solve(&design, &MeshSpec::uniform(Meters::from_millimeters(0.5)))?;
//! assert!(map.hottest().1.value() > 40.0);
//! # Ok::<(), vcsel_thermal::ThermalError>(())
//! ```

// Lint levels (forbid(unsafe_code), warn(missing_docs), the clippy set)
// come from [workspace.lints] in the root Cargo.toml.

mod assembly;
mod blueprint;
mod boundary;
mod context;
mod convergence;
mod error;
mod export;
mod geometry;
mod map;
mod material;
mod mesh;
mod simulator;
mod stepper;
mod superposition;

pub use blueprint::{EngineBlueprint, RestoreError};
pub use boundary::{Boundary, BoundaryCondition, BoundarySet};
pub use context::SolveContext;
pub use convergence::{ConvergenceLevel, ConvergenceStudy};
pub use error::ThermalError;
pub use export::MapSlice;
pub use geometry::{Block, BoxRegion, Design};
pub use map::ThermalMap;
pub use material::Material;
pub use mesh::{Axis, Mesh, MeshSpec, RefineRegion};
pub use simulator::Simulator;
pub use stepper::TransientStepper;
pub use superposition::ResponseBasis;
/// Re-exported so downstream crates can pick a solve-engine preconditioner
/// (including the multigrid hierarchy) without depending on
/// `vcsel_numerics` directly.
pub use vcsel_numerics::PreconditionerKind;
/// Re-exported so downstream crates can read an engine's solve record,
/// [`SolveContext::health`], and the per-rung story its
/// [`SolveContext::attempts`] returns without depending on
/// `vcsel_numerics` directly.
pub use vcsel_numerics::{LadderSummary, RungAttempt, RungOutcome};
