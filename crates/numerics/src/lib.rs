//! Numerical kernels for the vcsel-onoc toolchain.
//!
//! The thermal simulator in `vcsel-thermal` discretizes the steady-state
//! heat equation with the Finite Volume Method, producing large sparse
//! symmetric-positive-definite systems. This crate provides everything that
//! solver needs — and the small interpolation/optimization helpers the device
//! models and design-space exploration use — without pulling in a heavyweight
//! linear-algebra dependency:
//!
//! * [`CsrMatrix`]: compressed-sparse-row matrices with a triplet builder
//!   and one SpMV for k ≥ 1 columns ([`CsrMatrix::multiply_into`]),
//!   threaded in nnz-balanced row bands for large systems,
//! * [`solver`]: preconditioned conjugate gradient with warm starts and
//!   caller-owned workspace buffers — one kernel for k ≥ 1 right-hand
//!   sides, whose k independent recurrences run in lockstep, share one
//!   operator stream per iteration and deflate converged columns from the
//!   sweep (a plain vector is k = 1; a column block drives batched
//!   design-space sweeps),
//! * [`precond`]: Jacobi and IC(0) incomplete-Cholesky preconditioners,
//!   plus the multigrid V-cycle, behind the [`Preconditioner`] trait.
//!   [`PreconditionerKind::build`] takes the operator behind an
//!   [`std::sync::Arc`], so the multigrid hierarchy aliases the caller's
//!   allocation instead of cloning it.
//!   IC(0) runs each column's two triangular solves serially and splits
//!   a block of columns into column groups across workers, so IC(0)
//!   solves give the same bits at every worker count,
//! * [`block_solver`]: the [`BlockVector`] column blocks that kernel keeps
//!   its per-column state in,
//! * [`ladder`]: the self-healing [`SolveLadder`] every engine solve runs
//!   through, escalating failed columns to sturdier preconditioners,
//! * [`multigrid`]: a smoothed-aggregation algebraic multigrid hierarchy
//!   (fixed V(1,1) cycles, Galerkin coarse operators, dense coarsest
//!   solve, Chebyshev smoothers and transfers threaded behind the size
//!   gate with bitwise-identical results) used as a mesh-independent CG
//!   preconditioner,
//! * [`artifact`]: a dependency-free, versioned, checksummed binary codec
//!   for solver-engine state — one envelope per artifact, whose solver
//!   state (an operator and its IC(0) factor or multigrid hierarchy) one
//!   pair writes and reads: [`ArtifactWriter::put_solver_state`] and
//!   [`ArtifactReader::get_solver_state`] — behind the persistent engine
//!   cache, with typed [`ArtifactError`] failures and full structural
//!   revalidation on restore,
//! * [`Interp1d`]: piecewise-linear lookup tables (the paper's "VCSEL
//!   model library" is consumed in this form),
//! * [`golden_section_min`]: the 1-D minimizer the heater-power
//!   design-space exploration uses,
//! * [`Summary`]: descriptive statistics for thermal maps.
//!
//! # Example
//!
//! ```
//! use vcsel_numerics::{CsrMatrix, TripletBuilder, solver};
//!
//! // Solve the 1-D Poisson system  [2 -1; -1 2] x = [1, 1]  (x = [1, 1]).
//! let mut b = TripletBuilder::new(2, 2);
//! b.add(0, 0, 2.0); b.add(0, 1, -1.0);
//! b.add(1, 0, -1.0); b.add(1, 1, 2.0);
//! let a = b.build();
//! let x = solver::conjugate_gradient(&a, &[1.0, 1.0], &solver::SolveOptions::default())?;
//! assert!((x.solution[0] - 1.0).abs() < 1e-8);
//! # Ok::<(), vcsel_numerics::NumericsError>(())
//! ```

// Lint levels (forbid(unsafe_code), warn(missing_docs), the clippy set)
// come from [workspace.lints] in the root Cargo.toml.

pub mod artifact;
pub mod block_solver;
mod error;
mod fork;
mod interp;
pub mod ladder;
pub mod multigrid;
mod optimize;
pub mod precond;
pub mod solver;
mod sparse;
pub mod special;
mod stats;

pub use artifact::{ArtifactError, ArtifactReader, ArtifactWriter, ContentHasher};
pub use block_solver::BlockVector;
pub use error::NumericsError;
pub use interp::Interp1d;
pub use ladder::{LadderSummary, RungAttempt, RungOutcome, SolveLadder};
pub use multigrid::{MgWorkspace, Multigrid, MultigridConfig, MultigridHierarchy};
pub use optimize::{golden_section_min, Minimum};
pub use precond::{
    AnyPreconditioner, IncompleteCholesky, Jacobi, Preconditioner, PreconditionerKind,
};
pub use sparse::{hardware_threads, CsrMatrix, TripletBuilder};
pub use stats::Summary;
