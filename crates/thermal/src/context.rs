//! The reusable solve engine: steady, batched and transient solves.
//!
//! Everything the run-time management loop does — design-space sweeps,
//! influence-matrix calibration (one solve per tile), mesh-convergence
//! studies, superposition bases, transient stepping — funnels into the
//! same pattern: *many solves of one FVM system whose matrix never
//! changes*, because the conduction operator depends only on geometry,
//! materials and boundary conditions, while the injected powers only move
//! the right-hand side.
//!
//! [`SolveContext`] exploits that: it assembles the system **once**, paints
//! one power vector per controllable group, factors a preconditioner
//! **once**, and then serves any number of right-hand sides with
//! warm-started conjugate gradient — each solve reuses the previous
//! solution as its initial guess and the same scratch buffers.
//!
//! Every solve takes one path: a private routine paints k ≥ 1 columns
//! through one painter, makes one traced [`SolveLadder::solve`] call under
//! the caller's span name (`steady_solve`, `batch_solve`,
//! `transient_step`), records the solve sample, the iteration counters and
//! the ladder's [`LadderSummary`], and applies one failure rule — the
//! field becomes the last converged column, else keeps its pre-solve
//! value. One painting solves in place in the held right-hand-side buffer
//! and field; a batch solves as one per-call column block. A
//! [`TransientStepper`](crate::TransientStepper) is this engine over
//! `A + C/Δt`, whose right-hand side also carries `C/Δt·Tₙ`.
//!
//! The default preconditioner scales with the system: small meshes get the
//! IC(0) factorization, while systems at or above
//! [`SolveContext::MULTIGRID_CELL_THRESHOLD`] unknowns get the
//! smoothed-aggregation multigrid hierarchy
//! ([`PreconditionerKind::Multigrid`]), whose CG iteration counts stay
//! nearly mesh-independent — the property that makes paper-fidelity steady
//! solves tractable. Sweeps whose designs share a mesh (e.g. the same
//! floorplan under different activity patterns) can keep the assembled
//! matrix and factorization and only re-paint powers via
//! [`SolveContext::adopt_design`].

use std::collections::BTreeMap;
use std::sync::Arc;

use vcsel_numerics::solver::{CgWorkspace, SolveOptions};
use vcsel_numerics::{
    AnyPreconditioner, CsrMatrix, LadderSummary, MultigridConfig, NumericsError,
    PreconditionerKind, RungAttempt, SolveLadder,
};
use vcsel_telemetry::{ArgValue, TelemetrySink};

use crate::assembly::{self, BoundaryFace};
use crate::{Design, Mesh, MeshSpec, ThermalError, ThermalMap};

/// The linear-solver options every engine and [`Simulator`](crate::Simulator)
/// starts with: a 1e-9 relative residual within 50 000 CG iterations.
pub(crate) const ENGINE_OPTIONS: SolveOptions =
    SolveOptions { tolerance: 1e-9, max_iterations: 50_000 };

/// The escalation chain a ladder-backed engine runs for a preferred
/// preconditioner `kind`: the kind itself, then progressively cheaper,
/// sturdier rungs down to Jacobi — which only needs the positive diagonal
/// FVM assembly guarantees, so the last rung always builds and the engine
/// degrades gracefully instead of failing.
pub(crate) fn escalation_chain(kind: PreconditionerKind) -> Vec<PreconditionerKind> {
    match kind {
        PreconditionerKind::Multigrid { .. } => {
            vec![kind, PreconditionerKind::IncompleteCholesky, PreconditionerKind::Jacobi]
        }
        PreconditionerKind::IncompleteCholesky => vec![kind, PreconditionerKind::Jacobi],
        PreconditionerKind::Jacobi => vec![kind],
    }
}

/// One painted power vector and its total in watts, summed once at paint
/// time so no solve re-sums it.
#[derive(Debug, Clone)]
struct Painted {
    cells: Vec<f64>,
    total: f64,
}

impl Painted {
    fn new(cells: Vec<f64>) -> Self {
        let total = cells.iter().sum::<f64>();
        Self { cells, total }
    }
}

/// A design's powers painted onto its mesh: the ungrouped blocks' vector,
/// applied at scale 1 on every solve, and one vector per group at the
/// design's reference block powers, keyed (and so iterated) by group name.
#[derive(Debug, Clone)]
pub(crate) struct Powers {
    static_power: Painted,
    groups: BTreeMap<String, Painted>,
}

impl Powers {
    /// The one painter. Validates `scales` against the painted groups and
    /// builds one right-hand side into `rhs`: boundary + static power, then
    /// `C/Δt·Tₙ` when `carry` holds a transient step's `(C/Δt, Tₙ)`, then
    /// each group's vector at its requested (or default) scale. Returns the
    /// injected power in watts. Every solve paints through here, so every
    /// path rejects exactly the same paintings.
    fn paint(
        &self,
        boundary_rhs: &[f64],
        scales: &[(&str, f64)],
        default_scale: f64,
        carry: Option<(&[f64], &[f64])>,
        rhs: &mut [f64],
    ) -> Result<f64, ThermalError> {
        check_scales(scales, |name| self.groups.contains_key(name))?;
        let fixed = rhs.iter_mut().zip(boundary_rhs).zip(&self.static_power.cells);
        match carry {
            Some((capacity_over_dt, field)) => {
                for (((ri, bi), si), (ci, ti)) in fixed.zip(capacity_over_dt.iter().zip(field)) {
                    *ri = bi + si + ci * ti;
                }
            }
            None => {
                for ((ri, bi), si) in fixed {
                    *ri = bi + si;
                }
            }
        }
        let mut injected = self.static_power.total;
        for (g, q) in &self.groups {
            let scale =
                scales.iter().find(|(name, _)| name == g).map(|&(_, s)| s).unwrap_or(default_scale);
            if scale == 0.0 {
                continue;
            }
            for (ri, qi) in rhs.iter_mut().zip(&q.cells) {
                *ri += scale * qi;
            }
            injected += scale * q.total;
        }
        Ok(injected)
    }
}

/// Checks a group-scale painting — the `&[(group, scale)]` argument every
/// engine takes (steady solves, transient steps, basis composition) — so
/// all of them accept and reject exactly the same paintings:
///
/// * a group `is_group` does not know is [`ThermalError::UnknownGroup`],
/// * a negative or non-finite scale is [`ThermalError::BadParameter`],
/// * a group named twice is [`ThermalError::BadParameter`].
///
/// It only validates; callers keep their own painting arithmetic.
pub(crate) fn check_scales(
    scales: &[(&str, f64)],
    is_group: impl Fn(&str) -> bool,
) -> Result<(), ThermalError> {
    for (i, &(name, s)) in scales.iter().enumerate() {
        if !is_group(name) {
            return Err(ThermalError::UnknownGroup { group: name.to_string() });
        }
        validate_scale(name, s)?;
        if scales[..i].iter().any(|&(seen, _)| seen == name) {
            return Err(ThermalError::BadParameter {
                reason: format!("group '{name}' appears twice in the scales"),
            });
        }
    }
    Ok(())
}

fn validate_scale(group: &str, scale: f64) -> Result<(), ThermalError> {
    if !scale.is_finite() || scale < 0.0 {
        return Err(ThermalError::BadParameter {
            reason: format!("scale for group '{group}' must be non-negative, got {scale}"),
        });
    }
    Ok(())
}

/// Paints the static (ungrouped) power vector and one per-group power
/// vector at the design's reference block powers. Shared with the
/// blueprint layer: the fresh build and the cache-restore path must paint
/// powers identically for restored first solves to be bitwise-equal.
pub(crate) fn paint_design(design: &Design, mesh: &Mesh) -> Result<Powers, ThermalError> {
    let mut groups = BTreeMap::new();
    for g in design.blocks().iter().filter_map(|b| b.group()) {
        if groups.contains_key(g) {
            continue;
        }
        let mut only = design.clone();
        for b in only.blocks_mut() {
            if b.group() != Some(g) {
                b.set_power(vcsel_units::Watts::ZERO);
            }
        }
        groups.insert(g.to_owned(), Painted::new(assembly::paint_power(&only, mesh)?));
    }
    let mut ungrouped = design.clone();
    for b in ungrouped.blocks_mut() {
        if b.group().is_some() {
            b.set_power(vcsel_units::Watts::ZERO);
        }
    }
    let static_power = Painted::new(assembly::paint_power(&ungrouped, mesh)?);
    Ok(Powers { static_power, groups })
}

/// One painting's outcome in [`SolveContext::solve_columns`]: its injected
/// power in watts and its column in the solved block, or why it failed.
type Slot = Result<(f64, usize), ThermalError>;

/// The operator-derived state of one engine, as produced by the blueprint
/// layer (fresh build or artifact restore) and consumed by
/// [`SolveContext::from_parts`]. Everything here is a function of the
/// `(design, mesh)` pair; the solve-time state (options, warm-start field,
/// workspaces) is layered on top by `from_parts`.
pub(crate) struct EngineParts {
    pub(crate) mesh: Mesh,
    pub(crate) matrix: Arc<CsrMatrix>,
    pub(crate) boundary_rhs: Vec<f64>,
    pub(crate) boundary_faces: Vec<BoundaryFace>,
    pub(crate) powers: Powers,
    pub(crate) conductivity: Vec<f64>,
    pub(crate) boundaries: crate::BoundarySet,
    pub(crate) ladder: SolveLadder,
}

/// A cached, reusable solve engine for one `(design, mesh)` pair.
///
/// Construction performs the expensive, power-independent work — meshing
/// (unless a prebuilt [`Mesh`] is supplied), FVM assembly, power painting
/// per group, preconditioner factorization. Every subsequent
/// [`solve`](SolveContext::solve) /
/// [`solve_scaled`](SolveContext::solve_scaled) /
/// [`solve_batch`](SolveContext::solve_batch) only rebuilds the
/// right-hand sides and runs warm-started CG.
///
/// # Example
///
/// ```
/// use vcsel_thermal::{
///     Block, Boundary, BoundaryCondition, BoxRegion, Design, Material, MeshSpec, SolveContext,
/// };
/// use vcsel_units::{Celsius, Meters, Watts, WattsPerSquareMeterKelvin};
///
/// // A 4 x 4 x 1 mm silicon slab, convectively cooled from the top, with
/// // one grouped heat source.
/// let mm = Meters::from_millimeters;
/// let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(1.0)])?;
/// let mut design = Design::new(domain, Material::SILICON)?;
/// design.set_boundary(
///     Boundary::top(),
///     BoundaryCondition::Convective {
///         h: WattsPerSquareMeterKelvin::new(2_000.0),
///         ambient: Celsius::new(40.0),
///     },
/// );
/// let src = BoxRegion::new([mm(1.0), mm(1.0), Meters::ZERO], [mm(3.0), mm(3.0), mm(0.2)])?;
/// design.add_block(
///     Block::heat_source("laser", src, Material::COPPER, Watts::new(0.5)).with_group("laser"),
/// );
///
/// // Assemble + factor once; every later solve only rebuilds the RHS and
/// // warm-starts from the previous field.
/// let mut ctx = SolveContext::new(&design, &MeshSpec::uniform(mm(0.5)))?;
/// let reference = ctx.solve()?; // all groups at reference power
/// let dimmed = ctx.solve_scaled(&[("laser", 0.5)])?; // halved source, warm start
/// assert!(dimmed.hottest().1.value() < reference.hottest().1.value());
/// # Ok::<(), vcsel_thermal::ThermalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SolveContext {
    mesh: Mesh,
    /// The assembled operator, shared (never cloned) with the multigrid
    /// preconditioner — the hierarchy's fine level aliases this same
    /// allocation. A transient stepper's engine holds `A + C/Δt`.
    matrix: Arc<CsrMatrix>,
    /// Boundary-condition contribution to the RHS (no sources).
    boundary_rhs: Vec<f64>,
    boundary_faces: Vec<BoundaryFace>,
    powers: Powers,
    /// Painted per-cell conductivity — the geometry/material fingerprint
    /// [`SolveContext::adopt_design`] validates against, since the matrix
    /// is exactly a function of it (plus the fixed mesh and boundaries).
    /// Empty on a transient stepper's engine, which never adopts a design.
    conductivity: Vec<f64>,
    /// Boundary conditions at construction, also validated on adoption.
    boundaries: crate::BoundarySet,
    /// The escalating preconditioner chain every solve runs through.
    ladder: SolveLadder,
    /// The ladder's summary of the most recent solve.
    health: LadderSummary,
    options: SolveOptions,
    /// Last solution; doubles as the next solve's warm-start guess.
    temps: Vec<f64>,
    rhs: Vec<f64>,
    ws: CgWorkspace,
    last_iterations: usize,
    total_iterations: usize,
}

impl SolveContext {
    /// Meshes `design` per `spec` and builds the engine.
    ///
    /// # Errors
    ///
    /// Propagates meshing and assembly failures ([`ThermalError::NoHeatPath`],
    /// [`ThermalError::MeshTooLarge`], [`ThermalError::BadParameter`]).
    pub fn new(design: &Design, spec: &MeshSpec) -> Result<Self, ThermalError> {
        let mesh = Mesh::build(design, spec)?;
        Self::on_mesh(design, mesh)
    }

    /// Like [`SolveContext::new`] but with an explicit preconditioner
    /// choice, skipping the size-based default entirely: the engine leads
    /// with `kind`, and a `kind` that cannot build is an error rather than
    /// a silent fall-back to a weaker rung.
    ///
    /// # Errors
    ///
    /// Same contract as [`SolveContext::new`], plus factorization failures
    /// of the requested kind.
    pub fn new_preconditioned(
        design: &Design,
        spec: &MeshSpec,
        kind: PreconditionerKind,
    ) -> Result<Self, ThermalError> {
        let mesh = Mesh::build(design, spec)?;
        crate::EngineBlueprint::on_mesh(design, mesh).with_kind(kind).build()
    }

    /// Builds the engine on an already-built mesh (lets sweeps share one).
    ///
    /// # Errors
    ///
    /// Same contract as [`SolveContext::new`], minus the meshing errors.
    pub fn on_mesh(design: &Design, mesh: Mesh) -> Result<Self, ThermalError> {
        crate::EngineBlueprint::on_mesh(design, mesh).build()
    }

    /// Final assembly step of the blueprint pipeline: wraps the expensive
    /// operator-derived parts — produced either by the fresh assembly
    /// site (steady or transient) or a zero-factorization
    /// [`EngineBlueprint::restore`](crate::EngineBlueprint::restore) —
    /// with the per-engine solve state (options, warm-start field, scratch
    /// workspaces).
    pub(crate) fn from_parts(parts: EngineParts) -> Self {
        let n = parts.mesh.cell_count();
        Self {
            mesh: parts.mesh,
            matrix: parts.matrix,
            boundary_rhs: parts.boundary_rhs,
            boundary_faces: parts.boundary_faces,
            powers: parts.powers,
            conductivity: parts.conductivity,
            boundaries: parts.boundaries,
            ladder: parts.ladder,
            health: LadderSummary::default(),
            options: ENGINE_OPTIONS,
            temps: vec![0.0; n],
            rhs: vec![0.0; n],
            ws: CgWorkspace::with_capacity(n),
            last_iterations: 0,
            total_iterations: 0,
        }
    }

    /// Boundary-condition RHS contribution (no sources) — serialized into
    /// the engine artifact, since it is a function of the operator key.
    pub(crate) fn boundary_rhs_ref(&self) -> &[f64] {
        &self.boundary_rhs
    }

    /// The boundary faces the artifact codec reads.
    pub(crate) fn boundary_faces_ref(&self) -> &[BoundaryFace] {
        &self.boundary_faces
    }

    /// Unknown count at which steady engines switch their default
    /// preconditioner from IC(0) to the smoothed-aggregation multigrid
    /// hierarchy.
    ///
    /// Below the threshold (the test-scale meshes) IC(0) sets up faster
    /// but solves slower: on the 66 500-unknown tiny SCC mesh the
    /// committed `BENCH_solvers.json` record reads 44 vs 150 ms of setup,
    /// 397 vs 227 ms per cold solve and 276 vs 145 ms per warm one, so
    /// IC(0) does not win on wall clock there even for one solve. The
    /// IC(0) iteration pins and benchmark references at that size were
    /// taken with this switch. Above it, one-level preconditioners pay
    /// iteration counts that grow with resolution while the multigrid
    /// V-cycle stays flat — at `Fidelity::Paper` scale (~2.6 M unknowns)
    /// that difference is what makes cold steady solves tractable at all.
    pub const MULTIGRID_CELL_THRESHOLD: usize = 150_000;

    /// The preconditioner a steady engine picks for `n` unknowns: IC(0)
    /// below [`SolveContext::MULTIGRID_CELL_THRESHOLD`], multigrid at or
    /// above it.
    pub fn default_steady_kind(n: usize) -> PreconditionerKind {
        if n >= Self::MULTIGRID_CELL_THRESHOLD {
            PreconditionerKind::Multigrid { config: MultigridConfig::default() }
        } else {
            PreconditionerKind::IncompleteCholesky
        }
    }

    /// Re-points the engine at `new_design` **without** re-assembling or
    /// re-factoring: only the painted power vectors are rebuilt. The warm-
    /// start field carries over, so sweep hops stay cheap.
    ///
    /// The new design must produce the *same operator* — identical
    /// geometry, materials and boundary conditions on the same mesh; only
    /// block powers (and group tags) may differ. This is the activity-
    /// pattern sweep shape: tile powers change, silicon does not. The
    /// painted conductivity field is validated cell-for-cell to enforce the
    /// contract.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadParameter`] if the conductivity paint
    /// differs anywhere (the design is *not* operator-compatible), and
    /// propagates power-painting failures.
    pub fn adopt_design(&mut self, new_design: &Design) -> Result<(), ThermalError> {
        if *new_design.boundaries() != self.boundaries {
            return Err(ThermalError::BadParameter {
                reason: "adopt_design requires identical boundary conditions — \
                         build a new SolveContext"
                    .into(),
            });
        }
        let conductivity = assembly::paint_conductivity(new_design, &self.mesh);
        if conductivity != self.conductivity {
            return Err(ThermalError::BadParameter {
                reason: "adopt_design requires identical geometry and materials; \
                         the painted conductivity differs — build a new SolveContext"
                    .into(),
            });
        }
        self.powers = paint_design(new_design, &self.mesh)?;
        Ok(())
    }

    /// Overrides the linear-solver options (builder style).
    #[must_use]
    pub fn with_options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the linear-solver options in place (for engines already
    /// embedded in a larger cache, e.g. a re-targeted study).
    pub fn set_options(&mut self, options: SolveOptions) {
        self.options = options;
    }

    /// The assembled conduction operator. Shared, not owned: the same
    /// allocation backs the multigrid hierarchy's finest level, which the
    /// engine tests pin with [`Arc::ptr_eq`].
    pub fn shared_operator(&self) -> &Arc<CsrMatrix> {
        &self.matrix
    }

    /// The active preconditioner, for inspection by benches and tests
    /// (e.g. reaching the multigrid hierarchy behind a paper-scale
    /// engine via [`AnyPreconditioner::as_multigrid`]).
    pub fn preconditioner(&self) -> &AnyPreconditioner {
        self.ladder.active_preconditioner()
    }

    /// The ladder's summary of the most recent solve: whether it
    /// converged, how many escalations it took, and (through
    /// [`LadderSummary::recovered`]) whether the answer is degraded.
    pub fn health(&self) -> &LadderSummary {
        &self.health
    }

    /// The ladder's per-rung attempt log for the most recent solve, in
    /// attempt order (before the first solve: any rung that failed to
    /// build at construction).
    pub fn attempts(&self) -> &[RungAttempt] {
        self.ladder.attempts()
    }

    /// Replaces the engine's telemetry sink. The [`SolveLadder`] owns the
    /// handle, so rung attempts, escalations and the engine's own solve
    /// spans all record through the same buffer. Engines default to
    /// [`vcsel_telemetry::global`]; tests inject private sinks.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.ladder.set_telemetry(sink);
    }

    /// Builder form of [`SolveContext::set_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.set_telemetry(sink);
        self
    }

    /// The engine's telemetry sink (disabled unless tracing is on).
    pub fn telemetry(&self) -> &TelemetrySink {
        self.ladder.telemetry()
    }

    /// Corrupts the active preconditioner's apply until the next ladder
    /// escalation (fault-injection hook for the scenario engine and the
    /// recovery tests — the next solve genuinely stalls on the corrupted
    /// rung and recovers on the one below it).
    pub fn inject_solver_fault(&mut self) {
        self.ladder.inject_apply_fault();
    }

    /// The mesh the engine solves on.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Number of unknowns (mesh cells).
    pub fn unknowns(&self) -> usize {
        self.mesh.cell_count()
    }

    /// The controllable group names, sorted.
    pub fn groups(&self) -> Vec<&str> {
        self.powers.groups.keys().map(String::as_str).collect()
    }

    /// Total reference power of a group in watts (the sum of its painted
    /// per-cell sources at scale 1), or `None` for an unknown group.
    pub fn group_reference_power(&self, group: &str) -> Option<f64> {
        self.powers.groups.get(group).map(|q| q.total)
    }

    /// CG iterations of the most recent solve.
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    /// CG iterations summed over every solve this context has served.
    pub fn total_iterations(&self) -> usize {
        self.total_iterations
    }

    /// Name of the active preconditioner (`"ic0"`, `"jacobi"`,
    /// `"multigrid"`).
    pub fn preconditioner_name(&self) -> &'static str {
        self.ladder.active_name()
    }

    /// Discards the warm-start state so the next solve starts from zero
    /// (used by benches to measure cold-start behaviour).
    pub fn reset_guess(&mut self) {
        self.temps.fill(0.0);
    }

    /// Sets every cell of the field — the next solve's warm start — to
    /// `value` (a transient stepper's uniform initial condition).
    pub(crate) fn fill_field(&mut self, value: f64) {
        self.temps.fill(value);
    }

    /// The current field: the last solution, or the initial guess.
    pub(crate) fn field(&self) -> &[f64] {
        &self.temps
    }

    /// Solves with every group at its reference power — the design exactly
    /// as constructed.
    ///
    /// # Errors
    ///
    /// Propagates solver failures ([`ThermalError::Solver`]).
    pub fn solve(&mut self) -> Result<ThermalMap, ThermalError> {
        let injected = self.solve_field("steady_solve", &[], 1.0, None)?;
        Ok(self.snapshot(injected))
    }

    /// Solves with each named group at `scale ×` its reference power.
    /// Groups not mentioned contribute **zero** power; ungrouped blocks
    /// always dissipate their design power (mirroring
    /// [`TransientStepper::step`](crate::TransientStepper::step)).
    ///
    /// # Errors
    ///
    /// [`ThermalError::UnknownGroup`] for an unknown name,
    /// [`ThermalError::BadParameter`] for a negative or non-finite scale
    /// or a group named twice, plus solver failures. After a solver
    /// failure the field keeps its pre-solve value.
    pub fn solve_scaled(&mut self, scales: &[(&str, f64)]) -> Result<ThermalMap, ThermalError> {
        let injected = self.solve_field("steady_solve", scales, 0.0, None)?;
        Ok(self.snapshot(injected))
    }

    /// Solves a **batch** of power paintings against the one cached
    /// operator, preconditioner and mesh — the design-space-exploration
    /// shape, where many `(group, scale)` combinations interrogate the same
    /// silicon. Each painting follows [`SolveContext::solve_scaled`]
    /// semantics (omitted groups contribute zero; ungrouped blocks always
    /// dissipate), but the right-hand sides solve **together**: one column
    /// block runs through the ladder in one conjugate-gradient call, so
    /// every operator sweep streams the matrix nonzeros from memory once
    /// and serves every still-active column. Every column warm-starts from
    /// the engine's current field.
    ///
    /// Failure is per slot, not wholesale: a poisoned painting (unknown
    /// group, negative scale) gets its own `Err` while the remaining
    /// columns still solve; columns the active rung cannot converge
    /// escalate through the ladder, and only a column no rung converges
    /// ends as a [`NumericsError::NoConvergence`] error. The outer `Err`
    /// is reserved for systemic failures — a broken operator fails every
    /// painting identically. [`SolveContext::health`] describes the whole
    /// batch afterwards.
    ///
    /// The warm-start field after a batch is the last converged column,
    /// exactly where a sequential sweep of the same paintings would have
    /// left it; when no column converges it keeps its pre-solve value.
    ///
    /// # Errors
    ///
    /// Outer: shape failures from the solver. Inner, per painting:
    /// [`ThermalError::UnknownGroup`], [`ThermalError::BadParameter`], and
    /// [`ThermalError::Solver`] for a column no rung of the ladder
    /// converges.
    ///
    /// # Example
    ///
    /// ```
    /// use vcsel_thermal::{
    ///     Block, Boundary, BoundaryCondition, BoxRegion, Design, Material, MeshSpec, SolveContext,
    /// };
    /// use vcsel_units::{Celsius, Meters, Watts, WattsPerSquareMeterKelvin};
    ///
    /// let mm = Meters::from_millimeters;
    /// let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(1.0)])?;
    /// let mut design = Design::new(domain, Material::SILICON)?;
    /// design.set_boundary(
    ///     Boundary::top(),
    ///     BoundaryCondition::Convective {
    ///         h: WattsPerSquareMeterKelvin::new(2_000.0),
    ///         ambient: Celsius::new(40.0),
    ///     },
    /// );
    /// let src = BoxRegion::new([mm(1.0), mm(1.0), Meters::ZERO], [mm(3.0), mm(3.0), mm(0.2)])?;
    /// design.add_block(
    ///     Block::heat_source("laser", src, Material::COPPER, Watts::new(0.5)).with_group("laser"),
    /// );
    /// let mut ctx = SolveContext::new(&design, &MeshSpec::uniform(mm(0.5)))?;
    ///
    /// // Three power points, one operator sweep stream — and a poisoned
    /// // painting that fails alone without taking the batch down.
    /// let maps = ctx.solve_batch(&[
    ///     &[("laser", 1.0)],
    ///     &[("laser", 0.5)],
    ///     &[("no-such-group", 1.0)],
    /// ])?;
    /// let full = maps[0].as_ref().unwrap();
    /// let dimmed = maps[1].as_ref().unwrap();
    /// assert!(dimmed.hottest().1.value() < full.hottest().1.value());
    /// assert!(maps[2].is_err());
    /// # Ok::<(), vcsel_thermal::ThermalError>(())
    /// ```
    pub fn solve_batch(
        &mut self,
        paintings: &[&[(&str, f64)]],
    ) -> Result<Vec<Result<ThermalMap, ThermalError>>, ThermalError> {
        let n = self.temps.len();
        let mut block = Vec::new();
        let slots = self.solve_columns("batch_solve", paintings, 0.0, None, Some(&mut block))?;
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.map(|(injected, column)| {
                    ThermalMap::new(
                        self.mesh.clone(),
                        block[column * n..(column + 1) * n].to_vec(),
                        self.boundary_faces.clone(),
                        injected,
                    )
                })
            })
            .collect())
    }

    /// Solves one painting in place in the held right-hand side and field
    /// (see [`SolveContext::solve_columns`]); returns the injected power in
    /// watts.
    pub(crate) fn solve_field(
        &mut self,
        span: &'static str,
        scales: &[(&str, f64)],
        default_scale: f64,
        capacity_over_dt: Option<&[f64]>,
    ) -> Result<f64, ThermalError> {
        // One painting in, one slot out.
        let slot = self
            .solve_columns(span, &[scales], default_scale, capacity_over_dt, None)?
            .swap_remove(0);
        slot.map(|(injected, _)| injected)
    }

    /// The one solve path. Paints every painting through
    /// [`Powers::paint`] (groups a painting omits run at `default_scale`;
    /// a transient step passes its `C/Δt` as `capacity_over_dt`, which
    /// adds `C/Δt·Tₙ` with `Tₙ` the current field), solves the painted
    /// columns in one traced [`SolveLadder::solve`] call under `span`,
    /// records the telemetry sample, the iteration counters and the
    /// [`LadderSummary`], and applies the one failure rule: the field becomes
    /// the last converged column, else keeps its pre-solve value.
    ///
    /// Without `block` the one painting solves in place in the held
    /// right-hand side and field. With `block` the paintings solve as one
    /// per-call column block, each column starting from the field, and
    /// `block` receives the solved columns. Returns one slot per painting:
    /// its injected power in watts and its column in the block, or why it
    /// failed — the painting checks, or no rung converged its column.
    fn solve_columns(
        &mut self,
        span: &'static str,
        paintings: &[&[(&str, f64)]],
        default_scale: f64,
        capacity_over_dt: Option<&[f64]>,
        mut block: Option<&mut Vec<f64>>,
    ) -> Result<Vec<Slot>, ThermalError> {
        let n = self.temps.len();
        // A poisoned painting fails its own slot and drops out of the block.
        let mut painted = Vec::with_capacity(if block.is_some() { paintings.len() * n } else { 0 });
        let mut slots = Vec::with_capacity(paintings.len());
        let mut k = 0;
        for scales in paintings {
            let start = painted.len();
            let rhs = if block.is_some() {
                painted.resize(start + n, 0.0);
                &mut painted[start..]
            } else {
                &mut self.rhs[..]
            };
            let carry = capacity_over_dt.map(|c| (c, &self.temps[..]));
            match self.powers.paint(&self.boundary_rhs, scales, default_scale, carry, rhs) {
                Ok(injected) => {
                    slots.push(Ok((injected, k)));
                    k += 1;
                }
                Err(e) => {
                    painted.truncate(start);
                    slots.push(Err(e));
                }
            }
        }
        if k == 0 {
            return Ok(slots);
        }

        let (b, x): (&[f64], &mut [f64]) = match block.as_deref_mut() {
            Some(x) => {
                *x = self.temps.repeat(k);
                (&painted[..], &mut x[..])
            }
            None => (&self.rhs, &mut self.temps),
        };
        let sink = self.ladder.telemetry().clone();
        let start_ns = vcsel_telemetry::now_ns();
        let timer = std::time::Instant::now();
        let summary = {
            let mut guard = sink.span("thermal", span);
            guard.arg("unknowns", ArgValue::U64(n as u64));
            guard.arg("columns", ArgValue::U64(k as u64));
            self.ladder.solve(&self.matrix, b, x, &self.options, &mut self.ws)?
        };
        if sink.is_enabled() {
            let mut sample = self.ladder.telemetry_sample(&summary, &self.ws);
            sample.label = String::from(span);
            sample.cat = "thermal";
            sample.start_ns = start_ns;
            sample.dur_ns = u64::try_from(timer.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sink.record_sample(sample);
        }
        self.last_iterations = summary.iterations;
        self.total_iterations += summary.total_iterations;
        self.health = summary;

        let failed = self.ladder.unconverged_columns();
        let mut last_good = None;
        for slot in &mut slots {
            if let Ok((_, column)) = *slot {
                if failed.contains(&column) {
                    *slot = Err(ThermalError::Solver(NumericsError::NoConvergence {
                        iterations: summary.iterations,
                        residual: summary.residual,
                        tolerance: self.options.tolerance,
                    }));
                } else {
                    last_good = Some(column);
                }
            }
        }
        // The one failure rule. In place, a converged column already is
        // the field and a failed one holds the failed rung's iterate; a
        // block never wrote the field.
        match (block, last_good) {
            (None, None) => self.temps.copy_from_slice(self.ladder.saved_guess()),
            (Some(x), Some(c)) => self.temps.copy_from_slice(&x[c * n..(c + 1) * n]),
            _ => {}
        }
        Ok(slots)
    }

    /// A [`ThermalMap`] of the current field, reporting `injected` watts.
    pub(crate) fn snapshot(&self, injected: f64) -> ThermalMap {
        ThermalMap::new(
            self.mesh.clone(),
            self.temps.clone(),
            self.boundary_faces.clone(),
            injected,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, Boundary, BoundaryCondition, BoxRegion, Material, Simulator};
    use vcsel_units::{Celsius, Meters, Watts, WattsPerSquareMeterKelvin};

    fn mm(v: f64) -> Meters {
        Meters::from_millimeters(v)
    }

    fn grouped_slab() -> (Design, MeshSpec) {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(1.0)]).unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(2_000.0),
                ambient: Celsius::new(40.0),
            },
        );
        let src =
            BoxRegion::new([mm(1.0), mm(1.0), Meters::ZERO], [mm(3.0), mm(3.0), mm(0.2)]).unwrap();
        d.add_block(
            Block::heat_source("s", src, Material::COPPER, Watts::new(0.5)).with_group("src"),
        );
        let bg =
            BoxRegion::new([mm(3.0), mm(3.0), Meters::ZERO], [mm(4.0), mm(4.0), mm(0.2)]).unwrap();
        d.add_block(Block::heat_source("bg", bg, Material::COPPER, Watts::new(0.1)));
        (d, MeshSpec::uniform(mm(0.5)))
    }

    #[test]
    fn matches_the_one_shot_simulator() {
        let (design, spec) = grouped_slab();
        let direct = Simulator::new().solve(&design, &spec).unwrap();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();
        let cached = ctx.solve().unwrap();
        for (a, b) in direct.temperatures().iter().zip(cached.temperatures()) {
            assert!((a - b).abs() < 1e-6, "direct {a} vs context {b}");
        }
        assert!((direct.injected_power().value() - cached.injected_power().value()).abs() < 1e-12);
    }

    #[test]
    fn scaled_solve_matches_scaled_design() {
        let (design, spec) = grouped_slab();
        let mut scaled = design.clone();
        scaled.scale_group_power("src", 2.5);
        let direct = Simulator::new().solve(&scaled, &spec).unwrap();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();
        let cached = ctx.solve_scaled(&[("src", 2.5)]).unwrap();
        for (a, b) in direct.temperatures().iter().zip(cached.temperatures()) {
            assert!((a - b).abs() < 1e-6, "direct {a} vs context {b}");
        }
    }

    #[test]
    fn warm_start_cuts_iterations_on_repeat_solves() {
        let (design, spec) = grouped_slab();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();
        ctx.solve().unwrap();
        let cold = ctx.last_iterations();
        assert!(cold > 0);
        // Identical RHS again: the warm start must converge instantly.
        ctx.solve().unwrap();
        assert_eq!(ctx.last_iterations(), 0, "identical re-solve must be free");
        // A nearby RHS: strictly cheaper than the cold solve.
        ctx.solve_scaled(&[("src", 1.01)]).unwrap();
        assert!(ctx.last_iterations() < cold, "warm {} vs cold {cold}", ctx.last_iterations());
        assert!(ctx.total_iterations() >= cold);
    }

    #[test]
    fn omitted_groups_are_off_but_static_power_stays() {
        let (design, spec) = grouped_slab();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();
        let off = ctx.solve_scaled(&[]).unwrap();
        // Static "bg" block keeps its corner warm even with "src" off.
        let bg_probe = [mm(3.5), mm(3.5), mm(0.1)];
        assert!(off.temperature_at(bg_probe).unwrap().value() > 40.05);
        // And the hottest spot moved off the (disabled) main source.
        let src_probe = [mm(1.5), mm(1.5), mm(0.1)];
        assert!(
            off.temperature_at(bg_probe).unwrap() > off.temperature_at(src_probe).unwrap(),
            "src must be off"
        );
    }

    #[test]
    fn preconditioner_choice_changes_iterations_not_answers() {
        let (design, spec) = grouped_slab();
        let mut ic = SolveContext::new(&design, &spec).unwrap();
        let mut jac =
            SolveContext::new_preconditioned(&design, &spec, PreconditionerKind::Jacobi).unwrap();
        assert_eq!(ic.preconditioner_name(), "ic0");
        assert_eq!(jac.preconditioner_name(), "jacobi");
        let a = ic.solve().unwrap();
        let b = jac.solve().unwrap();
        for (x, y) in a.temperatures().iter().zip(b.temperatures()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(ic.last_iterations() < jac.last_iterations());
    }

    #[test]
    fn default_kind_scales_with_system_size() {
        assert_eq!(
            SolveContext::default_steady_kind(SolveContext::MULTIGRID_CELL_THRESHOLD - 1),
            PreconditionerKind::IncompleteCholesky
        );
        assert!(matches!(
            SolveContext::default_steady_kind(SolveContext::MULTIGRID_CELL_THRESHOLD),
            PreconditionerKind::Multigrid { .. }
        ));
        // The tiny test meshes stay on IC(0).
        let (design, spec) = grouped_slab();
        let ctx = SolveContext::new(&design, &spec).unwrap();
        assert_eq!(ctx.preconditioner_name(), "ic0");
    }

    #[test]
    fn explicit_preconditioner_choice_propagates_factorization_failures() {
        // The defensive Jacobi downgrade belongs to the *default* engines
        // only: an explicitly requested kind that cannot build must error,
        // never silently run a different preconditioner under the
        // requested label.
        let (design, spec) = grouped_slab();
        let bad = PreconditionerKind::Multigrid {
            config: vcsel_numerics::MultigridConfig {
                strength_threshold: -1.0,
                ..Default::default()
            },
        };
        assert!(SolveContext::new_preconditioned(&design, &spec, bad).is_err());
        assert!(SolveContext::new_preconditioned(
            &design,
            &spec,
            PreconditionerKind::IncompleteCholesky
        )
        .is_ok());
    }

    #[test]
    fn adopted_design_repaints_powers_without_reassembly() {
        let (design, spec) = grouped_slab();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();
        let direct = ctx.solve_scaled(&[("src", 2.0)]).unwrap();

        // Same geometry, doubled source power: adopting must make scale 1.0
        // reproduce the old scale 2.0 field exactly.
        let mut doubled = design.clone();
        doubled.scale_group_power("src", 2.0);
        ctx.adopt_design(&doubled).unwrap();
        let adopted = ctx.solve_scaled(&[("src", 1.0)]).unwrap();
        for (a, b) in direct.temperatures().iter().zip(adopted.temperatures()) {
            assert!((a - b).abs() < 1e-9, "direct {a} vs adopted {b}");
        }
        assert!(
            (ctx.group_reference_power("src").unwrap() - 1.0).abs() < 1e-9,
            "reference power must track the adopted design"
        );
    }

    #[test]
    fn adopt_rejects_operator_changes() {
        let (design, spec) = grouped_slab();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();

        // A new block changes the painted conductivity.
        let mut regrown = design.clone();
        let extra =
            BoxRegion::new([mm(0.0), mm(0.0), mm(0.5)], [mm(1.0), mm(1.0), mm(1.0)]).unwrap();
        regrown.add_block(Block::passive("slug", extra, Material::COPPER));
        assert!(matches!(ctx.adopt_design(&regrown), Err(ThermalError::BadParameter { .. })));

        // Changed boundary conditions are rejected, too.
        let mut rechilled = design.clone();
        rechilled.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(9_999.0),
                ambient: Celsius::new(40.0),
            },
        );
        assert!(matches!(ctx.adopt_design(&rechilled), Err(ThermalError::BadParameter { .. })));
    }

    #[test]
    fn engine_and_hierarchy_share_one_fine_operator() {
        // The shared-operator contract: a multigrid engine must not hold a
        // second copy of the assembled matrix — the hierarchy's finest
        // level *is* the context's operator allocation.
        let (design, spec) = grouped_slab();
        let ctx = SolveContext::new_preconditioned(
            &design,
            &spec,
            PreconditionerKind::Multigrid { config: vcsel_numerics::MultigridConfig::default() },
        )
        .unwrap();
        let mg = ctx.preconditioner().as_multigrid().expect("multigrid engine");
        assert!(
            Arc::ptr_eq(ctx.shared_operator(), mg.hierarchy().fine_operator()),
            "hierarchy must alias the engine's operator, not clone it"
        );
    }

    #[test]
    fn multigrid_engine_agrees_with_ic0_on_the_slab() {
        let (design, spec) = grouped_slab();
        let mut ic0 = SolveContext::new(&design, &spec).unwrap();
        let mut mg = SolveContext::new_preconditioned(
            &design,
            &spec,
            PreconditionerKind::Multigrid { config: vcsel_numerics::MultigridConfig::default() },
        )
        .unwrap();
        assert_eq!(mg.preconditioner_name(), "multigrid");
        let a = ic0.solve().unwrap();
        let b = mg.solve().unwrap();
        for (x, y) in a.temperatures().iter().zip(b.temperatures()) {
            assert!((x - y).abs() < 1e-6, "ic0 {x} vs multigrid {y}");
        }
    }

    #[test]
    fn batched_solve_matches_sequential_point_for_point() {
        let (design, spec) = grouped_slab();
        let scales = [0.0, 0.4, 1.0, 1.7, 2.5];
        let mut seq = SolveContext::new(&design, &spec).unwrap();
        let sequential: Vec<ThermalMap> =
            scales.iter().map(|&s| seq.solve_scaled(&[("src", s)]).unwrap()).collect();

        let mut batched = SolveContext::new(&design, &spec).unwrap();
        let paintings: Vec<Vec<(&str, f64)>> = scales.iter().map(|&s| vec![("src", s)]).collect();
        let refs: Vec<&[(&str, f64)]> = paintings.iter().map(Vec::as_slice).collect();
        let maps = batched.solve_batch(&refs).unwrap();
        assert_eq!(maps.len(), scales.len());
        for (i, (map, reference)) in maps.iter().zip(&sequential).enumerate() {
            let map = map.as_ref().unwrap();
            let scale = reference.temperatures().iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (a, b) in map.temperatures().iter().zip(reference.temperatures()) {
                assert!((a - b).abs() / scale < 1e-10, "point {i}: batched {a} vs sequential {b}");
            }
            assert!(
                (map.injected_power().value() - reference.injected_power().value()).abs() < 1e-12
            );
        }
        // Warm-start continuity: the batch leaves the field where the
        // sequential sweep would, so a repeat of the last point is free.
        batched.solve_scaled(&[("src", 2.5)]).unwrap();
        assert_eq!(batched.last_iterations(), 0);
    }

    #[test]
    fn failed_solves_keep_the_field_they_started_from() {
        // The one failure rule on both layouts: a solve no rung converges
        // leaves the field at its pre-solve value. A strict Jacobi engine
        // has no rung to escalate to, so a starved cap fails outright.
        let (design, spec) = grouped_slab();
        let mut ctx =
            SolveContext::new_preconditioned(&design, &spec, PreconditionerKind::Jacobi).unwrap();
        let p: &[(&str, f64)] = &[("src", 1.0)];
        let other: &[(&str, f64)] = &[("src", 2.0)];
        ctx.solve_scaled(p).unwrap();
        assert!(ctx.last_iterations() > 0);
        let healthy = ctx.options;
        let starved = SolveOptions { max_iterations: 2, ..healthy };

        // In place (the held right-hand side and field).
        ctx.set_options(starved);
        assert!(matches!(ctx.solve_scaled(other), Err(ThermalError::Solver(_))));
        assert!(!ctx.health().converged);
        ctx.set_options(healthy);
        ctx.solve_scaled(p).unwrap();
        assert_eq!(ctx.last_iterations(), 0, "the field must still hold P's solution");

        // A one-painting batch slot.
        ctx.set_options(starved);
        let slot = ctx.solve_batch(&[other]).unwrap().remove(0);
        assert!(matches!(slot, Err(ThermalError::Solver(_))));
        ctx.set_options(healthy);
        ctx.solve_scaled(p).unwrap();
        assert_eq!(ctx.last_iterations(), 0, "the field must still hold P's solution");
    }

    #[test]
    fn poisoned_painting_fails_alone() {
        let (design, spec) = grouped_slab();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();
        let maps = ctx
            .solve_batch(&[&[("src", 1.0)], &[("ghost", 1.0)], &[("src", -3.0)], &[("src", 0.5)]])
            .unwrap();
        assert!(maps[0].is_ok());
        assert!(matches!(maps[1], Err(ThermalError::UnknownGroup { .. })));
        assert!(matches!(maps[2], Err(ThermalError::BadParameter { .. })));
        assert!(maps[3].is_ok());
    }

    #[test]
    fn every_engine_rejects_the_same_bad_paintings() {
        // One painting rule behind the steady context (scalar and batched),
        // the transient stepper and the superposed basis: a bad painting
        // gets the same error variant from each, and the stepper does not
        // advance on it.
        let (design, spec) = grouped_slab();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();
        let mut stepper =
            crate::TransientStepper::new(&design, &spec, Celsius::new(40.0), 1e-2).unwrap();
        let basis = crate::ResponseBasis::build_on(&mut SolveContext::new(&design, &spec).unwrap())
            .unwrap();
        let unknown = ThermalError::UnknownGroup { group: String::new() };
        let bad = ThermalError::BadParameter { reason: String::new() };
        let cases: [(&[(&str, f64)], &ThermalError); 4] = [
            (&[("ghost", 1.0)], &unknown),
            (&[("src", -1.0)], &bad),
            (&[("src", f64::NAN)], &bad),
            (&[("src", 1.0), ("src", 1.0)], &bad),
        ];
        for (painting, expected) in cases {
            let errors = [
                ("context", ctx.solve_scaled(painting).unwrap_err()),
                ("batch", ctx.solve_batch(&[painting]).unwrap().remove(0).unwrap_err()),
                ("stepper", stepper.step(painting).unwrap_err()),
                ("basis", basis.compose(painting).unwrap_err()),
            ];
            for (engine, err) in &errors {
                assert_eq!(
                    std::mem::discriminant(err),
                    std::mem::discriminant(expected),
                    "{engine} on {painting:?}: got {err:?}"
                );
            }
        }
        assert_eq!(stepper.steps(), 0);
    }

    #[test]
    fn faulted_batch_reports_its_recovery_in_health() {
        // One ladder call serves the whole batch, so the health report
        // describes the batch: the corrupted IC(0) rung fails every column
        // and the escalation to Jacobi recovers them.
        let (design, spec) = grouped_slab();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();
        ctx.inject_solver_fault();
        let maps = ctx.solve_batch(&[&[("src", 1.0)], &[("src", 0.5)], &[("src", 2.0)]]).unwrap();
        assert!(maps.iter().all(Result::is_ok));
        let health = ctx.health();
        assert!(health.recovered(), "{health:?}");
        assert_eq!(health.escalations, 1);
        assert_eq!(ctx.preconditioner_name(), "jacobi");
    }

    #[test]
    fn solve_samples_count_the_measured_operator_work() {
        // A cold solve starts from a zero guess and skips the initial
        // residual product; a warm one pays for it. The telemetry sample
        // counts what the kernel did, not what its iterations imply.
        let (design, spec) = grouped_slab();
        let sink = TelemetrySink::new(vcsel_telemetry::TraceMode::Full);
        let mut ctx = SolveContext::new(&design, &spec).unwrap().with_telemetry(sink.clone());
        ctx.solve().unwrap();
        ctx.solve_scaled(&[("src", 1.5)]).unwrap();
        let samples = sink.drain().samples;
        let (cold, warm) = (&samples[0], &samples[1]);
        assert!(cold.iterations > 0 && warm.iterations > 0);
        assert_eq!(cold.spmv, cold.iterations);
        assert_eq!(cold.precond_applies, cold.iterations + 1);
        assert_eq!(warm.spmv, warm.iterations + 1);
        assert_eq!(warm.precond_applies, warm.iterations + 1);
    }

    #[test]
    fn empty_batch_is_empty() {
        let (design, spec) = grouped_slab();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();
        assert!(ctx.solve_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn validation() {
        let (design, spec) = grouped_slab();
        let mut ctx = SolveContext::new(&design, &spec).unwrap();
        assert!(matches!(
            ctx.solve_scaled(&[("nope", 1.0)]),
            Err(ThermalError::UnknownGroup { .. })
        ));
        assert!(ctx.solve_scaled(&[("src", -1.0)]).is_err());
        assert!(ctx.solve_scaled(&[("src", f64::NAN)]).is_err());
        assert_eq!(ctx.groups(), vec!["src"]);
        assert!(ctx.unknowns() > 0);
        assert_eq!(ctx.mesh().cell_count(), ctx.unknowns());
    }
}
