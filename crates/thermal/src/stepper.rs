//! Transient thermal simulation: stateful backward-Euler stepping with
//! time-varying group powers.
//!
//! The paper's thermal engine, IcTherm, is presented in \[23\] as an
//! *efficient transient* simulator for 3D ICs; the DATE 2015 methodology
//! only needs its steady-state mode, but run-time studies (heating latency
//! of the MR calibration loops, feedback heater control, activity
//! migration) need the transient one, and they change the injected powers
//! **between steps** while carrying the temperature field forward.
//!
//! Discretization: the same finite-volume conduction operator `A` and
//! source vector `b` as the steady solver, plus a capacity matrix
//! `C = diag(ρ·c_p·V)`, integrated with unconditionally stable backward
//! Euler:
//!
//! ```text
//! (C/Δt + A) · T_{n+1} = (C/Δt) · T_n + b
//! ```
//!
//! A [`TransientStepper`] is the steady engine, [`SolveContext`], over
//! `A + C/Δt`: it is built at the same assembly-and-painting site as every
//! steady engine, which also paints `C/Δt` and merges it onto the
//! diagonal, and it adds only what a stepper needs — `C/Δt`, `Δt` and the
//! step count. Each [`TransientStepper::step`] takes a set of power-group
//! scale factors (relative to the design's reference powers, exactly like
//! [`ResponseBasis::compose`](crate::ResponseBasis::compose)) and makes
//! one one-column solve of that engine, whose right-hand side carries
//! `C/Δt·Tₙ` after boundary + static power.
//!
//! The `A + C/Δt` system is SPD and constant, so a stepper factors its
//! preconditioner (IC(0) from [`TransientStepper::new`], or the kind given
//! to [`TransientStepper::new_preconditioned`]) exactly once; every step
//! runs through the engine's self-healing
//! [`SolveLadder`](vcsel_numerics::SolveLadder), reuses that
//! factorization, its held right-hand-side buffer and CG workspace, and
//! warm-starts from the current field. A step no rung converges leaves
//! the field at `Tₙ` and does not advance time.

use vcsel_numerics::solver::SolveOptions;
use vcsel_numerics::{LadderSummary, PreconditionerKind, RungAttempt};
use vcsel_telemetry::TelemetrySink;
use vcsel_units::{Celsius, Meters};

use crate::blueprint::assemble_engine;
use crate::{Design, Mesh, MeshSpec, SolveContext, ThermalError, ThermalMap};

/// A backward-Euler integrator whose group powers can change every step.
///
/// # Example
///
/// ```no_run
/// use vcsel_thermal::{Design, MeshSpec, TransientStepper};
/// use vcsel_units::Celsius;
/// # fn get(_: ()) -> (Design, MeshSpec) { unimplemented!() }
/// # let (design, spec) = get(());
/// let mut stepper = TransientStepper::new(&design, &spec, Celsius::new(40.0), 1e-3)?;
/// // Heater off for 10 ms, then on at 2x its reference power.
/// for _ in 0..10 { stepper.step(&[("heater", 0.0)])?; }
/// for _ in 0..10 { stepper.step(&[("heater", 2.0)])?; }
/// println!("field after 20 ms: {}", stepper.snapshot().hottest().1);
/// # Ok::<(), vcsel_thermal::ThermalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TransientStepper {
    /// The engine over `A + C/Δt`; its field is `Tₙ`.
    engine: SolveContext,
    /// Per-cell heat capacity over Δt, J/(K·s) · s⁻¹ = W/K.
    capacity_over_dt: Vec<f64>,
    dt_s: f64,
    steps: usize,
}

impl TransientStepper {
    /// Assembles the stepper for `design` on the mesh given by `spec`,
    /// starting from a uniform `initial` field with step size `dt_s`.
    ///
    /// Blocks carrying a [`group`](crate::Block::with_group) become
    /// per-step controllable; ungrouped powered blocks dissipate their
    /// design power on every step.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadParameter`] for a non-positive step, and
    /// propagates meshing/assembly errors.
    pub fn new(
        design: &Design,
        spec: &MeshSpec,
        initial: Celsius,
        dt_s: f64,
    ) -> Result<Self, ThermalError> {
        Self::build(design, spec, initial, dt_s, PreconditionerKind::IncompleteCholesky, false)
    }

    /// Like [`TransientStepper::new`] but with an explicit preconditioner
    /// choice, as [`SolveContext::new_preconditioned`] takes one: the
    /// engine leads with `kind`, and a `kind` that cannot build is an
    /// error rather than a silent fall-back to a weaker rung.
    ///
    /// # Errors
    ///
    /// Same contract as [`TransientStepper::new`], plus factorization
    /// failures of the requested kind.
    pub fn new_preconditioned(
        design: &Design,
        spec: &MeshSpec,
        initial: Celsius,
        dt_s: f64,
        kind: PreconditionerKind,
    ) -> Result<Self, ThermalError> {
        Self::build(design, spec, initial, dt_s, kind, true)
    }

    fn build(
        design: &Design,
        spec: &MeshSpec,
        initial: Celsius,
        dt_s: f64,
        kind: PreconditionerKind,
        strict: bool,
    ) -> Result<Self, ThermalError> {
        if !(dt_s > 0.0) || !dt_s.is_finite() {
            return Err(ThermalError::BadParameter {
                reason: format!("time step must be positive, got {dt_s}"),
            });
        }
        let mesh = Mesh::build(design, spec)?;
        let (mut engine, capacity_over_dt) =
            assemble_engine(design, mesh, kind, strict, Some(dt_s), Vec::new())?;
        engine.fill_field(initial.value());
        Ok(Self { engine, capacity_over_dt, dt_s, steps: 0 })
    }

    /// Overrides the per-step linear-solver options (builder style).
    #[must_use]
    pub fn with_options(mut self, options: SolveOptions) -> Self {
        self.engine.set_options(options);
        self
    }

    /// The controllable group names, sorted.
    pub fn groups(&self) -> Vec<&str> {
        self.engine.groups()
    }

    /// The ladder's summary of the most recent step's solve (see
    /// [`SolveContext::health`]).
    pub fn health(&self) -> &LadderSummary {
        self.engine.health()
    }

    /// The ladder's per-rung attempt log for the most recent step (see
    /// [`SolveContext::attempts`]).
    pub fn attempts(&self) -> &[RungAttempt] {
        self.engine.attempts()
    }

    /// Replaces the stepper's telemetry sink (builder style). The
    /// engine's ladder owns the handle, so rung attempts, escalations and
    /// the per-step `transient_step` spans all record through the same
    /// buffer.
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.engine = self.engine.with_telemetry(sink);
        self
    }

    /// Corrupts the active preconditioner's apply until the next ladder
    /// escalation (fault-injection hook; the next step genuinely stalls on
    /// the corrupted rung and recovers on the one below it).
    pub fn inject_solver_fault(&mut self) {
        self.engine.inject_solver_fault();
    }

    /// Elapsed simulated time, seconds.
    pub fn time(&self) -> f64 {
        self.steps as f64 * self.dt_s
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// CG iterations of the most recent step.
    pub fn last_iterations(&self) -> usize {
        self.engine.last_iterations()
    }

    /// CG iterations summed over every step so far.
    pub fn total_iterations(&self) -> usize {
        self.engine.total_iterations()
    }

    /// Advances one Δt with each named group at `scale ×` its reference
    /// power. Groups not mentioned dissipate **zero** this step; ungrouped
    /// blocks always dissipate their design power.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownGroup`] for an unknown group and
    /// [`ThermalError::BadParameter`] for a negative or non-finite scale or
    /// a group named twice; propagates solver failures. A failed step
    /// leaves the field at `Tₙ` and does not advance time.
    pub fn step(&mut self, scales: &[(&str, f64)]) -> Result<(), ThermalError> {
        self.engine.solve_field("transient_step", scales, 0.0, Some(&self.capacity_over_dt))?;
        self.steps += 1;
        Ok(())
    }

    /// Temperature of the cell containing `point`, or `None` outside the
    /// domain.
    pub fn temperature_at(&self, point: [Meters; 3]) -> Option<Celsius> {
        self.engine.mesh().locate(point).map(|i| Celsius::new(self.engine.field()[i]))
    }

    /// A [`ThermalMap`] snapshot of the current field (clones the mesh and
    /// field; injected power is reported as 0 since it varies per step).
    pub fn snapshot(&self) -> ThermalMap {
        self.engine.snapshot(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, Boundary, BoundaryCondition, BoxRegion, Material, Simulator};
    use vcsel_units::{Watts, WattsPerSquareMeterKelvin};

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
        (d, MeshSpec::uniform(mm(0.5)))
    }

    #[test]
    fn heating_is_monotonic_from_ambient() {
        let (design, spec) = grouped_slab();
        let probe = [mm(2.0), mm(2.0), mm(0.1)];
        let dt = 1e-2;
        let mut stepper = TransientStepper::new(&design, &spec, Celsius::new(40.0), dt).unwrap();
        let mut trace = Vec::new();
        for _ in 0..50 {
            stepper.step(&[("src", 1.0)]).unwrap();
            trace.push(stepper.temperature_at(probe).unwrap().value());
        }
        for w in trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "implicit Euler must heat monotonically");
        }
        assert!(trace[0] > 40.0);
        assert_eq!(stepper.steps(), 50);
        assert!((stepper.time() - dt * 50.0).abs() < 1e-12);
    }

    #[test]
    fn lumped_cooling_time_constant() {
        // A copper block (high conductivity -> near-lumped) cooling from a
        // hot start with no power: T(t) - T_amb decays with
        // tau = C_total / (h A_top). Backward Euler at dt = tau/50 should
        // reproduce e^-1 decay at t = tau within a few percent.
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(2.0), mm(2.0), mm(2.0)]).unwrap();
        let mut d = Design::new(domain, Material::COPPER).unwrap();
        let h = 500.0;
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(h),
                ambient: Celsius::new(20.0),
            },
        );
        let volume = 2e-3f64.powi(3);
        let c_total = Material::COPPER.volumetric_heat_capacity() * volume;
        let tau = c_total / (h * 2e-3 * 2e-3);
        let dt = tau / 50.0;
        let mut stepper =
            TransientStepper::new(&d, &MeshSpec::uniform(mm(0.5)), Celsius::new(80.0), dt).unwrap();
        for _ in 0..50 {
            stepper.step(&[]).unwrap();
        }
        let expected = 20.0 + 60.0 * (-1.0f64).exp();
        let got = stepper.temperature_at([mm(1.0), mm(1.0), mm(1.0)]).unwrap().value();
        assert!(
            (got - expected).abs() < 2.0,
            "lumped cooling: got {got}, expected ~{expected} (tau = {tau:.2} s)"
        );
    }

    #[test]
    fn long_run_converges_to_the_steady_solver() {
        let (design, spec) = grouped_slab();
        let probe = [mm(2.0), mm(2.0), mm(0.1)];
        let steady = Simulator::new().solve(&design, &spec).unwrap();
        let mut stepper = TransientStepper::new(&design, &spec, Celsius::new(40.0), 0.05).unwrap();
        for _ in 0..1_000 {
            stepper.step(&[("src", 1.0)]).unwrap();
        }
        let t_steady = steady.temperature_at(probe).unwrap().value();
        let t = stepper.temperature_at(probe).unwrap().value();
        assert!((t - t_steady).abs() < 0.02 * (t_steady - 40.0), "{t} vs {t_steady}");
    }

    #[test]
    fn power_toggling_heats_and_cools() {
        let (design, spec) = grouped_slab();
        let probe = [mm(2.0), mm(2.0), mm(0.1)];
        let mut stepper = TransientStepper::new(&design, &spec, Celsius::new(40.0), 1e-2).unwrap();
        for _ in 0..50 {
            stepper.step(&[("src", 2.0)]).unwrap();
        }
        let hot = stepper.temperature_at(probe).unwrap();
        for _ in 0..50 {
            stepper.step(&[("src", 0.0)]).unwrap();
        }
        let cooled = stepper.temperature_at(probe).unwrap();
        assert!(hot.value() > 41.0, "must heat: {hot}");
        assert!(cooled < hot, "must cool once the source stops: {cooled} vs {hot}");
        assert!(cooled.value() >= 40.0 - 1e-9, "never below ambient");
    }

    #[test]
    fn omitted_group_means_off() {
        let (design, spec) = grouped_slab();
        let probe = [mm(2.0), mm(2.0), mm(0.1)];
        let mut a = TransientStepper::new(&design, &spec, Celsius::new(40.0), 1e-2).unwrap();
        let mut b = TransientStepper::new(&design, &spec, Celsius::new(40.0), 1e-2).unwrap();
        for _ in 0..20 {
            a.step(&[]).unwrap();
            b.step(&[("src", 0.0)]).unwrap();
        }
        let ta = a.temperature_at(probe).unwrap().value();
        let tb = b.temperature_at(probe).unwrap().value();
        assert!((ta - tb).abs() < 1e-12);
        assert!((ta - 40.0).abs() < 1e-9, "no sources: stays at ambient");
    }

    #[test]
    fn ungrouped_blocks_stay_on() {
        let (mut design, spec) = grouped_slab();
        // Add an ungrouped source in the opposite corner.
        let extra =
            BoxRegion::new([mm(3.0), mm(3.0), Meters::ZERO], [mm(4.0), mm(4.0), mm(0.2)]).unwrap();
        design.add_block(Block::heat_source("bg", extra, Material::COPPER, Watts::new(0.2)));
        let mut stepper = TransientStepper::new(&design, &spec, Celsius::new(40.0), 1e-2).unwrap();
        for _ in 0..50 {
            stepper.step(&[]).unwrap(); // grouped source off
        }
        let t = stepper.temperature_at([mm(3.5), mm(3.5), mm(0.1)]).unwrap();
        assert!(t.value() > 40.5, "static source must keep heating: {t}");
    }

    #[test]
    fn snapshot_is_a_queryable_map() {
        let (design, spec) = grouped_slab();
        let mut stepper = TransientStepper::new(&design, &spec, Celsius::new(40.0), 1e-2).unwrap();
        stepper.step(&[("src", 1.0)]).unwrap();
        let map = stepper.snapshot();
        assert!(map.hottest().1.value() > 40.0);
        assert_eq!(map.mesh().cell_count(), stepper.snapshot().mesh().cell_count());
    }

    #[test]
    fn ic0_stepper_beats_jacobi_and_agrees() {
        // Both steppers warm-start every step from the same field; the
        // default IC(0) engine must follow the Jacobi one's trajectory
        // while spending at most half its iterations. The slab runs at
        // 0.125 mm (9 216 cells): on the 192-cell 0.5 mm mesh the
        // operator is so diagonally dominant that warm Jacobi needs only
        // 1.9x IC(0)'s iterations (475 vs 251).
        let (design, _) = grouped_slab();
        let spec = MeshSpec::uniform(mm(0.125));
        let probe = [mm(2.0), mm(2.0), mm(0.1)];
        let mut jacobi = TransientStepper::new_preconditioned(
            &design,
            &spec,
            Celsius::new(40.0),
            5e-3,
            PreconditionerKind::Jacobi,
        )
        .unwrap();
        let mut ic0 = TransientStepper::new(&design, &spec, Celsius::new(40.0), 5e-3).unwrap();
        for _ in 0..25 {
            jacobi.step(&[("src", 1.0)]).unwrap();
            ic0.step(&[("src", 1.0)]).unwrap();
        }
        let a = jacobi.temperature_at(probe).unwrap().value();
        let b = ic0.temperature_at(probe).unwrap().value();
        assert!((a - b).abs() < 1e-6, "jacobi {a} vs ic0 {b}");
        assert!(
            2 * ic0.total_iterations() <= jacobi.total_iterations(),
            "ic0 {} vs jacobi {} iterations",
            ic0.total_iterations(),
            jacobi.total_iterations()
        );
        assert!(ic0.last_iterations() <= ic0.total_iterations());
    }

    #[test]
    fn explicit_preconditioner_choice_is_strict() {
        // An explicitly requested kind is the active rung. No FVM operator
        // breaks a factorization, so the strict failure half is pinned at
        // the ladder (`strict_ladder_propagates_rung_zero_build_errors`).
        let (design, spec) = grouped_slab();
        let start = Celsius::new(40.0);
        let jacobi = TransientStepper::new_preconditioned(
            &design,
            &spec,
            start,
            1e-2,
            PreconditionerKind::Jacobi,
        )
        .unwrap();
        assert_eq!(jacobi.engine.preconditioner_name(), "jacobi");
    }

    #[test]
    fn validation() {
        let (design, spec) = grouped_slab();
        assert!(TransientStepper::new(&design, &spec, Celsius::new(40.0), 0.0).is_err());
        let mut stepper = TransientStepper::new(&design, &spec, Celsius::new(40.0), 1e-2).unwrap();
        assert!(stepper.step(&[("nope", 1.0)]).is_err());
        assert!(stepper.step(&[("src", -1.0)]).is_err());
        assert!(stepper.step(&[("src", f64::NAN)]).is_err());
        assert_eq!(stepper.groups(), vec!["src"]);
    }
}
