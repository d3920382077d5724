//! Fault-injection regressions: the self-healing solve path end to end.
//!
//! These tests pin the robustness contract added with the scenario
//! engine: an injected preconditioner breakdown must recover through the
//! solve ladder to the *same* field the healthy engine produces, a failed
//! step must surface as a typed error with the trajectory rolled back
//! (never a silently degraded field), a source cut mid-run must leave a
//! field within the discrete maximum principle, and the scenario
//! catalogue's co-simulation must hold its metric pins.

use vcsel_arch::{SccConfig, SccSystem};
use vcsel_core::scenarios::{
    run_scenario, scenario_config, FaultEvent, FaultKind, MetricPins, Scenario, TrafficPattern,
    DEFAULT_SEED,
};
use vcsel_numerics::solver::SolveOptions;
use vcsel_thermal::{
    Block, Boundary, BoundaryCondition, BoxRegion, Design, Material, MeshSpec, PreconditionerKind,
    SolveContext, TransientStepper,
};
use vcsel_units::{Celsius, Meters, Watts, WattsPerSquareMeterKelvin};

fn mm(v: f64) -> Meters {
    Meters::from_millimeters(v)
}

/// A small grouped design for transient tests: one controllable source on
/// a convectively cooled slab.
fn grouped_slab() -> (Design, MeshSpec) {
    let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(1.0)]).expect("domain");
    let mut d = Design::new(domain, Material::SILICON).expect("design");
    d.set_boundary(
        Boundary::top(),
        BoundaryCondition::Convective {
            h: WattsPerSquareMeterKelvin::new(2_000.0),
            ambient: Celsius::new(40.0),
        },
    );
    let src = BoxRegion::new([mm(1.0), mm(1.0), Meters::ZERO], [mm(3.0), mm(3.0), mm(0.2)])
        .expect("source region");
    d.add_block(Block::heat_source("s", src, Material::COPPER, Watts::new(0.5)).with_group("src"));
    (d, MeshSpec::uniform(mm(0.5)))
}

#[test]
fn injected_breakdown_recovers_through_the_ladder_to_the_healthy_field() {
    // The acceptance bar of the fault-injection work: corrupt the active
    // preconditioner of the real case-study engine and require the ladder
    // to escalate and still land on the healthy answer.
    let config = SccConfig { p_vcsel: Watts::from_milliwatts(3.0), ..SccConfig::tiny_test() };
    let system = SccSystem::build(&config).expect("tiny SCC builds");
    let spec = system.mesh_spec().expect("mesh spec");

    // Solve well below the 1e-9 acceptance bar so the healthy/faulted
    // comparison measures the ladder, not the CG stopping criterion.
    let options = SolveOptions { tolerance: 1e-12, max_iterations: 100_000 };

    let mut healthy =
        SolveContext::new(system.design(), &spec).expect("context").with_options(options);
    let map_h = healthy.solve().expect("healthy solve");
    assert!(healthy.health().is_clean(), "healthy engine must not escalate");

    let mut faulted =
        SolveContext::new(system.design(), &spec).expect("context").with_options(options);
    faulted.inject_solver_fault();
    let map_f = faulted.solve().expect("faulted solve must still succeed");
    let health = faulted.health();
    assert!(health.converged, "recovered solve must be converged");
    assert!(health.recovered(), "recovery must be flagged");
    assert!(health.escalations >= 1, "the ladder must have escalated");
    assert!(
        faulted.attempts().len() >= 2,
        "per-rung attempts must tell the story: {:?}",
        faulted.attempts()
    );

    let mut worst = 0.0f64;
    for (a, b) in map_h.temperatures().iter().zip(map_f.temperatures()) {
        worst = worst.max((a - b).abs() / a.abs().max(1.0));
    }
    assert!(worst <= 1e-9, "fields must match to 1e-9 relative, worst {worst:.3e}");
}

#[test]
fn injected_breakdown_in_a_batch_recovers_per_column_to_the_healthy_maps() {
    // The batched path: the corrupted rung must corrupt every column of a
    // multi-column preconditioner apply, so no column converges on it and
    // the ladder escalates the whole block past it.
    let (design, _) = grouped_slab();
    let spec = MeshSpec::uniform(mm(0.25));
    let options = SolveOptions { tolerance: 1e-12, max_iterations: 100_000 };
    let paintings: [&[(&str, f64)]; 4] = [&[("src", 1.0)], &[("src", 0.5)], &[("src", 2.0)], &[]];

    let mut healthy = SolveContext::new(&design, &spec).expect("context").with_options(options);
    let maps_h = healthy.solve_batch(&paintings).expect("healthy batch");
    assert_eq!(healthy.preconditioner_name(), "ic0", "the healthy batch stays on IC(0)");

    let mut faulted = SolveContext::new(&design, &spec).expect("context").with_options(options);
    faulted.inject_solver_fault();
    let maps_f = faulted.solve_batch(&paintings).expect("faulted batch must still succeed");
    assert_eq!(
        faulted.preconditioner_name(),
        "jacobi",
        "the per-column fallback must retire the corrupted IC(0) rung"
    );

    for (slot, (h, f)) in maps_h.iter().zip(&maps_f).enumerate() {
        let h = h.as_ref().expect("healthy painting solves");
        let f = f.as_ref().expect("faulted painting recovers");
        let mut worst = 0.0f64;
        for (a, b) in h.temperatures().iter().zip(f.temperatures()) {
            worst = worst.max((a - b).abs() / a.abs().max(1.0));
        }
        assert!(
            worst <= 1e-9,
            "painting {slot}: maps must match to 1e-9 relative, worst {worst:.3e}"
        );
    }
}

#[test]
fn injected_breakdown_in_a_transient_step_recovers_to_the_healthy_trajectory() {
    // The transient path: the stepper is the only backward-Euler
    // integrator, so its per-step solves must self-heal through the same
    // ladder. The faulted step escalates past the corrupted IC(0) rung and
    // the trajectory must stay on the healthy one, step after step.
    let (design, spec) = grouped_slab();
    let options = SolveOptions { tolerance: 1e-12, max_iterations: 100_000 };
    let new_stepper = || {
        TransientStepper::new(&design, &spec, Celsius::new(40.0), 1e-2)
            .expect("stepper builds")
            .with_options(options)
    };
    let mut healthy = new_stepper();
    let mut faulted = new_stepper();
    faulted.inject_solver_fault();

    for (step, scale) in [1.0, 1.0, 2.5, 0.0, 1.0].into_iter().enumerate() {
        healthy.step(&[("src", scale)]).expect("healthy step");
        faulted.step(&[("src", scale)]).expect("faulted step must still succeed");
        assert!(healthy.health().is_clean(), "step {step}: healthy stepper must not escalate");
        let health = faulted.health();
        assert!(health.converged, "step {step}: recovered step must be converged");
        if step == 0 {
            assert!(health.recovered(), "the faulted step must be flagged as recovered");
            assert!(health.escalations >= 1, "the faulted step must escalate");
        }

        let mut worst = 0.0f64;
        for (a, b) in
            healthy.snapshot().temperatures().iter().zip(faulted.snapshot().temperatures())
        {
            worst = worst.max((a - b).abs() / a.abs().max(1.0));
        }
        assert!(
            worst <= 1e-9,
            "step {step}: fields must match to 1e-9 relative, worst {worst:.3e}"
        );
    }
    assert_eq!(faulted.steps(), healthy.steps());
}

#[test]
fn exhausted_ladder_is_a_typed_error_with_the_field_rolled_back() {
    // A single-rung strict ladder with a starvation-level iteration cap:
    // the step must fail *loudly* and leave the trajectory untouched.
    let (design, spec) = grouped_slab();
    let probe = [mm(2.0), mm(2.0), mm(0.1)];
    let mut stepper = TransientStepper::new_preconditioned(
        &design,
        &spec,
        Celsius::new(40.0),
        1e-2,
        PreconditionerKind::Jacobi,
    )
    .expect("jacobi rung")
    .with_options(SolveOptions { tolerance: 1e-12, max_iterations: 2 });

    let err = stepper.step(&[("src", 1.0)]).expect_err("starved solve must fail");
    assert!(
        err.to_string().contains("did not converge") || err.to_string().contains("iterations"),
        "error must name the non-convergence: {err}"
    );
    assert_eq!(stepper.steps(), 0, "a failed step must not advance time");
    let t = stepper.temperature_at(probe).expect("probe in domain");
    assert!(
        (t.value() - 40.0).abs() < 1e-12,
        "field must roll back to the initial condition, got {t}"
    );
    assert!(!stepper.health().converged, "health must flag the failure");

    // The same stepper recovers once the cap is realistic.
    let mut stepper =
        stepper.with_options(SolveOptions { tolerance: 1e-9, max_iterations: 10_000 });
    stepper.step(&[("src", 1.0)]).expect("healthy cap converges");
    assert_eq!(stepper.steps(), 1);
}

#[test]
fn a_source_cut_mid_run_keeps_the_field_within_the_maximum_principle() {
    // The thermal side of a VCSEL death: a source heats the slab from
    // ambient and dies between two steps. Implicit Euler on the FVM's
    // M-matrix obeys the discrete maximum principle: while the source is
    // on, every cell warms monotonically; once it is off, no cell falls
    // below the 40 °C ambient and the hottest cell never warms again.
    let (design, spec) = grouped_slab();
    let ambient = 40.0;
    // Solve far below the slack so the check measures the physics, not
    // the CG stopping criterion.
    let slack = 1e-9;
    let mut stepper = TransientStepper::new(&design, &spec, Celsius::new(ambient), 0.05)
        .expect("stepper")
        .with_options(SolveOptions { tolerance: 1e-12, max_iterations: 10_000 });

    let mut field = stepper.snapshot().temperatures().to_vec();
    for step in 0..20 {
        stepper.step(&[("src", 1.0)]).expect("heating step");
        let next = stepper.snapshot().temperatures().to_vec();
        for (cell, (&before, &after)) in field.iter().zip(&next).enumerate() {
            assert!(
                after >= before - slack,
                "heating step {step}: cell {cell} {before} -> {after}"
            );
        }
        field = next;
    }
    let peak_at_cut = field.iter().copied().fold(f64::MIN, f64::max);
    assert!(peak_at_cut > ambient + 1.0, "the source must heat the slab, peak {peak_at_cut}");

    let mut peak = peak_at_cut;
    for step in 0..40 {
        stepper.step(&[("src", 0.0)]).expect("cooling step");
        let snapshot = stepper.snapshot();
        let (lo, hi) = snapshot
            .temperatures()
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        assert!(lo >= ambient - slack, "cooling step {step}: a cell fell below ambient to {lo}");
        assert!(hi <= peak + slack, "cooling step {step}: the hottest cell rose {peak} -> {hi}");
        peak = hi;
    }
    assert!(
        peak - ambient < 0.5 * (peak_at_cut - ambient),
        "2 s after the cut the slab must have shed half its rise: {peak} vs {peak_at_cut}"
    );
}

#[test]
fn cascade_scenario_self_heals_and_keeps_its_pins() {
    // A compressed cascade — solver fault, VCSEL death, burst — on the
    // real 4-ONI plant: every closed-loop response must engage and the
    // run must end converged with sane physics.
    let scenario = Scenario {
        name: "test-cascade",
        description: "compressed cascade for the integration suite",
        steps: 12,
        dt_s: 1e-2,
        control_period: 3,
        temp_limit: Celsius::new(95.0),
        traffic: TrafficPattern::AllToAll,
        events: vec![
            FaultEvent { at_step: 2, kind: FaultKind::SolverFault },
            FaultEvent { at_step: 4, kind: FaultKind::VcselDeath { oni: 1 } },
            FaultEvent { at_step: 6, kind: FaultKind::TrafficBurst { multiplier: 2.0 } },
        ],
        pins: MetricPins::default(),
    };
    let report = run_scenario(&scenario, DEFAULT_SEED).expect("scenario runs");

    assert!(report.converged, "no unflagged degraded fields");
    assert!(report.solver_escalations >= 1, "the solver fault must force an escalation");
    assert!(report.remap_ran, "the VCSEL death must trigger a remap");
    assert!(report.evacuated >= 1, "dead channels must be evacuated");
    assert!(report.remap_gain_db > -1e-9, "the remap search never worsens its start");
    assert!(
        report.peak_c > 42.0 && report.peak_c < 70.0,
        "peak {:.2} °C outside physical range",
        report.peak_c
    );
    assert!(report.cg_iterations > 0 && report.steps == scenario.steps);
    assert!(report.worst_snr_db.is_finite());
    assert!(scenario.pins.check(&report).is_empty(), "default pins must hold");

    // Determinism: the per-ONI plant split must be reproducible.
    let system = SccSystem::build(&scenario_config()).expect("plant builds");
    let design = vcsel_core::scenarios::per_oni_design(&system);
    assert!(design.group_names().contains(&"vcsel@1"));
}
