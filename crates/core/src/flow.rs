//! Thermal study: superposition-backed design-space exploration.

use vcsel_arch::{OniThermals, SccConfig, SccSystem};
use vcsel_numerics::golden_section_min;
use vcsel_thermal::{EngineBlueprint, Mesh, ResponseBasis, Simulator, SolveContext, ThermalMap};
use vcsel_units::{Celsius, TemperatureDelta, Watts};

use crate::cache::EngineCache;
use crate::FlowError;

/// Reference powers the response basis is built at (scales are relative to
/// these).
const REF_DEVICE_POWER: Watts = Watts::from_milliwatts(1.0);

/// A solved-and-reusable thermal model of one system configuration.
///
/// Construction performs the expensive FVM solves — the baseline plus one
/// per power group, batched through a single multi-right-hand-side block
/// solve ([`ResponseBasis::build_on`]) so every operator sweep
/// serves all basis columns; every subsequent [`ThermalStudy::evaluate`]
/// is vector arithmetic. The
/// chip-activity *pattern* and all geometry are fixed at construction;
/// P_VCSEL, P_heater and P_chip vary freely.
///
/// The study keeps its [`SolveContext`] — one assembled, factored engine
/// per mesh. [`ThermalStudy::reconfigured`] re-targets that engine at a new
/// configuration, so sweeps that only change the activity pattern (the
/// Figure 12 matrix) re-solve their basis without paying meshing, assembly
/// or preconditioner setup again.
#[derive(Debug)]
pub struct ThermalStudy {
    system: SccSystem,
    ctx: SolveContext,
    basis: ResponseBasis,
    ref_chip_power: Watts,
}

impl ThermalStudy {
    /// Builds the system at reference powers and solves the response basis.
    ///
    /// # Errors
    ///
    /// Propagates architecture and solver errors.
    pub fn new(config: SccConfig, simulator: &Simulator) -> Result<Self, FlowError> {
        // The engine-cache key only reads operator axes (placement, layout,
        // fidelity, ONI count), which reference_system never touches.
        let key_config = config.clone();
        let (system, ref_chip_power) = Self::reference_system(config)?;
        Self::new_from_built(system, ref_chip_power, simulator, &key_config)
    }

    /// Rebuilds the study for `config`, reusing the held solve engine
    /// whenever the new system lives on the same mesh (same floorplan,
    /// placement and fidelity — e.g. only the activity pattern changed).
    /// In that case assembly and preconditioner setup are skipped and the
    /// basis re-solves warm-start from the previous fields; otherwise this
    /// falls back to a full rebuild.
    ///
    /// # Errors
    ///
    /// Propagates architecture and solver errors.
    pub fn reconfigured(mut self, config: SccConfig, sim: &Simulator) -> Result<Self, FlowError> {
        let key_config = config.clone();
        let (system, ref_chip_power) = Self::reference_system(config)?;
        let spec = system.mesh_spec()?;
        // Meshing is cheap next to assembly; build it once and either
        // compare-and-adopt or hand it straight to the fresh engine.
        let mesh = Mesh::build(system.design(), &spec)?;
        if mesh == *self.ctx.mesh() && self.ctx.adopt_design(system.design()).is_ok() {
            // The reuse path must honour the caller's solver options
            // exactly like the rebuild path does.
            self.ctx.set_options(*sim.options());
            self.basis = ResponseBasis::build_on(&mut self.ctx)?;
            self.system = system;
            self.ref_chip_power = ref_chip_power;
            return Ok(self);
        }
        let blueprint = EngineBlueprint::on_mesh(system.design(), mesh);
        let (ctx, _) = EngineCache::from_env().obtain(&key_config, &blueprint)?;
        let mut ctx = ctx.with_options(*sim.options());
        let basis = ResponseBasis::build_on(&mut ctx)?;
        Ok(Self { system, ctx, basis, ref_chip_power })
    }

    fn new_from_built(
        system: SccSystem,
        ref_chip_power: Watts,
        sim: &Simulator,
        key_config: &SccConfig,
    ) -> Result<Self, FlowError> {
        let spec = system.mesh_spec()?;
        // Engine construction goes through the blueprint pipeline: a cache
        // hit restores the assembled operator and factored preconditioner
        // from `reports/cache/` with zero factorizations (`VCSEL_CACHE`).
        let blueprint = EngineBlueprint::new(system.design(), &spec)?;
        let (ctx, _) = EngineCache::from_env().obtain(key_config, &blueprint)?;
        let mut ctx = ctx.with_options(*sim.options());
        let basis = ResponseBasis::build_on(&mut ctx)?;
        Ok(Self { system, ctx, basis, ref_chip_power })
    }

    /// Builds the [`SccSystem`] with every group at its basis reference
    /// power.
    fn reference_system(mut config: SccConfig) -> Result<(SccSystem, Watts), FlowError> {
        // The basis needs non-zero reference powers for every group.
        config.p_vcsel = REF_DEVICE_POWER;
        config.p_driver = Some(REF_DEVICE_POWER);
        config.p_heater = REF_DEVICE_POWER;
        if config.p_chip.value() <= 0.0 {
            config.p_chip = Watts::new(12.5);
        }
        let ref_chip_power = config.p_chip;
        let system = SccSystem::build(&config)?;
        Ok((system, ref_chip_power))
    }

    /// The built system (geometry, topology, ONIs).
    pub fn system(&self) -> &SccSystem {
        &self.system
    }

    /// CG iterations accumulated by the study's solve engine — sweeps use
    /// this to verify that reconfiguration reused cached work.
    pub fn solver_iterations(&self) -> usize {
        self.ctx.total_iterations()
    }

    /// Composes the thermal field for an operating point.
    ///
    /// `p_vcsel` is per laser (the paper's P_VCSEL; the CMOS driver
    /// dissipates the same, the paper's worst case), `p_heater` per
    /// receiver ring, `p_chip` the total chip activity.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadConfig`] for negative powers.
    pub fn evaluate(
        &self,
        p_vcsel: Watts,
        p_heater: Watts,
        p_chip: Watts,
    ) -> Result<ThermalOutcome, FlowError> {
        if p_vcsel.value() < 0.0 || p_heater.value() < 0.0 || p_chip.value() < 0.0 {
            return Err(FlowError::BadConfig { reason: "powers must be non-negative".into() });
        }
        let device_scale = p_vcsel / REF_DEVICE_POWER;
        let heater_scale = p_heater / REF_DEVICE_POWER;
        let chip_scale = p_chip / self.ref_chip_power;
        let map = self.basis.compose(&[
            ("chip", chip_scale),
            ("vcsel", device_scale),
            ("driver", device_scale),
            ("heater", heater_scale),
        ])?;
        let oni = self.system.oni_thermals(&map)?;
        Ok(ThermalOutcome { oni, map })
    }

    /// Finds the heater power minimizing the worst intra-ONI gradient for
    /// a given P_VCSEL and chip activity (paper Figure 9-b: the optimum
    /// lands near `P_heater ≈ 0.3 × P_VCSEL`).
    ///
    /// Searches `P_heater ∈ [0, max_ratio × P_VCSEL]`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; returns [`FlowError::BadConfig`] for a
    /// non-positive `max_ratio` or zero `p_vcsel`.
    pub fn explore_heater(
        &self,
        p_vcsel: Watts,
        p_chip: Watts,
        max_ratio: f64,
        samples: usize,
    ) -> Result<HeaterExploration, FlowError> {
        if !(max_ratio > 0.0) || p_vcsel.value() <= 0.0 {
            return Err(FlowError::BadConfig {
                reason: "heater exploration needs positive P_VCSEL and ratio range".into(),
            });
        }
        let n = samples.max(3);
        let mut curve = Vec::with_capacity(n);
        for k in 0..n {
            let ratio = max_ratio * k as f64 / (n - 1) as f64;
            let p_heater = p_vcsel * ratio;
            let outcome = self.evaluate(p_vcsel, p_heater, p_chip)?;
            curve.push(HeaterPoint {
                p_heater,
                worst_gradient: outcome.worst_gradient(),
                mean_average: outcome.mean_average(),
            });
        }
        // Refine around the grid minimum with a golden-section search (the
        // gradient-vs-heater curve is V-shaped).
        let objective = |ratio: f64| -> f64 {
            match self.evaluate(p_vcsel, p_vcsel * ratio, p_chip) {
                Ok(o) => o.worst_gradient().value(),
                Err(_) => f64::NAN,
            }
        };
        let minimum = golden_section_min(0.0, max_ratio, 1e-3 * max_ratio, objective)?;
        Ok(HeaterExploration {
            p_vcsel,
            curve,
            optimal_ratio: minimum.argmin,
            optimal_gradient: TemperatureDelta::new(minimum.value),
        })
    }
}

/// One sample of the heater design-space sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeaterPoint {
    /// Heater power per receiver ring.
    pub p_heater: Watts,
    /// Worst intra-ONI gradient at this heater power.
    pub worst_gradient: TemperatureDelta,
    /// Mean ONI average temperature at this heater power.
    pub mean_average: Celsius,
}

/// Result of the heater design-space exploration (Figures 9-b and 10).
#[derive(Debug, Clone, PartialEq)]
pub struct HeaterExploration {
    /// The P_VCSEL the exploration was run at.
    pub p_vcsel: Watts,
    /// The sampled gradient-vs-heater curve.
    pub curve: Vec<HeaterPoint>,
    /// `P_heater / P_VCSEL` minimizing the worst gradient.
    pub optimal_ratio: f64,
    /// The gradient achieved at the optimum.
    pub optimal_gradient: TemperatureDelta,
}

impl HeaterExploration {
    /// The optimal heater power.
    pub fn optimal_heater_power(&self) -> Watts {
        self.p_vcsel * self.optimal_ratio
    }
}

/// A composed thermal field plus the extracted per-ONI metrics.
#[derive(Debug, Clone)]
pub struct ThermalOutcome {
    /// Per-ONI thermal metrics, indexed like the system's ONIs.
    pub oni: Vec<OniThermals>,
    /// The full thermal map (for custom queries).
    pub map: ThermalMap,
}

impl ThermalOutcome {
    /// The largest intra-ONI gradient — the quantity the paper constrains
    /// below 1 °C.
    pub fn worst_gradient(&self) -> TemperatureDelta {
        TemperatureDelta::new(self.oni.iter().map(|o| o.gradient.value()).fold(0.0, f64::max))
    }

    /// Mean of the ONI average temperatures.
    pub fn mean_average(&self) -> Celsius {
        Celsius::new(
            self.oni.iter().map(|o| o.average.value()).sum::<f64>() / self.oni.len().max(1) as f64,
        )
    }

    /// Spread (max − min) of the ONI average temperatures — the inter-ONI
    /// misalignment driver in the SNR analysis.
    pub fn inter_oni_spread(&self) -> TemperatureDelta {
        let max = self.oni.iter().map(|o| o.average.value()).fold(f64::NEG_INFINITY, f64::max);
        let min = self.oni.iter().map(|o| o.average.value()).fold(f64::INFINITY, f64::min);
        TemperatureDelta::new(max - min)
    }

    /// Per-ONI average temperatures (input to the SNR analysis).
    pub fn oni_averages(&self) -> Vec<Celsius> {
        self.oni.iter().map(|o| o.average).collect()
    }

    /// Whether every ONI meets the paper's 1 °C intra-ONI gradient
    /// constraint.
    pub fn meets_gradient_constraint(&self) -> bool {
        self.worst_gradient().value() < 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_study() -> &'static ThermalStudy {
        static STUDY: std::sync::OnceLock<ThermalStudy> = std::sync::OnceLock::new();
        STUDY.get_or_init(|| ThermalStudy::new(SccConfig::tiny_test(), &Simulator::new()).unwrap())
    }

    #[test]
    fn evaluate_matches_direct_solve() {
        let study = tiny_study();
        let p_vcsel = Watts::from_milliwatts(3.0);
        let p_heater = Watts::from_milliwatts(0.9);
        let p_chip = Watts::new(2.0);
        let outcome = study.evaluate(p_vcsel, p_heater, p_chip).unwrap();

        // Direct solve of the same operating point.
        let config = SccConfig {
            p_vcsel,
            p_driver: Some(p_vcsel),
            p_heater,
            p_chip,
            ..SccConfig::tiny_test()
        };
        let system = SccSystem::build(&config).unwrap();
        let spec = system.mesh_spec().unwrap();
        let map = Simulator::new().solve(system.design(), &spec).unwrap();
        let direct = system.oni_thermals(&map).unwrap();

        for (a, b) in outcome.oni.iter().zip(&direct) {
            assert!(
                (a.average.value() - b.average.value()).abs() < 1e-4,
                "composed {:?} vs direct {:?}",
                a.average,
                b.average
            );
            assert!((a.gradient.value() - b.gradient.value()).abs() < 1e-4);
        }
    }

    #[test]
    fn more_vcsel_power_more_gradient() {
        let study = tiny_study();
        let chip = Watts::new(2.0);
        let low = study.evaluate(Watts::from_milliwatts(1.0), Watts::ZERO, chip).unwrap();
        let high = study.evaluate(Watts::from_milliwatts(6.0), Watts::ZERO, chip).unwrap();
        assert!(high.worst_gradient() > low.worst_gradient());
        assert!(high.mean_average() > low.mean_average());
    }

    #[test]
    fn heater_reduces_gradient() {
        let study = tiny_study();
        let p_vcsel = Watts::from_milliwatts(6.0);
        let chip = Watts::new(2.0);
        let expl = study.explore_heater(p_vcsel, chip, 1.0, 6).unwrap();
        let without = study.evaluate(p_vcsel, Watts::ZERO, chip).unwrap();
        assert!(
            expl.optimal_gradient.value() < without.worst_gradient().value(),
            "optimum {:?} must beat no-heater {:?}",
            expl.optimal_gradient,
            without.worst_gradient()
        );
        assert!(expl.optimal_ratio > 0.0 && expl.optimal_ratio < 1.0);
        assert_eq!(expl.curve.len(), 6);
    }

    #[test]
    fn reconfigured_activity_reuses_the_engine_and_matches_fresh() {
        use vcsel_arch::Activity;
        let sim = Simulator::new();
        let base = SccConfig::tiny_test();
        let study = ThermalStudy::new(base.clone(), &sim).unwrap();
        let cold_iterations = study.solver_iterations();
        assert!(cold_iterations > 0);

        // Same floorplan/placement, different activity: the engine must be
        // adopted, not rebuilt, and the result must match a fresh study.
        let diagonal = SccConfig { activity: Activity::Diagonal, ..base };
        let reused = study.reconfigured(diagonal.clone(), &sim).unwrap();
        let warm_iterations = reused.solver_iterations() - cold_iterations;
        let fresh = ThermalStudy::new(diagonal, &sim).unwrap();

        let p_vcsel = Watts::from_milliwatts(3.0);
        let a = reused.evaluate(p_vcsel, Watts::ZERO, Watts::new(2.0)).unwrap();
        let b = fresh.evaluate(p_vcsel, Watts::ZERO, Watts::new(2.0)).unwrap();
        for (x, y) in a.oni.iter().zip(&b.oni) {
            assert!(
                (x.average.value() - y.average.value()).abs() < 1e-5,
                "reused {:?} vs fresh {:?}",
                x.average,
                y.average
            );
        }
        assert!(
            warm_iterations < fresh.solver_iterations(),
            "adopted engine must warm-start: {warm_iterations} vs fresh {}",
            fresh.solver_iterations()
        );
    }

    #[test]
    fn negative_power_rejected() {
        let study = tiny_study();
        assert!(study
            .evaluate(Watts::from_milliwatts(-1.0), Watts::ZERO, Watts::new(1.0))
            .is_err());
        assert!(study.explore_heater(Watts::ZERO, Watts::new(1.0), 1.0, 5).is_err());
    }
}
