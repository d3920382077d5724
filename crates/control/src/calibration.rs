//! Closed-loop microring calibration (paper reference \[12\]).
//!
//! The design-time methodology of the paper sizes a *constant* MR heater
//! power (`P_heater ≈ 0.3 × P_VCSEL`). The run-time alternative it cites —
//! Padmaraju et al.'s feedback stabilization \[12\] — measures each ring's
//! misalignment and drives its heater with a PI loop instead. This module
//! implements that loop on a [`LumpedPlant`], so the two approaches can be
//! compared on settle time, steady-state heater power and residual
//! misalignment (the paper's Section III-B argues the run-time loop "comes
//! with performances overhead due to algorithm execution and heating
//! latency"; here that latency is measured, not assumed).
//!
//! Temperature is the control variable: ring resonance moves at
//! 0.1 nm/°C, so "align ring to channel" is "hold the ring at the target
//! temperature" — the hottest uncontrolled device plus a headroom margin,
//! since resistive heaters only push temperature *up*.

use serde::{Deserialize, Serialize};
use vcsel_units::{Celsius, TemperatureDelta, Watts};

use crate::{ControlError, LumpedPlant, PiController};

/// Tuning and termination parameters of the calibration loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Proportional gain, W/°C.
    pub kp_w_per_c: f64,
    /// Integral gain, W/(°C·s).
    pub ki_w_per_c_s: f64,
    /// Maximum heater power per ring.
    pub max_heater: Watts,
    /// Controller/plant step, seconds.
    pub dt_s: f64,
    /// Step budget before the loop gives up.
    pub max_steps: usize,
    /// Temperature tolerance counting as "locked", °C.
    pub tolerance_c: f64,
    /// Consecutive in-tolerance steps required to declare lock.
    pub hold_steps: usize,
}

impl CalibrationConfig {
    /// Gains and limits sized for the [`LumpedPlant::oni_island`]
    /// plant: millisecond time constants, 2 mW heater ceiling (a ring
    /// heater at 190 µW/nm can move ~10 nm), 0.1 ms steps, 0.05 °C lock
    /// tolerance (0.005 nm residual misalignment).
    pub fn oni_island_default() -> Self {
        Self {
            kp_w_per_c: 2e-4,
            ki_w_per_c_s: 0.5,
            max_heater: Watts::from_milliwatts(2.0),
            dt_s: 1e-4,
            max_steps: 20_000,
            tolerance_c: 0.05,
            hold_steps: 20,
        }
    }

    fn validate(&self) -> Result<(), ControlError> {
        if !(self.max_heater.value() > 0.0) {
            return Err(ControlError::BadParameter {
                reason: format!("max heater power must be positive, got {}", self.max_heater),
            });
        }
        if !(self.dt_s > 0.0) || !self.dt_s.is_finite() {
            return Err(ControlError::BadParameter {
                reason: format!("step must be positive, got {}", self.dt_s),
            });
        }
        if self.max_steps == 0 || self.hold_steps == 0 {
            return Err(ControlError::BadParameter {
                reason: "step budgets must be at least 1".into(),
            });
        }
        if !(self.tolerance_c > 0.0) || !self.tolerance_c.is_finite() {
            return Err(ControlError::BadParameter {
                reason: format!("tolerance must be positive, got {}", self.tolerance_c),
            });
        }
        Ok(())
    }
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self::oni_island_default()
    }
}

/// Result of a closed-loop calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationOutcome {
    /// Whether every controlled ring locked within the step budget.
    pub locked: bool,
    /// Time to lock, seconds (`None` if the loop never locked).
    pub settle_time_s: Option<f64>,
    /// Steps actually executed.
    pub steps: usize,
    /// Final temperature of every plant node.
    pub final_temps: Vec<Celsius>,
    /// Final heater power of every *controlled* node, in controller order.
    pub final_powers: Vec<Watts>,
    /// Total heater power at the end of the run.
    pub total_heater_power: Watts,
    /// Heater energy integrated over the run, joules.
    pub energy_j: f64,
    /// Worst residual temperature error among controlled nodes, °C.
    pub residual_error_c: f64,
}

impl CalibrationOutcome {
    /// Worst residual ring-to-channel misalignment, using the silicon
    /// thermo-optic drift `drift_nm_per_c` (0.1 nm/°C in the paper).
    pub fn residual_misalignment(&self, drift_nm_per_c: f64) -> vcsel_units::Nanometers {
        vcsel_units::Nanometers::new(self.residual_error_c * drift_nm_per_c)
    }
}

/// The per-ring PI calibration loop of \[12\].
///
/// # Example
///
/// ```
/// use vcsel_control::{CalibrationConfig, CalibrationLoop, LumpedPlant};
/// use vcsel_units::{Celsius, Watts};
///
/// // 4 rings (controlled) + 4 lasers (disturbance) on one island.
/// let mut plant = LumpedPlant::oni_island(4, 4, Celsius::new(50.0))?;
/// let mut d = vec![Watts::ZERO; 8];
/// for laser in d.iter_mut().skip(4) { *laser = Watts::from_milliwatts(3.6); }
/// plant.set_disturbance(&d)?;
///
/// let mut cal = CalibrationLoop::new(
///     Celsius::new(53.0),                       // target ring temperature
///     &[0, 1, 2, 3],                            // ring node indices
///     CalibrationConfig::oni_island_default(),
/// )?;
/// let outcome = cal.run(&mut plant)?;
/// assert!(outcome.locked);
/// # Ok::<(), vcsel_control::ControlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CalibrationLoop {
    target: Celsius,
    controlled: Vec<usize>,
    controllers: Vec<PiController>,
    config: CalibrationConfig,
}

impl CalibrationLoop {
    /// Builds the loop: one PI controller per entry of `controlled` (plant
    /// node indices that own a heater), all regulating to `target`.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::BadParameter`] for an invalid configuration,
    /// an empty or duplicated `controlled` set, or a non-finite target.
    pub fn new(
        target: Celsius,
        controlled: &[usize],
        config: CalibrationConfig,
    ) -> Result<Self, ControlError> {
        config.validate()?;
        if controlled.is_empty() {
            return Err(ControlError::BadParameter {
                reason: "need at least one controlled ring".into(),
            });
        }
        let mut seen = controlled.to_vec();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != controlled.len() {
            return Err(ControlError::BadParameter {
                reason: "controlled node indices must be unique".into(),
            });
        }
        if !target.value().is_finite() {
            return Err(ControlError::BadParameter {
                reason: format!("target temperature must be finite, got {target}"),
            });
        }
        let controllers = controlled
            .iter()
            .map(|_| {
                PiController::new(
                    config.kp_w_per_c,
                    config.ki_w_per_c_s,
                    0.0,
                    config.max_heater.value(),
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { target, controlled: controlled.to_vec(), controllers, config })
    }

    /// Picks a target for a plant under the given steady inputs: the
    /// hottest *uncontrolled* node plus `margin` of headroom (heaters can
    /// only heat, so the rings must aim above every passive device).
    ///
    /// # Errors
    ///
    /// Propagates plant errors; returns [`ControlError::BadParameter`] if
    /// every node is controlled.
    pub fn auto_target(
        plant: &LumpedPlant,
        steady_inputs: &[Watts],
        controlled: &[usize],
        margin: TemperatureDelta,
    ) -> Result<Celsius, ControlError> {
        let steady = plant.steady_state(steady_inputs)?;
        let hottest = steady
            .iter()
            .enumerate()
            .filter(|(i, _)| !controlled.contains(i))
            .map(|(_, t)| t.value())
            .fold(f64::NEG_INFINITY, f64::max);
        if !hottest.is_finite() {
            return Err(ControlError::BadParameter {
                reason: "auto target needs at least one uncontrolled node".into(),
            });
        }
        Ok(Celsius::new(hottest + margin.value()))
    }

    /// The regulation target.
    pub fn target(&self) -> Celsius {
        self.target
    }

    /// Runs the loop to lock or step-budget exhaustion.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] if a controlled index is
    /// outside the plant, plus any plant stepping error.
    pub fn run(&mut self, plant: &mut LumpedPlant) -> Result<CalibrationOutcome, ControlError> {
        let n = plant.node_count();
        if let Some(&bad) = self.controlled.iter().find(|&&i| i >= n) {
            return Err(ControlError::DimensionMismatch {
                what: "controlled node index",
                expected: n,
                got: bad,
            });
        }

        let mut powers = vec![Watts::ZERO; n];
        let mut energy = 0.0;
        let mut hold = 0usize;
        let mut settle_time = None;
        let mut steps_done = 0;
        let mut temps = plant.temperatures();

        for step in 0..self.config.max_steps {
            // Controller pass on the *latest* measurements.
            let mut worst = 0.0f64;
            for (slot, &node) in self.controlled.iter().enumerate() {
                let error = self.target.value() - temps[node].value();
                worst = worst.max(error.abs());
                let u = self.controllers[slot].update(error, self.config.dt_s);
                powers[node] = Watts::new(u);
            }
            temps = plant.step(&powers, self.config.dt_s)?;
            energy += powers.iter().map(|p| p.value()).sum::<f64>() * self.config.dt_s;
            steps_done = step + 1;

            if worst <= self.config.tolerance_c {
                hold += 1;
                if hold >= self.config.hold_steps && settle_time.is_none() {
                    settle_time = Some(steps_done as f64 * self.config.dt_s);
                    break;
                }
            } else {
                hold = 0;
            }
        }

        let residual = self
            .controlled
            .iter()
            .map(|&node| (self.target.value() - temps[node].value()).abs())
            .fold(0.0, f64::max);
        let final_powers: Vec<Watts> = self.controlled.iter().map(|&node| powers[node]).collect();
        let total = Watts::new(final_powers.iter().map(|p| p.value()).sum());
        Ok(CalibrationOutcome {
            locked: settle_time.is_some(),
            settle_time_s: settle_time,
            steps: steps_done,
            final_temps: temps,
            final_powers,
            total_heater_power: total,
            energy_j: energy,
            residual_error_c: residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn island_with_lasers() -> (LumpedPlant, Vec<usize>) {
        let mut plant = LumpedPlant::oni_island(4, 4, Celsius::new(50.0)).unwrap();
        let mut d = vec![Watts::ZERO; 8];
        for laser in d.iter_mut().skip(4) {
            *laser = Watts::from_milliwatts(3.6);
        }
        plant.set_disturbance(&d).unwrap();
        (plant, vec![0, 1, 2, 3])
    }

    #[test]
    fn loop_locks_and_holds_target() {
        let (mut plant, rings) = island_with_lasers();
        let target = CalibrationLoop::auto_target(
            &plant,
            &[Watts::ZERO; 8],
            &rings,
            TemperatureDelta::new(0.5),
        )
        .unwrap();
        let mut cal =
            CalibrationLoop::new(target, &rings, CalibrationConfig::oni_island_default()).unwrap();
        let outcome = cal.run(&mut plant).unwrap();
        assert!(outcome.locked, "loop must lock: residual {}", outcome.residual_error_c);
        assert!(outcome.residual_error_c <= 0.05);
        for &ring in &rings {
            let t = outcome.final_temps[ring].value();
            assert!((t - target.value()).abs() < 0.1, "ring at {t}, target {target}");
        }
    }

    #[test]
    fn settle_time_is_milliseconds() {
        // The paper attributes "heating latency" to run-time calibration:
        // on island physics the lock takes on the order of milliseconds.
        let (mut plant, rings) = island_with_lasers();
        let mut cal = CalibrationLoop::new(
            Celsius::new(53.0),
            &rings,
            CalibrationConfig::oni_island_default(),
        )
        .unwrap();
        let outcome = cal.run(&mut plant).unwrap();
        let settle = outcome.settle_time_s.expect("locks");
        assert!(settle > 1e-4, "settle {settle} s suspiciously fast");
        assert!(settle < 0.5, "settle {settle} s too slow for a mW heater");
    }

    #[test]
    fn unreachable_target_reports_unlocked() {
        let (mut plant, rings) = island_with_lasers();
        // 2 mW ceiling cannot push a ring 200 °C above ambient.
        let mut cal = CalibrationLoop::new(
            Celsius::new(250.0),
            &rings,
            CalibrationConfig { max_steps: 3_000, ..CalibrationConfig::oni_island_default() },
        )
        .unwrap();
        let outcome = cal.run(&mut plant).unwrap();
        assert!(!outcome.locked);
        assert!(outcome.settle_time_s.is_none());
        // Saturated actuators: every heater pinned at the ceiling.
        for p in &outcome.final_powers {
            assert!((p.as_milliwatts() - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn steady_power_matches_dc_analysis() {
        // The PI loop's converged heater power must equal the power a DC
        // analysis says is needed to hold the target.
        let (mut plant, rings) = island_with_lasers();
        let target = Celsius::new(53.0);
        let mut cal = CalibrationLoop::new(
            target,
            &rings,
            CalibrationConfig {
                max_steps: 100_000,
                tolerance_c: 0.01,
                ..CalibrationConfig::oni_island_default()
            },
        )
        .unwrap();
        let outcome = cal.run(&mut plant).unwrap();
        assert!(outcome.locked);
        // Re-apply the found powers as constants: steady state must hit the
        // target on every ring.
        let mut constant = vec![Watts::ZERO; 8];
        for (slot, &ring) in rings.iter().enumerate() {
            constant[ring] = outcome.final_powers[slot];
        }
        let steady = plant.steady_state(&constant).unwrap();
        for &ring in &rings {
            assert!(
                (steady[ring].value() - target.value()).abs() < 0.05,
                "DC check: ring at {} vs target {target}",
                steady[ring]
            );
        }
    }

    #[test]
    fn hotter_lasers_need_less_ring_heating() {
        // The chessboard insight: laser heat spills into the rings, so a
        // higher laser power reduces the heater power needed to reach a
        // *fixed* target.
        let target = Celsius::new(54.0);
        let run = |laser_mw: f64| {
            let mut plant = LumpedPlant::oni_island(4, 4, Celsius::new(50.0)).unwrap();
            let mut d = vec![Watts::ZERO; 8];
            for laser in d.iter_mut().skip(4) {
                *laser = Watts::from_milliwatts(laser_mw);
            }
            plant.set_disturbance(&d).unwrap();
            let mut cal = CalibrationLoop::new(
                target,
                &[0, 1, 2, 3],
                CalibrationConfig::oni_island_default(),
            )
            .unwrap();
            cal.run(&mut plant).unwrap().total_heater_power
        };
        let cold = run(1.0);
        let hot = run(5.0);
        assert!(
            hot.value() < cold.value(),
            "hot lasers {hot} should reduce heater demand vs {cold}"
        );
    }

    #[test]
    fn validation() {
        let cfg = CalibrationConfig::oni_island_default();
        assert!(CalibrationLoop::new(Celsius::new(50.0), &[], cfg).is_err());
        assert!(CalibrationLoop::new(Celsius::new(50.0), &[0, 0], cfg).is_err());
        assert!(CalibrationLoop::new(Celsius::new(f64::NAN), &[0], cfg).is_err());
        let bad = CalibrationConfig { dt_s: 0.0, ..cfg };
        assert!(CalibrationLoop::new(Celsius::new(50.0), &[0], bad).is_err());
        let bad = CalibrationConfig { max_heater: Watts::ZERO, ..cfg };
        assert!(CalibrationLoop::new(Celsius::new(50.0), &[0], bad).is_err());

        // Controlled index outside the plant.
        let mut plant = LumpedPlant::oni_island(2, 0, Celsius::new(50.0)).unwrap();
        let mut cal = CalibrationLoop::new(Celsius::new(51.0), &[5], cfg).unwrap();
        assert!(cal.run(&mut plant).is_err());
    }
}
