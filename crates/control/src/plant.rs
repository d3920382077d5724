//! Lumped thermal plant for run-time control studies.
//!
//! Closed-loop studies (the feedback calibration of \[12\], migration
//! policies of \[16\]) need to *step* the thermal state thousands of times —
//! far too often for a full FVM solve per step. The standard practice is a
//! lumped RC compact model: each controlled site (a microring, an ONI, a
//! tile) becomes one thermal node with a heat capacity, a conductance to
//! ambient, and conductances to neighboring nodes, integrated with
//! backward Euler (unconditionally stable, the same scheme as the FVM
//! transient stepper).
//!
//! ```text
//! C_i dT_i/dt = P_i − G_amb,i (T_i − T_amb) − Σ_j G_ij (T_i − T_j)
//! ```

use vcsel_numerics::solver::{self, SolveOptions};
use vcsel_numerics::TripletBuilder;
use vcsel_units::{Celsius, Watts};

use crate::ControlError;

/// Builder-constructed RC network of thermal nodes.
///
/// # Example
///
/// ```
/// use vcsel_control::LumpedPlant;
/// use vcsel_units::{Celsius, Watts};
///
/// // Two rings, 1 mJ/K each, 1 mW/K to ambient, weakly coupled.
/// let mut plant = LumpedPlant::builder(Celsius::new(40.0))
///     .node(1e-3, 1e-3)
///     .node(1e-3, 1e-3)
///     .couple(0, 1, 2e-4)
///     .build()?;
/// // Heat node 0 with 1 mW for one second of 10 ms steps.
/// for _ in 0..100 {
///     plant.step(&[Watts::from_milliwatts(1.0), Watts::ZERO], 0.01)?;
/// }
/// let t = plant.temperatures();
/// assert!(t[0] > t[1]);            // driven node is hotter
/// assert!(t[1].value() > 40.0);    // coupling leaks heat across
/// # Ok::<(), vcsel_control::ControlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LumpedPlant {
    /// Heat capacity per node, J/K.
    capacity: Vec<f64>,
    /// Conductance to ambient per node, W/K.
    g_ambient: Vec<f64>,
    /// Symmetric coupling list `(i, j, g)` in W/K.
    couplings: Vec<(usize, usize, f64)>,
    /// Ambient temperature, °C.
    ambient: f64,
    /// Current temperatures, °C.
    temps: Vec<f64>,
    /// Per-node disturbance power added to every step (e.g. neighboring
    /// chip activity), W.
    disturbance: Vec<f64>,
}

/// Builder for [`LumpedPlant`].
#[derive(Debug, Clone)]
pub struct LumpedPlantBuilder {
    ambient: f64,
    capacity: Vec<f64>,
    g_ambient: Vec<f64>,
    couplings: Vec<(usize, usize, f64)>,
}

impl LumpedPlantBuilder {
    /// Adds a node with heat capacity `capacity_j_per_k` (J/K) and ambient
    /// conductance `g_ambient_w_per_k` (W/K). Nodes are indexed in insertion
    /// order.
    #[must_use]
    pub fn node(mut self, capacity_j_per_k: f64, g_ambient_w_per_k: f64) -> Self {
        self.capacity.push(capacity_j_per_k);
        self.g_ambient.push(g_ambient_w_per_k);
        self
    }

    /// Adds `n` identical nodes.
    #[must_use]
    pub fn nodes(mut self, n: usize, capacity_j_per_k: f64, g_ambient_w_per_k: f64) -> Self {
        for _ in 0..n {
            self.capacity.push(capacity_j_per_k);
            self.g_ambient.push(g_ambient_w_per_k);
        }
        self
    }

    /// Couples nodes `i` and `j` with conductance `g_w_per_k` (W/K).
    #[must_use]
    pub fn couple(mut self, i: usize, j: usize, g_w_per_k: f64) -> Self {
        self.couplings.push((i, j, g_w_per_k));
        self
    }

    /// Validates and builds the plant, initialized at ambient.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::BadParameter`] when no nodes were added, a
    /// capacity or conductance is non-positive, or a coupling references a
    /// missing node or couples a node to itself.
    pub fn build(self) -> Result<LumpedPlant, ControlError> {
        let n = self.capacity.len();
        if n == 0 {
            return Err(ControlError::BadParameter {
                reason: "plant needs at least one node".into(),
            });
        }
        if !self.ambient.is_finite() {
            return Err(ControlError::BadParameter {
                reason: format!("ambient temperature must be finite, got {}", self.ambient),
            });
        }
        for (i, (&c, &g)) in self.capacity.iter().zip(&self.g_ambient).enumerate() {
            if !(c > 0.0) || !c.is_finite() {
                return Err(ControlError::BadParameter {
                    reason: format!("node {i} capacity must be positive, got {c}"),
                });
            }
            if !(g >= 0.0) || !g.is_finite() {
                return Err(ControlError::BadParameter {
                    reason: format!("node {i} ambient conductance must be non-negative, got {g}"),
                });
            }
        }
        // At least one node must see ambient or heat has nowhere to go.
        if self.g_ambient.iter().all(|&g| g == 0.0) {
            return Err(ControlError::BadParameter {
                reason: "at least one node needs a non-zero ambient conductance".into(),
            });
        }
        for &(i, j, g) in &self.couplings {
            if i >= n || j >= n || i == j {
                return Err(ControlError::BadParameter {
                    reason: format!("coupling ({i}, {j}) references invalid nodes (n = {n})"),
                });
            }
            if !(g > 0.0) || !g.is_finite() {
                return Err(ControlError::BadParameter {
                    reason: format!("coupling ({i}, {j}) conductance must be positive, got {g}"),
                });
            }
        }
        Ok(LumpedPlant {
            temps: vec![self.ambient; n],
            disturbance: vec![0.0; n],
            capacity: self.capacity,
            g_ambient: self.g_ambient,
            couplings: self.couplings,
            ambient: self.ambient,
        })
    }
}

impl LumpedPlant {
    /// Starts building a plant around the given ambient temperature.
    pub fn builder(ambient: Celsius) -> LumpedPlantBuilder {
        LumpedPlantBuilder {
            ambient: ambient.value(),
            capacity: Vec::new(),
            g_ambient: Vec::new(),
            couplings: Vec::new(),
        }
    }

    /// A ready-made ONI-scale plant: `rings` microring nodes sitting next to
    /// `lasers` VCSEL nodes on a shared silicon island, all mutually coupled
    /// through the island with nearest-neighbor chain conductances.
    ///
    /// The numbers are derived from the paper's geometry: a Ø10 µm ring
    /// (plus heater) has ~0.1 µJ/K capacity; through 4 µm of oxide+silicon
    /// its constriction conductance to the substrate is ~0.5 mW/K; lateral
    /// silicon coupling between 30 µm-pitch neighbors is a few mW/K. These
    /// give millisecond-scale time constants — the "heating latency" the
    /// paper's Section III-B attributes to run-time calibration.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::BadParameter`] when `rings + lasers == 0`.
    pub fn oni_island(rings: usize, lasers: usize, ambient: Celsius) -> Result<Self, ControlError> {
        let n = rings + lasers;
        if n == 0 {
            return Err(ControlError::BadParameter {
                reason: "ONI island needs at least one device".into(),
            });
        }
        let mut b = LumpedPlant::builder(ambient);
        for _ in 0..rings {
            b = b.node(1.0e-7, 5.0e-4); // ring + heater
        }
        for _ in 0..lasers {
            b = b.node(8.0e-7, 1.2e-3); // VCSEL mesa (15x30 µm², taller stack)
        }
        // Chain coupling: device k to k+1 (alternating layout of Fig. 1-b).
        for k in 0..n.saturating_sub(1) {
            b = b.couple(k, k + 1, 2.5e-3);
        }
        b.build()
    }

    /// Sets the per-node disturbance power (W) added to every subsequent
    /// step — chip activity seen from below, a neighboring laser, etc.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] unless one value per
    /// node is supplied.
    pub fn set_disturbance(&mut self, powers: &[Watts]) -> Result<(), ControlError> {
        if powers.len() != self.temps.len() {
            return Err(ControlError::DimensionMismatch {
                what: "disturbance powers",
                expected: self.temps.len(),
                got: powers.len(),
            });
        }
        self.disturbance = powers.iter().map(|p| p.value()).collect();
        Ok(())
    }

    /// Ambient temperature.
    pub fn ambient(&self) -> Celsius {
        Celsius::new(self.ambient)
    }

    /// Steady-state temperatures under constant `powers` (+ disturbance):
    /// solves the DC network directly, bypassing time integration.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] for a wrong-length power
    /// vector; propagates solver failures.
    pub fn steady_state(&self, powers: &[Watts]) -> Result<Vec<Celsius>, ControlError> {
        let n = self.temps.len();
        if powers.len() != n {
            return Err(ControlError::DimensionMismatch {
                what: "input powers",
                expected: n,
                got: powers.len(),
            });
        }
        let mut builder = TripletBuilder::new(n, n);
        for i in 0..n {
            builder.add(i, i, self.g_ambient[i]);
        }
        for &(i, j, g) in &self.couplings {
            builder.add(i, i, g);
            builder.add(j, j, g);
            builder.add(i, j, -g);
            builder.add(j, i, -g);
        }
        let a = builder.build();
        let rhs: Vec<f64> = (0..n)
            .map(|i| powers[i].value() + self.disturbance[i] + self.g_ambient[i] * self.ambient)
            .collect();
        let sol = solver::conjugate_gradient(&a, &rhs, &SolveOptions::default())?;
        Ok(sol.solution.into_iter().map(Celsius::new).collect())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.temps.len()
    }

    /// Advances the plant by `dt_s` seconds with the given per-node input
    /// powers (plus the disturbance) and returns the node temperatures
    /// after the step.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] when `powers` does not
    /// have one entry per node, [`ControlError::BadParameter`] for a
    /// non-positive step, and propagates solver failures.
    pub fn step(&mut self, powers: &[Watts], dt_s: f64) -> Result<Vec<Celsius>, ControlError> {
        let n = self.temps.len();
        if powers.len() != n {
            return Err(ControlError::DimensionMismatch {
                what: "input powers",
                expected: n,
                got: powers.len(),
            });
        }
        if !(dt_s > 0.0) || !dt_s.is_finite() {
            return Err(ControlError::BadParameter {
                reason: format!("time step must be positive, got {dt_s}"),
            });
        }
        // Backward Euler: (C/dt + G) T_{n+1} = C/dt T_n + P + G_amb T_amb.
        let mut builder = TripletBuilder::new(n, n);
        for i in 0..n {
            builder.add(i, i, self.g_ambient[i] + self.capacity[i] / dt_s);
        }
        for &(i, j, g) in &self.couplings {
            builder.add(i, i, g);
            builder.add(j, j, g);
            builder.add(i, j, -g);
            builder.add(j, i, -g);
        }
        let a = builder.build();
        let rhs: Vec<f64> = (0..n)
            .map(|i| {
                self.capacity[i] / dt_s * self.temps[i]
                    + powers[i].value()
                    + self.disturbance[i]
                    + self.g_ambient[i] * self.ambient
            })
            .collect();
        let sol = solver::conjugate_gradient(&a, &rhs, &SolveOptions::default())?;
        self.temps = sol.solution;
        Ok(self.temperatures())
    }

    /// Current node temperatures.
    pub fn temperatures(&self) -> Vec<Celsius> {
        self.temps.iter().map(|&t| Celsius::new(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> LumpedPlant {
        LumpedPlant::builder(Celsius::new(40.0))
            .node(1e-3, 1e-3)
            .node(1e-3, 1e-3)
            .couple(0, 1, 5e-4)
            .build()
            .unwrap()
    }

    #[test]
    fn step_approaches_steady_state() {
        let mut plant = two_node();
        let p = [Watts::from_milliwatts(2.0), Watts::ZERO];
        let steady = plant.steady_state(&p).unwrap();
        for _ in 0..2_000 {
            plant.step(&p, 0.05).unwrap();
        }
        let t = plant.temperatures();
        for (got, want) in t.iter().zip(&steady) {
            assert!(
                (got.value() - want.value()).abs() < 0.01,
                "transient {got} must land on steady {want}"
            );
        }
    }

    #[test]
    fn single_node_rc_analytic() {
        // One node: T(t) = T_amb + (P/G)(1 − e^{−t/τ}), τ = C/G.
        let mut plant = LumpedPlant::builder(Celsius::new(20.0)).node(2e-3, 1e-3).build().unwrap();
        let p = [Watts::from_milliwatts(1.0)];
        let tau = 2e-3 / 1e-3; // 2 s
        let dt = tau / 200.0;
        let steps = 200; // integrate exactly one τ
        for _ in 0..steps {
            plant.step(&p, dt).unwrap();
        }
        let want = 20.0 + 1.0 * (1.0 - (-1.0f64).exp());
        let got = plant.temperatures()[0].value();
        assert!((got - want).abs() < 0.01, "got {got}, want {want}");
    }

    #[test]
    fn heat_flows_down_gradient() {
        let mut plant = two_node();
        plant.step(&[Watts::from_milliwatts(5.0), Watts::ZERO], 0.1).unwrap();
        let t = plant.temperatures();
        assert!(t[0] > t[1]);
        assert!(t[1].value() > 40.0, "coupled node must warm: {}", t[1]);
    }

    #[test]
    fn disturbance_acts_like_input_power() {
        let mut a = two_node();
        let mut b = two_node();
        a.set_disturbance(&[Watts::from_milliwatts(1.0), Watts::ZERO]).unwrap();
        for _ in 0..50 {
            a.step(&[Watts::ZERO, Watts::ZERO], 0.1).unwrap();
            b.step(&[Watts::from_milliwatts(1.0), Watts::ZERO], 0.1).unwrap();
        }
        for (x, y) in a.temperatures().iter().zip(&b.temperatures()) {
            assert!((x.value() - y.value()).abs() < 1e-9);
        }
    }

    #[test]
    fn oni_island_time_constant_is_fast() {
        // Millisecond-scale settling: after 50 ms the island is within 1 %
        // of its steady state.
        let mut plant = LumpedPlant::oni_island(4, 4, Celsius::new(50.0)).unwrap();
        let mut p = vec![Watts::ZERO; 8];
        for laser in p.iter_mut().skip(4) {
            *laser = Watts::from_milliwatts(3.6);
        }
        let steady = plant.steady_state(&p).unwrap();
        for _ in 0..50 {
            plant.step(&p, 1e-3).unwrap();
        }
        for (got, want) in plant.temperatures().iter().zip(&steady) {
            let rise = want.value() - 50.0;
            assert!(
                (got.value() - want.value()).abs() < 0.01 * rise.max(0.1),
                "slow settling: {got} vs {want}"
            );
        }
    }

    #[test]
    fn energy_balance_at_steady_state() {
        // At steady state, power in = power out through ambient conductances.
        let plant = two_node();
        let p = [Watts::from_milliwatts(2.0), Watts::from_milliwatts(1.0)];
        let t = plant.steady_state(&p).unwrap();
        let out: f64 =
            t.iter().enumerate().map(|(i, ti)| plant.g_ambient[i] * (ti.value() - 40.0)).sum();
        assert!((out - 3e-3).abs() < 1e-9, "out {out}");
    }

    #[test]
    fn validation() {
        assert!(LumpedPlant::builder(Celsius::new(40.0)).build().is_err());
        assert!(LumpedPlant::builder(Celsius::new(40.0)).node(0.0, 1.0).build().is_err());
        assert!(LumpedPlant::builder(Celsius::new(40.0)).node(1.0, 0.0).build().is_err());
        assert!(LumpedPlant::builder(Celsius::new(40.0))
            .node(1.0, 1.0)
            .couple(0, 0, 1.0)
            .build()
            .is_err());
        assert!(LumpedPlant::builder(Celsius::new(40.0))
            .node(1.0, 1.0)
            .couple(0, 5, 1.0)
            .build()
            .is_err());
        let mut ok = two_node();
        assert!(ok.step(&[Watts::ZERO], 0.1).is_err());
        assert!(ok.step(&[Watts::ZERO, Watts::ZERO], 0.0).is_err());
        assert!(ok.set_disturbance(&[Watts::ZERO]).is_err());
    }
}
