//! Full-FVM thermal plant: the controllers running on the real simulator.
//!
//! [`LumpedPlant`](crate::LumpedPlant) is fast enough for controller
//! tuning, but its RC coefficients are an abstraction. [`FvmPlant`] wraps
//! the thermal crate's [`TransientStepper`] instead: every control step is
//! one backward-Euler solve of the full finite-volume field, each
//! controlled node maps to a named power *group* of the design (its heater
//! blocks), and each node's measurement is the temperature at a probe
//! point. This is the configuration the paper's Section III-B worries
//! about — "heating latency" measured on real conduction physics rather
//! than on a compact model.

use vcsel_thermal::{Design, MeshSpec, TransientStepper};
use vcsel_units::{Celsius, Meters, Watts};

use crate::{ControlError, ThermalPlant};

/// One controlled/observed site of an [`FvmPlant`].
#[derive(Debug, Clone)]
pub struct FvmNode {
    /// Power group (of the [`Design`]) this node's actuator drives.
    pub group: String,
    /// The group's total reference power (scale 1.0), used to convert the
    /// controller's watts into a group scale.
    pub reference: Watts,
    /// Probe location whose cell temperature is the node's measurement.
    pub probe: [Meters; 3],
}

/// A [`ThermalPlant`] backed by the finite-volume transient stepper.
///
/// # Example
///
/// ```no_run
/// use vcsel_control::{FvmNode, FvmPlant, ThermalPlant};
/// use vcsel_thermal::{Design, MeshSpec};
/// use vcsel_units::{Celsius, Meters, Watts};
/// # fn get(_: ()) -> (Design, MeshSpec) { unimplemented!() }
/// # let (design, spec) = get(());
/// let nodes = vec![FvmNode {
///     group: "heater0".into(),
///     reference: Watts::from_milliwatts(1.0),
///     probe: [Meters::ZERO, Meters::ZERO, Meters::ZERO],
/// }];
/// let mut plant = FvmPlant::new(&design, &spec, Celsius::new(40.0), 1e-3, nodes)?;
/// let temps = plant.step(&[Watts::from_milliwatts(0.5)], 1e-3)?;
/// println!("ring probe: {}", temps[0]);
/// # Ok::<(), vcsel_control::ControlError>(())
/// ```
#[derive(Debug)]
pub struct FvmPlant {
    stepper: TransientStepper,
    nodes: Vec<FvmNode>,
    dt_s: f64,
}

impl FvmPlant {
    /// Builds the plant. `dt_s` is fixed at construction (the stepper's
    /// system matrix embeds it); [`ThermalPlant::step`] must be called with
    /// the same value.
    ///
    /// # Errors
    ///
    /// * [`ControlError::BadParameter`] for an empty node list, a node
    ///   whose group does not exist in the design, a non-positive reference
    ///   power, a probe outside the domain, or an assembly/meshing failure
    ///   of the thermal crate.
    pub fn new(
        design: &Design,
        spec: &MeshSpec,
        initial: Celsius,
        dt_s: f64,
        nodes: Vec<FvmNode>,
    ) -> Result<Self, ControlError> {
        if nodes.is_empty() {
            return Err(ControlError::BadParameter {
                reason: "FVM plant needs at least one node".into(),
            });
        }
        let stepper = TransientStepper::new(design, spec, initial, dt_s)?;
        let known = stepper.groups();
        for node in &nodes {
            if !known.contains(&node.group.as_str()) {
                return Err(ControlError::BadParameter {
                    reason: format!(
                        "design has no power group '{}' (available: {known:?})",
                        node.group
                    ),
                });
            }
            if !(node.reference.value() > 0.0) {
                return Err(ControlError::BadParameter {
                    reason: format!("node '{}' needs a positive reference power", node.group),
                });
            }
            if stepper.temperature_at(node.probe).is_none() {
                return Err(ControlError::BadParameter {
                    reason: format!("probe of node '{}' lies outside the domain", node.group),
                });
            }
        }
        Ok(Self { stepper, nodes, dt_s })
    }

    /// The fixed step size the plant was assembled for.
    pub fn dt_s(&self) -> f64 {
        self.dt_s
    }

    /// Read access to the underlying stepper (snapshots, elapsed time).
    pub fn stepper(&self) -> &TransientStepper {
        &self.stepper
    }
}

impl ThermalPlant for FvmPlant {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn step(&mut self, powers: &[Watts], dt_s: f64) -> Result<Vec<Celsius>, ControlError> {
        if powers.len() != self.nodes.len() {
            return Err(ControlError::DimensionMismatch {
                what: "node powers",
                expected: self.nodes.len(),
                got: powers.len(),
            });
        }
        if (dt_s - self.dt_s).abs() > 1e-12 * self.dt_s.max(1.0) {
            return Err(ControlError::BadParameter {
                reason: format!(
                    "FVM plant was assembled for dt = {} s, cannot step with {dt_s} s",
                    self.dt_s
                ),
            });
        }
        // Borrow the group names in place: every control step used to clone
        // one String per node, which adds up over thousand-step runs.
        let scales: Vec<(&str, f64)> = self
            .nodes
            .iter()
            .zip(powers)
            .map(|(node, p)| (node.group.as_str(), p.value() / node.reference.value()))
            .collect();
        self.stepper.step(&scales)?;
        Ok(self.temperatures())
    }

    fn temperatures(&self) -> Vec<Celsius> {
        self.nodes
            .iter()
            .map(|n| self.stepper.temperature_at(n.probe).expect("validated at construction"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CalibrationConfig, CalibrationLoop};
    use vcsel_thermal::{Block, Boundary, BoundaryCondition, BoxRegion, Material};
    use vcsel_units::WattsPerSquareMeterKelvin;

    fn mm(v: f64) -> Meters {
        Meters::from_millimeters(v)
    }

    /// A 4 x 2 x 0.5 mm slab with two heater pads ("h0", "h1") and a static
    /// hot block between them (the "laser").
    fn two_heater_slab() -> (Design, MeshSpec, Vec<FvmNode>) {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(2.0), mm(0.5)]).unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(5_000.0),
                ambient: Celsius::new(50.0),
            },
        );
        let h0 = BoxRegion::new([mm(0.25), mm(0.75), Meters::ZERO], [mm(0.75), mm(1.25), mm(0.1)])
            .unwrap();
        let h1 = BoxRegion::new([mm(3.25), mm(0.75), Meters::ZERO], [mm(3.75), mm(1.25), mm(0.1)])
            .unwrap();
        let laser =
            BoxRegion::new([mm(1.75), mm(0.75), Meters::ZERO], [mm(2.25), mm(1.25), mm(0.1)])
                .unwrap();
        d.add_block(
            Block::heat_source("h0", h0, Material::COPPER, Watts::from_milliwatts(1.0))
                .with_group("h0"),
        );
        d.add_block(
            Block::heat_source("h1", h1, Material::COPPER, Watts::from_milliwatts(1.0))
                .with_group("h1"),
        );
        d.add_block(Block::heat_source(
            "laser",
            laser,
            Material::COPPER,
            Watts::from_milliwatts(20.0),
        ));
        let nodes = vec![
            FvmNode {
                group: "h0".into(),
                reference: Watts::from_milliwatts(1.0),
                probe: [mm(0.5), mm(1.0), mm(0.05)],
            },
            FvmNode {
                group: "h1".into(),
                reference: Watts::from_milliwatts(1.0),
                probe: [mm(3.5), mm(1.0), mm(0.05)],
            },
        ];
        (d, MeshSpec::uniform(mm(0.25)), nodes)
    }

    #[test]
    fn stepping_heats_the_probes() {
        let (d, spec, nodes) = two_heater_slab();
        let mut plant = FvmPlant::new(&d, &spec, Celsius::new(50.0), 1e-2, nodes).unwrap();
        let dt = plant.dt_s();
        let p = vec![Watts::from_milliwatts(2.0); 2];
        let before = plant.temperatures();
        for _ in 0..20 {
            plant.step(&p, dt).unwrap();
        }
        let after = plant.temperatures();
        for (b, a) in before.iter().zip(&after) {
            assert!(a > b, "heater must heat its probe: {b} -> {a}");
        }
    }

    #[test]
    fn pi_loop_locks_on_the_real_fvm() {
        // The capstone: the [12]-style feedback loop regulating probe
        // temperatures on the full finite-volume field.
        let (d, spec, nodes) = two_heater_slab();
        let mut plant = FvmPlant::new(&d, &spec, Celsius::new(50.0), 5e-2, nodes).unwrap();
        // Let the static laser block establish its field first.
        for _ in 0..100 {
            plant.step(&[Watts::ZERO, Watts::ZERO], 5e-2).unwrap();
        }
        let passive = plant.temperatures();
        let target =
            Celsius::new(passive.iter().map(|t| t.value()).fold(f64::NEG_INFINITY, f64::max) + 1.0);

        let config = CalibrationConfig {
            kp_w_per_c: 2e-3,
            ki_w_per_c_s: 5e-3,
            max_heater: Watts::from_milliwatts(40.0),
            dt_s: 5e-2,
            max_steps: 4_000,
            tolerance_c: 0.05,
            hold_steps: 10,
        };
        let mut cal = CalibrationLoop::new(target, &[0, 1], config).unwrap();
        let outcome = cal.run(&mut plant).unwrap();
        assert!(
            outcome.locked,
            "loop must lock on the FVM plant (residual {:.3} °C)",
            outcome.residual_error_c
        );
        for slot in 0..2 {
            let t = plant.temperatures()[slot];
            assert!(
                (t.value() - target.value()).abs() < 0.1,
                "probe {slot} at {t}, target {target}"
            );
        }
        // Both heaters hold a strictly positive steady power.
        for p in &outcome.final_powers {
            assert!(p.value() > 0.0);
        }
    }

    #[test]
    fn validation() {
        let (d, spec, nodes) = two_heater_slab();
        assert!(FvmPlant::new(&d, &spec, Celsius::new(50.0), 1e-2, vec![]).is_err());
        let mut bad = nodes.clone();
        bad[0].group = "nope".into();
        assert!(FvmPlant::new(&d, &spec, Celsius::new(50.0), 1e-2, bad).is_err());
        let mut bad = nodes.clone();
        bad[0].reference = Watts::ZERO;
        assert!(FvmPlant::new(&d, &spec, Celsius::new(50.0), 1e-2, bad).is_err());
        let mut bad = nodes.clone();
        bad[0].probe = [mm(99.0), mm(0.0), mm(0.0)];
        assert!(FvmPlant::new(&d, &spec, Celsius::new(50.0), 1e-2, bad).is_err());

        let mut plant = FvmPlant::new(&d, &spec, Celsius::new(50.0), 1e-2, nodes).unwrap();
        // Wrong dt and wrong arity are rejected.
        assert!(plant.step(&[Watts::ZERO, Watts::ZERO], 2e-2).is_err());
        assert!(plant.step(&[Watts::ZERO], 1e-2).is_err());
    }
}
