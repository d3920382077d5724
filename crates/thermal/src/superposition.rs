//! Superposition-based sweep acceleration.
//!
//! Steady-state conduction with temperature-independent conductivities is a
//! linear PDE, so the temperature field responds linearly to every injected
//! power: `T = T_bc + Σ_g s_g · ΔT_g`, where `T_bc` is the field produced by
//! the boundary conditions plus any *ungrouped* block powers, and `ΔT_g` is
//! the rise produced by power group `g` at its reference power.
//!
//! The paper's design-space exploration sweeps P_VCSEL ∈ [0, 6] mW,
//! P_heater ∈ [0, 4] mW and P_chip ∈ {12.5 … 31.25} W. Tagging those block
//! sets as groups turns the entire sweep into a handful of solves plus
//! vector arithmetic — with results identical to re-solving, which the
//! tests verify. The `1 + #groups` basis fields are one
//! [`SolveContext::solve_batch`] call: one column block through the
//! engine's one solve path.

use crate::context::check_scales;
use crate::{Design, MeshSpec, Simulator, SolveContext, ThermalError, ThermalMap};

/// Pre-solved unit responses for the power groups of a design.
///
/// # Example
///
/// ```no_run
/// use vcsel_thermal::{Design, MeshSpec, ResponseBasis, Simulator};
/// # fn get_design() -> Design { unimplemented!() }
/// # fn main() -> Result<(), vcsel_thermal::ThermalError> {
/// let design: Design = get_design(); // blocks tagged "chip", "vcsel", "heater"
/// let spec = MeshSpec::uniform(vcsel_units::Meters::from_micrometers(500.0));
/// let basis = ResponseBasis::build(&Simulator::new(), &design, &spec)?;
/// // P_vcsel x 3, heater at 30 % of that, chip activity unchanged:
/// let map = basis.compose(&[("chip", 1.0), ("vcsel", 3.0), ("heater", 0.9)])?;
/// # let _ = map; Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResponseBasis {
    /// Field from boundary conditions + ungrouped powers (scale-independent).
    baseline: ThermalMap,
    /// Per-group temperature *rise* fields at reference group power,
    /// together with that reference power in watts.
    responses: Vec<(String, f64, Vec<f64>)>,
}

impl ResponseBasis {
    /// Solves the baseline plus one unit response per power group of
    /// `design` on a fresh [`SolveContext`] with `sim`'s options.
    ///
    /// # Errors
    ///
    /// Propagates any meshing/solving error; additionally rejects designs
    /// without any power group ([`ThermalError::BadParameter`]) since the
    /// basis would be pointless.
    pub fn build(sim: &Simulator, design: &Design, spec: &MeshSpec) -> Result<Self, ThermalError> {
        let mut ctx = SolveContext::new(design, spec)?.with_options(*sim.options());
        Self::build_on(&mut ctx)
    }

    /// Like [`ResponseBasis::build`], but on an **existing** engine —
    /// sweeps that already hold a [`SolveContext`] (or re-target one with
    /// [`SolveContext::adopt_design`]) rebuild their basis without paying
    /// assembly or factorization again.
    ///
    /// All `1 + #groups` basis fields solve in **one**
    /// [`SolveContext::solve_batch`] call, each column warm-starting from
    /// the context's current field: the baseline painting (every group
    /// off) and every solo-group painting share each operator sweep
    /// instead of streaming the matrix once per solve.
    ///
    /// # Errors
    ///
    /// Same contract as [`ResponseBasis::build`], minus the construction
    /// errors; a per-column solver failure surfaces as that painting's
    /// error.
    pub fn build_on(ctx: &mut SolveContext) -> Result<Self, ThermalError> {
        let groups: Vec<String> = ctx.groups().into_iter().map(str::to_string).collect();
        if groups.is_empty() {
            return Err(ThermalError::BadParameter {
                reason: "design has no power groups; tag blocks with `with_group`".into(),
            });
        }

        // Painting 0 is the baseline (all groups off, ungrouped powers
        // untouched); painting 1 + i is group i alone at reference power.
        let mut paintings: Vec<Vec<(&str, f64)>> = vec![Vec::new()];
        paintings.extend(groups.iter().map(|g| vec![(g.as_str(), 1.0)]));
        let refs: Vec<&[(&str, f64)]> = paintings.iter().map(Vec::as_slice).collect();
        let mut maps = ctx.solve_batch(&refs)?.into_iter();

        let baseline = match maps.next() {
            Some(map) => map?,
            None => {
                return Err(ThermalError::BadParameter {
                    reason: "batched basis solve returned no baseline".into(),
                })
            }
        };
        // Each group's rise is its solo field minus the baseline — the
        // static-power contribution cancels in the subtraction, so no
        // separate pure-BC solve is needed.
        let mut responses = Vec::with_capacity(groups.len());
        for (g, map) in groups.iter().zip(maps) {
            let solved = map?;
            let rise: Vec<f64> = solved
                .temperatures()
                .iter()
                .zip(baseline.temperatures())
                .map(|(t, t0)| t - t0)
                .collect();
            let reference = ctx.group_reference_power(g).unwrap_or(0.0);
            responses.push((g.clone(), reference, rise));
        }

        Ok(Self { baseline, responses })
    }

    /// Names of the groups the basis can scale.
    pub fn groups(&self) -> Vec<&str> {
        self.responses.iter().map(|(g, _, _)| g.as_str()).collect()
    }

    /// The zero-scale baseline field.
    pub fn baseline(&self) -> &ThermalMap {
        &self.baseline
    }

    /// Composes a thermal map with each group's reference power multiplied
    /// by the given scale. Groups omitted from `scales` default to zero.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownGroup`] for a scale entry whose group
    /// does not exist, and [`ThermalError::BadParameter`] for a negative
    /// or non-finite scale or a group named twice.
    pub fn compose(&self, scales: &[(&str, f64)]) -> Result<ThermalMap, ThermalError> {
        check_scales(scales, |g| self.responses.iter().any(|(name, _, _)| name == g))?;
        let (mesh, base_temps, faces, base_power) = self.baseline.parts();
        let mut temps = base_temps.to_vec();
        let mut power = base_power;
        for (g, reference_power, rise) in &self.responses {
            let scale = scales.iter().find(|(name, _)| name == g).map(|(_, s)| *s).unwrap_or(0.0);
            if scale != 0.0 {
                for (t, r) in temps.iter_mut().zip(rise) {
                    *t += scale * r;
                }
                power += scale * reference_power;
            }
        }
        Ok(ThermalMap::new(mesh.clone(), temps, faces.to_vec(), power))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, Boundary, BoundaryCondition, BoxRegion, Material};
    use vcsel_units::{Celsius, Meters, Watts, WattsPerSquareMeterKelvin};

    fn mm(v: f64) -> Meters {
        Meters::from_millimeters(v)
    }

    fn grouped_design() -> Design {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(1.0)]).unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(2_000.0),
                ambient: Celsius::new(40.0),
            },
        );
        let chip = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(0.1)]).unwrap();
        d.add_block(
            Block::heat_source("chip", chip, Material::SILICON, Watts::new(1.0)).with_group("chip"),
        );
        let vcsel =
            BoxRegion::new([mm(1.0), mm(1.0), mm(0.5)], [mm(1.2), mm(1.2), mm(0.6)]).unwrap();
        d.add_block(
            Block::heat_source("vcsel", vcsel, Material::III_V, Watts::from_milliwatts(2.0))
                .with_group("vcsel"),
        );
        d
    }

    #[test]
    fn compose_matches_direct_solve() {
        let design = grouped_design();
        let spec = MeshSpec::uniform(mm(0.2));
        let sim = Simulator::new();
        let basis = ResponseBasis::build(&sim, &design, &spec).unwrap();

        // Direct solve at chip x 1.5, vcsel x 2.5.
        let mut scaled = design.clone();
        scaled.scale_group_power("chip", 1.5);
        scaled.scale_group_power("vcsel", 2.5);
        let direct = sim.solve(&scaled, &spec).unwrap();

        let composed = basis.compose(&[("chip", 1.5), ("vcsel", 2.5)]).unwrap();
        for (a, b) in direct.temperatures().iter().zip(composed.temperatures()) {
            assert!((a - b).abs() < 1e-5, "direct {a} vs composed {b}");
        }
    }

    #[test]
    fn omitted_group_defaults_to_zero() {
        let design = grouped_design();
        let spec = MeshSpec::uniform(mm(0.4));
        let sim = Simulator::new();
        let basis = ResponseBasis::build(&sim, &design, &spec).unwrap();
        let composed = basis.compose(&[("chip", 1.0)]).unwrap();

        let mut no_vcsel = design.clone();
        no_vcsel.scale_group_power("vcsel", 0.0);
        let direct = sim.solve(&no_vcsel, &spec).unwrap();
        for (a, b) in direct.temperatures().iter().zip(composed.temperatures()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn batched_basis_matches_per_group_solves() {
        // The basis solves all its paintings as one block; each of its
        // fields, and the composition of them, must match what one
        // `solve_scaled` per painting gives.
        let design = grouped_design();
        let spec = MeshSpec::uniform(mm(0.3));
        let sim = Simulator::new();
        let mut batch_ctx = SolveContext::new(&design, &spec).unwrap().with_options(*sim.options());
        let basis = ResponseBasis::build_on(&mut batch_ctx).unwrap();
        let mut ctx = SolveContext::new(&design, &spec).unwrap().with_options(*sim.options());
        let baseline = ctx.solve_scaled(&[]).unwrap();
        let chip = ctx.solve_scaled(&[("chip", 1.0)]).unwrap();
        let vcsel = ctx.solve_scaled(&[("vcsel", 1.0)]).unwrap();
        assert_eq!(basis.groups(), ctx.groups());

        let close = |a: &[f64], b: &[f64], what: &str| {
            let scale = a.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (p, q) in a.iter().zip(b) {
                assert!((p - q).abs() / scale < 1e-10, "{what}: per-group {p} vs batched {q}");
            }
        };
        close(baseline.temperatures(), basis.baseline().temperatures(), "baseline");
        for (g, solved) in [("chip", &chip), ("vcsel", &vcsel)] {
            let composed = basis.compose(&[(g, 1.0)]).unwrap();
            close(solved.temperatures(), composed.temperatures(), g);
        }

        // T = T0 + 1.3·ΔT_chip + 2.0·ΔT_vcsel from the per-group fields.
        let (s_chip, s_vcsel) = (1.3, 2.0);
        let expected: Vec<f64> = baseline
            .temperatures()
            .iter()
            .zip(chip.temperatures().iter().zip(vcsel.temperatures()))
            .map(|(t0, (tc, tv))| t0 + s_chip * (tc - t0) + s_vcsel * (tv - t0))
            .collect();
        let composed = basis.compose(&[("chip", s_chip), ("vcsel", s_vcsel)]).unwrap();
        close(&expected, composed.temperatures(), "composition");
        let power = baseline.injected_power().value()
            + s_chip * ctx.group_reference_power("chip").unwrap()
            + s_vcsel * ctx.group_reference_power("vcsel").unwrap();
        assert!((power - composed.injected_power().value()).abs() < 1e-12);
    }

    #[test]
    fn unknown_group_rejected() {
        let design = grouped_design();
        let spec = MeshSpec::uniform(mm(0.4));
        let basis = ResponseBasis::build(&Simulator::new(), &design, &spec).unwrap();
        assert!(matches!(
            basis.compose(&[("nonexistent", 1.0)]),
            Err(ThermalError::UnknownGroup { .. })
        ));
    }

    #[test]
    fn ungrouped_design_rejected() {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(1.0), mm(1.0), mm(1.0)]).unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(100.0),
                ambient: Celsius::new(25.0),
            },
        );
        let spec = MeshSpec::uniform(mm(0.5));
        assert!(matches!(
            ResponseBasis::build(&Simulator::new(), &d, &spec),
            Err(ThermalError::BadParameter { .. })
        ));
    }

    #[test]
    fn groups_listed() {
        let design = grouped_design();
        let spec = MeshSpec::uniform(mm(0.4));
        let basis = ResponseBasis::build(&Simulator::new(), &design, &spec).unwrap();
        assert_eq!(basis.groups(), vec!["chip", "vcsel"]);
    }
}
