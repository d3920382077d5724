//! The steady-state solve driver.

use vcsel_numerics::solver::SolveOptions;

use crate::{Design, Mesh, MeshSpec, SolveContext, ThermalError, ThermalMap};

/// Steady-state thermal simulator (the IcTherm-equivalent entry point).
///
/// Stateless apart from solver options, so one simulator can be reused
/// across designs and sweeps.
///
/// # Example
///
/// ```
/// use vcsel_thermal::{
///     Block, Boundary, BoundaryCondition, BoxRegion, Design, Material, MeshSpec, Simulator,
/// };
/// use vcsel_units::{Celsius, Meters, Watts, WattsPerSquareMeterKelvin};
///
/// let domain = BoxRegion::with_size(
///     [Meters::ZERO; 3],
///     [Meters::from_millimeters(2.0), Meters::from_millimeters(2.0),
///      Meters::from_millimeters(0.5)],
/// )?;
/// let mut design = Design::new(domain, Material::SILICON)?;
/// design.set_boundary(Boundary::top(), BoundaryCondition::Convective {
///     h: WattsPerSquareMeterKelvin::new(5_000.0),
///     ambient: Celsius::new(40.0),
/// });
/// let src = BoxRegion::with_size(
///     [Meters::from_millimeters(0.8), Meters::from_millimeters(0.8), Meters::ZERO],
///     [Meters::from_millimeters(0.4), Meters::from_millimeters(0.4),
///      Meters::from_millimeters(0.1)],
/// )?;
/// design.add_block(Block::heat_source("hot", src, Material::COPPER,
///                                     Watts::from_milliwatts(100.0)));
///
/// let map = Simulator::new()
///     .solve(&design, &MeshSpec::uniform(Meters::from_micrometers(200.0)))?;
/// // The source region is hotter than ambient and the map conserves energy.
/// assert!(map.hottest().1 > Celsius::new(40.0));
/// assert!(map.energy_balance_defect() < 1e-6);
/// # Ok::<(), vcsel_thermal::ThermalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    options: SolveOptions,
}

impl Simulator {
    /// Simulator with the engines' default solver options (CG, 1e-9
    /// relative residual within 50 000 iterations).
    pub fn new() -> Self {
        Self { options: crate::context::ENGINE_OPTIONS }
    }

    /// Overrides the linear-solver options (builder style).
    #[must_use]
    pub fn with_options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// The active solver options.
    pub fn options(&self) -> &SolveOptions {
        &self.options
    }

    /// Meshes the design and solves for the steady-state temperature field.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::NoHeatPath`] if every boundary is adiabatic,
    /// * [`ThermalError::MeshTooLarge`] if the spec exceeds its cell limit,
    /// * [`ThermalError::BadParameter`] for invalid powers/coefficients,
    /// * [`ThermalError::Solver`] if CG fails to converge.
    pub fn solve(&self, design: &Design, spec: &MeshSpec) -> Result<ThermalMap, ThermalError> {
        let mesh = Mesh::build(design, spec)?;
        self.solve_on(design, mesh)
    }

    /// Solves on an already-built mesh (lets sweeps reuse the mesh).
    ///
    /// One-shot solves route through the same [`SolveContext`] engine the
    /// cached paths use, so every caller gets the size-matched default
    /// preconditioner — IC(0) on small meshes, the smoothed-aggregation
    /// multigrid hierarchy at or above
    /// [`SolveContext::MULTIGRID_CELL_THRESHOLD`] unknowns (which is what
    /// makes `Fidelity::Paper` steady maps tractable). Code that solves
    /// the same design repeatedly should hold a [`SolveContext`] directly
    /// and keep its warm starts.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::solve`].
    pub fn solve_on(&self, design: &Design, mesh: Mesh) -> Result<ThermalMap, ThermalError> {
        let mut ctx = SolveContext::on_mesh(design, mesh)?.with_options(self.options);
        ctx.solve()
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
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

    /// 1-D composite-wall validation: silicon slab, uniform heat flux
    /// injected at the bottom, convective top. The analytic solution is
    /// T_bottom = T_amb + q''·(t/k + 1/h), T_top = T_amb + q''/h.
    #[test]
    fn one_dimensional_slab_matches_analytic() {
        let a = 2.0e-3; // 2 mm x 2 mm column
        let t = 1.0e-3; // 1 mm thick
        let h = 2_000.0;
        let ambient = 30.0;
        let power = 0.5; // W
        let domain =
            BoxRegion::new([Meters::ZERO; 3], [Meters::new(a), Meters::new(a), Meters::new(t)])
                .unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(h),
                ambient: Celsius::new(ambient),
            },
        );
        // Thin heater covering the whole bottom -> 1-D heat flow.
        let heater = BoxRegion::new(
            [Meters::ZERO; 3],
            [Meters::new(a), Meters::new(a), Meters::new(t / 50.0)],
        )
        .unwrap();
        d.add_block(Block::heat_source("heater", heater, Material::SILICON, Watts::new(power)));

        let map = Simulator::new()
            .solve(&d, &MeshSpec::per_axis([mm(1.0), mm(1.0), Meters::new(t / 50.0)]))
            .unwrap();

        let area = a * a;
        let flux = power / area;
        let k = Material::SILICON.conductivity().value();
        let t_top_expected = ambient + flux / h;
        let t_bottom_expected = ambient + flux * (1.0 / h + (t - t / 100.0) / k);

        let t_top = map.temperature_at([mm(1.0), mm(1.0), Meters::new(t * 0.999)]).unwrap();
        let t_bottom = map.temperature_at([mm(1.0), mm(1.0), Meters::new(t / 100.0)]).unwrap();
        assert!(
            (t_top.value() - t_top_expected).abs() < 0.5,
            "top: got {}, expected {t_top_expected}",
            t_top.value()
        );
        assert!(
            (t_bottom.value() - t_bottom_expected).abs() < 0.5,
            "bottom: got {}, expected {t_bottom_expected}",
            t_bottom.value()
        );
        assert!(map.energy_balance_defect() < 1e-6);
    }

    /// With no power anywhere, the field must settle at the ambient.
    #[test]
    fn zero_power_settles_to_ambient() {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(3.0), mm(3.0), mm(1.0)]).unwrap();
        let mut d = Design::new(domain, Material::COPPER).unwrap();
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(100.0),
                ambient: Celsius::new(42.0),
            },
        );
        let map = Simulator::new().solve(&d, &MeshSpec::uniform(mm(0.5))).unwrap();
        for &t in map.temperatures() {
            assert!((t - 42.0).abs() < 1e-6, "expected uniform 42 °C, got {t}");
        }
    }

    /// Isothermal boundary pins the adjacent cells near the set temperature.
    #[test]
    fn isothermal_boundary_pins_temperature() {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(2.0), mm(2.0), mm(2.0)]).unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(
            Boundary::bottom(),
            BoundaryCondition::Isothermal { temperature: Celsius::new(20.0) },
        );
        let src = BoxRegion::new([mm(0.5), mm(0.5), mm(1.5)], [mm(1.5), mm(1.5), mm(2.0)]).unwrap();
        d.add_block(Block::heat_source("s", src, Material::SILICON, Watts::new(0.1)));
        let map = Simulator::new().solve(&d, &MeshSpec::uniform(mm(0.25))).unwrap();
        // Bottom cells sit within a fraction of a degree of the plate.
        let t = map.temperature_at([mm(1.0), mm(1.0), Meters::new(1e-6)]).unwrap();
        assert!(t.value() >= 20.0 && t.value() < 21.0, "got {t}");
        // Source region is the hottest part.
        let (_, hottest) = map.hottest();
        let t_src = map.temperature_at([mm(1.0), mm(1.0), mm(1.75)]).unwrap();
        assert!((hottest.value() - t_src.value()).abs() < 0.5);
        assert!(map.energy_balance_defect() < 1e-6);
    }

    /// Doubling every power must exactly double every temperature rise
    /// (linearity of the discrete operator).
    #[test]
    fn linearity_in_power() {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(1.0)]).unwrap();
        let build = |p: f64| {
            let mut d = Design::new(domain, Material::SILICON).unwrap();
            d.set_boundary(
                Boundary::top(),
                BoundaryCondition::Convective {
                    h: WattsPerSquareMeterKelvin::new(3_000.0),
                    ambient: Celsius::new(40.0),
                },
            );
            let src = BoxRegion::new([mm(1.0), mm(1.0), Meters::ZERO], [mm(3.0), mm(2.0), mm(0.2)])
                .unwrap();
            d.add_block(Block::heat_source("s", src, Material::COPPER, Watts::new(p)));
            d
        };
        let sim = Simulator::new()
            .with_options(SolveOptions { tolerance: 1e-12, max_iterations: 50_000 });
        let spec = MeshSpec::uniform(mm(0.5));
        let m1 = sim.solve(&build(1.0), &spec).unwrap();
        let m2 = sim.solve(&build(2.0), &spec).unwrap();
        for (a, b) in m1.temperatures().iter().zip(m2.temperatures()) {
            let rise1 = a - 40.0;
            let rise2 = b - 40.0;
            assert!((rise2 - 2.0 * rise1).abs() < 1e-6, "rise {rise1} vs {rise2}");
        }
    }

    /// A symmetric design must produce a symmetric field.
    #[test]
    fn mirror_symmetry() {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(2.0), mm(1.0)]).unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(2_000.0),
                ambient: Celsius::new(25.0),
            },
        );
        // Source centered in x.
        let src =
            BoxRegion::new([mm(1.5), mm(0.5), Meters::ZERO], [mm(2.5), mm(1.5), mm(0.2)]).unwrap();
        d.add_block(Block::heat_source("s", src, Material::COPPER, Watts::new(0.5)));
        let map = Simulator::new().solve(&d, &MeshSpec::uniform(mm(0.25))).unwrap();
        let left = map.temperature_at([mm(0.625), mm(1.0), mm(0.5)]).unwrap();
        let right = map.temperature_at([mm(3.375), mm(1.0), mm(0.5)]).unwrap();
        assert!((left.value() - right.value()).abs() < 1e-6, "asymmetry: {left} vs {right}");
    }

    /// Heat spreads better through copper than oxide: the hot spot over a
    /// low-conductivity layer is hotter.
    #[test]
    fn conductivity_ordering_affects_peak() {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(1.0)]).unwrap();
        let peak = |material: Material| {
            let mut d = Design::new(domain, Material::SILICON).unwrap();
            d.set_boundary(
                Boundary::top(),
                BoundaryCondition::Convective {
                    h: WattsPerSquareMeterKelvin::new(2_000.0),
                    ambient: Celsius::new(25.0),
                },
            );
            let layer = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(0.5)]).unwrap();
            d.add_block(Block::passive("layer", layer, material));
            let src = BoxRegion::new([mm(1.8), mm(1.8), Meters::ZERO], [mm(2.2), mm(2.2), mm(0.1)])
                .unwrap();
            d.add_block(Block::heat_source("s", src, Material::SILICON, Watts::new(0.2)));
            let map = Simulator::new().solve(&d, &MeshSpec::uniform(mm(0.2))).unwrap();
            map.hottest().1
        };
        let hot_oxide = peak(Material::SILICON_DIOXIDE);
        let hot_copper = peak(Material::COPPER);
        assert!(
            hot_oxide.value() > hot_copper.value() + 1.0,
            "oxide {hot_oxide} should be much hotter than copper {hot_copper}"
        );
    }
}
