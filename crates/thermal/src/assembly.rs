//! Finite-volume assembly of the steady-state conduction system.
//!
//! For each cell i with neighbors j: Σ_j G_ij (T_j − T_i) + q_i = 0, with the
//! face conductance between adjacent cells computed from the two half-cell
//! resistances in series (harmonic mean for unequal materials/sizes):
//!
//! ```text
//!            A_face
//! G_ij = ------------------------
//!        d_i/(2 k_i) + d_j/(2 k_j)
//! ```
//!
//! Convective (Robin) faces add `G = A / (d/(2k) + 1/h)` to the diagonal and
//! `G·T_amb` to the right-hand side; isothermal faces omit the `1/h` term.
//! The resulting matrix is symmetric positive definite as long as at least
//! one face provides a heat path.

use vcsel_numerics::{CsrMatrix, TripletBuilder};

use crate::boundary::{Boundary, BoundaryCondition};
use crate::{Design, Mesh, ThermalError};

/// One boundary-face coupling retained for post-solve heat-flow accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BoundaryFace {
    /// Cell adjacent to the face.
    pub cell: usize,
    /// Conductance to the external reference (W/K).
    pub conductance: f64,
    /// External reference temperature (°C).
    pub reference: f64,
}

/// The assembled linear system plus bookkeeping for queries.
#[derive(Debug, Clone)]
pub(crate) struct Discretization {
    pub matrix: CsrMatrix,
    pub rhs: Vec<f64>,
    /// Boundary couplings for energy-balance checks.
    pub boundary_faces: Vec<BoundaryFace>,
}

/// Paints the per-cell conductivity: background first, then blocks in
/// insertion order (later blocks override).
pub(crate) fn paint_conductivity(design: &Design, mesh: &Mesh) -> Vec<f64> {
    let mut k = vec![design.background().conductivity().value(); mesh.cell_count()];
    for block in design.blocks() {
        let kb = block.material().conductivity().value();
        for idx in mesh.cells_in(block.region()) {
            k[idx] = kb;
        }
    }
    k
}

/// Distributes every block's power over the cells it covers, proportional to
/// cell volume.
pub(crate) fn paint_power(design: &Design, mesh: &Mesh) -> Result<Vec<f64>, ThermalError> {
    let mut q = vec![0.0; mesh.cell_count()];
    for block in design.blocks() {
        let p = block.power().value();
        if p == 0.0 {
            continue;
        }
        if !p.is_finite() || p < 0.0 {
            return Err(ThermalError::BadParameter {
                reason: format!("block '{}' has invalid power {p} W", block.name()),
            });
        }
        let cells = mesh.cells_in(block.region());
        if cells.is_empty() {
            // The mesh always puts ticks on block boundaries, so a block
            // covers at least one cell; keep a defensive fallback anyway.
            let center = block.region().center();
            let idx = mesh.locate(center).ok_or_else(|| ThermalError::BlockOutsideDomain {
                block: block.name().to_string(),
            })?;
            q[idx] += p;
            continue;
        }
        let total_volume: f64 = cells.iter().map(|&c| mesh.cell_volume(c)).sum();
        for &c in &cells {
            q[c] += p * mesh.cell_volume(c) / total_volume;
        }
    }
    Ok(q)
}

/// Assembles the FVM system for `design` on `mesh`.
pub(crate) fn assemble(design: &Design, mesh: &Mesh) -> Result<Discretization, ThermalError> {
    if !design.boundaries().has_heat_path() {
        return Err(ThermalError::NoHeatPath);
    }

    let k = paint_conductivity(design, mesh);
    let mut rhs = paint_power(design, mesh)?;

    let (nx, ny, nz) = mesh.shape();
    let n = mesh.cell_count();
    // 7-point stencil: diagonal + up to 6 neighbors.
    let mut builder = TripletBuilder::with_capacity(n, n, 7 * n);
    let mut boundary_faces = Vec::new();

    for kz in 0..nz {
        for jy in 0..ny {
            for ix in 0..nx {
                let idx = mesh.index(ix, jy, kz);
                let widths = [mesh.x().width(ix), mesh.y().width(jy), mesh.z().width(kz)];
                let faces = [widths[1] * widths[2], widths[0] * widths[2], widths[0] * widths[1]];

                // Interior couplings: only the +axis neighbor per axis so
                // each face is assembled exactly once (symmetrically).
                let neighbors = [
                    (0usize, ix + 1 < nx, mesh_index_checked(mesh, ix + 1, jy, kz, 0)),
                    (1usize, jy + 1 < ny, mesh_index_checked(mesh, ix, jy + 1, kz, 1)),
                    (2usize, kz + 1 < nz, mesh_index_checked(mesh, ix, jy, kz + 1, 2)),
                ];
                for &(axis, exists, nbr) in &neighbors {
                    if !exists {
                        continue;
                    }
                    let nbr = nbr.expect("neighbor exists");
                    let d_i = widths[axis];
                    let d_j = match axis {
                        0 => mesh.x().width(ix + 1),
                        1 => mesh.y().width(jy + 1),
                        _ => mesh.z().width(kz + 1),
                    };
                    let r = d_i / (2.0 * k[idx]) + d_j / (2.0 * k[nbr]);
                    let g = faces[axis] / r;
                    builder.add(idx, idx, g);
                    builder.add(nbr, nbr, g);
                    builder.add(idx, nbr, -g);
                    builder.add(nbr, idx, -g);
                }

                // Boundary faces.
                for face in Boundary::all() {
                    let axis = face.axis();
                    let on_boundary = match face {
                        Boundary::XMin => ix == 0,
                        Boundary::XMax => ix == nx - 1,
                        Boundary::YMin => jy == 0,
                        Boundary::YMax => jy == ny - 1,
                        Boundary::ZMin => kz == 0,
                        Boundary::ZMax => kz == nz - 1,
                    };
                    if !on_boundary {
                        continue;
                    }
                    let bc = design.boundaries().get(face);
                    let half = widths[axis] / (2.0 * k[idx]);
                    let (g, t_ref) = match bc {
                        BoundaryCondition::Adiabatic => continue,
                        BoundaryCondition::Convective { h, ambient } => {
                            let hv = h.value();
                            if !(hv > 0.0) || !hv.is_finite() {
                                return Err(ThermalError::BadParameter {
                                    reason: format!(
                                        "convective coefficient must be positive, got {hv}"
                                    ),
                                });
                            }
                            (faces[axis] / (half + 1.0 / hv), ambient.value())
                        }
                        BoundaryCondition::Isothermal { temperature } => {
                            (faces[axis] / half, temperature.value())
                        }
                    };
                    builder.add(idx, idx, g);
                    rhs[idx] += g * t_ref;
                    boundary_faces.push(BoundaryFace {
                        cell: idx,
                        conductance: g,
                        reference: t_ref,
                    });
                }
            }
        }
    }

    let matrix = builder.build();
    // The FVM conduction operator must come out structurally valid and
    // symmetric with a positive diagonal; catch assembly bugs here rather
    // than as solver divergence (debug builds only — the check is O(nnz log)).
    debug_assert!(
        matrix.validate_symmetric().is_ok(),
        "FVM assembly produced an invalid operator: {:?}",
        matrix.validate_symmetric().err()
    );
    Ok(Discretization { matrix, rhs, boundary_faces })
}

fn mesh_index_checked(mesh: &Mesh, i: usize, j: usize, k: usize, _axis: usize) -> Option<usize> {
    let (nx, ny, nz) = mesh.shape();
    if i < nx && j < ny && k < nz {
        Some(mesh.index(i, j, k))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, BoundaryCondition, BoxRegion, Material, MeshSpec};
    use vcsel_units::{Celsius, Meters, Watts, WattsPerSquareMeterKelvin};

    fn mm(v: f64) -> Meters {
        Meters::from_millimeters(v)
    }

    fn cooled_slab() -> Design {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(1.0)]).unwrap();
        let mut d = Design::new(domain, Material::SILICON).unwrap();
        d.set_boundary(
            Boundary::top(),
            BoundaryCondition::Convective {
                h: WattsPerSquareMeterKelvin::new(1e4),
                ambient: Celsius::new(25.0),
            },
        );
        d
    }

    #[test]
    fn adiabatic_only_is_rejected() {
        let domain = BoxRegion::new([Meters::ZERO; 3], [mm(1.0), mm(1.0), mm(1.0)]).unwrap();
        let d = Design::new(domain, Material::SILICON).unwrap();
        let mesh = Mesh::build(&d, &MeshSpec::uniform(mm(0.5))).unwrap();
        assert!(matches!(assemble(&d, &mesh), Err(ThermalError::NoHeatPath)));
    }

    #[test]
    fn matrix_is_symmetric_and_dominant() {
        let mut d = cooled_slab();
        let src =
            BoxRegion::new([mm(1.0), mm(1.0), Meters::ZERO], [mm(2.0), mm(2.0), mm(0.2)]).unwrap();
        d.add_block(Block::heat_source("s", src, Material::COPPER, Watts::new(1.0)));
        let mesh = Mesh::build(&d, &MeshSpec::uniform(mm(0.5))).unwrap();
        let disc = assemble(&d, &mesh).unwrap();
        assert!(disc.matrix.is_symmetric(1e-12));
        assert!(disc.matrix.is_diagonally_dominant());
    }

    #[test]
    fn power_is_conserved_in_painting() {
        let mut d = cooled_slab();
        let src =
            BoxRegion::new([mm(0.3), mm(0.3), Meters::ZERO], [mm(3.7), mm(2.9), mm(0.35)]).unwrap();
        d.add_block(Block::heat_source("s", src, Material::COPPER, Watts::new(2.5)));
        let mesh = Mesh::build(&d, &MeshSpec::uniform(mm(0.4))).unwrap();
        let q = paint_power(&d, &mesh).unwrap();
        let total: f64 = q.iter().sum();
        assert!((total - 2.5).abs() < 1e-12, "painted {total} W");
    }

    #[test]
    fn conductivity_painting_respects_precedence() {
        let mut d = cooled_slab();
        let big = BoxRegion::new([Meters::ZERO; 3], [mm(4.0), mm(4.0), mm(0.5)]).unwrap();
        let small =
            BoxRegion::new([mm(1.0), mm(1.0), Meters::ZERO], [mm(2.0), mm(2.0), mm(0.5)]).unwrap();
        d.add_block(Block::passive("oxide", big, Material::SILICON_DIOXIDE));
        d.add_block(Block::passive("plug", small, Material::COPPER));
        let mesh = Mesh::build(&d, &MeshSpec::uniform(mm(0.5))).unwrap();
        let k = paint_conductivity(&d, &mesh);
        let inside = mesh.locate([mm(1.25), mm(1.25), mm(0.25)]).unwrap();
        let oxide = mesh.locate([mm(3.75), mm(3.75), mm(0.25)]).unwrap();
        let background = mesh.locate([mm(3.75), mm(3.75), mm(0.75)]).unwrap();
        assert_eq!(k[inside], Material::COPPER.conductivity().value());
        assert_eq!(k[oxide], Material::SILICON_DIOXIDE.conductivity().value());
        assert_eq!(k[background], Material::SILICON.conductivity().value());
    }

    #[test]
    fn negative_power_rejected() {
        let mut d = cooled_slab();
        let src =
            BoxRegion::new([mm(1.0), mm(1.0), Meters::ZERO], [mm(2.0), mm(2.0), mm(0.2)]).unwrap();
        let mut block = Block::heat_source("s", src, Material::COPPER, Watts::new(1.0));
        block.set_power(Watts::new(-1.0));
        d.add_block(block);
        let mesh = Mesh::build(&d, &MeshSpec::uniform(mm(0.5))).unwrap();
        assert!(matches!(assemble(&d, &mesh), Err(ThermalError::BadParameter { .. })));
    }

    #[test]
    fn boundary_faces_cover_convective_face() {
        let d = cooled_slab();
        let mesh = Mesh::build(&d, &MeshSpec::uniform(mm(1.0))).unwrap();
        let disc = assemble(&d, &mesh).unwrap();
        // 4x4 top faces, one convective coupling each.
        assert_eq!(disc.boundary_faces.len(), 16);
        for f in &disc.boundary_faces {
            assert!(f.conductance > 0.0);
            assert_eq!(f.reference, 25.0);
        }
    }
}
