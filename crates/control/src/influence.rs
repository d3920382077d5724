//! Linear tile-power → ONI-temperature influence model.
//!
//! Steady-state heat conduction is linear, so the temperature of ONI `o`
//! under per-tile powers `p` is affine:
//!
//! ```text
//! T_o = T_base,o + Σ_t  A[o][t] · p_t
//! ```
//!
//! The full FVM simulator *is* that map evaluated exactly; the run-time
//! policies (DVFS, migration, job allocation) need to query it thousands of
//! times inside inner loops, so they work on this explicit matrix instead.
//! The matrix can be calibrated from any oracle — one FVM solve per tile —
//! via [`InfluenceModel::calibrate`], or built synthetically from floorplan
//! geometry via [`InfluenceModel::from_geometry`] (a constriction-spreading
//! kernel: influence decays with lateral distance).

use serde::{Deserialize, Serialize};
use vcsel_units::{Celsius, Meters, TemperatureDelta, Watts};

use crate::ControlError;

/// An affine map from tile powers to ONI temperatures.
///
/// # Example
///
/// ```
/// use vcsel_control::InfluenceModel;
/// use vcsel_units::{Celsius, Meters, Watts};
///
/// // 2 ONIs over a 4-tile strip.
/// let onis = vec![[Meters::ZERO, Meters::ZERO], [Meters::from_millimeters(12.0), Meters::ZERO]];
/// let tiles: Vec<[Meters; 2]> = (0..4)
///     .map(|k| [Meters::from_millimeters(4.0 * k as f64), Meters::ZERO])
///     .collect();
/// let model = InfluenceModel::from_geometry(&onis, &tiles, Celsius::new(45.0), 0.5, Meters::from_millimeters(2.0))?;
/// let temps = model.temperatures(&vec![Watts::new(5.0); 4])?;
/// assert_eq!(temps.len(), 2);
/// # Ok::<(), vcsel_control::ControlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfluenceModel {
    /// Base (zero-power) temperature per ONI, °C.
    base: Vec<f64>,
    /// `matrix[o][t]` = °C of ONI `o` rise per watt in tile `t`.
    matrix: Vec<Vec<f64>>,
}

impl InfluenceModel {
    /// Builds a model from an explicit base vector and influence matrix
    /// (`matrix[o][t]` in °C/W).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::BadParameter`] for empty or ragged input,
    /// negative influence entries, or non-finite values.
    pub fn new(base: Vec<Celsius>, matrix: Vec<Vec<f64>>) -> Result<Self, ControlError> {
        if base.is_empty() || matrix.len() != base.len() {
            return Err(ControlError::BadParameter {
                reason: format!(
                    "need one matrix row per ONI, got {} rows for {} ONIs",
                    matrix.len(),
                    base.len()
                ),
            });
        }
        let tiles = matrix[0].len();
        if tiles == 0 {
            return Err(ControlError::BadParameter { reason: "need at least one tile".into() });
        }
        for (o, row) in matrix.iter().enumerate() {
            if row.len() != tiles {
                return Err(ControlError::BadParameter {
                    reason: format!(
                        "ragged matrix: row {o} has {} entries, expected {tiles}",
                        row.len()
                    ),
                });
            }
            if row.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(ControlError::BadParameter {
                    reason: format!("row {o} has a negative or non-finite influence"),
                });
            }
        }
        if base.iter().any(|t| !t.value().is_finite()) {
            return Err(ControlError::BadParameter {
                reason: "base temperatures must be finite".into(),
            });
        }
        Ok(Self { base: base.into_iter().map(|t| t.value()).collect(), matrix })
    }

    /// Builds the matrix from floorplan geometry with a spreading kernel:
    /// `A[o][t] = k / (1 + d_ot / d0)` where `d_ot` is the lateral distance
    /// from ONI `o` to tile `t`, `k` the self-heating coefficient in °C/W
    /// and `d0` the spreading length.
    ///
    /// This reproduces the qualitative structure the FVM produces — nearby
    /// tiles dominate, far tiles still matter through the heat spreader —
    /// and is exact enough for policy studies; calibrate against the FVM
    /// via [`InfluenceModel::calibrate`] when absolute numbers matter.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::BadParameter`] for empty inputs or
    /// non-positive `k`/`d0`.
    pub fn from_geometry(
        onis: &[[Meters; 2]],
        tiles: &[[Meters; 2]],
        ambient: Celsius,
        k_c_per_w: f64,
        d0: Meters,
    ) -> Result<Self, ControlError> {
        if onis.is_empty() || tiles.is_empty() {
            return Err(ControlError::BadParameter {
                reason: "geometry needs at least one ONI and one tile".into(),
            });
        }
        if !(k_c_per_w > 0.0) || !k_c_per_w.is_finite() || !(d0.value() > 0.0) {
            return Err(ControlError::BadParameter {
                reason: "kernel needs positive k and d0".into(),
            });
        }
        let matrix = onis
            .iter()
            .map(|o| {
                tiles
                    .iter()
                    .map(|t| {
                        let dx = o[0].value() - t[0].value();
                        let dy = o[1].value() - t[1].value();
                        let d = (dx * dx + dy * dy).sqrt();
                        k_c_per_w / (1.0 + d / d0.value())
                    })
                    .collect()
            })
            .collect();
        Self::new(vec![ambient; onis.len()], matrix)
    }

    /// Calibrates the model against an arbitrary oracle (typically one FVM
    /// solve): `oracle(powers)` must return one temperature per ONI. Runs
    /// one zero-power query for the base plus one finite-difference query
    /// per tile at `probe` watts.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::BadParameter`] for a non-positive probe, and
    /// propagates oracle errors.
    pub fn calibrate<E>(
        tiles: usize,
        probe: Watts,
        mut oracle: impl FnMut(&[Watts]) -> Result<Vec<Celsius>, E>,
    ) -> Result<Self, ControlError>
    where
        ControlError: From<E>,
    {
        if tiles == 0 {
            return Err(ControlError::BadParameter { reason: "need at least one tile".into() });
        }
        if !(probe.value() > 0.0) {
            return Err(ControlError::BadParameter {
                reason: format!("probe power must be positive, got {probe}"),
            });
        }
        let zero = vec![Watts::ZERO; tiles];
        let base = oracle(&zero)?;
        let mut matrix = vec![vec![0.0; tiles]; base.len()];
        for t in 0..tiles {
            let mut powers = zero.clone();
            powers[t] = probe;
            let temps = oracle(&powers)?;
            if temps.len() != base.len() {
                return Err(ControlError::DimensionMismatch {
                    what: "oracle temperatures",
                    expected: base.len(),
                    got: temps.len(),
                });
            }
            for (o, (hot, cold)) in temps.iter().zip(&base).enumerate() {
                matrix[o][t] = (hot.value() - cold.value()).max(0.0) / probe.value();
            }
        }
        Self::new(base, matrix)
    }

    /// Number of ONIs (matrix rows).
    pub fn oni_count(&self) -> usize {
        self.base.len()
    }

    /// Number of tiles (matrix columns).
    pub fn tile_count(&self) -> usize {
        self.matrix[0].len()
    }

    /// Influence of tile `t` on ONI `o`, °C/W.
    ///
    /// # Panics
    ///
    /// Panics if `o` or `t` is out of range.
    pub fn influence(&self, o: usize, t: usize) -> f64 {
        self.matrix[o][t]
    }

    /// ONI temperatures under the given tile powers.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] unless one power per
    /// tile is supplied, [`ControlError::BadParameter`] for negative power.
    pub fn temperatures(&self, tile_powers: &[Watts]) -> Result<Vec<Celsius>, ControlError> {
        if tile_powers.len() != self.tile_count() {
            return Err(ControlError::DimensionMismatch {
                what: "tile powers",
                expected: self.tile_count(),
                got: tile_powers.len(),
            });
        }
        if tile_powers.iter().any(|p| p.value() < 0.0 || !p.value().is_finite()) {
            return Err(ControlError::BadParameter {
                reason: "tile powers must be non-negative and finite".into(),
            });
        }
        Ok(self
            .base
            .iter()
            .zip(&self.matrix)
            .map(|(&b, row)| {
                Celsius::new(
                    b + row.iter().zip(tile_powers).map(|(a, p)| a * p.value()).sum::<f64>(),
                )
            })
            .collect())
    }

    /// Max − min ONI temperature under the given tile powers — the
    /// inter-ONI spread that drives misalignment crosstalk.
    ///
    /// # Errors
    ///
    /// Same contract as [`InfluenceModel::temperatures`].
    pub fn spread(&self, tile_powers: &[Watts]) -> Result<TemperatureDelta, ControlError> {
        let temps = self.temperatures(tile_powers)?;
        let max = temps.iter().map(|t| t.value()).fold(f64::NEG_INFINITY, f64::max);
        let min = temps.iter().map(|t| t.value()).fold(f64::INFINITY, f64::min);
        Ok(TemperatureDelta::new(max - min))
    }

    /// The hottest ONI temperature under the given tile powers.
    ///
    /// # Errors
    ///
    /// Same contract as [`InfluenceModel::temperatures`].
    pub fn peak(&self, tile_powers: &[Watts]) -> Result<Celsius, ControlError> {
        let temps = self.temperatures(tile_powers)?;
        Ok(Celsius::new(temps.iter().map(|t| t.value()).fold(f64::NEG_INFINITY, f64::max)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip_model() -> InfluenceModel {
        let onis =
            vec![[Meters::ZERO, Meters::ZERO], [Meters::from_millimeters(12.0), Meters::ZERO]];
        let tiles: Vec<[Meters; 2]> =
            (0..4).map(|k| [Meters::from_millimeters(4.0 * k as f64), Meters::ZERO]).collect();
        InfluenceModel::from_geometry(
            &onis,
            &tiles,
            Celsius::new(45.0),
            0.5,
            Meters::from_millimeters(2.0),
        )
        .unwrap()
    }

    #[test]
    fn nearby_tiles_dominate() {
        let m = strip_model();
        // ONI 0 sits on tile 0: influence must decay with tile index.
        for t in 0..3 {
            assert!(m.influence(0, t) > m.influence(0, t + 1));
        }
        // And symmetrically for ONI 1 at the far end.
        for t in 0..3 {
            assert!(m.influence(1, t) < m.influence(1, t + 1));
        }
    }

    #[test]
    fn temperatures_are_affine() {
        let m = strip_model();
        let p1 = vec![Watts::new(2.0); 4];
        let p2 = vec![Watts::new(4.0); 4];
        let t0 = m.temperatures(&[Watts::ZERO; 4]).unwrap();
        let t1 = m.temperatures(&p1).unwrap();
        let t2 = m.temperatures(&p2).unwrap();
        for o in 0..2 {
            let rise1 = t1[o].value() - t0[o].value();
            let rise2 = t2[o].value() - t0[o].value();
            assert!((rise2 - 2.0 * rise1).abs() < 1e-12, "linearity violated");
        }
    }

    #[test]
    fn uniform_power_on_symmetric_geometry_has_zero_spread() {
        // Two ONIs placed symmetrically over the strip see equal uniform
        // heat.
        let onis = vec![
            [Meters::from_millimeters(2.0), Meters::ZERO],
            [Meters::from_millimeters(10.0), Meters::ZERO],
        ];
        let tiles: Vec<[Meters; 2]> =
            (0..4).map(|k| [Meters::from_millimeters(4.0 * k as f64), Meters::ZERO]).collect();
        let m = InfluenceModel::from_geometry(
            &onis,
            &tiles,
            Celsius::new(45.0),
            0.5,
            Meters::from_millimeters(2.0),
        )
        .unwrap();
        let spread = m.spread(&[Watts::new(3.0); 4]).unwrap();
        assert!(spread.value().abs() < 1e-12, "spread {spread}");
    }

    #[test]
    fn calibrate_recovers_a_linear_oracle() {
        // Oracle = a known affine map; calibration must reproduce it.
        let truth = strip_model();
        let m = InfluenceModel::calibrate(4, Watts::new(1.0), |p: &[Watts]| truth.temperatures(p))
            .unwrap();
        for o in 0..2 {
            for t in 0..4 {
                assert!(
                    (m.influence(o, t) - truth.influence(o, t)).abs() < 1e-9,
                    "mismatch at ({o}, {t})"
                );
            }
        }
    }

    #[test]
    fn validation() {
        assert!(InfluenceModel::new(vec![], vec![]).is_err());
        assert!(InfluenceModel::new(vec![Celsius::new(40.0)], vec![vec![]]).is_err());
        assert!(InfluenceModel::new(vec![Celsius::new(40.0)], vec![vec![1.0], vec![1.0]]).is_err());
        assert!(InfluenceModel::new(vec![Celsius::new(40.0)], vec![vec![-1.0]]).is_err());
        let m = strip_model();
        assert!(m.temperatures(&[Watts::new(1.0)]).is_err());
        assert!(m.temperatures(&[Watts::new(-1.0); 4]).is_err());
    }
}
