//! Drivers that regenerate every table and figure of the paper's
//! evaluation (Section V), used by the report binaries in `src/bin`; all
//! outputs are serializable for their JSON reports.

use serde::{Deserialize, Serialize};
use vcsel_arch::{Activity, Fidelity, PlacementCase, SccConfig};
use vcsel_network::baselines::{ornoc_loss_reduction, CrossbarTopology, LossCoefficients};
use vcsel_photonics::Vcsel;
use vcsel_units::{Amperes, Celsius, Watts};

use crate::{DesignFlow, FlowError, ThermalStudy};

/// Figure 8-b/8-c: VCSEL efficiency and output-power families.
#[derive(Debug, Clone, Serialize)]
pub struct Figure8 {
    /// Temperatures of the curve family, °C.
    pub temperatures_c: Vec<f64>,
    /// Modulation-current axis, mA.
    pub currents_ma: Vec<f64>,
    /// Wall-plug efficiency η\[temperature\]\[current\].
    pub efficiency: Vec<Vec<f64>>,
    /// Dissipated-power axis samples per temperature: `(P_VCSEL mW, OP mW)`.
    pub output_vs_dissipated: Vec<Vec<(f64, f64)>>,
}

/// Regenerates Figure 8 from the VCSEL library model.
///
/// # Errors
///
/// Propagates device-model errors (none for in-range sweeps).
pub fn figure8(vcsel: &Vcsel) -> Result<Figure8, FlowError> {
    let temperatures_c: Vec<f64> = vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0];
    let currents_ma: Vec<f64> = (0..=60).map(|k| 0.25 * k as f64).collect();
    let mut efficiency = Vec::with_capacity(temperatures_c.len());
    let mut output_vs_dissipated = Vec::with_capacity(temperatures_c.len());
    for &t in &temperatures_c {
        let t = Celsius::new(t);
        let mut row = Vec::with_capacity(currents_ma.len());
        for &i in &currents_ma {
            row.push(vcsel.wall_plug_efficiency(Amperes::from_milliamperes(i), t)?);
        }
        efficiency.push(row);
        output_vs_dissipated.push(
            vcsel
                .dissipated_vs_output_curve(t, 60)
                .into_iter()
                .map(|(p, op)| (p.as_milliwatts(), op.as_milliwatts()))
                .collect(),
        );
    }
    Ok(Figure8 { temperatures_c, currents_ma, efficiency, output_vs_dissipated })
}

/// Figure 9-a: ONI average temperature vs P_VCSEL for several chip powers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure9a {
    /// P_VCSEL axis, mW.
    pub p_vcsel_mw: Vec<f64>,
    /// Chip-power family, W.
    pub p_chip_w: Vec<f64>,
    /// Mean ONI average temperature \[chip power\]\[P_VCSEL\], °C.
    pub average_c: Vec<Vec<f64>>,
}

impl Figure9a {
    /// Average-temperature slope per watt of chip power at P_VCSEL = 0
    /// (paper: ≈ 3.3 °C per 6.25 W, i.e. ≈ 0.53 °C/W).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadConfig`] when the figure holds fewer than
    /// two chip powers or an empty temperature row — possible for a figure
    /// deserialized from a truncated artifact, so it is a typed error
    /// rather than a panic.
    pub fn chip_power_slope(&self) -> Result<f64, FlowError> {
        let (first_p, last_p, first_row, last_row) = match (
            self.p_chip_w.first(),
            self.p_chip_w.last(),
            self.average_c.first(),
            self.average_c.last(),
        ) {
            (Some(fp), Some(lp), Some(fr), Some(lr)) if self.p_chip_w.len() >= 2 => {
                (fp, lp, fr, lr)
            }
            _ => {
                return Err(FlowError::BadConfig {
                    reason: "Figure 9-a needs at least two chip powers for a slope".into(),
                })
            }
        };
        match (first_row.first(), last_row.first()) {
            (Some(first), Some(last)) => Ok((last - first) / (last_p - first_p)),
            _ => {
                Err(FlowError::BadConfig { reason: "Figure 9-a temperature rows are empty".into() })
            }
        }
    }

    /// Average-temperature rise per mW of P_VCSEL at the lowest chip power
    /// (paper: ≈ 11 °C per 6 mW, i.e. ≈ 1.8 °C/mW).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadConfig`] when the figure holds fewer than
    /// two P_VCSEL points or no temperature rows.
    pub fn vcsel_power_slope(&self) -> Result<f64, FlowError> {
        let row = self.average_c.first().ok_or_else(|| FlowError::BadConfig {
            reason: "Figure 9-a holds no temperature rows".into(),
        })?;
        match (row.first(), row.last(), self.p_vcsel_mw.first(), self.p_vcsel_mw.last()) {
            (Some(first), Some(last), Some(first_p), Some(last_p))
                if self.p_vcsel_mw.len() >= 2 =>
            {
                Ok((last - first) / (last_p - first_p))
            }
            _ => Err(FlowError::BadConfig {
                reason: "Figure 9-a needs at least two P_VCSEL points for a slope".into(),
            }),
        }
    }
}

/// Regenerates Figure 9-a on a prepared thermal study.
///
/// # Errors
///
/// Propagates composition errors.
pub fn figure9a(
    study: &ThermalStudy,
    p_vcsel_mw: &[f64],
    p_chip_w: &[f64],
) -> Result<Figure9a, FlowError> {
    let mut average_c = Vec::with_capacity(p_chip_w.len());
    for &chip in p_chip_w {
        let mut row = Vec::with_capacity(p_vcsel_mw.len());
        for &pv in p_vcsel_mw {
            let outcome =
                study.evaluate(Watts::from_milliwatts(pv), Watts::ZERO, Watts::new(chip))?;
            row.push(outcome.mean_average().value());
        }
        average_c.push(row);
    }
    Ok(Figure9a { p_vcsel_mw: p_vcsel_mw.to_vec(), p_chip_w: p_chip_w.to_vec(), average_c })
}

/// Figure 9-b: intra-ONI gradient vs P_heater for several P_VCSEL.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure9b {
    /// P_VCSEL family, mW.
    pub p_vcsel_mw: Vec<f64>,
    /// P_heater axis, mW.
    pub p_heater_mw: Vec<f64>,
    /// Worst intra-ONI gradient \[P_VCSEL\]\[P_heater\], °C.
    pub gradient_c: Vec<Vec<f64>>,
    /// Heater/VCSEL power ratio minimizing the gradient, per P_VCSEL value
    /// (paper: ≈ 0.3 across the family).
    pub optimal_ratio: Vec<f64>,
}

/// Regenerates Figure 9-b.
///
/// # Errors
///
/// Propagates composition errors.
pub fn figure9b(
    study: &ThermalStudy,
    p_vcsel_mw: &[f64],
    p_heater_mw: &[f64],
    p_chip: Watts,
) -> Result<Figure9b, FlowError> {
    let mut gradient_c = Vec::with_capacity(p_vcsel_mw.len());
    let mut optimal_ratio = Vec::with_capacity(p_vcsel_mw.len());
    for &pv in p_vcsel_mw {
        let pv_w = Watts::from_milliwatts(pv);
        let mut row = Vec::with_capacity(p_heater_mw.len());
        for &ph in p_heater_mw {
            let outcome = study.evaluate(pv_w, Watts::from_milliwatts(ph), p_chip)?;
            row.push(outcome.worst_gradient().value());
        }
        gradient_c.push(row);
        let exploration = study.explore_heater(pv_w, p_chip, 1.0, 5)?;
        optimal_ratio.push(exploration.optimal_ratio);
    }
    Ok(Figure9b {
        p_vcsel_mw: p_vcsel_mw.to_vec(),
        p_heater_mw: p_heater_mw.to_vec(),
        gradient_c,
        optimal_ratio,
    })
}

/// Figure 10: average & gradient temperature with and without the MR
/// heater (P_heater = ratio × P_VCSEL vs 0).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure10 {
    /// P_VCSEL axis, mW.
    pub p_vcsel_mw: Vec<f64>,
    /// Heater ratio used for the "with heater" series.
    pub heater_ratio: f64,
    /// Mean ONI average temperature without heater, °C.
    pub average_without_c: Vec<f64>,
    /// Mean ONI average temperature with heater, °C.
    pub average_with_c: Vec<f64>,
    /// Worst gradient without heater, °C.
    pub gradient_without_c: Vec<f64>,
    /// Worst gradient with heater, °C.
    pub gradient_with_c: Vec<f64>,
}

/// Regenerates Figure 10.
///
/// # Errors
///
/// Propagates composition errors.
pub fn figure10(
    study: &ThermalStudy,
    p_vcsel_mw: &[f64],
    heater_ratio: f64,
    p_chip: Watts,
) -> Result<Figure10, FlowError> {
    let mut f = Figure10 {
        p_vcsel_mw: p_vcsel_mw.to_vec(),
        heater_ratio,
        average_without_c: Vec::new(),
        average_with_c: Vec::new(),
        gradient_without_c: Vec::new(),
        gradient_with_c: Vec::new(),
    };
    for &pv in p_vcsel_mw {
        let pv_w = Watts::from_milliwatts(pv);
        let without = study.evaluate(pv_w, Watts::ZERO, p_chip)?;
        let with = study.evaluate(pv_w, pv_w * heater_ratio, p_chip)?;
        f.average_without_c.push(without.mean_average().value());
        f.average_with_c.push(with.mean_average().value());
        f.gradient_without_c.push(without.worst_gradient().value());
        f.gradient_with_c.push(with.worst_gradient().value());
    }
    Ok(f)
}

/// One bar group of Figure 12: an (activity, placement) combination.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure12Row {
    /// Activity label ("uniform", "diagonal", "random").
    pub activity: String,
    /// Ring length of the placement case, mm.
    pub ring_length_mm: f64,
    /// Worst-case SNR, dB.
    pub worst_snr_db: f64,
    /// Worst-case received signal power, mW.
    pub signal_mw: f64,
    /// Worst-case crosstalk power, mW.
    pub crosstalk_mw: f64,
    /// Spread of ONI average temperatures, °C.
    pub oni_spread_c: f64,
    /// Mean ONI average temperature, °C.
    pub mean_oni_c: f64,
    /// Whether every link meets the −20 dBm sensitivity.
    pub all_detected: bool,
}

/// Regenerates Figure 12 (plus the Figure 11 placements implicitly): the
/// full SNR matrix over activities × placements at the paper's operating
/// point (P_VCSEL = 3.6 mW, P_heater = 1.08 mW).
///
/// Each *placement* requires its own mesh (the ONI ring moves), but the
/// activity patterns on a fixed placement share geometry — so one
/// [`ThermalStudy`] per placement is built and then
/// [`reconfigured`](ThermalStudy::reconfigured) across the activities,
/// reusing the assembled matrix, preconditioner and warm-started fields
/// instead of re-solving from scratch per combination.
///
/// With `checkpoints`, each completed (activity, placement) row is stored
/// as soon as its solves finish, and a re-run loads stored rows instead of
/// re-solving them. A placement whose three rows are all cached skips
/// thermal-study construction entirely — at `Fidelity::Paper` (minutes of
/// setup plus a response basis of ~2.6 M-unknown solves per placement)
/// this is what makes the nine-study campaign resumable after an
/// interruption.
///
/// # Errors
///
/// Propagates study construction, analysis and checkpoint-write errors.
pub fn figure12(
    flow: &DesignFlow,
    fidelity: Fidelity,
    p_chip: Watts,
    checkpoints: Option<&crate::CheckpointStore>,
) -> Result<Vec<Figure12Row>, FlowError> {
    let p_vcsel = Watts::from_milliwatts(3.6);
    let p_heater = Watts::from_milliwatts(1.08);
    let activities = [
        ("uniform", Activity::Uniform),
        ("diagonal", Activity::Diagonal),
        ("random", Activity::Random { seed: 42 }),
    ];
    let mut keyed = Vec::new();
    for (case_rank, case) in PlacementCase::paper_cases().into_iter().enumerate() {
        let ring_mm = case.ring_length().as_millimeters();
        // One study per placement (the mesh moves with the ring); the
        // activities on it only re-paint powers via `reconfigured`, and a
        // fully checkpointed placement never builds the study at all.
        let mut study: Option<ThermalStudy> = None;
        for (activity_rank, (name, activity)) in activities.into_iter().enumerate() {
            let rank = (activity_rank, case_rank);
            let key = format!("{name}_{ring_mm}mm");
            if let Some(row) = checkpoints.and_then(|c| c.load::<Figure12Row>(&key)) {
                keyed.push((rank, row));
                continue;
            }
            let config = SccConfig { placement: case, activity, fidelity, ..SccConfig::default() };
            let current = match study.take() {
                Some(prev) => prev.reconfigured(config, flow.simulator())?,
                None => flow.study(config)?,
            };
            let outcome = current.evaluate(p_vcsel, p_heater, p_chip)?;
            let snr = flow.evaluate_snr(current.system(), &outcome, p_vcsel)?;
            let row = Figure12Row {
                activity: name.to_string(),
                ring_length_mm: ring_mm,
                worst_snr_db: snr.worst_snr_db,
                signal_mw: snr.worst_signal.as_milliwatts(),
                crosstalk_mw: snr.worst_crosstalk.as_milliwatts(),
                oni_spread_c: outcome.inter_oni_spread().value(),
                mean_oni_c: outcome.mean_average().value(),
                all_detected: snr.all_detected,
            };
            if let Some(store) = checkpoints {
                store.store(&key, &row)?;
            }
            keyed.push((rank, row));
            study = Some(current);
        }
    }
    // The sweep runs placement-outer to share solve engines; the figure
    // (and its consumers) keep the paper's activity-outer row order.
    keyed.sort_by_key(|(key, _)| *key);
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

/// The §III-A baseline comparison (experiment E9).
#[derive(Debug, Clone, Serialize)]
pub struct BaselineComparison {
    /// Crossbar scale (node count).
    pub nodes: usize,
    /// `(name, worst-case loss dB, average loss dB)` per topology.
    pub losses_db: Vec<(String, f64, f64)>,
    /// ORNoC worst-case loss reduction vs the baseline mean (paper: 42.5 %).
    pub worst_case_reduction: f64,
    /// ORNoC average loss reduction vs the baseline mean (paper: 38 %).
    pub average_reduction: f64,
}

/// Regenerates the crossbar loss comparison at `nodes` scale.
///
/// # Errors
///
/// Propagates topology-model errors.
pub fn baseline_comparison(nodes: usize) -> Result<BaselineComparison, FlowError> {
    let k = LossCoefficients::standard();
    let mut losses_db = Vec::new();
    for topo in CrossbarTopology::all() {
        losses_db.push((
            topo.name().to_string(),
            topo.worst_case_loss(nodes, &k)?.value(),
            topo.average_loss(nodes, &k)?.value(),
        ));
    }
    let (worst_case_reduction, average_reduction) = ornoc_loss_reduction(nodes, &k)?;
    Ok(BaselineComparison { nodes, losses_db, worst_case_reduction, average_reduction })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsel_thermal::Simulator;

    fn tiny_study() -> &'static ThermalStudy {
        static STUDY: std::sync::OnceLock<ThermalStudy> = std::sync::OnceLock::new();
        STUDY.get_or_init(|| ThermalStudy::new(SccConfig::tiny_test(), &Simulator::new()).unwrap())
    }

    #[test]
    fn figure8_families_are_ordered() {
        let f = figure8(&Vcsel::paper_default()).unwrap();
        assert_eq!(f.efficiency.len(), 7);
        // Peak efficiency falls monotonically with temperature.
        let peaks: Vec<f64> =
            f.efficiency.iter().map(|row| row.iter().cloned().fold(0.0, f64::max)).collect();
        for w in peaks.windows(2) {
            assert!(w[1] < w[0] + 1e-12, "peaks must fall with temperature: {peaks:?}");
        }
    }

    #[test]
    fn figure9a_slopes_have_paper_signs() {
        let study = tiny_study();
        let f = figure9a(study, &[0.0, 3.0, 6.0], &[1.0, 2.0, 3.0]).unwrap();
        assert!(f.chip_power_slope().unwrap() > 0.0);
        assert!(f.vcsel_power_slope().unwrap() > 0.0);
        // Temperatures grow along both axes.
        assert!(f.average_c[0][0] < f.average_c[2][0]);
        assert!(f.average_c[0][0] < f.average_c[0][2]);
    }

    #[test]
    fn figure9b_has_interior_minimum() {
        let study = tiny_study();
        let f =
            figure9b(study, &[4.0], &[0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0], Watts::new(2.0)).unwrap();
        let row = &f.gradient_c[0];
        let min = row.iter().cloned().fold(f64::INFINITY, f64::min);
        // The best sampled gradient beats the no-heater end point.
        assert!(min < row[0], "heater must help: {row:?}");
        assert!(f.optimal_ratio[0] > 0.0);
    }

    #[test]
    fn figure10_heater_improves_gradient_not_average() {
        let study = tiny_study();
        let f = figure10(study, &[1.0, 6.0], 0.3, Watts::new(2.0)).unwrap();
        for i in 0..2 {
            assert!(
                f.gradient_with_c[i] <= f.gradient_without_c[i] + 1e-9,
                "heater must not worsen the gradient"
            );
            assert!(
                f.average_with_c[i] >= f.average_without_c[i],
                "heater adds power, average must not drop"
            );
        }
    }

    #[test]
    fn figure12_serves_checkpointed_rows_without_solving() {
        use crate::CheckpointStore;

        let dir = std::env::temp_dir().join(format!("vcsel_fig12_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir);

        // Pre-seed all nine (activity, placement) points with marker rows.
        let activities = ["uniform", "diagonal", "random"];
        for (a_rank, name) in activities.iter().enumerate() {
            for (c_rank, case) in PlacementCase::paper_cases().into_iter().enumerate() {
                let ring_mm = case.ring_length().as_millimeters();
                let row = Figure12Row {
                    activity: name.to_string(),
                    ring_length_mm: ring_mm,
                    worst_snr_db: (10 * a_rank + c_rank) as f64, // marker
                    signal_mw: 1.0,
                    crosstalk_mw: 0.1,
                    oni_spread_c: 0.5,
                    mean_oni_c: 50.0,
                    all_detected: true,
                };
                let key = format!("{name}_{ring_mm}mm");
                store.store(&key, &row).unwrap();
                // Fail fast if the seed/load contract ever desyncs: a
                // silent load miss below would escalate this test into
                // real paper-scale solve campaigns instead of a failure.
                assert!(
                    store.load::<Figure12Row>(&key).is_some(),
                    "seeded checkpoint '{key}' must load back"
                );
            }
        }

        // With every point cached the sweep must not build any thermal
        // study — this returns instantly even at paper fidelity (a real
        // solve campaign would take minutes, which is itself the proof).
        let flow = crate::DesignFlow::paper();
        let rows = figure12(&flow, Fidelity::Paper, Watts::new(12.5), Some(&store)).unwrap();
        assert_eq!(rows.len(), 9);
        for (i, row) in rows.iter().enumerate() {
            // Activity-outer, placement-inner row order (the paper's).
            assert_eq!(row.activity, activities[i / 3]);
            assert_eq!(row.worst_snr_db, (10 * (i / 3) + i % 3) as f64, "marker must round-trip");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_comparison_matches_paper() {
        let b = baseline_comparison(16).unwrap();
        assert_eq!(b.losses_db.len(), 4);
        assert!((b.worst_case_reduction - 0.425).abs() < 0.08);
        assert!((b.average_reduction - 0.38).abs() < 0.08);
    }
}
