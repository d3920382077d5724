//! The SNR stage of the methodology: thermal map → VCSEL operating points →
//! per-waveguide ORNoC analysis (paper Sections IV-C and V-C).

use vcsel_arch::SccSystem;
use vcsel_network::{
    assign_channels, traffic, Communication, OniId, SnrAnalyzer, SnrReport, WavelengthGrid,
};
use vcsel_photonics::{TechnologyParams, Vcsel};
use vcsel_thermal::Simulator;
use vcsel_units::{Celsius, Watts};

use crate::{FlowError, ThermalOutcome};

/// Per-waveguide analysis result.
#[derive(Debug, Clone)]
pub struct WaveguideSnr {
    /// Waveguide index (0‥3 for the paper's 4-waveguide interface).
    pub waveguide: usize,
    /// The communications carried.
    pub communications: Vec<Communication>,
    /// The full per-communication report.
    pub report: SnrReport,
}

/// Aggregated SNR outcome of the flow (the content of Figure 12).
#[derive(Debug, Clone)]
pub struct SnrSummary {
    /// Per-waveguide details.
    pub waveguides: Vec<WaveguideSnr>,
    /// Worst-case SNR over all waveguides, dB.
    pub worst_snr_db: f64,
    /// Signal power of the worst-case communication.
    pub worst_signal: Watts,
    /// Crosstalk power of the worst-case communication.
    pub worst_crosstalk: Watts,
    /// Whether every communication meets the −20 dBm receiver sensitivity.
    pub all_detected: bool,
    /// Mean optical power injected into the network per communication
    /// (OP_net — the paper's power-efficiency indicator).
    pub mean_injected: Watts,
}

/// The end-to-end methodology driver (paper Figure 3): owns the simulator,
/// the VCSEL library model and the technology parameters.
#[derive(Debug, Clone)]
pub struct DesignFlow {
    simulator: Simulator,
    vcsel: Vcsel,
    grid: WavelengthGrid,
    params: TechnologyParams,
    waveguide_count: usize,
}

impl DesignFlow {
    /// The paper's configuration: Table 1 technology, the Figure 8 VCSEL
    /// library, 4 waveguides per interface.
    pub fn paper() -> Self {
        Self {
            simulator: Simulator::new(),
            vcsel: Vcsel::paper_default(),
            grid: WavelengthGrid::paper_default(),
            params: TechnologyParams::paper(),
            waveguide_count: 4,
        }
    }

    /// Overrides the thermal simulator (builder style) — e.g. to relax the
    /// CG tolerance for long sweep campaigns (a 1e-6 relative residual is
    /// micro-kelvin-scale error on these systems).
    #[must_use]
    pub fn with_simulator(mut self, simulator: Simulator) -> Self {
        self.simulator = simulator;
        self
    }

    /// The thermal simulator used by studies created for this flow.
    pub fn simulator(&self) -> &Simulator {
        &self.simulator
    }

    /// Builds a [`ThermalStudy`](crate::ThermalStudy) on this flow's shared simulator — the one
    /// entry point sweep drivers should use, so every study inherits the
    /// flow's solver options instead of constructing private `Simulator`s.
    /// Re-target an existing study with
    /// [`ThermalStudy::reconfigured`](crate::ThermalStudy::reconfigured)
    /// where only powers or activity change.
    ///
    /// # Errors
    ///
    /// Propagates architecture and solver errors.
    pub fn study(&self, config: vcsel_arch::SccConfig) -> Result<crate::ThermalStudy, FlowError> {
        crate::ThermalStudy::new(config, &self.simulator)
    }

    /// The VCSEL library model.
    pub fn vcsel(&self) -> &Vcsel {
        &self.vcsel
    }

    /// Evaluates the worst-case SNR of the system under the thermal field
    /// `outcome`, with each VCSEL driven to dissipate `p_vcsel`.
    ///
    /// The paper's procedure (Section V-C): the ONI average temperature
    /// fixes each VCSEL's operating point via the Figure 8-c curve
    /// (`OP_VCSEL` at the given dissipated power), the taper passes 70 % of
    /// it into the waveguide (`OP_net`), and all-to-all traffic is spread
    /// round-robin over the interface's waveguides.
    ///
    /// # Errors
    ///
    /// Propagates device-model errors (e.g. `p_vcsel` unreachable at the
    /// operating temperature) and network-analysis errors.
    pub fn evaluate_snr(
        &self,
        system: &SccSystem,
        outcome: &ThermalOutcome,
        p_vcsel: Watts,
    ) -> Result<SnrSummary, FlowError> {
        let temps: Vec<Celsius> = outcome.oni_averages();
        let topology = system.topology();
        if temps.len() != topology.oni_count() {
            return Err(FlowError::BadConfig {
                reason: format!(
                    "thermal outcome covers {} ONIs but the topology has {}",
                    temps.len(),
                    topology.oni_count()
                ),
            });
        }

        // Per-ONI injected power: OP_net = taper x OP_VCSEL(P_VCSEL, T_ONI).
        let mut op_net = Vec::with_capacity(temps.len());
        for &t in &temps {
            let op = self.vcsel.operating_point_for_dissipated(p_vcsel, t)?;
            op_net.push(Watts::new(op.optical_power.value() * self.params.taper_coupling));
        }

        // All-to-all pairs spread round-robin over the waveguides.
        let pairs = traffic::all_to_all(topology.oni_count());
        let mut per_wg: Vec<Vec<(OniId, OniId)>> = vec![Vec::new(); self.waveguide_count];
        for (i, p) in pairs.into_iter().enumerate() {
            per_wg[i % self.waveguide_count].push(p);
        }

        let analyzer = SnrAnalyzer::paper_default(self.grid);
        let mut waveguides = Vec::with_capacity(self.waveguide_count);
        let mut worst = f64::INFINITY;
        let mut worst_signal = Watts::ZERO;
        let mut worst_crosstalk = Watts::ZERO;
        let mut all_detected = true;
        let mut injected_sum = 0.0;
        let mut injected_count = 0usize;

        for (w, pairs) in per_wg.into_iter().enumerate() {
            if pairs.is_empty() {
                continue;
            }
            let comms = assign_channels(topology, &pairs)?;
            let powers: Vec<Watts> = comms.iter().map(|c| op_net[c.source().index()]).collect();
            injected_sum += powers.iter().map(|p| p.value()).sum::<f64>();
            injected_count += powers.len();
            let report = analyzer.analyze(topology, &comms, &temps, &powers)?;
            if let Some(w_result) = report.worst() {
                // `<=` so the tracking also captures the crosstalk-free case
                // where every SNR is +inf and `worst` never strictly drops.
                if w_result.snr_db <= worst {
                    worst = w_result.snr_db;
                    worst_signal = w_result.signal;
                    worst_crosstalk = w_result.crosstalk;
                }
            }
            all_detected &= report.all_detected();
            waveguides.push(WaveguideSnr { waveguide: w, communications: comms, report });
        }

        Ok(SnrSummary {
            waveguides,
            worst_snr_db: worst,
            worst_signal,
            worst_crosstalk,
            all_detected,
            mean_injected: Watts::new(injected_sum / injected_count.max(1) as f64),
        })
    }
}

impl Default for DesignFlow {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThermalStudy;
    use vcsel_arch::SccConfig;

    fn study() -> &'static (DesignFlow, ThermalStudy) {
        static STUDY: std::sync::OnceLock<(DesignFlow, ThermalStudy)> = std::sync::OnceLock::new();
        STUDY.get_or_init(|| {
            let flow = DesignFlow::paper();
            let study = ThermalStudy::new(SccConfig::tiny_test(), flow.simulator()).unwrap();
            (flow, study)
        })
    }

    #[test]
    fn end_to_end_snr() {
        let (flow, study) = study();
        let p_vcsel = Watts::from_milliwatts(3.6);
        let outcome =
            study.evaluate(p_vcsel, Watts::from_milliwatts(1.08), Watts::new(2.0)).unwrap();
        let snr = flow.evaluate_snr(study.system(), &outcome, p_vcsel).unwrap();
        assert!(snr.worst_snr_db.is_finite() || snr.worst_snr_db == f64::INFINITY);
        assert!(snr.mean_injected.value() > 0.0);
        assert!(!snr.waveguides.is_empty());
        // 2 ONIs -> 2 all-to-all pairs spread over 4 waveguides: 2 in use.
        assert_eq!(snr.waveguides.len(), 2);
    }

    #[test]
    fn hotter_chip_less_injected_power() {
        // Higher chip activity -> hotter ONIs -> less optical power for the
        // same dissipated P_VCSEL (the paper's efficiency argument).
        let (flow, study) = study();
        let p_vcsel = Watts::from_milliwatts(3.6);
        let cool = study.evaluate(p_vcsel, Watts::ZERO, Watts::new(1.0)).unwrap();
        let hot = study.evaluate(p_vcsel, Watts::ZERO, Watts::new(8.0)).unwrap();
        let snr_cool = flow.evaluate_snr(study.system(), &cool, p_vcsel).unwrap();
        let snr_hot = flow.evaluate_snr(study.system(), &hot, p_vcsel).unwrap();
        assert!(
            snr_hot.mean_injected < snr_cool.mean_injected,
            "hot {} should inject less than cool {}",
            snr_hot.mean_injected,
            snr_cool.mean_injected
        );
    }

    #[test]
    fn waveguide_count_validation() {
        let (flow, study) = study();
        let flow1 = DesignFlow { waveguide_count: 1, ..flow.clone() };
        let p_vcsel = Watts::from_milliwatts(3.6);
        let outcome = study.evaluate(p_vcsel, Watts::ZERO, Watts::new(2.0)).unwrap();
        let snr = flow1.evaluate_snr(study.system(), &outcome, p_vcsel).unwrap();
        assert_eq!(snr.waveguides.len(), 1);
    }
}
