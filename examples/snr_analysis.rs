//! Standalone SNR analysis on a ring interconnect (paper Section IV-C),
//! without running a thermal simulation: the microring's drop/through
//! transmission against the signal-resonance misalignment (Figure 5-b),
//! then an imposed inter-ONI temperature skew swept until the worst-case
//! SNR collapses.
//!
//! Run with `cargo run --release --example snr_analysis`.

use vcsel_onoc::network::{assign_channels, traffic};
use vcsel_onoc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 5-b: a misaligned ring drops less of its signal and passes
    // the rest on as crosstalk.
    let mr = MicroringResonator::paper_default(Nanometers::new(1550.0));
    println!("{:>14} {:>10} {:>12}", "detuning (nm)", "drop (%)", "through (%)");
    for milli_nm in (-2000i32..=2000).step_by(250) {
        let d = Nanometers::new(f64::from(milli_nm) / 1000.0);
        println!(
            "{:>14.3} {:>10.1} {:>12.1}",
            d.value(),
            100.0 * mr.drop_fraction(d),
            100.0 * mr.through_fraction(d)
        );
    }
    println!(
        "drop at ±0.775 nm: {:.1} % (paper: 50 % at 0.77 nm, i.e. 7.7 °C)",
        100.0 * mr.drop_fraction(Nanometers::new(0.775))
    );
    println!();

    // The paper's longest case-study ring: 46.8 mm, 8 ONIs.
    let topology = RingTopology::evenly_spaced(8, Meters::from_millimeters(46.8))?;
    let analyzer = SnrAnalyzer::paper_default(WavelengthGrid::paper_default());

    // All-to-all traffic on one waveguide (the paper's interface spreads
    // this over 4; one waveguide shows the physics more clearly).
    let comms = assign_channels(&topology, &traffic::all_to_all(8))?;
    println!(
        "{} communications, {} wavelength channels (ORNoC reuse)",
        comms.len(),
        comms.iter().map(|c| c.channel() + 1).max().unwrap_or(0)
    );

    // Each ONI injects the paper's operating-point optical power.
    let vcsel = Vcsel::paper_default();
    let params = TechnologyParams::paper();

    println!();
    println!(
        "{:>14} {:>12} {:>14} {:>16}",
        "skew (°C)", "SNR (dB)", "signal (mW)", "crosstalk (µW)"
    );
    for skew in [0.0, 1.0, 2.0, 3.0, 5.0, 7.7, 10.0] {
        // Linear temperature ramp across the ring: ONI i at 50 + skew*i/7.
        let temps: Vec<Celsius> =
            (0..8).map(|i| Celsius::new(50.0 + skew * i as f64 / 7.0)).collect();
        // Injected power follows each source ONI's temperature.
        let mut op_net = Vec::new();
        for c in &comms {
            let t = temps[c.source().index()];
            let op = vcsel.operating_point_for_dissipated(Watts::from_milliwatts(3.6), t)?;
            op_net.push(Watts::new(op.optical_power.value() * params.taper_coupling));
        }
        let report = analyzer.analyze(&topology, &comms, &temps, &op_net)?;
        let worst = report.worst().expect("non-empty");
        println!(
            "{:>14.1} {:>12.1} {:>14.4} {:>16.3}",
            skew,
            report.worst_snr_db(),
            worst.signal.as_milliwatts(),
            worst.crosstalk.as_milliwatts() * 1000.0
        );
    }
    println!();
    println!(
        "a temperature difference between ONIs misaligns laser and ring \
         wavelengths (0.1 nm/°C), converting signal into crosstalk"
    );
    Ok(())
}
