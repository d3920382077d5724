//! Event-driven power schedules for transient co-simulation.
//!
//! The fixed `(group, scale)` argument of
//! [`TransientStepper::step`](crate::TransientStepper::step) is the right
//! primitive for closed-loop controllers that decide every step, but
//! scripted studies — thermal cycling, workload phases, fault timelines —
//! want to declare *edits at timestamps* and let the stepper replay them.
//! A [`PowerSchedule`] is that declaration: an initial set of group scales
//! plus a sorted stream of [`PowerEvent`] edits, each overriding one
//! group's scale from its timestamp onward.

use crate::ThermalError;

/// One scheduled edit: from `at_s` onward, `group` runs at `scale ×` its
/// reference power (until a later event overrides it again).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerEvent {
    /// Simulation time at which the edit takes effect, seconds.
    pub at_s: f64,
    /// The power group the edit applies to.
    pub group: String,
    /// New scale factor relative to the group's reference power.
    pub scale: f64,
}

impl PowerEvent {
    /// Convenience constructor.
    pub fn new(at_s: f64, group: impl Into<String>, scale: f64) -> Self {
        Self { at_s, group: group.into(), scale }
    }
}

/// A deterministic power timeline: initial scales plus timestamped edits.
///
/// # Example
///
/// ```
/// use vcsel_thermal::{PowerEvent, PowerSchedule};
///
/// // Heater on at reference power, dropped to idle after 5 ms, burst at 20 ms.
/// let schedule = PowerSchedule::new(
///     &[("heater", 1.0)],
///     vec![PowerEvent::new(5e-3, "heater", 0.1), PowerEvent::new(20e-3, "heater", 3.0)],
/// )?;
/// assert_eq!(schedule.scales_at(0.0), vec![("heater".to_string(), 1.0)]);
/// assert_eq!(schedule.scales_at(6e-3), vec![("heater".to_string(), 0.1)]);
/// assert_eq!(schedule.scales_at(25e-3), vec![("heater".to_string(), 3.0)]);
/// # Ok::<(), vcsel_thermal::ThermalError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSchedule {
    initial: Vec<(String, f64)>,
    /// Sorted by `at_s` (stable, so same-timestamp events keep insertion
    /// order and the later insertion wins).
    events: Vec<PowerEvent>,
}

impl PowerSchedule {
    /// Builds a schedule from initial `(group, scale)` pairs and a list of
    /// edits (sorted internally by timestamp).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadParameter`] for a negative or non-finite
    /// scale or timestamp, or a duplicated group in `initial`.
    pub fn new(initial: &[(&str, f64)], mut events: Vec<PowerEvent>) -> Result<Self, ThermalError> {
        // A schedule does not know the engine's groups; the engine checks
        // names when it replays the scales.
        check_scales(initial, |_| true)?;
        for e in &events {
            validate_scale(&e.group, e.scale)?;
            if !e.at_s.is_finite() || e.at_s < 0.0 {
                return Err(ThermalError::BadParameter {
                    reason: format!(
                        "event timestamp for group '{}' must be non-negative, got {}",
                        e.group, e.at_s
                    ),
                });
            }
        }
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        Ok(Self { initial: initial.iter().map(|&(g, s)| (g.to_string(), s)).collect(), events })
    }

    /// The effective `(group, scale)` set at simulation time `t`: initial
    /// scales overridden by every event with `at_s <= t`, later events
    /// winning. Groups first mentioned by an event join the set when the
    /// event fires.
    pub fn scales_at(&self, t: f64) -> Vec<(String, f64)> {
        let mut scales = self.initial.clone();
        for e in self.events.iter().take_while(|e| e.at_s <= t) {
            match scales.iter_mut().find(|(g, _)| *g == e.group) {
                Some((_, s)) => *s = e.scale,
                None => scales.push((e.group.clone(), e.scale)),
            }
        }
        scales
    }

    /// The scheduled events, sorted by timestamp.
    pub fn events(&self) -> &[PowerEvent] {
        &self.events
    }

    /// Timestamp of the last event, or 0 when there are none — a natural
    /// lower bound for how long to run the schedule.
    pub fn horizon_s(&self) -> f64 {
        self.events.last().map_or(0.0, |e| e.at_s)
    }
}

/// Checks a group-scale painting — the `&[(group, scale)]` argument every
/// engine takes (steady solves, transient steps, basis composition) and a
/// schedule's initial scales — so all of them accept and reject exactly
/// the same paintings:
///
/// * a group `is_group` does not know is [`ThermalError::UnknownGroup`],
/// * a negative or non-finite scale is [`ThermalError::BadParameter`],
/// * a group named twice is [`ThermalError::BadParameter`].
///
/// It only validates; callers keep their own painting arithmetic.
pub(crate) fn check_scales(
    scales: &[(&str, f64)],
    is_group: impl Fn(&str) -> bool,
) -> Result<(), ThermalError> {
    for (i, &(name, s)) in scales.iter().enumerate() {
        if !is_group(name) {
            return Err(ThermalError::UnknownGroup { group: name.to_string() });
        }
        validate_scale(name, s)?;
        if scales[..i].iter().any(|&(seen, _)| seen == name) {
            return Err(ThermalError::BadParameter {
                reason: format!("group '{name}' appears twice in the scales"),
            });
        }
    }
    Ok(())
}

fn validate_scale(group: &str, scale: f64) -> Result<(), ThermalError> {
    if !scale.is_finite() || scale < 0.0 {
        return Err(ThermalError::BadParameter {
            reason: format!("scale for group '{group}' must be non-negative, got {scale}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_override_in_timestamp_order() {
        let s = PowerSchedule::new(
            &[("a", 1.0)],
            vec![
                PowerEvent::new(2.0, "a", 0.5),
                PowerEvent::new(1.0, "b", 2.0),
                PowerEvent::new(3.0, "a", 0.0),
            ],
        )
        .unwrap();
        assert_eq!(s.scales_at(0.5), vec![("a".into(), 1.0)]);
        assert_eq!(s.scales_at(1.0), vec![("a".into(), 1.0), ("b".into(), 2.0)]);
        assert_eq!(s.scales_at(2.5), vec![("a".into(), 0.5), ("b".into(), 2.0)]);
        assert_eq!(s.scales_at(10.0), vec![("a".into(), 0.0), ("b".into(), 2.0)]);
        assert!((s.horizon_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(PowerSchedule::new(&[("a", 1.0), ("a", 2.0)], vec![]).is_err());
        assert!(PowerSchedule::new(&[("a", -1.0)], vec![]).is_err());
        assert!(PowerSchedule::new(&[], vec![PowerEvent::new(-1.0, "a", 1.0)]).is_err());
        assert!(PowerSchedule::new(&[], vec![PowerEvent::new(1.0, "a", f64::NAN)]).is_err());
        assert!(PowerSchedule::new(&[], vec![]).unwrap().scales_at(1.0).is_empty());
    }
}
