//! Scalar minimizers for design-space exploration.
//!
//! The paper explores the MR heater power P_heater to minimize the intra-ONI
//! gradient temperature (Figure 9-b). That objective is unimodal in
//! P_heater, so a golden-section search is the right tool.

use crate::NumericsError;

/// Location and value of a scalar minimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minimum {
    /// Argument at which the minimum was found.
    pub argmin: f64,
    /// Objective value at [`Minimum::argmin`].
    pub value: f64,
    /// Number of objective evaluations spent.
    pub evaluations: usize,
}

/// Golden-section search for the minimum of a unimodal function on `[a, b]`.
///
/// # Errors
///
/// Returns [`NumericsError::BadInput`] if the interval is empty/reversed,
/// the tolerance is non-positive, or the objective returns a non-finite
/// value.
///
/// # Example
///
/// ```
/// use vcsel_numerics::golden_section_min;
///
/// let m = golden_section_min(0.0, 4.0, 1e-9, |x| (x - 1.3) * (x - 1.3))?;
/// assert!((m.argmin - 1.3).abs() < 1e-6);
/// # Ok::<(), vcsel_numerics::NumericsError>(())
/// ```
pub fn golden_section_min(
    a: f64,
    b: f64,
    tol: f64,
    mut f: impl FnMut(f64) -> f64,
) -> Result<Minimum, NumericsError> {
    if !(a < b) || !a.is_finite() || !b.is_finite() {
        return Err(NumericsError::BadInput { reason: format!("invalid interval [{a}, {b}]") });
    }
    if !(tol > 0.0) {
        return Err(NumericsError::BadInput {
            reason: format!("tolerance must be positive, got {tol}"),
        });
    }
    const INV_PHI: f64 = 0.618_033_988_749_894_8; // (sqrt(5) - 1) / 2

    let mut lo = a;
    let mut hi = b;
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    let mut evals = 2;
    if !f1.is_finite() || !f2.is_finite() {
        return Err(NumericsError::BadInput {
            reason: "objective returned non-finite value".into(),
        });
    }

    while hi - lo > tol {
        if f1 <= f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_PHI * (hi - lo);
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_PHI * (hi - lo);
            f2 = f(x2);
        }
        evals += 1;
        if !f1.is_finite() || !f2.is_finite() {
            return Err(NumericsError::BadInput {
                reason: "objective returned non-finite value".into(),
            });
        }
        // The interval shrinks geometrically; 200 iterations would shrink any
        // finite interval below f64 resolution, so this cannot loop forever.
        if evals > 400 {
            break;
        }
    }
    let (argmin, value) = if f1 <= f2 { (x1, f1) } else { (x2, f2) };
    Ok(Minimum { argmin, value, evaluations: evals })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_finds_parabola_vertex() {
        let m = golden_section_min(-10.0, 10.0, 1e-10, |x| 3.0 * (x - 2.5).powi(2) + 7.0).unwrap();
        assert!((m.argmin - 2.5).abs() < 1e-6);
        assert!((m.value - 7.0).abs() < 1e-9);
    }

    #[test]
    fn golden_section_handles_edge_minimum() {
        // Monotonically increasing: minimum at the left edge.
        let m = golden_section_min(1.0, 5.0, 1e-9, |x| x).unwrap();
        assert!((m.argmin - 1.0).abs() < 1e-6);
    }

    #[test]
    fn golden_section_validates() {
        assert!(golden_section_min(1.0, 0.0, 1e-9, |x| x).is_err());
        assert!(golden_section_min(0.0, 1.0, -1.0, |x| x).is_err());
        assert!(golden_section_min(0.0, 1.0, 1e-9, |_| f64::NAN).is_err());
    }
}
