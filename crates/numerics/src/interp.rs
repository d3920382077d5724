//! Piecewise-linear interpolation tables.
//!
//! The paper's methodology (Figure 3) fetches VCSEL electrical/thermal
//! characteristics from a model library; we represent such libraries as 1-D
//! lookup tables with linear interpolation and clamped extrapolation (the
//! physically safe choice for device curves).

use crate::NumericsError;

/// A strictly-increasing 1-D piecewise-linear table `y = f(x)`.
///
/// # Example
///
/// ```
/// use vcsel_numerics::Interp1d;
///
/// let t = Interp1d::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 15.0])?;
/// assert_eq!(t.eval(0.5), 5.0);
/// assert_eq!(t.eval(-1.0), 0.0);  // clamped
/// assert_eq!(t.eval(9.0), 15.0);  // clamped
/// # Ok::<(), vcsel_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Interp1d {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Interp1d {
    /// Builds a table from knot coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::BadInput`] if fewer than two knots are given,
    /// lengths differ, any value is non-finite, or `xs` is not strictly
    /// increasing.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, NumericsError> {
        if xs.len() < 2 {
            return Err(NumericsError::BadInput {
                reason: format!("need at least 2 knots, got {}", xs.len()),
            });
        }
        if xs.len() != ys.len() {
            return Err(NumericsError::BadInput {
                reason: format!("knot count mismatch: {} xs vs {} ys", xs.len(), ys.len()),
            });
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(NumericsError::BadInput { reason: "non-finite knot value".into() });
        }
        if xs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(NumericsError::BadInput {
                reason: "x knots must be strictly increasing".into(),
            });
        }
        Ok(Self { xs, ys })
    }

    /// The x knots.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y knots.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Evaluates the table at `x`, clamping outside the knot range.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        // partition_point returns the first index with xs[i] > x, >= 1 here.
        let hi = self.xs.partition_point(|&k| k <= x);
        let lo = hi - 1;
        let t = (x - self.xs[lo]) / (self.xs[hi] - self.xs[lo]);
        self.ys[lo] + t * (self.ys[hi] - self.ys[lo])
    }

    /// Finds an `x` such that `f(x) = y` assuming the table is monotonic in
    /// `y`; returns `None` if `y` is outside the table's range.
    pub fn invert(&self, y: f64) -> Option<f64> {
        let increasing = self.ys.last()? >= self.ys.first()?;
        let (y_min, y_max) = if increasing {
            (self.ys[0], *self.ys.last()?)
        } else {
            (*self.ys.last()?, self.ys[0])
        };
        if y < y_min || y > y_max {
            return None;
        }
        for w in 0..self.xs.len() - 1 {
            let (y0, y1) = (self.ys[w], self.ys[w + 1]);
            let inside = if increasing { y0 <= y && y <= y1 } else { y1 <= y && y <= y0 };
            if inside {
                if (y1 - y0).abs() < f64::EPSILON {
                    return Some(self.xs[w]);
                }
                let t = (y - y0) / (y1 - y0);
                return Some(self.xs[w] + t * (self.xs[w + 1] - self.xs[w]));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp1d_hits_knots() {
        let t = Interp1d::new(vec![0.0, 1.0, 3.0], vec![2.0, 4.0, 0.0]).unwrap();
        assert_eq!(t.eval(0.0), 2.0);
        assert_eq!(t.eval(1.0), 4.0);
        assert_eq!(t.eval(3.0), 0.0);
        assert_eq!(t.eval(2.0), 2.0);
    }

    #[test]
    fn interp1d_clamps() {
        let t = Interp1d::new(vec![0.0, 1.0], vec![5.0, 6.0]).unwrap();
        assert_eq!(t.eval(-10.0), 5.0);
        assert_eq!(t.eval(10.0), 6.0);
    }

    #[test]
    fn interp1d_validates() {
        assert!(Interp1d::new(vec![0.0], vec![1.0]).is_err());
        assert!(Interp1d::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Interp1d::new(vec![0.0, 1.0], vec![1.0]).is_err());
        assert!(Interp1d::new(vec![0.0, 1.0], vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn interp1d_invert_increasing_and_decreasing() {
        let inc = Interp1d::new(vec![0.0, 2.0], vec![0.0, 4.0]).unwrap();
        assert_eq!(inc.invert(2.0), Some(1.0));
        assert_eq!(inc.invert(5.0), None);
        let dec = Interp1d::new(vec![0.0, 2.0], vec![4.0, 0.0]).unwrap();
        assert!((dec.invert(1.0).unwrap() - 1.5).abs() < 1e-12);
    }
}
