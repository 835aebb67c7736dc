//! Least-squares regression for estimator calibration.
//!
//! The paper calibrates compute-time estimators by fitting
//! τ = β₀ + β₁ξ₁ + β₂ξ₂ (Eq. 1) over measured samples, and in practice fits
//! the single through-origin coefficient τ = 61.827·ξ₁ µs with R² = 0.9154
//! (Eq. 2 / Fig 2). This module provides both fits plus the residual
//! diagnostics the paper reports (right-skew, residual–regressor
//! correlation).

use crate::OnlineStats;

/// The result of a least-squares fit.
#[derive(Clone, Debug, PartialEq)]
pub struct Fit {
    /// Intercept β₀ (zero for through-origin fits).
    pub intercept: f64,
    /// Slope β₁.
    pub slope: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Summary statistics of the residuals (y − ŷ).
    pub residuals: OnlineStats,
    /// Pearson correlation between the regressor and the residuals.
    ///
    /// Near zero indicates a good linear fit ("close to zero correlation
    /// between the number of iterations and the residuals", §II.H).
    pub residual_correlation: f64,
}

impl Fit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fits `y = β·x` (no intercept) by least squares, as the paper does for
/// Code Body 1 where "the conditional and send statement contributed so
/// little … we fitted only the single coefficient" (§II.H).
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or `x` is all zeros.
///
/// # Example
///
/// ```
/// use tart_stats::fit_through_origin;
///
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [62.0, 123.0, 186.0, 247.0];
/// let fit = fit_through_origin(&x, &y);
/// assert!((fit.slope - 61.8).abs() < 0.5);
/// assert!(fit.r_squared > 0.99);
/// ```
pub fn fit_through_origin(x: &[f64], y: &[f64]) -> Fit {
    assert_eq!(x.len(), y.len(), "regressor and response lengths differ");
    assert!(!x.is_empty(), "regression needs at least one sample");
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    assert!(sxx > 0.0, "regressor is identically zero");
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    let slope = sxy / sxx;
    finish_fit(0.0, slope, x, y)
}

/// Fits `y = β₀ + β₁·x` by ordinary least squares.
///
/// # Panics
///
/// Panics if the slices differ in length, have fewer than two samples, or
/// `x` has zero variance.
pub fn fit_simple(x: &[f64], y: &[f64]) -> Fit {
    assert_eq!(x.len(), y.len(), "regressor and response lengths differ");
    assert!(x.len() >= 2, "simple regression needs at least two samples");
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|v| (v - mean_x).powi(2)).sum();
    assert!(sxx > 0.0, "regressor has zero variance");
    let sxy: f64 = x
        .iter()
        .zip(y)
        .map(|(a, b)| (a - mean_x) * (b - mean_y))
        .sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    finish_fit(intercept, slope, x, y)
}

fn finish_fit(intercept: f64, slope: f64, x: &[f64], y: &[f64]) -> Fit {
    let n = x.len() as f64;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    let mut residuals = OnlineStats::new();
    let mut resid_vec = Vec::with_capacity(x.len());
    for (&xi, &yi) in x.iter().zip(y) {
        let r = yi - (intercept + slope * xi);
        ss_res += r * r;
        ss_tot += (yi - mean_y).powi(2);
        residuals.push(r);
        resid_vec.push(r);
    }
    let r_squared = if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    };
    Fit {
        intercept,
        slope,
        r_squared,
        residuals,
        residual_correlation: pearson(x, &resid_vec),
    }
}

/// Pearson correlation coefficient between two equal-length samples
/// (0 when either has zero variance).
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "correlation inputs differ in length");
    assert!(!x.is_empty(), "correlation of empty samples");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx).powi(2);
        syy += (b - my).powi(2);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetRng, LogNormal, Sample, UniformInt};

    #[test]
    fn exact_line_through_origin() {
        let x = [1.0, 2.0, 3.0];
        let y = [61.0, 122.0, 183.0];
        let fit = fit_through_origin(&x, &y);
        assert!((fit.slope - 61.0).abs() < 1e-12);
        assert_eq!(fit.intercept, 0.0);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!(fit.residuals.sd() < 1e-9);
        assert!((fit.predict(10.0) - 610.0).abs() < 1e-9);
    }

    #[test]
    fn exact_affine_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [5.0, 7.0, 9.0, 11.0];
        let fit = fit_simple(&x, &y);
        assert!((fit.intercept - 5.0).abs() < 1e-12);
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_shaped_fit_recovers_coefficient() {
        // Synthesize Fig 2: iterations uniform 1..=19, service time
        // right-skewed around 61.827 µs/iteration. The through-origin fit
        // should recover the coefficient and a high (but not perfect) R².
        let mut rng = DetRng::seed_from(2009);
        let iters = UniformInt::new(1, 19);
        // Multiplicative right-skewed noise with mean 1.
        let noise = LogNormal::from_mean_sd(1.0, 0.18);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..10_000 {
            let k = iters.sample(&mut rng);
            x.push(k);
            y.push(61.827 * k * noise.sample(&mut rng));
        }
        let fit = fit_through_origin(&x, &y);
        assert!((fit.slope - 61.827).abs() < 1.0, "slope {}", fit.slope);
        assert!(
            fit.r_squared > 0.80 && fit.r_squared < 0.99,
            "R² {}",
            fit.r_squared
        );
        assert!(fit.residuals.skewness() > 0.5, "residuals right-skewed");
    }

    #[test]
    fn noisy_fit_has_near_zero_residual_correlation() {
        let mut rng = DetRng::seed_from(77);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..2000 {
            let xi = f64::from(i % 20) + 1.0;
            x.push(xi);
            y.push(3.0 * xi + 10.0 * (rng.next_f64() - 0.5));
        }
        let fit = fit_simple(&x, &y);
        assert!(fit.residual_correlation.abs() < 0.05);
    }

    #[test]
    fn r_squared_degrades_with_noise() {
        let mut rng = DetRng::seed_from(3);
        let gen_fit = |noise_scale: f64, rng: &mut DetRng| {
            let mut x = Vec::new();
            let mut y = Vec::new();
            for i in 0..1000 {
                let xi = f64::from(i % 10) + 1.0;
                x.push(xi);
                y.push(5.0 * xi + noise_scale * (rng.next_f64() - 0.5));
            }
            fit_through_origin(&x, &y).r_squared
        };
        let clean = gen_fit(0.1, &mut rng);
        let noisy = gen_fit(20.0, &mut rng);
        assert!(clean > noisy);
    }

    #[test]
    fn constant_response_r_squared() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 4.0, 4.0];
        // Through-origin fit of a constant is imperfect; ss_tot is zero so
        // the convention returns 0 for an imperfect fit.
        let fit = fit_through_origin(&x, &y);
        assert_eq!(fit.r_squared, 0.0);
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_lengths_panic() {
        let _ = fit_through_origin(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "identically zero")]
    fn all_zero_regressor_panics() {
        let _ = fit_through_origin(&[0.0, 0.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn simple_fit_needs_two_points() {
        let _ = fit_simple(&[1.0], &[1.0]);
    }
}

/// The result of a multiple-regression fit `y = β₀ + Σᵢ βᵢ·xᵢ`.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiFit {
    /// Intercept β₀.
    pub intercept: f64,
    /// Per-regressor coefficients, in input column order.
    pub slopes: Vec<f64>,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Summary statistics of the residuals.
    pub residuals: OnlineStats,
}

impl MultiFit {
    /// Predicted value for one row of regressors.
    ///
    /// # Panics
    ///
    /// Panics if `xs` has a different length than the fitted columns.
    pub fn predict(&self, xs: &[f64]) -> f64 {
        assert_eq!(xs.len(), self.slopes.len(), "regressor count mismatch");
        self.intercept + self.slopes.iter().zip(xs).map(|(b, x)| b * x).sum::<f64>()
    }
}

/// Errors from [`fit_multiple`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultiFitError {
    /// Fewer samples than coefficients to estimate.
    TooFewSamples,
    /// The normal-equation system is singular (collinear or constant
    /// regressors).
    Singular,
}

impl std::fmt::Display for MultiFitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiFitError::TooFewSamples => write!(f, "not enough samples for the regressor count"),
            MultiFitError::Singular => write!(f, "regressors are collinear or constant"),
        }
    }
}

impl std::error::Error for MultiFitError {}

/// Ordinary least squares for the paper's full Eq. 1 form
/// `τ = β₀ + β₁ξ₁ + … + βₖξₖ`, solved by the normal equations with
/// Gaussian elimination and partial pivoting.
///
/// `rows` holds one regressor vector per sample (all the same length `k`);
/// `y` holds the responses.
///
/// # Errors
///
/// * [`MultiFitError::TooFewSamples`] with fewer than `k + 1` samples;
/// * [`MultiFitError::Singular`] if regressors are collinear.
///
/// # Panics
///
/// Panics if row lengths are inconsistent or `rows` and `y` differ in
/// length.
///
/// # Example
///
/// ```
/// use tart_stats::regression::fit_multiple;
///
/// // y = 5 + 2·x₁ + 3·x₂ exactly.
/// let rows = vec![
///     vec![1.0, 1.0],
///     vec![2.0, 1.0],
///     vec![1.0, 2.0],
///     vec![3.0, 5.0],
/// ];
/// let y = vec![10.0, 12.0, 13.0, 26.0];
/// let fit = fit_multiple(&rows, &y)?;
/// assert!((fit.intercept - 5.0).abs() < 1e-9);
/// assert!((fit.slopes[0] - 2.0).abs() < 1e-9);
/// assert!((fit.slopes[1] - 3.0).abs() < 1e-9);
/// # Ok::<(), tart_stats::regression::MultiFitError>(())
/// ```
#[allow(clippy::needless_range_loop)] // index arithmetic mirrors the math
pub fn fit_multiple(rows: &[Vec<f64>], y: &[f64]) -> Result<MultiFit, MultiFitError> {
    assert_eq!(rows.len(), y.len(), "row and response counts differ");
    let n = rows.len();
    let k = rows.first().map_or(0, Vec::len);
    for r in rows {
        assert_eq!(r.len(), k, "inconsistent regressor row length");
    }
    let p = k + 1; // + intercept column
    if n < p {
        return Err(MultiFitError::TooFewSamples);
    }
    // Normal equations: (XᵀX) β = Xᵀy with X = [1 | rows].
    let mut xtx = vec![vec![0.0f64; p]; p];
    let mut xty = vec![0.0f64; p];
    let x_at = |row: usize, col: usize| -> f64 {
        if col == 0 {
            1.0
        } else {
            rows[row][col - 1]
        }
    };
    for row in 0..n {
        for i in 0..p {
            xty[i] += x_at(row, i) * y[row];
            for j in 0..p {
                xtx[i][j] += x_at(row, i) * x_at(row, j);
            }
        }
    }
    // Gaussian elimination with partial pivoting.
    let mut a = xtx;
    let mut b = xty;
    for col in 0..p {
        let pivot = (col..p)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        if a[pivot][col].abs() < 1e-10 {
            return Err(MultiFitError::Singular);
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in 0..p {
            if row == col {
                continue;
            }
            let factor = a[row][col] / a[col][col];
            for j in col..p {
                a[row][j] -= factor * a[col][j];
            }
            b[row] -= factor * b[col];
        }
    }
    let beta: Vec<f64> = (0..p).map(|i| b[i] / a[i][i]).collect();

    // Diagnostics.
    let mean_y = y.iter().sum::<f64>() / n as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    let mut residuals = OnlineStats::new();
    for row in 0..n {
        let pred = beta[0]
            + rows[row]
                .iter()
                .zip(&beta[1..])
                .map(|(x, b)| x * b)
                .sum::<f64>();
        let r = y[row] - pred;
        ss_res += r * r;
        ss_tot += (y[row] - mean_y).powi(2);
        residuals.push(r);
    }
    let r_squared = if ss_tot == 0.0 {
        if ss_res < 1e-12 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    };
    Ok(MultiFit {
        intercept: beta[0],
        slopes: beta[1..].to_vec(),
        r_squared,
        residuals,
    })
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use crate::{DetRng, Sample, UniformInt};

    #[test]
    fn exact_plane_recovered() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![f64::from(i % 5), f64::from(i % 7)])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 4.0 + 2.5 * r[0] - 1.5 * r[1]).collect();
        let fit = fit_multiple(&rows, &y).unwrap();
        assert!((fit.intercept - 4.0).abs() < 1e-8);
        assert!((fit.slopes[0] - 2.5).abs() < 1e-8);
        assert!((fit.slopes[1] + 1.5).abs() < 1e-8);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!((fit.predict(&[2.0, 3.0]) - (4.0 + 5.0 - 4.5)).abs() < 1e-8);
    }

    #[test]
    fn eq1_shape_two_blocks() {
        // The paper's Eq. 1: τ = β₀ + β₁ξ₁ + β₂ξ₂ with noise — ξ₁ the loop
        // count, ξ₂ the conditional count.
        let mut rng = DetRng::seed_from(11);
        let loops = UniformInt::new(1, 19);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..2_000 {
            let x1 = loops.sample(&mut rng);
            let x2 = (x1 * rng.next_f64()).floor();
            let noise = (rng.next_f64() - 0.5) * 2_000.0;
            rows.push(vec![x1, x2]);
            y.push(500.0 + 61_000.0 * x1 + 2_000.0 * x2 + noise);
        }
        let fit = fit_multiple(&rows, &y).unwrap();
        assert!(
            (fit.slopes[0] - 61_000.0).abs() < 200.0,
            "β₁ {}",
            fit.slopes[0]
        );
        assert!(
            (fit.slopes[1] - 2_000.0).abs() < 200.0,
            "β₂ {}",
            fit.slopes[1]
        );
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn singular_and_underdetermined_rejected() {
        // Collinear: x₂ = 2·x₁.
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![f64::from(i), f64::from(2 * i)])
            .collect();
        let y: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(
            fit_multiple(&rows, &y).unwrap_err(),
            MultiFitError::Singular
        );
        // Underdetermined: 2 samples, 2 regressors + intercept.
        let rows = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let y = vec![1.0, 2.0];
        assert_eq!(
            fit_multiple(&rows, &y).unwrap_err(),
            MultiFitError::TooFewSamples
        );
    }

    #[test]
    fn zero_regressors_fits_the_mean() {
        let rows = vec![vec![], vec![], vec![]];
        let y = vec![2.0, 4.0, 6.0];
        let fit = fit_multiple(&rows, &y).unwrap();
        assert!((fit.intercept - 4.0).abs() < 1e-12);
        assert!(fit.slopes.is_empty());
    }

    #[test]
    fn error_display() {
        assert!(!MultiFitError::TooFewSamples.to_string().is_empty());
        assert!(!MultiFitError::Singular.to_string().is_empty());
    }
}
