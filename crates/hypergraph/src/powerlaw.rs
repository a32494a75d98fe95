//! Power-law fitting of degree histograms (the paper's Fig. 1).
//!
//! The paper fits `P(d) = c · d^(−γ)` to the protein degree histogram by
//! ordinary least squares on the log–log plot and reports
//! `log c = 3.161`, `γ = 2.528`, `R² = 0.963`. We reproduce exactly that
//! procedure: take every degree `d ≥ 1` with a nonzero frequency, regress
//! `log10 P(d)` on `log10 d`, and report the goodness of fit
//! `R² = 1 − (rᵀr)/(yᵀy)` with `y` in deviations from its mean.

/// Result of a least-squares power-law fit on a log–log histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerLawFit {
    /// `log10 c`, the intercept of the log–log regression.
    pub log10_c: f64,
    /// `γ`, the power-law exponent (the negated slope).
    pub gamma: f64,
    /// Coefficient of determination of the log–log fit.
    pub r_squared: f64,
    /// Number of (degree, frequency) points used.
    pub points: usize,
}

impl PowerLawFit {
    /// Predicted frequency at degree `d` under the fitted law.
    pub fn predict(&self, d: f64) -> f64 {
        10f64.powf(self.log10_c) * d.powf(-self.gamma)
    }
}

/// Fit a power law to a histogram where `hist[d]` is the frequency of
/// degree `d`. Degree 0 and zero-frequency bins are excluded (log of
/// zero). Returns `None` if fewer than two usable points remain, or if
/// all usable degrees are equal (vertical line).
pub fn fit_power_law(hist: &[usize]) -> Option<PowerLawFit> {
    let pts: Vec<(f64, f64)> = hist
        .iter()
        .enumerate()
        .skip(1)
        .filter(|&(_, &freq)| freq > 0)
        .map(|(d, &freq)| ((d as f64).log10(), (freq as f64).log10()))
        .collect();
    let n = pts.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let mx = sx / nf;
    let my = sy / nf;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;

    // R² = 1 − Σr² / Σ(y − ȳ)²  (the paper's definition, with y measured
    // in deviations from the mean).
    let ss_res: f64 = pts
        .iter()
        .map(|&(x, y)| {
            let r = y - (intercept + slope * x);
            r * r
        })
        .sum();
    let ss_tot: f64 = pts.iter().map(|&(_, y)| (y - my) * (y - my)).sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };

    Some(PowerLawFit {
        log10_c: intercept,
        gamma: -slope,
        r_squared,
        points: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_power_law_recovered() {
        // P(d) = 1000 d^-2 at d = 1..=10, rounded to integers.
        let hist: Vec<usize> = (0..=10usize)
            .map(|d| {
                if d == 0 {
                    0
                } else {
                    (1000.0 / (d * d) as f64).round() as usize
                }
            })
            .collect();
        let fit = fit_power_law(&hist).unwrap();
        assert!((fit.gamma - 2.0).abs() < 0.05, "gamma = {}", fit.gamma);
        assert!((fit.log10_c - 3.0).abs() < 0.05);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn predict_inverts_fit() {
        let fit = PowerLawFit {
            log10_c: 3.0,
            gamma: 2.0,
            r_squared: 1.0,
            points: 5,
        };
        assert!((fit.predict(1.0) - 1000.0).abs() < 1e-9);
        assert!((fit.predict(10.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn skips_zero_bins_and_degree_zero() {
        // hist[0] (isolated) and hist[2] = 0 must be ignored.
        let hist = vec![999, 100, 0, 11, 0, 4];
        let fit = fit_power_law(&hist).unwrap();
        assert_eq!(fit.points, 3);
        assert!(fit.gamma > 0.0);
    }

    #[test]
    fn too_few_points_is_none() {
        assert_eq!(fit_power_law(&[5, 10]), None); // only d=1 usable
        assert_eq!(fit_power_law(&[]), None);
        assert_eq!(fit_power_law(&[0, 0, 0]), None);
    }

    #[test]
    fn perfectly_flat_histogram_has_gamma_zero() {
        let hist = vec![0usize, 7, 7, 7, 7];
        let fit = fit_power_law(&hist).unwrap();
        assert!(fit.gamma.abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_exponential_fits_worse_than_power_law() {
        // Exponential decay P(d) = 1000 * 0.5^d is convex on log-log; its
        // linear fit R² must be worse than for a true power law.
        let exp_hist: Vec<usize> = (0..=11usize)
            .map(|d| {
                if d == 0 {
                    0
                } else {
                    (1000.0 * 0.5f64.powi(d as i32)).round() as usize
                }
            })
            .collect();
        let pl_hist: Vec<usize> = (0..=11usize)
            .map(|d| {
                if d == 0 {
                    0
                } else {
                    (1000.0 * (d as f64).powf(-2.5)).round().max(1.0) as usize
                }
            })
            .collect();
        let exp_fit = fit_power_law(&exp_hist).unwrap();
        let pl_fit = fit_power_law(&pl_hist).unwrap();
        assert!(pl_fit.r_squared > exp_fit.r_squared);
    }
}
