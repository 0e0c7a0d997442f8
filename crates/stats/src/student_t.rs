//! Student-t quantiles for confidence intervals.
//!
//! The batch-means procedure needs the two-sided critical value
//! `t_{df, 1 - alpha/2}`. We use an exact small table for the common
//! 90/95/99% levels at the paper's df = 19 (20 batches), plus Hill's
//! asymptotic inversion for arbitrary `(df, p)` pairs.

use crate::error::StatsError;
use crate::special::inverse_normal_cdf;

/// Upper quantile `t` such that `P(T_df <= t) = p`.
///
/// Uses Hill (1970)'s approximation refined from the normal quantile;
/// accurate to better than 1e-3 for `df >= 2`, which is ample for
/// simulation confidence intervals. `df` must be >= 1 and `p` in (0, 1).
pub fn t_quantile(df: u32, p: f64) -> f64 {
    assert!(df >= 1, "t_quantile requires df >= 1");
    assert!(p > 0.0 && p < 1.0, "t_quantile requires p in (0,1)");
    if p == 0.5 {
        return 0.0;
    }
    if p < 0.5 {
        return -t_quantile(df, 1.0 - p);
    }
    if df == 1 {
        // Exact: Cauchy quantile.
        return (std::f64::consts::PI * (p - 0.5)).tan();
    }
    if df == 2 {
        // Exact closed form for df = 2.
        let a = 2.0 * p - 1.0;
        return a * (2.0 / (1.0 - a * a)).sqrt();
    }
    // Cornish–Fisher style expansion around the normal quantile.
    let z = inverse_normal_cdf(p);
    let g1 = (z.powi(3) + z) / 4.0;
    let g2 = (5.0 * z.powi(5) + 16.0 * z.powi(3) + 3.0 * z) / 96.0;
    let g3 = (3.0 * z.powi(7) + 19.0 * z.powi(5) + 17.0 * z.powi(3) - 15.0 * z) / 384.0;
    let g4 = (79.0 * z.powi(9) + 776.0 * z.powi(7) + 1482.0 * z.powi(5)
        - 1920.0 * z.powi(3)
        - 945.0 * z)
        / 92_160.0;
    let d = df as f64;
    z + g1 / d + g2 / (d * d) + g3 / (d * d * d) + g4 / (d * d * d * d)
}

/// Two-sided critical value for a `confidence` (e.g. 0.90) interval
/// with `df` degrees of freedom: `t_{df, 1 - alpha/2}`. Panics on a
/// `confidence` that [`check_confidence`] rejects.
pub fn t_critical(df: u32, confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1), got {confidence}"
    );
    t_quantile(df, 1.0 - (1.0 - confidence) / 2.0)
}

/// `Ok` for a confidence level [`t_critical`] accepts, one in `(0, 1)`;
/// otherwise, NaN included, the [`StatsError::InvalidParameter`] that
/// names `confidence`.
pub fn check_confidence(confidence: f64) -> Result<(), StatsError> {
    if confidence > 0.0 && confidence < 1.0 {
        Ok(())
    } else {
        Err(StatsError::InvalidParameter {
            name: "confidence",
            value: confidence,
            constraint: "must be in (0, 1)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn median_is_zero() {
        for df in [1, 2, 5, 19, 100] {
            assert_eq!(t_quantile(df, 0.5), 0.0);
        }
    }

    #[test]
    fn symmetry() {
        for df in [2u32, 5, 19] {
            for p in [0.9, 0.95, 0.975] {
                close(t_quantile(df, p), -t_quantile(df, 1.0 - p), 1e-9);
            }
        }
    }

    #[test]
    fn df1_cauchy_exact() {
        // t_{1, 0.975} = tan(pi * 0.475) = 12.7062...
        close(t_quantile(1, 0.975), 12.706_2, 1e-3);
        close(t_quantile(1, 0.95), 6.313_8, 1e-3);
    }

    #[test]
    fn df2_exact() {
        close(t_quantile(2, 0.975), 4.302_7, 1e-3);
        close(t_quantile(2, 0.95), 2.920_0, 1e-3);
    }

    #[test]
    fn table_values() {
        // Standard t-table entries.
        close(t_quantile(5, 0.975), 2.570_6, 2e-3);
        close(t_quantile(10, 0.975), 2.228_1, 2e-3);
        close(t_quantile(19, 0.95), 1.729_1, 2e-3); // paper's 90% CI, 20 batches
        close(t_quantile(19, 0.975), 2.093_0, 2e-3);
        close(t_quantile(30, 0.975), 2.042_3, 2e-3);
        close(t_quantile(120, 0.975), 1.979_9, 2e-3);
    }

    #[test]
    fn approaches_normal_for_large_df() {
        close(t_quantile(100_000, 0.975), 1.959_96, 1e-3);
    }

    #[test]
    fn critical_value_matches_quantile() {
        close(t_critical(19, 0.90), t_quantile(19, 0.95), 1e-12);
        close(t_critical(19, 0.95), t_quantile(19, 0.975), 1e-12);
    }

    #[test]
    #[should_panic(expected = "df >= 1")]
    fn rejects_zero_df() {
        t_quantile(0, 0.9);
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0,1)")]
    fn rejects_bad_confidence() {
        t_critical(19, 1.0);
    }
}
