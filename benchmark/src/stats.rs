//! The arithmetic every reported number goes through: medians and
//! spreads of repeated passes, the geometric mean that combines per-kind
//! rates, and the bound comparison `--selfcheck` and later PRs gate on.

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Median of the samples (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one pass.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest sample.
pub fn min_max(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// First and third quartile by the "exclusive" method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread computed here
/// equals the one the acceptance procedure computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        // Position q(n+1)/4 in 1-based ranks, clamped to the sample range.
        let pos = (q * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// metric's bound is compared with.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// Geometric mean: the combination in which one slow kind cannot be
/// masked by three fast ones (and one fast kind cannot mask a slow one).
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// By what share of `base` the value `new` is *worse*; negative when it
/// is better. The direction comes from the metric.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// The regression rule: `new` is within bound of `base` unless it is
/// worse by more than `bound` (a share of `base`).
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn min_max_spread() {
        assert_eq!(min_max(&[2.0, 9.0, 4.0]), (2.0, 9.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past a two-element sample.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_is_not_fooled_by_one_kind() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // One kind collapsing 100x moves the geomean of four by 100^(1/4).
        let before = geometric_mean(&[8.0, 8.0, 8.0, 8.0]);
        let after = geometric_mean(&[8.0, 8.0, 8.0, 0.08]);
        assert!((before / after - 100f64.powf(0.25)).abs() < 1e-9);
    }

    #[test]
    fn bound_comparison_follows_the_metric_direction() {
        // Lower is better: 10 % slower is outside a 5 % bound, inside 10 %.
        assert!(!within_bound(10.0, 11.0, Better::Lower, 0.05));
        assert!(within_bound(10.0, 11.0, Better::Lower, 0.10));
        assert!(within_bound(10.0, 5.0, Better::Lower, 0.0));
        // Higher is better: the same numbers read the other way round.
        assert!(within_bound(10.0, 11.0, Better::Higher, 0.0));
        assert!(!within_bound(10.0, 8.9, Better::Higher, 0.10));
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }
}
