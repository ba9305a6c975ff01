//! Percentiles under the benchmark's reporting rule: a tail percentile
//! is only reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Whether `n` samples support quantile `q`: at least [`MIN_BEYOND`]
/// samples lie beyond its nearest rank.
#[must_use]
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND
}

/// Value at quantile `q` of ascending `sorted` (nearest rank); 0 when empty.
#[must_use]
pub fn at(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)]
}

/// The tail percentile the rule allows: `q` itself when `sorted`
/// supports it, otherwise the highest quantile that still has
/// [`MIN_BEYOND`] samples beyond it. Returns `(quantile, value)`; with
/// [`MIN_BEYOND`] or fewer samples the quantile is the median.
#[must_use]
pub fn tail(sorted: &[f64], q: f64) -> (f64, f64) {
    let n = sorted.len();
    if supports(n, q) {
        return (q, at(sorted, q));
    }
    if n <= MIN_BEYOND + 1 {
        return (0.5, at(sorted, 0.5));
    }
    let idx = n - 1 - MIN_BEYOND;
    ((idx + 1) as f64 / n as f64, sorted[idx])
}

/// [`tail`] over weighted samples: each `(value, weight)` counts as
/// `weight` samples of `value`. A weight of 0 contributes nothing.
#[must_use]
pub fn weighted_tail(samples: &[(f64, u64)], q: f64) -> (f64, f64) {
    let mut s: Vec<(f64, u64)> = samples.iter().copied().filter(|s| s.1 > 0).collect();
    s.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n: u64 = s.iter().map(|s| s.1).sum();
    if n == 0 {
        return (0.5, 0.0);
    }
    let n_us = usize::try_from(n).unwrap_or(usize::MAX);
    let (got, r) = if supports(n_us, q) {
        (q, rank(n_us, q) as u64)
    } else if n_us <= MIN_BEYOND + 1 {
        (0.5, rank(n_us, 0.5) as u64)
    } else {
        let idx = n - 1 - MIN_BEYOND as u64;
        ((idx + 1) as f64 / n as f64, idx)
    };
    let mut seen = 0u64;
    for (value, weight) in &s {
        seen += weight;
        if seen > r {
            return (got, *value);
        }
    }
    (got, s[s.len() - 1].0)
}

/// Ascending copy of `values`.
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (upper median for even counts); 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    at(&s, 0.5)
}

/// Label of a quantile as a percentile name, e.g. `0.99` → `p99`,
/// `0.975` → `p97.5`.
#[must_use]
pub fn label(q: f64) -> String {
    let p = (q * 1000.0).round() / 10.0;
    if p.fract() == 0.0 {
        format!("p{p:.0}")
    } else {
        format!("p{p}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn supported_tail_is_the_nearest_rank() {
        let s = ramp(1000);
        assert_eq!(tail(&s, 0.99), (0.99, 990.0));
        // Exactly ten samples (991..=1000) lie beyond it.
        assert_eq!(s.iter().filter(|&&v| v > 990.0).count(), MIN_BEYOND);
    }

    #[test]
    fn unsupported_tail_falls_back_to_the_highest_supported_percentile() {
        let s = ramp(400);
        let (q, v) = tail(&s, 0.99);
        assert_eq!(v, 390.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), MIN_BEYOND);
        assert!((q - 0.975).abs() < 1e-12);
        assert_eq!(label(q), "p97.5");
    }

    #[test]
    fn tiny_samples_report_the_median() {
        let s = ramp(5);
        assert_eq!(tail(&s, 0.99), (0.5, 3.0));
        assert_eq!(tail(&[], 0.99), (0.5, 0.0));
    }

    #[test]
    fn weighted_tail_matches_the_expanded_samples() {
        let weighted = [(5.0, 3), (1.0, 2), (9.0, 0), (7.0, 995)];
        let expanded: Vec<f64> = weighted
            .iter()
            .flat_map(|&(v, w)| std::iter::repeat_n(v, w as usize))
            .collect();
        let s = sorted(expanded);
        for q in [0.001, 0.003, 0.5, 0.95, 0.99, 0.999] {
            assert_eq!(weighted_tail(&weighted, q), tail(&s, q), "q = {q}");
        }
        assert_eq!(weighted_tail(&[], 0.99), (0.5, 0.0));
    }

    #[test]
    fn labels() {
        assert_eq!(label(0.99), "p99");
        assert_eq!(label(0.5), "p50");
        assert_eq!(label(0.95), "p95");
    }
}
