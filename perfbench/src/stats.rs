//! The benchmark's own arithmetic: percentiles, geometric means,
//! quartile spreads, failure counting and metric-name validation.

/// Fewest samples that must lie strictly beyond a percentile before it
/// is reported as that percentile (a p99 therefore needs at least 1000
/// samples).
pub const TAIL_SUPPORT: usize = 10;

/// Median of `samples` (linear interpolation between the two middle
/// values for an even count). `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The `q`-quantile (`0 <= q <= 1`) by linear interpolation between
/// closest ranks over the sorted samples — the estimator numpy's
/// default uses. It demands no tail support; see [`percentile`] for
/// the checked form.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The `q`-quantile, but only when at least [`TAIL_SUPPORT`] samples lie
/// beyond it, i.e. `n · (1 − q) >= TAIL_SUPPORT`. Fewer samples would
/// report a handful of outliers (or the maximum) under a percentile's
/// name.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = samples.len() as f64 * (1.0 - q);
    // Round away float noise: 1000 · 0.01 must count as 10.
    if (beyond + 1e-9).floor() < TAIL_SUPPORT as f64 {
        return None;
    }
    quantile(samples, q)
}

/// Geometric mean of strictly positive values; `None` if any value is
/// not positive or there are none. Each value weighs equally, so a 2x
/// change in one of `k` values moves the mean by `2^(1/k)`.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|&v| v.is_finite() && v > 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// First and third quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Quartile spread `(Q3 − Q1) / median`: the run-to-run noise measure
/// the benchmark's bounds are checked against. `None` when the median
/// is zero or there are fewer than two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Attempted/failed operation counter. An operation fails when it
/// errors, is refused (`ERR` reply) or returns a result that differs
/// from its reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Failures {
    /// Count one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add another counter's operations.
    pub fn absorb(&mut self, other: Failures) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    pub fn rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a valid metric name: 1–64 characters of ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1–16 characters of ASCII letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12 * a.abs().max(1.0)
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&s, 1.5), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&s, 0.99),
            None,
            "999 samples leave 9.99 beyond p99"
        );
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&s, 0.99).expect("1000 samples support p99");
        assert!(close(p99, 990.01), "{p99}");
        assert_eq!(s.iter().filter(|&&v| v > p99).count(), 10);
        // p50 needs 20 samples.
        assert!(percentile(&s[..19], 0.5).is_none());
        assert_eq!(percentile(&s[..20], 0.5), Some(10.5));
    }

    #[test]
    fn geomean_weighs_each_value_equally() {
        assert!(close(geomean(&[2.0, 8.0]).unwrap(), 4.0));
        let base = [1.0, 1.0, 1.0, 1.0, 1.0];
        let mut faster = base;
        faster[2] = 0.5; // a 2x gain on one of five
        let ratio = geomean(&base).unwrap() / geomean(&faster).unwrap();
        assert!(close(ratio, 2f64.powf(0.2)), "{ratio}");
        assert!((ratio - 1.1487).abs() < 1e-4, "moves the mean by ~15%");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert!(close(q1, 1.0) && close(q3, 3.0), "{q1} {q3}");
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartile_spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(quartile_spread(&v).unwrap(), 5.5 / 5.5));
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        assert!(quartile_spread(&steady).unwrap() < 0.01);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn failures_count_errors_and_mismatches() {
        let mut f = Failures::default();
        assert_eq!(f.rate(), 0.0);
        f.record(true);
        f.record(false);
        f.record(true);
        f.record(false);
        assert_eq!((f.attempted, f.failed), (4, 2));
        assert_eq!(f.rate(), 0.5);
        f.absorb(Failures {
            attempted: 6,
            failed: 0,
        });
        assert_eq!((f.attempted, f.failed), (10, 2));
        assert!(close(f.rate(), 0.2));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "eval_s",
            "pipeline.crime_index.merge_s",
            "metrics.task_p99_us",
            "0x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/x",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds_per_request", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
