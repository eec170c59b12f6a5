//! Small order statistics and the metric-name grammar.

/// Value at quantile `q` in `[0, 1]` of `values` (linear interpolation
/// between closest ranks); `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The highest of the usual percentiles (p99, p95, p90, p75) that has at
/// least ten samples beyond it in a sample of `n`, or `None` when only
/// the median is supported.
pub fn supported_percentile(n: usize) -> Option<u32> {
    [99, 95, 90, 75]
        .into_iter()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= 10.0)
}

/// True when `name` is a valid metric name: 1 to 64 characters out of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), Some(4.6));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(40), Some(75));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(1000), Some(99));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "run_s",
            "fastflow.worker_busy_s.0",
            "trace.row_latency_ms_p90",
            "0-ok",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/ed",
            "uni\u{e9}",
            &long,
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
