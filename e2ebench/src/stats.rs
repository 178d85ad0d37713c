//! Order statistics over repetition samples.

/// Samples that must lie above a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle samples for an even count); NaN when
/// `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The nearest-rank `q` quantile, lowered until at least
/// [`TAIL_SAMPLES`] samples lie above it (the maximum when there are too
/// few samples for that). Returns the value and the quantile actually
/// reported.
pub fn tail_quantile(v: &[f64], q: f64) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return (f64::NAN, q);
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let idx = if n > TAIL_SAMPLES {
        (rank - 1).min(n - 1 - TAIL_SAMPLES)
    } else {
        n - 1
    };
    (s[idx], (idx + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.99), (1980.0, 0.99));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.99), (90.0, 0.9));
        assert_eq!(tail_quantile(&[5.0, 7.0, 6.0], 0.99), (7.0, 1.0));
    }
}
