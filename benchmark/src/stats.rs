//! Percentiles with a sample floor.
//!
//! A timing is reported as a median plus the highest percentile that
//! still has [`MIN_BEYOND`] samples beyond it; asking for a percentile
//! the sample cannot support is an error, never a guess.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles tried, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    })
}

/// The `pct`-th percentile (nearest rank), refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], pct: f64) -> Result<f64, String> {
    let beyond = xs.len() as f64 * (100.0 - pct) / 100.0;
    if beyond < MIN_BEYOND as f64 {
        return Err(format!(
            "p{pct} needs {MIN_BEYOND} samples beyond it; {} samples leave {beyond:.1}",
            xs.len()
        ));
    }
    let s = sorted(xs);
    let rank = (pct / 100.0 * s.len() as f64).ceil() as usize;
    Ok(s[rank.clamp(1, s.len()) - 1])
}

/// The highest percentile of the ladder this sample supports, as
/// `(pct, value)`; `None` when even the lowest rung is refused.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .find_map(|&pct| percentile(xs, pct).ok().map(|v| (pct, v)))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(95.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((75.0, 30.0)));
    }

    #[test]
    fn percentile_refuses_below_the_sample_floor() {
        let xs: Vec<f64> = (1..=96).map(f64::from).collect();
        let err = percentile(&xs, 99.0).unwrap_err();
        assert!(err.contains("p99"), "{err}");
        assert!(percentile(&xs, 75.0).is_ok());
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }
}
