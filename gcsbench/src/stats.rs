//! Order statistics over measured samples.

/// The `q` quantile (0..=1) by nearest rank; NaN for no samples.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median, averaging the two middle samples of an even count.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(v.clone(), 0.99), 99.0);
        assert_eq!(quantile(v.clone(), 0.5), 50.0);
        assert_eq!(median(v), 50.5);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(Vec::new(), 0.5).is_nan());
    }
}
