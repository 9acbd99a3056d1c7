//! Order statistics.

/// Median of unsorted `values` (mean of the middle two for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile with at least ten samples above it:
/// `(value, percentile)`. With ten or fewer samples there is no such
/// percentile and the maximum is returned as the 100th.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 10 {
        return (sorted.last().copied().unwrap_or(0.0), 100.0);
    }
    #[allow(clippy::cast_precision_loss)]
    let percentile = 100.0 * (n - 10) as f64 / n as f64;
    (sorted[n - 11], percentile)
}
