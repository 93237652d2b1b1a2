//! The estimators the benchmark fixes (same on both sides of any
//! comparison).
//!
//! Interference on a small shared VM is one-sided: it only ever slows a
//! slice down. The least disturbed slices are therefore the fastest, so
//! a rate is estimated from the fastest tenth of its slices and a latency
//! percentile from the lowest tenth of the per-slice percentiles. Median
//! and quartiles over all slices are kept beside each as the spread.

/// `q`-quantile (nearest rank, `0.0..=1.0`) of an ascending slice.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// How many slices "a tenth" is: at least 3, never more than all.
fn tenth(n: usize) -> usize {
    n.div_ceil(10).max(3).min(n)
}

/// Mean of the largest tenth (≥ 3) of `values` — the rate estimator.
pub fn fastest_tenth(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let k = tenth(v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// Mean of the smallest tenth (≥ 3) of `values` — the latency estimator.
pub fn lowest_tenth(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = tenth(v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// Spread over slices printed beside an estimate.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn spread(values: &[f64]) -> Spread {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Spread {
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

/// Least-squares slope of `ln y` on `ln x`: the fitted scaling exponent.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[7u32], 0.99), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tenth_estimators_on_known_vectors() {
        // 40 slices: a tenth is 4
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(fastest_tenth(&v), (37.0 + 38.0 + 39.0 + 40.0) / 4.0);
        assert_eq!(lowest_tenth(&v), (1.0 + 2.0 + 3.0 + 4.0) / 4.0);
        // fewer than 30 slices: still three
        let v = [5.0, 1.0, 9.0, 7.0, 3.0];
        assert_eq!(fastest_tenth(&v), 7.0);
        assert_eq!(lowest_tenth(&v), 3.0);
        // fewer than three: all of them
        assert_eq!(fastest_tenth(&[2.0, 4.0]), 3.0);
        // a slow mode hitting most slices does not move the estimate
        let mut noisy = vec![100.0; 8];
        noisy.extend([60.0; 24]);
        assert_eq!(fastest_tenth(&noisy), 100.0);
        let s = spread(&noisy);
        assert_eq!((s.q1, s.median, s.q3, s.n), (60.0, 60.0, 60.0, 32));
    }

    #[test]
    fn slope_recovers_exponent() {
        let pts: Vec<(f64, f64)> = [2000.0f64, 4000.0, 8000.0]
            .iter()
            .map(|&n| (n, 3e-6 * n.powf(1.5)))
            .collect();
        assert!((loglog_slope(&pts) - 1.5).abs() < 1e-9);
    }
}
