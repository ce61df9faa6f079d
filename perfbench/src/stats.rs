//! Order statistics of timing samples.

/// Median (midpoint-averaged for an even count). `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` below eleven samples.
pub fn tail(values: &[f64]) -> Option<(usize, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let v = sorted(values);
    Some((100 * (n - 10) / n, v[n - 11]))
}

/// Steal (% of CPU time) below which a sample counts as undisturbed.
pub const CALM_STEAL_PCT: f64 = 1.0;

/// The samples taken while the hypervisor stole the least CPU time: those
/// whose `steal_pct` is at most the median one or below
/// [`CALM_STEAL_PCT`]. That keeps at least half of them, and all of them
/// on a calm host. Also returns the steal cut-off used.
pub fn calmer_half<T>(samples: Vec<T>, steal_pct: &[f64]) -> (Vec<T>, f64) {
    let cut = median(steal_pct).max(CALM_STEAL_PCT);
    let kept: Vec<T> = samples
        .into_iter()
        .zip(steal_pct)
        .filter(|&(_, &s)| s <= cut)
        .map(|(x, _)| x)
        .collect();
    (kept, cut)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One report line for a timing: its median, tail percentile and sample
/// count.
pub fn timing_line(name: &str, samples: &[f64], unit: &str) -> String {
    let tail = match tail(samples) {
        Some((p, v)) => format!("p{p} {v:.6}"),
        None => "no tail (< 11 samples)".into(),
    };
    format!(
        "timing {name:<26} median {:.6} {unit}  {tail}  n={}",
        median(samples),
        samples.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(tail(&[1.0; 10]).is_none());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50, 10.0)));
    }

    #[test]
    fn calmer_half_keeps_the_least_stolen_samples() {
        let (kept, cut) = calmer_half(vec!['a', 'b', 'c', 'd'], &[3.0, 0.0, 9.0, 1.0]);
        assert_eq!((kept, cut), (vec!['b', 'd'], 2.0));
        let (kept, cut) = calmer_half(vec![1, 2, 3], &[0.9, 0.0, 0.4]);
        assert_eq!((kept, cut), (vec![1, 2, 3], 1.0));
    }
}
