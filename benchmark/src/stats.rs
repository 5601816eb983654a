//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the rule the acceptance
//! check applies to the run-to-run spread; the latency percentiles use the
//! nearest-rank rule, so a reported p99 is always a sample that occurred.
//!
//! The reported p99 is [`windowed_p99`], not the whole run's: on a shared
//! host a handful of multi-millisecond scheduler stalls per run land in the
//! top percent of the samples and make the plain p99 swing several-fold from
//! run to run, while the p99 of the calm stretches of the same run agrees to
//! a percent.

/// `values` sorted ascending (NaN-free by construction: every sample is a
/// measured duration or a ratio of two).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q3)` as `statistics.quantiles(values, n=4)` gives them. A sample
/// of fewer than two values has no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        // Exclusive method: the i-th of 4 cut points sits at rank
        // i*(n+1)/4 (1-based), clamped into the sample, linearly
        // interpolated between its neighbours.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median (0 when the median is).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Most samples a p99 window holds. Calibration on recorded `serve` runs
/// (12 k samples each): 1000-sample windows, with ten samples beyond each
/// p99, still moved 7 % between runs, because one stall spoils an eighth of
/// the phase; at 100 a window's p99 is its second-largest sample and flips
/// between the two modes the server's 1 ms tick produces; 250 sits between.
const P99_WINDOW_MAX: usize = 250;
/// Fewest; below a hundred samples a window's p99 is its maximum, which is
/// all a workload with a few hundred passes per run can offer.
const P99_WINDOW_MIN: usize = 20;

/// Window length [`windowed_p99`] uses for `n` samples: a sixteenth of the
/// run, within the two limits above.
pub fn p99_window(n: usize) -> usize {
    (n / 16).clamp(P99_WINDOW_MIN, P99_WINDOW_MAX)
}

/// The tail of the run's calm stretches: `samples`, in the order they were
/// taken, cut into consecutive windows of [`p99_window`] samples (a shorter
/// remainder is left out), the nearest-rank p99 of each window, and the
/// first quartile of those. A stall of the host only spoils the windows it
/// falls in, so the result moves only once three windows in four are
/// spoiled; a tail the program itself produces is in every window. The
/// price: an event rarer than about once per window is not seen at all.
/// With fewer samples than one window it is the plain p99 of all of them.
pub fn windowed_p99(samples: &[f64]) -> f64 {
    let tails: Vec<f64> = samples
        .chunks_exact(p99_window(samples.len()))
        .map(|w| percentile(&sorted(w), 99.0))
        .collect();
    if tails.is_empty() {
        return percentile(&sorted(samples), 99.0);
    }
    percentile(&sorted(&tails), 25.0)
}

/// Median, quartiles and count of one metric's per-pass samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary { median: median(values), q1, q3, n: values.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn windowed_p99_ignores_stalls_in_up_to_three_windows_of_four() {
        // 8000 samples of 1.0 with 1 in 50 at 3.0: every window's p99 is 3.
        let mut v: Vec<f64> = (0..8000).map(|i| if i % 50 == 0 { 3.0 } else { 1.0 }).collect();
        assert_eq!(p99_window(v.len()), 250);
        assert_eq!(windowed_p99(&v), 3.0);
        // A stall delays 40 consecutive samples to 50 in 23 of the 32
        // windows: the whole run's p99 jumps to it, the windowed one stays.
        for w in 0..23 {
            v[w * 250 + 100..w * 250 + 140].fill(50.0);
        }
        assert_eq!(percentile(&sorted(&v), 99.0), 50.0);
        assert_eq!(windowed_p99(&v), 3.0);
        // A tail in every window is the program's own, and is reported.
        for w in 23..32 {
            v[w * 250 + 100..w * 250 + 140].fill(50.0);
        }
        assert_eq!(windowed_p99(&v), 50.0);
    }

    #[test]
    fn windowed_p99_of_a_short_sample() {
        // 43 passes: two windows of 20, each one's p99 its maximum (20 and
        // 40), 3 passes left out; the first quartile of two is the lower.
        let v: Vec<f64> = (1..=43).map(f64::from).collect();
        assert_eq!(p99_window(v.len()), 20);
        assert_eq!(windowed_p99(&v), 20.0);
        assert_eq!(p99_window(480), 30);
        // Fewer than one window: the plain p99.
        assert_eq!(windowed_p99(&[2.0, 9.0, 4.0]), 9.0);
        assert_eq!(windowed_p99(&[]), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
