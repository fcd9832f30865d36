//! Order statistics and the rule that turns two sets of runs into a
//! verdict (a gain, a regression, no change, or unresolved).

/// Candidate tail percentiles, highest first.
pub const TAIL_QUANTILES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Nearest-rank percentile `q` (in `0..=1`) of ascending `sorted`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest of [`TAIL_QUANTILES`] that leaves at least ten samples
/// beyond it among `n`; the median when none does.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_QUANTILES
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
        .unwrap_or(0.5)
}

/// Sorts a copy of `values` ascending (NaN-free input expected).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones an external check computes.
/// Fewer than two values give a zero-width range at the one value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i as f64 * m as f64 - j as f64 * 4.0;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range over the median: the run-to-run spread the
/// benchmark's bounds are judged against.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The quartile of `values` on the better side: the third quartile of a
/// rate, the first of a latency. Interference from outside the process
/// only makes a window worse, so this reads the program's speed on a quiet
/// machine while ignoring up to three quarters of disturbed windows.
pub fn good_quartile(values: &[f64], better: Better) -> f64 {
    let (q1, q3) = quartiles(values);
    let v = sorted(values);
    // Clamped: with few values the exclusive method extrapolates.
    match better {
        Better::Higher => q3,
        Better::Lower => q1,
    }
    .clamp(v[0], v[v.len() - 1])
}

/// The most hypervisor steal, as a share of all CPU time, a window may
/// see and still count as quiet.
pub const QUIET_STEAL: f64 = 0.03;

/// The windows whose `steal` is at most [`QUIET_STEAL`], when at least a
/// quarter of them (and at least one) are; otherwise all of them. While
/// the hypervisor takes a vCPU away, a pass at `p` threads runs on fewer
/// cores than its one-thread neighbour, so the ratio of the two reads the
/// host, not the program.
pub fn keep_quiet<T>(windows: Vec<T>, steal: impl Fn(&T) -> f64) -> Vec<T> {
    let quiet = windows.iter().filter(|w| steal(w) <= QUIET_STEAL).count();
    if quiet == 0 || quiet * 4 < windows.len() {
        return windows;
    }
    windows
        .into_iter()
        .filter(|w| steal(w) <= QUIET_STEAL)
        .collect()
}

/// The mean of the middle half of `values`: a quarter of them (rounded
/// down) is dropped from each end. For a ratio of two passes run side by
/// side, interference can slow either pass, so the reduction is symmetric;
/// it averages the undisturbed windows and ignores the extremes.
pub fn mid_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "mid_mean of no samples");
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The latency tail of samples grouped in windows, and the quantile it
/// reports: the `q` percentile of each window holding at least `min`
/// samples (ten beyond it when `min` ≥ 10 / (1 − `q`)), reduced by
/// [`good_quartile`]. With no such window, the highest percentile of all
/// samples with ten beyond it.
pub fn windowed_tail(windows: &[Vec<f64>], min: usize, q: f64) -> (f64, f64) {
    let tails: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= min)
        .map(|w| percentile(&sorted(w), q))
        .collect();
    if !tails.is_empty() {
        return (good_quartile(&tails, Better::Lower), q);
    }
    let all = sorted(&windows.concat());
    let q = tail_quantile(all.len());
    (percentile(&all, q), q)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// Whether `x` is strictly better than `y`.
    fn beats(self, x: f64, y: f64) -> bool {
        match self {
            Better::Higher => x > y,
            Better::Lower => x < y,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9 of 10 alternating pairs (with at least
    /// ten pairs) and the medians differ by more than the parent's IQR.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// bound, with both spreads inside it.
    Regression,
    /// A spread exceeds the bound, and the change does not beat the
    /// parent on every run.
    Unresolved,
    NoChange,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::NoChange => "no-change",
        }
    }
}

/// Judges `change` against `parent` for one metric on one workload.
/// Runs are paired by index, in the alternating order they were made.
/// `bound` is the share of the parent's median by which the metric may
/// worsen before it counts as a regression.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| better.beats(change[i], parent[i]))
        .count();
    let (q1, q3) = quartiles(parent);
    if pairs >= 10 && wins * 10 >= pairs * 9 && better.beats(mc, mp) && (mc - mp).abs() > q3 - q1 {
        return Verdict::Gain;
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
    let spread = relative_iqr(parent).max(relative_iqr(change));
    if spread > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Higher => (mp - mc) / mp.abs(),
        Better::Lower => (mc - mp) / mp.abs(),
    };
    if worse > bound {
        Verdict::Regression
    } else {
        Verdict::NoChange
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
        for n in [20, 100, 150, 1000, 5000, 20_000] {
            assert!(samples_beyond(n, tail_quantile(n)) >= 10, "n={n}");
        }
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn windowed_tail_ignores_disturbed_windows() {
        // Five windows of 1000 samples; two have a spike.
        let windows: Vec<Vec<f64>> = (0..5)
            .map(|w| {
                (0..1000)
                    .map(|i| {
                        if w % 2 == 1 && i % 10 == 0 {
                            1e6
                        } else {
                            i as f64
                        }
                    })
                    .collect()
            })
            .collect();
        assert_eq!(windowed_tail(&windows, 1000, 0.99), (989.0, 0.99));
        assert_eq!(windowed_tail(&windows, 1000, 0.9), (899.0, 0.9));
        // Windows short of `min` fall back to the tail of all samples: of
        // 4995 samples, p99.9 leaves only 4 beyond, p99 leaves 49.
        let short: Vec<Vec<f64>> = windows.iter().map(|w| w[..999].to_vec()).collect();
        assert_eq!(windowed_tail(&short, 1000, 0.99).1, 0.99);
        assert_eq!(
            windowed_tail(&[vec![3.0, 1.0, 2.0]], 1000, 0.99),
            (2.0, 0.5)
        );
    }

    #[test]
    fn good_quartile_takes_the_better_side() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(good_quartile(&v, Better::Higher), 8.25);
        assert_eq!(good_quartile(&v, Better::Lower), 2.75);
        assert_eq!(good_quartile(&[4.0], Better::Lower), 4.0);
        assert_eq!(good_quartile(&[1.0, 2.0], Better::Higher), 2.0);
    }

    #[test]
    fn keep_quiet_drops_stolen_windows_unless_too_few_remain() {
        let steal = |w: &(u32, f64)| w.1;
        let windows = vec![(0, 0.0), (1, 0.2), (2, 0.03), (3, 0.5)];
        let kept: Vec<u32> = keep_quiet(windows, steal).iter().map(|w| w.0).collect();
        assert_eq!(kept, [0, 2]);
        // One quiet window of five is under a quarter: all are kept.
        let stolen = vec![(0, 0.1), (1, 0.1), (2, 0.0), (3, 0.1), (4, 0.1)];
        assert_eq!(keep_quiet(stolen, steal).len(), 5);
        assert_eq!(keep_quiet(vec![(0, 0.9)], steal).len(), 1);
        assert!(keep_quiet(Vec::new(), steal).is_empty());
    }

    #[test]
    fn mid_mean_drops_a_quarter_from_each_end() {
        // Of 1..=10, 1, 2, 9 and 10 go.
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(mid_mean(&v), 5.5);
        // One wild window on either side does not move it.
        assert_eq!(mid_mean(&[1.0, 1.0, 1.0, 1.0, 100.0]), 1.0);
        assert_eq!(mid_mean(&[0.01, 1.0, 1.0, 1.0, 1.0]), 1.0);
        // Under four values nothing is dropped.
        assert_eq!(mid_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mid_mean(&[4.0]), 4.0);
    }

    #[test]
    fn geomean_of_family_medians() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn judge_follows_the_pairing_and_bound_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        // 10 of 10 pairs better by 10% on a lower-is-better metric.
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.9).collect();
        assert_eq!(judge(&parent, &faster, Better::Lower, 0.05), Verdict::Gain);
        // The same numbers on a higher-is-better metric are a regression.
        assert_eq!(
            judge(&parent, &faster, Better::Higher, 0.05),
            Verdict::Regression
        );
        // ...but within a 15% bound they are no change.
        assert_eq!(
            judge(&parent, &faster, Better::Higher, 0.15),
            Verdict::NoChange
        );
        // Fewer than ten pairs can never be a gain.
        assert_eq!(
            judge(&parent[..9], &faster[..9], Better::Lower, 0.05),
            Verdict::NoChange
        );
        // 8 of 10 wins is not enough.
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_ne!(judge(&parent, &mixed, Better::Lower, 0.5), Verdict::Gain);
        // A spread wider than the bound is unresolved...
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 80.0 } else { 120.0 })
            .collect();
        assert_eq!(
            judge(&noisy, &parent, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let far: Vec<f64> = vec![10.0; 10];
        assert_eq!(judge(&noisy, &far, Better::Lower, 0.05), Verdict::Gain);
        assert_eq!(
            judge(&noisy[..4], &far[..4], Better::Lower, 0.05),
            Verdict::NoChange
        );
        // A median shift inside the parent's IQR is not a gain.
        let nudged: Vec<f64> = parent.iter().map(|x| x - 0.05).collect();
        assert_eq!(
            judge(&parent, &nudged, Better::Lower, 0.05),
            Verdict::NoChange
        );
    }
}
