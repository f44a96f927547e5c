//! Fastest sample, median and quartiles of a run's samples.

/// Fastest sample, median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    /// Fastest of every other sample, starting from the first and from the
    /// second (samples come in the order they were taken): two readings of
    /// `min` from the same run, whose distance says how well the run
    /// resolves it.
    pub half_mins: [f64; 2],
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value that was counted or computed once, not sampled.
    pub fn exact(value: f64) -> Summary {
        Summary {
            min: value,
            half_mins: [value; 2],
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Summarise `samples` (at least one).  The quartiles are the ones Python's
/// `statistics.quantiles(samples, n=4)` gives (the "exclusive" method), so
/// a spread computed here agrees with one computed from the printed values.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return Summary::exact(sorted[0]);
    }
    let quantile = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, clamped to the data.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let half_min = |from: usize| {
        let half = samples.iter().skip(from).step_by(2);
        half.copied().fold(f64::INFINITY, f64::min)
    };
    Summary {
        min: sorted[0],
        half_mins: [half_min(0), half_min(1)],
        median: quantile(2),
        q1: quantile(1),
        q3: quantile(3),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(summarize(&[7.0]), Summary::exact(7.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert_eq!((s.min, s.half_mins), (1.0, [1.0, 2.0]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // Two samples: both quartiles extrapolate past the data's ends in
        // Python ([0.75, 1.5, 2.25] for [1, 2]); the clamp keeps the same
        // line through the two points.
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }
}
