//! Order statistics over a handful of repetitions, and the three-way
//! comparison of two such samples against a regression bound.

/// Five-number digest of one metric over the reps of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), so the harness and whoever re-checks it from
/// the printed numbers agree to the last digit. With one value, all five
/// numbers are that value; with none, `None`.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let m = v.len();
    let (&min, &max) = (v.first()?, v.last()?);
    if m == 1 {
        return Some(Summary { n: 1, min, q1: min, median: min, q3: min, max });
    }
    let quantile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary { n: m, min, q1: quantile(1), median: quantile(2), q3: quantile(3), max })
}

/// How two samples of one metric compare against its bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound.
    Agree,
    /// Medians beyond the bound, but the interquartile ranges overlap: the
    /// spread is too wide to call it either way.
    Unresolved,
    /// Medians beyond the bound and the interquartile ranges are disjoint.
    Disagree,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Unresolved => "unresolved",
            Verdict::Disagree => "DISAGREE",
        }
    }
}

/// Compare two samples of one metric by their medians. `bound` is relative
/// to `a`'s; `floor` is an absolute difference below which the two always
/// agree (a 1 ms set-up time cannot be held to 25%).
pub fn verdict(a: &Summary, b: &Summary, bound: f64, floor: f64) -> Verdict {
    let allowed = (bound * a.median.abs()).max(floor);
    if (b.median - a.median).abs() <= allowed {
        Verdict::Agree
    } else if a.q1 <= b.q3 && b.q1 <= a.q3 {
        Verdict::Unresolved
    } else {
        Verdict::Disagree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // 15 reps, the harness's usual count:
        // statistics.quantiles(range(15), n=4) == [3.0, 7.0, 11.0]
        let v: Vec<f64> = (0..15).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (3.0, 7.0, 11.0));
    }

    #[test]
    fn one_value_and_no_values() {
        let s = summarize(&[4.5]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.rel_iqr()), (4.5, 4.5, 4.5, 0.0));
        assert!(summarize(&[]).is_none());
    }

    fn around(median: f64, half_iqr: f64) -> Summary {
        Summary {
            n: 15,
            min: median - 2.0 * half_iqr,
            q1: median - half_iqr,
            median,
            q3: median + half_iqr,
            max: median + 2.0 * half_iqr,
        }
    }

    #[test]
    fn verdict_separates_agree_unresolved_disagree() {
        let medians = |a: &Summary, b: &Summary| verdict(a, b, 0.10, 0.0);
        let a = around(1.00, 0.04);
        assert_eq!(medians(&a, &around(1.08, 0.04)), Verdict::Agree);
        // 15% apart, but each IQR reaches into the other: too noisy to call.
        assert_eq!(medians(&a, &around(1.15, 0.12)), Verdict::Unresolved);
        // 15% apart with tight, disjoint IQRs: a real difference.
        assert_eq!(medians(&a, &around(1.15, 0.02)), Verdict::Disagree);
        // The comparison is symmetric in direction.
        assert_eq!(medians(&a, &around(0.85, 0.02)), Verdict::Disagree);
    }

    #[test]
    fn absolute_floor_overrides_a_tiny_relative_bound() {
        let a = around(0.003, 0.0001);
        let b = around(0.006, 0.0001);
        assert_eq!(verdict(&a, &b, 0.20, 0.0), Verdict::Disagree);
        assert_eq!(verdict(&a, &b, 0.20, 0.010), Verdict::Agree);
    }
}
