//! Order statistics and the regression verdict the benchmark's bounds are
//! applied with.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the acceptance driver computes the
//! run-to-run spread with; using another interpolation here would make
//! `--compare` disagree with it at small sample counts.

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)` gives
/// them. With fewer than two values both equal the single value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The distance between the quartiles as a share of the median — the
/// run-to-run spread a bound is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid.abs()
}

/// By what share of `parent` the `change` value is *worse*, in the metric's
/// own direction (negative when it is better).
pub fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (change - parent) / parent.abs(),
        Better::Higher => (parent - change) / parent.abs(),
    }
}

/// The outcome of comparing one workload × metric pair across two result
/// sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side disagree among themselves by more than the
    /// bound, so neither "unchanged" nor "regressed" can be stated.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the `change` runs against the `parent` runs of one metric.
///
/// A spread wider than the bound on either side makes the pair unresolved,
/// unless every run of the change reads better than every run of the parent.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(parent).max(spread(change)) > bound {
        let all_better = parent
            .iter()
            .all(|p| change.iter().all(|c| worsening(*p, *c, better) < 0.0));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(median(parent), median(change), better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(10.0, 11.0, Better::Lower), 0.1);
        assert_eq!(worsening(10.0, 11.0, Better::Higher), -0.1);
        assert_eq!(worsening(10.0, 9.0, Better::Higher), 0.1);
    }

    #[test]
    fn verdict_applies_the_bound_to_the_medians() {
        let parent = [1.00, 1.01, 0.99, 1.00, 1.00];
        let same = [1.02, 1.03, 1.02, 1.01, 1.02];
        let slower = [1.10, 1.11, 1.09, 1.10, 1.10];
        assert_eq!(verdict(&parent, &same, Better::Lower, 0.08), Verdict::Ok);
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.08),
            Verdict::Regressed
        );
        // The same move in the good direction is no regression.
        assert_eq!(verdict(&slower, &parent, Better::Lower, 0.08), Verdict::Ok);
        // An exact metric under a zero-width spread regresses on any move.
        assert_eq!(
            verdict(&[15.0; 3], &[14.9; 3], Better::Higher, 0.001),
            Verdict::Regressed
        );
    }

    #[test]
    fn verdict_is_unresolved_when_the_spread_exceeds_the_bound() {
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        let other = [1.0, 1.1, 0.9, 1.0, 1.0];
        assert_eq!(
            verdict(&noisy, &other, Better::Lower, 0.08),
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the parent.
        let faster = [0.5, 0.6, 0.4, 0.55, 0.5];
        assert_eq!(verdict(&noisy, &faster, Better::Lower, 0.08), Verdict::Ok);
    }
}
