//! Summary statistics the benchmark reports: medians, quartiles, the tail
//! percentile a sample supports, span self time, and safe ratios.

/// A tail percentile must leave at least this many samples above it.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count). Panics on an
/// empty sample: every metric is computed from a fixed, non-zero count.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method). A
/// single sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let s = sorted(v);
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(v: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(v);
    ratio(q3 - q1, med)
}

/// The highest whole percentile that leaves at least [`TAIL_MIN_BEYOND`]
/// samples strictly above its nearest-rank position, with the value there.
/// `None` when the sample is too small to support any tail.
pub fn tail(v: &[f64]) -> Option<(u32, f64)> {
    let n = v.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let p = (100 * (n - TAIL_MIN_BEYOND) / n) as u32;
    // Nearest rank (1-based): ceil(p/100 * n), at least 1.
    let rank = ((p as usize * n).div_ceil(100)).max(1);
    Some((p, sorted(v)[rank - 1]))
}

/// Rounds of `per_round` samples needed before [`tail`] has a value.
pub fn rounds_for_tail(per_round: usize) -> usize {
    TAIL_MIN_BEYOND / per_round.max(1) + 1
}

/// `num / den`, or 0 when the denominator is 0: a per-unit cost with no
/// units is reported as nothing rather than as NaN or infinity.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Total length covered by a set of half-open `[start, end)` intervals.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (children are clipped to the parent's interval, and
/// overlapping children count once).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let clipped: Vec<(u64, u64)> = children.iter().map(|&(s, e)| (s.max(ps), e.min(pe))).collect();
    (pe - ps).saturating_sub(union_len(&clipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in 11..3000usize {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, value) = tail(&v).expect("tail exists above ten samples");
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p}: only {beyond} beyond");
            // The next whole percentile would leave fewer than ten.
            if p < 99 {
                let rank = (((p as usize + 1) * n).div_ceil(100)).max(1);
                assert!(n - rank < TAIL_MIN_BEYOND, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn tail_examples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99, 990.0)));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75, 30.0)));
        assert_eq!(tail(&[1.0; 10]), None);
        // Order of the input does not matter.
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        v.swap(3, 70);
        assert_eq!(tail(&v), Some((90, 90.0)));
    }

    #[test]
    fn rounds_for_tail_give_a_tail() {
        for per_round in 1..40 {
            let n = per_round * rounds_for_tail(per_round);
            assert!(tail(&vec![1.0; n]).is_some(), "{per_round} per round");
            let fewer = per_round * (rounds_for_tail(per_round) - 1);
            assert!(tail(&vec![1.0; fewer]).is_none(), "{per_round} per round");
        }
    }

    #[test]
    fn ratio_with_zero_denominator_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert!(ratio(1.0, -0.0).is_finite());
    }

    #[test]
    fn union_merges_overlaps_and_ignores_empty() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25), (25, 30), (7, 7)]), 25);
        assert_eq!(union_len(&[(3, 4), (0, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Parent [0, 100); children overlap each other and spill past the
        // parent's end.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40), (90, 120)]), 100 - 30 - 10);
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((50, 60), &[(0, 100)]), 0);
        assert_eq!(self_time((50, 60), &[(0, 10), (70, 80)]), 10);
    }
}
