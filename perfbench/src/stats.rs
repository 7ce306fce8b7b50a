//! Order statistics over host-time samples.

/// A nearest-rank percentile together with the number of samples it was
/// taken over, so a report can never show a p95 without its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub count: usize,
}

/// Nearest-rank percentile: the smallest sample such that at least `q` of
/// all samples are less than or equal to it (rank `ceil(q * n)`, clamped
/// to `1..=n`). An empty sample set gives value 0 with count 0.
pub fn nearest_rank(samples: &[f64], q: f64) -> Percentile {
    let n = samples.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            count: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1],
        count: n,
    }
}

/// Median by nearest rank (the lower middle sample for even counts).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).value
}

/// Mean of the samples left after dropping `floor(trim * n)` of the lowest
/// and as many of the highest (`trim` below one half). An empty sample set
/// gives 0.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = (trim * sorted.len() as f64) as usize;
    let mid = &sorted[k..sorted.len() - k];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reports_sample_count() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            nearest_rank(&s, 0.5),
            Percentile {
                value: 10.0,
                count: 20
            }
        );
        assert_eq!(
            nearest_rank(&s, 0.95),
            Percentile {
                value: 19.0,
                count: 20
            }
        );
        assert_eq!(nearest_rank(&s, 1.0).value, 20.0);
        assert_eq!(nearest_rank(&s, 0.0).value, 1.0);
    }

    #[test]
    fn nearest_rank_is_order_independent_and_handles_edges() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(nearest_rank(&s, 0.5).value, 3.0);
        assert_eq!(nearest_rank(&s, 0.95).value, 5.0);
        assert_eq!(
            nearest_rank(&[7.5], 0.95),
            Percentile {
                value: 7.5,
                count: 1
            }
        );
        assert_eq!(
            nearest_rank(&[], 0.5),
            Percentile {
                value: 0.0,
                count: 0
            }
        );
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn trimmed_mean_drops_the_outer_tenths() {
        // 10 samples, trim 0.1: the lowest and the highest one are dropped.
        let s = [9.0, 1000.0, 2.0, 4.0, 6.0, 3.0, 5.0, 8.0, 7.0, -50.0];
        assert_eq!(
            trimmed_mean(&s, 0.1),
            (2.0 + 3.0 + 4.0 + 5.0 + 6.0 + 7.0 + 8.0 + 9.0) / 8.0
        );
        // Too few samples to trim: the plain mean.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0], 0.1), 3.0);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }
}
