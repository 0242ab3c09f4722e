//! Order statistics with the benchmark's reporting rule: a median, plus
//! the highest tail percentile that still has ten samples beyond it.

/// Tail percentiles the rule chooses from, highest first.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];
/// Samples a reported tail must have beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `pct` percentile's position.
fn beyond(n: usize, pct: f64) -> usize {
    n - ((pct / 100.0) * n as f64).ceil() as usize
}

/// Median of `samples` (nearest rank); `0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), 50.0)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A reported tail: which percentile, its value and the sample count it
/// was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it; `None` when even the median has fewer than ten beyond.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    TAIL_LADDER
        .iter()
        .find(|&&pct| beyond(s.len(), pct) >= TAIL_MIN_BEYOND)
        .map(|&pct| Tail {
            pct,
            value: percentile(&s, pct),
            samples: s.len(),
        })
}

/// Samples per chunk in [`chunked_tail`]: the fewest that leave ten
/// beyond p90.
pub const CHUNK: usize = 100;

/// The tail of `samples` (in arrival order) that a run reports: each
/// consecutive chunk of [`CHUNK`] samples gets its [`tail`] (p90), and
/// the median over the chunks is returned with the chunk count. A stall
/// that hits one chunk moves one chunk's tail, not the run's; a partial
/// last chunk is left out. `None` below one full chunk.
pub fn chunked_tail(samples: &[f64]) -> Option<(Tail, usize)> {
    let tails: Vec<Tail> = samples.chunks_exact(CHUNK).filter_map(tail).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let first = *tails.first()?;
    Some((
        Tail {
            value: median(&values),
            ..first
        },
        tails.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 sits at rank 990, ten beyond it.
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples leave only nine beyond p99, so p90 is reported.
        let t = tail(&ramp(999)).expect("tail");
        assert_eq!((t.pct, t.samples), (90.0, 999));
        assert_eq!(t.value, 900.0);
        // 100 samples: p90 has exactly ten beyond.
        assert_eq!(tail(&ramp(100)).map(|t| t.pct), Some(90.0));
        assert_eq!(tail(&ramp(99)).map(|t| t.pct), Some(50.0));
        // 20 samples: the median has ten beyond; 19 has nothing to report.
        assert_eq!(
            tail(&ramp(20)).map(|t| (t.pct, t.value)),
            Some((50.0, 10.0))
        );
        assert_eq!(tail(&ramp(19)), None);
        // Order of arrival does not matter.
        let mut shuffled = ramp(1000);
        shuffled.reverse();
        assert_eq!(tail(&shuffled).map(|t| t.value), Some(990.0));
    }

    #[test]
    fn chunked_tail_is_the_median_of_chunk_p90s() {
        // Three chunks whose p90s are 90, 190 and 10_000 (a stalled
        // chunk): the median ignores the stall.
        let mut v: Vec<f64> = ramp(200);
        v.extend((1..=100).map(|i| if i > 85 { 10_000.0 } else { i as f64 }));
        v.extend([1.0; 99]);
        let (t, chunks) = chunked_tail(&v).expect("tail");
        assert_eq!((t.pct, t.samples, chunks), (90.0, CHUNK, 3));
        assert_eq!(t.value, 190.0);
        assert_eq!(chunked_tail(&ramp(CHUNK - 1)), None);
    }
}
