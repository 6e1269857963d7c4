//! Order statistics over latency samples.

/// Nearest-rank percentile (`p` in `0..=100`) of ascending `sorted`
/// samples; 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly above the nearest-rank percentile's
/// position (the samples that make the percentile meaningful).
pub fn beyond(len: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    len.saturating_sub(rank.max(1))
}

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency samples of one request class, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    samples: Vec<u64>,
}

impl Latencies {
    /// Record one sample.
    pub fn push(&mut self, nanos: u64) {
        self.samples.push(nanos);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// `(p50, p99)` in microseconds, each the median over `slices` equal,
    /// time-ordered slices of the samples: a burst of interference that
    /// hits one slice does not move them.
    pub fn sliced_us(&self, slices: usize) -> (f64, f64) {
        let n = self.samples.len();
        let (p50s, p99s): (Vec<f64>, Vec<f64>) = (0..slices)
            .map(|k| &self.samples[k * n / slices..(k + 1) * n / slices])
            .filter(|slice| !slice.is_empty())
            .map(|slice| {
                let part = Latencies {
                    samples: slice.to_vec(),
                };
                let (p50, p99, _) = part.summary_us();
                (p50, p99)
            })
            .unzip();
        (median(&p50s), median(&p99s))
    }

    /// `(p50, p99, mean)` in microseconds.
    pub fn summary_us(&self) -> (f64, f64, f64) {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let us = |ns: u64| ns as f64 / 1e3;
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().map(|&n| n as f64).sum::<f64>() / sorted.len() as f64 / 1e3
        };
        (
            us(percentile(&sorted, 50.0)),
            us(percentile(&sorted, 99.0)),
            mean,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(beyond(v.len(), 99.0), 10);
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
