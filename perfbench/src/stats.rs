//! Summary statistics over latency and throughput samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, `100 × (n − beyond) / n`.
    pub percentile: f64,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Pick the tail of `values`: the `(TAIL_BEYOND + 1)`-th largest sample,
/// so exactly `TAIL_BEYOND` samples lie beyond it. With `TAIL_BEYOND`
/// samples or fewer it is the maximum, with none beyond. `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let beyond = if n > TAIL_BEYOND { TAIL_BEYOND } else { 0 };
    Some(Tail {
        value: sorted[n - 1 - beyond],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        beyond,
        samples: n,
    })
}

/// Share of notebook responses the server answered from its response
/// cache, counted from the `X-Atena-Cache` header of each response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitShare {
    /// Responses marked `hit`.
    pub hits: u64,
    /// Notebook responses seen (hits, misses and any without the header).
    pub requests: u64,
}

impl HitShare {
    /// Count one notebook response by its `X-Atena-Cache` header value.
    pub fn record(&mut self, cache_header: Option<&str>) {
        self.requests += 1;
        if cache_header.is_some_and(|v| v.trim().eq_ignore_ascii_case("hit")) {
            self.hits += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: HitShare) {
        self.hits += other.hits;
        self.requests += other.requests;
    }

    /// Hits over requests (0 when nothing was counted).
    pub fn share(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
        assert_eq!(t.value, 990.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
        assert!((t.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn tail_percentile_follows_sample_count() {
        let values: Vec<f64> = (0..40).map(f64::from).rev().collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (29.0, 10, 40));
        assert!((t.percentile - 75.0).abs() < 1e-9);
        // Exactly one sample more than the margin: the minimum, with all
        // the others beyond it.
        let t = tail(&values[..11]).unwrap();
        assert_eq!((t.value, t.beyond), (29.0, 10));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (9.0, 0, 3));
        assert_eq!(t.percentile, 100.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn hit_share_counts_only_hit_headers() {
        let mut a = HitShare::default();
        for header in [Some("hit"), Some("miss"), None, Some(" HIT ")] {
            a.record(header);
        }
        assert_eq!(
            a,
            HitShare {
                hits: 2,
                requests: 4
            }
        );
        let mut b = HitShare::default();
        b.record(Some("hit"));
        a.merge(b);
        assert_eq!((a.hits, a.requests), (3, 5));
        assert!((a.share() - 0.6).abs() < 1e-12);
        assert_eq!(HitShare::default().share(), 0.0);
    }
}
