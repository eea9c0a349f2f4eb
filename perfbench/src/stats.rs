//! Summary statistics: nearest-rank percentiles with their sample
//! counts, and differences of the server's `GET /stats` counters.

use prov_server::Json;

/// A latency summary in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Mean.
    pub mean: f64,
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of ascending `sorted`:
/// the smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarizes latencies given in nanoseconds; `None` without samples.
pub fn summarize(nanos: &[u64]) -> Option<Summary> {
    if nanos.is_empty() {
        return None;
    }
    let mut us: Vec<f64> = nanos.iter().map(|&n| n as f64 / 1000.0).collect();
    us.sort_by(f64::total_cmp);
    Some(Summary {
        count: us.len(),
        p50: percentile(&us, 0.50),
        p99: percentile(&us, 0.99),
        mean: us.iter().sum::<f64>() / us.len() as f64,
    })
}

/// Samples per block of [`summarize_blocks`].
pub const BLOCK_SAMPLES: usize = 1000;

/// Summarizes latencies (ns) given with their completion times (ns),
/// block-wise: the samples, in completion order, are cut into
/// consecutive blocks of at least [`BLOCK_SAMPLES`], and the p50 and p99
/// reported are the medians of the blocks' own p50 and p99. A burst of
/// interference from outside the benchmark then moves one block, not the
/// result. The mean and count cover every sample.
pub fn summarize_blocks(ends: &[u64], nanos: &[u64]) -> Option<Summary> {
    let all = summarize(nanos)?;
    let mut order: Vec<usize> = (0..nanos.len()).collect();
    order.sort_by_key(|&i| ends[i]);
    let blocks = (nanos.len() / BLOCK_SAMPLES).max(1);
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for b in 0..blocks {
        let (lo, hi) = (b * nanos.len() / blocks, (b + 1) * nanos.len() / blocks);
        let block: Vec<u64> = order[lo..hi].iter().map(|&i| nanos[i]).collect();
        let s = summarize(&block).expect("blocks are non-empty");
        p50s.push(s.p50);
        p99s.push(s.p99);
    }
    Some(Summary {
        p50: median(&p50s),
        p99: median(&p99s),
        ..all
    })
}

/// Completions per second, block-wise: the completion times are cut
/// into consecutive blocks of at least [`BLOCK_SAMPLES`] completions, each
/// block's rate is its completions over the time since the previous
/// block ended, and the median rate is reported (the plain rate over the
/// window when there are fewer than two blocks).
pub fn rate_per_second(ends: &[u64], window_s: f64) -> f64 {
    let mut sorted = ends.to_vec();
    sorted.sort_unstable();
    let blocks = sorted.len() / BLOCK_SAMPLES;
    if blocks < 2 {
        return sorted.len() as f64 / window_s;
    }
    let mut rates = Vec::with_capacity(blocks);
    let mut start = 0u64;
    for b in 0..blocks {
        let (lo, hi) = (b * sorted.len() / blocks, (b + 1) * sorted.len() / blocks);
        let end = sorted[hi - 1];
        rates.push((hi - lo) as f64 / ((end - start).max(1) as f64 / 1e9));
        start = end;
    }
    median(&rates)
}

/// Completions in each whole second of the window.
pub fn per_second(ends: &[u64], window_s: f64) -> Vec<f64> {
    let mut counts = vec![0.0; window_s.floor() as usize];
    for &e in ends {
        if let Some(slot) = counts.get_mut((e / 1_000_000_000) as usize) {
            *slot += 1.0;
        }
    }
    counts
}

/// The median of `values` (upper median for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// A numeric field of a `/stats` object by path (`["cache", "hits"]`).
pub fn field(stats: &Json, path: &[&str]) -> f64 {
    let mut node = stats;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0.0,
        }
    }
    match node {
        Json::Num(n) => *n,
        _ => 0.0,
    }
}

/// `after - before` of a `/stats` counter.
pub fn delta(before: &Json, after: &Json, path: &[&str]) -> f64 {
    field(after, path) - field(before, path)
}

/// The mean handler time (µs) of `endpoint` over the window between two
/// `/stats` reads; 0 when the endpoint served nothing.
pub fn handler_mean_us(before: &Json, after: &Json, endpoint: &str) -> f64 {
    let requests = delta(before, after, &["endpoints", endpoint, "requests"]);
    if requests == 0.0 {
        return 0.0;
    }
    delta(before, after, &["endpoints", endpoint, "total_micros"]) / requests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_counts() {
        let ns: Vec<u64> = (1..=1000).rev().map(|i| i * 1000).collect();
        let s = summarize(&ns).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert!((s.mean - 500.5).abs() < 1e-9);
        let one = summarize(&[7000]).unwrap();
        assert_eq!((one.count, one.p50, one.p99), (1, 7.0, 7.0));
        assert_eq!(summarize(&[]), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn block_summaries_resist_a_burst() {
        // 4000 samples of 100 µs, with one block-long burst at 10 ms.
        let ns: Vec<u64> = (0..4000)
            .map(|i| {
                if (1000..2000).contains(&i) {
                    10_000_000
                } else {
                    100_000
                }
            })
            .collect();
        let ends: Vec<u64> = (0..4000).collect();
        let s = summarize_blocks(&ends, &ns).unwrap();
        assert_eq!((s.count, s.p50, s.p99), (4000, 100.0, 100.0));
        assert_eq!(summarize(&ns).unwrap().p99, 10_000.0);
        // Completion order decides the blocks, not the input order.
        let reversed: Vec<u64> = ends.iter().rev().copied().collect();
        let rev_ns: Vec<u64> = ns.iter().rev().copied().collect();
        assert_eq!(summarize_blocks(&reversed, &rev_ns), Some(s));
    }

    #[test]
    fn rates_per_second() {
        // 1000 completions per second for 4 s, then a stalled second.
        let mut ends: Vec<u64> = (1..=4000).map(|i| i * 1_000_000).collect();
        ends.extend((1..=100).map(|i| 4_000_000_000 + i * 10_000_000));
        assert!((rate_per_second(&ends, 5.0) - 1000.0).abs() < 1e-6);
        assert_eq!(rate_per_second(&ends[..5], 1.0), 5.0);
        assert_eq!(
            per_second(&ends, 5.0),
            vec![999.0, 1000.0, 1000.0, 1000.0, 100.0]
        );
    }

    #[test]
    fn stats_deltas() {
        let before = Json::parse(
            r#"{"cache":{"hits":3},"endpoints":{"eval":{"requests":2,"total_micros":50}}}"#,
        )
        .unwrap();
        let after = Json::parse(
            r#"{"cache":{"hits":10},"endpoints":{"eval":{"requests":6,"total_micros":250}}}"#,
        )
        .unwrap();
        assert_eq!(delta(&before, &after, &["cache", "hits"]), 7.0);
        assert_eq!(delta(&before, &after, &["cache", "nope"]), 0.0);
        assert_eq!(handler_mean_us(&before, &after, "eval"), 50.0);
        assert_eq!(handler_mean_us(&before, &after, "mutate"), 0.0);
    }
}
