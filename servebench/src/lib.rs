//! `servebench`: the end-to-end serving benchmark of the temporal k-core
//! stack.
//!
//! The binary (`src/main.rs`) starts an in-process `TkServer` the way
//! `tkc serve --shards 4 --workers 2` does, drives it over loopback with at
//! most two client threads and two connections, checks every reply against
//! an unsharded reference, and prints one JSON result line.  With
//! `--trace 1` it also replays each workload's inputs through the public
//! functions of every layer and reports per-layer metrics.
//!
//! The library half holds the pieces that are worth testing on their own:
//! the percentile rule ([`quantile`]), the reply field parser ([`reply`])
//! and the span / self-time arithmetic ([`trace`]), plus input generation
//! ([`workload`]), the load generator ([`loadgen`]) and the layer replays
//! ([`layers`]).

#![forbid(unsafe_code)]

pub mod layers;
pub mod loadgen;
pub mod reply;
pub mod trace;
pub mod workload;

/// The percentile rule every reported quantile uses.
pub mod quantile {
    /// Nearest-rank quantile of `samples` (any order): the smallest sample
    /// such that at least `q` of all samples are at or below it, i.e. the
    /// sample of 1-based rank `ceil(q * n)` in sorted order.  `None` when
    /// there are no samples; `q` is clamped to `[0, 1]`, and `q = 0` gives
    /// the minimum.
    pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, n) - 1])
    }

    /// [`nearest_rank`], reporting `0` for an empty sample set (a workload
    /// that never exercises a layer path, e.g. spanning queries on a
    /// workload whose windows all lie inside one shard).
    pub fn or_zero(samples: &[f64], q: f64) -> f64 {
        nearest_rank(samples, q).unwrap_or(0.0)
    }

    /// Equal slices of a run that [`sliced`] takes a quantile of: five,
    /// so a 30 s run of the read workloads (about 1,350 requests) gives
    /// each slice about 270 samples and its p95 over ten samples above it.
    pub const SLICES: usize = 5;

    /// The median over [`SLICES`] equal slices of a run of each slice's
    /// nearest-rank `q` quantile.  `samples` are `(position, value)` with
    /// the position in `[0, 1)` along the run; a host hiccup that slows
    /// one slice then moves the result by at most the gap to a neighbouring
    /// slice's quantile.  `0` when there are no samples.
    pub fn sliced(samples: &[(f64, f64)], q: f64) -> f64 {
        let mut per_slice = vec![Vec::new(); SLICES];
        for &(pos, value) in samples {
            let slice = ((pos * SLICES as f64) as usize).min(SLICES - 1);
            per_slice[slice].push(value);
        }
        let quantiles: Vec<f64> = per_slice
            .iter()
            .filter_map(|values| nearest_rank(values, q))
            .collect();
        or_zero(&quantiles, 0.5)
    }

    /// `num / den`, or `0` when nothing was counted.
    pub fn ratio(num: f64, den: f64) -> f64 {
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

/// A small deterministic generator (SplitMix64) so that one `--seed` gives
/// the same inputs on every machine and every build.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5e17_be9c_4a7d_0b31)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `lo..=hi` (`lo` when the range is empty).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.next_u64() % (hi - lo + 1)
        }
    }
}

/// One named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Renders the result line the benchmark prints last on stdout:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
/// Non-finite values (which JSON cannot carry) are written as `0`.
pub fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}
