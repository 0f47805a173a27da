//! Configuration and counters of the query engine.
//!
//! [`crate::ShardedEngine`] is the crate's one engine; the unsharded layout
//! is simply [`crate::ShardPlan::Span`], one span-wide shard restricted per
//! query (see [`crate::shard`] for why restriction is exact).  This module
//! holds what the engine is configured with and what it reports:
//! [`EngineConfig`], the cache counters in [`CacheStats`], and the
//! aggregate of one batch in [`BatchStats`].

use std::time::Duration;

use crate::ingest::SealPolicy;

/// Tuning knobs of a [`crate::ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Maximum summed [`crate::EdgeCoreSkyline::memory_bytes`] of cached
    /// shard skylines before least-recently-used entries are evicted.  The
    /// entry being inserted is exempt, so one oversized index never
    /// thrashes.
    pub memory_budget_bytes: usize,
    /// Worker threads for [`crate::ShardedEngine::run_batch`]; `0` means
    /// one per available CPU.  The threads live in a persistent
    /// [`crate::ExecPool`] created on the first multi-threaded batch (the
    /// calling thread counts as one of them).  When the engine shares an
    /// externally provided pool instead
    /// ([`crate::ShardedEngine::with_pool`], or any engine created by
    /// `CoreService::start_sharded`/`over_sharded`), that pool's size
    /// governs and this field is ignored.
    pub num_threads: usize,
    /// Maximum number of cached boundary-stitch entries (one entry per
    /// `(shard range, k)` holding the cut-crossing minimal core windows;
    /// see [`crate::shard`]).  `0` disables the stitch cache, restoring the
    /// transient merged-skyline pass that rebuilds per boundary-spanning
    /// query — the better choice when spanning windows are one-off, since a
    /// stitch entry's first build sweeps its shard range's whole merged
    /// window, not just the triggering query's window.
    pub boundary_cache_entries: usize,
    /// When the live tail shard is rolled into a closed shard during
    /// ingest (see [`crate::ShardedEngine::absorb`]).
    pub seal_policy: SealPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            memory_budget_bytes: 256 * 1024 * 1024,
            num_threads: 0,
            boundary_cache_entries: 32,
            seal_policy: SealPolicy::Manual,
        }
    }
}

/// Cache effectiveness counters, readable via
/// [`crate::ShardedEngine::cache_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from an already-resident skyline.
    pub hits: u64,
    /// Queries that had to build a skyline first.
    pub misses: u64,
    /// Skylines evicted to respect the memory budget.
    pub evictions: u64,
    /// Summed memory estimate of the currently resident skylines.
    pub resident_bytes: usize,
    /// Number of currently resident skylines.
    pub resident_indexes: usize,
    /// Per-shard counters, one entry per shard of the engine's plan, in
    /// timeline order (a single entry for [`crate::ShardPlan::Span`]).
    pub per_shard: Vec<ShardCacheStats>,
    /// Counters of the boundary-stitch index cache (zero while the engine
    /// has one shard, since no window crosses a cut; see [`crate::shard`]).
    pub boundary: BoundaryCacheStats,
    /// Tail-shard `(shard, k)` skylines dropped by ingest
    /// ([`crate::ShardedEngine::absorb`]): closed-shard skylines are never
    /// invalidated, so this counts exactly the rebuilds ingest can cause.
    pub tail_invalidations: u64,
    /// Boundary-stitch entries whose shard range touches the live tail
    /// dropped by ingest.
    pub boundary_invalidations: u64,
    /// Times the live tail shard was rolled into a closed shard (see
    /// [`SealPolicy`] and [`crate::ShardedEngine::seal_tail`]).
    pub seals: u64,
    /// Warm-path timing, with wall-clock and summed per-entry build times
    /// reported separately: warms fan missing builds across the pool, so
    /// the summed build time can exceed wall time by the parallelism
    /// factor — summing alone would make a parallel warm look slower than
    /// it is.
    pub warm: WarmStats,
}

/// Timing counters of [`crate::ShardedEngine::warm`], reported in
/// [`CacheStats::warm`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Warm calls observed.
    pub warms: u64,
    /// Skylines actually built by warm calls; already-resident entries
    /// don't count.
    pub entries_built: u64,
    /// Summed per-entry build time across workers.  Exceeds
    /// [`WarmStats::wall_time`] when a warm overlaps builds on the pool —
    /// compare the two to read off the effective build parallelism.
    pub build_time: Duration,
    /// Wall-clock time spent inside warm calls.
    pub wall_time: Duration,
}

/// Counters of the boundary-stitch index cache of a
/// [`crate::ShardedEngine`]: one LRU-cached entry per `(shard range, k)`
/// holding the cut-crossing minimal core windows of that range's merged
/// window, built on the first boundary-spanning query and reused until
/// evicted (see [`EngineConfig::boundary_cache_entries`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryCacheStats {
    /// Stitch entries built (one merged-window sweep each).
    pub builds: u64,
    /// Boundary-spanning queries answered from a cached stitch entry.
    pub hits: u64,
    /// Stitch entries evicted to respect the entry budget.
    pub evictions: u64,
    /// Summed memory estimate of the resident stitch entries.
    pub resident_bytes: usize,
    /// Number of resident stitch entries.
    pub resident_entries: usize,
}

/// Cache counters of one time-interval shard (see [`CacheStats::per_shard`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCacheStats {
    /// Index of the shard in the engine's plan (timeline order).
    pub shard: usize,
    /// Skylines built for this shard (cold misses), over all `k`.
    pub builds: u64,
    /// Queries answered from an already-resident skyline of this shard.
    pub hits: u64,
    /// Summed memory estimate of this shard's resident skylines.
    pub resident_bytes: usize,
    /// Number of this shard's resident skylines (distinct `k` values).
    pub resident_indexes: usize,
}

/// Aggregated outcome of one [`crate::ShardedEngine::run_batch`] call.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Number of queries executed.
    pub num_queries: usize,
    /// Sum of distinct temporal k-cores over all queries.
    pub total_cores: u64,
    /// Sum of result edges (`|R|`) over all queries.
    pub total_result_edges: u64,
    /// Summed per-query precomputation time (cache lookup + any cold build
    /// + restriction).  Summed across workers, so it can exceed wall time.
    pub precompute_time: Duration,
    /// Summed per-query enumeration time.
    pub enumerate_time: Duration,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Cache counters at the end of the batch (cumulative for the engine).
    pub cache: CacheStats,
}

#[cfg(test)]
mod tests {
    // The engine's cache and batch contract on the unsharded layout, a
    // one-shard [`ShardPlan::Span`] engine.
    use super::*;
    use crate::sink::{CollectingSink, CountingSink};
    use crate::{paper_example, Algorithm, EdgeCoreSkyline, TimeRangeKCoreQuery, TkError};
    use crate::{ShardPlan, ShardedEngine};
    use std::sync::Arc;
    use temporal_graph::{TemporalGraph, TemporalGraphBuilder, TimeWindow};

    fn span_engine(g: &TemporalGraph) -> ShardedEngine {
        ShardedEngine::new(g.clone(), ShardPlan::Span).unwrap()
    }

    fn graph() -> TemporalGraph {
        TemporalGraphBuilder::new()
            .with_edges([
                (0u64, 1u64, 1i64),
                (1, 2, 2),
                (0, 2, 3),
                (2, 3, 4),
                (3, 4, 5),
                (2, 4, 6),
                (0, 1, 6),
                (1, 2, 7),
                (0, 2, 7),
            ])
            .build()
            .unwrap()
    }

    fn canonical(mut cores: Vec<crate::TemporalKCore>) -> Vec<crate::TemporalKCore> {
        cores.sort_by(|a, b| a.tti.cmp(&b.tti).then_with(|| a.edges.cmp(&b.edges)));
        cores
    }

    #[test]
    fn cached_answers_match_fresh_for_every_algorithm_and_range() {
        let g = graph();
        let engine = span_engine(&g);
        for k in 1..=3 {
            for range in [
                g.span(),
                TimeWindow::new(2, 6),
                TimeWindow::new(3, 5),
                TimeWindow::new(7, 7),
                TimeWindow::new(1, 200),
            ] {
                let query = TimeRangeKCoreQuery::new(k, range).unwrap();
                for algo in Algorithm::ALL {
                    let mut fresh = CollectingSink::default();
                    query.run_with(&g, algo, &mut fresh);
                    let mut cached = CollectingSink::default();
                    engine.run_with(&query, algo, &mut cached).unwrap();
                    assert_eq!(
                        canonical(cached.cores),
                        canonical(fresh.cores),
                        "k={k} range={range} algo={}",
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn cache_hits_after_first_query_per_k() {
        let g = graph();
        let engine = span_engine(&g);
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 5)).unwrap(),
                &mut sink,
            )
            .unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(3, 6)).unwrap(),
                &mut sink,
            )
            .unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_indexes, 1);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn lru_eviction_respects_budget_and_keeps_newest() {
        let g = graph();
        let one_index_bytes = EdgeCoreSkyline::build(&g, 1, g.span()).memory_bytes();
        let engine = ShardedEngine::with_config(
            g.clone(),
            ShardPlan::Span,
            EngineConfig {
                memory_budget_bytes: one_index_bytes, // room for ~one index
                num_threads: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for k in 1..=3 {
            let mut sink = CountingSink::default();
            engine
                .run(&TimeRangeKCoreQuery::new(k, g.span()).unwrap(), &mut sink)
                .unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 3);
        assert!(stats.evictions >= 1, "evictions: {stats:?}");
        assert!(stats.resident_indexes >= 1);
        // The most recent k must have survived.
        assert!(engine.warm(3), "k=3 evicted despite being newest");
    }

    #[test]
    fn out_of_span_queries_are_refused_with_a_typed_error() {
        let g = graph();
        let engine = span_engine(&g);
        let past_the_end =
            TimeRangeKCoreQuery::new(2, TimeWindow::new(g.tmax() + 1, g.tmax() + 9)).unwrap();
        for algo in Algorithm::ALL {
            let mut sink = CountingSink::default();
            let err = engine.run_with(&past_the_end, algo, &mut sink).unwrap_err();
            assert!(
                matches!(err, TkError::WindowPastTmax { start, tmax }
                    if start == g.tmax() + 1 && tmax == g.tmax()),
                "{}: {err}",
                algo.name()
            );
            assert_eq!(sink.num_cores, 0, "{}", algo.name());
        }
        assert_eq!(
            engine.cache_stats().misses,
            0,
            "no index built for refused queries"
        );
        // A batch containing one bad query fails up front, executing nothing.
        let queries = [
            TimeRangeKCoreQuery::new(2, TimeWindow::new(1, 3)).unwrap(),
            past_the_end,
        ];
        assert!(matches!(
            engine.run_batch(&queries),
            Err(TkError::WindowPastTmax { .. })
        ));
        assert_eq!(engine.cache_stats().misses, 0);
    }

    #[test]
    fn batch_matches_sequential_and_aggregates() {
        let g = paper_example::graph();
        let engine = span_engine(&g);
        let queries: Vec<TimeRangeKCoreQuery> = (1..=g.tmax())
            .flat_map(|s| {
                (s..=g.tmax())
                    .map(move |e| TimeRangeKCoreQuery::new(2, TimeWindow::new(s, e)).unwrap())
            })
            .collect();
        // Pre-warm so the miss counter below is deterministic even when the
        // batch fans across several workers (concurrent cold queries for one
        // k may otherwise each count a miss — the documented build race).
        engine.warm(2);
        let (results, batch) = engine.run_batch(&queries).unwrap();
        assert_eq!(results.len(), queries.len());
        assert_eq!(batch.num_queries, queries.len());
        let mut expected_cores = 0u64;
        for (query, (sink, stats)) in queries.iter().zip(&results) {
            let mut fresh = CountingSink::default();
            query.run_with(&g, Algorithm::Enum, &mut fresh);
            assert_eq!(sink.num_cores, fresh.num_cores, "{}", query.range());
            assert_eq!(sink.total_edges, fresh.total_edges, "{}", query.range());
            assert_eq!(stats.num_cores, sink.num_cores);
            expected_cores += fresh.num_cores;
        }
        assert_eq!(batch.total_cores, expected_cores);
        assert_eq!(
            engine.cache_stats().misses,
            1,
            "one span-wide build serves the whole batch"
        );
        assert!(batch.threads >= 1);
    }

    /// A sink that panics mid-stream: the engine must treat the panic as
    /// contained (exec-pool isolation) and every lock it might have been
    /// near must stay usable afterwards.
    struct ExplodingSink;

    impl crate::sink::ResultSink for ExplodingSink {
        fn emit(&mut self, _tti: TimeWindow, _edges: &[temporal_graph::EdgeId]) {
            panic!("sink exploded mid-stream");
        }
    }

    #[test]
    fn a_panicking_sink_does_not_wedge_later_cache_stats_calls() {
        let g = paper_example::graph();
        let engine = Arc::new(span_engine(&g));
        // Pre-warm so the miss counter below is deterministic: cold batch
        // queries fanned across several workers may each count a miss for
        // the one skyline (the documented build race).
        engine.warm(2);
        let queries = vec![TimeRangeKCoreQuery::new(2, g.span()).unwrap(); 4];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_batch_with(&queries, Algorithm::Enum, |_| ExplodingSink)
        }));
        assert!(panicked.is_err(), "the sink panic reaches the caller");
        // The regression PR 6 guards against: the panic above (or any panic
        // that unwound with a cache guard held) used to poison the cache
        // mutex, and the old `.lock().expect("cache lock")` then took down
        // every later caller.  Stats and fresh queries must still work.
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "the skyline build survived the panic");
        assert_eq!(stats.resident_indexes, 1);
        let mut sink = CountingSink::default();
        engine
            .run(&TimeRangeKCoreQuery::new(2, g.span()).unwrap(), &mut sink)
            .unwrap();
        assert!(sink.num_cores > 0);
    }

    #[test]
    fn a_poisoned_cache_lock_recovers_instead_of_wedging() {
        let g = graph();
        let engine = span_engine(&g);
        engine.warm(2);
        engine.poison_cache_lock();
        // Every later caller recovers the guard instead of propagating.
        assert_eq!(engine.cache_stats().resident_indexes, 1);
        assert!(engine.warm(2), "cached skyline still resident");
        let mut sink = CountingSink::default();
        engine
            .run(&TimeRangeKCoreQuery::new(2, g.span()).unwrap(), &mut sink)
            .unwrap();
        assert!(sink.num_cores > 0);
    }

    #[test]
    fn batch_with_custom_sinks_and_threads() {
        let g = paper_example::graph();
        let engine = ShardedEngine::with_config(
            g.clone(),
            ShardPlan::Span,
            EngineConfig {
                num_threads: 3,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let queries = vec![TimeRangeKCoreQuery::new(2, g.span()).unwrap(); 7];
        let (results, batch) = engine
            .run_batch_with(&queries, Algorithm::Enum, |i| {
                let mut sink = CollectingSink::default();
                sink.cores.reserve(i); // exercise the index argument
                sink
            })
            .unwrap();
        assert_eq!(batch.threads, 3);
        let first = canonical(results[0].0.cores.clone());
        for (sink, _) in &results {
            assert_eq!(canonical(sink.cores.clone()), first);
        }
    }
}
