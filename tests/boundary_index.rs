//! Correctness harness for the boundary-stitch index: boundary-spanning
//! queries answered by composing cached cut-crossing windows with the
//! restricted per-shard skylines must equal fresh, uncached per-query
//! execution — over random graphs, random shard plans, random windows and
//! all four algorithms.

use proptest::prelude::*;
use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::paper_example;

/// Strategy: a random temporal graph with up to `max_v` vertices, up to
/// `max_e` edges and up to `max_t` distinct timestamps.
fn arb_graph(max_v: u64, max_e: usize, max_t: i64) -> impl Strategy<Value = TemporalGraph> {
    prop::collection::vec((0..max_v, 0..max_v, 1..=max_t), 1..max_e).prop_filter_map(
        "graph must have at least one non-loop edge",
        |edges| {
            let edges: Vec<(u64, u64, i64)> =
                edges.into_iter().filter(|(u, v, _)| u != v).collect();
            if edges.is_empty() {
                return None;
            }
            TemporalGraphBuilder::new().with_edges(edges).build().ok()
        },
    )
}

fn canonical(mut cores: Vec<TemporalKCore>) -> Vec<TemporalKCore> {
    cores.sort_by(|a, b| a.tti.cmp(&b.tti).then_with(|| a.edges.cmp(&b.edges)));
    cores
}

/// Derives a shard plan from two random parameters, biased toward layouts
/// with many cuts so spanning windows actually exercise the stitch index.
fn plan_for(kind: u8, param: usize, tmax: Timestamp) -> ShardPlan {
    match kind % 4 {
        0 => ShardPlan::FixedCount(2 + param % 5),
        1 => ShardPlan::FixedCount(tmax as usize), // one shard per timestamp
        2 => ShardPlan::TargetEdgesPerShard(1 + param % 5),
        _ => {
            let mid = tmax / 2;
            if mid >= 1 && mid < tmax {
                ShardPlan::ExplicitCuts(vec![mid])
            } else {
                ShardPlan::ExplicitCuts(vec![])
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random graphs, plans and windows, the stitched boundary path
    /// (cached cut-crossing windows composed with restricted shard
    /// skylines) equals fresh per-query execution, for every algorithm —
    /// and repeating each query answers from the cache without growing the
    /// build counters.
    #[test]
    fn stitched_equals_unsharded(
        g in arb_graph(10, 40, 8),
        k in 1usize..4,
        (kind, param) in (0u8..4, 0usize..16),
        (raw_start, raw_len) in (1u32..=8, 0u32..8),
    ) {
        let plan = plan_for(kind, param, g.tmax());
        let stitched =
            ShardedEngine::new(g.clone(), plan.clone()).expect("derived plans are valid");

        let start = raw_start.min(g.tmax());
        let random = TimeWindow::new(start, (start + raw_len).min(g.tmax()));
        let mut windows = vec![g.span()];
        if random != g.span() {
            windows.push(random);
        }

        for window in windows {
            let query = TimeRangeKCoreQuery::new(k, window).expect("k >= 1");
            for algo in Algorithm::ALL {
                let mut expected = CollectingSink::default();
                algo.execute(&g, k, window, &mut expected)
                    .expect("window is inside the span");
                let mut via_stitch = CollectingSink::default();
                stitched.run_with(&query, algo, &mut via_stitch)
                    .expect("window is inside the span");
                prop_assert_eq!(
                    canonical(via_stitch.cores),
                    canonical(expected.cores),
                    "stitched: {:?} k={} window={} algo={}",
                    plan, k, window, algo
                );
            }
        }

        // Replaying the same windows must be pure cache reuse: identical
        // answers, no additional stitch builds.
        let builds_after_first_pass = stitched.cache_stats().boundary.builds;
        let query = TimeRangeKCoreQuery::new(k, g.span()).expect("k >= 1");
        let mut replay = CollectingSink::default();
        stitched.run(&query, &mut replay).expect("span query is valid");
        let stats = stitched.cache_stats();
        prop_assert_eq!(
            stats.boundary.builds, builds_after_first_pass,
            "warm replay must not rebuild stitch entries: {:?}", stats.boundary
        );
    }
}

/// Deterministic fixture: paper-example graph (`tmax = 7`) cut after
/// timestamps 2 and 4, giving shards `[1,2] [3,4] [5,7]`.
fn fixture() -> (TemporalGraph, ShardedEngine) {
    let g = paper_example::graph();
    let engine = ShardedEngine::new(g.clone(), ShardPlan::ExplicitCuts(vec![2, 4]))
        .expect("cuts are inside the span");
    (g, engine)
}

#[test]
fn adjacent_pair_entries_are_keyed_per_shard_range() {
    let (_, engine) = fixture();
    let mut sink = CountingSink::default();
    // Spans the first cut only: entry (0, 1, k).
    engine
        .run(
            &TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 3)).unwrap(),
            &mut sink,
        )
        .unwrap();
    // Spans the second cut only: entry (1, 2, k).
    engine
        .run(
            &TimeRangeKCoreQuery::new(2, TimeWindow::new(4, 5)).unwrap(),
            &mut sink,
        )
        .unwrap();
    // Spans both cuts: entry (0, 2, k).
    engine
        .run(
            &TimeRangeKCoreQuery::new(2, TimeWindow::new(1, 7)).unwrap(),
            &mut sink,
        )
        .unwrap();
    let stats = engine.cache_stats();
    assert_eq!(stats.boundary.builds, 3, "{:?}", stats.boundary);
    assert_eq!(stats.boundary.resident_entries, 3, "{:?}", stats.boundary);
    // Each range reuses its own entry on repetition.
    engine
        .run(
            &TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 3)).unwrap(),
            &mut sink,
        )
        .unwrap();
    let stats = engine.cache_stats();
    assert_eq!(stats.boundary.builds, 3, "{:?}", stats.boundary);
    assert_eq!(stats.boundary.hits, 1, "{:?}", stats.boundary);
}

#[test]
fn stitch_entries_are_smaller_than_the_merged_skyline() {
    // The stitch entry stores only cut-crossing windows, so it must be no
    // larger than the merged-window skyline it was filtered from.
    let (g, engine) = fixture();
    let mut sink = CountingSink::default();
    engine
        .run(&TimeRangeKCoreQuery::new(2, g.span()).unwrap(), &mut sink)
        .unwrap();
    let merged = EdgeCoreSkyline::build(&g, 2, g.span());
    let stats = engine.cache_stats();
    assert!(stats.boundary.resident_bytes <= merged.memory_bytes());
    assert!(stats.boundary.resident_bytes > 0, "{:?}", stats.boundary);
}

#[test]
fn warm_spanning_queries_skip_the_merged_sweep_entirely() {
    // After warming shards and the stitch entry, a spanning query touches
    // only caches: shard hits grow, builds and stitch builds do not.
    let (_, engine) = fixture();
    let query = TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 6)).unwrap();
    let mut sink = CountingSink::default();
    engine.run(&query, &mut sink).unwrap();
    let cold = engine.cache_stats();
    let mut sink = CountingSink::default();
    engine.run(&query, &mut sink).unwrap();
    let warm = engine.cache_stats();
    assert_eq!(warm.boundary.builds, cold.boundary.builds);
    assert_eq!(warm.boundary.hits, cold.boundary.hits + 1);
    let cold_builds: u64 = cold.per_shard.iter().map(|s| s.builds).sum();
    let warm_builds: u64 = warm.per_shard.iter().map(|s| s.builds).sum();
    assert_eq!(warm_builds, cold_builds, "no shard rebuilt on the warm run");
    assert!(warm.hits > cold.hits, "shard skylines answered from cache");
}
