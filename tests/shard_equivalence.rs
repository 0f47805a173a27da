//! The cross-shard correctness harness: a time-interval `ShardedEngine`
//! must be indistinguishable from fresh, uncached per-query execution (the
//! `Algorithm` backends) on every query, for every shard plan.
//!
//! Two layers of evidence:
//!
//! * `sharded_matches_unsharded` — the property test of the sharding PR:
//!   random graphs, random shard plans (including the degenerate one-shard
//!   and one-shard-per-timestamp layouts), all four algorithms and the
//!   `Algorithm`/`ShardedBackend` pair; every `(k, window)` query must
//!   return identical cores and counts through both paths.  Spanning
//!   windows are answered from the stitched skyline of the window, so the
//!   property also proves the boundary stitch exact (the dedicated
//!   `boundary_index` harness additionally checks stitch-entry reuse);
//! * `affine_service_matches_unsharded` — the same equivalence through a
//!   shard-affinity multi-worker `CoreService` (per-shard lanes, stealing),
//!   proving the scheduler never changes answers;
//! * boundary regression tests on the paper's running example: windows that
//!   exactly coincide with a shard cut, span one cut, span every cut, and
//!   start past `tmax` (which must stay a typed `WindowPastTmax` refusal,
//!   never a partial answer from the last shard).

use proptest::prelude::*;
use std::sync::Arc;
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

/// Derives a shard plan from two random parameters, covering every
/// [`ShardPlan`] variant including the degenerate layouts the issue calls
/// out: a single shard and one shard per timestamp.
fn plan_for(kind: u8, param: usize, tmax: Timestamp) -> ShardPlan {
    match kind % 5 {
        0 => ShardPlan::FixedCount(1),
        1 => ShardPlan::FixedCount(2 + param % 5),
        // One shard per timestamp: every inter-timestamp boundary is a cut.
        2 => ShardPlan::FixedCount(tmax as usize),
        3 => ShardPlan::TargetEdgesPerShard(1 + param % 7),
        _ => {
            // An explicit cut roughly mid-span (no cut on a 1-long span).
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

    /// For random graphs, random shard plans and every algorithm, every
    /// `(k, window)` query returns identical cores and counts through the
    /// `ShardedEngine` and fresh per-query execution.
    #[test]
    fn sharded_matches_unsharded(
        g in arb_graph(10, 40, 8),
        k in 1usize..4,
        (kind, param) in (0u8..5, 0usize..16),
        (raw_start, raw_len) in (1u32..=8, 0u32..8),
    ) {
        let plan = plan_for(kind, param, g.tmax());
        let sharded = ShardedEngine::new(g.clone(), plan.clone())
            .expect("derived plans are valid");

        // The full span plus a random sub-window (clamped into the span so
        // it stays a valid query; degenerate single-timestamp windows
        // included via raw_len = 0).
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
                let mut got = CollectingSink::default();
                sharded.run_with(&query, algo, &mut got)
                    .expect("window is inside the span");
                prop_assert_eq!(
                    canonical(got.cores),
                    canonical(expected.cores),
                    "{:?} k={} window={} algo={}",
                    plan, k, window, algo
                );
            }
        }

        // The backend wrapper agrees as well (same CoreBackend surface the
        // request/serving layers drive).
        let sharded_arc = Arc::new(sharded);
        let sharded_backend = ShardedBackend::new(Arc::clone(&sharded_arc));
        let mut a = CollectingSink::default();
        let stats_a = Algorithm::Enum
            .execute(&g, k, g.span(), &mut a)
            .expect("span query is valid");
        let mut b = CollectingSink::default();
        let stats_b = sharded_backend
            .execute(&sharded_arc.graph(), k, g.span(), &mut b)
            .expect("span query is valid");
        prop_assert_eq!(canonical(a.cores), canonical(b.cores), "{:?} k={}", plan, k);
        prop_assert_eq!(stats_a.num_cores, stats_b.num_cores);
        prop_assert_eq!(stats_a.total_result_edges, stats_b.total_result_edges);
    }

    /// The shard-affinity scheduler (per-shard lanes + work stealing) never
    /// changes answers: a 2-worker `Affinity::Shard` service over a sharded
    /// engine returns the same cores as fresh per-query execution for random
    /// graphs, plans and windows.
    #[test]
    fn affine_service_matches_unsharded(
        g in arb_graph(10, 40, 8),
        k in 1usize..4,
        (kind, param) in (0u8..5, 0usize..16),
        (raw_start, raw_len) in (1u32..=8, 0u32..8),
    ) {
        let plan = plan_for(kind, param, g.tmax());
        let sharded = Arc::new(
            ShardedEngine::new(g.clone(), plan.clone()).expect("derived plans are valid"),
        );
        let service = CoreService::over_sharded(
            Arc::clone(&sharded),
            ServiceConfig {
                workers: 2,
                affinity: Affinity::Shard,
                ..ServiceConfig::default()
            },
        );

        let start = raw_start.min(g.tmax());
        let window = TimeWindow::new(start, (start + raw_len).min(g.tmax()));
        for window in [g.span(), window] {
            let mut expected = CollectingSink::default();
            Algorithm::Enum.execute(&g, k, window, &mut expected)
                .expect("window is inside the span");
            let reply = service
                .submit(
                    QueryRequest::single(k, window.start(), window.end()).materialize(),
                )
                .expect("valid request is admitted")
                .wait()
                .expect("request completes");
            let KOutput::Cores(cores) = &reply.response.outcomes[0].output else {
                panic!("materialized request");
            };
            prop_assert_eq!(
                canonical(cores.clone()),
                canonical(expected.cores),
                "{:?} k={} window={}",
                plan, k, window
            );
        }
        service.shutdown();
    }
}

/// The boundary fixture: paper-example graph (`tmax = 7`) cut after
/// timestamps 2 and 4, giving shards `[1,2] [3,4] [5,7]`.
fn boundary_fixture() -> (TemporalGraph, ShardedEngine) {
    let g = paper_example::graph();
    let engine = ShardedEngine::new(g.clone(), ShardPlan::ExplicitCuts(vec![2, 4]))
        .expect("cuts are inside the span");
    assert_eq!(
        engine.shards(),
        &[
            TimeWindow::new(1, 2),
            TimeWindow::new(3, 4),
            TimeWindow::new(5, 7)
        ]
    );
    (g, engine)
}

fn assert_window_matches_span_wide(g: &TemporalGraph, engine: &ShardedEngine, window: TimeWindow) {
    for k in 1..=3 {
        let query = TimeRangeKCoreQuery::new(k, window).unwrap();
        for algo in Algorithm::ALL {
            let mut expected = CollectingSink::default();
            query.run_with(g, algo, &mut expected);
            let mut got = CollectingSink::default();
            let stats = engine.run_with(&query, algo, &mut got).unwrap();
            assert_eq!(
                canonical(got.cores.clone()),
                canonical(expected.cores.clone()),
                "k={k} window={window} algo={algo}"
            );
            assert_eq!(stats.num_cores as usize, expected.cores.len());
        }
    }
}

#[test]
fn window_coinciding_with_a_shard_cut_needs_no_stitching() {
    let (g, engine) = boundary_fixture();
    // Both windows align exactly with shard boundaries.
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(1, 2));
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(3, 4));
    // A window ending exactly at a cut never touches the following shard
    // (fresh engine: build counters are cumulative).
    let (_, engine) = boundary_fixture();
    let mut sink = CountingSink::default();
    engine
        .run(
            &TimeRangeKCoreQuery::new(2, TimeWindow::new(3, 4)).unwrap(),
            &mut sink,
        )
        .unwrap();
    let stats = engine.cache_stats();
    assert_eq!(stats.per_shard[0].builds + stats.per_shard[2].builds, 0);
    assert_eq!(stats.per_shard[1].builds, 1);
}

#[test]
fn window_spanning_one_cut_is_stitched_exactly() {
    let (g, engine) = boundary_fixture();
    // [2, 4] crosses only the cut after 2; [4, 6] only the cut after 4.
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(2, 4));
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(4, 6));
}

#[test]
fn window_spanning_all_cuts_is_stitched_exactly() {
    let (g, engine) = boundary_fixture();
    assert_window_matches_span_wide(&g, &engine, g.span());
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(2, 6));
}

#[test]
fn window_past_tmax_is_refused_not_answered_from_the_last_shard() {
    let (g, engine) = boundary_fixture();
    let past = TimeRangeKCoreQuery::new(2, TimeWindow::new(g.tmax() + 1, g.tmax() + 5)).unwrap();
    for algo in Algorithm::ALL {
        let mut sink = CountingSink::default();
        let err = engine.run_with(&past, algo, &mut sink).unwrap_err();
        assert!(
            matches!(err, TkError::WindowPastTmax { start, tmax }
                if start == g.tmax() + 1 && tmax == g.tmax()),
            "{algo}: {err}"
        );
        assert_eq!(sink.num_cores, 0, "{algo}: no partial answer");
    }
    // The refusal happened before any shard skyline was built.
    assert_eq!(engine.cache_stats().misses, 0);

    // Same refusal through the backend/request surface.
    let backend = ShardedBackend::new(Arc::new(engine));
    assert!(matches!(
        QueryRequest::single(2, g.tmax() + 1, g.tmax() + 5).run(&g, &backend),
        Err(TkError::WindowPastTmax { .. })
    ));
}

#[test]
fn single_timestamp_shards_still_answer_spanning_windows() {
    let g = paper_example::graph();
    let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(g.tmax() as usize)).unwrap();
    assert_eq!(engine.num_shards(), g.tmax() as usize);
    assert_window_matches_span_wide(&g, &engine, g.span());
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(4, 4));
}
