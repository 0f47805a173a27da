//! Acceptance tests for the unified request API through the public facade:
//! every algorithm and the cached engine (unsharded and sharded) are reachable via
//! `CoreBackend`/`QueryRequest` alone, a k-range sweep over the paper
//! example builds at most one skyline per k (asserted via `CacheStats`),
//! and malformed input yields typed errors, never panics.

use std::sync::Arc;
use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::paper_example;

fn span_engine(graph: &TemporalGraph) -> Arc<ShardedEngine> {
    Arc::new(ShardedEngine::new(graph.clone(), ShardPlan::Span).unwrap())
}

#[test]
fn k_range_sweep_reuses_one_skyline_build_per_k() {
    let graph = paper_example::graph();
    let engine = span_engine(&graph);
    let backend = ShardedBackend::new(Arc::clone(&engine));

    let response = QueryRequest::sweep(1..=3, 1, 7)
        .run(&graph, &backend)
        .unwrap();

    // Per-k stats, in sweep order.
    let ks: Vec<usize> = response.outcomes.iter().map(|o| o.k).collect();
    assert_eq!(ks, vec![1, 2, 3]);
    for outcome in &response.outcomes {
        assert_eq!(outcome.stats.algorithm, Algorithm::Enum);
        let KOutput::Counts(counts) = &outcome.output else {
            panic!("count is the default output mode");
        };
        assert_eq!(counts.num_cores, outcome.stats.num_cores);
        // Each k agrees with the brute-force reference.
        let expected = temporal_kcore::tkcore::naive_results(&graph, outcome.k, graph.span());
        assert_eq!(
            outcome.stats.num_cores as usize,
            expected.len(),
            "k = {}",
            outcome.k
        );
    }

    // At most one span-wide skyline build per k of the sweep.
    let cache = engine.cache_stats();
    assert_eq!(cache.misses, 3, "{cache:?}");

    // Re-running the sweep is pure cache hits: still one build per k.
    let again = QueryRequest::sweep(1..=3, 1, 7)
        .run(&graph, &backend)
        .unwrap();
    assert_eq!(again.total_cores(), response.total_cores());
    let cache = engine.cache_stats();
    assert_eq!(cache.misses, 3, "no rebuild on the second sweep: {cache:?}");
    assert!(cache.hits >= 3);
}

#[test]
fn sharded_sweep_builds_only_the_touched_shards_per_k() {
    let graph = paper_example::graph(); // tmax = 7
    let engine = Arc::new(ShardedEngine::new(graph.clone(), ShardPlan::FixedCount(4)).unwrap());
    // FixedCount(4) over [1, 7] resolves to [1,1] [2,3] [4,5] [6,7].
    assert_eq!(engine.num_shards(), 4);
    let backend = ShardedBackend::new(Arc::clone(&engine));

    // The window [4, 7] touches shards 2 and 3 only.
    let response = QueryRequest::sweep(1..=3, 4, 7)
        .run(&engine.graph(), &backend)
        .unwrap();
    assert_eq!(response.outcomes.len(), 3);
    for outcome in &response.outcomes {
        let expected =
            temporal_kcore::tkcore::naive_results(&graph, outcome.k, TimeWindow::new(4, 7));
        assert_eq!(
            outcome.stats.num_cores as usize,
            expected.len(),
            "k = {}",
            outcome.k
        );
    }

    // A window touching 2 of 4 shards builds exactly 2 shard skylines per
    // k of the sweep — the untouched shards stay cold.
    let cache = engine.cache_stats();
    let builds: Vec<u64> = cache.per_shard.iter().map(|s| s.builds).collect();
    assert_eq!(builds, vec![0, 0, 3, 3], "{cache:?}");
    assert_eq!(cache.misses, 6, "2 shard misses per k: {cache:?}");

    // Re-running the sweep is pure cache hits: no shard is rebuilt.
    let again = QueryRequest::sweep(1..=3, 4, 7)
        .run(&engine.graph(), &backend)
        .unwrap();
    assert_eq!(again.total_cores(), response.total_cores());
    let cache = engine.cache_stats();
    let builds: Vec<u64> = cache.per_shard.iter().map(|s| s.builds).collect();
    assert_eq!(builds, vec![0, 0, 3, 3], "no rebuild: {cache:?}");
    assert!(cache.hits >= 6, "{cache:?}");
}

#[test]
fn all_backends_answer_the_paper_query_identically() {
    let graph = paper_example::graph();
    let engine = span_engine(&graph);
    let backends: Vec<Box<dyn CoreBackend>> = vec![
        Box::new(Algorithm::Enum),
        Box::new(Algorithm::EnumBase),
        Box::new(Algorithm::Otcd),
        Box::new(Algorithm::Naive),
        Box::new(ShardedBackend::new(Arc::clone(&engine))),
        Box::new(ShardedBackend::with_algorithm(
            Arc::clone(&engine),
            Algorithm::EnumBase,
        )),
        Box::new(ShardedBackend::new(Arc::new(
            ShardedEngine::new(graph.clone(), ShardPlan::FixedCount(3)).unwrap(),
        ))),
        Box::new(ShardedBackend::with_algorithm(
            Arc::new(
                ShardedEngine::new(graph.clone(), ShardPlan::ExplicitCuts(vec![2, 4])).unwrap(),
            ),
            Algorithm::EnumBase,
        )),
    ];
    let mut reference: Option<Vec<TemporalKCore>> = None;
    for backend in &backends {
        let response = QueryRequest::single(2, 1, 4)
            .materialize()
            .run(&graph, backend.as_ref())
            .unwrap();
        let KOutput::Cores(cores) = &response.outcomes[0].output else {
            panic!("materialized request");
        };
        assert_eq!(cores.len(), 2, "{}", backend.name());
        match &reference {
            None => reference = Some(cores.clone()),
            Some(expected) => assert_eq!(cores, expected, "{}", backend.name()),
        }
    }
}

#[test]
fn malformed_requests_are_typed_errors_on_every_entry_point() {
    let graph = paper_example::graph();
    let cached = ShardedBackend::new(span_engine(&graph));
    let backends: Vec<&dyn CoreBackend> = vec![&Algorithm::Enum, &Algorithm::Naive, &cached];
    for backend in backends {
        assert!(matches!(
            QueryRequest::single(0, 1, 4).run(&graph, backend),
            Err(TkError::KOutOfRange { k: 0 })
        ));
        assert!(matches!(
            QueryRequest::single(2, 0, 4).run(&graph, backend),
            Err(TkError::EmptyWindow { .. })
        ));
        assert!(matches!(
            QueryRequest::single(2, 6, 3).run(&graph, backend),
            Err(TkError::EmptyWindow { .. })
        ));
        assert!(matches!(
            QueryRequest::single(2, 8, 9).run(&graph, backend),
            Err(TkError::WindowPastTmax { start: 8, tmax: 7 })
        ));
        assert!(matches!(
            QueryRequest::with_selection(KSelection::Range { min: 5, max: 2 }, 1, 4)
                .run(&graph, backend),
            Err(TkError::EmptyKSelection)
        ));
    }
    // The whole-span shorthand: an overhanging end is clamped, not refused.
    let response = QueryRequest::single(2, 1, Timestamp::MAX)
        .run(&graph, &Algorithm::Enum)
        .unwrap();
    assert_eq!(response.window, TimeWindow::new(1, 7));
}
