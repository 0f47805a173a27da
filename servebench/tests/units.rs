//! Unit tests of the benchmark's own arithmetic: the percentile rule, the
//! reply field parser, the span self-time arithmetic, and the result line.

use std::time::{Duration, Instant};

use servebench::quantile::{nearest_rank, or_zero, ratio, sliced, SLICES};
use servebench::reply::{parse_reply, Outcome, Reply};
use servebench::trace::{self_times, Span, Tracer};
use servebench::workload::{send_order, Query};
use servebench::{render_result, Metric, Rng};
use temporal_graph::TimeWindow;

#[test]
fn nearest_rank_takes_the_ceiling_rank() {
    let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(nearest_rank(&samples, 0.5), Some(5.0));
    assert_eq!(nearest_rank(&samples, 0.95), Some(10.0));
    assert_eq!(nearest_rank(&samples, 0.9), Some(9.0));
    assert_eq!(nearest_rank(&samples, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&samples, 1.0), Some(10.0));
    // 200 samples: p95 is rank 190, leaving ten samples above it.
    let many: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(nearest_rank(&many, 0.95), Some(190.0));
    assert_eq!(nearest_rank(&[7.5], 0.99), Some(7.5));
}

#[test]
fn empty_samples_have_no_quantile() {
    assert_eq!(nearest_rank(&[], 0.5), None);
    assert_eq!(or_zero(&[], 0.5), 0.0);
    assert_eq!(ratio(3.0, 0.0), 0.0);
    assert_eq!(ratio(3.0, 4.0), 0.75);
}

#[test]
fn sliced_takes_the_median_of_per_slice_quantiles() {
    assert_eq!(SLICES, 5);
    // Slice medians 2, 20, 4, 5, 3 (the second slice is a slow stretch):
    // the median of the slice medians outvotes it.
    let values = [
        1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 3.0, 4.0, 5.0, 4.0, 5.0, 6.0, 2.0, 3.0, 4.0,
    ];
    let samples: Vec<(f64, f64)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f64 / values.len() as f64, v))
        .collect();
    assert_eq!(sliced(&samples, 0.5), 4.0);
    assert_eq!(sliced(&samples, 1.0), 5.0);
    // Positions at or past the end fall into the last slice.
    assert_eq!(sliced(&[(1.0, 7.0)], 0.5), 7.0);
    // Two populated slices: the lower median of their quantiles.
    assert_eq!(sliced(&[(0.0, 1.0), (0.9, 9.0)], 0.5), 1.0);
    assert_eq!(sliced(&[], 0.5), 0.0);
}

#[test]
fn parses_an_ok_reply_with_samples() {
    let line = r#"{"status":"ok","id":7,"request":"r12","window":[100,142],"outcomes":[{"k":14,"cores":3,"result_edges":250,"sample":[{"tti":[101,120],"edges":80},{"tti":[110,140],"edges":90}]},{"k":15,"cores":0,"result_edges":0,"sample":[]}],"queue_wait_us":36,"execute_us":900,"worker":1}"#;
    let reply = parse_reply(line).unwrap();
    assert_eq!(
        reply,
        Reply::Ok {
            id: Some(7),
            window: (100, 142),
            outcomes: vec![
                Outcome {
                    k: 14,
                    cores: 3,
                    result_edges: 250
                },
                Outcome {
                    k: 15,
                    cores: 0,
                    result_edges: 0
                },
            ],
            queue_wait_us: 36,
            execute_us: 900,
        }
    );
}

#[test]
fn parses_error_replies_and_escapes() {
    let line =
        r#"{"status":"error","id":3,"error":"DeadlineExceeded","detail":"waited \"5 ms\"!"}"#;
    assert_eq!(
        parse_reply(line).unwrap(),
        Reply::Error {
            id: Some(3),
            code: "DeadlineExceeded".into()
        }
    );
    let anonymous = r#"{ "status" : "error", "error" : "BadRequest", "detail" : "x" }"#;
    assert!(matches!(
        parse_reply(anonymous).unwrap(),
        Reply::Error { id: None, .. }
    ));
}

#[test]
fn refuses_malformed_replies() {
    for bad in [
        "",
        "not json",
        r#"{"status":"ok"}"#,
        r#"{"status":"ok","window":[1,2],"outcomes":[{"k":1}],"queue_wait_us":0,"execute_us":0}"#,
        r#"{"status":"ok","window":[1,2],"outcomes":[],"queue_wait_us":-1,"execute_us":0}"#,
        r#"{"status":"maybe"}"#,
        r#"{"status":"ok"} trailing"#,
        &format!("{}{}", "[".repeat(64), "]".repeat(64)),
    ] {
        assert!(parse_reply(bad).is_err(), "accepted {bad:?}");
    }
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("client.request", 0, 100, None),
        span("a", 10, 30, Some(0)),
        // Overlaps `a`: the covered part counts once.
        span("b", 20, 50, Some(0)),
        // Sticks out of its parent: only the inside part counts.
        span("c", 90, 120, Some(0)),
        // Grandchild: covers part of `b`, not of the root.
        span("d", 25, 35, Some(2)),
    ];
    assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30 - 10, 30, 10]);
}

#[test]
fn reported_phases_sit_back_to_back_and_clip_to_the_parent() {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let parent = tracer.record(
        "client.request",
        origin + Duration::from_micros(10),
        origin + Duration::from_micros(110),
        None,
        42,
    );
    tracer.phases(
        parent,
        &[
            ("service.queue_wait", Duration::from_micros(30)),
            ("service.execute", Duration::from_micros(90)),
        ],
    );
    let spans = tracer.spans();
    assert_eq!((spans[1].start_ns, spans[1].end_ns), (10_000, 40_000));
    assert_eq!((spans[2].start_ns, spans[2].end_ns), (40_000, 110_000));
    assert!(spans.iter().all(|s| s.request == 42));
    // Phases reported longer than the client saw leave no negative time.
    assert_eq!(self_times(spans)[0], 0);
}

#[test]
fn merge_reindexes_parents() {
    let origin = Instant::now();
    let mut a = Tracer::new(origin);
    a.record("x", origin, origin + Duration::from_micros(5), None, 1);
    let mut b = Tracer::new(origin);
    let p = b.record("y", origin, origin + Duration::from_micros(9), None, 2);
    b.phases(p, &[("z", Duration::from_micros(4))]);
    a.merge(b);
    assert_eq!(a.spans()[2].parent, Some(1));
    assert_eq!(self_times(a.spans()), vec![5_000, 5_000, 4_000]);
}

#[test]
fn result_line_carries_every_metric_with_its_unit() {
    let line = render_result(
        true,
        10,
        0,
        &[
            Metric {
                name: "latency_p50_ms",
                value: 0.125,
                unit: "ms",
            },
            Metric {
                name: "index_mib",
                value: f64::NAN,
                unit: "MiB",
            },
        ],
    );
    assert_eq!(
        line,
        r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_p50_ms":{"value":0.125,"unit":"ms"},"index_mib":{"value":0.0,"unit":"MiB"}}}"#
    );
}

#[test]
fn request_lines_decode_as_sent() {
    let sweep = Query {
        k_min: 14,
        k_max: 16,
        window: TimeWindow::new(60, 146),
        cores: false,
        batch: true,
    };
    let single = Query {
        k_max: 14,
        cores: true,
        batch: false,
        ..sweep
    };
    for (query, id) in [(sweep, 5u64), (single, 6)] {
        let line = query.wire_line(id);
        let Ok(tkcore::wire::WireRequest::Query(wq)) = tkcore::wire::parse_request(&line) else {
            panic!("server refused {line}");
        };
        assert_eq!(wq.client_id, Some(id));
        assert_eq!(wq.request.window_bounds(), (60, 146));
        assert_eq!(wq.deadline.is_some(), !query.batch, "{line}");
    }
}

#[test]
fn every_seed_sends_the_same_multiset_of_windows() {
    let sorted = |seed| {
        let mut order = send_order(264, 400, &mut Rng::new(seed));
        let sent = order.clone();
        order.sort_unstable();
        (order, sent)
    };
    let (a, order_a) = sorted(1);
    let (b, order_b) = sorted(2);
    assert_eq!(a, b);
    assert_ne!(order_a, order_b);
    assert_eq!(a.len(), 400);
    for w in 0..264 {
        let n = a.iter().filter(|&&i| i == w).count();
        assert!((1..=2).contains(&n), "window {w} sent {n} times");
    }
    assert_eq!(send_order(5, 10, &mut Rng::new(3)).len(), 10);
}

#[test]
fn rng_is_deterministic_and_in_range() {
    let (mut a, mut b) = (Rng::new(9), Rng::new(9));
    for _ in 0..1000 {
        let x = a.range(3, 7);
        assert_eq!(x, b.range(3, 7));
        assert!((3..=7).contains(&x));
    }
    assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
}

#[test]
fn check_compares_every_reply_with_the_reference() {
    use servebench::loadgen::{check, Status};
    use servebench::workload::Reference;
    let graph = tkcore::paper_example::graph();
    let query = Query {
        k_min: 2,
        k_max: 2,
        window: TimeWindow::new(1, 4),
        cores: false,
        batch: true,
    };
    let mut reference = Reference::default();
    reference.add(&graph, &query);
    let (cores, edges) = reference.get(2, query.window).unwrap();
    assert_eq!(cores, 2); // Figure 2 of the paper
    let reply = |id: u64, cores: u64| {
        format!(
            r#"{{"status":"ok","id":{id},"request":"1","window":[1,4],"outcomes":[{{"k":2,"cores":{cores},"result_edges":{edges}}}],"queue_wait_us":5,"execute_us":9,"worker":0}}"#
        )
    };
    assert_eq!(
        check(&reply(3, cores), 3, &query, &reference),
        (Status::Ok, 5, 9)
    );
    assert!(matches!(
        check(&reply(4, cores), 3, &query, &reference).0,
        Status::Wrong(_)
    ));
    assert!(matches!(
        check(&reply(3, cores + 1), 3, &query, &reference).0,
        Status::Wrong(_)
    ));
    let shed = r#"{"status":"error","id":3,"error":"DeadlineExceeded","detail":"late"}"#;
    assert_eq!(
        check(shed, 3, &query, &reference).0,
        Status::ErrorReply("DeadlineExceeded".into())
    );
    assert!(matches!(
        check("garbage", 3, &query, &reference).0,
        Status::Wrong(_)
    ));
}
