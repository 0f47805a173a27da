//! Per-layer replays of the traced run.
//!
//! After the timed section the benchmark re-runs the workload's own inputs
//! through the public functions of each layer, timing every call from
//! outside and recording it as a span: `wire` (`parse_request`,
//! `render_reply`), `service` (`submit_opts` → `Ticket::wait`), `shard`
//! (`ShardedEngine::run_with`), `ecs` / `vct` (`EdgeCoreSkyline::build`,
//! `restrict_with`, `VertexCoreTimeIndex::build`), `enumerate`, and
//! `request` (`CollectingSink` against `CountingSink`).  Each replayed
//! answer is checked against the reference too.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use temporal_graph::TimeWindow;
use tkcore::wire::{self, WireConfig, WireRequest};
use tkcore::{
    enumerate, Algorithm, CollectingSink, CoreService, CountingSink, EdgeCoreSkyline,
    ShardedEngine, SkylineScratch, SubmitOptions, TimeRangeKCoreQuery, VertexCoreTimeIndex,
};

use crate::loadgen::{check, Status};
use crate::trace::Tracer;
use crate::workload::{Query, Reference};

/// Sent lines replayed one at a time through `wire` and `service` (the
/// first ones of the traced half; `batch_sweep` sends about 10,000).
const SERVICE_REPLAYS: usize = 1000;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What the replays measured.
#[derive(Debug, Default, Clone)]
pub struct LayerSamples {
    /// `wire::parse_request` per sent line, µs.
    pub parse_us: Vec<f64>,
    /// `wire::render_reply` per replayed reply, µs.
    pub render_us: Vec<f64>,
    /// Rendered reply line length including its newline, bytes.
    pub reply_bytes: Vec<f64>,
    /// `ShardedEngine::run_with` of windows inside one shard, µs.
    pub inshard_us: Vec<f64>,
    /// `ShardedEngine::run_with` of windows crossing a cut, µs.
    pub spanning_us: Vec<f64>,
    /// `EdgeCoreSkyline::build` per `(shard, k)`, ms.
    pub ecs_build_ms: Vec<f64>,
    /// Minimal core windows over those skylines.
    pub ecs_windows: u64,
    /// `VertexCoreTimeIndex::build` per `(shard, k)`, ms.
    pub vct_ms: Vec<f64>,
    /// `restrict_with` of the span-wide skyline to each query window, µs.
    pub restrict_us: Vec<f64>,
    /// `enumerate` over each restricted skyline, µs.
    pub enumerate_us: Vec<f64>,
    /// Summed `enumerate` time, ns.
    pub enumerate_ns_total: f64,
    /// Result edges over the enumerate replay.
    pub result_edges: u64,
    /// Summed `run_with` time with `CollectingSink` and `CountingSink`.
    pub collect_total: Duration,
    /// See [`LayerSamples::collect_total`].
    pub count_total: Duration,
    /// Replayed answers that disagreed with the reference.
    pub wrong: Vec<String>,
}

/// Runs every replay; `sent` are the traced section's queries with their
/// request lines, `ks` the workload's `k` values.
pub fn replay(
    service: &CoreService,
    engine: &ShardedEngine,
    sent: &[(Query, String)],
    ks: &[usize],
    reference: &Reference,
    tracer: &mut Tracer,
) -> LayerSamples {
    let mut out = LayerSamples::default();
    wire_and_service(service, sent, reference, tracer, &mut out);
    let distinct: BTreeSet<(usize, TimeWindow)> = sent
        .iter()
        .flat_map(|(q, _)| q.per_k().map(|k| (k.k(), k.range())))
        .collect();
    shard(engine, &distinct, reference, tracer, &mut out);
    index(engine, &distinct, ks, reference, tracer, &mut out);
    out
}

/// `wire` and `service`: parse each sent line, submit the decoded query,
/// render its reply, and check the rendered line.
fn wire_and_service(
    service: &CoreService,
    sent: &[(Query, String)],
    reference: &Reference,
    tracer: &mut Tracer,
    out: &mut LayerSamples,
) {
    let config = WireConfig::default();
    for (i, (query, line)) in sent.iter().take(SERVICE_REPLAYS).enumerate() {
        let request = i as u64;
        let t0 = Instant::now();
        let parsed = wire::parse_request(line);
        let t1 = Instant::now();
        tracer.record("wire.parse", t0, t1, None, request);
        out.parse_us.push(us(t1 - t0));
        let Ok(WireRequest::Query(wq)) = parsed else {
            out.wrong
                .push(format!("wire::parse_request refused `{line}`"));
            continue;
        };
        let opts = SubmitOptions {
            algorithm: wq.algorithm,
            lane: wq.lane,
            deadline: wq.deadline,
        };
        let t2 = Instant::now();
        let reply = service.submit_opts(wq.request, opts).and_then(|t| t.wait());
        let t3 = Instant::now();
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                out.wrong.push(format!("service replay of `{line}`: {e}"));
                continue;
            }
        };
        let span = tracer.record("service.request", t2, t3, None, request);
        tracer.phases(
            span,
            &[
                ("service.queue_wait", reply.queue_wait),
                ("service.execute", reply.execute_time),
            ],
        );
        let t4 = Instant::now();
        let rendered = wire::render_reply(wq.client_id, &reply, &config);
        let t5 = Instant::now();
        tracer.record("wire.render", t4, t5, None, request);
        out.render_us.push(us(t5 - t4));
        out.reply_bytes.push((rendered.len() + 1) as f64);
        let id = wq.client_id.unwrap_or(u64::MAX);
        if let (Status::Wrong(why), _, _) = check(&rendered, id, query, reference) {
            out.wrong.push(format!("rendered reply: {why}"));
        }
    }
}

fn counted(
    reference: &Reference,
    k: usize,
    window: TimeWindow,
    sink: &CountingSink,
) -> Option<String> {
    let want = reference.get(k, window);
    (want != Some((sink.num_cores, sink.total_edges))).then(|| {
        format!(
            "k={k} {window:?}: replay counted ({}, {}), reference {want:?}",
            sink.num_cores, sink.total_edges
        )
    })
}

/// `shard` and `request`: `ShardedEngine::run_with` per distinct `(k,
/// window)`, split by whether the window crosses a shard cut, then the same
/// queries with a materializing and a counting sink.
fn shard(
    engine: &ShardedEngine,
    distinct: &BTreeSet<(usize, TimeWindow)>,
    reference: &Reference,
    tracer: &mut Tracer,
    out: &mut LayerSamples,
) {
    for (i, &(k, window)) in distinct.iter().enumerate() {
        let query = TimeRangeKCoreQuery::new(k, window).expect("workload k >= 1");
        let mut count = CountingSink::default();
        let t0 = Instant::now();
        let ran = engine.run_with(&query, Algorithm::Enum, &mut count);
        let t1 = Instant::now();
        tracer.record("shard.run", t0, t1, None, i as u64);
        if let Err(e) = ran {
            out.wrong
                .push(format!("shard replay k={k} {window:?}: {e}"));
            continue;
        }
        if engine.overlapping_shards(window).len() > 1 {
            out.spanning_us.push(us(t1 - t0));
        } else {
            out.inshard_us.push(us(t1 - t0));
        }
        out.wrong.extend(counted(reference, k, window, &count));
        let mut collect = CollectingSink::default();
        let t2 = Instant::now();
        let _ = engine.run_with(&query, Algorithm::Enum, &mut collect);
        let t3 = Instant::now();
        let mut recount = CountingSink::default();
        let _ = engine.run_with(&query, Algorithm::Enum, &mut recount);
        let t4 = Instant::now();
        tracer.record("request.collect", t2, t3, None, i as u64);
        tracer.record("request.count", t3, t4, None, i as u64);
        out.collect_total += t3 - t2;
        out.count_total += t4 - t3;
    }
}

/// `ecs`, `vct` and `enumerate`: per `(shard, k)` index builds over the
/// served snapshot, then each distinct query as restrict + enumerate from a
/// span-wide skyline (the paper's two phases, timed apart).
fn index(
    engine: &ShardedEngine,
    distinct: &BTreeSet<(usize, TimeWindow)>,
    ks: &[usize],
    reference: &Reference,
    tracer: &mut Tracer,
    out: &mut LayerSamples,
) {
    let graph = engine.graph();
    for (s, &shard) in engine.shards().iter().enumerate() {
        for &k in ks {
            let t0 = Instant::now();
            let skyline = EdgeCoreSkyline::build(&graph, k, shard);
            let t1 = Instant::now();
            let vct = VertexCoreTimeIndex::build(&graph, k, shard);
            let t2 = Instant::now();
            std::hint::black_box(vct.size());
            tracer.record("ecs.build", t0, t1, None, s as u64);
            tracer.record("vct.build", t1, t2, None, s as u64);
            out.ecs_build_ms.push((t1 - t0).as_secs_f64() * 1e3);
            out.vct_ms.push((t2 - t1).as_secs_f64() * 1e3);
            out.ecs_windows += skyline.total_windows() as u64;
        }
    }
    let mut scratch = SkylineScratch::default();
    let mut span_wide: Vec<(usize, EdgeCoreSkyline)> = Vec::new();
    for (i, &(k, window)) in distinct.iter().enumerate() {
        if !span_wide.iter().any(|(have, _)| *have == k) {
            span_wide.push((k, EdgeCoreSkyline::build(&graph, k, graph.span())));
        }
        let (_, full) = span_wide
            .iter()
            .find(|(have, _)| *have == k)
            .expect("span-wide skyline built above");
        let mut sink = CountingSink::default();
        let t0 = Instant::now();
        let restricted = full.restrict_with(&graph, window, &mut scratch);
        let t1 = Instant::now();
        enumerate(&graph, &restricted, &mut sink);
        let t2 = Instant::now();
        let parent = tracer.record("engine.query", t0, t2, None, i as u64);
        tracer.record("ecs.restrict", t0, t1, Some(parent), i as u64);
        tracer.record("enumerate", t1, t2, Some(parent), i as u64);
        scratch.recycle(restricted);
        out.restrict_us.push(us(t1 - t0));
        out.enumerate_us.push(us(t2 - t1));
        out.enumerate_ns_total += (t2 - t1).as_nanos() as f64;
        out.result_edges += sink.total_edges;
        out.wrong.extend(counted(reference, k, window, &sink));
    }
}
