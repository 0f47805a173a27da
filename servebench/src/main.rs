//! `servebench --workload <interactive|batch_sweep|live_ingest> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Starts the service as `tkc serve --shards 4 --workers 2` builds it
//! (`CoreService::start_sharded` + `TkServer::bind` on a loopback port),
//! warms it, drives one workload for `--seconds`, checks every reply, and
//! prints one JSON result line last on stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  A human-readable
//! report goes to stderr; a traced run also writes its spans to
//! `servebench/out/`.  Exits 1 when any answer was wrong or any operation
//! failed, 2 on bad arguments.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use servebench::layers::{self, LayerSamples};
use servebench::loadgen::{self, Ack, ClientRun, Exchange, Status};
use servebench::quantile::{nearest_rank, or_zero, ratio, sliced};
use servebench::trace::{self, Tracer};
use servebench::workload::{
    Inputs, Workload, PIPELINE_DEPTH, READ_DEPTH, SHARDS, WARMUP_PINGS, WORKERS,
};
use servebench::{render_result, Metric};
use tkcore::{
    Algorithm, CacheStats, CoreService, CountingSink, EngineConfig, ServerConfig, ServiceConfig,
    ServiceStats, ShardPlan, ShardedEngine, TkServer,
};

/// Service + server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// A run whose ingest replay submitted its p99 batch later than this is
/// invalid.
const LATE_BOUND_MS: f64 = 10.0;
/// Lead time between the end of set-up and the start of the timed section.
const LEAD: Duration = Duration::from_millis(50);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: bad number `{v}`"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.parse::<Workload>()?),
                "--seed" => seed = number(&value)?,
                "--seconds" => seconds = number(&value)?.max(1),
                "--trace" => trace = number(&value)? != 0,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// A started service with its server accepting on a background thread.
struct Served {
    service: Arc<CoreService>,
    server: Arc<TkServer>,
    acceptor: JoinHandle<Result<tkcore::ServeSummary, tkcore::TkError>>,
    addr: SocketAddr,
}

impl Served {
    /// Starts and warms one service over `inputs`; returns it with the
    /// wrong answers its warm-up pass saw.
    fn start(inputs: &Inputs) -> (Served, Duration, Vec<String>) {
        let graph = inputs.graph.clone();
        let t0 = Instant::now();
        let config = ServiceConfig {
            workers: WORKERS,
            engine: EngineConfig {
                seal_policy: inputs.seal,
                ..EngineConfig::default()
            },
            ..ServiceConfig::default()
        };
        let service = Arc::new(
            CoreService::start_sharded(graph, ShardPlan::FixedCount(SHARDS), config)
                .expect("the workload graph resolves into its shard plan"),
        );
        let server = Arc::new(
            TkServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
                .expect("bind a loopback port"),
        );
        let addr = server.local_addr();
        let acceptor = {
            let server = Arc::clone(&server);
            // tkc-lint: allow(no-raw-threads) — `TkServer::serve` blocks its caller by design (the CLI gives it the main thread); the benchmark parks it on one joined thread outside every pool it measures
            std::thread::spawn(move || server.serve())
        };
        let engine = service.sharded_engine().expect("a sharded service");
        for &k in &inputs.ks {
            engine.warm(k);
        }
        let mut wrong = Vec::new();
        for query in &inputs.pool {
            for q in query.per_k() {
                let mut sink = CountingSink::default();
                let ran = engine.run_with(&q, Algorithm::Enum, &mut sink);
                let want = inputs.reference.get(q.k(), q.range());
                if ran.is_err() || want != Some((sink.num_cores, sink.total_edges)) {
                    wrong.push(format!("warm-up k={} {:?}: {ran:?}", q.k(), q.range()));
                }
            }
        }
        let took = t0.elapsed();
        (
            Served {
                service,
                server,
                acceptor,
                addr,
            },
            took,
            wrong,
        )
    }

    fn engine(&self) -> &ShardedEngine {
        self.service.sharded_engine().expect("a sharded service")
    }

    /// Drains the server, joins its acceptor and drops the service;
    /// returns a note when the acceptor did not end cleanly.
    fn stop(self) -> Option<String> {
        self.server.stop();
        match self.acceptor.join() {
            Ok(Ok(_)) => None,
            Ok(Err(e)) => Some(format!("server ended with {e}")),
            Err(_) => Some("server acceptor panicked".into()),
        }
    }
}

/// What the timed section produced.
struct Timed {
    start: Instant,
    end: Instant,
    exchanges: Vec<Exchange>,
    acks: Vec<Ack>,
    tracer: Tracer,
    before: (ServiceStats, CacheStats),
    after: (ServiceStats, CacheStats),
}

fn timed_section(
    inputs: &Inputs,
    served: &Served,
    seconds: u64,
    origin: Instant,
    traced: bool,
) -> Timed {
    let engine = served.engine();
    let before = (served.service.stats(), engine.cache_stats());
    let start = Instant::now() + LEAD;
    let span = Duration::from_secs(seconds);
    let end = start + span;
    let trace_from = traced.then(|| start + span / 2);
    let watermark = AtomicU32::new(inputs.live.as_ref().map_or(0, |l| l.cutoff));
    let pooled = |id: u64| inputs.pool[inputs.order[id as usize % inputs.order.len()]];
    // The held-out batches of `live_ingest`, spread evenly over the timed
    // section.
    let batches: Vec<_> = inputs
        .live
        .iter()
        .flat_map(|live| {
            let n = live.batches.len() as f64;
            live.batches
                .iter()
                .enumerate()
                .map(move |(i, (t, events))| (span.mul_f64(i as f64 / n), *t, events.clone()))
        })
        .collect();
    let mut tracer = Tracer::new(origin);
    // tkc-lint: allow(no-raw-threads) — the two load-generator clients stand outside the system under test and must not share its pools; the scope joins them before the run reports
    let (runs, acks) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2u64)
            .map(|conn| {
                let (watermark, reference, addr) = (&watermark, &inputs.reference, served.addr);
                scope.spawn(move || -> ClientRun {
                    let drive = |warmup, depth, query: &dyn Fn(u64) -> _| {
                        loadgen::closed_loop(
                            addr,
                            warmup,
                            (start, end),
                            depth,
                            (conn, 2),
                            &inputs.think,
                            query,
                            reference,
                            origin,
                            trace_from,
                        )
                    };
                    match (inputs.workload, &inputs.live) {
                        (Workload::BatchSweep, _) => drive(0, PIPELINE_DEPTH, &pooled),
                        (Workload::LiveIngest, Some(live)) => {
                            drive(WARMUP_PINGS, READ_DEPTH, &|id| {
                                live.read_at(watermark.load(Ordering::Acquire), id as usize)
                            })
                        }
                        _ => drive(WARMUP_PINGS, READ_DEPTH, &pooled),
                    }
                })
            })
            .collect();
        let acks = loadgen::ingest_loop(
            &served.service,
            start,
            batches,
            &watermark,
            &mut tracer,
            trace_from,
        );
        let runs: Vec<ClientRun> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        (runs, acks)
    });
    let mut exchanges = Vec::new();
    for run in runs {
        exchanges.extend(run.exchanges);
        tracer.merge(run.tracer);
    }
    exchanges.sort_by_key(|e| e.sent);
    let after = (served.service.stats(), engine.cache_stats());
    Timed {
        start,
        end,
        exchanges,
        acks,
        tracer,
        before,
        after,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            // tkc-lint: allow(no-println) — the benchmark is a command-line tool; a usage error goes to stderr
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut wrong: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..SETUPS {
        let (next, took, warm_wrong) = Served::start(&inputs);
        setups.push(took.as_secs_f64());
        wrong.extend(warm_wrong);
        if let Some(previous) = served.replace(next) {
            notes.extend(previous.stop());
        }
    }
    let served = served.expect("at least one set-up");
    let setup_s = nearest_rank(&setups, 0.5).expect("set-up samples");

    let origin = Instant::now();
    let mut timed = timed_section(&inputs, &served, args.seconds, origin, args.trace);
    let engine = served.engine();
    let index_mib = engine.cache_stats().resident_bytes as f64 / (1024.0 * 1024.0);
    let closed_rebuilds = if args.workload == Workload::LiveIngest {
        // Touch every shard once more: a shard closed before the timed
        // section (all but the base plan's tail) that ingest had
        // invalidated would rebuild here.
        for &k in &inputs.ks {
            engine.warm(k);
        }
        let closed = inputs.shards.len() - 1;
        let builds = |s: &CacheStats| {
            s.per_shard
                .iter()
                .take(closed)
                .map(|p| p.builds)
                .sum::<u64>()
        };
        builds(&engine.cache_stats()) - builds(&timed.before.1)
    } else {
        0
    };
    let split = timed.start + (timed.end - timed.start) / 2;
    let mut tracer = std::mem::replace(&mut timed.tracer, Tracer::new(origin));
    let samples = args.trace.then(|| {
        let sent: Vec<_> = timed
            .exchanges
            .iter()
            .filter(|e| e.sent >= split)
            .map(|e| (e.query, e.query.wire_line(e.id)))
            .collect();
        layers::replay(
            &served.service,
            engine,
            &sent,
            &inputs.ks,
            &inputs.reference,
            &mut tracer,
        )
    });
    let ok: Vec<&Exchange> = timed
        .exchanges
        .iter()
        .filter(|e| e.status == Status::Ok)
        .collect();
    for e in &timed.exchanges {
        match &e.status {
            Status::Ok => {}
            Status::Wrong(why) => wrong.push(format!("request {}: {why}", e.id)),
            Status::ErrorReply(code) => notes.push(format!("request {} failed: {code}", e.id)),
            Status::Transport(why) => notes.push(format!("request {} lost: {why}", e.id)),
        }
    }
    let ok_acks: Vec<&Ack> = timed.acks.iter().filter(|a| a.result.is_ok()).collect();
    for a in timed.acks.iter().filter_map(|a| a.result.as_ref().err()) {
        notes.push(format!("ingest batch failed: {a}"));
    }
    let attempted = (timed.exchanges.len() + timed.acks.len()) as u64;
    let failed = attempted - (ok.len() + ok_acks.len()) as u64;
    // Median latency of the untraced (first) or traced (second) half.
    let half_p50 = |traced: bool| {
        let half: Vec<f64> = ok
            .iter()
            .filter(|e| (e.sent >= split) == traced)
            .map(|e| e.latency_ms())
            .collect();
        or_zero(&half, 0.5)
    };
    // The requests span [first send, last reply].
    let first_sent = ok.iter().map(|e| e.sent).min().unwrap_or(timed.start);
    let last_recv = ok.iter().map(|e| e.recv).max().unwrap_or(timed.end);
    let wall = last_recv
        .saturating_duration_since(first_sent)
        .as_secs_f64();
    // End-to-end quantiles are medians over slices of that span (see
    // `quantile::sliced`), positioned by send time.
    let latency: Vec<(f64, f64)> = ok
        .iter()
        .map(|e| {
            let sent = e.sent.saturating_duration_since(first_sent);
            (ratio(sent.as_secs_f64(), wall), e.latency_ms())
        })
        .collect();
    let late: Vec<f64> = timed.acks.iter().map(Ack::late_ms).collect();
    let late_p99 = or_zero(&late, 0.99);
    let valid = late_p99 <= LATE_BOUND_MS;
    let error_rate = ratio(failed as f64, attempted as f64);

    let end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("latency_p50_ms", sliced(&latency, 0.5), "ms"),
        metric("latency_p95_ms", sliced(&latency, 0.95), "ms"),
        metric("throughput_rps", ratio(ok.len() as f64, wall), "req/s"),
        metric("ok_ratio", 1.0 - error_rate, "ratio"),
        metric("index_mib", index_mib, "MiB"),
    ];
    let per_layer = samples.map(|samples| {
        wrong.extend(samples.wrong.iter().cloned());
        let overhead = ratio(half_p50(true), half_p50(false)) - 1.0;
        layer_metrics(
            &timed,
            &ok_acks,
            &tracer,
            &samples,
            LoadgenCounts {
                attempted,
                ok: attempted - failed,
                failed,
                late_p99,
                valid,
            },
            closed_rebuilds,
            overhead,
        )
    });
    notes.extend(served.stop());

    if closed_rebuilds > 0 {
        wrong.push(format!(
            "{closed_rebuilds} closed-shard skylines were rebuilt"
        ));
    }
    notes.extend(wrong.iter().take(20).map(|w| format!("WRONG {w}")));
    if args.trace {
        notes.extend(write_spans(&args, &tracer).err());
    }
    let correct = wrong.is_empty() && failed == 0;
    let mut text = format!(
        "servebench {:?} on {} (seed {}, {} s, trace {}): {} attempted, {} failed, error_rate {} ratio, generator {}\n",
        inputs.workload,
        inputs.dataset,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        attempted,
        failed,
        error_rate,
        if valid { "on time" } else { "LATE: run invalid" },
    );
    for m in end_to_end.iter().chain(per_layer.as_deref().unwrap_or(&[])) {
        let _ = writeln!(text, "  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        text.push_str(&self_time_table(&tracer));
    }
    for note in &notes {
        let _ = writeln!(text, "servebench: {note}");
    }
    // tkc-lint: allow(no-println) — the benchmark is a command-line tool: a human-readable report on stderr, then the result line last on stdout
    eprint!("{text}");
    let metrics = per_layer.unwrap_or(end_to_end);
    // tkc-lint: allow(no-println) — see above: the JSON result line, last on stdout
    println!("{}", render_result(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

struct LoadgenCounts {
    attempted: u64,
    ok: u64,
    failed: u64,
    late_p99: f64,
    valid: bool,
}

fn layer_metrics(
    timed: &Timed,
    acks: &[&Ack],
    tracer: &Tracer,
    samples: &LayerSamples,
    loadgen: LoadgenCounts,
    closed_rebuilds: u64,
    overhead: f64,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let selfs = trace::self_times(spans);
    let transport = trace::self_us_of(spans, &selfs, "client.request");
    let ok = timed.exchanges.iter().filter(|e| e.status == Status::Ok);
    let queue_wait: Vec<f64> = ok.clone().map(|e| e.queue_wait_us as f64).collect();
    let execute: Vec<f64> = ok.map(|e| e.execute_us as f64).collect();
    let ((s0, c0), (s1, c1)) = (&timed.before, &timed.after);
    let wall = (timed.end - timed.start).as_secs_f64();
    let busy = (s1.execute_total - s0.execute_total).as_secs_f64() / (wall * WORKERS as f64);
    let hits = (c1.hits - c0.hits) as f64;
    let misses = (c1.misses - c0.misses) as f64;
    let shard_builds = |c: &CacheStats| c.per_shard.iter().map(|p| p.builds).sum::<u64>();
    let b_hits = (c1.boundary.hits - c0.boundary.hits) as f64;
    let b_builds = (c1.boundary.builds - c0.boundary.builds) as f64;
    let ack_ms: Vec<f64> = acks.iter().map(|a| a.latency_ms()).collect();
    let absorb_ms: Vec<f64> = acks
        .iter()
        .filter_map(|a| a.result.as_ref().ok().map(|&(_, absorb)| ms(absorb)))
        .collect();
    let ingest_wait_ms: Vec<f64> = acks
        .iter()
        .filter_map(|a| a.result.as_ref().ok().map(|&(wait, _)| ms(wait)))
        .collect();
    let collect_over_count = ratio(
        samples.collect_total.as_secs_f64(),
        samples.count_total.as_secs_f64(),
    );
    vec![
        metric("loadgen.late_ms.p99", loadgen.late_p99, "ms"),
        metric("loadgen.attempted", loadgen.attempted as f64, "count"),
        metric("loadgen.ok", loadgen.ok as f64, "count"),
        metric("loadgen.failed", loadgen.failed as f64, "count"),
        metric("loadgen.valid", f64::from(u8::from(loadgen.valid)), "bool"),
        metric("server.transport_us.p50", or_zero(&transport, 0.5), "us"),
        metric("server.transport_us.p95", or_zero(&transport, 0.95), "us"),
        metric("wire.parse_us.p50", or_zero(&samples.parse_us, 0.5), "us"),
        metric("wire.render_us.p50", or_zero(&samples.render_us, 0.5), "us"),
        metric(
            "wire.reply_bytes.p50",
            or_zero(&samples.reply_bytes, 0.5),
            "bytes",
        ),
        metric("service.queue_wait_us.p50", or_zero(&queue_wait, 0.5), "us"),
        metric(
            "service.queue_wait_us.p95",
            or_zero(&queue_wait, 0.95),
            "us",
        ),
        metric("service.execute_us.p50", or_zero(&execute, 0.5), "us"),
        metric("service.execute_us.p95", or_zero(&execute, 0.95), "us"),
        metric("service.busy_frac", busy, "ratio"),
        metric("service.shed", (s1.shed - s0.shed) as f64, "count"),
        metric(
            "service.rejected",
            (s1.rejected - s0.rejected) as f64,
            "count",
        ),
        metric(
            "service.max_queue_depth",
            s1.max_queue_depth as f64,
            "count",
        ),
        metric(
            "shard.inshard_us.p50",
            or_zero(&samples.inshard_us, 0.5),
            "us",
        ),
        metric(
            "shard.spanning_us.p50",
            or_zero(&samples.spanning_us, 0.5),
            "us",
        ),
        metric(
            "shard.spanning_us.p95",
            or_zero(&samples.spanning_us, 0.95),
            "us",
        ),
        metric("shard.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "shard.cache.builds",
            (shard_builds(c1) - shard_builds(c0)) as f64,
            "count",
        ),
        metric(
            "shard.boundary.hit_ratio",
            ratio(b_hits, b_hits + b_builds),
            "ratio",
        ),
        metric("shard.boundary.builds", b_builds, "count"),
        metric("ecs.build_ms", or_zero(&samples.ecs_build_ms, 0.5), "ms"),
        metric("ecs.windows", samples.ecs_windows as f64, "count"),
        metric(
            "ecs.restrict_us.p50",
            or_zero(&samples.restrict_us, 0.5),
            "us",
        ),
        metric("vct.index_ms", or_zero(&samples.vct_ms, 0.5), "ms"),
        metric(
            "enumerate.us.p50",
            or_zero(&samples.enumerate_us, 0.5),
            "us",
        ),
        metric(
            "enumerate.ns_per_result_edge",
            ratio(samples.enumerate_ns_total, samples.result_edges as f64),
            "ns",
        ),
        metric("request.collect_over_count", collect_over_count, "ratio"),
        metric("ingest.ack_ms.p50", or_zero(&ack_ms, 0.5), "ms"),
        metric("ingest.ack_ms.p95", or_zero(&ack_ms, 0.95), "ms"),
        metric("ingest.absorb_ms.p50", or_zero(&absorb_ms, 0.5), "ms"),
        metric("ingest.absorb_ms.p95", or_zero(&absorb_ms, 0.95), "ms"),
        metric(
            "ingest.queue_wait_ms.p95",
            or_zero(&ingest_wait_ms, 0.95),
            "ms",
        ),
        metric(
            "ingest.tail_invalidations",
            (c1.tail_invalidations - c0.tail_invalidations) as f64,
            "count",
        ),
        metric("ingest.seals", (c1.seals - c0.seals) as f64, "count"),
        metric("ingest.closed_rebuilds", closed_rebuilds as f64, "count"),
        metric("trace.overhead_frac", overhead, "ratio"),
    ]
}

/// Per span name: count, summed duration and summed self time, µs.
fn self_time_table(tracer: &Tracer) -> String {
    let mut text = format!(
        "  {:<24} {:>8} {:>14} {:>14}\n",
        "span", "count", "total_us", "self_us"
    );
    for (name, (count, total, own)) in trace::by_layer(tracer.spans()) {
        let _ = writeln!(
            text,
            "  {name:<24} {count:>8} {:>14.1} {:>14.1}",
            total as f64 / 1e3,
            own as f64 / 1e3
        );
    }
    text
}

/// Writes the traced run's spans (with self times) to
/// `servebench/out/spans-<workload>-<seed>.jsonl`.
fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new("servebench/out");
    let name = format!("spans-{:?}-{}.jsonl", args.workload, args.seed).to_lowercase();
    std::fs::create_dir_all(dir)
        .and_then(|()| {
            let mut file = std::io::BufWriter::new(std::fs::File::create(dir.join(name))?);
            tracer.write_jsonl(&mut file)
        })
        .map_err(|e| format!("cannot write spans: {e}"))
}
