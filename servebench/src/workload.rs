//! Seeded inputs of the three workloads, and their reference answers.
//!
//! Every workload takes the paper's defaults from `DatasetStats`
//! (`k = 30 % kmax`, range `= 10 % tmax`) unless stated otherwise.  The
//! graphs are the fixed dataset profiles and the windows a fixed pool; the
//! seed draws the order they are sent in (and `live_ingest`'s read lags),
//! so every seed asks for the same work.  References come from the unsharded
//! `TimeRangeKCoreQuery::run_with(.., Algorithm::Enum, CountingSink)` and
//! are computed before any timing starts.

use std::collections::HashMap;
use std::fmt::Write as _;

use std::time::Duration;

use temporal_graph::{TemporalGraph, TemporalGraphBuilder, TimeWindow, Timestamp, TimestampMode};
use tkc_datasets::{DatasetProfile, DatasetStats};
use tkcore::{Algorithm, CountingSink, IngestEvent, SealPolicy, ShardPlan, TimeRangeKCoreQuery};

use crate::Rng;

/// Shards of every served plan (`tkc serve --shards 4`).
pub const SHARDS: usize = 4;
/// Service workers (`tkc serve --workers 2`).
pub const WORKERS: usize = 2;
/// Outstanding requests per connection in the reads of `interactive` and
/// `live_ingest`: each connection writes its next request shortly after
/// the previous reply is read (see [`THINK_MAX`]).  A client that writes
/// promptly after it reads
/// stays in the kernel's delayed-ACK "ping-pong" mode, so every reply
/// waits out the server's 40 ms Nagle / delayed-ACK stall, the same way on
/// every run.  (An open loop with idle time between requests is bistable:
/// a connection idle for longer than the 40 ms delayed-ACK window after a
/// reply acknowledges the next one at once and sees no stall, and host
/// hiccups flip whole runs between the two regimes.)
pub const READ_DEPTH: usize = 1;
/// Upper end of the seeded think time a read connection waits between
/// reading a reply and sending its next request (uniform in `[0, THINK_MAX)`,
/// two 4 ms kernel ticks; far inside the 40 ms delayed-ACK window, so the
/// client stays in ping-pong mode).  The stall ends on a timer tick, so
/// without it every request would be sent just after a tick, and a reply
/// delayed past the next tick would cost a whole tick; with a random phase
/// a delayed reply costs about its delay.  Think time is not part of a
/// request's latency.
pub const THINK_MAX: Duration = Duration::from_millis(8);
/// Seeded think times drawn per run (cycled by request id).
const THINK_SAMPLES: usize = 4096;
/// Back-to-back `ping` exchanges each read connection makes before its
/// first request, to enter that ping-pong mode (a fresh connection starts
/// out acknowledging at once).
pub const WARMUP_PINGS: usize = 4;
/// Outstanding requests per connection in `batch_sweep`'s closed loop.
pub const PIPELINE_DEPTH: usize = 16;
/// Deadline of every interactive-lane request.
pub const DEADLINE_MS: u64 = 500;
/// Whole rounds of the window pool in the send order of `interactive` and
/// `batch_sweep` (cycled when a run sends more requests).
const CLOSED_ROUNDS: usize = 64;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Back-to-back single-`k` in-shard `cores` queries on the interactive
    /// lane.
    Interactive,
    /// Closed-loop pipelined `k..k+2` sweeps over windows crossing a cut.
    BatchSweep,
    /// Back-to-back reads at the ingest watermark while held-out events land.
    LiveIngest,
}

impl std::str::FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "interactive" => Ok(Self::Interactive),
            "batch_sweep" => Ok(Self::BatchSweep),
            "live_ingest" => Ok(Self::LiveIngest),
            other => Err(format!(
                "unknown workload `{other}` (interactive, batch_sweep, live_ingest)"
            )),
        }
    }
}

/// One query as the benchmark sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Lowest `k` (`k` itself for single-`k` queries).
    pub k_min: usize,
    /// Highest `k`.
    pub k_max: usize,
    /// Query window.
    pub window: TimeWindow,
    /// `"output": "cores"` (materialize) rather than `"count"`.
    pub cores: bool,
    /// Batch lane without a deadline, rather than interactive with one.
    pub batch: bool,
}

impl Query {
    /// The request line (no trailing newline) carrying client id `id`.
    pub fn wire_line(&self, id: u64) -> String {
        let mut line = format!("{{\"id\":{id},");
        if self.k_min == self.k_max {
            let _ = write!(line, "\"k\":{},", self.k_min);
        } else {
            let _ = write!(line, "\"k_min\":{},\"k_max\":{},", self.k_min, self.k_max);
        }
        let _ = write!(
            line,
            "\"start\":{},\"end\":{},\"output\":\"{}\"",
            self.window.start(),
            self.window.end(),
            if self.cores { "cores" } else { "count" }
        );
        if self.batch {
            line.push_str(",\"lane\":\"batch\"}");
        } else {
            let _ = write!(
                line,
                ",\"lane\":\"interactive\",\"deadline_ms\":{DEADLINE_MS}}}"
            );
        }
        line
    }

    /// The per-`k` engine queries this request expands to.
    pub fn per_k(&self) -> impl Iterator<Item = TimeRangeKCoreQuery> + '_ {
        (self.k_min..=self.k_max)
            .map(|k| TimeRangeKCoreQuery::new(k, self.window).expect("workload k >= 1"))
    }
}

/// Reference `(cores, result_edges)` per `(k, window)`.
#[derive(Debug, Default, Clone)]
pub struct Reference(HashMap<(usize, TimeWindow), (u64, u64)>);

impl Reference {
    /// Computes (once) the reference of every `k` of `query` on `graph`.
    pub fn add(&mut self, graph: &TemporalGraph, query: &Query) {
        for q in query.per_k() {
            self.0.entry((q.k(), q.range())).or_insert_with(|| {
                let mut sink = CountingSink::default();
                q.run_with(graph, Algorithm::Enum, &mut sink);
                (sink.num_cores, sink.total_edges)
            });
        }
    }

    /// The reference answer for `k` over `window`, when computed.
    pub fn get(&self, k: usize, window: TimeWindow) -> Option<(u64, u64)> {
        self.0.get(&(k, window)).copied()
    }
}

/// The held-out tail of `live_ingest`: one batch per timestamp.
#[derive(Debug, Clone)]
pub struct LiveInputs {
    /// Last timestamp of the base graph.
    pub cutoff: Timestamp,
    /// Read `k`.
    pub k: usize,
    /// Read window length.
    pub range: u32,
    /// `(t, events at t)` in time order.
    pub batches: Vec<(Timestamp, Vec<IngestEvent>)>,
    /// Seeded per-read lag below the watermark, cycled over the reads.
    pub lags: Vec<Timestamp>,
}

/// Largest seeded lag of a `live_ingest` read window below the watermark.
const MAX_LAG: Timestamp = 3;

impl LiveInputs {
    /// Read number `i`, sent while timestamps up to `acked` are absorbed: a
    /// window of `range` ending `1 + lag` below that watermark.
    pub fn read_at(&self, acked: Timestamp, i: usize) -> Query {
        let end = acked - 1 - self.lags[i % self.lags.len()];
        Query {
            k_min: self.k,
            k_max: self.k,
            window: TimeWindow::new(end + 1 - self.range, end),
            cores: true,
            batch: false,
        }
    }
}

/// Everything one run needs, generated before any timing.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// Dataset profile name.
    pub dataset: &'static str,
    /// Graph the service starts from.
    pub graph: TemporalGraph,
    /// Shard intervals of the served plan over `graph`.
    pub shards: Vec<TimeWindow>,
    /// Seal policy of the served engine.
    pub seal: SealPolicy,
    /// `k` values warmed in setup.
    pub ks: Vec<usize>,
    /// Distinct queries (the setup pass runs each once).
    pub pool: Vec<Query>,
    /// Pool indices in send order (`interactive`, `batch_sweep`).
    pub order: Vec<usize>,
    /// References of every query the run can send.
    pub reference: Reference,
    /// The ingest replay of `live_ingest`.
    pub live: Option<LiveInputs>,
    /// Think time before each read request, by request id (cycled); empty
    /// for `batch_sweep`, whose connections keep a pipeline full.
    pub think: Vec<Duration>,
}

/// The pool indices of `sends` requests: every one of the `pool` windows
/// equally often, the remainder an evenly spaced subset that does not
/// depend on the seed, all shuffled by `rng`.  Every seed thus sends the
/// same multiset of windows and differs only in their order.
pub fn send_order(pool: usize, sends: usize, rng: &mut Rng) -> Vec<usize> {
    let rest = sends % pool;
    let mut order: Vec<usize> = (0..sends / pool)
        .flat_map(|_| 0..pool)
        .chain((0..rest).map(|i| i * pool / rest))
        .collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.range(0, i as u64) as usize);
    }
    order
}

fn profile_graph(name: &str) -> TemporalGraph {
    DatasetProfile::by_name(name)
        .expect("built-in dataset profile")
        .generate()
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut inputs = match workload {
            Workload::Interactive | Workload::BatchSweep => {
                let graph = profile_graph("EM");
                let stats = DatasetStats::compute(&graph);
                let k = stats.k_for_percent(30);
                let shards = ShardPlan::FixedCount(SHARDS)
                    .resolve(&graph)
                    .expect("EM resolves into four shards");
                let pool: Vec<Query> = if workload == Workload::Interactive {
                    // Every window of 10 % tmax that lies inside one shard.
                    let len = stats.range_len_for_percent(10);
                    shards
                        .iter()
                        .flat_map(|shard| {
                            let last = shard.end().saturating_sub(len - 1).max(shard.start());
                            (shard.start()..=last).map(move |start| {
                                TimeWindow::new(start, (start + len - 1).min(shard.end()))
                            })
                        })
                        .map(|window| Query {
                            k_min: k,
                            k_max: k,
                            window,
                            cores: true,
                            batch: false,
                        })
                        .collect()
                } else {
                    // Every window of about 20 % tmax whose centre lies
                    // within a quarter of its half-width of a shard cut, so
                    // every request crosses that cut.
                    let half = stats.range_len_for_percent(20) / 2;
                    let jitter = half / 4;
                    shards[..SHARDS - 1]
                        .iter()
                        .flat_map(|shard| {
                            let cut = shard.end();
                            (cut - jitter..=cut + jitter).map(move |centre| {
                                TimeWindow::new(centre.saturating_sub(half).max(1), centre + half)
                            })
                        })
                        .map(|window| Query {
                            k_min: k,
                            k_max: k + 2,
                            window,
                            cores: false,
                            batch: true,
                        })
                        .collect()
                };
                let order = send_order(pool.len(), CLOSED_ROUNDS * pool.len(), &mut rng);
                let mut reference = Reference::default();
                for query in &pool {
                    reference.add(&graph, query);
                }
                Inputs {
                    workload,
                    dataset: "EM",
                    ks: (pool[0].k_min..=pool[0].k_max).collect(),
                    graph,
                    shards,
                    seal: SealPolicy::Manual,
                    pool,
                    order,
                    reference,
                    live: None,
                    think: Vec::new(),
                }
            }
            Workload::LiveIngest => Self::live(&mut rng),
        };
        if workload != Workload::BatchSweep {
            let max_us = THINK_MAX.as_micros() as u64;
            inputs.think = (0..THINK_SAMPLES)
                .map(|_| Duration::from_micros(rng.range(0, max_us - 1)))
                .collect();
        }
        inputs
    }

    /// `live_ingest`: CM split after the first quarter of its timeline; the
    /// other three quarters (about 290 timestamps, one batch each, so the
    /// ack p95 has over ten samples above it) are replayed.  The base graph
    /// is served with a `SpanWidth(tmax / 4)` tail, so the replay seals
    /// three times.
    fn live(rng: &mut Rng) -> Inputs {
        let profile = profile_graph("CM");
        // Exact duplicate occurrences cannot be appended; drop them from
        // base and tail alike so the final snapshot equals `full`.
        let mut events: Vec<(u64, u64, Timestamp)> = profile
            .edges()
            .iter()
            .map(|e| {
                let (a, b) = (profile.label(e.u), profile.label(e.v));
                (a.min(b), a.max(b), e.t)
            })
            .collect();
        events.sort_unstable_by_key(|&(u, v, t)| (t, u, v));
        events.dedup();
        let build = |evs: &[(u64, u64, Timestamp)]| {
            TemporalGraphBuilder::new()
                .timestamp_mode(TimestampMode::Raw)
                .with_edges(evs.iter().map(|&(u, v, t)| (u, v, i64::from(t))))
                .build()
                .expect("CM events form a graph")
        };
        let full = build(&events);
        let stats = DatasetStats::compute(&full);
        let tmax = full.tmax();
        let cutoff = tmax / 4;
        let split = events.partition_point(|&(_, _, t)| t <= cutoff);
        let graph = build(&events[..split]);
        let mut batches: Vec<(Timestamp, Vec<IngestEvent>)> = Vec::new();
        for &event in &events[split..] {
            match batches.last_mut() {
                Some((t, batch)) if *t == event.2 => batch.push(event),
                _ => batches.push((event.2, vec![event])),
            }
        }
        let live = LiveInputs {
            cutoff,
            k: stats.k_for_percent(30),
            range: stats.range_len_for_percent(10),
            batches,
            lags: (0..1024)
                .map(|_| rng.range(0, MAX_LAG.into()) as Timestamp)
                .collect(),
        };
        let mut reference = Reference::default();
        for acked in cutoff..=tmax {
            for lag in 0..=MAX_LAG {
                let probe = LiveInputs {
                    lags: vec![lag],
                    ..live.clone()
                };
                reference.add(&full, &probe.read_at(acked, 0));
            }
        }
        let shards = ShardPlan::FixedCount(SHARDS)
            .resolve(&graph)
            .expect("CM base resolves into four shards");
        Inputs {
            workload: Workload::LiveIngest,
            dataset: "CM",
            ks: vec![live.k],
            pool: vec![live.read_at(cutoff, 0)],
            order: Vec::new(),
            seal: SealPolicy::SpanWidth((tmax / 4).max(1)),
            graph,
            shards,
            reference,
            live: Some(live),
            think: Vec::new(),
        }
    }
}
