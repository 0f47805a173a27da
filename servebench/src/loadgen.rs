//! The load generator: open- and closed-loop clients over loopback, and the
//! in-process ingest replay.  Every reply is checked against the reference
//! as it arrives.
//!
//! Each connection is driven by one thread that keeps a fixed number of
//! request lines outstanding, writing the next one as soon as a reply line
//! comes back; requests are timed from their send.  The ingest replay is an
//! open loop timed from each batch's scheduled send time, and the lateness
//! of the replay is kept per batch.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use temporal_graph::Timestamp;
use tkcore::{CoreService, IngestEvent};

use crate::reply::{parse_reply, Reply};
use crate::trace::Tracer;
use crate::workload::{Query, Reference};

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// An `ok` reply whose every per-`k` count equals the reference.
    Ok,
    /// An `ok` reply that disagrees with the reference (or is malformed).
    Wrong(String),
    /// An `error` reply (refused, shed, failed).
    ErrorReply(String),
    /// The connection failed before a reply arrived.
    Transport(String),
}

/// One request and its reply.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Client id of the request.
    pub id: u64,
    /// The query the request carried.
    pub query: Query,
    /// When its line was written.
    pub sent: Instant,
    /// When its reply line was read.
    pub recv: Instant,
    /// Outcome.
    pub status: Status,
    /// Reply `queue_wait_us` (0 unless `Ok`).
    pub queue_wait_us: u64,
    /// Reply `execute_us` (0 unless `Ok`).
    pub execute_us: u64,
}

impl Exchange {
    /// Client latency from the send, ms.
    pub fn latency_ms(&self) -> f64 {
        self.recv.saturating_duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// Sleeps until shortly before `due`, then spins to it, so the timer's
/// wake-up slack does not land in the latency timed from `due`.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(500);
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Checks one reply line against the request it answers: the echoed client
/// `id` (replies come back in order) and the reference answers of `query`.
pub fn check(line: &str, id: u64, query: &Query, reference: &Reference) -> (Status, u64, u64) {
    let reply = match parse_reply(line.trim_end()) {
        Ok(reply) => reply,
        Err(defect) => return (Status::Wrong(format!("unparsable reply: {defect}")), 0, 0),
    };
    let (echoed, window, outcomes, queue_wait_us, execute_us) = match reply {
        Reply::Error { code, .. } => return (Status::ErrorReply(code), 0, 0),
        Reply::Ok {
            id,
            window,
            outcomes,
            queue_wait_us,
            execute_us,
        } => (id, window, outcomes, queue_wait_us, execute_us),
    };
    let expected_window = (
        u64::from(query.window.start()),
        u64::from(query.window.end()),
    );
    let status = if echoed != Some(id) {
        Status::Wrong(format!("reply for id {echoed:?} to request {id}"))
    } else if window != expected_window {
        Status::Wrong(format!("window {window:?}, sent {expected_window:?}"))
    } else if outcomes.len() != query.k_max - query.k_min + 1 {
        Status::Wrong(format!("{} outcomes for {:?}", outcomes.len(), query))
    } else {
        outcomes
            .iter()
            .zip(query.k_min..=query.k_max)
            .find_map(|(o, k)| {
                let want = reference.get(k, query.window);
                (o.k != k as u64 || want != Some((o.cores, o.result_edges))).then(|| {
                    Status::Wrong(format!(
                        "k={k} {:?}: got {:?}, reference {want:?}",
                        query.window, o
                    ))
                })
            })
            .unwrap_or(Status::Ok)
    };
    (status, queue_wait_us, execute_us)
}

/// One loopback connection with line framing.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // The client sends each request in one write with Nagle off, so any
        // stall measured is the server's.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<&str> {
        self.buf.clear();
        match self.reader.read_line(&mut self.buf)? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            _ => Ok(&self.buf),
        }
    }
}

/// Per-thread results of a client loop.
pub struct ClientRun {
    /// Every attempted request, in send order.
    pub exchanges: Vec<Exchange>,
    /// `client.request` spans (with the server-reported phases as children)
    /// of the requests sent at or after the trace start.
    pub tracer: Tracer,
}

/// Records the `client.request` span of a traced `Ok` exchange, with the
/// server-reported phases as its children.
fn trace_exchange(tracer: &mut Tracer, trace_from: Option<Instant>, exchange: &Exchange) {
    if trace_from.is_some_and(|from| exchange.sent >= from) && exchange.status == Status::Ok {
        let span = tracer.record(
            "client.request",
            exchange.sent,
            exchange.recv,
            None,
            exchange.id,
        );
        tracer.phases(
            span,
            &[
                (
                    "service.queue_wait",
                    Duration::from_micros(exchange.queue_wait_us),
                ),
                (
                    "service.execute",
                    Duration::from_micros(exchange.execute_us),
                ),
            ],
        );
    }
}

fn transport_failure(id: u64, query: Query, sent: Instant, error: &std::io::Error) -> Exchange {
    Exchange {
        id,
        query,
        sent,
        recv: Instant::now(),
        status: Status::Transport(error.to_string()),
        queue_wait_us: 0,
        execute_us: 0,
    }
}

/// Closed loop on one connection: from `start`, after `warmup` back-to-back
/// pings, keep `depth` requests outstanding until `end`, then drain.
/// Request ids are `first, first + stride, …`; request `id` is sent
/// `think[id % think.len()]` after the last reply was read (at once when
/// `think` is empty), built by `query(id)` then, and timed from its send.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    warmup: usize,
    (start, end): (Instant, Instant),
    depth: usize,
    (first, stride): (u64, u64),
    think: &[Duration],
    query: impl Fn(u64) -> Query,
    reference: &Reference,
    origin: Instant,
    trace_from: Option<Instant>,
) -> ClientRun {
    let mut tracer = Tracer::new(origin);
    let mut exchanges = Vec::new();
    // The pings run at `start`, right before the first request, so that no
    // idle gap between them lets the connection leave ping-pong mode.
    let opened = Conn::open(addr).and_then(|mut c| {
        wait_until(start);
        for _ in 0..warmup {
            c.send("{\"op\":\"ping\"}")?;
            c.recv()?;
        }
        Ok(c)
    });
    let mut conn = match opened {
        Ok(c) => c,
        Err(e) => {
            exchanges.push(transport_failure(first, query(first), Instant::now(), &e));
            return ClientRun { exchanges, tracer };
        }
    };
    let mut in_flight = std::collections::VecDeque::new();
    let mut next = first;
    let mut last_read = Instant::now();
    loop {
        while in_flight.len() < depth && Instant::now() < end {
            if !think.is_empty() {
                wait_until(last_read + think[next as usize % think.len()]);
            }
            let q = query(next);
            let line = q.wire_line(next);
            let sent = Instant::now();
            if let Err(e) = conn.send(&line) {
                exchanges.push(transport_failure(next, q, sent, &e));
                return ClientRun { exchanges, tracer };
            }
            in_flight.push_back((next, q, sent));
            next += stride;
        }
        let Some((id, q, sent)) = in_flight.pop_front() else {
            break;
        };
        let exchange = match conn.recv() {
            Ok(reply) => {
                let recv = Instant::now();
                last_read = recv;
                let (status, queue_wait_us, execute_us) = check(reply, id, &q, reference);
                Exchange {
                    id,
                    query: q,
                    sent,
                    recv,
                    status,
                    queue_wait_us,
                    execute_us,
                }
            }
            Err(e) => {
                exchanges.push(transport_failure(id, q, sent, &e));
                for (id, q, sent) in in_flight.drain(..) {
                    exchanges.push(transport_failure(id, q, sent, &e));
                }
                return ClientRun { exchanges, tracer };
            }
        };
        trace_exchange(&mut tracer, trace_from, &exchange);
        exchanges.push(exchange);
    }
    ClientRun { exchanges, tracer }
}

/// One replayed ingest batch and its ack.
#[derive(Debug, Clone)]
pub struct Ack {
    /// When the batch was due.
    pub scheduled: Instant,
    /// When `submit_append` was called.
    pub sent: Instant,
    /// When `IngestTicket::wait` returned.
    pub acked: Instant,
    /// The ingest reply's queue wait and absorb time, or the error code.
    pub result: Result<(Duration, Duration), String>,
}

impl Ack {
    /// Ack latency from the scheduled send time, ms.
    pub fn latency_ms(&self) -> f64 {
        self.acked
            .saturating_duration_since(self.scheduled)
            .as_secs_f64()
            * 1e3
    }

    /// How late the replay submitted the batch, ms.
    pub fn late_ms(&self) -> f64 {
        self.sent
            .saturating_duration_since(self.scheduled)
            .as_secs_f64()
            * 1e3
    }
}

/// Replays `batches` (`(due offset, timestamp, events)`) through
/// `CoreService::submit_append` in an open loop, waiting for each ack and
/// publishing its timestamp to `watermark` once absorbed.
pub fn ingest_loop(
    service: &CoreService,
    start: Instant,
    batches: Vec<(Duration, Timestamp, Vec<IngestEvent>)>,
    watermark: &AtomicU32,
    tracer: &mut Tracer,
    trace_from: Option<Instant>,
) -> Vec<Ack> {
    let mut acks = Vec::with_capacity(batches.len());
    for (i, (due, t, events)) in batches.into_iter().enumerate() {
        let scheduled = start + due;
        wait_until(scheduled);
        let sent = Instant::now();
        let result = service
            .submit_append(events)
            .and_then(|ticket| ticket.wait());
        let acked = Instant::now();
        let result = match result {
            Ok(reply) => {
                // Release pairs with the readers' Acquire load: a read built
                // from this watermark is sent after the absorb that
                // published it.
                watermark.store(t, Ordering::Release);
                if trace_from.is_some_and(|from| sent >= from) {
                    let span = tracer.record("ingest.batch", sent, acked, None, i as u64);
                    tracer.phases(
                        span,
                        &[
                            ("ingest.queue_wait", reply.queue_wait),
                            ("ingest.absorb", reply.absorb_time),
                        ],
                    );
                }
                Ok((reply.queue_wait, reply.absorb_time))
            }
            Err(e) => Err(e.code().to_string()),
        };
        acks.push(Ack {
            scheduled,
            sent,
            acked,
            result,
        });
    }
    acks
}
