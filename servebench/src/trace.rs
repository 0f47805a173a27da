//! In-memory spans recorded around the benchmark's calls into each layer,
//! and the self-time arithmetic over them.
//!
//! A span is `(name, start, end, parent, request)`.  Spans of one request
//! share the request id; a child's `parent` is the index of the span that
//! caused it.  Some phases are reported by the server rather than timed by
//! the benchmark (a reply's `queue_wait_us` / `execute_us`): the reply
//! carries their durations only, so [`Tracer::phases`] places them back to
//! back from the parent's start, clipped to the parent's end.  Their
//! placement inside the parent does not change the parent's self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the causing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request.
    pub request: u64,
}

impl Span {
    /// `end - start`, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span buffer sharing one time origin.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty buffer timing from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span timed by the benchmark; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let start_ns = self.ns(start);
        let end_ns = self.ns(end).max(start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Records the server-reported phases of span `parent` (durations
    /// only) back to back from its start, each clipped to its end.
    pub fn phases(&mut self, parent: usize, phases: &[(&'static str, Duration)]) {
        let (mut at, end, request) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.request)
        };
        for &(name, duration) in phases {
            let stop = (at + duration.as_nanos() as u64).min(end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
                request,
            });
            at = stop;
        }
    }

    /// Appends every span of `other` (recorded against the same origin),
    /// re-indexing its parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, each with its self time.
    ///
    /// # Errors
    /// The I/O error of the first failed write.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; parts of a
/// child outside its parent count not at all).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self times of the spans named `name`, µs.
pub fn self_us_of(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}

/// Per span name: `(count, summed duration ns, summed self ns)`, sorted by
/// name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut table = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = table.entry(s.name).or_insert((0, 0, 0));
        row.0 += 1;
        row.1 += s.duration_ns();
        row.2 += own;
    }
    table
}
