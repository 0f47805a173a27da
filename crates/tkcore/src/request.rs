//! The typed, fallible request front end: [`QueryRequest`] →
//! [`ValidatedRequest`] → [`QueryResponse`].
//!
//! A request generalises the paper's `(k, [Ts, Te])` problem statement to
//! the shapes a serving layer meets in practice:
//!
//! * a **single `k`** (the paper's query),
//! * a **multi-`k` set** (`{2, 5, 9}` for one dashboard panel each),
//! * a **`k`-range sweep** (`k_min..=k_max`, e.g. to find the largest `k`
//!   with a non-empty answer) — through a [`crate::ShardedBackend`] a sweep
//!   costs at most one index build per `(shard, k)` touched by the window
//!   (one per `k` on the unsharded [`crate::ShardPlan::Span`] layout);
//!
//! crossed with an [`OutputMode`]: materialise every core, count them, or
//! stream them into a caller-supplied sink.
//!
//! Construction is infallible and graph-independent; [`QueryRequest::validate`]
//! checks the request against a concrete graph and returns a typed
//! [`TkError`] for malformed input (`k == 0`, empty windows, windows past
//! the last timestamp) instead of panicking.  The resulting
//! [`ValidatedRequest`] executes against any [`CoreBackend`].

use std::fmt;
use std::ops::RangeInclusive;

use crate::backend::CoreBackend;
use crate::error::TkError;
use crate::query::QueryStats;
use crate::result::TemporalKCore;
use crate::sink::{CollectingSink, CountingSink, ResultSink};
use temporal_graph::{TemporalGraph, TimeWindow, Timestamp};

/// Which `k` values a request covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KSelection {
    /// The paper's single-`k` query.
    Single(usize),
    /// An explicit set of `k` values, executed in the given order
    /// (duplicates are collapsed).
    Set(Vec<usize>),
    /// An inclusive sweep `min..=max`, executed in increasing order.
    Range {
        /// Smallest `k` of the sweep (inclusive).
        min: usize,
        /// Largest `k` of the sweep (inclusive).
        max: usize,
    },
}

impl KSelection {
    fn expand(&self) -> Result<Vec<usize>, TkError> {
        let ks: Vec<usize> = match self {
            KSelection::Single(k) => vec![*k],
            KSelection::Set(ks) => {
                let mut seen = Vec::with_capacity(ks.len());
                for &k in ks {
                    if !seen.contains(&k) {
                        seen.push(k);
                    }
                }
                seen
            }
            KSelection::Range { min, max } => {
                if min > max {
                    return Err(TkError::EmptyKSelection);
                }
                (*min..=*max).collect()
            }
        };
        if ks.is_empty() {
            return Err(TkError::EmptyKSelection);
        }
        if let Some(&k) = ks.iter().find(|&&k| k == 0) {
            return Err(TkError::KOutOfRange { k });
        }
        Ok(ks)
    }
}

/// What a request does with the cores it finds.
#[derive(Default)]
pub enum OutputMode {
    /// Collect every core, returned per `k` in canonical order.
    Materialize,
    /// Count cores and result edges without materialising them (what the
    /// paper's experiments do, since `|R|` routinely exceeds memory).
    #[default]
    Count,
    /// Stream every core into the supplied sink; for multi-`k` requests the
    /// same sink sees all `k` values in execution order.  The sink is handed
    /// back in [`QueryResponse::sink`].
    Stream(Box<dyn ResultSink + Send>),
}

impl fmt::Debug for OutputMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutputMode::Materialize => f.write_str("Materialize"),
            OutputMode::Count => f.write_str("Count"),
            OutputMode::Stream(_) => f.write_str("Stream(..)"),
        }
    }
}

/// A not-yet-validated time-range temporal k-core request.
///
/// Built from raw parameters (so malformed input is representable and
/// rejected with a typed error at [`QueryRequest::validate`] time), then
/// executed against any [`CoreBackend`] with [`QueryRequest::run`].
///
/// # Example
///
/// ```
/// use tkcore::{paper_example, Algorithm, KOutput, QueryRequest};
///
/// let graph = paper_example::graph();
/// let response = QueryRequest::single(2, 1, 4)
///     .materialize()
///     .run(&graph, &Algorithm::Enum)
///     .unwrap();
/// let KOutput::Cores(cores) = &response.outcomes[0].output else {
///     panic!("materialized request");
/// };
/// assert_eq!(cores.len(), 2); // Figure 2 of the paper
/// ```
#[derive(Debug)]
pub struct QueryRequest {
    ks: KSelection,
    start: Timestamp,
    end: Timestamp,
    mode: OutputMode,
}

impl QueryRequest {
    /// A single-`k` request over the raw window `[start, end]` (the paper's
    /// problem statement).  An `end` past the graph's last timestamp is
    /// clamped at validation, so `QueryRequest::single(k, 1, Timestamp::MAX)`
    /// queries the whole span.
    pub fn single(k: usize, start: Timestamp, end: Timestamp) -> Self {
        Self::with_selection(KSelection::Single(k), start, end)
    }

    /// A multi-`k` request: one execution per distinct `k`, same window.
    pub fn multi(ks: impl Into<Vec<usize>>, start: Timestamp, end: Timestamp) -> Self {
        Self::with_selection(KSelection::Set(ks.into()), start, end)
    }

    /// A `k`-range sweep `ks.start()..=ks.end()` over `[start, end]`.
    pub fn sweep(ks: RangeInclusive<usize>, start: Timestamp, end: Timestamp) -> Self {
        Self::with_selection(
            KSelection::Range {
                min: *ks.start(),
                max: *ks.end(),
            },
            start,
            end,
        )
    }

    /// A request with an explicit [`KSelection`].
    pub fn with_selection(ks: KSelection, start: Timestamp, end: Timestamp) -> Self {
        Self {
            ks,
            start,
            end,
            mode: OutputMode::Count,
        }
    }

    /// Sets the output mode (the default is [`OutputMode::Count`]).
    pub fn output(mut self, mode: OutputMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for `.output(OutputMode::Materialize)`.
    pub fn materialize(self) -> Self {
        self.output(OutputMode::Materialize)
    }

    /// Shorthand for `.output(OutputMode::Count)`.
    pub fn count(self) -> Self {
        self.output(OutputMode::Count)
    }

    /// Shorthand for `.output(OutputMode::Stream(sink))`.
    pub fn stream(self, sink: Box<dyn ResultSink + Send>) -> Self {
        self.output(OutputMode::Stream(sink))
    }

    /// The requested `k` selection.
    pub fn selection(&self) -> &KSelection {
        &self.ks
    }

    /// The raw (unvalidated) requested window as `(start, end)`.
    pub fn window_bounds(&self) -> (Timestamp, Timestamp) {
        (self.start, self.end)
    }

    /// Checks the request against a concrete graph.
    ///
    /// The window's `end` is clamped to the graph's last timestamp (an
    /// overhanging query is a valid question with a smaller answer); all
    /// other defects are typed errors.
    ///
    /// # Errors
    /// * [`TkError::KOutOfRange`] — some selected `k` is `0`;
    /// * [`TkError::EmptyKSelection`] — the selection contains no `k`;
    /// * [`TkError::EmptyWindow`] — `start == 0` or `start > end`;
    /// * [`TkError::WindowPastTmax`] — `start` exceeds `graph.tmax()`.
    pub fn validate(self, graph: &TemporalGraph) -> Result<ValidatedRequest, TkError> {
        let ks = self.ks.expand()?;
        let Some(window) = TimeWindow::try_new(self.start, self.end) else {
            return Err(TkError::EmptyWindow {
                start: self.start,
                end: self.end,
            });
        };
        let window = crate::backend::validate_query(graph, ks[0], window)?;
        Ok(ValidatedRequest {
            ks,
            window,
            mode: self.mode,
        })
    }

    /// Validates against `graph` and executes on `backend` in one step.
    ///
    /// # Errors
    /// Everything [`QueryRequest::validate`] rejects, plus any execution
    /// error of the backend.
    pub fn run(
        self,
        graph: &TemporalGraph,
        backend: &dyn CoreBackend,
    ) -> Result<QueryResponse, TkError> {
        self.validate(graph)?.execute(graph, backend)
    }
}

/// A request that passed [`QueryRequest::validate`]: every `k` is `>= 1`,
/// and the window is non-empty, within the graph span, and clamped.
#[derive(Debug)]
pub struct ValidatedRequest {
    ks: Vec<usize>,
    window: TimeWindow,
    mode: OutputMode,
}

impl ValidatedRequest {
    /// The distinct `k` values, in execution order.
    pub fn ks(&self) -> &[usize] {
        &self.ks
    }

    /// The validated, span-clamped query window.
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// The output mode the request was built with.
    pub fn mode(&self) -> &OutputMode {
        &self.mode
    }

    /// Executes every `(k, window)` pair on `backend`, consuming the request.
    ///
    /// # Errors
    /// Propagates the backend's execution errors (validation has already
    /// passed, so [`CoreBackend`] input errors cannot occur here for the
    /// graph the request was validated against).
    pub fn execute(
        self,
        graph: &TemporalGraph,
        backend: &dyn CoreBackend,
    ) -> Result<QueryResponse, TkError> {
        let ValidatedRequest { ks, window, mode } = self;
        let mut outcomes = Vec::with_capacity(ks.len());
        let materialize = matches!(mode, OutputMode::Materialize);
        let mut streamed_sink = match mode {
            OutputMode::Stream(sink) => Some(sink),
            _ => None,
        };
        for k in ks {
            let outcome = if let Some(sink) = streamed_sink.as_mut() {
                let stats = backend.execute(graph, k, window, sink.as_mut())?;
                KOutcome {
                    k,
                    stats,
                    output: KOutput::Streamed,
                }
            } else if materialize {
                let mut sink = CollectingSink::default();
                let stats = backend.execute(graph, k, window, &mut sink)?;
                KOutcome {
                    k,
                    stats,
                    output: KOutput::Cores(sink.into_sorted()),
                }
            } else {
                let mut sink = CountingSink::default();
                let stats = backend.execute(graph, k, window, &mut sink)?;
                KOutcome {
                    k,
                    stats,
                    output: KOutput::Counts(sink),
                }
            };
            outcomes.push(outcome);
        }
        Ok(QueryResponse {
            window,
            outcomes,
            sink: streamed_sink,
        })
    }
}

/// Per-`k` result payload of a [`QueryResponse`].
#[derive(Debug)]
pub enum KOutput {
    /// All distinct cores of this `k`, in canonical order
    /// ([`OutputMode::Materialize`]).
    Cores(Vec<TemporalKCore>),
    /// Core and result-edge counts ([`OutputMode::Count`]).
    Counts(CountingSink),
    /// Results went to the caller's sink ([`OutputMode::Stream`]); counts
    /// are still available in the accompanying [`QueryStats`].
    Streamed,
}

/// Outcome of one `k` of a request: per-phase statistics plus the output in
/// the requested mode.
#[derive(Debug)]
pub struct KOutcome {
    /// The query parameter this outcome belongs to.
    pub k: usize,
    /// Per-phase timings and counts of this `k`'s execution.
    pub stats: QueryStats,
    /// The result payload in the requested [`OutputMode`].
    pub output: KOutput,
}

/// Everything a request produced: one [`KOutcome`] per `k`, in execution
/// order, plus the streaming sink handed back to the caller.
pub struct QueryResponse {
    /// The validated window the request actually ran over (end clamped to
    /// the graph's last timestamp).
    pub window: TimeWindow,
    /// Per-`k` outcomes, in execution order.
    pub outcomes: Vec<KOutcome>,
    /// For [`OutputMode::Stream`] requests, the sink that received every
    /// core; `None` otherwise.
    pub sink: Option<Box<dyn ResultSink + Send>>,
}

impl fmt::Debug for QueryResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryResponse")
            .field("window", &self.window)
            .field("outcomes", &self.outcomes)
            .field("sink", &self.sink.as_ref().map(|_| "Box<dyn ResultSink>"))
            .finish()
    }
}

impl QueryResponse {
    /// Sum of distinct cores over all `k` values.
    pub fn total_cores(&self) -> u64 {
        self.outcomes.iter().map(|o| o.stats.num_cores).sum()
    }

    /// Sum of result edges (`|R|`) over all `k` values.
    pub fn total_result_edges(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.stats.total_result_edges)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::query::Algorithm;
    use crate::sink::FnSink;
    use temporal_graph::EdgeId;

    #[test]
    fn single_request_counts_figure_2() {
        let g = paper_example::graph();
        let response = QueryRequest::single(2, 1, 4)
            .run(&g, &Algorithm::Enum)
            .unwrap();
        assert_eq!(response.outcomes.len(), 1);
        assert_eq!(response.outcomes[0].k, 2);
        assert_eq!(response.total_cores(), 2);
        assert_eq!(response.total_result_edges(), 9);
        let KOutput::Counts(counts) = &response.outcomes[0].output else {
            panic!("count is the default mode");
        };
        assert_eq!(counts.num_cores, 2);
    }

    #[test]
    fn multi_k_collapses_duplicates_and_keeps_order() {
        let g = paper_example::graph();
        let response = QueryRequest::multi(vec![3, 2, 3], 1, 7)
            .run(&g, &Algorithm::Enum)
            .unwrap();
        let ks: Vec<usize> = response.outcomes.iter().map(|o| o.k).collect();
        assert_eq!(ks, vec![3, 2]);
    }

    #[test]
    fn sweep_reports_per_k_stats() {
        let g = paper_example::graph();
        let response = QueryRequest::sweep(1..=3, 1, 7)
            .run(&g, &Algorithm::Enum)
            .unwrap();
        let ks: Vec<usize> = response.outcomes.iter().map(|o| o.k).collect();
        assert_eq!(ks, vec![1, 2, 3]);
        for outcome in &response.outcomes {
            assert_eq!(outcome.stats.algorithm, Algorithm::Enum);
        }
        // More cohesion constraints, fewer (or equal) results.
        let cores: Vec<u64> = response
            .outcomes
            .iter()
            .map(|o| o.stats.num_cores)
            .collect();
        assert!(cores.windows(2).all(|w| w[0] >= w[1]), "{cores:?}");
    }

    #[test]
    fn stream_mode_hands_the_sink_back() {
        let g = paper_example::graph();
        let seen = std::sync::Arc::new(std::sync::Mutex::new(0u64));
        let seen_in_sink = std::sync::Arc::clone(&seen);
        let sink = FnSink(move |_tti: TimeWindow, _edges: &[EdgeId]| {
            *seen_in_sink.lock().unwrap() += 1;
        });
        let response = QueryRequest::single(2, 1, 4)
            .stream(Box::new(sink))
            .run(&g, &Algorithm::Enum)
            .unwrap();
        assert!(matches!(response.outcomes[0].output, KOutput::Streamed));
        assert!(response.sink.is_some());
        assert_eq!(*seen.lock().unwrap(), 2);
        assert_eq!(response.total_cores(), 2);
    }

    #[test]
    fn validation_rejects_each_defect_with_its_own_error() {
        let g = paper_example::graph();
        assert!(matches!(
            QueryRequest::single(0, 1, 4).validate(&g),
            Err(TkError::KOutOfRange { k: 0 })
        ));
        assert!(matches!(
            QueryRequest::multi(Vec::<usize>::new(), 1, 4).validate(&g),
            Err(TkError::EmptyKSelection)
        ));
        assert!(matches!(
            QueryRequest::with_selection(KSelection::Range { min: 4, max: 2 }, 1, 4).validate(&g),
            Err(TkError::EmptyKSelection)
        ));
        assert!(matches!(
            QueryRequest::single(2, 0, 4).validate(&g),
            Err(TkError::EmptyWindow { start: 0, end: 4 })
        ));
        assert!(matches!(
            QueryRequest::single(2, 5, 4).validate(&g),
            Err(TkError::EmptyWindow { start: 5, end: 4 })
        ));
        assert!(matches!(
            QueryRequest::single(2, 8, 20).validate(&g),
            Err(TkError::WindowPastTmax { start: 8, tmax: 7 })
        ));
    }

    #[test]
    fn validation_clamps_overhanging_windows() {
        let g = paper_example::graph();
        let validated = QueryRequest::single(2, 3, 500).validate(&g).unwrap();
        assert_eq!(validated.window(), TimeWindow::new(3, 7));
        assert_eq!(validated.ks(), &[2]);
        assert!(matches!(validated.mode(), OutputMode::Count));
    }

    #[test]
    fn materialized_outputs_are_canonical() {
        let g = paper_example::graph();
        let response = QueryRequest::single(2, 1, 4)
            .materialize()
            .run(&g, &Algorithm::Naive)
            .unwrap();
        let KOutput::Cores(cores) = &response.outcomes[0].output else {
            panic!("materialized");
        };
        assert_eq!(
            cores.as_slice(),
            crate::naive::naive_results(&g, 2, paper_example::example_query_range()).as_slice()
        );
    }
}
