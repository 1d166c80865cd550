//! Live engine telemetry: lock-free mid-run counters, latency histograms,
//! per-shard span rings, and a Prometheus exporter.
//!
//! The paper's thesis is *on-line* analytics — algorithm state is live and
//! queryable at any instant (§IV, Fig. 2). This module extends that
//! property to the engine itself: the run's own vitals (counters,
//! queue depths, latency quantiles, sampled propagation traces) are
//! observable mid-run without stopping or even slowing the shards.
//!
//! Four pieces, all allocation-free on the data path:
//!
//! - **Snapshot cells** (`MetricsCell`): each shard republishes its
//!   [`ShardMetrics`] into a per-shard seqlock-protected word array at
//!   batch boundaries (every [`PUBLISH_EVERY`] retired envelopes, at idle
//!   transitions, and — crucially — when a shard dies, before its
//!   failure is recorded).
//!   `Engine::metrics_now` assembles a coherent cross-shard [`RunMetrics`]
//!   from these cells at any time.
//! - **Histograms** (`AtomicHistogram`): single-writer log2-bucketed
//!   latency histograms (see [`LatencyHistogram`] for the bucket scheme)
//!   for lane-flush latency (shard-owned) plus quiescence-detection and
//!   ingest→fixpoint latency (controller-owned).
//! - **Span rings** (`Ring`): one bounded ring per shard holding the
//!   causal-trace spans of [`crate::trace`]. The rings live here, not in
//!   the shard, so a dead shard's last spans stay readable through
//!   `Engine::traces_now`; together with its last published cell and the
//!   [`ShardFailure`](crate::ShardFailure) payload they are the whole
//!   account of a failure.
//! - **Exporter** ([`TelemetryHub`]): a cloneable, thread-safe handle
//!   rendering Prometheus text format, plus point-in-time gauges
//!   (queue depths, in-flight envelopes, ingest backlog). Rates are left
//!   to the reader: two scrapes of a `remo_*_total` counter give them.
//!
//! ## Seqlock protocol
//!
//! The writer (the owning shard) bumps the version to odd, a release fence
//! orders that bump before the relaxed payload stores, and a final release
//! store returns the version to even. The reader loads the version with
//! acquire, spins while odd, copies the payload with relaxed loads, issues
//! an acquire fence, and re-reads the version: equality proves the copy is
//! a torn-free snapshot. Payload words are `AtomicU64`, so the data race
//! is benign by construction (no UB even mid-write). Writers never wait;
//! readers retry — exactly the right asymmetry for a hot data path probed
//! by a cold observer.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{LatencyHistogram, RunMetrics, ShardMetrics, HIST_BUCKETS};
use crate::supervision::FailureBoard;
use crate::termination::SharedCounters;
use crate::trace::{self, PropagationTrace, SpanKind, TraceSpan, TraceTag};
use crate::transport::CachePadded;

/// How many retired envelopes between two snapshot-cell publications on
/// the hot path (shards also publish at every idle transition, so a
/// quiescent engine's cells are always current).
pub const PUBLISH_EVERY: u32 = 256;

/// Sampling shift: every `2^SAMPLE_SHIFT`-th topology pull of a shard
/// mints a causal trace ([`PropagationTrace`]).
pub const SAMPLE_SHIFT: u32 = 6;

/// Trace spans retained per shard ([`crate::trace`]).
pub const SPAN_CAPACITY: usize = 4096;

/// Gauge words appended to each shard's counter payload in its snapshot
/// cell: `[queue_depth, lane_occupancy, held_backlog]`.
pub(crate) const GAUGE_WORDS: usize = 3;

/// Total words in one shard's snapshot cell.
pub(crate) const CELL_WORDS: usize = ShardMetrics::COUNTER_WORDS + GAUGE_WORDS;

/// One shard's seqlock-protected snapshot cell: an even/odd version word
/// guarding [`CELL_WORDS`] payload words (counters then gauges).
#[derive(Debug)]
pub(crate) struct MetricsCell {
    version: AtomicU64,
    words: [AtomicU64; CELL_WORDS],
}

impl MetricsCell {
    fn new() -> Self {
        MetricsCell {
            version: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Publishes a new payload. Single writer (the owning shard); never
    /// blocks or retries.
    pub(crate) fn publish(&self, payload: &[u64; CELL_WORDS]) {
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Relaxed);
        // Order the odd version ahead of the payload stores.
        fence(Ordering::Release);
        for (slot, &w) in self.words.iter().zip(payload.iter()) {
            slot.store(w, Ordering::Relaxed);
        }
        // Order the payload stores ahead of the even version.
        self.version.store(v.wrapping_add(2), Ordering::Release);
    }

    /// Reads a coherent payload copy, spinning through concurrent writes.
    pub(crate) fn read(&self, out: &mut [u64; CELL_WORDS]) {
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            for (slot, w) in self.words.iter().zip(out.iter_mut()) {
                *w = slot.load(Ordering::Relaxed);
            }
            // Order the payload loads ahead of the version re-check.
            fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) == v1 {
                return;
            }
            std::hint::spin_loop();
        }
    }
}

/// Single-writer atomic counterpart of [`LatencyHistogram`]: the owning
/// thread records with relaxed read-modify-writes on its own cache lines;
/// observers snapshot with relaxed loads (buckets are monotone, so a
/// racy snapshot is still a valid histogram that merely trails by a few
/// samples).
#[derive(Debug)]
pub(crate) struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one nanosecond sample (single writer, relaxed).
    #[inline]
    pub(crate) fn record(&self, ns: u64) {
        let i = LatencyHistogram::bucket_index(ns);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Copies the current contents into a plain histogram.
    pub(crate) fn snapshot(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for (dst, src) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum_ns = self.sum_ns.load(Ordering::Relaxed);
        // A racy snapshot may catch `count` ahead of the bucket stores;
        // re-derive it from the buckets so quantile ranks stay consistent.
        h.count = h.buckets.iter().sum();
        h
    }
}

/// Bounded lock-free overwrite-oldest ring of fixed-width records, single
/// writer (the owning shard): the span plane's ring ([`crate::trace`]
/// encodes and decodes the words). An append is four relaxed word stores
/// plus one release store of the written count; the reader re-checks the
/// count to discard windows that were overwritten mid-read. Once the
/// writer has stopped — a harvested or dead shard — the window is exact.
#[derive(Debug)]
pub(crate) struct Ring {
    mask: u64,
    written: AtomicU64,
    slots: Box<[[AtomicU64; 4]]>,
}

impl Ring {
    /// A ring of `capacity` slots, rounded up to a power of two.
    fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two();
        Ring {
            mask: cap as u64 - 1,
            written: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Appends one record (single writer). Returns `true` when the append
    /// evicted an older record (ring overflow).
    #[inline]
    fn record(&self, words: [u64; 4]) -> bool {
        let n = self.written.load(Ordering::Relaxed);
        let slot = &self.slots[(n & self.mask) as usize];
        for (cell, w) in slot.iter().zip(words) {
            cell.store(w, Ordering::Relaxed);
        }
        self.written.store(n.wrapping_add(1), Ordering::Release);
        n > self.mask
    }

    /// The retained window as `(sequence number, words)`, oldest first.
    /// Lossy under concurrent writes (records overwritten mid-read are
    /// dropped), exact when the writer has stopped — the dead-shard and
    /// harvest cases.
    fn dump(&self) -> Vec<(u64, [u64; 4])> {
        let cap = self.mask + 1;
        for _ in 0..4 {
            let n1 = self.written.load(Ordering::Acquire);
            let start = n1.saturating_sub(cap);
            let mut out: Vec<_> = (start..n1)
                .map(|seq| {
                    let slot = &self.slots[(seq & self.mask) as usize];
                    (
                        seq,
                        std::array::from_fn(|i| slot[i].load(Ordering::Relaxed)),
                    )
                })
                .collect();
            fence(Ordering::Acquire);
            let n2 = self.written.load(Ordering::Acquire);
            if n2 == n1 {
                return out;
            }
            // Writer advanced mid-read: the oldest (n2 - n1) records may
            // be torn — drop them and retry for a clean pass.
            let advanced = (n2 - n1) as usize;
            if advanced < out.len() {
                out.drain(..advanced);
                return out;
            }
        }
        Vec::new()
    }
}

/// Point-in-time gauges assembled by [`TelemetryHub::gauges`].
#[derive(Debug, Clone, Default)]
pub struct EngineGauges {
    /// Wall-clock time since the engine was built.
    pub uptime: Duration,
    /// Total algorithmic events retired so far.
    pub events_processed: u64,
    /// Per-shard pending local work: the envelopes a shard has sent to
    /// itself and not yet processed, as of its last snapshot publication.
    /// The chunks still queued on its channel are `ingest_backlog`.
    pub queue_depth: Vec<u64>,
    /// Per-shard inbound lane occupancy (batches parked in SPSC rings),
    /// as of the last publication.
    pub lane_occupancy: Vec<u64>,
    /// Per-shard outbound backlog: batches the shard holds because their
    /// lane was full, as of the last publication. Past a fixed bound the
    /// shard stops pulling topology until its receivers catch up.
    pub held_backlog: Vec<u64>,
    /// Envelopes sent but not yet processed (from the termination
    /// counters; exact at the instant of the probe).
    pub in_flight: u64,
    /// Per-shard topology events handed to the shard but not yet pulled
    /// (exact at the instant of the probe). The ingest window bounds each.
    pub ingest_backlog: Vec<u64>,
    /// Shards recorded as failed.
    pub failed_shards: u64,
}

/// One live query's counters as exported by a
/// [`QueryStatsSource`] — the registry's per-slot telemetry row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStatsRow {
    /// Human-readable query name supplied at attach time.
    pub name: String,
    /// Registry slot the query occupies (stable for its lifetime).
    pub slot: usize,
    /// Delta envelopes emitted on behalf of this query.
    pub envelopes_sent: u64,
    /// State-cell writes that actually changed this query's column.
    pub updates_applied: u64,
}

/// Provider of per-query telemetry, registered by the multi-query
/// registry (see [`QueryRegistry`](crate::QueryRegistry)) on its first
/// attach. The exporter polls it on every
/// render; implementations must be cheap and lock-light.
pub trait QueryStatsSource: std::fmt::Debug + Send + Sync {
    /// Number of queries currently attached.
    fn queries_attached(&self) -> usize;
    /// One row per attached query.
    fn query_rows(&self) -> Vec<QueryStatsRow>;
    /// Attach-backfill duration histogram (one sample per attach).
    fn backfill_histogram(&self) -> LatencyHistogram;
    /// Resident bytes of the per-query state columns as of the last
    /// control sweep (tracks the detach-time compaction; 0 when the
    /// provider does not measure it).
    fn column_bytes(&self) -> u64 {
        0
    }
}

/// Everything the telemetry layer shares between shards, the controller,
/// and exporter handles. One instance per engine, behind an `Arc`.
#[derive(Debug)]
pub(crate) struct TelemetryShared {
    started: Instant,
    cells: Vec<CachePadded<MetricsCell>>,
    flush: Vec<AtomicHistogram>,
    spans: Vec<Ring>,
    quiesce: AtomicHistogram,
    ingest_fixpoint: AtomicHistogram,
    /// Nanoseconds-since-start + 1 of the first ingest after the last
    /// quiescent point; 0 = unarmed. Controller-written.
    ingest_mark: AtomicU64,
    counters: Arc<SharedCounters>,
    board: Arc<FailureBoard>,
    /// Per-query stats provider, installed by the multi-query registry on
    /// first attach (`None` for single-algorithm runs).
    query_source: Mutex<Option<Arc<dyn QueryStatsSource>>>,
}

impl TelemetryShared {
    pub(crate) fn new(
        shards: usize,
        counters: Arc<SharedCounters>,
        board: Arc<FailureBoard>,
    ) -> Self {
        let cells = (0..shards)
            .map(|_| CachePadded::new(MetricsCell::new()))
            .collect();
        let flush = (0..shards).map(|_| AtomicHistogram::new()).collect();
        let spans = (0..shards).map(|_| Ring::new(SPAN_CAPACITY)).collect();
        TelemetryShared {
            started: Instant::now(),
            cells,
            flush,
            spans,
            quiesce: AtomicHistogram::new(),
            ingest_fixpoint: AtomicHistogram::new(),
            ingest_mark: AtomicU64::new(0),
            counters,
            board,
            query_source: Mutex::new(None),
        }
    }

    // ---- shard-facing publication API --------------------------------

    /// Publishes one shard's counters + gauges into its snapshot cell.
    pub(crate) fn publish_counters(
        &self,
        shard: usize,
        m: &ShardMetrics,
        gauges: [u64; GAUGE_WORDS],
    ) {
        let mut payload = [0u64; CELL_WORDS];
        let (head, tail) = payload.split_at_mut(ShardMetrics::COUNTER_WORDS);
        if let Ok(head) = <&mut [u64; ShardMetrics::COUNTER_WORDS]>::try_from(head) {
            m.to_words(head);
        }
        tail.copy_from_slice(&gauges);
        self.cells[shard].publish(&payload);
    }

    /// Records one lane-flush latency measurement.
    #[inline]
    pub(crate) fn record_flush(&self, shard: usize, ns: u64) {
        self.flush[shard].record(ns);
    }

    /// Nanoseconds since the engine was built — the trace plane's clock.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Appends one trace span to `shard`'s ring. Returns `true` when the
    /// append evicted an older span (ring overflow).
    #[inline]
    pub(crate) fn record_span(
        &self,
        shard: usize,
        kind: SpanKind,
        tag: TraceTag,
        a: u64,
        b: u64,
    ) -> bool {
        self.spans[shard].record(TraceSpan::words(kind, tag, self.now_ns(), a, b))
    }

    /// Dumps every shard's span-ring window (lossy for shards still
    /// writing, exact after harvest).
    pub(crate) fn dump_spans(&self) -> Vec<TraceSpan> {
        let mut out = Vec::new();
        for (shard, ring) in self.spans.iter().enumerate() {
            out.extend(
                ring.dump()
                    .into_iter()
                    .filter_map(|(_, w)| TraceSpan::from_words(shard, w)),
            );
        }
        out
    }

    /// Reconstructs the propagation trees currently held in the span
    /// rings.
    pub(crate) fn traces(&self) -> Vec<PropagationTrace> {
        trace::reconstruct(&self.dump_spans())
    }

    // ---- controller-facing latency API -------------------------------

    /// Records one quiescence-detection latency sample.
    pub(crate) fn record_quiesce(&self, ns: u64) {
        self.quiesce.record(ns);
    }

    /// Arms the ingest→fixpoint clock at the first ingest after a
    /// quiescent point (no-op while already armed).
    pub(crate) fn mark_ingest(&self) {
        if self.ingest_mark.load(Ordering::Relaxed) == 0 {
            let ns = self.started.elapsed().as_nanos() as u64;
            self.ingest_mark
                .store(ns.wrapping_add(1), Ordering::Relaxed);
        }
    }

    /// Closes the ingest→fixpoint interval at a detected quiescence.
    pub(crate) fn settle_ingest(&self) {
        let mark = self.ingest_mark.swap(0, Ordering::Relaxed);
        if mark != 0 {
            let now = self.started.elapsed().as_nanos() as u64;
            self.ingest_fixpoint.record(now.saturating_sub(mark - 1));
        }
    }

    // ---- observer API ------------------------------------------------

    /// One shard's last published counters + gauge words.
    pub(crate) fn shard_snapshot(&self, shard: usize) -> (ShardMetrics, [u64; GAUGE_WORDS]) {
        let mut payload = [0u64; CELL_WORDS];
        self.cells[shard].read(&mut payload);
        let mut counters = [0u64; ShardMetrics::COUNTER_WORDS];
        counters.copy_from_slice(&payload[..ShardMetrics::COUNTER_WORDS]);
        let mut gauges = [0u64; GAUGE_WORDS];
        gauges.copy_from_slice(&payload[ShardMetrics::COUNTER_WORDS..]);
        (ShardMetrics::from_words(&counters), gauges)
    }

    /// Copies the latency histograms into `m` — the one place that lists
    /// them, shared by `metrics_now` and the final harvest.
    pub(crate) fn histograms_into(&self, m: &mut RunMetrics) {
        m.flush = LatencyHistogram::new();
        for s in &self.flush {
            m.flush.merge(&s.snapshot());
        }
        m.quiesce = self.quiesce.snapshot();
        m.ingest_fixpoint = self.ingest_fixpoint.snapshot();
    }

    /// Assembles a coherent cross-shard [`RunMetrics`] from the snapshot
    /// cells — the engine's mid-run `metrics_now`.
    pub(crate) fn snapshot_metrics(&self) -> RunMetrics {
        let mut m = RunMetrics {
            per_shard: (0..self.cells.len())
                .map(|s| self.shard_snapshot(s).0)
                .collect(),
            lost_shards: (0..self.cells.len())
                .filter(|&s| self.board.is_failed(s))
                .collect(),
            ..Default::default()
        };
        self.histograms_into(&mut m);
        m
    }
}

/// Writes the `# HELP` / `# TYPE` header of one exposition family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!(
        "# HELP remo_{name} {help}\n# TYPE remo_{name} {kind}\n"
    ));
}

/// Writes one histogram as a summary family: p50/p99/p999, `_sum` and
/// `_count`. A `_seconds` family is scaled from nanoseconds; any other
/// (hops, envelopes) is a unitless count and rendered as recorded.
fn summary(out: &mut String, name: &str, help: &str, h: &LatencyHistogram) {
    let unit = if name.ends_with("_seconds") { 1e9 } else { 1.0 };
    family(out, name, "summary", help);
    for q in [0.5, 0.99, 0.999] {
        out.push_str(&format!(
            "remo_{name}{{quantile=\"{q}\"}} {}\n",
            h.quantile_ns(q) / unit
        ));
    }
    out.push_str(&format!(
        "remo_{name}_sum {}\nremo_{name}_count {}\n",
        h.sum_ns as f64 / unit,
        h.count
    ));
}

/// Escapes a label value for the text format: `\`, `"` and newline.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Cloneable, thread-safe handle onto a running engine's telemetry:
/// mid-run metrics, point-in-time gauges, and Prometheus rendering.
/// Obtained from `Engine::telemetry`; remains valid (frozen at the last
/// published values) after the engine finishes.
#[derive(Debug, Clone)]
pub struct TelemetryHub {
    shared: Arc<TelemetryShared>,
}

impl TelemetryHub {
    pub(crate) fn new(shared: Arc<TelemetryShared>) -> Self {
        TelemetryHub { shared }
    }

    /// Coherent cross-shard metrics as of the shards' last snapshot
    /// publications.
    pub fn metrics_now(&self) -> RunMetrics {
        self.shared.snapshot_metrics()
    }

    /// Installs (or replaces) the per-query stats provider. Called by the
    /// multi-query registry on attach; the exporter picks it up on the next
    /// render.
    pub(crate) fn set_query_source(&self, src: Arc<dyn QueryStatsSource>) {
        let mut slot = self
            .shared
            .query_source
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        *slot = Some(src);
    }

    /// The installed per-query stats provider, if any.
    pub fn query_source(&self) -> Option<Arc<dyn QueryStatsSource>> {
        self.shared
            .query_source
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Point-in-time gauges: the shards' last published cells plus the
    /// termination counters, read without side effects.
    pub fn gauges(&self) -> EngineGauges {
        let shards = self.shared.cells.len();
        let mut queue_depth = Vec::with_capacity(shards);
        let mut lane_occupancy = Vec::with_capacity(shards);
        let mut held_backlog = Vec::with_capacity(shards);
        let mut events_processed = 0;
        for s in 0..shards {
            let (m, g) = self.shared.shard_snapshot(s);
            queue_depth.push(g[0]);
            lane_occupancy.push(g[1]);
            held_backlog.push(g[2]);
            events_processed += m.events_processed();
        }
        // Exact in-flight/backlog from the termination counters.
        let c = &self.shared.counters;
        let (mut sent, mut proc) = (0u64, 0u64);
        for id in 0..shards {
            let slot = c.slot(id);
            sent += slot.sent.load(Ordering::SeqCst);
            proc += slot.processed.load(Ordering::SeqCst);
        }
        let ingest_backlog = (0..shards)
            .map(|s| {
                let slot = c.slot(s);
                let ingested = slot.ingested.load(Ordering::SeqCst);
                slot.fed.load(Ordering::SeqCst).saturating_sub(ingested)
            })
            .collect();
        EngineGauges {
            uptime: self.shared.started.elapsed(),
            events_processed,
            queue_depth,
            lane_occupancy,
            held_backlog,
            in_flight: sent.saturating_sub(proc),
            ingest_backlog,
            failed_shards: self.shared.board.len() as u64,
        }
    }

    /// Renders the full metric set in Prometheus text exposition format:
    /// per-shard counters as `remo_<name>_total`, gauges, and the latency,
    /// trace and registry histograms as summaries with p50/p99/p999
    /// quantiles.
    pub fn render_prometheus(&self) -> String {
        let m = self.metrics_now();
        let g = self.gauges();
        let ts = trace::summarize(&self.shared.traces());
        let mut out = String::with_capacity(8192);
        let mut words = vec![[0u64; ShardMetrics::COUNTER_WORDS]; m.per_shard.len()];
        for (w, sm) in words.iter_mut().zip(&m.per_shard) {
            sm.to_words(w);
        }
        for (i, name) in ShardMetrics::COUNTER_NAMES.iter().enumerate() {
            family(
                &mut out,
                &format!("{name}_total"),
                "counter",
                &format!("remo-core shard counter `{name}` (see ShardMetrics docs)."),
            );
            for (s, w) in words.iter().enumerate() {
                out.push_str(&format!("remo_{name}_total{{shard=\"{s}\"}} {}\n", w[i]));
            }
        }
        for (name, help, values) in [
            (
                "queue_depth",
                "Envelopes a shard sent itself and has not processed, at its last snapshot.",
                &g.queue_depth,
            ),
            (
                "lane_occupancy",
                "Inbound SPSC lane occupancy (batches) per shard at its last snapshot.",
                &g.lane_occupancy,
            ),
            (
                "held_backlog",
                "Batches held for a full lane per shard at its last snapshot.",
                &g.held_backlog,
            ),
            (
                "ingest_backlog",
                "Topology events handed to each shard but not yet pulled.",
                &g.ingest_backlog,
            ),
        ] {
            family(&mut out, name, "gauge", help);
            for (s, v) in values.iter().enumerate() {
                out.push_str(&format!("remo_{name}{{shard=\"{s}\"}} {v}\n"));
            }
        }
        // The trace families are always rendered (zeros before the first
        // sampled ingest) so scrapers see a stable family set.
        let mut scalars = vec![
            (
                "uptime_seconds",
                "gauge",
                "Wall-clock seconds since the engine was built.",
                format!("{:.3}", g.uptime.as_secs_f64()),
            ),
            (
                "in_flight_envelopes",
                "gauge",
                "Envelopes sent but not yet processed.",
                g.in_flight.to_string(),
            ),
            (
                "failed_shards",
                "gauge",
                "Shards recorded as failed.",
                g.failed_shards.to_string(),
            ),
            (
                "traces_observed",
                "gauge",
                "Propagation traces currently reconstructable from the span rings.",
                ts.observed.to_string(),
            ),
            (
                "trace_cross_shard_hops_total",
                "counter",
                "Cross-shard sends over all reconstructed traces.",
                ts.cross_shard_hops.to_string(),
            ),
        ];
        for (name, help, h) in [
            (
                "flush_latency_seconds",
                "Outgoing lane-flush latency.",
                &m.flush,
            ),
            (
                "quiesce_latency_seconds",
                "Quiescence-detection latency.",
                &m.quiesce,
            ),
            (
                "ingest_fixpoint_seconds",
                "Ingest-to-fixpoint latency per settled burst.",
                &m.ingest_fixpoint,
            ),
            (
                "trace_fixpoint_seconds",
                "Per-trace propagation wall time, root ingest to last span.",
                &ts.fixpoint,
            ),
            ("trace_hops", "Hops to fixpoint per trace.", &ts.hops),
            (
                "trace_amplification",
                "Envelopes caused per traced update.",
                &ts.amplification,
            ),
        ] {
            summary(&mut out, name, help, h);
        }
        if let Some(src) = self.query_source() {
            scalars.push((
                "queries_attached",
                "gauge",
                "Live queries attached to the multi-query registry.",
                src.queries_attached().to_string(),
            ));
            scalars.push((
                "registry_column_bytes",
                "gauge",
                "Resident bytes of per-query state columns as of the last control sweep.",
                src.column_bytes().to_string(),
            ));
            let rows = src.query_rows();
            for (i, (name, help)) in [
                (
                    "query_envelopes_sent_total",
                    "Delta envelopes emitted per registered query.",
                ),
                (
                    "query_updates_applied_total",
                    "State-cell writes that changed a query's column.",
                ),
            ]
            .into_iter()
            .enumerate()
            {
                family(&mut out, name, "counter", help);
                for r in &rows {
                    out.push_str(&format!(
                        "remo_{name}{{query=\"{}\",slot=\"{}\"}} {}\n",
                        escape_label(&r.name),
                        r.slot,
                        [r.envelopes_sent, r.updates_applied][i]
                    ));
                }
            }
            summary(
                &mut out,
                "attach_backfill_seconds",
                "Live-attach backfill duration (prime + flood + seed).",
                &src.backfill_histogram(),
            );
        }
        for (name, kind, help, value) in scalars {
            family(&mut out, name, kind, help);
            out.push_str(&format!("remo_{name} {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn cell_roundtrips_payload() {
        let cell = MetricsCell::new();
        let mut payload = [0u64; CELL_WORDS];
        for (i, w) in payload.iter_mut().enumerate() {
            *w = i as u64 * 3 + 1;
        }
        cell.publish(&payload);
        let mut got = [0u64; CELL_WORDS];
        cell.read(&mut got);
        assert_eq!(payload, got);
    }

    /// Seqlock coherence under a hostile writer: the writer publishes
    /// payloads whose words are all equal to the same (incrementing)
    /// value; any torn read would mix two values and fail the all-equal
    /// check.
    #[test]
    fn cell_never_tears_under_concurrent_writes() {
        let cell = Arc::new(MetricsCell::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v = v.wrapping_add(1);
                    cell.publish(&[v; CELL_WORDS]);
                }
            })
        };
        let mut last = 0u64;
        let mut got = [0u64; CELL_WORDS];
        for _ in 0..20_000 {
            cell.read(&mut got);
            assert!(got.iter().all(|&w| w == got[0]), "torn snapshot: {got:?}");
            assert!(got[0] >= last, "snapshot went backwards");
            last = got[0];
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().ok();
    }

    #[test]
    fn atomic_histogram_snapshots() {
        let h = AtomicHistogram::new();
        h.record(100);
        h.record(100_000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert!(snap.quantile_ns(0.5) > 0.0);
    }

    #[test]
    fn recorder_wraps_and_dumps_in_order() {
        let r = Ring::new(16);
        for i in 0..40u64 {
            let evicted = r.record(TraceSpan::words(SpanKind::Send, (7 << 8) | 1, i, i, 1));
            assert_eq!(evicted, i >= 16, "append {i}");
        }
        let dump = r.dump();
        assert_eq!(dump.len(), 16, "bounded to capacity");
        let seqs: Vec<u64> = dump.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, (24..40).collect::<Vec<u64>>(), "oldest-first window");
        for (seq, w) in dump {
            let span = TraceSpan::from_words(3, w).expect("a written slot decodes");
            assert_eq!((span.kind, span.tag), (SpanKind::Send, (7 << 8) | 1));
            assert_eq!(
                (span.t_ns, span.a),
                (seq, seq),
                "words ride with their sequence number"
            );
        }
    }

    #[test]
    fn shared_snapshot_assembles_run_metrics() {
        let counters = Arc::new(SharedCounters::new(2));
        let board = Arc::new(FailureBoard::new());
        let tele = TelemetryShared::new(2, Arc::clone(&counters), Arc::clone(&board));
        let m = ShardMetrics {
            add_events: 7,
            envelopes_sent: 9,
            ..Default::default()
        };
        tele.publish_counters(0, &m, [5, 2, 3]);
        tele.record_flush(1, 1500);
        let snap = tele.snapshot_metrics();
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!(snap.per_shard[0].add_events, 7);
        assert_eq!(snap.per_shard[1], ShardMetrics::default());
        assert_eq!(snap.flush.count, 1);
        let (got, gauges) = tele.shard_snapshot(0);
        assert_eq!(got, m);
        assert_eq!(gauges, [5, 2, 3]);
    }

    #[test]
    fn hub_renders_prometheus() {
        let counters = Arc::new(SharedCounters::new(1));
        let board = Arc::new(FailureBoard::new());
        let tele = Arc::new(TelemetryShared::new(1, counters, board));
        let m = ShardMetrics {
            add_events: 3,
            topo_ingested: 2,
            ..Default::default()
        };
        tele.publish_counters(0, &m, [0; GAUGE_WORDS]);
        tele.record_quiesce(10_000);
        // One complete traced cascade so the trace families render
        // non-trivially.
        assert!(!tele.record_span(0, SpanKind::Root, 7 << 8, 1, 2));
        assert!(!tele.record_span(0, SpanKind::Send, (7 << 8) | 1, 1, 0));
        let hub = TelemetryHub::new(tele);
        let traces = hub.shared.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].amplification, 1);
        let prom = hub.render_prometheus();
        assert!(prom.contains("# TYPE remo_add_events_total counter"));
        assert!(prom.contains("remo_add_events_total{shard=\"0\"} 3"));
        assert!(prom.contains("remo_quiesce_latency_seconds_sum 0.00001\n"));
        assert!(prom.contains("remo_quiesce_latency_seconds_count 1"));
        assert!(prom.contains("remo_traces_observed 1"));
        assert!(prom.contains("# TYPE remo_trace_fixpoint_seconds summary"));
        assert!(prom.contains("remo_trace_hops_count 1"));
        assert!(prom.contains("remo_trace_amplification_count 1"));
        assert!(prom.contains("remo_trace_cross_shard_hops_total"));
        assert!(prom.contains("# TYPE remo_phase_process_ns_total counter"));
        // Unitless summaries are not scaled to seconds.
        assert!(prom.contains("remo_trace_hops_sum 1\n"));
    }
}
