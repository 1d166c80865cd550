//! Live engine telemetry: lock-free mid-run counters, latency histograms,
//! a per-shard flight recorder, and Prometheus/JSON exporters.
//!
//! The paper's thesis is *on-line* analytics — algorithm state is live and
//! queryable at any instant (§IV, Fig. 2). This module extends that
//! property to the engine itself: the run's own vitals (events/sec,
//! queue depths, latency quantiles, recent per-shard activity) are
//! observable mid-run without stopping or even slowing the shards.
//!
//! Four pieces, all allocation-free on the data path:
//!
//! - **Snapshot cells** (`MetricsCell`): each shard republishes its
//!   [`ShardMetrics`] into a per-shard seqlock-protected word array at
//!   batch boundaries (every [`PUBLISH_EVERY`] retired envelopes, at idle
//!   transitions, and — crucially — right before an injected panic).
//!   `Engine::metrics_now` assembles a coherent cross-shard [`RunMetrics`]
//!   from these cells at any time.
//! - **Histograms** (`AtomicHistogram`): single-writer log2-bucketed
//!   latency histograms (see [`LatencyHistogram`] for the bucket scheme)
//!   for event service time and lane-flush latency (shard-owned) plus
//!   quiescence-detection and ingest→fixpoint latency (controller-owned).
//!   Service time is sampled one event in `2^`[`SAMPLE_SHIFT`] so the
//!   `Instant::now()` pair stays off the common path.
//! - **Flight recorder** (`Ring`): a bounded per-shard ring of recent
//!   structured events (processed envelopes, topology ingests, flushes,
//!   park/wake, fault injections, epoch acks). `supervision`
//!   dumps it into [`ShardFailure`](crate::ShardFailure) when a shard
//!   panics, turning chaos postmortems into replayable traces.
//! - **Exporters** ([`TelemetryHub`]): a cloneable, thread-safe handle
//!   rendering Prometheus text format and JSON, plus derived gauges
//!   (events/sec over a sliding window, park ratio, in-flight envelopes).
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

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::utils::CachePadded;

use crate::event::Epoch;
use crate::metrics::{LatencyHistogram, RunMetrics, ShardMetrics, HIST_BUCKETS};
use crate::supervision::FailureBoard;
use crate::termination::SharedCounters;
use crate::trace::{self, PropagationTrace, SpanKind, TraceConfig, TraceSpan, TraceTag};

/// How many retired envelopes between two snapshot-cell publications on
/// the hot path (shards also publish at every idle transition, so a
/// quiescent engine's cells are always current).
pub const PUBLISH_EVERY: u32 = 256;

/// Per-event sampling shift: every `2^SAMPLE_SHIFT`-th processed envelope
/// gets a service-time measurement and a flight-recorder entry, and every
/// `2^SAMPLE_SHIFT`-th topology pull a recorder entry (fault-armed shards
/// record every processed envelope).
pub const SAMPLE_SHIFT: u32 = 6;

/// Flight-recorder entries retained per shard.
pub const FLIGHT_CAPACITY: usize = 128;

/// Gauge words appended to each shard's counter payload in its snapshot
/// cell: `[queue_depth, lane_occupancy]`.
pub(crate) const GAUGE_WORDS: usize = 2;

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

/// Declares [`FlightTag`] together with its decoder, so a tag cannot be
/// added without becoming decodable (and the tag-table test, which walks
/// the decoder, cannot miss it).
macro_rules! flight_tags {
    ($($(#[$doc:meta])* $name:ident = $v:literal,)+) => {
        /// Kinds of structured events a shard's flight recorder captures.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum FlightTag {
            $($(#[$doc])* $name = $v,)+
        }

        impl FlightTag {
            fn from_u8(v: u8) -> Option<FlightTag> {
                match v {
                    $($v => Some(FlightTag::$name),)+
                    _ => None,
                }
            }
        }
    };
}

flight_tags! {
    /// An envelope was processed (`a` = target vertex, `b` = event kind).
    Process = 1,
    /// A topology event was pulled from a stream (`a` = src, `b` = dst).
    TopoIngest = 2,
    /// A destination was flushed (`a` = destination shard, `b` = outbox
    /// len; 0 when only a held backlog was retried).
    Flush = 3,
    /// The shard went to sleep in its idle loop.
    Park = 4,
    /// The shard woke a sleeping peer (`a` = peer shard).
    Unpark = 5,
    /// A fault was injected (`a`: 1 = panic, 2 = delay, 3 = drop).
    Fault = 6,
    /// The shard acknowledged a new snapshot epoch.
    EpochAck = 7,
    /// A topology stream segment arrived (`a` = events in segment).
    Stream = 8,
    /// The shard answered a state collection (`a` = the epoch collected,
    /// `b` = 1 for the live view).
    Collect = 9,
    /// The shard observed shutdown and is draining.
    Shutdown = 10,
    /// The shard was respawned in place after a contained panic
    /// (`a` = respawn attempt number, `b` = WAL records replayed).
    Respawn = 11,
    /// A traced envelope was processed on this shard (`a` = trace id,
    /// `b` = hop depth) — lets a chaos postmortem name exactly which
    /// in-flight traced updates died with the shard. See [`crate::trace`].
    Trace = 12,
    /// A durable checkpoint was published (`a` = bytes written).
    Checkpoint = 13,
}

/// One decoded flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Global per-shard sequence number of this entry (monotone).
    pub seq: u64,
    /// What happened.
    pub tag: FlightTag,
    /// Snapshot epoch the shard was in.
    pub epoch: Epoch,
    /// First operand (meaning depends on `tag`).
    pub a: u64,
    /// Second operand (meaning depends on `tag`).
    pub b: u64,
}

impl FlightEntry {
    /// The entry's ring words (the fourth is unused).
    #[inline]
    fn words(tag: FlightTag, epoch: Epoch, a: u64, b: u64) -> [u64; 4] {
        [((epoch as u64) << 8) | tag as u64, a, b, 0]
    }

    /// Decodes one ring slot (`None` for a slot that was never written).
    fn from_words(seq: u64, w: [u64; 4]) -> Option<FlightEntry> {
        Some(FlightEntry {
            seq,
            tag: FlightTag::from_u8((w[0] & 0xFF) as u8)?,
            epoch: (w[0] >> 8) as Epoch,
            a: w[1],
            b: w[2],
        })
    }

    /// Renders the entry as one trace line (the format stored in
    /// [`ShardFailure::trace`](crate::ShardFailure)).
    pub fn render(&self) -> String {
        let body = match self.tag {
            FlightTag::Process => {
                let kind = match self.b {
                    0 => "Init",
                    1 => "Add",
                    2 => "ReverseAdd",
                    3 => "Update",
                    4 => "Remove",
                    5 => "ReverseRemove",
                    _ => "?",
                };
                format!("process target={} kind={kind}", self.a)
            }
            FlightTag::TopoIngest => format!("topo src={} dst={}", self.a, self.b),
            FlightTag::Flush => format!("flush dest={} len={}", self.a, self.b),
            FlightTag::Park => "park".to_string(),
            FlightTag::Unpark => format!("unpark peer={}", self.a),
            FlightTag::Fault => {
                let kind = match self.a {
                    1 => "panic",
                    2 => "delay",
                    3 => "drop",
                    _ => "?",
                };
                format!("fault kind={kind}")
            }
            FlightTag::EpochAck => "epoch-ack".to_string(),
            FlightTag::Stream => format!("stream len={}", self.a),
            FlightTag::Collect => format!("collect epoch={} live={}", self.a, self.b),
            FlightTag::Shutdown => "shutdown".to_string(),
            FlightTag::Respawn => {
                format!("respawn attempt={} replayed={}", self.a, self.b)
            }
            FlightTag::Trace => format!("trace id={} hop={}", self.a, self.b),
            FlightTag::Checkpoint => format!("checkpoint bytes={}", self.a),
        };
        format!("#{} e{} {body}", self.seq, self.epoch)
    }
}

/// Bounded lock-free overwrite-oldest ring of fixed-width records, single
/// writer (the owning shard). The flight recorder and the span plane
/// ([`crate::trace`]) are its two users; each only encodes and decodes its
/// words. An append is four relaxed word stores plus one release store of
/// the written count; the reader re-checks the count to discard windows
/// that were overwritten mid-read. On the panic path the dump is taken by
/// the dying shard's own thread inside `catch_unwind`, so the trace
/// attached to a [`ShardFailure`](crate::ShardFailure) is exact.
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
    /// dropped), exact when the writer has stopped — the panic-dump and
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

/// Derived point-in-time gauges assembled by [`TelemetryHub::gauges`].
#[derive(Debug, Clone, Default)]
pub struct EngineGauges {
    /// Wall-clock time since the engine was built.
    pub uptime: Duration,
    /// Algorithmic events retired per second over the recent sliding
    /// window (0 until two observations exist).
    pub events_per_sec: f64,
    /// Topology updates ingested per second over the recent sliding
    /// window (0 until two observations exist) — the sustained-ingest
    /// headline rate, as opposed to the algorithmic event rate above.
    pub updates_per_sec: f64,
    /// Total algorithmic events retired so far.
    pub events_processed: u64,
    /// Per-shard pending-work depth (inbox channel + staged local work),
    /// as of each shard's last snapshot publication.
    pub queue_depth: Vec<u64>,
    /// Per-shard inbound lane occupancy (batches parked in SPSC rings),
    /// as of the last publication.
    pub lane_occupancy: Vec<u64>,
    /// `idle_parks / (idle_parks + events_processed)` — how often shards
    /// slept vs worked.
    pub park_ratio: f64,
    /// Envelopes sent but not yet processed (from the termination
    /// counters; exact at the instant of the probe).
    pub in_flight: u64,
    /// Topology events injected but not yet ingested by shards.
    pub ingest_backlog: u64,
    /// Current snapshot epoch.
    pub epoch: Epoch,
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
/// registry (see [`QueryRegistry`](crate::QueryRegistry)) via
/// [`TelemetryHub::set_query_source`]. The exporters poll it on every
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

/// Sliding-window sample horizon for the events/sec gauge.
const WINDOW: Duration = Duration::from_secs(3);
const WINDOW_SAMPLES: usize = 256;

/// Everything the telemetry layer shares between shards, the controller,
/// and exporter handles. One instance per engine, behind an `Arc`.
#[derive(Debug)]
pub(crate) struct TelemetryShared {
    started: Instant,
    cells: Vec<CachePadded<MetricsCell>>,
    service: Vec<AtomicHistogram>,
    flush: Vec<AtomicHistogram>,
    recorders: Vec<Ring>,
    spans: Vec<Ring>,
    quiesce: AtomicHistogram,
    ingest_fixpoint: AtomicHistogram,
    checkpoint: AtomicHistogram,
    /// Nanoseconds-since-start + 1 of the first ingest after the last
    /// quiescent point; 0 = unarmed. Controller-written.
    ingest_mark: AtomicU64,
    counters: Arc<SharedCounters>,
    board: Arc<FailureBoard>,
    window: Mutex<VecDeque<(Instant, u64)>>,
    ingest_window: Mutex<VecDeque<(Instant, u64)>>,
    /// Per-query stats provider, installed by the multi-query registry on
    /// first attach (`None` for single-algorithm runs).
    query_source: Mutex<Option<Arc<dyn QueryStatsSource>>>,
}

impl TelemetryShared {
    pub(crate) fn new(
        trace: TraceConfig,
        shards: usize,
        counters: Arc<SharedCounters>,
        board: Arc<FailureBoard>,
    ) -> Self {
        let cells = (0..shards)
            .map(|_| CachePadded::new(MetricsCell::new()))
            .collect();
        let service = (0..shards).map(|_| AtomicHistogram::new()).collect();
        let flush = (0..shards).map(|_| AtomicHistogram::new()).collect();
        let recorders = (0..shards).map(|_| Ring::new(FLIGHT_CAPACITY)).collect();
        // `spans` is empty when tracing is off — every trace-plane entry
        // point no-ops on the missing ring, which is the zero-cost gate.
        let spans = if trace.enabled {
            (0..shards)
                .map(|_| Ring::new(trace.ring_capacity.max(64)))
                .collect()
        } else {
            Vec::new()
        };
        TelemetryShared {
            started: Instant::now(),
            cells,
            service,
            flush,
            recorders,
            spans,
            quiesce: AtomicHistogram::new(),
            ingest_fixpoint: AtomicHistogram::new(),
            checkpoint: AtomicHistogram::new(),
            ingest_mark: AtomicU64::new(0),
            counters,
            board,
            window: Mutex::new(VecDeque::new()),
            ingest_window: Mutex::new(VecDeque::new()),
            query_source: Mutex::new(None),
        }
    }

    // ---- shard-facing publication API --------------------------------

    /// Publishes one shard's counters + gauges into its snapshot cell.
    pub(crate) fn publish_counters(
        &self,
        shard: usize,
        m: &ShardMetrics,
        queue_depth: u64,
        lane_occupancy: u64,
    ) {
        let mut payload = [0u64; CELL_WORDS];
        let (head, _) = payload.split_at_mut(ShardMetrics::COUNTER_WORDS);
        if let Ok(head) = <&mut [u64; ShardMetrics::COUNTER_WORDS]>::try_from(head) {
            m.to_words(head);
        }
        payload[ShardMetrics::COUNTER_WORDS] = queue_depth;
        payload[ShardMetrics::COUNTER_WORDS + 1] = lane_occupancy;
        self.cells[shard].publish(&payload);
    }

    /// Records one sampled event-service-time measurement.
    #[inline]
    pub(crate) fn record_service(&self, shard: usize, ns: u64) {
        self.service[shard].record(ns);
    }

    /// Records one lane-flush latency measurement.
    #[inline]
    pub(crate) fn record_flush(&self, shard: usize, ns: u64) {
        self.flush[shard].record(ns);
    }

    /// Appends one flight-recorder entry for `shard`.
    #[inline]
    pub(crate) fn record_flight(&self, shard: usize, tag: FlightTag, epoch: Epoch, a: u64, b: u64) {
        self.recorders[shard].record(FlightEntry::words(tag, epoch, a, b));
    }

    /// Nanoseconds since the engine was built — the trace plane's clock.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Appends one trace span to `shard`'s ring. Returns `true` when the
    /// append evicted an older span (ring overflow). No-op (false) when
    /// tracing is off.
    #[inline]
    pub(crate) fn record_span(
        &self,
        shard: usize,
        kind: SpanKind,
        tag: TraceTag,
        a: u64,
        b: u64,
    ) -> bool {
        self.spans
            .get(shard)
            .is_some_and(|ring| ring.record(TraceSpan::words(kind, tag, self.now_ns(), a, b)))
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
    /// rings (empty when tracing is off).
    pub(crate) fn traces(&self) -> Vec<PropagationTrace> {
        trace::reconstruct(&self.dump_spans())
    }

    /// Dumps `shard`'s flight-recorder window as rendered trace lines.
    pub(crate) fn dump_flight(&self, shard: usize) -> Vec<String> {
        self.recorders[shard]
            .dump()
            .into_iter()
            .filter_map(|(seq, w)| FlightEntry::from_words(seq, w))
            .map(|e| e.render())
            .collect()
    }

    // ---- controller-facing latency API -------------------------------

    /// Records one quiescence-detection latency sample.
    pub(crate) fn record_quiesce(&self, ns: u64) {
        self.quiesce.record(ns);
    }

    /// Records one checkpoint duration sample (shard-written; staging
    /// through publish of one durable checkpoint).
    pub(crate) fn record_checkpoint(&self, ns: u64) {
        self.checkpoint.record(ns);
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
        let gauges = [
            payload[ShardMetrics::COUNTER_WORDS],
            payload[ShardMetrics::COUNTER_WORDS + 1],
        ];
        (ShardMetrics::from_words(&counters), gauges)
    }

    /// Envelopes the controller itself has sent (both epoch parities).
    pub(crate) fn controller_sent(&self) -> u64 {
        let slot = self.counters.slot(self.counters.controller_slot());
        slot.sent[0].load(Ordering::SeqCst) + slot.sent[1].load(Ordering::SeqCst)
    }

    pub(crate) fn service_snapshot(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for s in &self.service {
            h.merge(&s.snapshot());
        }
        h
    }

    pub(crate) fn flush_snapshot(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for s in &self.flush {
            h.merge(&s.snapshot());
        }
        h
    }

    pub(crate) fn quiesce_snapshot(&self) -> LatencyHistogram {
        self.quiesce.snapshot()
    }

    pub(crate) fn ingest_fixpoint_snapshot(&self) -> LatencyHistogram {
        self.ingest_fixpoint.snapshot()
    }

    pub(crate) fn checkpoint_snapshot(&self) -> LatencyHistogram {
        self.checkpoint.snapshot()
    }

    /// Assembles a coherent cross-shard [`RunMetrics`] from the snapshot
    /// cells — the engine's mid-run `metrics_now`.
    pub(crate) fn snapshot_metrics(&self) -> RunMetrics {
        let per_shard: Vec<ShardMetrics> = (0..self.cells.len())
            .map(|s| self.shard_snapshot(s).0)
            .collect();
        let lost_shards: Vec<usize> = (0..self.cells.len())
            .filter(|&s| self.board.is_failed(s))
            .collect();
        RunMetrics {
            per_shard,
            lost_shards,
            controller_sent: self.controller_sent(),
            service: self.service_snapshot(),
            flush: self.flush_snapshot(),
            quiesce: self.quiesce_snapshot(),
            ingest_fixpoint: self.ingest_fixpoint_snapshot(),
            checkpoint: self.checkpoint_snapshot(),
        }
    }

    fn note_window(&self, processed: u64) -> f64 {
        Self::windowed_rate(&self.window, processed)
    }

    fn note_ingest_window(&self, ingested: u64) -> f64 {
        Self::windowed_rate(&self.ingest_window, ingested)
    }

    fn windowed_rate(slot: &Mutex<VecDeque<(Instant, u64)>>, count: u64) -> f64 {
        let now = Instant::now();
        let mut window = slot.lock().unwrap_or_else(|p| p.into_inner());
        window.push_back((now, count));
        while window.len() > WINDOW_SAMPLES {
            window.pop_front();
        }
        while let Some(&(t, _)) = window.front() {
            if now.duration_since(t) > WINDOW && window.len() > 2 {
                window.pop_front();
            } else {
                break;
            }
        }
        match (window.front(), window.back()) {
            (Some(&(t0, c0)), Some(&(t1, c1))) if t1 > t0 => {
                let dt = t1.duration_since(t0).as_secs_f64();
                if dt > 1e-4 {
                    (c1.saturating_sub(c0)) as f64 / dt
                } else {
                    0.0
                }
            }
            _ => 0.0,
        }
    }
}

/// Cloneable, thread-safe handle onto a running engine's telemetry:
/// mid-run metrics, derived gauges, and Prometheus/JSON rendering.
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

    /// Propagation trees reconstructed from the per-shard span rings as
    /// of now (empty when tracing is off; see [`crate::trace`]). Exact
    /// once the engine has quiesced; lossy-but-coherent mid-run.
    pub fn traces_now(&self) -> Vec<PropagationTrace> {
        self.shared.traces()
    }

    /// Aggregate quantiles over [`TelemetryHub::traces_now`] — what the
    /// exporters render as `remo_trace_*` families.
    pub fn trace_summary(&self) -> trace::TraceSummary {
        trace::summarize(&self.traces_now())
    }

    /// Installs (or replaces) the per-query stats provider. Called by the
    /// multi-query registry on attach; exporters pick it up on the next
    /// render.
    pub fn set_query_source(&self, src: Arc<dyn QueryStatsSource>) {
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

    /// Derived point-in-time gauges. Each call also feeds the sliding
    /// window behind `events_per_sec`, so a dashboard polling this at a
    /// steady cadence gets a stable rate.
    pub fn gauges(&self) -> EngineGauges {
        let shards = self.shared.cells.len();
        let mut queue_depth = Vec::with_capacity(shards);
        let mut lane_occupancy = Vec::with_capacity(shards);
        let mut totals = ShardMetrics::default();
        for s in 0..shards {
            let (m, g) = self.shared.shard_snapshot(s);
            queue_depth.push(g[0]);
            lane_occupancy.push(g[1]);
            totals.merge(&m);
        }
        let processed = totals.events_processed();
        let events_per_sec = self.shared.note_window(processed);
        let park_ratio = if totals.idle_parks + processed == 0 {
            0.0
        } else {
            totals.idle_parks as f64 / (totals.idle_parks + processed) as f64
        };
        // Exact in-flight/backlog from the termination counters.
        let c = &self.shared.counters;
        let mut sent = 0u64;
        let mut proc = 0u64;
        for id in 0..=c.controller_slot() {
            let slot = c.slot(id);
            sent += slot.sent[0].load(Ordering::SeqCst) + slot.sent[1].load(Ordering::SeqCst);
            proc +=
                slot.processed[0].load(Ordering::SeqCst) + slot.processed[1].load(Ordering::SeqCst);
        }
        let mut ingested = 0u64;
        for id in 0..=c.controller_slot() {
            ingested += c.slot(id).ingested.load(Ordering::SeqCst);
        }
        let injected = c.injected.load(Ordering::SeqCst);
        let updates_per_sec = self.shared.note_ingest_window(ingested);
        EngineGauges {
            uptime: self.shared.started.elapsed(),
            events_per_sec,
            updates_per_sec,
            events_processed: processed,
            queue_depth,
            lane_occupancy,
            park_ratio,
            in_flight: sent.saturating_sub(proc),
            ingest_backlog: injected.saturating_sub(ingested),
            epoch: c.epoch.load(Ordering::SeqCst),
            failed_shards: self.shared.board.len() as u64,
        }
    }

    /// Renders the full metric set in Prometheus text exposition format:
    /// per-shard counters as `remo_<name>_total`, gauges, and the four
    /// latency histograms as summaries with p50/p99/p999 quantiles.
    pub fn render_prometheus(&self) -> String {
        let g = self.gauges();
        let shards = self.shared.cells.len();
        let mut per_shard_words: Vec<[u64; ShardMetrics::COUNTER_WORDS]> = Vec::new();
        for s in 0..shards {
            let (m, _) = self.shared.shard_snapshot(s);
            let mut w = [0u64; ShardMetrics::COUNTER_WORDS];
            m.to_words(&mut w);
            per_shard_words.push(w);
        }
        let mut out = String::with_capacity(8192);
        for (i, name) in ShardMetrics::COUNTER_NAMES.iter().enumerate() {
            out.push_str(&format!(
                "# HELP remo_{name}_total remo-core shard counter `{name}` (see ShardMetrics docs).\n# TYPE remo_{name}_total counter\n"
            ));
            for (s, words) in per_shard_words.iter().enumerate() {
                out.push_str(&format!(
                    "remo_{name}_total{{shard=\"{s}\"}} {}\n",
                    words[i]
                ));
            }
        }
        let mut gauge = |name: &str, help: &str, value: String| {
            out.push_str(&format!(
                "# HELP remo_{name} {help}\n# TYPE remo_{name} gauge\n{value}"
            ));
        };
        gauge(
            "uptime_seconds",
            "Wall-clock seconds since the engine was built.",
            format!("remo_uptime_seconds {:.3}\n", g.uptime.as_secs_f64()),
        );
        gauge(
            "events_per_sec",
            "Algorithmic events retired per second (sliding window).",
            format!("remo_events_per_sec {:.3}\n", g.events_per_sec),
        );
        gauge(
            "updates_per_sec",
            "Topology updates ingested per second (sliding window).",
            format!("remo_updates_per_sec {:.3}\n", g.updates_per_sec),
        );
        gauge(
            "park_ratio",
            "idle_parks / (idle_parks + events_processed).",
            format!("remo_park_ratio {:.6}\n", g.park_ratio),
        );
        gauge(
            "in_flight_envelopes",
            "Envelopes sent but not yet processed.",
            format!("remo_in_flight_envelopes {}\n", g.in_flight),
        );
        gauge(
            "ingest_backlog",
            "Topology events injected but not yet ingested.",
            format!("remo_ingest_backlog {}\n", g.ingest_backlog),
        );
        gauge(
            "epoch",
            "Current snapshot epoch.",
            format!("remo_epoch {}\n", g.epoch),
        );
        gauge(
            "failed_shards",
            "Shards recorded as failed.",
            format!("remo_failed_shards {}\n", g.failed_shards),
        );
        let mut depth_lines = String::new();
        for (s, d) in g.queue_depth.iter().enumerate() {
            depth_lines.push_str(&format!("remo_queue_depth{{shard=\"{s}\"}} {d}\n"));
        }
        gauge(
            "queue_depth",
            "Pending-work depth per shard at its last snapshot.",
            depth_lines,
        );
        let mut lane_lines = String::new();
        for (s, d) in g.lane_occupancy.iter().enumerate() {
            lane_lines.push_str(&format!("remo_lane_occupancy{{shard=\"{s}\"}} {d}\n"));
        }
        gauge(
            "lane_occupancy",
            "Inbound SPSC lane occupancy (batches) per shard at its last snapshot.",
            lane_lines,
        );
        let summary = |out: &mut String, name: &str, help: &str, h: &LatencyHistogram| {
            out.push_str(&format!(
                "# HELP remo_{name} {help}\n# TYPE remo_{name} summary\n"
            ));
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                out.push_str(&format!(
                    "remo_{name}{{quantile=\"{label}\"}} {:.9}\n",
                    h.quantile_ns(q) / 1e9
                ));
            }
            out.push_str(&format!("remo_{name}_sum {:.9}\n", h.sum_ns as f64 / 1e9));
            out.push_str(&format!("remo_{name}_count {}\n", h.count));
        };
        summary(
            &mut out,
            "service_time_seconds",
            "Event service time (sampled).",
            &self.shared.service_snapshot(),
        );
        summary(
            &mut out,
            "flush_latency_seconds",
            "Outgoing lane-flush latency.",
            &self.shared.flush_snapshot(),
        );
        summary(
            &mut out,
            "quiesce_latency_seconds",
            "Quiescence-detection latency.",
            &self.shared.quiesce_snapshot(),
        );
        summary(
            &mut out,
            "ingest_fixpoint_seconds",
            "Ingest-to-fixpoint latency per settled epoch.",
            &self.shared.ingest_fixpoint_snapshot(),
        );
        summary(
            &mut out,
            "checkpoint_seconds",
            "Durable checkpoint duration (staging through publish).",
            &self.shared.checkpoint_snapshot(),
        );
        // Trace plane: always rendered (zeros when tracing is off) so
        // scrapers see a stable family set.
        let ts = self.trace_summary();
        out.push_str(&format!(
            "# HELP remo_traces_observed Propagation traces currently reconstructable from the span rings.\n# TYPE remo_traces_observed gauge\nremo_traces_observed {}\n",
            ts.observed
        ));
        summary(
            &mut out,
            "trace_fixpoint_seconds",
            "Per-trace propagation wall time, root ingest to last span.",
            &ts.fixpoint,
        );
        // Hops and amplification are unitless counts — render the raw
        // quantiles instead of routing them through the seconds scaler.
        let summary_raw = |out: &mut String, name: &str, help: &str, h: &LatencyHistogram| {
            out.push_str(&format!(
                "# HELP remo_{name} {help}\n# TYPE remo_{name} summary\n"
            ));
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                out.push_str(&format!(
                    "remo_{name}{{quantile=\"{label}\"}} {:.3}\n",
                    h.quantile_ns(q)
                ));
            }
            out.push_str(&format!("remo_{name}_sum {}\n", h.sum_ns));
            out.push_str(&format!("remo_{name}_count {}\n", h.count));
        };
        summary_raw(
            &mut out,
            "trace_hops",
            "Hops to fixpoint per trace (unitless).",
            &ts.hops,
        );
        summary_raw(
            &mut out,
            "trace_amplification",
            "Envelopes caused per traced update (unitless).",
            &ts.amplification,
        );
        out.push_str(&format!(
            "# HELP remo_trace_cross_shard_hops_total Cross-shard sends over all reconstructed traces.\n# TYPE remo_trace_cross_shard_hops_total counter\nremo_trace_cross_shard_hops_total {}\n",
            ts.cross_shard_hops
        ));
        if let Some(src) = self.query_source() {
            out.push_str(&format!(
                "# HELP remo_queries_attached Live queries attached to the multi-query registry.\n# TYPE remo_queries_attached gauge\nremo_queries_attached {}\n",
                src.queries_attached()
            ));
            let rows = src.query_rows();
            out.push_str(
                "# HELP remo_query_envelopes_sent_total Delta envelopes emitted per registered query.\n# TYPE remo_query_envelopes_sent_total counter\n",
            );
            for r in &rows {
                out.push_str(&format!(
                    "remo_query_envelopes_sent_total{{query=\"{}\",slot=\"{}\"}} {}\n",
                    r.name, r.slot, r.envelopes_sent
                ));
            }
            out.push_str(
                "# HELP remo_query_updates_applied_total State-cell writes that changed a query's column.\n# TYPE remo_query_updates_applied_total counter\n",
            );
            for r in &rows {
                out.push_str(&format!(
                    "remo_query_updates_applied_total{{query=\"{}\",slot=\"{}\"}} {}\n",
                    r.name, r.slot, r.updates_applied
                ));
            }
            let h = src.backfill_histogram();
            out.push_str(
                "# HELP remo_attach_backfill_seconds Live-attach backfill duration (prime + flood + seed).\n# TYPE remo_attach_backfill_seconds summary\n",
            );
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                out.push_str(&format!(
                    "remo_attach_backfill_seconds{{quantile=\"{label}\"}} {:.9}\n",
                    h.quantile_ns(q) / 1e9
                ));
            }
            out.push_str(&format!(
                "remo_attach_backfill_seconds_sum {:.9}\n",
                h.sum_ns as f64 / 1e9
            ));
            out.push_str(&format!("remo_attach_backfill_seconds_count {}\n", h.count));
            out.push_str(&format!(
                "# HELP remo_registry_column_bytes Resident bytes of per-query state columns as of the last control sweep.\n# TYPE remo_registry_column_bytes gauge\nremo_registry_column_bytes {}\n",
                src.column_bytes()
            ));
        }
        out
    }

    /// Renders the full metric set as a single JSON object (hand-rolled —
    /// the workspace deliberately carries no serialization dependency).
    pub fn render_json(&self) -> String {
        let g = self.gauges();
        let m = self.metrics_now();
        let totals = m.total();
        let mut out = String::with_capacity(4096);
        out.push('{');
        out.push_str(&format!("\"uptime_s\":{:.3},", g.uptime.as_secs_f64()));
        out.push_str(&format!("\"epoch\":{},", g.epoch));
        out.push_str(&format!("\"events_per_sec\":{:.3},", g.events_per_sec));
        out.push_str(&format!("\"updates_per_sec\":{:.3},", g.updates_per_sec));
        out.push_str(&format!("\"park_ratio\":{:.6},", g.park_ratio));
        out.push_str(&format!("\"in_flight\":{},", g.in_flight));
        out.push_str(&format!("\"ingest_backlog\":{},", g.ingest_backlog));
        out.push_str(&format!(
            "\"lost_shards\":[{}],",
            m.lost_shards
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        let counters_json = |m: &ShardMetrics| -> String {
            let mut w = [0u64; ShardMetrics::COUNTER_WORDS];
            m.to_words(&mut w);
            ShardMetrics::COUNTER_NAMES
                .iter()
                .zip(w.iter())
                .map(|(n, v)| format!("\"{n}\":{v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!("\"totals\":{{{}}},", counters_json(&totals)));
        out.push_str("\"per_shard\":[");
        for (s, sm) in m.per_shard.iter().enumerate() {
            if s > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{{},\"queue_depth\":{},\"lane_occupancy\":{}}}",
                counters_json(sm),
                g.queue_depth.get(s).copied().unwrap_or(0),
                g.lane_occupancy.get(s).copied().unwrap_or(0),
            ));
        }
        out.push_str("],");
        let hist_json = |h: &LatencyHistogram| -> String {
            let (p50, p99, p999) = h.quantiles_us();
            format!(
                "{{\"count\":{},\"mean_us\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3},\"p999_us\":{:.3}}}",
                h.count,
                h.mean_ns() / 1e3,
                p50,
                p99,
                p999
            )
        };
        out.push_str(&format!(
            "\"histograms\":{{\"service\":{},\"flush\":{},\"quiesce\":{},\"ingest_fixpoint\":{},\"checkpoint\":{}}}",
            hist_json(&m.service),
            hist_json(&m.flush),
            hist_json(&m.quiesce),
            hist_json(&m.ingest_fixpoint),
            hist_json(&m.checkpoint),
        ));
        let ts = self.trace_summary();
        out.push_str(&format!(
            ",\"traces\":{{\"observed\":{},\"fixpoint\":{},\"hops\":{{\"p50\":{:.1},\"p99\":{:.1}}},\"amplification\":{{\"p50\":{:.1},\"p99\":{:.1}}},\"cross_shard_hops\":{}}}",
            ts.observed,
            hist_json(&ts.fixpoint),
            ts.hops.quantile_ns(0.5),
            ts.hops.quantile_ns(0.99),
            ts.amplification.quantile_ns(0.5),
            ts.amplification.quantile_ns(0.99),
            ts.cross_shard_hops,
        ));
        if let Some(src) = self.query_source() {
            let rows = src.query_rows();
            out.push_str(&format!(
                ",\"queries\":{{\"attached\":{},\"backfill\":{},\"column_bytes\":{},\"rows\":[",
                src.queries_attached(),
                hist_json(&src.backfill_histogram()),
                src.column_bytes(),
            ));
            for (i, r) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"slot\":{},\"envelopes_sent\":{},\"updates_applied\":{}}}",
                    r.name, r.slot, r.envelopes_sent, r.updates_applied
                ));
            }
            out.push_str("]}");
        }
        out.push('}');
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
            let evicted = r.record(FlightEntry::words(FlightTag::Process, 2, i, 1));
            assert_eq!(evicted, i >= 16, "append {i}");
        }
        let dump: Vec<FlightEntry> = r
            .dump()
            .into_iter()
            .filter_map(|(seq, w)| FlightEntry::from_words(seq, w))
            .collect();
        assert_eq!(dump.len(), 16, "bounded to capacity");
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (24..40).collect::<Vec<u64>>(), "oldest-first window");
        assert!(dump
            .iter()
            .all(|e| e.tag == FlightTag::Process && e.epoch == 2));
        assert_eq!(dump[0].a, 24, "operands ride with their sequence number");
    }

    /// One row per [`FlightTag`]: the operands as the shard records them,
    /// through the ring and back, against the exact rendered line. The
    /// `match` is exhaustive and the loop walks the decoder, so a new tag
    /// cannot be added without a row here.
    #[test]
    fn every_flight_tag_round_trips_and_renders() {
        let row = |tag: FlightTag| -> (u64, u64, &'static str) {
            match tag {
                FlightTag::Process => (42, 3, "process target=42 kind=Update"),
                FlightTag::TopoIngest => (5, 9, "topo src=5 dst=9"),
                FlightTag::Flush => (3, 17, "flush dest=3 len=17"),
                FlightTag::Park => (0, 0, "park"),
                FlightTag::Unpark => (2, 0, "unpark peer=2"),
                FlightTag::Fault => (3, 88, "fault kind=drop"),
                FlightTag::EpochAck => (7, 0, "epoch-ack"),
                FlightTag::Stream => (4096, 1, "stream len=4096"),
                FlightTag::Collect => (6, 1, "collect epoch=6 live=1"),
                FlightTag::Shutdown => (0, 0, "shutdown"),
                FlightTag::Respawn => (2, 31, "respawn attempt=2 replayed=31"),
                FlightTag::Trace => (1 << 40, 4, "trace id=1099511627776 hop=4"),
                FlightTag::Checkpoint => (65536, 0, "checkpoint bytes=65536"),
            }
        };
        let tags: Vec<FlightTag> = (0..=u8::MAX).filter_map(FlightTag::from_u8).collect();
        let r = Ring::new(tags.len());
        for &tag in &tags {
            let (a, b, _) = row(tag);
            r.record(FlightEntry::words(tag, 7, a, b));
        }
        let dump = r.dump();
        assert_eq!(dump.len(), tags.len());
        for (&tag, (seq, w)) in tags.iter().zip(dump) {
            let e = FlightEntry::from_words(seq, w).expect("a written slot decodes");
            let (a, b, line) = row(tag);
            assert_eq!((e.tag, e.epoch, e.a, e.b), (tag, 7, a, b));
            assert_eq!(e.render(), format!("#{seq} e7 {line}"));
        }
        assert!(
            FlightEntry::from_words(0, [0; 4]).is_none(),
            "unwritten slot"
        );
    }

    #[test]
    fn shared_snapshot_assembles_run_metrics() {
        let counters = Arc::new(SharedCounters::new(2));
        let board = Arc::new(FailureBoard::new());
        let tele = TelemetryShared::new(
            TraceConfig::off(),
            2,
            Arc::clone(&counters),
            Arc::clone(&board),
        );
        let m = ShardMetrics {
            add_events: 7,
            envelopes_sent: 9,
            ..Default::default()
        };
        tele.publish_counters(0, &m, 5, 2);
        tele.record_service(0, 1500);
        let snap = tele.snapshot_metrics();
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!(snap.per_shard[0].add_events, 7);
        assert_eq!(snap.per_shard[1], ShardMetrics::default());
        assert_eq!(snap.service.count, 1);
        let (got, gauges) = tele.shard_snapshot(0);
        assert_eq!(got, m);
        assert_eq!(gauges, [5, 2]);
    }

    #[test]
    fn hub_renders_prometheus_and_json() {
        let counters = Arc::new(SharedCounters::new(1));
        let board = Arc::new(FailureBoard::new());
        let tele = Arc::new(TelemetryShared::new(TraceConfig::on(), 1, counters, board));
        let m = ShardMetrics {
            add_events: 3,
            topo_ingested: 2,
            ..Default::default()
        };
        tele.publish_counters(0, &m, 0, 0);
        tele.record_quiesce(10_000);
        // One complete traced cascade so the trace families render
        // non-trivially.
        assert!(!tele.record_span(0, SpanKind::Root, 7 << 8, 1, 2));
        assert!(!tele.record_span(0, SpanKind::Send, (7 << 8) | 1, 1, 0));
        let hub = TelemetryHub::new(tele);
        let traces = hub.traces_now();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].amplification, 1);
        let prom = hub.render_prometheus();
        assert!(prom.contains("# TYPE remo_add_events_total counter"));
        assert!(prom.contains("remo_add_events_total{shard=\"0\"} 3"));
        assert!(prom.contains("# TYPE remo_service_time_seconds summary"));
        assert!(prom.contains("remo_quiesce_latency_seconds_count 1"));
        assert!(prom.contains("remo_events_per_sec"));
        assert!(prom.contains("remo_updates_per_sec"));
        assert!(prom.contains("remo_traces_observed 1"));
        assert!(prom.contains("# TYPE remo_trace_fixpoint_seconds summary"));
        assert!(prom.contains("remo_trace_hops_count 1"));
        assert!(prom.contains("remo_trace_amplification_count 1"));
        assert!(prom.contains("remo_trace_cross_shard_hops_total"));
        assert!(prom.contains("# TYPE remo_phase_process_ns_total counter"));
        let json = hub.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"add_events\":3"));
        assert!(json.contains("\"updates_per_sec\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"traces\":{\"observed\":1"));
        assert!(json.contains("\"phase_process_ns\""));
        // Braces balance (cheap structural sanity without a JSON parser).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
