//! Per-shard and aggregated run metrics.
//!
//! The paper's headline metric is topology events per second at ingestion
//! saturation (§V). These counters let the benches compute that, plus the
//! message-amplification statistics the per-algorithm comparisons need
//! (how many Update events did one topology event fan out into?).
//!
//! Since PR 5 the counter set is declared once through `shard_metrics!`
//! so that the struct, `merge`, and the word-array serialization used by
//! the live telemetry snapshot cells ([`crate::telemetry`]) can never
//! drift apart: every counter added here automatically shows up in
//! [`ShardMetrics::COUNTER_NAMES`], in `Engine::metrics_now()`, and in the
//! Prometheus export.

use crate::algorithm::EdgeChange;
use crate::event::EventKind;

/// Declares the shard counter set exactly once.
///
/// Expands to the `ShardMetrics` struct plus `merge`, `to_words`,
/// `from_words`, and the `COUNTER_NAMES` table — all index-aligned, so the
/// telemetry seqlock cells can ship counters as a flat `[u64; N]` and the
/// exporter can iterate names without a hand-maintained list.
macro_rules! shard_metrics {
    ($($(#[$meta:meta])* $field:ident),* $(,)?) => {
        /// Counters owned (unsynchronized) by one shard and merged at
        /// shutdown. Mid-run, each shard also publishes them through a
        /// seqlock snapshot cell (see [`TelemetryHub`](crate::TelemetryHub)) at batch
        /// boundaries.
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct ShardMetrics {
            $($(#[$meta])* pub $field: u64,)*
        }

        impl ShardMetrics {
            /// Number of counters — the width of a telemetry snapshot
            /// payload in `u64` words.
            pub const COUNTER_WORDS: usize = [$(stringify!($field)),*].len();

            /// Snake-case counter names, index-aligned with
            /// [`ShardMetrics::to_words`]. The Prometheus exporter derives
            /// the `remo_<name>_total` family names from this table.
            pub const COUNTER_NAMES: [&'static str; Self::COUNTER_WORDS] =
                [$(stringify!($field)),*];

            /// Serializes every counter into `words` (index-aligned with
            /// [`ShardMetrics::COUNTER_NAMES`]).
            pub fn to_words(&self, words: &mut [u64; Self::COUNTER_WORDS]) {
                let mut i = 0;
                $(words[i] = self.$field; i += 1;)*
                let _ = i;
            }

            /// Rebuilds a metrics value from a snapshot word array.
            pub fn from_words(words: &[u64; Self::COUNTER_WORDS]) -> Self {
                let mut i = 0;
                $(let $field = words[i]; i += 1;)*
                let _ = i;
                ShardMetrics { $($field),* }
            }

            /// Merges `other` into `self`.
            pub fn merge(&mut self, other: &ShardMetrics) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

shard_metrics! {
    /// Topology events pulled from this shard's input streams.
    topo_ingested,
    /// Envelope counts by kind, as processed.
    init_events,
    add_events,
    reverse_add_events,
    update_events,
    /// Decremental events processed (§VI-B extension).
    remove_events,
    /// Envelopes sent to other shards (or self).
    envelopes_sent,
    /// New edges inserted into this shard's tables.
    edges_inserted,
    /// Duplicate edge insertions observed.
    duplicate_edges,
    /// Edges removed from this shard's tables.
    edges_removed,
    /// Trigger callbacks fired from this shard.
    triggers_fired,
    /// Envelopes retired because their destination was already gone
    /// (engine teardown, or the destination shard died).
    envelopes_undeliverable,
    /// `Update` envelopes retired on arrival (or when their turn in the
    /// local queue came) without running the callback, because
    /// [`Algorithm::absorbs`] said the target's live state already held
    /// their value. These envelopes were sent and count toward
    /// [`RunMetrics::verify_balance`]. 0 for an algorithm without the hook.
    ///
    /// [`Algorithm::absorbs`]: crate::Algorithm::absorbs
    updates_dominated,
    /// Self-routed `Update` envelopes dropped *before* sending for the
    /// same reason. Unlike `updates_dominated` these are never counted as
    /// sent, so they appear on neither side of the balance equation.
    updates_suppressed,
    /// Envelope batches shipped over an SPSC data lane.
    lane_batches,
    /// Flushes that found their pair's data lane full: the batch stayed
    /// in its sender's backlog and shipped, in order, once the lane had
    /// room. `lane_full_fallbacks / lane_batches` is the share of batches
    /// that met a full lane.
    lane_full_fallbacks,
    /// Times this shard actually unparked a sleeping peer after
    /// publishing work for it (event-driven wakeups that fired).
    unparks,
    /// Times this shard went to sleep in its idle loop (parked on the
    /// `ParkBoard`).
    idle_parks,
    /// WAL records appended: one per pull (an edge, an `Init` or a control
    /// op). 0 when durability is off.
    wal_records_appended,
    /// Bytes written into the WAL, framing included.
    wal_bytes,
    /// Checkpoints this shard wrote for a cut.
    checkpoints_written,
    /// Logged pulls re-run by recovery (a rollback or a cold open).
    replayed_records,
    /// Rollbacks this shard began with a contained panic.
    rollbacks,
    /// Envelopes a rollback dropped unprocessed, so the termination books
    /// stay balanced; re-running the log derives their effects again.
    envelopes_discarded,
    /// Idle passes where the shard deferred a partial-batch flush and
    /// re-drained its inbound paths instead (lane flush hysteresis).
    /// Bounded per idle episode, so
    /// this never delays quiescence — buffered envelopes are already
    /// counted sent.
    flush_deferrals,
    /// Nanoseconds spent draining inbound envelope paths that yielded no
    /// work (empty polls).
    phase_drain_ns,
    /// Nanoseconds spent servicing envelopes and ingesting topology
    /// (callback dispatch, routing, dominance filtering).
    phase_process_ns,
    /// Nanoseconds spent flushing outgoing batches and publishing
    /// telemetry.
    phase_flush_ns,
    /// Nanoseconds spent in flush-hysteresis yields: idle passes that
    /// deferred a partial-batch flush (`flush_deferrals`) and yielded the
    /// core before re-draining. The wait that follows the flush is
    /// `phase_park_ns`, not this.
    phase_spin_ns,
    /// Nanoseconds spent parked waiting for work.
    phase_park_ns,
    /// Nanoseconds spent writing checkpoints.
    phase_checkpoint_ns,
    /// Nanoseconds spent rolling back and re-running the WAL (a rollback
    /// or a cold open).
    phase_replay_ns,
    /// Total nanoseconds this shard's run loop was alive (the wall the
    /// other `phase_*_ns` counters decompose; park time included). The
    /// decomposition invariant — sum of phases ≤ busy — is checked by
    /// [`RunMetrics::verify_balance`].
    phase_busy_ns,
    /// Sampled external ingests that minted a propagation trace: exactly
    /// `topo_ingested >> SAMPLE_SHIFT`.
    trace_roots,
    /// Span records appended to this shard's trace ring (root, send,
    /// process, dominate, suppress).
    trace_spans,
    /// Span records that evicted an older span because the bounded trace
    /// ring wrapped (see the ring-overflow policy on
    /// [`PropagationTrace`](crate::PropagationTrace)).
    trace_spans_dropped,
}

impl ShardMetrics {
    /// Total algorithmic envelopes processed.
    pub fn events_processed(&self) -> u64 {
        self.init_events
            + self.add_events
            + self.reverse_add_events
            + self.update_events
            + self.remove_events
    }

    /// Sum of the attributed phase nanoseconds (everything except
    /// `phase_busy_ns`, which is the wall they decompose).
    pub fn phase_sum_ns(&self) -> u64 {
        self.phase_drain_ns
            + self.phase_process_ns
            + self.phase_flush_ns
            + self.phase_spin_ns
            + self.phase_park_ns
            + self.phase_checkpoint_ns
            + self.phase_replay_ns
    }

    /// Counts one framework step (`algorithm::visit`): the envelope's
    /// kind, and the edge it inserted, found already held or removed, here
    /// and in the caller's count of stored `edges`.
    #[inline]
    pub(crate) fn count_step(&mut self, edges: &mut u64, kind: EventKind, edge: EdgeChange) {
        match edge {
            EdgeChange::Inserted => {
                *edges += 1;
                self.edges_inserted += 1;
            }
            EdgeChange::Duplicate => self.duplicate_edges += 1,
            EdgeChange::Removed => {
                *edges -= 1;
                self.edges_removed += 1;
            }
            EdgeChange::Kept => {}
        }
        *match kind {
            EventKind::Init => &mut self.init_events,
            EventKind::Add => &mut self.add_events,
            EventKind::ReverseAdd => &mut self.reverse_add_events,
            EventKind::Update => &mut self.update_events,
            EventKind::Remove | EventKind::ReverseRemove => &mut self.remove_events,
        } += 1;
    }
}

/// Number of log2 buckets in a [`LatencyHistogram`]: bucket `i` covers
/// latencies whose nanosecond value has bit-length `i` (i.e. `[2^(i-1),
/// 2^i)`), so 64 buckets span the full `u64` range allocation-free.
pub const HIST_BUCKETS: usize = 64;

/// Fixed-size log-bucketed latency histogram (HDR-style, allocation-free).
///
/// Buckets are powers of two in nanoseconds: a sample lands in the bucket
/// equal to its bit length, giving a constant ≤ 2× relative error on
/// quantiles — plenty for p50/p99/p999 service-time tracking — with zero
/// allocation and O(1) record. Each shard owns one per tracked latency;
/// they are merged on harvest and snapshotted by
/// [`TelemetryHub`](crate::TelemetryHub) mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Bucket `i` counts samples with nanosecond bit-length `i`
    /// (bucket 0 is exactly the 0 ns samples).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded nanoseconds (mean = `sum_ns / count`).
    pub sum_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (usable in `const`/`static` contexts).
    pub const fn new() -> Self {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }

    /// Bucket index for a nanosecond sample: its bit length, clamped.
    #[inline]
    pub fn bucket_index(ns: u64) -> usize {
        ((u64::BITS - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one sample. O(1), allocation-free.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds `other`'s samples into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Quantile estimate in nanoseconds, linearly interpolated inside the
    /// selected log2 bucket. `q` in `[0, 1]`; returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if i == 0 {
                    0.0
                } else {
                    (1u64 << (i - 1)) as f64
                };
                let hi = if i == 0 { 1.0 } else { (i as f64).exp2() };
                let frac = (rank - seen) as f64 / c as f64;
                return lo + frac * (hi - lo);
            }
            seen += c;
        }
        self.sum_ns as f64 / self.count as f64
    }

    /// `(p50, p99, p999)` in microseconds.
    pub fn quantiles_us(&self) -> (f64, f64, f64) {
        (
            self.quantile_ns(0.50) / 1_000.0,
            self.quantile_ns(0.99) / 1_000.0,
            self.quantile_ns(0.999) / 1_000.0,
        )
    }
}

/// Aggregated metrics for a whole run.
#[derive(Debug, Default, Clone)]
pub struct RunMetrics {
    /// Per-shard breakdown, indexed by shard id. Shards listed in
    /// `lost_shards` hold the counters recovered from their last telemetry
    /// snapshot cell: a panicked shard's work up to the batch boundary
    /// before its death still counts toward degraded-run throughput.
    pub per_shard: Vec<ShardMetrics>,
    /// Shards whose final counters could not be harvested directly because
    /// the shard failed before shutdown (failure accounting for degraded
    /// runs). Their `per_shard` slots hold last-snapshot values, which may
    /// trail the truth by up to one publish interval.
    pub lost_shards: Vec<usize>,
    /// Lane flush latency: one `flush()` of an outgoing batch.
    pub flush: LatencyHistogram,
    /// Quiescence-detection latency: entry into
    /// `Engine::try_await_quiescence` until the counters balanced.
    pub quiesce: LatencyHistogram,
    /// Ingest→fixpoint latency: first ingest after a quiescent point until
    /// the next detected quiescence (one sample per settled burst).
    pub ingest_fixpoint: LatencyHistogram,
}

impl RunMetrics {
    /// Sum over shards.
    pub fn total(&self) -> ShardMetrics {
        let mut t = ShardMetrics::default();
        for m in &self.per_shard {
            t.merge(m);
        }
        t
    }

    /// Update events generated per topology event — the algorithm's message
    /// amplification factor.
    pub fn amplification(&self) -> f64 {
        let t = self.total();
        if t.topo_ingested == 0 {
            0.0
        } else {
            t.update_events as f64 / t.topo_ingested as f64
        }
    }

    /// Checks envelope conservation: every envelope counted as sent must be
    /// accounted for exactly once —
    ///
    /// ```text
    /// envelopes_sent
    ///   == events_processed + updates_dominated
    ///    + envelopes_undeliverable + envelopes_discarded
    /// ```
    ///
    /// `updates_suppressed` are dropped *before* sending and never enter
    /// the sent side. Dominance-retired envelopes were sent, so they
    /// appear on the right. A rollback drops every envelope in flight
    /// unprocessed and counts it under `envelopes_discarded` (re-running
    /// the log derives its effects again, as fresh traffic counted on both
    /// sides).
    ///
    /// The equation only closes on runs that reached quiescence with all
    /// shards alive: the envelopes a lost shard held at the moment of
    /// death are unaccounted. `try_finish` debug-asserts this on every clean
    /// harvest; chaos and property suites call it explicitly.
    ///
    /// Since PR 10 this also checks the phase-accounting decomposition
    /// (per shard, attributed phase nanoseconds ≤ busy wall plus 1 ms of
    /// `Instant` truncation slack) and trace-plane sanity
    /// (`trace_spans_dropped ≤ trace_spans`, `trace_roots ≤ trace_spans`).
    pub fn verify_balance(&self) -> Result<(), String> {
        let t = self.total();
        let accounted = t.events_processed()
            + t.updates_dominated
            + t.envelopes_undeliverable
            + t.envelopes_discarded;
        // Phase accounting: the attributed phases must decompose the busy
        // wall they were carved out of. Each phase lap stops before the
        // busy charge, so per shard sum(phases) ≤ busy up to `Instant`
        // truncation drift; allow 1 ms of slack per shard for that drift.
        for (i, m) in self.per_shard.iter().enumerate() {
            let slack = 1_000_000;
            if m.phase_sum_ns() > m.phase_busy_ns + slack {
                return Err(format!(
                    "phase accounting violated on shard {i}: attributed {} ns \
                     exceeds busy wall {} ns",
                    m.phase_sum_ns(),
                    m.phase_busy_ns,
                ));
            }
        }
        // Trace plane: every drop is a recorded span that evicted another,
        // and every root minted a span.
        if t.trace_spans_dropped > t.trace_spans {
            return Err(format!(
                "trace accounting violated: {} spans dropped > {} recorded",
                t.trace_spans_dropped, t.trace_spans,
            ));
        }
        if t.trace_roots > t.trace_spans {
            return Err(format!(
                "trace accounting violated: {} roots > {} spans recorded",
                t.trace_roots, t.trace_spans,
            ));
        }
        if t.envelopes_sent == accounted {
            Ok(())
        } else {
            Err(format!(
                "envelope balance violated: sent {} != accounted {} (processed {} \
                 + dominated {} + undeliverable {} + discarded {})",
                t.envelopes_sent,
                accounted,
                t.events_processed(),
                t.updates_dominated,
                t.envelopes_undeliverable,
                t.envelopes_discarded,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = ShardMetrics {
            add_events: 2,
            update_events: 3,
            ..Default::default()
        };
        let b = ShardMetrics {
            add_events: 5,
            triggers_fired: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.add_events, 7);
        assert_eq!(a.update_events, 3);
        assert_eq!(a.triggers_fired, 1);
    }

    #[test]
    fn merge_adds_lattice_counters() {
        let mut a = ShardMetrics {
            updates_dominated: 3,
            updates_suppressed: 5,
            ..Default::default()
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.updates_dominated, 6);
        assert_eq!(a.updates_suppressed, 10);
    }

    #[test]
    fn merge_adds_transport_counters() {
        let mut a = ShardMetrics {
            lane_batches: 10,
            lane_full_fallbacks: 2,
            unparks: 7,
            idle_parks: 3,
            ..Default::default()
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.lane_batches, 20);
        assert_eq!(a.lane_full_fallbacks, 4);
        assert_eq!(a.unparks, 14);
        assert_eq!(a.idle_parks, 6);
    }

    #[test]
    fn events_processed_sums_kinds() {
        let m = ShardMetrics {
            init_events: 1,
            add_events: 2,
            reverse_add_events: 3,
            update_events: 4,
            ..Default::default()
        };
        assert_eq!(m.events_processed(), 10);
    }

    #[test]
    fn words_roundtrip_and_names_align() {
        assert_eq!(
            ShardMetrics::COUNTER_NAMES.len(),
            ShardMetrics::COUNTER_WORDS
        );
        // Every name unique.
        for (i, a) in ShardMetrics::COUNTER_NAMES.iter().enumerate() {
            for b in &ShardMetrics::COUNTER_NAMES[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Fill each counter with a distinct value through the words array
        // and verify the roundtrip is exact and index-aligned.
        let mut words = [0u64; ShardMetrics::COUNTER_WORDS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = (i as u64 + 1) * 7;
        }
        let m = ShardMetrics::from_words(&words);
        let mut back = [0u64; ShardMetrics::COUNTER_WORDS];
        m.to_words(&mut back);
        assert_eq!(words, back);
        // Spot-check alignment for a couple of known fields.
        let topo_idx = ShardMetrics::COUNTER_NAMES
            .iter()
            .position(|n| *n == "topo_ingested")
            .unwrap();
        assert_eq!(m.topo_ingested, words[topo_idx]);
        let parks_idx = ShardMetrics::COUNTER_NAMES
            .iter()
            .position(|n| *n == "idle_parks")
            .unwrap();
        assert_eq!(m.idle_parks, words[parks_idx]);
    }

    #[test]
    fn amplification_guards_division() {
        let r = RunMetrics {
            per_shard: vec![ShardMetrics::default()],
            ..Default::default()
        };
        assert_eq!(r.amplification(), 0.0);
        let r = RunMetrics {
            per_shard: vec![ShardMetrics {
                topo_ingested: 10,
                update_events: 30,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!((r.amplification() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn verify_balance_closes_and_reports() {
        let balanced = RunMetrics {
            per_shard: vec![ShardMetrics {
                envelopes_sent: 10,
                add_events: 6,
                update_events: 2,
                updates_dominated: 2,
                updates_suppressed: 4, // suppressed pre-send: not in equation
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(balanced.verify_balance().is_ok());

        let unbalanced = RunMetrics {
            per_shard: vec![ShardMetrics {
                envelopes_sent: 11,
                add_events: 6,
                ..Default::default()
            }],
            ..Default::default()
        };
        let err = unbalanced.verify_balance().unwrap_err();
        assert!(err.contains("sent 11"), "{err}");
    }

    #[test]
    fn verify_balance_checks_phase_and_trace_accounting() {
        let ok = RunMetrics {
            per_shard: vec![ShardMetrics {
                phase_process_ns: 600,
                phase_park_ns: 300,
                phase_busy_ns: 1_000,
                trace_roots: 1,
                trace_spans: 5,
                trace_spans_dropped: 2,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(ok.verify_balance().is_ok());
        assert_eq!(ok.per_shard[0].phase_sum_ns(), 900);

        // Attributed phases exceeding busy beyond the 1 ms slack fail.
        let over = RunMetrics {
            per_shard: vec![ShardMetrics {
                phase_process_ns: 3_000_000,
                phase_busy_ns: 1_000_000,
                ..Default::default()
            }],
            ..Default::default()
        };
        let err = over.verify_balance().unwrap_err();
        assert!(err.contains("phase accounting violated"), "{err}");

        // More drops than spans is impossible by construction.
        let drops = RunMetrics {
            per_shard: vec![ShardMetrics {
                trace_spans: 1,
                trace_spans_dropped: 2,
                ..Default::default()
            }],
            ..Default::default()
        };
        let err = drops.verify_balance().unwrap_err();
        assert!(err.contains("spans dropped"), "{err}");

        // More roots than spans is impossible: each root records a span.
        let roots = RunMetrics {
            per_shard: vec![ShardMetrics {
                trace_roots: 3,
                trace_spans: 2,
                ..Default::default()
            }],
            ..Default::default()
        };
        let err = roots.verify_balance().unwrap_err();
        assert!(err.contains("roots"), "{err}");
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile_ns(0.99), 0.0);
        for _ in 0..90 {
            h.record(1_000); // bit length 10 -> bucket 10: [512, 1024)
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket 20: [524288, 1048576)
        }
        assert_eq!(h.count, 100);
        let p50 = h.quantile_ns(0.50);
        assert!((512.0..1024.0).contains(&p50), "p50={p50}");
        let p999 = h.quantile_ns(0.999);
        assert!((524_288.0..=1_048_576.0).contains(&p999), "p999={p999}");
        // Log-bucket estimate stays within 2x of the true value.
        assert!(p50 <= 2.0 * 1_000.0 && 2.0 * p50 >= 1_000.0);
        assert!(p999 <= 2.0 * 1_000_000.0 && 2.0 * p999 >= 1_000_000.0);
        let (p50_us, p99_us, p999_us) = h.quantiles_us();
        assert!(p50_us <= p99_us && p99_us <= p999_us);
    }

    #[test]
    fn histogram_merge_and_edges() {
        let mut a = LatencyHistogram::new();
        a.record(0);
        a.record(1);
        a.record(u64::MAX); // clamps to the top bucket
        let mut b = LatencyHistogram::new();
        b.record(7);
        b.merge(&a);
        assert_eq!(b.count, 4);
        assert_eq!(b.buckets[0], 1);
        assert_eq!(b.buckets[1], 1);
        assert_eq!(b.buckets[3], 1); // 7 has bit length 3
        assert_eq!(b.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(b.sum_ns, u64::MAX, "the sum saturates");
    }
}
