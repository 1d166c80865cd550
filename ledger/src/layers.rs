//! Per-layer metrics, all taken from outside: by timing calls into a layer's
//! public functions on the workload's own stream, or by normalising the
//! counters the engine returns. Counters are looked up by name, so a change
//! that deletes one turns a metric into [`ABSENT`] instead of breaking the
//! harness. They cover an engine's whole life, set-up included.

use std::time::Instant;

use remo_algos::{IncBfs, IncCc, IncSssp};
use remo_core::{
    Algorithm, LatencyHistogram, RunMetrics, SequentialEngine, ShardMetrics, TopoEvent,
};
use remo_store::{DenseVertexTable, EdgeMeta, InternTable};

use crate::metrics::ABSENT;
use crate::trace::Tracer;
use crate::workloads::{Algo, Plan};

/// `num / den`, or [`ABSENT`] when either is missing or `den` is zero.
fn ratio(num: Option<f64>, den: Option<f64>) -> f64 {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => n / d,
        _ => ABSENT,
    }
}

/// Engine counters summed over every repetition of a run.
#[derive(Default)]
pub struct Counters {
    per_shard: Vec<ShardMetrics>,
    flush: LatencyHistogram,
    quiesce: LatencyHistogram,
}

impl Counters {
    pub fn add(&mut self, m: &RunMetrics) {
        self.per_shard.resize(
            m.per_shard.len().max(self.per_shard.len()),
            ShardMetrics::default(),
        );
        for (mine, theirs) in self.per_shard.iter_mut().zip(&m.per_shard) {
            mine.merge(theirs);
        }
        self.flush.merge(&m.flush);
        self.quiesce.merge(&m.quiesce);
    }

    fn of(m: &ShardMetrics, name: &str) -> Option<f64> {
        let mut words = [0u64; ShardMetrics::COUNTER_WORDS];
        m.to_words(&mut words);
        let i = ShardMetrics::COUNTER_NAMES
            .iter()
            .position(|n| *n == name)?;
        Some(words[i] as f64)
    }

    /// Sum of the named counters over all shards; `None` if none exists.
    fn sum(&self, names: &[&str]) -> Option<f64> {
        let mut total = None;
        for m in &self.per_shard {
            for name in names {
                if let Some(v) = Self::of(m, name) {
                    *total.get_or_insert(0.0) += v;
                }
            }
        }
        total
    }

    /// Appends every counter-derived metric to `out`.
    pub fn report(&self, out: &mut Vec<(&'static str, f64)>) {
        let one = |name: &str| self.sum(&[name]);
        let events = self.sum(&[
            "init_events",
            "add_events",
            "reverse_add_events",
            "update_events",
            "remove_events",
        ]);
        let updates = one("topo_ingested");
        let busy = one("phase_busy_ns");
        let phases = self.sum(&[
            "phase_drain_ns",
            "phase_process_ns",
            "phase_flush_ns",
            "phase_spin_ns",
            "phase_park_ns",
            "phase_checkpoint_ns",
            "phase_replay_ns",
        ]);
        // Every update envelope an algorithm produced, wherever it ended.
        let produced = self.sum(&[
            "update_events",
            "updates_dominated",
            "envelopes_coalesced",
            "updates_suppressed",
        ]);
        let kevents = events.map(|e| e / 1e3);
        let batches = one("lane_batches");

        // The slowest shard sets a wave: its working time over the mean.
        let working: Vec<f64> = self
            .per_shard
            .iter()
            .filter_map(|m| Some(Self::of(m, "phase_busy_ns")? - Self::of(m, "phase_park_ns")?))
            .collect();
        let mean = working.iter().sum::<f64>() / working.len().max(1) as f64;
        let skew = ratio(working.iter().copied().reduce(f64::max), Some(mean));

        let attributed = ratio(phases, busy);
        let unattributed = if attributed == ABSENT {
            ABSENT
        } else {
            1.0 - attributed
        };
        let p50_us = |h: &LatencyHistogram| {
            if h.is_empty() {
                ABSENT
            } else {
                h.quantile_ns(0.5) / 1e3
            }
        };

        out.extend([
            ("shard.events_per_update", ratio(events, updates)),
            (
                "shard.process_ns_per_event",
                ratio(one("phase_process_ns"), events),
            ),
            (
                "shard.drain_ns_per_event",
                ratio(one("phase_drain_ns"), events),
            ),
            (
                "shard.flush_ns_per_event",
                ratio(one("phase_flush_ns"), events),
            ),
            (
                "shard.spin_ns_per_event",
                ratio(one("phase_spin_ns"), events),
            ),
            ("shard.park_share", ratio(one("phase_park_ns"), busy)),
            ("shard.busy_skew", skew),
            ("shard.unattributed_share", unattributed),
            (
                "lattice.dominated_ratio",
                ratio(one("updates_dominated"), produced),
            ),
            (
                "lattice.coalesced_ratio",
                ratio(one("envelopes_coalesced"), produced),
            ),
            (
                "lattice.suppressed_ratio",
                ratio(one("updates_suppressed"), produced),
            ),
            (
                "transport.envelopes_per_update",
                ratio(one("envelopes_sent"), updates),
            ),
            (
                "transport.envelopes_per_batch",
                ratio(one("envelopes_sent"), batches),
            ),
            (
                "transport.recycle_ratio",
                ratio(one("batches_recycled"), batches),
            ),
            (
                "transport.fallback_ratio",
                ratio(one("lane_full_fallbacks"), batches),
            ),
            (
                "transport.unparks_per_kevent",
                ratio(one("unparks"), kevents),
            ),
            (
                "transport.parks_per_kevent",
                ratio(one("idle_parks"), kevents),
            ),
            (
                "transport.flush_deferrals_per_kevent",
                ratio(one("flush_deferrals"), kevents),
            ),
            ("transport.flush_p50_us", p50_us(&self.flush)),
            ("termination.quiesce_p50_us", p50_us(&self.quiesce)),
        ]);
    }
}

/// Times the store on its own over the stream the engine ingested: one
/// intern per endpoint, then one adjacency insert per direction.
pub fn store(plan: &Plan, tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let n = plan.consumed();
    let mut interner = InternTable::new();
    let t = Instant::now();
    for (s, d, _) in plan.edges.iter(0..n) {
        std::hint::black_box(interner.intern(s));
        std::hint::black_box(interner.intern(d));
    }
    let intern_ns = t.elapsed().as_nanos() as f64 / (2 * n) as f64;

    let mut table: DenseVertexTable<u64> = DenseVertexTable::new();
    let mut duplicates = 0usize;
    let t = Instant::now();
    tracer.span("store.insert_edge", None, || {
        for (s, d, w) in plan.edges.iter(0..n) {
            duplicates += usize::from(!table.insert_edge(s, d, EdgeMeta::weighted(w)));
            duplicates += usize::from(!table.insert_edge(d, s, EdgeMeta::weighted(w)));
        }
    });
    let insert_ns = t.elapsed().as_nanos() as f64 / (2 * n) as f64;
    out.extend([
        ("store.intern_ns", intern_ns),
        ("store.insert_edge_ns", insert_ns),
        (
            "store.bytes_per_edge",
            ratio(
                Some(table.heap_bytes() as f64),
                Some(table.num_edges() as f64),
            ),
        ),
        (
            "store.duplicate_edge_ratio",
            duplicates as f64 / (2 * n) as f64,
        ),
    ]);
}

/// Runs the stream through the single-threaded engine — the same algorithm
/// and store with no transport — and returns its updates/s, the floor the
/// sharded engine has to beat.
pub fn sequential(plan: &Plan, tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) -> f64 {
    fn run<A: Algorithm<State = u64>>(algo: A, plan: &Plan, tracer: &mut Tracer) -> (f64, f64) {
        let mut engine = SequentialEngine::undirected(algo);
        if let Some(s) = plan.source {
            engine.init_vertex(s);
        }
        for (s, d, w) in plan.edges.iter(0..plan.preload) {
            engine.apply(TopoEvent::weighted(s, d, w));
        }
        let t = Instant::now();
        tracer.span("sequential.apply", None, || {
            for (s, d, w) in plan.edges.iter(plan.preload..plan.consumed()) {
                engine.apply(TopoEvent::weighted(s, d, w));
            }
        });
        let updates = (plan.consumed() - plan.preload) as f64;
        let m = engine.metrics();
        (
            updates / t.elapsed().as_secs_f64(),
            ratio(
                Some(m.events_processed() as f64),
                Some(m.topo_ingested as f64),
            ),
        )
    }
    let (updates_per_s, events_per_update) = match plan.algo {
        Algo::Bfs => run(IncBfs, plan, tracer),
        Algo::Sssp => run(IncSssp, plan, tracer),
        Algo::Cc => run(IncCc, plan, tracer),
    };
    out.extend([
        ("sequential.updates_per_s", updates_per_s),
        ("sequential.events_per_update", events_per_update),
    ]);
    updates_per_s
}
