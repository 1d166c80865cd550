//! A sequential reference engine: the abstract machine of prior dynamic
//! graph work (§I footnote 1, §II-A reason (i)).
//!
//! "Previous dynamic solutions could support serial graph changes ... these
//! solutions are sequential – each event is processed once the previous
//! event has finished." This engine implements exactly that model: one
//! thread, one queue; every topology event is ingested atomically and its
//! entire update cascade runs to completion before the next event is
//! admitted.
//!
//! It serves three purposes:
//!
//! 1. **Reference semantics**: REMO algorithms must reach the same fixpoint
//!    here as on the concurrent engine (asserted by tests) — the paper's
//!    claim that concurrency does not change the answer.
//! 2. **Baseline**: the perf ledger's `sequential.updates_per_s` and
//!    `engine.parallel_vs_sequential` compare the serialized model against
//!    the concurrent one — the architectural motivation of §II-A.
//! 3. **Debugging**: deterministic single-threaded execution of the exact
//!    same `Algorithm` implementations.
//!
//! It shares the framework step with the shards: each event is applied by
//! the same `visit` (Algorithm 3's topology maintenance, callback dispatch
//! and reverse-event value, in `algorithm.rs`), and the same
//! [`Algorithm`] implementations run unchanged. What is its own is the
//! execution model the tests compare against: one FIFO queue, each
//! topology event's cascade run to completion before the next is admitted,
//! no lattice filter, no shards or channels (any point between two
//! topology events is globally consistent).

use std::collections::VecDeque;

use remo_store::VertexId;

use crate::algorithm::{visit, Algorithm, Outgoing};
use crate::event::{Envelope, EventKind, TopoEvent, TopoOp};
use crate::metrics::ShardMetrics;
use crate::storage::DenseStore;

/// A single-threaded, event-at-a-time dynamic graph engine.
pub struct SequentialEngine<A: Algorithm> {
    algo: A,
    undirected: bool,
    /// The shards' store, reached the way they reach it (`intern`, then
    /// `parts` off the handle).
    store: DenseStore<A::State, A::Edge>,
    /// `(target, visitor, value, weight, kind)`: an envelope without the
    /// trace tag, which is always 0 here. The narrower element
    /// (40 bytes against 48 for `u64` states) is worth about 15 % of
    /// sequential SSSP throughput on a long cascade's queue.
    queue: VecDeque<(VertexId, VertexId, A::State, u64, EventKind)>,
    out: Vec<Outgoing<A::State>>,
    metrics: ShardMetrics,
    edges: u64,
    /// The stream index of the next input: inputs are numbered as the
    /// engine numbers them, one index per event, removals and inits
    /// included.
    streamed: u64,
}

impl<A: Algorithm> SequentialEngine<A> {
    /// Creates an engine processing undirected edges.
    pub fn undirected(algo: A) -> Self {
        Self::new(algo, true)
    }

    /// Creates an engine processing directed edges.
    pub fn directed(algo: A) -> Self {
        Self::new(algo, false)
    }

    fn new(algo: A, undirected: bool) -> Self {
        SequentialEngine {
            algo,
            undirected,
            store: DenseStore::with_capacity(0),
            queue: VecDeque::new(),
            out: Vec::new(),
            metrics: ShardMetrics::default(),
            edges: 0,
            streamed: 0,
        }
    }

    /// Sends an `Init` event to `v` and runs its cascade to completion. It
    /// takes a stream index and counts as one input, as an engine's init
    /// pull does.
    pub fn init_vertex(&mut self, v: VertexId) {
        self.metrics.topo_ingested += 1;
        self.streamed += 1;
        self.enqueue(v, v, A::State::default(), 1, EventKind::Init);
        self.drain();
    }

    /// Ingests one topology event **atomically**: the event and its entire
    /// algorithmic cascade complete before this returns (the sequential
    /// model the paper contrasts against). The `n`th input (edge or init)
    /// has stream index `n - 1`, as the `n`th input fed to an engine does.
    pub fn apply(&mut self, ev: TopoEvent) {
        self.metrics.topo_ingested += 1;
        let index = self.streamed;
        self.streamed += 1;
        let (kind, value) = match ev.op {
            TopoOp::Add => (EventKind::Add, A::stream_value(index)),
            TopoOp::Remove => (EventKind::Remove, A::State::default()),
        };
        self.enqueue(ev.src, ev.dst, value, ev.weight, kind);
        self.drain();
    }

    /// Ingests a whole stream, one atomic event at a time.
    pub fn apply_pairs(&mut self, pairs: &[(VertexId, VertexId)]) {
        for &(s, d) in pairs {
            self.apply(TopoEvent::new(s, d));
        }
    }

    /// Weighted variant of [`Self::apply_pairs`].
    pub fn apply_weighted(&mut self, triples: &[(VertexId, VertexId, u64)]) {
        for &(s, d, w) in triples {
            self.apply(TopoEvent::weighted(s, d, w));
        }
    }

    /// Live state of `v` (always globally consistent between `apply`s).
    pub fn state(&self, v: VertexId) -> Option<&A::State> {
        self.store.get(v).map(|(state, _)| state)
    }

    /// All states, sorted by vertex id.
    pub fn states(&self) -> Vec<(VertexId, A::State)> {
        let mut v: Vec<(VertexId, A::State)> = self
            .store
            .iter()
            .map(|(id, state, _)| (id, state.clone()))
            .collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }

    /// Number of distinct directed edges stored.
    pub fn num_edges(&self) -> u64 {
        self.edges
    }

    /// Events processed so far, by kind.
    pub fn metrics(&self) -> &ShardMetrics {
        &self.metrics
    }

    fn enqueue(
        &mut self,
        target: VertexId,
        visitor: VertexId,
        value: A::State,
        weight: u64,
        kind: EventKind,
    ) {
        self.metrics.envelopes_sent += 1;
        self.queue.push_back((target, visitor, value, weight, kind));
    }

    fn drain(&mut self) {
        while let Some((target, visitor, value, weight, kind)) = self.queue.pop_front() {
            let env = Envelope {
                target,
                visitor,
                value,
                weight,
                kind,
                tag: 0,
            };
            let h = self.store.intern(target);
            let step = visit(
                &self.algo,
                &env,
                self.store.parts(h),
                &mut self.out,
                0,
                self.undirected,
                |_| {},
            );
            self.metrics
                .count_step(&mut self.edges, kind, step.edge, true);
            if let Some((rkind, rvalue)) = step.reverse {
                self.enqueue(visitor, target, rvalue, weight, rkind);
            }
            let mut outgoing = std::mem::take(&mut self.out);
            for o in outgoing.drain(..) {
                self.enqueue(o.target, target, o.value, o.weight, EventKind::Update);
            }
            self.out = outgoing;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::AlgoCtx;

    #[derive(Debug, Default)]
    struct MinFlood;

    impl Algorithm for MinFlood {
        type State = u64;
        type Edge = ();
        fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: u64) {
            let me = ctx.vertex() + 1;
            ctx.apply(move |s| {
                if *s == 0 || *s > me {
                    *s = me;
                    true
                } else {
                    false
                }
            });
        }
        fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: u64) {
            self.on_add(ctx, v, val, w);
            self.on_update(ctx, v, val, w);
        }
        fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: u64) {
            let mine = *ctx.state();
            let theirs = *value;
            if theirs != 0 && (mine == 0 || theirs < mine) {
                if ctx.apply(move |s| {
                    if *s == 0 || *s > theirs {
                        *s = theirs;
                        true
                    } else {
                        false
                    }
                }) {
                    ctx.update_nbrs(&theirs);
                }
            } else if mine != 0 && (theirs == 0 || mine < theirs) {
                ctx.update_single_nbr(visitor, &mine);
            }
        }
    }

    #[test]
    fn sequential_min_flood_converges() {
        let mut eng = SequentialEngine::undirected(MinFlood);
        eng.apply_pairs(&[(5, 6), (6, 7), (7, 5), (1, 7)]);
        for (v, s) in eng.states() {
            assert_eq!(s, 2, "vertex {v}"); // min id 1 -> label 2
        }
    }

    #[test]
    fn each_apply_is_atomic() {
        let mut eng = SequentialEngine::undirected(MinFlood);
        eng.apply(TopoEvent::new(5, 6));
        // Fully converged after each apply: both endpoints settled.
        assert_eq!(eng.state(5), Some(&6));
        assert_eq!(eng.state(6), Some(&6));
        eng.apply(TopoEvent::new(1, 6));
        assert_eq!(eng.state(5), Some(&2));
        assert_eq!(eng.state(6), Some(&2));
    }

    #[test]
    fn directed_mode_skips_reverse() {
        let mut eng = SequentialEngine::directed(MinFlood);
        eng.apply(TopoEvent::new(3, 9));
        assert_eq!(eng.num_edges(), 1);
        assert_eq!(eng.state(9), None, "no reverse-add in directed mode");
    }

    #[test]
    fn removals_update_topology() {
        let mut eng = SequentialEngine::undirected(MinFlood);
        eng.apply(TopoEvent::new(1, 2));
        assert_eq!(eng.num_edges(), 2);
        eng.apply(TopoEvent::removal(1, 2));
        assert_eq!(eng.num_edges(), 0);
        assert_eq!(eng.metrics().edges_removed, 2);
    }
}
