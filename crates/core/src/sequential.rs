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
//! 2. **Baseline**: the `ablate_engine` bench compares the serialized model
//!    against the concurrent one — the architectural motivation of §II-A.
//! 3. **Debugging**: deterministic single-threaded execution of the exact
//!    same `Algorithm` implementations.
//!
//! It reuses the [`Algorithm`]/[`EventCtx`] programming model unchanged;
//! only the execution strategy differs (no shards, no channels, no
//! epochs — snapshots are trivial here because any point between two
//! topology events is globally consistent).

use std::collections::VecDeque;

use remo_store::{EdgeMeta, VertexId};

use crate::algorithm::{AlgoCtx, Algorithm, EventCtx};
use crate::event::{EventKind, TopoEvent, TopoOp};
use crate::metrics::ShardMetrics;
use crate::storage::DenseStore;

/// A single-threaded, event-at-a-time dynamic graph engine.
pub struct SequentialEngine<A: Algorithm> {
    algo: A,
    undirected: bool,
    /// The shards' store, reached the way they reach it (`intern`, then
    /// `fork_and_parts` off the handle) and always at epoch 0: with one
    /// event in flight there is nothing to fork.
    store: DenseStore<A::State>,
    queue: VecDeque<(VertexId, VertexId, A::State, u64, EventKind)>,
    out: Vec<crate::algorithm::Outgoing<A::State>>,
    metrics: ShardMetrics,
    edges: u64,
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
        }
    }

    /// Sends an `Init` event to `v` and runs its cascade to completion.
    pub fn init_vertex(&mut self, v: VertexId) {
        self.enqueue(v, v, A::State::default(), 1, EventKind::Init);
        self.drain();
    }

    /// Ingests one topology event **atomically**: the event and its entire
    /// algorithmic cascade complete before this returns (the sequential
    /// model the paper contrasts against).
    pub fn apply(&mut self, ev: TopoEvent) {
        self.metrics.topo_ingested += 1;
        let kind = match ev.op {
            TopoOp::Add => EventKind::Add,
            TopoOp::Remove => EventKind::Remove,
        };
        self.enqueue(ev.src, ev.dst, A::State::default(), ev.weight, kind);
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
            self.process(target, visitor, value, weight, kind);
        }
    }

    fn process(
        &mut self,
        target: VertexId,
        visitor: VertexId,
        value: A::State,
        weight: u64,
        kind: EventKind,
    ) {
        let h = self.store.intern(target);
        let (_, parts) = self.store.fork_and_parts(h, 0);
        match kind {
            EventKind::Add | EventKind::ReverseAdd => {
                let cached = if kind == EventKind::ReverseAdd {
                    A::encode_cache(&value)
                } else {
                    0
                };
                if parts
                    .adj
                    .insert_weight_min(visitor, EdgeMeta { weight, cached })
                {
                    self.edges += 1;
                    self.metrics.edges_inserted += 1;
                } else {
                    self.metrics.duplicate_edges += 1;
                }
            }
            EventKind::Update => {
                parts.adj.set_cached(visitor, A::encode_cache(&value));
            }
            EventKind::Remove | EventKind::ReverseRemove => {
                if parts.adj.remove(visitor).is_some() {
                    self.edges -= 1;
                    self.metrics.edges_removed += 1;
                }
            }
            EventKind::Init => {}
        }

        let mut reverse_value = None;
        {
            let mut ctx = EventCtx::new(target, parts, &mut self.out, 0);
            match kind {
                EventKind::Init => {
                    self.metrics.init_events += 1;
                    self.algo.init(&mut ctx);
                }
                EventKind::Add => {
                    self.metrics.add_events += 1;
                    self.algo.on_add(&mut ctx, visitor, &value, weight);
                }
                EventKind::ReverseAdd => {
                    self.metrics.reverse_add_events += 1;
                    self.algo.on_reverse_add(&mut ctx, visitor, &value, weight);
                }
                EventKind::Update => {
                    self.metrics.update_events += 1;
                    self.algo.on_update(&mut ctx, visitor, &value, weight);
                }
                EventKind::Remove => {
                    self.metrics.remove_events += 1;
                    self.algo.on_remove(&mut ctx, visitor, &value, weight);
                }
                EventKind::ReverseRemove => {
                    self.metrics.remove_events += 1;
                    self.algo
                        .on_reverse_remove(&mut ctx, visitor, &value, weight);
                }
            }
            if self.undirected && matches!(kind, EventKind::Add | EventKind::Remove) {
                reverse_value = Some(ctx.state().clone());
            }
        }

        if let Some(rv) = reverse_value {
            let rkind = if kind == EventKind::Add {
                EventKind::ReverseAdd
            } else {
                EventKind::ReverseRemove
            };
            self.enqueue(visitor, target, rv, weight, rkind);
        }
        let mut outgoing = std::mem::take(&mut self.out);
        for o in outgoing.drain(..) {
            self.enqueue(o.target, target, o.value, o.weight, EventKind::Update);
        }
        self.out = outgoing;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct MinFlood;

    impl Algorithm for MinFlood {
        type State = u64;
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
