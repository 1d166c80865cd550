//! The event-centric programming model (§III-A, Algorithm 3).
//!
//! An [`Algorithm`] is a set of user-defined callbacks triggered by events:
//! `init` / `on_add` / `on_reverse_add` / `on_update`, mirroring the paper's
//! virtual methods. Each callback receives a context implementing
//! [`AlgoCtx`] giving access to the visited vertex's state and adjacency,
//! and to the two propagation primitives `update_nbrs` /
//! `update_single_nbr`. The programmer "does not have to consider how the
//! event propagates: the complexities of the graph topology structure are
//! hidden by the supporting framework."
//!
//! The context is a trait (rather than the concrete [`EventCtx`]) so that
//! algorithms compose: [`crate::registry::QueryRegistry`] runs N algorithms
//! simultaneously over one topology by projecting the context — the paper's
//! "multiple algorithms can be executed simultaneously on the same
//! underlying dynamic data structure" vision (§I), which its prototype left
//! as future work (§III-F).
//!
//! State changes go through [`AlgoCtx::apply`], which transparently handles
//! the snapshot protocol (applying old-epoch events to the forked previous
//! state as well, §III-D) and records changes for trigger evaluation.

use crate::event::{ControlKind, ControlOp, Epoch};
use crate::storage::VertexParts;
use crate::trigger::{TriggerDef, TriggerFire};
use remo_store::{EdgeMeta, VertexId, Weight};

/// A REMO algorithm: user callbacks over the engine's events.
///
/// Implementations must preserve the two REMO properties (§II-B):
/// *recursive* event propagation (callbacks re-use the same update event as
/// the recursive step) and *monotonic* convergence (every state change moves
/// in one direction toward a bound). The engine does not — cannot — check
/// monotonicity; the algorithm crate's property tests do.
pub trait Algorithm: Send + Sync + 'static {
    /// Vertex-local state (`this.value`). `Default` must be the lattice
    /// bottom: the state of a vertex that has seen no events.
    type State: Clone + Default + Send + PartialEq + std::fmt::Debug + 'static;

    /// Called when an `Init` event reaches a vertex (e.g. the BFS source).
    fn init(&self, _ctx: &mut impl AlgoCtx<Self::State>) {}

    /// Called at the first endpoint of a new edge (after the engine inserted
    /// the edge into the local topology). `visitor` is the other endpoint;
    /// no meaningful value is available yet.
    fn on_add(
        &self,
        _ctx: &mut impl AlgoCtx<Self::State>,
        _visitor: VertexId,
        _value: &Self::State,
        _weight: Weight,
    ) {
    }

    /// Called at the second endpoint of an undirected edge; `value` is the
    /// first endpoint's state at `Add` time.
    fn on_reverse_add(
        &self,
        _ctx: &mut impl AlgoCtx<Self::State>,
        _visitor: VertexId,
        _value: &Self::State,
        _weight: Weight,
    ) {
    }

    /// Called for algorithm-generated update events; `value` is the
    /// visitor's state at send time, `weight` the edge the event travelled.
    fn on_update(
        &self,
        _ctx: &mut impl AlgoCtx<Self::State>,
        _visitor: VertexId,
        _value: &Self::State,
        _weight: Weight,
    ) {
    }

    /// Called at the first endpoint of a removed edge, after the engine
    /// dropped the edge from the local topology (§VI-B extension). The core
    /// REMO algorithms ignore removals; generational variants react here.
    fn on_remove(
        &self,
        _ctx: &mut impl AlgoCtx<Self::State>,
        _visitor: VertexId,
        _value: &Self::State,
        _weight: Weight,
    ) {
    }

    /// Called at the second endpoint of an undirected edge removal.
    fn on_reverse_remove(
        &self,
        _ctx: &mut impl AlgoCtx<Self::State>,
        _visitor: VertexId,
        _value: &Self::State,
        _weight: Weight,
    ) {
    }

    /// Compact encoding of a state for the per-edge neighbour cache
    /// (`this.nbrs.set(vis_ID, vis_val)` in Algorithm 3). The engine stores
    /// this on the incoming edge whenever a neighbour's value arrives;
    /// algorithms may read it back to suppress redundant sends. Return 0 if
    /// the cache is unused.
    fn encode_cache(_state: &Self::State) -> u64
    where
        Self: Sized,
    {
        0
    }

    /// The lattice filter's one question: does `live` — the target's
    /// current state — already hold everything an `Update` carrying
    /// `incoming` could tell it? When it does, the engine retires the
    /// envelope without running [`Algorithm::on_update`]: never sent when
    /// it is self-routed (`updates_suppressed`), counted processed on
    /// arrival otherwise (`updates_dominated`). The default returns
    /// `false`, which keeps exact §III-C FIFO processing for this
    /// algorithm; implementing the hook is what switches the filter on.
    /// `Add`/`ReverseAdd`/`Remove` carry topology and are never asked.
    ///
    /// Soundness contract: return `true` only when `on_update` with
    /// `incoming` — over any edge weight — could not change `live` and
    /// would send nothing the fixpoint depends on. Monotone states only
    /// advance toward their bound (§II-B), so an update absorbed now stays
    /// absorbed however long it waits; when in doubt, return `false`.
    /// Keep it cheap: it runs at every check point an `Update` envelope
    /// passes (self-send, process).
    fn absorbs(_live: &Self::State, _incoming: &Self::State) -> bool
    where
        Self: Sized,
    {
        false
    }

    /// Serializes one vertex state for the durability layer (WAL envelope
    /// records and checkpoint images; see [`crate::wal`]). Must be the
    /// exact inverse of [`Algorithm::decode_state`] — recovery asserts
    /// byte-identical fixpoints on it. The default panics: implement both
    /// codec hooks before enabling
    /// [`EngineConfig::with_durability`](crate::EngineConfig::with_durability).
    /// Durability-off engines never call either hook.
    fn encode_state(_state: &Self::State, _out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        panic!("Algorithm::encode_state is required when durability is enabled");
    }

    /// Deserializes one vertex state previously written by
    /// [`Algorithm::encode_state`]. May panic on corrupt input (the WAL
    /// and checkpoint layers CRC-validate frames before decoding, so this
    /// only sees bytes the same algorithm produced).
    fn decode_state(_bytes: &[u8]) -> Self::State
    where
        Self: Sized,
    {
        panic!("Algorithm::decode_state is required when durability is enabled");
    }

    /// Control-plane claim: a [`ControlOp`] broadcast (see
    /// [`crate::registry`]) reached `shard`. Return the subset of
    /// `op.mask` this algorithm wants swept on that shard (0 = nothing,
    /// the default — plain algorithms ignore the control plane). When the
    /// returned mask is non-zero the shard logs the claim durably, runs
    /// one full-store sweep calling [`Algorithm::on_sweep`] per vertex,
    /// and then calls [`Algorithm::on_control_commit`].
    fn on_control(&self, _shard: usize, _op: &ControlOp) -> u64 {
        0
    }

    /// One vertex visit of a claimed control sweep. `mask` is the claimed
    /// slot mask returned by [`Algorithm::on_control`]. Updates queued
    /// through `ctx` are routed as ordinary envelopes after the visit.
    fn on_sweep(&self, _ctx: &mut impl AlgoCtx<Self::State>, _kind: ControlKind, _mask: u64) {}

    /// Called once per shard after a claimed sweep finished and its
    /// outgoing envelopes were routed — the point to publish per-shard
    /// progress bits (e.g. the registry's primed/flooded masks).
    fn on_control_commit(&self, _shard: usize, _kind: ControlKind, _claimed: u64) {}
}

/// Little-endian `u64` state codec helpers for the common `State = u64`
/// case — most REMO lattice states (levels, distances, component labels)
/// encode this way.
pub mod codec {
    /// Appends `v` little-endian.
    pub fn put_u64(v: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u64` from the front of `bytes`. Panics on
    /// short input (corrupt durable data).
    pub fn get_u64(bytes: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[..8]);
        u64::from_le_bytes(w)
    }

    /// Appends `v` little-endian.
    pub fn put_u32(v: u32, out: &mut Vec<u8>) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u32` from the front of `bytes`.
    pub fn get_u32(bytes: &[u8]) -> u32 {
        let mut w = [0u8; 4];
        w.copy_from_slice(&bytes[..4]);
        u32::from_le_bytes(w)
    }
}

/// Callback context: the visited vertex's state, adjacency, and propagation
/// primitives. Implemented by the engine's [`EventCtx`] and by the
/// projections of [`crate::registry::QueryRegistry`].
pub trait AlgoCtx<S: Clone> {
    /// The vertex being visited.
    fn vertex(&self) -> VertexId;

    /// Snapshot epoch of the event being processed.
    fn epoch(&self) -> Epoch;

    /// Shard executing this callback (0 when the context has no shard,
    /// e.g. the sequential reference engine). Composition layers forward
    /// it; the registry keys per-shard progress masks on it.
    fn shard_hint(&self) -> usize {
        0
    }

    /// Current (live) state of the vertex.
    fn state(&self) -> &S;

    /// Applies a monotone state transition. The closure must return whether
    /// it changed the state; it may be invoked twice (live + snapshot
    /// fork), so it must be a pure function of its argument — which is
    /// exactly what a REMO monotone join is.
    fn apply(&mut self, f: impl Fn(&mut S) -> bool) -> bool
    where
        Self: Sized;

    /// Out-degree of the vertex.
    fn degree(&self) -> usize;

    /// Weight of the edge to `nbr`, if present.
    fn edge_weight(&self, nbr: VertexId) -> Option<Weight>;

    /// Cached last-known value of `nbr` (as encoded by
    /// [`Algorithm::encode_cache`]), if the edge exists.
    fn nbr_cached(&self, nbr: VertexId) -> Option<u64>;

    /// Invokes `f` for every `(neighbour, edge metadata)` pair.
    fn for_each_nbr(&self, f: &mut dyn FnMut(VertexId, EdgeMeta));

    /// Sends an update event carrying `value` to every neighbour, each over
    /// its own edge weight (Algorithm 3's `update_nbrs`).
    fn update_nbrs(&mut self, value: &S);

    /// Sends an update event to the neighbours for which `keep` returns
    /// true — the cache-suppression variant (see
    /// [`Algorithm::encode_cache`]).
    fn update_nbrs_filtered(&mut self, value: &S, keep: impl Fn(VertexId, &EdgeMeta) -> bool)
    where
        Self: Sized;

    /// Sends an update event carrying `value` to a single vertex, using the
    /// stored edge weight when the edge exists (Algorithm 3's
    /// `update_single_nbr`). Falls back to weight 1 for edges this vertex
    /// does not hold (e.g. notify-back in a directed graph).
    fn update_single_nbr(&mut self, nbr: VertexId, value: &S) {
        let weight = self.edge_weight(nbr).unwrap_or(1);
        self.send_update(nbr, value, weight);
    }

    /// Sends an update event with an explicit weight.
    fn send_update(&mut self, target: VertexId, value: &S, weight: Weight);
}

/// An update event queued by a callback, routed by the shard after the
/// callback returns.
#[derive(Debug, Clone)]
pub struct Outgoing<S> {
    pub target: VertexId,
    pub value: S,
    pub weight: Weight,
}

/// The engine's concrete callback context.
///
/// Holds split borrows of the visited vertex's storage
/// ([`VertexParts`]): live state, fork, meta word and adjacency, each
/// reached without going back through the store.
pub struct EventCtx<'a, S> {
    vertex: VertexId,
    parts: VertexParts<'a, S>,
    out: &'a mut Vec<Outgoing<S>>,
    epoch: Epoch,
    /// Shard id surfaced through [`AlgoCtx::shard_hint`] (0 until set).
    shard: usize,
    /// Set when `apply` reported a state change (drives trigger checks).
    pub(crate) state_changed: bool,
}

impl<'a, S: Clone> EventCtx<'a, S> {
    /// Builds a context for one callback invocation. The storage layout
    /// resolved the dual-apply question when assembling `parts`:
    /// `parts.prev` is `Some` exactly when the event's epoch predates the
    /// vertex's fork.
    pub(crate) fn new(
        vertex: VertexId,
        parts: VertexParts<'a, S>,
        out: &'a mut Vec<Outgoing<S>>,
        epoch: Epoch,
    ) -> Self {
        EventCtx {
            vertex,
            parts,
            out,
            epoch,
            shard: 0,
            state_changed: false,
        }
    }

    /// Stamps the executing shard id (surfaced via
    /// [`AlgoCtx::shard_hint`]); separate from `new` so existing call
    /// sites without a shard keep the 0 default.
    #[inline]
    pub(crate) fn set_shard(&mut self, shard: usize) {
        self.shard = shard;
    }

    /// Trigger evaluation on state change (§III-E), run by the engine once
    /// the callback is done: every registered predicate that has not fired
    /// for this vertex yet is tested against its state, and each one that
    /// holds is marked fired (at most once per `(trigger, vertex)`) and
    /// queued on `fires`, stamped with the observing shard and its `seq`.
    #[inline]
    pub(crate) fn fire_triggers(
        &mut self,
        triggers: &[TriggerDef<S>],
        seq: u64,
        fires: &mut Vec<TriggerFire>,
    ) {
        if !self.state_changed {
            return;
        }
        for (i, t) in triggers.iter().enumerate() {
            let bit = 1u32 << i;
            if self.parts.meta.fired & bit == 0 && (t.predicate)(self.vertex, self.parts.live) {
                self.parts.meta.fired |= bit;
                fires.push(TriggerFire {
                    trigger: i,
                    vertex: self.vertex,
                    shard: self.shard,
                    seq,
                });
            }
        }
    }

    /// Iterates `(neighbour, edge metadata)` pairs (inherent convenience).
    pub fn nbrs(&self) -> impl Iterator<Item = (VertexId, EdgeMeta)> + '_ {
        self.parts.adj.iter()
    }
}

impl<'a, S: Clone> AlgoCtx<S> for EventCtx<'a, S> {
    #[inline]
    fn vertex(&self) -> VertexId {
        self.vertex
    }

    #[inline]
    fn epoch(&self) -> Epoch {
        self.epoch
    }

    #[inline]
    fn shard_hint(&self) -> usize {
        self.shard
    }

    #[inline]
    fn state(&self) -> &S {
        self.parts.live
    }

    fn apply(&mut self, f: impl Fn(&mut S) -> bool) -> bool {
        let changed = f(self.parts.live);
        if let Some(prev) = self.parts.prev.as_deref_mut() {
            f(prev);
        }
        self.state_changed |= changed;
        changed
    }

    #[inline]
    fn degree(&self) -> usize {
        self.parts.adj.degree()
    }

    fn edge_weight(&self, nbr: VertexId) -> Option<Weight> {
        self.parts.adj.get(nbr).map(|m| m.weight)
    }

    fn nbr_cached(&self, nbr: VertexId) -> Option<u64> {
        self.parts.adj.get(nbr).map(|m| m.cached)
    }

    fn for_each_nbr(&self, f: &mut dyn FnMut(VertexId, EdgeMeta)) {
        for (n, m) in self.parts.adj.iter() {
            f(n, m);
        }
    }

    fn update_nbrs(&mut self, value: &S) {
        for (nbr, meta) in self.parts.adj.iter() {
            self.out.push(Outgoing {
                target: nbr,
                value: value.clone(),
                weight: meta.weight,
            });
        }
    }

    fn update_nbrs_filtered(&mut self, value: &S, keep: impl Fn(VertexId, &EdgeMeta) -> bool) {
        for (nbr, meta) in self.parts.adj.iter() {
            if keep(nbr, &meta) {
                self.out.push(Outgoing {
                    target: nbr,
                    value: value.clone(),
                    weight: meta.weight,
                });
            }
        }
    }

    fn send_update(&mut self, target: VertexId, value: &S, weight: Weight) {
        self.out.push(Outgoing {
            target,
            value: value.clone(),
            weight,
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::storage::DenseStore;

    /// A store holding vertex 1 in `state`, with `nbrs` as its out-edges
    /// (shared with the registry's context tests).
    pub(crate) fn store<S>(state: S, nbrs: &[(VertexId, EdgeMeta)]) -> DenseStore<S>
    where
        S: Clone + Default + PartialEq,
    {
        let mut st = DenseStore::with_capacity(0);
        let h = st.intern(1);
        let (_, parts) = st.fork_and_parts(h, 0);
        *parts.live = state;
        for &(n, meta) in nbrs {
            parts.adj.insert(n, meta);
        }
        st
    }

    /// Context over vertex 1 for an event of `epoch`, built the way the
    /// shard loop builds it.
    pub(crate) fn ctx<'a, S>(
        st: &'a mut DenseStore<S>,
        out: &'a mut Vec<Outgoing<S>>,
        epoch: Epoch,
    ) -> EventCtx<'a, S>
    where
        S: Clone + Default + PartialEq,
    {
        let h = st.intern(1);
        EventCtx::new(1, st.fork_and_parts(h, epoch).1, out, epoch)
    }

    /// Vertex 1's live state and, if an event of epoch 0 would reach it,
    /// its fork.
    fn live_and_fork(st: &mut DenseStore<u64>) -> (u64, Option<u64>) {
        let h = st.intern(1);
        let (_, parts) = st.fork_and_parts(h, 0);
        (*parts.live, parts.prev.as_deref().copied())
    }

    #[test]
    fn apply_tracks_changes() {
        let mut st = store(10, &[]);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out, 0);
        assert!(!ctx.apply(|s| {
            if *s > 20 {
                *s = 20;
                true
            } else {
                false
            }
        }));
        assert!(!ctx.state_changed);
        assert!(ctx.apply(|s| {
            if *s > 5 {
                *s = 5;
                true
            } else {
                false
            }
        }));
        assert!(ctx.state_changed);
        assert_eq!(*ctx.state(), 5);
    }

    #[test]
    fn apply_dual_applies_to_fork_for_old_events() {
        let mut st = store(10, &[]);
        let mut out = Vec::new();
        // The vertex's first event of epoch 1 forks it; the event of epoch 0
        // that follows predates the fork.
        let _ = ctx(&mut st, &mut out, 1);
        let mut ctx = ctx(&mut st, &mut out, 0);
        ctx.apply(|s| {
            if *s > 3 {
                *s = 3;
                true
            } else {
                false
            }
        });
        assert_eq!(
            live_and_fork(&mut st),
            (3, Some(3)),
            "old event must reach the fork"
        );
    }

    #[test]
    fn apply_new_epoch_spares_fork() {
        let mut st = store(10, &[]);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out, 1);
        ctx.apply(|s| {
            *s = 2;
            true
        });
        assert_eq!(
            live_and_fork(&mut st),
            (2, Some(10)),
            "new event must not touch the fork"
        );
    }

    #[test]
    fn update_nbrs_fans_out_with_edge_weights() {
        let mut st = store(0, &[(2, EdgeMeta::weighted(5)), (3, EdgeMeta::weighted(7))]);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out, 0);
        ctx.update_nbrs(&42);
        assert_eq!(out.len(), 2);
        let mut got: Vec<(VertexId, u64, Weight)> =
            out.iter().map(|o| (o.target, o.value, o.weight)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 42, 5), (3, 42, 7)]);
    }

    #[test]
    fn update_single_nbr_uses_stored_weight() {
        let mut st = store(0, &[(9, EdgeMeta::weighted(3))]);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out, 0);
        ctx.update_single_nbr(9, &1);
        ctx.update_single_nbr(100, &1); // no edge: weight defaults to 1
        assert_eq!(out[0].weight, 3);
        assert_eq!(out[1].weight, 1);
    }

    #[test]
    fn filtered_fanout_respects_predicate() {
        let nbrs: Vec<_> = (0..10u64).map(|n| (n, EdgeMeta::unweighted())).collect();
        let mut st = store(0, &nbrs);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out, 0);
        ctx.update_nbrs_filtered(&7, |n, _| n % 2 == 0);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|o| o.target % 2 == 0));
    }

    #[test]
    fn for_each_nbr_visits_all() {
        let nbrs: Vec<_> = (0..5u64).map(|n| (n, EdgeMeta::unweighted())).collect();
        let mut st = store(0, &nbrs);
        let mut out = Vec::new();
        let ctx = ctx(&mut st, &mut out, 0);
        let mut count = 0;
        ctx.for_each_nbr(&mut |_, _| count += 1);
        assert_eq!(count, 5);
    }
}
