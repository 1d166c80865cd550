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
//! State changes go through [`AlgoCtx::apply`], which records them for
//! trigger evaluation.
//!
//! The framework's half of Algorithm 3 is written here once: `visit` applies
//! one envelope at a vertex (topology first, then the callback, then the
//! reverse event's value), and `dispatch` is the one match from an event's
//! kind to its callback. The shards and the sequential reference engine
//! call `visit`; every query of a registry is called through `dispatch`.

use crate::encoding::Codec;
use crate::event::{ControlKind, ControlOp, Envelope, EventKind};
use crate::storage::VertexParts;
use crate::trigger::{TriggerDef, TriggerFire};
use remo_store::{EdgeData, VertexId, Weight};

/// A REMO algorithm: user callbacks over the engine's events.
///
/// Implementations must preserve the two REMO properties (§II-B):
/// *recursive* event propagation (callbacks re-use the same update event as
/// the recursive step) and *monotonic* convergence (every state change moves
/// in one direction toward a bound). The engine does not — cannot — check
/// monotonicity; the algorithm crate's property tests do.
///
/// How a state becomes bytes is not the algorithm's to say: it belongs to
/// the state's type, through the [`Codec`] bound on
/// [`Algorithm::State`], so every algorithm can run durable.
pub trait Algorithm: Send + Sync + 'static {
    /// Vertex-local state (`this.value`). `Default` must be the lattice
    /// bottom: the state of a vertex that has seen no events. Its
    /// [`Codec`] is what a durable engine writes to its checkpoints;
    /// recovery asserts byte-identical fixpoints on it.
    type State: Codec + Clone + Default + Send + PartialEq + std::fmt::Debug + 'static;

    /// What each adjacency entry keeps beside the neighbour id: only what
    /// the callbacks read. `()` when they do not read the edge weight
    /// (4-byte entries; weights read as 1), [`Weight`] when they do (8
    /// bytes). Those are the narrow entries of a vertex whose neighbour ids
    /// and weights all fit in a `u32`; its first id or weight past that
    /// widens its entries to 8 and 16 bytes. The callback surface is the
    /// same for both (see [`EdgeData`]).
    type Edge: EdgeData;

    /// Called when an `Init` event reaches a vertex (e.g. the BFS source).
    fn init(&self, _ctx: &mut impl AlgoCtx<Self::State>) {}

    /// Called at the first endpoint of a new edge (after the engine inserted
    /// the edge into the local topology). `visitor` is the other endpoint;
    /// `value` is what [`Algorithm::stream_value`] gave the edge's stream
    /// index (the default state unless the algorithm implements that).
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

    /// The value an `Add` pulled from the input stream carries to
    /// [`Algorithm::on_add`], as a function of its stream index: the
    /// position of its pair in the engine's input, with the ingest calls,
    /// inits and control ops numbered back to back from 0 (see
    /// [`crate::Engine`]'s *Ingest* section). The default is the default state, which no algorithm
    /// reads; an algorithm that orders by arrival implements it (CC labels
    /// a component by its earliest edge). Adds that no stream numbers, such
    /// as a registry query's, get the default state.
    ///
    /// Must be a pure function of `index`: recovery recomputes it from the
    /// index the WAL logged, and the sequential reference engine numbers
    /// its inputs the same way.
    fn stream_value(_index: u64) -> Self::State
    where
        Self: Sized,
    {
        Self::State::default()
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

    /// Control-plane claim: `shard` pulled a [`ControlOp`] from its input
    /// stream (see [`QueryRegistry`](crate::QueryRegistry)). Return the
    /// subset of `op.mask` this algorithm wants swept on that shard (0 =
    /// nothing, the default — plain algorithms ignore the control plane).
    /// When the returned mask is non-zero the shard runs one full-store
    /// sweep calling [`Algorithm::on_sweep`] per vertex, and then calls
    /// [`Algorithm::on_control_commit`]. A shard pulls each op once; the
    /// pull is durable before this runs, and a recovery's re-run of the
    /// log calls all three again.
    fn on_control(&self, _shard: usize, _op: &ControlOp) -> u64 {
        0
    }

    /// One vertex visit of a claimed control sweep. `mask` is the claimed
    /// slot mask returned by [`Algorithm::on_control`]. Updates queued
    /// through `ctx` are routed as ordinary envelopes after the visit.
    fn on_sweep(&self, _ctx: &mut impl AlgoCtx<Self::State>, _kind: ControlKind, _mask: u64) {}

    /// Called once per shard after a claimed sweep finished and its
    /// outgoing envelopes were routed — the point to publish per-shard
    /// progress bits (e.g. the registry's primed mask).
    fn on_control_commit(&self, _shard: usize, _kind: ControlKind, _claimed: u64) {}
}

/// Callback context: the visited vertex's state, adjacency, and propagation
/// primitives. Implemented by the engine's own context and by the
/// projections of [`QueryRegistry`](crate::QueryRegistry).
pub trait AlgoCtx<S: Clone> {
    /// The vertex being visited.
    fn vertex(&self) -> VertexId;

    /// Shard executing this callback (0 when the context has no shard,
    /// e.g. the sequential reference engine). Composition layers forward
    /// it; the registry keys per-shard progress masks on it.
    fn shard_hint(&self) -> usize {
        0
    }

    /// Current (live) state of the vertex.
    fn state(&self) -> &S;

    /// Applies a monotone state transition. The closure must return whether
    /// it changed the state, and be a pure function of its argument —
    /// which is exactly what a REMO monotone join is.
    fn apply(&mut self, f: impl Fn(&mut S) -> bool) -> bool
    where
        Self: Sized;

    /// Out-degree of the vertex.
    fn degree(&self) -> usize;

    /// Weight of the edge to `nbr`, if present.
    fn edge_weight(&self, nbr: VertexId) -> Option<Weight>;

    /// Invokes `f` for every `(neighbour, edge weight)` pair (weight 1
    /// where [`Algorithm::Edge`] stores none).
    fn for_each_nbr(&self, f: &mut dyn FnMut(VertexId, Weight));

    /// Sends an update event carrying `value` to every neighbour, each over
    /// its own edge weight (Algorithm 3's `update_nbrs`).
    fn update_nbrs(&mut self, value: &S);

    /// Sends an update event to the neighbours for which `keep` returns
    /// true, each over its own edge weight.
    fn update_nbrs_filtered(&mut self, value: &S, keep: impl Fn(VertexId) -> bool)
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
/// ([`VertexParts`]): live state, adjacency and fired-trigger bits, each
/// reached without going back through the store. `E` is the algorithm's
/// [`Algorithm::Edge`].
pub struct EventCtx<'a, S, E> {
    vertex: VertexId,
    parts: VertexParts<'a, S, E>,
    out: &'a mut Vec<Outgoing<S>>,
    /// Shard id surfaced through [`AlgoCtx::shard_hint`] (0 until set).
    shard: usize,
    /// Set when `apply` reported a state change (drives trigger checks).
    pub(crate) state_changed: bool,
}

impl<'a, S: Clone, E: EdgeData> EventCtx<'a, S, E> {
    /// Builds a context for one callback invocation on `shard` (0 without
    /// one).
    pub(crate) fn new(
        vertex: VertexId,
        parts: VertexParts<'a, S, E>,
        out: &'a mut Vec<Outgoing<S>>,
        shard: usize,
    ) -> Self {
        EventCtx {
            vertex,
            parts,
            out,
            shard,
            state_changed: false,
        }
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
            if self.parts.fired.get() & bit == 0 && (t.predicate)(self.vertex, self.parts.live) {
                self.parts.fired.set(bit);
                fires.push(TriggerFire {
                    trigger: i,
                    vertex: self.vertex,
                    shard: self.shard,
                    seq,
                });
            }
        }
    }
}

impl<'a, S: Clone, E: EdgeData> AlgoCtx<S> for EventCtx<'a, S, E> {
    #[inline]
    fn vertex(&self) -> VertexId {
        self.vertex
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
        self.state_changed |= changed;
        changed
    }

    #[inline]
    fn degree(&self) -> usize {
        self.parts.adj.degree()
    }

    fn edge_weight(&self, nbr: VertexId) -> Option<Weight> {
        self.parts.adj.get(nbr).map(|e| e.weight())
    }

    fn for_each_nbr(&self, f: &mut dyn FnMut(VertexId, Weight)) {
        for (n, e) in self.parts.adj.iter() {
            f(n, e.weight());
        }
    }

    fn update_nbrs(&mut self, value: &S) {
        for (nbr, e) in self.parts.adj.iter() {
            self.out.push(Outgoing {
                target: nbr,
                value: value.clone(),
                weight: e.weight(),
            });
        }
    }

    fn update_nbrs_filtered(&mut self, value: &S, keep: impl Fn(VertexId) -> bool) {
        for (nbr, e) in self.parts.adj.iter() {
            if keep(nbr) {
                self.out.push(Outgoing {
                    target: nbr,
                    value: value.clone(),
                    weight: e.weight(),
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

/// Runs the callback `kind` names: the one `EventKind` → callback match in
/// the engine. [`visit`] runs an engine's algorithm through it, and the
/// registry each attached query.
#[inline]
pub(crate) fn dispatch<A: Algorithm>(
    algo: &A,
    ctx: &mut impl AlgoCtx<A::State>,
    kind: EventKind,
    visitor: VertexId,
    value: &A::State,
    weight: Weight,
) {
    match kind {
        EventKind::Init => algo.init(ctx),
        EventKind::Add => algo.on_add(ctx, visitor, value, weight),
        EventKind::ReverseAdd => algo.on_reverse_add(ctx, visitor, value, weight),
        EventKind::Update => algo.on_update(ctx, visitor, value, weight),
        EventKind::Remove => algo.on_remove(ctx, visitor, value, weight),
        EventKind::ReverseRemove => algo.on_reverse_remove(ctx, visitor, value, weight),
    }
}

/// What [`visit`] did to the visited vertex's adjacency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EdgeChange {
    /// Nothing inserted or removed (`Init`, `Update`, removing an edge the
    /// vertex does not hold).
    Kept,
    Inserted,
    /// An add of an edge the vertex already holds: the smaller weight stays.
    Duplicate,
    Removed,
}

/// The outcome of one [`visit`].
pub(crate) struct Step<S> {
    pub(crate) edge: EdgeChange,
    /// The event an undirected `Add`/`Remove` sends back to its visitor: its
    /// kind and the vertex's value *after* the callback (`this.value`).
    pub(crate) reverse: Option<(EventKind, S)>,
}

/// Algorithm 3's framework step: applies `env` at its target, whose storage
/// is `parts`.
///
/// The topology changes first, so the callback sees the graph the event
/// describes: an add inserts the edge (a repeat keeps the smaller weight),
/// a remove deletes the edge, an update leaves the edges as they are.
/// Then the callback `env.kind` names runs, queueing its updates on
/// `out`, and `settle` sees the context last, inside the same borrow (the
/// shards evaluate triggers there). With `undirected`, an
/// `Add`/`Remove` returns its reverse event's value, read after both.
#[inline]
pub(crate) fn visit<A: Algorithm>(
    algo: &A,
    env: &Envelope<A::State>,
    parts: VertexParts<'_, A::State, A::Edge>,
    out: &mut Vec<Outgoing<A::State>>,
    shard: usize,
    undirected: bool,
    settle: impl FnOnce(&mut EventCtx<'_, A::State, A::Edge>),
) -> Step<A::State> {
    let Envelope {
        target,
        visitor,
        ref value,
        weight,
        kind,
        ..
    } = *env;
    let edge = match kind {
        EventKind::Add | EventKind::ReverseAdd => {
            if parts.adj.insert_weight_min(visitor, A::Edge::new(weight)) {
                EdgeChange::Inserted
            } else {
                EdgeChange::Duplicate
            }
        }
        EventKind::Remove | EventKind::ReverseRemove => match parts.adj.remove(visitor) {
            Some(_) => EdgeChange::Removed,
            None => EdgeChange::Kept,
        },
        EventKind::Update | EventKind::Init => EdgeChange::Kept,
    };
    let mut ctx = EventCtx::new(target, parts, out, shard);
    dispatch(algo, &mut ctx, kind, visitor, value, weight);
    let reverse = match kind {
        EventKind::Add if undirected => Some((EventKind::ReverseAdd, ctx.state().clone())),
        EventKind::Remove if undirected => Some((EventKind::ReverseRemove, ctx.state().clone())),
        _ => None,
    };
    settle(&mut ctx);
    Step { edge, reverse }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::storage::DenseStore;

    /// A store holding vertex 1 in `state`, with `nbrs` as its out-edges
    /// (shared with the registry's context tests).
    pub(crate) fn store<S, E>(state: S, nbrs: &[(VertexId, E)]) -> DenseStore<S, E>
    where
        S: Clone + Default + PartialEq,
        E: EdgeData,
    {
        let mut st = DenseStore::with_capacity(0);
        let h = st.intern(1);
        let parts = st.parts(h);
        *parts.live = state;
        for &(n, meta) in nbrs {
            parts.adj.insert(n, meta);
        }
        st
    }

    /// Context over vertex 1, built the way the shard loop builds it.
    pub(crate) fn ctx<'a, S, E>(
        st: &'a mut DenseStore<S, E>,
        out: &'a mut Vec<Outgoing<S>>,
    ) -> EventCtx<'a, S, E>
    where
        S: Clone + Default + PartialEq,
        E: EdgeData,
    {
        let h = st.intern(1);
        EventCtx::new(1, st.parts(h), out, 0)
    }

    #[test]
    fn apply_tracks_changes() {
        let mut st = store::<u64, ()>(10, &[]);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out);
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
    fn update_nbrs_fans_out_with_edge_weights() {
        let mut st = store::<u64, Weight>(0, &[(2, 5), (3, 7)]);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out);
        ctx.update_nbrs(&42);
        assert_eq!(out.len(), 2);
        let mut got: Vec<(VertexId, u64, Weight)> =
            out.iter().map(|o| (o.target, o.value, o.weight)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 42, 5), (3, 42, 7)]);
    }

    #[test]
    fn update_single_nbr_uses_stored_weight() {
        let mut st = store::<u64, Weight>(0, &[(9, 3)]);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out);
        ctx.update_single_nbr(9, &1);
        ctx.update_single_nbr(100, &1); // no edge: weight defaults to 1
        assert_eq!(out[0].weight, 3);
        assert_eq!(out[1].weight, 1);
    }

    #[test]
    fn filtered_fanout_respects_predicate() {
        let nbrs: Vec<_> = (0..10u64).map(|n| (n, ())).collect();
        let mut st = store(0, &nbrs);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out);
        ctx.update_nbrs_filtered(&7, |n| n % 2 == 0);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|o| o.target % 2 == 0));
    }

    #[test]
    fn for_each_nbr_visits_all() {
        let nbrs: Vec<(VertexId, Weight)> = (0..5u64).map(|n| (n, n + 1)).collect();
        let mut st = store(0, &nbrs);
        let mut out = Vec::new();
        let ctx = ctx(&mut st, &mut out);
        let mut seen = Vec::new();
        ctx.for_each_nbr(&mut |n, w| seen.push((n, w)));
        assert_eq!(seen, nbrs);
    }

    /// Records which callback ran and the degree it saw: its state becomes
    /// `100 × kind + degree` (kinds 1–6: init, add, reverse add, update,
    /// remove, reverse remove).
    struct Probe;

    fn seen(ctx: &mut impl AlgoCtx<u64>, kind: u64) {
        let v = 100 * kind + ctx.degree() as u64;
        ctx.apply(move |s| {
            *s = v;
            true
        });
    }

    impl Algorithm for Probe {
        type State = u64;
        type Edge = Weight;
        fn init(&self, ctx: &mut impl AlgoCtx<u64>) {
            seen(ctx, 1);
        }
        fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _: VertexId, _: &u64, _: Weight) {
            seen(ctx, 2);
        }
        fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, _: VertexId, _: &u64, _: Weight) {
            seen(ctx, 3);
        }
        fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, _: VertexId, _: &u64, _: Weight) {
            seen(ctx, 4);
        }
        fn on_remove(&self, ctx: &mut impl AlgoCtx<u64>, _: VertexId, _: &u64, _: Weight) {
            seen(ctx, 5);
        }
        fn on_reverse_remove(&self, ctx: &mut impl AlgoCtx<u64>, _: VertexId, _: &u64, _: Weight) {
            seen(ctx, 6);
        }
    }

    /// Applies one envelope at vertex 1 through the framework step and
    /// returns its outcome, checking that `settle` ran last: it must see
    /// the state the callback left.
    fn step(
        st: &mut DenseStore<u64, Weight>,
        kind: EventKind,
        (visitor, value, weight): (VertexId, u64, Weight),
        undirected: bool,
    ) -> Step<u64> {
        let env = Envelope {
            target: 1,
            visitor,
            value,
            weight,
            kind,
            tag: 0,
        };
        let h = st.intern(1);
        let mut out = Vec::new();
        let mut settled = None;
        let step = visit(&Probe, &env, st.parts(h), &mut out, 0, undirected, |ctx| {
            settled = Some((*ctx.state(), ctx.state_changed))
        });
        assert_eq!(settled, Some((*st.get(1).unwrap().0, true)));
        step
    }

    /// Vertex 1's state and the weight of its edge to `nbr`.
    fn at(st: &DenseStore<u64, Weight>, nbr: VertexId) -> (u64, Option<Weight>) {
        let (state, adj) = st.get(1).unwrap();
        (*state, adj.get(nbr))
    }

    #[test]
    fn visit_maintains_topology_before_the_callback() {
        use EdgeChange::*;
        use EventKind::*;
        let mut st = DenseStore::with_capacity(0);

        // An add inserts before `on_add`, which sees degree 1; the reverse
        // carries the state the callback left, not the one it found.
        let s = step(&mut st, Add, (2, 0, 7), true);
        assert_eq!((s.edge, s.reverse), (Inserted, Some((ReverseAdd, 201))));
        assert_eq!(at(&st, 2), (201, Some(7)));

        // A repeated add is a duplicate and keeps the smaller weight.
        assert_eq!(step(&mut st, Add, (2, 0, 3), true).edge, Duplicate);
        assert_eq!(step(&mut st, Add, (2, 0, 9), true).edge, Duplicate);
        assert_eq!(at(&st, 2), (201, Some(3)));

        // A reverse add inserts and sends nothing back.
        let s = step(&mut st, ReverseAdd, (3, 40, 5), true);
        assert_eq!((s.edge, s.reverse), (Inserted, None));
        assert_eq!(at(&st, 3), (302, Some(5)));

        // An update leaves the edges as they are, the weight of one the
        // vertex holds too, and never inserts.
        assert_eq!(step(&mut st, Update, (3, 41, 1), true).edge, Kept);
        assert_eq!(at(&st, 3), (402, Some(5)));
        assert_eq!(step(&mut st, Update, (9, 50, 1), true).edge, Kept);
        assert_eq!(at(&st, 9), (402, None));

        // Removes delete before their callbacks, which see the degree
        // after; an undirected remove sends the post-callback state back.
        let s = step(&mut st, Remove, (2, 0, 1), true);
        assert_eq!((s.edge, s.reverse), (Removed, Some((ReverseRemove, 501))));
        assert_eq!(at(&st, 2), (501, None));
        let s = step(&mut st, ReverseRemove, (3, 0, 1), true);
        assert_eq!((s.edge, s.reverse), (Removed, None));
        assert_eq!(at(&st, 3), (600, None));
        assert_eq!(step(&mut st, Remove, (3, 0, 1), true).edge, Kept);

        // Init touches no edge and sends nothing back.
        let s = step(&mut st, Init, (1, 0, 1), true);
        assert_eq!((s.edge, s.reverse, at(&st, 1).0), (Kept, None, 100));

        // Directed: the same adds and removes send no reverse.
        let s = step(&mut st, Add, (4, 0, 1), false);
        assert_eq!((s.edge, s.reverse), (Inserted, None));
        let s = step(&mut st, Remove, (4, 0, 1), false);
        assert_eq!((s.edge, s.reverse), (Removed, None));
    }
}
