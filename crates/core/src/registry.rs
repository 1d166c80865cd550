//! Multi-query registry: N live algorithms over one topology for ~1× cost.
//!
//! The paper's §I vision — "multiple algorithms can be executed
//! simultaneously on the same underlying dynamic data structure" — could
//! be realised statically, by fusing the algorithms at compile time into
//! one tuple state. A tuple has two structural costs that grow with the
//! number of co-resident queries:
//!
//! 1. **Tuple fan-out.** Every `update_nbrs` of *either* component sends
//!    the *whole* tuple, so a change in one query ships (and re-applies)
//!    every other query's unchanged state — O(total state) per envelope.
//! 2. **Static shape.** Adding or removing a query means a different
//!    tuple type: stop the engine, rebuild, re-ingest the stream.
//!
//! A [`QueryRegistry`] replaces the tuple with a *column store*: each
//! vertex's state is a `Vec` of per-query cells ([`RegPayload::Columns`]),
//! topology events are applied once to the shared adjacency and fanned out
//! to every attached query, and propagation envelopes carry a
//! [`RegPayload::Delta`] tagged with the one query whose cell changed.
//! Deltas compose with the lattice filter per query: the tag carries the
//! query's own `absorbs` function, so dominance filtering works exactly as
//! it does for a solo run of that algorithm.
//!
//! ## Live attach / detach
//!
//! Queries attach to a *running* engine without re-ingesting the stream.
//! [`QueryRegistry::attach`] publishes the query's slot, then drives a
//! two-phase backfill over the engine's control plane (see
//! [`crate::Algorithm::on_control`] and DESIGN.md §17):
//!
//! - **Prime** — every shard rebuilds the new column from its *stored
//!   adjacency*: per vertex, reset the cell to bottom, run `init` if the
//!   vertex is a source, and replay one muted `on_add` per stored edge.
//!   Sends are muted, so priming is embarrassingly local.
//! - **Flood** — once *every* shard has primed, each shard propagates every
//!   non-bottom cell to its neighbours. This recovers any delta that was
//!   dropped while some shard had not yet primed: a cell's value at flood
//!   time dominates every delta it ever emitted (monotonicity), so
//!   re-sending the cell re-derives the lost information.
//!
//! Until a shard's primed bit for a slot is set, that slot's callbacks are
//! gated off on that shard — events still retire normally against the
//! termination books, they just do not touch the unborn column.
//! [`QueryRegistry::detach`] unpublishes the slot (new events stop
//! dispatching), then a **Clear** sweep resets the column for reuse;
//! in-flight deltas of the old query die on a generation check.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use remo_store::{EdgeMeta, VertexId, Weight};

use crate::algorithm::{codec, AlgoCtx, Algorithm};
use crate::engine::Engine;
use crate::event::{ControlKind, ControlOp, Epoch};
use crate::metrics::LatencyHistogram;
use crate::snapshot::Snapshot;
use crate::supervision::EngineError;
use crate::telemetry::{QueryStatsRow, QueryStatsSource};

/// Slot capacity of one registry: the progress masks are single `u64`s.
pub const MAX_QUERIES: usize = 64;

/// One query's [`Algorithm::absorbs`] over its own cell type: `(live,
/// incoming)`. Carried by [`RegPayload::Delta`] so the engine's dominance
/// filter acts per query.
pub type CellAbsorbs<C> = fn(&C, &C) -> bool;

fn stub_absorbs<C>(_live: &C, _incoming: &C) -> bool {
    false
}

/// One query's per-vertex state inside a registry — the element type of the
/// column store. `Default` must be the lattice bottom, exactly as for
/// [`Algorithm::State`]. The codec hooks mirror
/// [`Algorithm::encode_state`]: required only under durability.
pub trait Cell: Clone + Default + Send + Sync + PartialEq + fmt::Debug + 'static {
    /// Serializes one cell (durability only; default panics).
    fn encode(_cell: &Self, _out: &mut Vec<u8>) {
        panic!("Cell::encode is required when durability is enabled");
    }

    /// Inverse of [`Cell::encode`] (durability only; default panics).
    fn decode(_bytes: &[u8]) -> Self {
        panic!("Cell::decode is required when durability is enabled");
    }
}

/// The common case: every core REMO lattice state (BFS level, CC label,
/// SSSP distance, reachability bitmask, degree count) is a `u64`.
impl Cell for u64 {
    fn encode(cell: &Self, out: &mut Vec<u8>) {
        codec::put_u64(*cell, out);
    }

    fn decode(bytes: &[u8]) -> Self {
        codec::get_u64(bytes)
    }
}

/// The registry's vertex state / envelope payload.
///
/// Stored vertex states are always `Columns` (one cell per attached query,
/// lazily grown). Propagation envelopes are `Delta`s: the one changed cell,
/// tagged with its slot and attach generation, carrying the owning query's
/// `absorbs` function so the engine's dominance filter composes per
/// query. This is the structural win over a fused tuple state, whose
/// envelopes carry the whole tuple.
#[derive(Clone, Debug)]
pub enum RegPayload<C: Cell> {
    /// Per-slot cells of one vertex; missing tail slots are at bottom.
    Columns(Vec<C>),
    /// One query's changed cell in flight.
    Delta {
        /// Registry slot the cell belongs to.
        slot: u32,
        /// Attach generation of the slot when the delta was born — a delta
        /// from a detached query dies on this check instead of feeding a
        /// successor that reused the slot.
        gen: u32,
        /// The changed cell value.
        cell: C,
        /// The owning query's [`Algorithm::absorbs`] (drives dominance).
        absorbs: CellAbsorbs<C>,
    },
}

impl<C: Cell> Default for RegPayload<C> {
    fn default() -> Self {
        RegPayload::Columns(Vec::new())
    }
}

/// Manual equality over the *data* fields only: two deltas for the same
/// (slot, gen, cell) are the same delta regardless of which codegen unit's
/// copy of the `absorbs` fn their pointer names (fn addresses are not
/// unique across codegen units, so deriving `PartialEq` would be
/// unsound-ish flakiness, not semantics).
impl<C: Cell> PartialEq for RegPayload<C> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (RegPayload::Columns(a), RegPayload::Columns(b)) => a == b,
            (
                RegPayload::Delta {
                    slot: s1,
                    gen: g1,
                    cell: c1,
                    ..
                },
                RegPayload::Delta {
                    slot: s2,
                    gen: g2,
                    cell: c2,
                    ..
                },
            ) => s1 == s2 && g1 == g2 && c1 == c2,
            _ => false,
        }
    }
}

impl<C: Cell> RegPayload<C> {
    /// The cell at `slot`, if materialized (stored states only).
    pub fn cell(&self, slot: usize) -> Option<&C> {
        match self {
            RegPayload::Columns(cols) => cols.get(slot),
            RegPayload::Delta { .. } => None,
        }
    }
}

/// Normalizes a payload to `Columns` and returns the backing vector.
fn columns_mut<C: Cell>(s: &mut RegPayload<C>) -> &mut Vec<C> {
    if !matches!(s, RegPayload::Columns(_)) {
        *s = RegPayload::Columns(Vec::new());
    }
    match s {
        RegPayload::Columns(cols) => cols,
        RegPayload::Delta { .. } => unreachable!("normalized to Columns above"),
    }
}

/// Object-safe slice of [`AlgoCtx`] over one query's cell. The adapter
/// layer ([`ShimCtx`]) turns this back into a full `AlgoCtx<C>` for the
/// user algorithm; keeping the dynamic boundary object-safe is what lets
/// the registry hold `dyn` queries while the shard loop stays monomorphic.
trait CellCtx<C: Cell> {
    fn vertex(&self) -> VertexId;
    fn epoch(&self) -> Epoch;
    fn shard(&self) -> usize;
    fn cell(&self) -> &C;
    fn apply_cell(&mut self, f: &dyn Fn(&mut C) -> bool) -> bool;
    fn degree(&self) -> usize;
    fn edge_weight(&self, nbr: VertexId) -> Option<Weight>;
    fn for_each_nbr(&self, f: &mut dyn FnMut(VertexId, EdgeMeta));
    fn send_cells(&mut self, value: &C);
    fn send_cells_filtered(&mut self, value: &C, keep: &dyn Fn(VertexId, &EdgeMeta) -> bool);
    fn send_cell(&mut self, target: VertexId, value: &C, weight: Weight);
}

/// `AlgoCtx<C>` view over a `dyn CellCtx<C>` — what a registered
/// algorithm's callbacks actually receive.
struct ShimCtx<'a, 'b, C: Cell>(&'a mut (dyn CellCtx<C> + 'b));

impl<'a, 'b, C: Cell> AlgoCtx<C> for ShimCtx<'a, 'b, C> {
    fn vertex(&self) -> VertexId {
        self.0.vertex()
    }

    fn epoch(&self) -> Epoch {
        self.0.epoch()
    }

    fn shard_hint(&self) -> usize {
        self.0.shard()
    }

    fn state(&self) -> &C {
        self.0.cell()
    }

    fn apply(&mut self, f: impl Fn(&mut C) -> bool) -> bool {
        self.0.apply_cell(&f)
    }

    fn degree(&self) -> usize {
        self.0.degree()
    }

    fn edge_weight(&self, nbr: VertexId) -> Option<Weight> {
        self.0.edge_weight(nbr)
    }

    /// The shared per-edge cache is written by *every* attached query
    /// (whichever value arrived last), so no single query may trust it.
    fn nbr_cached(&self, _nbr: VertexId) -> Option<u64> {
        None
    }

    fn for_each_nbr(&self, f: &mut dyn FnMut(VertexId, EdgeMeta)) {
        self.0.for_each_nbr(f)
    }

    fn update_nbrs(&mut self, value: &C) {
        self.0.send_cells(value)
    }

    fn update_nbrs_filtered(&mut self, value: &C, keep: impl Fn(VertexId, &EdgeMeta) -> bool) {
        self.0.send_cells_filtered(value, &keep)
    }

    fn send_update(&mut self, target: VertexId, value: &C, weight: Weight) {
        self.0.send_cell(target, value, weight)
    }
}

/// Object-safe form of one registered algorithm: every callback re-expressed
/// over `dyn CellCtx`, plus the lattice hooks reified as function pointers
/// (trait-static `fn`s cannot live behind `dyn`; coerced items can).
trait DynQuery<C: Cell>: Send + Sync {
    fn init(&self, ctx: &mut dyn CellCtx<C>);
    fn on_add(&self, ctx: &mut dyn CellCtx<C>, visitor: VertexId, value: &C, weight: Weight);
    fn on_reverse_add(
        &self,
        ctx: &mut dyn CellCtx<C>,
        visitor: VertexId,
        value: &C,
        weight: Weight,
    );
    fn on_update(&self, ctx: &mut dyn CellCtx<C>, visitor: VertexId, value: &C, weight: Weight);
    fn on_remove(&self, ctx: &mut dyn CellCtx<C>, visitor: VertexId, value: &C, weight: Weight);
    fn on_reverse_remove(
        &self,
        ctx: &mut dyn CellCtx<C>,
        visitor: VertexId,
        value: &C,
        weight: Weight,
    );
    fn absorbs_ptr(&self) -> CellAbsorbs<C>;
}

/// Adapts any `Algorithm<State = C>` into a [`DynQuery`].
struct QueryAdapter<A>(A);

impl<C: Cell, A: Algorithm<State = C>> DynQuery<C> for QueryAdapter<A> {
    fn init(&self, ctx: &mut dyn CellCtx<C>) {
        self.0.init(&mut ShimCtx(ctx));
    }

    fn on_add(&self, ctx: &mut dyn CellCtx<C>, visitor: VertexId, value: &C, weight: Weight) {
        self.0.on_add(&mut ShimCtx(ctx), visitor, value, weight);
    }

    fn on_reverse_add(
        &self,
        ctx: &mut dyn CellCtx<C>,
        visitor: VertexId,
        value: &C,
        weight: Weight,
    ) {
        self.0
            .on_reverse_add(&mut ShimCtx(ctx), visitor, value, weight);
    }

    fn on_update(&self, ctx: &mut dyn CellCtx<C>, visitor: VertexId, value: &C, weight: Weight) {
        self.0.on_update(&mut ShimCtx(ctx), visitor, value, weight);
    }

    fn on_remove(&self, ctx: &mut dyn CellCtx<C>, visitor: VertexId, value: &C, weight: Weight) {
        self.0.on_remove(&mut ShimCtx(ctx), visitor, value, weight);
    }

    fn on_reverse_remove(
        &self,
        ctx: &mut dyn CellCtx<C>,
        visitor: VertexId,
        value: &C,
        weight: Weight,
    ) {
        self.0
            .on_reverse_remove(&mut ShimCtx(ctx), visitor, value, weight);
    }

    fn absorbs_ptr(&self) -> CellAbsorbs<C> {
        A::absorbs
    }
}

/// Per-query live counters (telemetry satellite; relaxed — observability,
/// not accounting).
#[derive(Debug, Default)]
pub struct QueryStats {
    /// Update envelopes this query asked the engine to send.
    pub envelopes_sent: AtomicU64,
    /// State changes applied to this query's column.
    pub updates_applied: AtomicU64,
}

/// Bridges one query slot into a full [`AlgoCtx`]: reads and writes
/// `cols[slot]`, turns sends into tagged [`RegPayload::Delta`]s, and mutes
/// sends entirely during the prime sweep.
struct SlotCtx<'a, C: Cell, X: AlgoCtx<RegPayload<C>>> {
    inner: &'a mut X,
    slot: usize,
    gen: u32,
    absorbs: CellAbsorbs<C>,
    muted: bool,
    bottom: C,
    stats: &'a QueryStats,
}

impl<'a, C: Cell, X: AlgoCtx<RegPayload<C>>> SlotCtx<'a, C, X> {
    fn new(inner: &'a mut X, slot: usize, q: &'a QuerySlot<C>, muted: bool) -> Self {
        SlotCtx {
            inner,
            slot,
            gen: q.gen,
            absorbs: q.query.absorbs_ptr(),
            muted,
            bottom: C::default(),
            stats: &q.stats,
        }
    }

    fn delta(&self, value: &C) -> RegPayload<C> {
        RegPayload::Delta {
            slot: self.slot as u32,
            gen: self.gen,
            cell: value.clone(),
            absorbs: self.absorbs,
        }
    }
}

impl<'a, C: Cell, X: AlgoCtx<RegPayload<C>>> CellCtx<C> for SlotCtx<'a, C, X> {
    fn vertex(&self) -> VertexId {
        self.inner.vertex()
    }

    fn epoch(&self) -> Epoch {
        self.inner.epoch()
    }

    fn shard(&self) -> usize {
        self.inner.shard_hint()
    }

    fn cell(&self) -> &C {
        match self.inner.state() {
            RegPayload::Columns(cols) => cols.get(self.slot).unwrap_or(&self.bottom),
            RegPayload::Delta { .. } => &self.bottom,
        }
    }

    fn apply_cell(&mut self, f: &dyn Fn(&mut C) -> bool) -> bool {
        let slot = self.slot;
        // The closure may run twice (live + snapshot fork) and must stay a
        // pure function of its argument — growing the column vector to
        // `slot` is deterministic, so the contract holds.
        let changed = self.inner.apply(|s| {
            let cols = columns_mut(s);
            if cols.len() <= slot {
                cols.resize_with(slot + 1, C::default);
            }
            f(&mut cols[slot])
        });
        if changed {
            self.stats.updates_applied.fetch_add(1, Ordering::Relaxed);
        }
        changed
    }

    fn degree(&self) -> usize {
        self.inner.degree()
    }

    fn edge_weight(&self, nbr: VertexId) -> Option<Weight> {
        self.inner.edge_weight(nbr)
    }

    fn for_each_nbr(&self, f: &mut dyn FnMut(VertexId, EdgeMeta)) {
        self.inner.for_each_nbr(f)
    }

    fn send_cells(&mut self, value: &C) {
        if self.muted {
            return;
        }
        let d = self.delta(value);
        let deg = self.inner.degree() as u64;
        self.inner.update_nbrs(&d);
        self.stats.envelopes_sent.fetch_add(deg, Ordering::Relaxed);
    }

    fn send_cells_filtered(&mut self, value: &C, keep: &dyn Fn(VertexId, &EdgeMeta) -> bool) {
        if self.muted {
            return;
        }
        let mut targets: Vec<(VertexId, Weight)> = Vec::new();
        self.inner.for_each_nbr(&mut |n, m| {
            if keep(n, &m) {
                targets.push((n, m.weight));
            }
        });
        let d = self.delta(value);
        let n = targets.len() as u64;
        for (t, w) in targets {
            self.inner.send_update(t, &d, w);
        }
        self.stats.envelopes_sent.fetch_add(n, Ordering::Relaxed);
    }

    fn send_cell(&mut self, target: VertexId, value: &C, weight: Weight) {
        if self.muted {
            return;
        }
        let d = self.delta(value);
        self.inner.send_update(target, &d, weight);
        self.stats.envelopes_sent.fetch_add(1, Ordering::Relaxed);
    }
}

/// One occupied registry slot.
#[derive(Clone)]
struct QuerySlot<C: Cell> {
    query: Arc<dyn DynQuery<C>>,
    /// Attach generation (bumped on every attach; stale deltas die on it).
    gen: u32,
    /// Vertices to `init` (the query's sources), re-initiated on attach.
    sources: Vec<VertexId>,
    stats: Arc<QueryStats>,
    name: String,
}

/// Immutable published view of the slots (copy-on-write: callbacks take one
/// read-lock + `Arc` clone, attach/detach republish a fresh table).
struct QueryTable<C: Cell> {
    slots: Vec<Option<QuerySlot<C>>>,
}

impl<C: Cell> QueryTable<C> {
    fn empty() -> Self {
        QueryTable { slots: Vec::new() }
    }

    fn get(&self, slot: usize) -> Option<&QuerySlot<C>> {
        self.slots.get(slot).and_then(|s| s.as_ref())
    }

    fn occupied(&self) -> impl Iterator<Item = (usize, &QuerySlot<C>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|q| (i, q)))
    }

    fn live_mask(&self) -> u64 {
        self.occupied().fold(0u64, |m, (i, _)| m | (1 << i))
    }

    fn first_free(&self) -> Option<usize> {
        (0..MAX_QUERIES).find(|&i| self.slots.get(i).is_none_or(|s| s.is_none()))
    }
}

/// Per-shard backfill progress, one bit per slot. `primed[s]` gates slot
/// dispatch on shard `s`; `flooded[s]` makes the flood sweep idempotent
/// across WAL replay and control-op resends.
struct ShardMasks {
    primed: Vec<AtomicU64>,
    flooded: Vec<AtomicU64>,
    /// Published column-store footprint of shard `s` in bytes (capacity of
    /// every vertex's column vector), recomputed by the Prime and Clear
    /// sweeps — the only moments the whole column store is walked anyway.
    col_bytes: Vec<AtomicU64>,
    /// In-flight accumulator for one sweep's recount (zeroed at claim time,
    /// published into `col_bytes` at commit time).
    col_acc: Vec<AtomicU64>,
}

impl ShardMasks {
    fn new(shards: usize) -> Self {
        ShardMasks {
            primed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            flooded: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            col_bytes: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            col_acc: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

struct RegistryShared<C: Cell> {
    table: RwLock<Arc<QueryTable<C>>>,
    /// Sized on first attach from the engine's shard count.
    masks: OnceLock<ShardMasks>,
    /// Serializes attach/detach (one backfill in flight at a time).
    admin: Mutex<u32>,
    backfill: Mutex<LatencyHistogram>,
}

impl<C: Cell> RegistryShared<C> {
    fn read_table(&self) -> Arc<QueryTable<C>> {
        Arc::clone(&self.table.read().unwrap_or_else(|p| p.into_inner()))
    }

    fn publish(&self, f: impl FnOnce(&mut Vec<Option<QuerySlot<C>>>)) {
        let mut guard = self.table.write().unwrap_or_else(|p| p.into_inner());
        let mut slots = guard.slots.clone();
        f(&mut slots);
        *guard = Arc::new(QueryTable { slots });
    }

    fn primed(&self, shard: usize) -> u64 {
        self.masks
            .get()
            .and_then(|m| m.primed.get(shard))
            .map_or(0, |p| p.load(Ordering::Acquire))
    }
}

/// Stable handle to one attached query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryId {
    slot: u32,
    gen: u32,
}

impl QueryId {
    /// The registry slot this query occupies (telemetry label).
    pub fn slot(&self) -> usize {
        self.slot as usize
    }
}

/// The engine-facing registry: an [`Algorithm`] whose state is a column
/// store of per-query cells, plus the attach/detach control surface. Clones
/// share one registry — build the engine with one clone, keep another to
/// drive [`QueryRegistry::attach`] / [`QueryRegistry::detach`].
pub struct QueryRegistry<C: Cell = u64> {
    shared: Arc<RegistryShared<C>>,
}

impl<C: Cell> Clone for QueryRegistry<C> {
    fn clone(&self) -> Self {
        QueryRegistry {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<C: Cell> fmt::Debug for QueryRegistry<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryRegistry")
            .field("attached", &self.attached())
            .finish()
    }
}

impl<C: Cell> Default for QueryRegistry<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Which topology callback a dispatch fans out (one body, six entry
/// points).
#[derive(Clone, Copy)]
enum TopoCb {
    Add,
    ReverseAdd,
    Remove,
    ReverseRemove,
    Update,
}

impl<C: Cell> QueryRegistry<C> {
    /// An empty registry (no queries attached).
    pub fn new() -> Self {
        QueryRegistry {
            shared: Arc::new(RegistryShared {
                table: RwLock::new(Arc::new(QueryTable::empty())),
                masks: OnceLock::new(),
                admin: Mutex::new(0),
                backfill: Mutex::new(LatencyHistogram::default()),
            }),
        }
    }

    /// Number of queries currently attached.
    pub fn attached(&self) -> usize {
        self.shared.read_table().occupied().count()
    }

    /// Attaches `algo` as a live query on a running engine. Publishes the
    /// query's slot, then backfills its column from the shards' stored
    /// adjacency (prime + flood sweeps — no stream re-ingest), and finally
    /// initiates `sources`. Returns once the backfill is acknowledged by
    /// every live shard; the query converges to the same fixpoint a solo
    /// run over the same stream would (DESIGN.md §17).
    pub fn attach<A>(
        &self,
        engine: &Engine<Self>,
        algo: A,
        sources: &[VertexId],
        name: &str,
    ) -> Result<QueryId, EngineError>
    where
        A: Algorithm<State = C>,
    {
        let mut admin = self.shared.admin.lock().unwrap_or_else(|p| p.into_inner());
        let shards = engine.num_shards();
        let masks = self.shared.masks.get_or_init(|| ShardMasks::new(shards));
        if masks.primed.len() != shards {
            return Err(EngineError::Registry {
                message: format!(
                    "registry first attached on a {}-shard engine; this engine has {shards}",
                    masks.primed.len()
                ),
            });
        }
        let slot = match self.shared.read_table().first_free() {
            Some(s) => s,
            None => {
                return Err(EngineError::Registry {
                    message: format!("all {MAX_QUERIES} query slots are occupied"),
                })
            }
        };
        *admin = admin.wrapping_add(1);
        let gen = *admin;
        let stats = Arc::new(QueryStats::default());
        let record = QuerySlot {
            query: Arc::new(QueryAdapter(algo)),
            gen,
            sources: sources.to_vec(),
            stats,
            name: name.to_string(),
        };
        // Publish before priming: the sweeps and the gated dispatch both
        // resolve the slot through the table.
        self.shared.publish(|slots| {
            if slots.len() <= slot {
                slots.resize_with(slot + 1, || None);
            }
            slots[slot] = Some(record);
        });
        engine.telemetry().set_query_source(Arc::new(self.clone()));

        let bit = 1u64 << slot;
        let t0 = Instant::now();
        let swept = engine
            .control(ControlOp {
                kind: ControlKind::Prime,
                mask: bit,
                token: u64::from(gen),
            })
            .and_then(|_| {
                engine.control(ControlOp {
                    kind: ControlKind::Flood,
                    mask: bit,
                    token: u64::from(gen),
                })
            });
        if let Err(e) = swept {
            // Roll back: unpublish the slot and scrub any progress bits so
            // the slot can be reused cleanly.
            self.shared.publish(|slots| slots[slot] = None);
            for s in 0..shards {
                masks.primed[s].fetch_and(!bit, Ordering::AcqRel);
                masks.flooded[s].fetch_and(!bit, Ordering::AcqRel);
            }
            return Err(e);
        }
        // Sources last: init is idempotent for monotone REMO algorithms,
        // and a source vertex not yet in the graph gets interned here.
        for &s in sources {
            engine.try_init_vertex(s)?;
        }
        self.shared
            .backfill
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .record(t0.elapsed().as_nanos() as u64);
        Ok(QueryId {
            slot: slot as u32,
            gen,
        })
    }

    /// Detaches a query: unpublishes its slot (new events stop dispatching
    /// immediately), then clears its column on every shard so the slot can
    /// be reattached. In-flight deltas of the detached query are discarded
    /// by the generation check. Fails with [`EngineError::Registry`] on a
    /// stale handle.
    pub fn detach(&self, engine: &Engine<Self>, id: QueryId) -> Result<(), EngineError> {
        let _admin = self.shared.admin.lock().unwrap_or_else(|p| p.into_inner());
        let slot = id.slot as usize;
        {
            let table = self.shared.read_table();
            match table.get(slot) {
                Some(q) if q.gen == id.gen => {}
                _ => {
                    return Err(EngineError::Registry {
                        message: format!("query slot {slot} gen {} is not attached", id.gen),
                    })
                }
            }
        }
        self.shared.publish(|slots| slots[slot] = None);
        let bit = 1u64 << slot;
        let res = engine.control(ControlOp {
            kind: ControlKind::Clear,
            mask: bit,
            token: u64::from(id.gen),
        });
        // Scrub progress bits controller-side too: a shard that died before
        // acking Clear must not leave the slot poisoned for reattach (the
        // next prime resets the column anyway).
        if let Some(masks) = self.shared.masks.get() {
            for s in 0..masks.primed.len() {
                masks.primed[s].fetch_and(!bit, Ordering::AcqRel);
                masks.flooded[s].fetch_and(!bit, Ordering::AcqRel);
            }
        }
        res.map(|_| ())
    }

    /// Projects one query's column out of a registry snapshot: every vertex
    /// in the snapshot, paired with its cell (bottom where the column never
    /// materialized). The result is shape-identical to the snapshot a solo
    /// run of the same algorithm over the same stream produces.
    pub fn project(&self, snap: &Snapshot<RegPayload<C>>, id: QueryId) -> Snapshot<C> {
        let slot = id.slot as usize;
        let states = snap
            .iter()
            .map(|(v, s)| (v, s.cell(slot).cloned().unwrap_or_default()))
            .collect();
        Snapshot::from_fragments(snap.epoch, states)
    }

    /// Live counters of one attached query: `(envelopes_sent,
    /// updates_applied)`. `None` on a stale handle.
    pub fn query_counters(&self, id: QueryId) -> Option<(u64, u64)> {
        let table = self.shared.read_table();
        let q = table.get(id.slot as usize)?;
        if q.gen != id.gen {
            return None;
        }
        Some((
            q.stats.envelopes_sent.load(Ordering::Relaxed),
            q.stats.updates_applied.load(Ordering::Relaxed),
        ))
    }

    fn dispatch(
        &self,
        ctx: &mut impl AlgoCtx<RegPayload<C>>,
        visitor: VertexId,
        value: &RegPayload<C>,
        weight: Weight,
        which: TopoCb,
    ) {
        let table = self.shared.read_table();
        let primed = self.shared.primed(ctx.shard_hint());
        if primed == 0 {
            return;
        }
        if let RegPayload::Delta {
            slot, gen, cell, ..
        } = value
        {
            // A delta feeds exactly its own query — the structural win
            // over a fused tuple's whole-state fan-out.
            debug_assert!(
                matches!(which, TopoCb::Update),
                "deltas only travel as updates"
            );
            let idx = *slot as usize;
            if primed & (1u64 << idx) == 0 {
                return;
            }
            let Some(q) = table.get(idx) else { return };
            if q.gen != *gen {
                return; // stale: the slot was detached (and maybe reused)
            }
            let mut sc = SlotCtx::new(ctx, idx, q, false);
            q.query.on_update(&mut sc, visitor, cell, weight);
            return;
        }
        // Columns payload (topology events, init-default values, defensive
        // post-replay updates): fan out to every primed slot with its own
        // cell — bottom where the sender had none.
        let bottom = C::default();
        for (idx, q) in table.occupied() {
            if primed & (1u64 << idx) == 0 {
                continue;
            }
            let cell = value.cell(idx).unwrap_or(&bottom);
            let mut sc = SlotCtx::new(ctx, idx, q, false);
            match which {
                TopoCb::Add => q.query.on_add(&mut sc, visitor, cell, weight),
                TopoCb::ReverseAdd => q.query.on_reverse_add(&mut sc, visitor, cell, weight),
                TopoCb::Remove => q.query.on_remove(&mut sc, visitor, cell, weight),
                TopoCb::ReverseRemove => q.query.on_reverse_remove(&mut sc, visitor, cell, weight),
                TopoCb::Update => q.query.on_update(&mut sc, visitor, cell, weight),
            }
        }
    }

    /// Resets the masked cells to bottom (prime's clean slate, clear's
    /// reclaim). With `compact`, also drops the trailing run of bottom
    /// cells and shrinks the vector — detach-time memory reclaim: a
    /// detached high slot otherwise pins `slot + 1` cells on *every* vertex
    /// forever. Missing tail slots read as bottom everywhere
    /// ([`RegPayload::cell`] returns `None` → callers substitute bottom),
    /// so truncation is value-preserving. Pure in the `apply` sense: the
    /// same input vector always compacts to the same output, so
    /// dual-applying to a snapshot fork converges.
    fn reset_cells(ctx: &mut impl AlgoCtx<RegPayload<C>>, mask: u64, compact: bool) {
        ctx.apply(|s| {
            let cols = columns_mut(s);
            let mut changed = false;
            let mut m = mask;
            while m != 0 {
                let idx = m.trailing_zeros() as usize;
                m &= m - 1;
                if let Some(c) = cols.get_mut(idx) {
                    if *c != C::default() {
                        *c = C::default();
                        changed = true;
                    }
                }
            }
            if compact {
                let bottom = C::default();
                let keep = cols.iter().rposition(|c| *c != bottom).map_or(0, |i| i + 1);
                if keep < cols.len() {
                    cols.truncate(keep);
                    changed = true;
                }
                cols.shrink_to_fit();
            }
            changed
        });
    }

    /// Adds this vertex's column-store footprint to the owning shard's
    /// sweep accumulator (recount protocol: zeroed in
    /// [`Algorithm::on_control`], published in
    /// [`Algorithm::on_control_commit`]).
    fn account_columns(&self, ctx: &impl AlgoCtx<RegPayload<C>>) {
        let Some(masks) = self.shared.masks.get() else {
            return;
        };
        let Some(acc) = masks.col_acc.get(ctx.shard_hint()) else {
            return;
        };
        let bytes = match ctx.state() {
            RegPayload::Columns(cols) => (cols.capacity() * std::mem::size_of::<C>()) as u64,
            RegPayload::Delta { .. } => 0,
        };
        acc.fetch_add(bytes, Ordering::Relaxed);
    }

    fn sweep_prime(&self, ctx: &mut impl AlgoCtx<RegPayload<C>>, mask: u64) {
        Self::reset_cells(ctx, mask, false);
        let table = self.shared.read_table();
        // The stored adjacency is the replay source: one muted on_add per
        // stored edge reconstructs the topology-derived part of the cell
        // (degree counts, self-labels) exactly once per edge.
        let mut edges: Vec<(VertexId, Weight)> = Vec::new();
        ctx.for_each_nbr(&mut |n, m| edges.push((n, m.weight)));
        let v = ctx.vertex();
        let bottom = C::default();
        let mut m = mask;
        while m != 0 {
            let idx = m.trailing_zeros() as usize;
            m &= m - 1;
            // A slot can vanish between claim and sweep only during WAL
            // replay of a pre-detach control record: skip, Clear follows.
            let Some(q) = table.get(idx) else { continue };
            let mut sc = SlotCtx::new(ctx, idx, q, true);
            if q.sources.contains(&v) {
                q.query.init(&mut sc);
            }
            for &(nbr, w) in &edges {
                q.query.on_add(&mut sc, nbr, &bottom, w);
            }
        }
        self.account_columns(ctx);
    }

    fn sweep_flood(&self, ctx: &mut impl AlgoCtx<RegPayload<C>>, mask: u64) {
        let table = self.shared.read_table();
        let bottom = C::default();
        let mut m = mask;
        while m != 0 {
            let idx = m.trailing_zeros() as usize;
            m &= m - 1;
            let Some(q) = table.get(idx) else { continue };
            let cell = match ctx.state() {
                RegPayload::Columns(cols) => cols.get(idx).cloned().unwrap_or_default(),
                RegPayload::Delta { .. } => C::default(),
            };
            if cell == bottom {
                continue;
            }
            let mut sc = SlotCtx::new(ctx, idx, q, false);
            sc.send_cells(&cell);
        }
    }
}

impl<C: Cell> Algorithm for QueryRegistry<C> {
    type State = RegPayload<C>;

    fn init(&self, ctx: &mut impl AlgoCtx<Self::State>) {
        let table = self.shared.read_table();
        let primed = self.shared.primed(ctx.shard_hint());
        let v = ctx.vertex();
        for (idx, q) in table.occupied() {
            if primed & (1u64 << idx) == 0 || !q.sources.contains(&v) {
                continue;
            }
            let mut sc = SlotCtx::new(ctx, idx, q, false);
            q.query.init(&mut sc);
        }
    }

    fn on_add(
        &self,
        ctx: &mut impl AlgoCtx<Self::State>,
        visitor: VertexId,
        value: &Self::State,
        weight: Weight,
    ) {
        self.dispatch(ctx, visitor, value, weight, TopoCb::Add);
    }

    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<Self::State>,
        visitor: VertexId,
        value: &Self::State,
        weight: Weight,
    ) {
        self.dispatch(ctx, visitor, value, weight, TopoCb::ReverseAdd);
    }

    fn on_update(
        &self,
        ctx: &mut impl AlgoCtx<Self::State>,
        visitor: VertexId,
        value: &Self::State,
        weight: Weight,
    ) {
        self.dispatch(ctx, visitor, value, weight, TopoCb::Update);
    }

    fn on_remove(
        &self,
        ctx: &mut impl AlgoCtx<Self::State>,
        visitor: VertexId,
        value: &Self::State,
        weight: Weight,
    ) {
        self.dispatch(ctx, visitor, value, weight, TopoCb::Remove);
    }

    fn on_reverse_remove(
        &self,
        ctx: &mut impl AlgoCtx<Self::State>,
        visitor: VertexId,
        value: &Self::State,
        weight: Weight,
    ) {
        self.dispatch(ctx, visitor, value, weight, TopoCb::ReverseRemove);
    }

    /// The dominance probe, keyed by the delta's tag: a stored `Columns`
    /// state absorbs a `Delta` when the carried query's `absorbs` says so
    /// of the slot's cell — bottom where the column was never grown. Any
    /// other pairing (whole-`Columns` updates, a `Delta` as live state)
    /// is never filtered.
    fn absorbs(live: &Self::State, incoming: &Self::State) -> bool {
        match (live, incoming) {
            (
                RegPayload::Columns(cols),
                RegPayload::Delta {
                    slot,
                    cell,
                    absorbs,
                    ..
                },
            ) => match cols.get(*slot as usize) {
                Some(mine) => absorbs(mine, cell),
                None => absorbs(&C::default(), cell),
            },
            _ => false,
        }
    }

    fn encode_state(state: &Self::State, out: &mut Vec<u8>) {
        let mut buf = Vec::new();
        match state {
            RegPayload::Columns(cols) => {
                out.push(0);
                codec::put_u32(cols.len() as u32, out);
                for c in cols {
                    buf.clear();
                    C::encode(c, &mut buf);
                    codec::put_u32(buf.len() as u32, out);
                    out.extend_from_slice(&buf);
                }
            }
            RegPayload::Delta {
                slot, gen, cell, ..
            } => {
                out.push(1);
                codec::put_u32(*slot, out);
                codec::put_u32(*gen, out);
                C::encode(cell, &mut buf);
                codec::put_u32(buf.len() as u32, out);
                out.extend_from_slice(&buf);
            }
        }
    }

    /// Inverse of [`QueryRegistry::encode_state`][Algorithm::encode_state].
    /// Replayed deltas carry a stub `absorbs` that never filters — they
    /// lose the work-saving *hint*, never information: the monotone
    /// fixpoint is unaffected (the hook only skips redundant work).
    fn decode_state(bytes: &[u8]) -> Self::State {
        let tag = bytes[0];
        let mut off = 1usize;
        match tag {
            0 => {
                let n = codec::get_u32(&bytes[off..]) as usize;
                off += 4;
                let mut cols = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = codec::get_u32(&bytes[off..]) as usize;
                    off += 4;
                    cols.push(C::decode(&bytes[off..off + len]));
                    off += len;
                }
                RegPayload::Columns(cols)
            }
            1 => {
                let slot = codec::get_u32(&bytes[off..]);
                off += 4;
                let gen = codec::get_u32(&bytes[off..]);
                off += 4;
                let len = codec::get_u32(&bytes[off..]) as usize;
                off += 4;
                RegPayload::Delta {
                    slot,
                    gen,
                    cell: C::decode(&bytes[off..off + len]),
                    absorbs: stub_absorbs::<C>,
                }
            }
            t => panic!("registry: unknown durable payload tag {t}"),
        }
    }

    fn on_control(&self, shard: usize, op: &ControlOp) -> u64 {
        let Some(masks) = self.shared.masks.get() else {
            return 0;
        };
        let (Some(primed), Some(flooded)) = (masks.primed.get(shard), masks.flooded.get(shard))
        else {
            return 0;
        };
        let live = self.shared.read_table().live_mask();
        let primed = primed.load(Ordering::Acquire);
        let flooded = flooded.load(Ordering::Acquire);
        let claimed = match op.kind {
            // Idempotent claims: a resent or replayed op claims only what
            // is still unswept, so duplicate delivery converges to 0 work.
            ControlKind::Prime => op.mask & live & !primed,
            ControlKind::Flood => op.mask & live & primed & !flooded,
            ControlKind::Clear => op.mask,
        };
        // Prime and Clear sweeps double as a column-footprint recount:
        // reset this shard's accumulator before the sweep starts.
        if claimed != 0 && !matches!(op.kind, ControlKind::Flood) {
            if let Some(acc) = masks.col_acc.get(shard) {
                acc.store(0, Ordering::Relaxed);
            }
        }
        claimed
    }

    fn on_sweep(&self, ctx: &mut impl AlgoCtx<Self::State>, kind: ControlKind, mask: u64) {
        match kind {
            ControlKind::Prime => self.sweep_prime(ctx, mask),
            ControlKind::Flood => self.sweep_flood(ctx, mask),
            ControlKind::Clear => {
                // Detach reclaim: zero the column *and* compact the tail,
                // then recount what this vertex still pins.
                Self::reset_cells(ctx, mask, true);
                self.account_columns(ctx);
            }
        }
    }

    fn on_control_commit(&self, shard: usize, kind: ControlKind, claimed: u64) {
        let Some(masks) = self.shared.masks.get() else {
            return;
        };
        let (Some(primed), Some(flooded)) = (masks.primed.get(shard), masks.flooded.get(shard))
        else {
            return;
        };
        match kind {
            ControlKind::Prime => {
                primed.fetch_or(claimed, Ordering::AcqRel);
            }
            ControlKind::Flood => {
                flooded.fetch_or(claimed, Ordering::AcqRel);
            }
            ControlKind::Clear => {
                primed.fetch_and(!claimed, Ordering::AcqRel);
                flooded.fetch_and(!claimed, Ordering::AcqRel);
            }
        }
        // Publish the recount taken during the sweep (Prime/Clear only).
        if claimed != 0 && !matches!(kind, ControlKind::Flood) {
            if let (Some(acc), Some(pub_bytes)) =
                (masks.col_acc.get(shard), masks.col_bytes.get(shard))
            {
                pub_bytes.store(acc.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
    }
}

impl<C: Cell> QueryStatsSource for QueryRegistry<C> {
    fn queries_attached(&self) -> usize {
        self.attached()
    }

    fn query_rows(&self) -> Vec<QueryStatsRow> {
        self.shared
            .read_table()
            .occupied()
            .map(|(slot, q)| QueryStatsRow {
                name: q.name.clone(),
                slot,
                envelopes_sent: q.stats.envelopes_sent.load(Ordering::Relaxed),
                updates_applied: q.stats.updates_applied.load(Ordering::Relaxed),
            })
            .collect()
    }

    fn backfill_histogram(&self) -> LatencyHistogram {
        self.shared
            .backfill
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Column-store footprint across all shards, as of the last Prime or
    /// Clear sweep (those sweeps walk every vertex anyway, so the recount
    /// is free; between sweeps the gauge is a lower bound — columns only
    /// grow outside sweeps).
    fn column_bytes(&self) -> u64 {
        self.shared.masks.get().map_or(0, |m| {
            m.col_bytes.iter().map(|b| b.load(Ordering::Relaxed)).sum()
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::algorithm::tests::{ctx, store};
    use crate::storage::DenseStore;

    /// Max-lattice test algorithm over u64 cells.
    struct MaxAlgo;

    impl Algorithm for MaxAlgo {
        type State = u64;

        fn on_update(
            &self,
            ctx: &mut impl AlgoCtx<u64>,
            _visitor: VertexId,
            value: &u64,
            _weight: Weight,
        ) {
            let v = *value;
            if ctx.apply(|s| {
                if v > *s {
                    *s = v;
                    true
                } else {
                    false
                }
            }) {
                let now = *ctx.state();
                ctx.update_nbrs(&now);
            }
        }

        fn absorbs(live: &u64, incoming: &u64) -> bool {
            incoming <= live
        }
    }

    fn slot_record(slot_gen: u32) -> QuerySlot<u64> {
        QuerySlot {
            query: Arc::new(QueryAdapter(MaxAlgo)),
            gen: slot_gen,
            sources: vec![],
            stats: Arc::new(QueryStats::default()),
            name: "max".into(),
        }
    }

    fn delta(slot: u32, gen: u32, cell: u64) -> RegPayload<u64> {
        RegPayload::Delta {
            slot,
            gen,
            cell,
            absorbs: MaxAlgo::absorbs,
        }
    }

    fn live(st: &DenseStore<RegPayload<u64>>) -> &RegPayload<u64> {
        st.get(1).unwrap().0
    }

    #[test]
    fn columns_absorb_deltas_through_the_slot_hook() {
        type Reg = QueryRegistry<u64>;
        let cols = RegPayload::Columns(vec![1u64, 0, 9]);
        assert!(Reg::absorbs(&cols, &delta(2, 1, 4)));
        assert!(Reg::absorbs(&cols, &delta(2, 1, 9)));
        assert!(!Reg::absorbs(&cols, &delta(2, 1, 10)));
        // A slot beyond the grown columns reads as bottom, and the probe
        // leaves the columns as they were.
        assert!(Reg::absorbs(&cols, &delta(5, 1, 0)));
        assert!(!Reg::absorbs(&cols, &delta(5, 1, 1)));
        assert_eq!(cols, RegPayload::Columns(vec![1, 0, 9]));
        // Only `Columns` vs `Delta` is ever filtered.
        assert!(!Reg::absorbs(&cols, &RegPayload::Columns(vec![0])));
        assert!(!Reg::absorbs(&delta(2, 1, 9), &delta(2, 1, 4)));
        // Replayed deltas decode with the stub hook: never filtered.
        let mut bytes = Vec::new();
        Reg::encode_state(&delta(2, 1, 4), &mut bytes);
        assert!(!Reg::absorbs(&cols, &Reg::decode_state(&bytes)));
    }

    #[test]
    fn payload_codec_roundtrips() {
        let cols: RegPayload<u64> = RegPayload::Columns(vec![3, 0, 77]);
        let mut bytes = Vec::new();
        QueryRegistry::<u64>::encode_state(&cols, &mut bytes);
        assert_eq!(QueryRegistry::<u64>::decode_state(&bytes), cols);

        let d = delta(5, 3, 42);
        bytes.clear();
        QueryRegistry::<u64>::encode_state(&d, &mut bytes);
        // Decoded deltas carry stub hooks, so compare fields not the enum.
        match QueryRegistry::<u64>::decode_state(&bytes) {
            RegPayload::Delta {
                slot, gen, cell, ..
            } => {
                assert_eq!((slot, gen, cell), (5, 3, 42));
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn slot_ctx_writes_its_column_and_tags_sends() {
        let mut st = store(RegPayload::default(), &[(9, EdgeMeta::weighted(4))]);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out, 0);
        let q = slot_record(6);
        {
            let mut sc = SlotCtx::new(&mut ctx, 2, &q, false);
            q.query.on_update(&mut sc, 9, &50, 4);
        }
        // Column 2 materialized (0 and 1 back-filled with bottom).
        assert_eq!(
            *live(&st),
            RegPayload::Columns(vec![0, 0, 50]),
            "slot 2 cell must hold the joined value"
        );
        // The cascade went out as a slot-tagged delta with the real hooks.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].target, 9);
        assert_eq!(out[0].weight, 4);
        match &out[0].value {
            RegPayload::Delta {
                slot, gen, cell, ..
            } => assert_eq!((*slot, *gen, *cell), (2, 6, 50)),
            other => panic!("expected delta, got {other:?}"),
        }
        assert_eq!(q.stats.updates_applied.load(Ordering::Relaxed), 1);
        assert_eq!(q.stats.envelopes_sent.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn muted_slot_ctx_applies_but_never_sends() {
        let mut st = store(RegPayload::default(), &[(3, EdgeMeta::unweighted())]);
        let mut out = Vec::new();
        let mut ctx = ctx(&mut st, &mut out, 0);
        let q = slot_record(1);
        {
            let mut sc = SlotCtx::new(&mut ctx, 0, &q, true);
            q.query.on_update(&mut sc, 3, &8, 1);
        }
        assert_eq!(*live(&st), RegPayload::Columns(vec![8]));
        assert!(out.is_empty(), "muted context must drop sends");
        assert_eq!(q.stats.envelopes_sent.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn clear_compacts_trailing_bottom_columns() {
        let mut st = store(RegPayload::Columns(vec![0, 5, 0, 7, 0, 0]), &[]);
        let mut out = Vec::new();
        // Clearing slot 3 zeroes it and truncates the trailing bottom run.
        QueryRegistry::<u64>::reset_cells(&mut ctx(&mut st, &mut out, 0), 1 << 3, true);
        assert_eq!(
            *live(&st),
            RegPayload::Columns(vec![0, 5]),
            "detach must reclaim the trailing bottom cells"
        );
        // Without compaction the length is preserved (prime's clean slate).
        let mut st = store(RegPayload::Columns(vec![0, 0, 9]), &[]);
        QueryRegistry::<u64>::reset_cells(&mut ctx(&mut st, &mut out, 0), 1 << 2, false);
        assert_eq!(*live(&st), RegPayload::Columns(vec![0, 0, 0]));
    }

    #[test]
    fn registry_handle_reports_attachments() {
        let reg: QueryRegistry<u64> = QueryRegistry::new();
        assert_eq!(reg.attached(), 0);
        reg.shared.publish(|slots| {
            slots.resize_with(3, || None);
            slots[1] = Some(slot_record(1));
        });
        assert_eq!(reg.attached(), 1);
        assert_eq!(reg.shared.read_table().live_mask(), 0b10);
        assert_eq!(reg.shared.read_table().first_free(), Some(0));
        let rows = reg.query_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].slot, 1);
        assert_eq!(rows[0].name, "max");
        let dbg = format!("{reg:?}");
        assert!(dbg.contains("attached"));
    }
}
