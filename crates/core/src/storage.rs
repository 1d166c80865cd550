//! Shard storage: how a shard physically holds its vertices.
//!
//! `DenseStore` is an interning table (`RhhMap<VertexId, u32>`, one probe
//! per event) in front of a record slab — each entry a packed
//! `(state, meta-word)` pair (`HotVertex`) contiguous with its
//! `Adjacency` — plus a **cold side map** `LocalIdx -> S` for snapshot
//! forks. Forks exist only while a snapshot is draining, so `Option<S>`
//! does not pad every hot record; the hot working set per event is one
//! contiguous `size_of::<S>() + 8 + 40`-byte slab record.
//!
//! A vertex is named *within the shard* by its stable [`LocalIdx`]. The
//! shard loop interns once per envelope and performs every subsequent
//! access through that index, which is what makes the single-probe
//! discipline real.

use crate::event::Epoch;
use crate::vertex_state::VertexMeta;
use remo_store::{Adjacency, DenseVertexTable, LocalIdx, RhhMap, VertexId};

/// Split mutable borrows of one vertex's storage, assembled per event.
///
/// `prev` is `Some` exactly when the event being processed must dual-apply
/// to the snapshot fork (its epoch predates the vertex's fork point) — the
/// store resolves `applies_to_prev` once, here, instead of every consumer
/// re-deriving it.
pub struct VertexParts<'a, S> {
    /// Live algorithm state.
    pub live: &'a mut S,
    /// The snapshot fork, present only when this event dual-applies.
    pub prev: Option<&'a mut S>,
    /// Fork epoch + fired-trigger bits.
    pub meta: &'a mut VertexMeta,
    /// Out-edges.
    pub adj: &'a mut Adjacency,
}

/// Visitor handed to [`DenseStore::export_records`]: receives each
/// vertex's `(id, live state, snapshot fork, meta word, adjacency)`.
pub(crate) type RecordVisitor<'a, S> =
    dyn FnMut(VertexId, &S, Option<&S>, VertexMeta, &Adjacency) + 'a;

/// Per-vertex hot payload: the live state packed with the 8-byte meta
/// word. Every envelope reads both (the fork check is on the meta, the
/// callback is on the state), so splitting them into two slabs costs a
/// second dependent cache line per event for nothing — packing them (and
/// packing the pair contiguously with the adjacency, see
/// [`remo_store::DenseVertexTable`]) makes one event's touch one
/// `size_of::<S>() + 8 + 40`-byte slab record.
#[derive(Clone, Default)]
pub(crate) struct HotVertex<S> {
    live: S,
    meta: VertexMeta,
}

/// The engine's one vertex store: interning + record slab + cold fork
/// side map.
///
/// A shard owns one while it runs (the sequential reference engine owns
/// one too) and hands it over untouched when it stops: `RunResult::tables` holds each shard's store, and the read-only
/// [`DenseStore::get`], [`DenseStore::iter`] and
/// [`DenseStore::num_vertices`] are the whole surface callers outside the
/// engine see.
pub struct DenseStore<S> {
    table: DenseVertexTable<HotVertex<S>>,
    /// Snapshot forks, keyed by dense index. Populated only between a
    /// fork and the snapshot drain that clears it — keeping `Option<S>`
    /// out of the hot records is the point of the side map.
    forks: RhhMap<LocalIdx, S>,
    /// One-entry intern memo: cascades and hub traffic often deliver
    /// consecutive envelopes to the same vertex, and a compare beats a
    /// probe. Sound across envelopes because dense indices are stable
    /// for the table's lifetime (vertices are never evicted).
    last: Option<(VertexId, LocalIdx)>,
}

/// The index discipline: `intern`/`lookup` perform the (single) probe;
/// every other accessor is direct indexing off the [`LocalIdx`].
impl<S> DenseStore<S>
where
    S: Clone + Default + PartialEq,
{
    /// A store pre-sized for `vertices` entries (0 = start empty).
    pub(crate) fn with_capacity(vertices: usize) -> Self {
        DenseStore {
            table: if vertices > 0 {
                DenseVertexTable::with_capacity(vertices)
            } else {
                DenseVertexTable::new()
            },
            forks: RhhMap::new(),
            last: None,
        }
    }

    /// Index for `v`, creating default state/meta/adjacency if absent.
    #[inline]
    pub(crate) fn intern(&mut self, v: VertexId) -> LocalIdx {
        if let Some((id, h)) = self.last {
            if id == v {
                return h;
            }
        }
        let (h, _) = self.table.intern(v);
        self.last = Some((v, h));
        h
    }

    /// Index for `v` if it has a record.
    #[inline]
    pub(crate) fn lookup(&self, v: VertexId) -> Option<LocalIdx> {
        self.table.lookup(v)
    }

    /// Live state at `h`.
    #[inline]
    pub(crate) fn live(&self, h: LocalIdx) -> &S {
        &self.table.state(h).live
    }

    /// True when an event of `epoch` at `h` must dual-apply to the fork.
    #[inline]
    pub(crate) fn applies_to_prev(&self, h: LocalIdx, epoch: Epoch) -> bool {
        // The meta read answers "no" without touching the cold map in the
        // common (no snapshot draining) case.
        epoch < self.table.state(h).meta.forked_epoch && self.forks.contains(h)
    }

    /// Forks `h` for `epoch` if this is the first event of a newer epoch
    /// (capturing the previous state), then hands out split borrows of
    /// `h`'s state/fork/meta/adjacency. One fused call — the shard loop
    /// needs both on every envelope, and fusing touches the vertex's meta
    /// word once instead of twice. Returns `(forked, parts)`.
    #[inline]
    pub(crate) fn fork_and_parts(
        &mut self,
        h: LocalIdx,
        epoch: Epoch,
    ) -> (bool, VertexParts<'_, S>) {
        let (hot, adj) = self.table.state_adj_mut(h);
        let HotVertex { live, meta } = hot;
        let forked = epoch > meta.forked_epoch;
        if forked {
            meta.forked_epoch = epoch;
            self.forks.insert(h, live.clone());
        }
        let prev = if epoch < meta.forked_epoch {
            self.forks.get_mut(h)
        } else {
            None
        };
        (
            forked,
            VertexParts {
                live,
                prev,
                meta,
                adj,
            },
        )
    }

    /// Number of vertices present.
    pub fn num_vertices(&self) -> usize {
        self.table.num_vertices()
    }

    /// Live state and out-edges of `v`, if it has a record.
    pub fn get(&self, v: VertexId) -> Option<(&S, &Adjacency)> {
        let h = self.table.lookup(v)?;
        Some((&self.table.state(h).live, self.table.adj(h)))
    }

    /// Iterates `(vertex, live state, out-edges)` in intern order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &S, &Adjacency)> + '_ {
        self.table.iter().map(|(v, hot, adj)| (v, &hot.live, adj))
    }

    /// Snapshot of every vertex id present, in iteration order. Cold path:
    /// the control-sweep driver (see [`crate::registry`]) materializes the
    /// id list once, then interns per id.
    pub(crate) fn vertex_ids(&self) -> Vec<VertexId> {
        self.table.ids().to_vec()
    }

    /// Approximate heap footprint of adjacency storage, in bytes.
    pub(crate) fn adjacency_heap_bytes(&self) -> usize {
        self.table.adjacency_heap_bytes()
    }

    /// Approximate total heap footprint of the store (index + state +
    /// meta + adjacency + forks), in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.table.heap_bytes() + self.forks.heap_bytes()
    }

    /// Collects `(vertex, state)` pairs: the live view, or the snapshot
    /// view at `old_epoch` (omitting still-default states and clearing
    /// forks, matching the snapshot protocol's drain step).
    pub(crate) fn collect(&mut self, old_epoch: Epoch, live: bool) -> Vec<(VertexId, S)> {
        let default = S::default();
        let mut states = Vec::with_capacity(self.table.num_vertices());
        if live {
            for (v, hot, _) in self.table.iter() {
                states.push((v, hot.live.clone()));
            }
        } else {
            // Dense-order slab walk; the cold map is probed only for
            // vertices whose meta says they forked past the boundary.
            for (i, (v, hot, _)) in self.table.iter().enumerate() {
                let view = if hot.meta.forked_epoch > old_epoch {
                    self.forks.get(i as LocalIdx).unwrap_or(&hot.live)
                } else {
                    &hot.live
                };
                if *view != default {
                    states.push((v, view.clone()));
                }
            }
            // The snapshot drain retires every outstanding fork at once.
            self.forks.clear();
        }
        states
    }

    /// Streams every vertex record — live state, outstanding snapshot
    /// fork, meta word, adjacency — to `f`. The checkpoint serializer's
    /// walk (cold path; only durability-enabled shards call it).
    pub(crate) fn export_records(&self, f: &mut RecordVisitor<S>) {
        for (i, (v, hot, adj)) in self.table.iter().enumerate() {
            f(v, &hot.live, self.forks.get(i as LocalIdx), hot.meta, adj);
        }
    }

    /// Reinstates one checkpointed vertex record. The store must be
    /// freshly constructed — restore never merges into existing records.
    pub(crate) fn restore_record(
        &mut self,
        v: VertexId,
        live: S,
        prev: Option<S>,
        meta: VertexMeta,
        adj: Adjacency,
    ) {
        let (h, _) = self.table.intern(v);
        *self.table.state_mut(h) = HotVertex { live, meta };
        *self.table.adj_mut(h) = adj;
        if let Some(p) = prev {
            self.forks.insert(h, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_store_semantics() {
        let mut st: DenseStore<u64> = DenseStore::with_capacity(8);
        let h = st.intern(42);
        assert_eq!(st.num_vertices(), 1);
        assert_eq!(*st.live(h), 0);
        {
            let (forked, parts) = st.fork_and_parts(h, 0);
            assert!(!forked, "epoch 0 never forks");
            *parts.live = 7;
            parts.meta.fired |= 1;
        }
        let h = st.lookup(42).unwrap_or_else(|| unreachable!());
        assert_eq!(*st.live(h), 7);

        // Fork at epoch 1, advance live, check dual-apply visibility.
        {
            let (forked, parts) = st.fork_and_parts(h, 1);
            assert!(forked, "first event of a new epoch forks");
            *parts.live = 9;
            assert!(parts.prev.is_none(), "new-epoch event spares the fork");
            assert_eq!(parts.meta.fired, 1, "fired bits survive the fork");
        }
        assert!(st.applies_to_prev(h, 0));
        assert!(!st.applies_to_prev(h, 1));
        {
            let (forked, parts) = st.fork_and_parts(h, 1);
            assert!(!forked, "same epoch must not re-fork");
            assert!(parts.prev.is_none());
        }
        {
            let (forked, parts) = st.fork_and_parts(h, 0);
            assert!(!forked);
            assert_eq!(parts.prev.as_deref().copied(), Some(7));
        }

        // Snapshot collect sees the fork, then clears it.
        let snap = st.collect(0, false);
        assert_eq!(snap, vec![(42, 7)]);
        assert!(!st.applies_to_prev(h, 0), "fork cleared by the drain");
        let live = st.collect(u32::MAX, true);
        assert_eq!(live, vec![(42, 9)]);
        // A later epoch forks afresh, from the state the vertex has now.
        assert!(st.fork_and_parts(h, 2).0);
        assert_eq!(st.fork_and_parts(h, 1).1.prev.as_deref().copied(), Some(9));

        // Default-state vertices are omitted from snapshots but present in
        // the live collection and the read-only view.
        let h2 = st.intern(100);
        let _ = h2;
        let snap = st.collect(5, false);
        assert_eq!(snap, vec![(42, 9)]);
        let mut ids = st.vertex_ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![42, 100]);
        // The read-only view handed to `RunResult::tables`.
        assert_eq!(st.get(42).map(|(s, a)| (*s, a.degree())), Some((9, 0)));
        assert!(st.get(7).is_none());
        let seen: Vec<(VertexId, u64)> = st.iter().map(|(v, s, _)| (v, *s)).collect();
        assert_eq!(seen, vec![(42, 9), (100, 0)]);
    }

    #[test]
    fn export_restore_round_trips_a_fork() {
        use remo_store::EdgeMeta;
        let mut st: DenseStore<u64> = DenseStore::with_capacity(0);
        let h = st.intern(1);
        {
            let (_, parts) = st.fork_and_parts(h, 0);
            *parts.live = 5;
            parts.meta.fired = 0b10;
            parts.adj.insert(2, EdgeMeta::weighted(3));
        }
        // Fork at epoch 1 so an outstanding prev rides the checkpoint.
        let _ = st.fork_and_parts(h, 1);
        let _ = st.intern(9);

        let mut restored: DenseStore<u64> = DenseStore::with_capacity(0);
        st.export_records(&mut |v, live, prev, meta, adj| {
            restored.restore_record(v, *live, prev.copied(), meta, adj.clone());
        });
        assert_eq!(restored.num_vertices(), 2);
        let h = restored.lookup(1).unwrap_or_else(|| unreachable!());
        assert_eq!(*restored.live(h), 5);
        assert!(
            restored.applies_to_prev(h, 0),
            "fork survives the roundtrip"
        );
        let (_, parts) = restored.fork_and_parts(h, 0);
        assert_eq!(parts.prev.as_deref().copied(), Some(5));
        assert_eq!(parts.meta.fired, 0b10);
        assert_eq!(parts.adj.get(2).map(|m| m.weight), Some(3));
    }

    /// A checkpoint round trip through a vertex past `PROMOTE_DEGREE`:
    /// the decoder re-inserts the exported edges one by one (as
    /// `restore_checkpoint` does), so the restored slab and its position
    /// index are rebuilt, not copied.
    #[test]
    fn export_restore_round_trips_a_promoted_vertex() {
        use remo_store::{EdgeMeta, PROMOTE_DEGREE};
        let degree = 4 * PROMOTE_DEGREE as u64;
        let mut st: DenseStore<u64> = DenseStore::with_capacity(0);
        let h = st.intern(1);
        {
            let (_, parts) = st.fork_and_parts(h, 0);
            for n in 0..degree + 8 {
                parts
                    .adj
                    .insert_weight_min(n * 31, EdgeMeta::weighted(n + 1));
            }
            // Removals before the checkpoint: the exported order is no
            // longer plain arrival order, and the index has closed holes.
            for n in 0..8 {
                assert!(parts.adj.remove(n * 31 * 5).is_some());
            }
            parts.adj.set_cached(31, 77);
            assert!(parts.adj.is_promoted());
        }

        let mut restored: DenseStore<u64> = DenseStore::with_capacity(0);
        st.export_records(&mut |v, live, prev, meta, adj| {
            let mut rebuilt = Adjacency::new();
            for (nbr, edge) in adj.iter() {
                assert!(rebuilt.insert(nbr, edge), "edge exported twice");
            }
            restored.restore_record(v, *live, prev.copied(), meta, rebuilt);
        });
        let (_, before) = st.get(1).unwrap_or_else(|| unreachable!());
        let (_, after) = restored.get(1).unwrap_or_else(|| unreachable!());
        assert!(after.is_promoted());
        assert_eq!(after.degree(), degree as usize);
        assert!(
            after.iter().eq(before.iter()),
            "edge order survives the trip"
        );
        assert_eq!(after.get(31).map(|m| (m.weight, m.cached)), Some((2, 77)));
        assert!(after.get(0).is_none(), "a removed edge stays removed");
        // The rebuilt index still finds every edge, and still dedupes.
        let h = restored.lookup(1).unwrap_or_else(|| unreachable!());
        let (_, parts) = restored.fork_and_parts(h, 0);
        for (nbr, _) in before.iter() {
            assert!(!parts
                .adj
                .insert_weight_min(nbr, EdgeMeta::weighted(u64::MAX)));
        }
        assert!(parts.adj.insert_weight_min(0, EdgeMeta::weighted(9)));
    }

    #[test]
    fn dense_intern_memo_is_transparent() {
        let mut st: DenseStore<u64> = DenseStore::with_capacity(0);
        let a = st.intern(5);
        assert_eq!(st.intern(5), a, "memo hit");
        let b = st.intern(9);
        assert_ne!(a, b);
        assert_eq!(st.intern(5), a, "probe after memo miss");
        assert_eq!(st.intern(9), b);
        assert_eq!(st.num_vertices(), 2);
    }

    #[test]
    fn dense_edges_flow_through_parts() {
        use remo_store::EdgeMeta;
        let mut st: DenseStore<u64> = DenseStore::with_capacity(0);
        let h = st.intern(1);
        st.fork_and_parts(h, 0)
            .1
            .adj
            .insert(2, EdgeMeta::weighted(4));
        assert_eq!(st.fork_and_parts(h, 0).1.adj.degree(), 1);
        assert!(st.adjacency_heap_bytes() < st.heap_bytes());
    }
}
