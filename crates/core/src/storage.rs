//! Shard storage: how a shard physically holds its vertices.
//!
//! `DenseStore` is an interning table (the ids in intern order plus a
//! keyless position index over them, one probe per event) in front of a
//! record slab — each entry a packed
//! `(state, meta-word)` pair (`HotVertex`) contiguous with its
//! `Adjacency`. The hot working set per event is one contiguous
//! `size_of::<S>() + 4 + 24`-byte slab record (rounded up to the state's
//! alignment), whose adjacency
//! header holds a low-degree vertex's first 16 bytes of edges itself (four
//! `()` entries or two `Weight` while the vertex's ids and weights fit in
//! a `u32`, half as many once one does not).
//! The adjacency's entries carry the algorithm's
//! [`crate::Algorithm::Edge`] payload, so the store is typed by it as well
//! as by the state.
//!
//! A vertex is named *within the shard* by its stable [`LocalIdx`]. The
//! shard loop interns once per envelope and performs every subsequent
//! access through that index, which is what makes the single-probe
//! discipline real.

use crate::vertex_state::VertexMeta;
use remo_store::{Adjacency, DenseVertexTable, EdgeData, LocalIdx, VertexId};

/// Split mutable borrows of one vertex's storage, assembled per event.
pub struct VertexParts<'a, S, E> {
    /// Live algorithm state.
    pub live: &'a mut S,
    /// Fired-trigger bits.
    pub meta: &'a mut VertexMeta,
    /// Out-edges.
    pub adj: &'a mut Adjacency<E>,
}

/// Visitor handed to [`DenseStore::export_records`]: receives each
/// vertex's `(id, live state, meta word, adjacency)`.
pub(crate) type RecordVisitor<'a, S, E> = dyn FnMut(VertexId, &S, VertexMeta, &Adjacency<E>) + 'a;

/// Per-vertex hot payload: the live state packed with the 4-byte meta
/// word. A state change reads both (the callback is on the state, the
/// trigger check on the meta), so splitting them into two slabs costs a
/// second dependent cache line for nothing — packing them (and packing
/// the pair contiguously with the adjacency, see
/// [`remo_store::DenseVertexTable`]) makes one event's touch one slab
/// record.
#[derive(Clone, Default)]
pub(crate) struct HotVertex<S> {
    live: S,
    meta: VertexMeta,
}

/// The engine's one vertex store: interning + record slab.
///
/// A shard owns one while it runs (the sequential reference engine owns
/// one too) and hands it over untouched when it stops: `RunResult::tables` holds each shard's store, and the read-only
/// [`DenseStore::get`], [`DenseStore::iter`] and
/// [`DenseStore::num_vertices`] are the whole surface callers outside the
/// engine see.
pub struct DenseStore<S, E> {
    table: DenseVertexTable<HotVertex<S>, E>,
    /// One-entry intern memo: cascades and hub traffic often deliver
    /// consecutive envelopes to the same vertex, and a compare beats a
    /// probe. Sound across envelopes because dense indices are stable
    /// for the table's lifetime (vertices are never evicted).
    last: Option<(VertexId, LocalIdx)>,
}

/// The index discipline: `intern`/`lookup` perform the (single) probe;
/// every other accessor is direct indexing off the [`LocalIdx`].
impl<S, E> DenseStore<S, E>
where
    S: Clone + Default + PartialEq,
    E: EdgeData,
{
    /// A store pre-sized for `vertices` entries (0 = start empty).
    pub(crate) fn with_capacity(vertices: usize) -> Self {
        DenseStore {
            table: if vertices > 0 {
                DenseVertexTable::with_capacity(vertices)
            } else {
                DenseVertexTable::new()
            },
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

    /// Split borrows of `h`'s state, meta word and adjacency.
    #[inline]
    pub(crate) fn parts(&mut self, h: LocalIdx) -> VertexParts<'_, S, E> {
        let (hot, adj) = self.table.state_adj_mut(h);
        let HotVertex { live, meta } = hot;
        VertexParts { live, meta, adj }
    }

    /// Number of vertices present.
    pub fn num_vertices(&self) -> usize {
        self.table.num_vertices()
    }

    /// Live state and out-edges of `v`, if it has a record.
    pub fn get(&self, v: VertexId) -> Option<(&S, &Adjacency<E>)> {
        let h = self.table.lookup(v)?;
        Some((&self.table.state(h).live, self.table.adj(h)))
    }

    /// Iterates `(vertex, live state, out-edges)` in intern order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &S, &Adjacency<E>)> + '_ {
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
    /// meta + adjacency), in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }

    /// Every vertex's `(id, live state)`, in intern order: this shard's
    /// fragment of a snapshot.
    pub(crate) fn states(&self) -> Vec<(VertexId, S)> {
        self.iter().map(|(v, s, _)| (v, s.clone())).collect()
    }

    /// Streams every vertex record — live state, meta word, adjacency — to
    /// `f`. The checkpoint serializer's walk (cold path; only
    /// durability-enabled shards call it).
    pub(crate) fn export_records(&self, f: &mut RecordVisitor<S, E>) {
        for (v, hot, adj) in self.table.iter() {
            f(v, &hot.live, hot.meta, adj);
        }
    }

    /// Reinstates one checkpointed vertex record. The store must be
    /// freshly constructed — restore never merges into existing records.
    pub(crate) fn restore_record(
        &mut self,
        v: VertexId,
        live: S,
        meta: VertexMeta,
        adj: Adjacency<E>,
    ) {
        let (h, _) = self.table.intern(v);
        *self.table.state_mut(h) = HotVertex { live, meta };
        *self.table.adj_mut(h) = adj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_store_semantics() {
        let mut st: DenseStore<u64, ()> = DenseStore::with_capacity(8);
        let h = st.intern(42);
        assert_eq!(st.num_vertices(), 1);
        assert_eq!(*st.live(h), 0);
        {
            let parts = st.parts(h);
            *parts.live = 7;
            parts.meta.fired |= 1;
        }
        let h = st.lookup(42).unwrap_or_else(|| unreachable!());
        assert_eq!(*st.live(h), 7);
        {
            let parts = st.parts(h);
            *parts.live = 9;
            assert_eq!(parts.meta.fired, 1, "fired bits stay with the vertex");
        }

        // A snapshot fragment holds every vertex's live state, a vertex
        // still in its default state too.
        let _ = st.intern(100);
        assert_eq!(st.states(), vec![(42, 9), (100, 0)]);
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
    fn export_restore_round_trips_a_record() {
        use remo_store::Weight;
        let mut st: DenseStore<u64, Weight> = DenseStore::with_capacity(0);
        let h = st.intern(1);
        {
            let parts = st.parts(h);
            *parts.live = 5;
            parts.meta.fired = 0b10;
            parts.adj.insert(2, 3);
        }
        let _ = st.intern(9);

        let mut restored: DenseStore<u64, Weight> = DenseStore::with_capacity(0);
        st.export_records(&mut |v, live, meta, adj| {
            restored.restore_record(v, *live, meta, adj.clone());
        });
        assert_eq!(restored.num_vertices(), 2);
        let h = restored.lookup(1).unwrap_or_else(|| unreachable!());
        assert_eq!(*restored.live(h), 5);
        let parts = restored.parts(h);
        assert_eq!(parts.meta.fired, 0b10);
        assert_eq!(parts.adj.get(2), Some(3));
    }

    /// A checkpoint round trip through a vertex past `PROMOTE_BYTES` of
    /// entries, for each edge payload: the adjacency goes through the
    /// checkpoint's edge codec and the decoder re-inserts the edges one by
    /// one (as `restore_checkpoint` does), so the restored slab and its
    /// position index are rebuilt, not copied.
    #[test]
    fn export_restore_round_trips_a_promoted_vertex() {
        round_trip_promoted::<()>();
        round_trip_promoted::<remo_store::Weight>();
    }

    fn round_trip_promoted<E: EdgeData>() {
        use crate::wal::{get_adjacency, put_adjacency};
        use remo_store::adjacency::PROMOTE_BYTES;
        // Twice the entries of the narrowest kind (a 4-byte `()` entry)
        // that fill `PROMOTE_BYTES`, so every payload builds its index.
        let degree = 2 * PROMOTE_BYTES as u64 / 4;
        let mut st: DenseStore<u64, E> = DenseStore::with_capacity(0);
        let h = st.intern(1);
        {
            let parts = st.parts(h);
            for n in 0..degree + 8 {
                parts.adj.insert_weight_min(n * 31, E::new(n + 1));
            }
            // Removals before the checkpoint: the exported order is no
            // longer plain arrival order, and the index has closed holes.
            for n in 0..8 {
                assert!(parts.adj.remove(n * 31 * 5).is_some());
            }
            assert!(parts.adj.is_promoted());
        }

        let mut restored: DenseStore<u64, E> = DenseStore::with_capacity(0);
        st.export_records(&mut |v, live, meta, adj| {
            let mut bytes = Vec::new();
            put_adjacency(&mut bytes, adj);
            // The format is the payload's: degree, then two words an edge.
            assert_eq!(bytes.len(), 4 + 16 * adj.degree());
            let mut r = &bytes[..];
            let rebuilt = get_adjacency(&mut r).unwrap_or_else(|e| panic!("{e}"));
            assert!(r.is_empty());
            restored.restore_record(v, *live, meta, rebuilt);
        });
        let (_, before) = st.get(1).unwrap_or_else(|| unreachable!());
        let (_, after) = restored.get(1).unwrap_or_else(|| unreachable!());
        assert!(after.is_promoted());
        assert_eq!(after.degree(), degree as usize);
        assert!(
            after.iter().eq(before.iter()),
            "edges and their order survive the trip"
        );
        assert_eq!(after.get(31).map(|e| e.weight()), Some(E::new(2).weight()));
        assert!(after.get(0).is_none(), "a removed edge stays removed");
        // The rebuilt index still finds every edge, and still dedupes.
        let h = restored.lookup(1).unwrap_or_else(|| unreachable!());
        let parts = restored.parts(h);
        for (nbr, _) in before.iter() {
            assert!(!parts.adj.insert_weight_min(nbr, E::new(u64::MAX)));
        }
        assert!(parts.adj.insert_weight_min(0, E::new(9)));
    }

    #[test]
    fn dense_intern_memo_is_transparent() {
        let mut st: DenseStore<u64, ()> = DenseStore::with_capacity(0);
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
        let mut st: DenseStore<u64, remo_store::Weight> = DenseStore::with_capacity(0);
        let h = st.intern(1);
        st.parts(h).adj.insert(2, 4);
        assert_eq!(st.parts(h).adj.degree(), 1);
        assert!(st.adjacency_heap_bytes() < st.heap_bytes());
    }
}
