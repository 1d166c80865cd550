//! Shard storage: how a shard physically holds its vertices.
//!
//! `DenseStore` is an interning table (the ids in intern order plus a
//! keyless position index over them, one probe per event) in front of a
//! record slab — each entry the live state contiguous with its
//! `Adjacency`. The hot working set per event is one contiguous
//! `size_of::<S>() + 24`-byte slab record (rounded up to the state's
//! alignment; 32 bytes for a `u64` state), whose adjacency
//! header holds a low-degree vertex's first 16 bytes of edges itself (four
//! `()` entries or two `Weight` while the vertex's ids and weights fit in
//! a `u32`, half as many once one does not). The fired-trigger bits live
//! beside the slab in a side table that only trigger evaluation touches,
//! so an engine without triggers never allocates it.
//! The adjacency's entries carry the algorithm's
//! [`crate::Algorithm::Edge`] payload, so the store is typed by it as well
//! as by the state.
//!
//! A vertex is named *within the shard* by its stable [`LocalIdx`]. The
//! shard loop interns once per envelope and performs every subsequent
//! access through that index, which is what makes the single-probe
//! discipline real.

use remo_store::{Adjacency, DenseVertexTable, EdgeData, LocalIdx, VertexId};

/// Split mutable borrows of one vertex's storage, assembled per event.
pub struct VertexParts<'a, S, E> {
    /// Live algorithm state.
    pub live: &'a mut S,
    /// Out-edges.
    pub adj: &'a mut Adjacency<E>,
    /// Fired-trigger bits.
    pub fired: Fired<'a>,
}

/// One vertex's fired-trigger bits (bit `i` set once trigger `i` fired for
/// it, at most once each), reached through the store's side table. The
/// table grows only when a bit is set, so a vertex past its end has none.
pub struct Fired<'a> {
    table: &'a mut Vec<u32>,
    h: LocalIdx,
}

impl Fired<'_> {
    /// The vertex's bits.
    #[inline]
    pub fn get(&self) -> u32 {
        fired_bits(self.table, self.h)
    }

    /// Sets `bits` for the vertex.
    pub fn set(&mut self, bits: u32) {
        let i = self.h as usize;
        if i >= self.table.len() {
            self.table.resize(i + 1, 0);
        }
        self.table[i] |= bits;
    }
}

/// Bits of the vertex at `h` in a fired-trigger side table.
#[inline]
fn fired_bits(table: &[u32], h: LocalIdx) -> u32 {
    table.get(h as usize).copied().unwrap_or(0)
}

/// Visitor handed to [`DenseStore::export_records`]: receives each
/// vertex's `(id, live state, fired-trigger bits, adjacency)`.
pub(crate) type RecordVisitor<'a, S, E> = dyn FnMut(VertexId, &S, u32, &Adjacency<E>) + 'a;

/// The engine's one vertex store: interning + record slab.
///
/// A shard owns one while it runs (the sequential reference engine owns
/// one too) and hands it over untouched when it stops: `RunResult::tables` holds each shard's store, and the read-only
/// [`DenseStore::get`], [`DenseStore::iter`] and
/// [`DenseStore::num_vertices`] are the whole surface callers outside the
/// engine see.
pub struct DenseStore<S, E> {
    table: DenseVertexTable<S, E>,
    /// Fired-trigger bits by [`LocalIdx`], as long as the highest vertex
    /// any trigger fired for: empty while none has.
    fired: Vec<u32>,
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
            fired: Vec::new(),
            last: None,
        }
    }

    /// Index for `v`, creating default state and adjacency if absent.
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
        self.table.state(h)
    }

    /// Split borrows of `h`'s state, adjacency and fired-trigger bits.
    #[inline]
    pub(crate) fn parts(&mut self, h: LocalIdx) -> VertexParts<'_, S, E> {
        let (live, adj) = self.table.state_adj_mut(h);
        VertexParts {
            live,
            adj,
            fired: Fired {
                table: &mut self.fired,
                h,
            },
        }
    }

    /// Number of vertices present.
    pub fn num_vertices(&self) -> usize {
        self.table.num_vertices()
    }

    /// Live state and out-edges of `v`, if it has a record.
    pub fn get(&self, v: VertexId) -> Option<(&S, &Adjacency<E>)> {
        let h = self.table.lookup(v)?;
        Some((self.table.state(h), self.table.adj(h)))
    }

    /// Iterates `(vertex, live state, out-edges)` in intern order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &S, &Adjacency<E>)> + '_ {
        self.table.iter()
    }

    /// Global id of the vertex at `h`: positions `0..num_vertices` walk
    /// the store in intern order (the control sweep's walk).
    pub(crate) fn id(&self, h: LocalIdx) -> VertexId {
        self.table.vertex_id(h)
    }

    /// Approximate heap footprint of adjacency storage, in bytes.
    pub(crate) fn adjacency_heap_bytes(&self) -> usize {
        self.table.adjacency_heap_bytes()
    }

    /// Approximate total heap footprint of the store (index + state +
    /// adjacency + fired-trigger bits), in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.table.heap_bytes() + self.fired.capacity() * std::mem::size_of::<u32>()
    }

    /// Every vertex's `(id, live state)`, in intern order: this shard's
    /// fragment of a snapshot.
    pub(crate) fn states(&self) -> Vec<(VertexId, S)> {
        self.iter().map(|(v, s, _)| (v, s.clone())).collect()
    }

    /// Streams every vertex record — live state, fired-trigger bits,
    /// adjacency — to `f`. The checkpoint serializer's walk (cold path;
    /// only durability-enabled shards call it).
    pub(crate) fn export_records(&self, f: &mut RecordVisitor<S, E>) {
        for (h, (v, live, adj)) in self.table.iter().enumerate() {
            f(v, live, fired_bits(&self.fired, h as LocalIdx), adj);
        }
    }

    /// Reinstates one checkpointed vertex record. The store must be
    /// freshly constructed — restore never merges into existing records.
    pub(crate) fn restore_record(&mut self, v: VertexId, live: S, fired: u32, adj: Adjacency<E>) {
        let h = self.intern(v);
        let mut parts = self.parts(h);
        *parts.live = live;
        *parts.adj = adj;
        if fired != 0 {
            parts.fired.set(fired);
        }
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
            let mut parts = st.parts(h);
            *parts.live = 7;
            parts.fired.set(1);
        }
        let h = st.lookup(42).unwrap_or_else(|| unreachable!());
        assert_eq!(*st.live(h), 7);
        {
            let parts = st.parts(h);
            *parts.live = 9;
            assert_eq!(parts.fired.get(), 1, "fired bits stay with the vertex");
        }

        // A snapshot fragment holds every vertex's live state, a vertex
        // still in its default state too.
        let _ = st.intern(100);
        assert_eq!(st.states(), vec![(42, 9), (100, 0)]);
        assert_eq!((st.id(0), st.id(1)), (42, 100));
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
            let mut parts = st.parts(h);
            *parts.live = 5;
            parts.fired.set(0b10);
            parts.adj.insert(2, 3);
        }
        let _ = st.intern(9);

        let mut restored: DenseStore<u64, Weight> = DenseStore::with_capacity(0);
        st.export_records(&mut |v, live, fired, adj| {
            restored.restore_record(v, *live, fired, adj.clone());
        });
        assert_eq!(restored.num_vertices(), 2);
        let h = restored.lookup(1).unwrap_or_else(|| unreachable!());
        assert_eq!(*restored.live(h), 5);
        let parts = restored.parts(h);
        assert_eq!(parts.fired.get(), 0b10);
        assert_eq!(parts.adj.get(2), Some(3));
        let h = restored.lookup(9).unwrap_or_else(|| unreachable!());
        assert_eq!(restored.parts(h).fired.get(), 0);
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
        st.export_records(&mut |v, live, fired, adj| {
            let mut bytes = Vec::new();
            put_adjacency(&mut bytes, adj);
            // The format is the payload's: degree, then two words an edge.
            assert_eq!(bytes.len(), 4 + 16 * adj.degree());
            let mut r = &bytes[..];
            let rebuilt = get_adjacency(&mut r).unwrap_or_else(|e| panic!("{e}"));
            assert!(r.is_empty());
            restored.restore_record(v, *live, fired, rebuilt);
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

    /// A vertex record is the live state beside its 24-byte adjacency
    /// header and nothing else: 32 bytes for a `u64` state at either
    /// payload, since the fired-trigger bits live in the side table.
    #[test]
    fn a_vertex_record_is_its_state_and_its_adjacency_header() {
        fn record_bytes<S, E>(_: &DenseVertexTable<S, E>) -> usize {
            DenseVertexTable::<S, E>::RECORD_BYTES
        }
        let unit: DenseStore<u64, ()> = DenseStore::with_capacity(0);
        let weight: DenseStore<u64, remo_store::Weight> = DenseStore::with_capacity(0);
        assert_eq!(record_bytes(&unit.table), 32);
        assert_eq!(record_bytes(&weight.table), 32);
    }

    /// The fired-trigger side table stays empty until a bit is set, then
    /// reaches only as far as the highest vertex with one.
    #[test]
    fn fired_bits_grow_their_side_table_only_when_set() {
        let mut st: DenseStore<u64, ()> = DenseStore::with_capacity(0);
        let hs: Vec<LocalIdx> = (0..10).map(|v| st.intern(v)).collect();
        for &h in &hs {
            assert_eq!(st.parts(h).fired.get(), 0);
        }
        assert!(st.fired.is_empty());
        st.parts(hs[3]).fired.set(0b100);
        st.parts(hs[3]).fired.set(0b001);
        assert_eq!(st.fired.len(), 4);
        assert_eq!(st.parts(hs[3]).fired.get(), 0b101);
        assert_eq!(st.parts(hs[9]).fired.get(), 0);
        assert_eq!(st.parts(hs[2]).fired.get(), 0);
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
