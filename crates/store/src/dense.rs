//! Dense vertex interning and arena-backed (structure-of-arrays) storage.
//!
//! The per-event cost floor of the shard hot path is one full Robin Hood
//! probe on the 64-bit global [`VertexId`] *per table access*, into records
//! that interleave algorithm state with adjacency headers. This module
//! splits that into two levels, following the locality discipline the paper
//! chose DegAwareRHH for (§III-B) and that RisGraph-style systems show is
//! what sub-millisecond per-update analysis hinges on:
//!
//! 1. an **interning table** ([`InternTable`]): `RhhMap<VertexId, u32>`,
//!    probed once per delivered event, mapping the sparse global id to a
//!    shard-local dense index;
//! 2. a **record slab** indexed by that dense id ([`DenseVertexTable`]): a
//!    `Vec` of per-vertex records, each a hot payload (a bare live state,
//!    or a packed state + meta-word — the engine's choice) stored
//!    *contiguously with* its [`Adjacency`]. Every subsequent access
//!    within the event is a direct array index, and because nearly every
//!    event that changes state also scans the adjacency (`update_nbrs`),
//!    keeping the two in one record means that touch is a single
//!    contiguous ~56-byte region instead of two slab loads in distinct
//!    cache lines. (An earlier structure-of-arrays split of state and
//!    adjacency into separate `Vec`s measured ~20% slower per event
//!    end-to-end for exactly this reason.)
//!
//! Dense indices are *stable for the lifetime of the table* (vertices are
//! never evicted — matching the engine, where a touched vertex keeps its
//! record until shutdown), so callers may hold a [`LocalIdx`] across events
//! and iteration is a linear slab walk in intern order instead of a sparse
//! scan over hash slots.

use crate::adjacency::{Adjacency, EdgeMeta};
use crate::rhh::RhhMap;
use crate::VertexId;

/// Shard-local dense vertex index. `u32` bounds a shard at ~4.3B vertices,
/// which exceeds any per-shard partition of the paper's datasets (the 3.5B
/// vertex Webgraph splits across shards) while halving the intern-table
/// value size versus the global id.
pub type LocalIdx = u32;

/// Global-id → dense-index interning table plus the reverse mapping.
///
/// # Examples
/// ```
/// use remo_store::dense::InternTable;
/// let mut t = InternTable::new();
/// let (a, new) = t.intern(900);
/// assert!(new && a == 0);
/// assert_eq!(t.intern(900), (0, false));
/// assert_eq!(t.lookup(900), Some(0));
/// assert_eq!(t.id(a), 900);
/// ```
pub struct InternTable {
    map: RhhMap<VertexId, LocalIdx>,
    ids: Vec<VertexId>,
}

impl Default for InternTable {
    fn default() -> Self {
        Self::new()
    }
}

impl InternTable {
    /// Creates an empty table without allocating.
    pub fn new() -> Self {
        InternTable {
            map: RhhMap::new(),
            ids: Vec::new(),
        }
    }

    /// Creates a table pre-sized for `vertices` ids (no rehash storms while
    /// interning up to that many).
    pub fn with_capacity(vertices: usize) -> Self {
        InternTable {
            map: RhhMap::with_capacity(vertices),
            ids: Vec::with_capacity(vertices),
        }
    }

    /// Number of interned vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dense index for `v`, interning it if new. Returns `(idx, was_new)`.
    /// One probe sequence on either path.
    #[inline]
    pub fn intern(&mut self, v: VertexId) -> (LocalIdx, bool) {
        let next = self.ids.len() as LocalIdx;
        let (idx, new) = self.map.entry_or_insert_with(v, || next);
        let idx = *idx;
        if new {
            self.ids.push(v);
        }
        (idx, new)
    }

    /// Dense index for `v` if already interned.
    #[inline]
    pub fn lookup(&self, v: VertexId) -> Option<LocalIdx> {
        self.map.get(v).copied()
    }

    /// Global id of a dense index (panics on an index never handed out).
    #[inline]
    pub fn id(&self, idx: LocalIdx) -> VertexId {
        self.ids[idx as usize]
    }

    /// Global ids in dense (intern) order.
    #[inline]
    pub fn ids(&self) -> &[VertexId] {
        &self.ids
    }

    /// Actual heap footprint: intern slots + reverse map.
    pub fn heap_bytes(&self) -> usize {
        self.map.heap_bytes() + self.ids.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// One slab entry: per-vertex hot payload packed with its adjacency, so
/// the state-change + neighbour-scan pattern of a propagating event touches
/// one contiguous record.
#[derive(Clone, Default)]
struct DenseRecord<S> {
    state: S,
    adj: Adjacency,
}

/// A dense, arena-backed vertex table: interning front-end over a record
/// slab indexed by [`LocalIdx`].
///
/// Exposes the dense index so hot paths intern **once** per event and use
/// direct indexing thereafter.
pub struct DenseVertexTable<S> {
    intern: InternTable,
    recs: Vec<DenseRecord<S>>,
    edges: usize,
}

impl<S: Default> Default for DenseVertexTable<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Default> DenseVertexTable<S> {
    /// Creates an empty table.
    pub fn new() -> Self {
        DenseVertexTable {
            intern: InternTable::new(),
            recs: Vec::new(),
            edges: 0,
        }
    }

    /// Creates a table pre-sized for `vertices` entries.
    pub fn with_capacity(vertices: usize) -> Self {
        DenseVertexTable {
            intern: InternTable::with_capacity(vertices),
            recs: Vec::with_capacity(vertices),
            edges: 0,
        }
    }

    /// Number of vertices present.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.intern.len()
    }

    /// Number of directed edges stored via [`Self::insert_edge`].
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Dense index of `v`, creating default state and empty adjacency if
    /// absent. Returns `(idx, was_new)`. The single probe of the hot path.
    #[inline]
    pub fn intern(&mut self, v: VertexId) -> (LocalIdx, bool) {
        let (idx, new) = self.intern.intern(v);
        if new {
            self.recs.push(DenseRecord::default());
        }
        (idx, new)
    }

    /// Dense index of `v` if it has a record.
    #[inline]
    pub fn lookup(&self, v: VertexId) -> Option<LocalIdx> {
        self.intern.lookup(v)
    }

    /// Global id of dense index `idx`.
    #[inline]
    pub fn vertex_id(&self, idx: LocalIdx) -> VertexId {
        self.intern.id(idx)
    }

    /// Global ids in dense (intern) order — the whole-store walk used by
    /// control sweeps, without materializing states or adjacencies.
    #[inline]
    pub fn ids(&self) -> &[VertexId] {
        self.intern.ids()
    }

    /// Live state at `idx`.
    #[inline]
    pub fn state(&self, idx: LocalIdx) -> &S {
        &self.recs[idx as usize].state
    }

    /// Mutable live state at `idx`.
    #[inline]
    pub fn state_mut(&mut self, idx: LocalIdx) -> &mut S {
        &mut self.recs[idx as usize].state
    }

    /// Adjacency at `idx`.
    #[inline]
    pub fn adj(&self, idx: LocalIdx) -> &Adjacency {
        &self.recs[idx as usize].adj
    }

    /// Mutable adjacency at `idx`.
    #[inline]
    pub fn adj_mut(&mut self, idx: LocalIdx) -> &mut Adjacency {
        &mut self.recs[idx as usize].adj
    }

    /// Simultaneous mutable access to the state and adjacency of the record
    /// at `idx` (a split borrow of one slab entry — both land in the same
    /// contiguous region).
    #[inline]
    pub fn state_adj_mut(&mut self, idx: LocalIdx) -> (&mut S, &mut Adjacency) {
        let rec = &mut self.recs[idx as usize];
        (&mut rec.state, &mut rec.adj)
    }

    /// Inserts the directed edge `src -> dst` with `meta`, interning `src`
    /// if needed. Returns `true` when the edge is new.
    pub fn insert_edge(&mut self, src: VertexId, dst: VertexId, meta: EdgeMeta) -> bool {
        let (idx, _) = self.intern(src);
        let new = self.recs[idx as usize].adj.insert(dst, meta);
        if new {
            self.edges += 1;
        }
        new
    }

    /// Removes the directed edge `src -> dst`, returning its metadata.
    pub fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> Option<EdgeMeta> {
        let idx = self.lookup(src)?;
        let meta = self.recs[idx as usize].adj.remove(dst)?;
        self.edges -= 1;
        Some(meta)
    }

    /// Out-degree of `v` (0 when absent).
    pub fn degree(&self, v: VertexId) -> usize {
        self.lookup(v)
            .map_or(0, |i| self.recs[i as usize].adj.degree())
    }

    /// Iterates `(vertex, state, adjacency)` in dense (intern) order — a
    /// linear slab walk, not a sparse hash-slot scan.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &S, &Adjacency)> + '_ {
        self.intern
            .ids()
            .iter()
            .zip(self.recs.iter())
            .map(|(&v, r)| (v, &r.state, &r.adj))
    }

    /// Approximate heap footprint of adjacency storage, in bytes.
    pub fn adjacency_heap_bytes(&self) -> usize {
        self.recs.iter().map(|r| r.adj.heap_bytes()).sum()
    }

    /// Approximate total heap footprint: intern table + record slab +
    /// adjacency heap storage.
    pub fn heap_bytes(&self) -> usize {
        self.intern.heap_bytes()
            + self.recs.capacity() * std::mem::size_of::<DenseRecord<S>>()
            + self.adjacency_heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_dense() {
        let mut t = InternTable::new();
        let ids: Vec<LocalIdx> = (0..100u64).map(|v| t.intern(v * 17).0).collect();
        assert_eq!(ids, (0..100).collect::<Vec<LocalIdx>>());
        for v in 0..100u64 {
            assert_eq!(t.lookup(v * 17), Some(v as LocalIdx));
            assert_eq!(t.id(v as LocalIdx), v * 17);
        }
        assert_eq!(t.lookup(1), None);
    }

    #[test]
    fn intern_twice_returns_same_index() {
        let mut t = InternTable::new();
        assert_eq!(t.intern(42), (0, true));
        assert_eq!(t.intern(42), (0, false));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_intern_creates_once() {
        let mut t: DenseVertexTable<u64> = DenseVertexTable::new();
        let (i, new) = t.intern(5);
        assert!(new);
        let (j, new) = t.intern(5);
        assert!(!new);
        assert_eq!(i, j);
        assert_eq!(t.num_vertices(), 1);
    }

    #[test]
    fn insert_edge_counts_distinct_edges() {
        let mut t: DenseVertexTable<u64> = DenseVertexTable::new();
        assert!(t.insert_edge(1, 2, EdgeMeta::unweighted()));
        assert!(t.insert_edge(1, 3, EdgeMeta::unweighted()));
        assert!(!t.insert_edge(1, 2, EdgeMeta::unweighted()));
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.degree(2), 0);
    }

    #[test]
    fn state_persists_across_edge_inserts() {
        let mut t: DenseVertexTable<u64> = DenseVertexTable::new();
        let (i, _) = t.intern(1);
        *t.state_mut(i) = 42;
        t.insert_edge(1, 2, EdgeMeta::unweighted());
        assert_eq!(*t.state(i), 42);
        assert_eq!(*t.state(t.lookup(1).unwrap()), 42);
    }

    #[test]
    fn remove_edge_updates_count() {
        let mut t: DenseVertexTable<u64> = DenseVertexTable::new();
        t.insert_edge(1, 2, EdgeMeta::weighted(9));
        assert_eq!(t.remove_edge(1, 2).unwrap().weight, 9);
        assert_eq!(t.remove_edge(1, 2), None);
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    fn iter_walks_in_intern_order() {
        let mut t: DenseVertexTable<u64> = DenseVertexTable::new();
        for v in (0..50u64).rev() {
            let (i, _) = t.intern(v);
            *t.state_mut(i) = v;
        }
        let ids: Vec<VertexId> = t.iter().map(|(v, _, _)| v).collect();
        assert_eq!(ids, (0u64..50).rev().collect::<Vec<_>>());
        assert_eq!(t.ids(), &ids[..]);
        for (v, s, _) in t.iter() {
            assert_eq!(v, *s);
        }
    }

    #[test]
    fn split_borrow_of_state_and_adjacency() {
        let mut t: DenseVertexTable<u64> = DenseVertexTable::new();
        let (i, _) = t.intern(7);
        let (s, a) = t.state_adj_mut(i);
        *s = 9;
        a.insert(8, EdgeMeta::unweighted());
        assert_eq!(*t.state(i), 9);
        assert_eq!(t.adj(i).degree(), 1);
    }

    #[test]
    fn with_capacity_avoids_rehash() {
        let mut t: DenseVertexTable<u64> = DenseVertexTable::with_capacity(1000);
        let before = t.heap_bytes();
        for v in 0..1000u64 {
            t.intern(v);
        }
        assert_eq!(t.num_vertices(), 1000);
        // Slabs and intern table were pre-sized: no growth happened.
        assert_eq!(t.heap_bytes(), before);
    }

    #[test]
    fn heap_bytes_grows_with_content() {
        let mut t: DenseVertexTable<u64> = DenseVertexTable::new();
        let empty = t.heap_bytes();
        for v in 0..1000u64 {
            t.insert_edge(v, v + 1, EdgeMeta::unweighted());
        }
        assert!(t.heap_bytes() > empty);
    }
}
