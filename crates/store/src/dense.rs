//! Dense vertex interning and arena-backed (structure-of-arrays) storage.
//!
//! A shard names its vertices by sparse 64-bit global [`VertexId`]s, and
//! its hot path touches a vertex once per delivered event. Hashing the
//! global id on every table access, into records that interleave algorithm
//! state with adjacency headers, would set that path's cost floor. This
//! module splits the access into two levels, following the locality
//! discipline the paper chose DegAwareRHH for (§III-B) and that
//! RisGraph-style systems show is what sub-millisecond per-update analysis
//! hinges on:
//!
//! 1. an **interning table** ([`InternTable`]): the global ids in intern
//!    order plus a keyless position index over them (4 bytes a slot, the
//!    layout of a hub's adjacency index), probed once per delivered event,
//!    mapping the sparse global id to a shard-local dense index;
//! 2. a **record slab** indexed by that dense id ([`DenseVertexTable`]): a
//!    `Vec` of per-vertex records, each the live state stored
//!    *contiguously with* its [`Adjacency`]. Every subsequent access
//!    within the event is a direct array index, and because nearly every
//!    event that changes state also scans the adjacency (`update_nbrs`),
//!    keeping the two in one record means that touch is a single
//!    contiguous 32-byte region (the engine's `u64` state beside a
//!    24-byte adjacency header, which holds a low-degree vertex's edges
//!    too) instead of two slab loads in distinct cache lines. (An
//!    earlier structure-of-arrays split of state and adjacency into
//!    separate `Vec`s measured ~20% slower per event end-to-end for
//!    exactly this reason.)
//!
//! Dense indices are *stable for the lifetime of the table* (vertices are
//! never evicted — matching the engine, where a touched vertex keeps its
//! record until shutdown), so callers may hold a [`LocalIdx`] across events
//! and iteration is a linear slab walk in intern order instead of a sparse
//! scan over hash slots.

use crate::adjacency::{Adjacency, EdgeData};
use crate::hash::mix64;
use crate::{VertexId, Weight};

/// Shard-local dense vertex index. With the intern table's `u32` slots it
/// bounds a shard at 3 * 2^30 (about 3.2B) vertices, which exceeds any
/// per-shard partition of the paper's datasets (the 3.5B vertex Webgraph
/// splits across shards) while halving the index's width versus the
/// global id.
pub type LocalIdx = u32;

/// Most vertices one [`InternTable`] holds. A slot keeps `position + 1` in
/// its low `log2(slots)` bits, so a `u32` slot names at most 2^32 - 1
/// positions, and at a load of at most 3/4 that is an index of 2^32 slots
/// holding 3 * 2^30 vertices, below [`LocalIdx::MAX`].
const MAX_VERTICES: usize = 3 << 30;

/// Slots of a table's first index; each later one doubles it.
const FIRST_SLOTS: usize = 16;

/// Slots an index needs to hold `vertices` ids at a load of at most 3/4.
fn slots_for(vertices: usize) -> usize {
    assert!(
        vertices <= MAX_VERTICES,
        "{vertices} vertices exceed one intern table's {MAX_VERTICES}"
    );
    (vertices + vertices.div_ceil(3))
        .next_power_of_two()
        .max(FIRST_SLOTS)
}

/// Home slot and tag of `v` in an index of `mask + 1` slots: the low bits
/// of its hash pick the slot and the high half, above the position bits,
/// is the tag that rules out most other ids without reading `ids`.
#[inline]
fn home_and_tag(v: VertexId, mask: usize) -> (usize, u32) {
    let hash = mix64(v);
    (hash as usize & mask, (hash >> 32) as u32 & !(mask as u32))
}

/// Global-id → dense-index interning table plus the reverse mapping.
///
/// The reverse mapping `ids` is the only place an id is kept. The forward
/// direction is a keyless position index over it, the layout of a hub's
/// index in [`Adjacency`]: a power-of-two array of `u32` slots, each 0
/// when empty and otherwise `position + 1` in its low `log2(slots)` bits
/// under a tag from the id's hash, probed linearly at a load of at most
/// 3/4 and rebuilt from `ids` at each doubling. A vertex never leaves, so
/// there is no deletion path.
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
    slots: Vec<u32>,
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
            slots: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Creates a table pre-sized for `vertices` ids (no rebuild while
    /// interning up to that many).
    pub fn with_capacity(vertices: usize) -> Self {
        let slots = if vertices == 0 {
            Vec::new()
        } else {
            vec![0; slots_for(vertices)]
        };
        InternTable {
            slots,
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
    /// One probe sequence on either path, unless the index doubles.
    #[inline]
    pub fn intern(&mut self, v: VertexId) -> (LocalIdx, bool) {
        let mut vacancy = match self.locate(v) {
            Ok(idx) => return (idx, false),
            Err(vacancy) => vacancy,
        };
        let len = self.ids.len();
        let slots = slots_for(len + 1);
        if slots > self.slots.len() {
            self.rebuild(slots);
            vacancy = self.locate(v).unwrap_err();
        }
        let (slot, tag) = vacancy;
        self.slots[slot] = tag | (len as u32 + 1);
        self.ids.push(v);
        (len as LocalIdx, true)
    }

    /// Dense index for `v` if already interned.
    #[inline]
    pub fn lookup(&self, v: VertexId) -> Option<LocalIdx> {
        self.locate(v).ok()
    }

    /// `v`'s dense index, or the empty slot its probe ended on and the tag
    /// a slot naming `v` would carry.
    #[inline]
    fn locate(&self, v: VertexId) -> Result<LocalIdx, (usize, u32)> {
        if self.slots.is_empty() {
            return Err((0, 0));
        }
        let mask = self.slots.len() - 1;
        let (mut i, tag) = home_and_tag(v, mask);
        // Load stays at or below 3/4, so an empty slot ends every probe.
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err((i, tag));
            }
            if slot & !(mask as u32) == tag {
                let pos = (slot & mask as u32) - 1;
                if self.ids[pos as usize] == v {
                    return Ok(pos);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Replaces the index with one of `slots` slots naming every id.
    fn rebuild(&mut self, slots: usize) {
        let mut fresh = vec![0u32; slots];
        let mask = slots - 1;
        for (pos, &v) in self.ids.iter().enumerate() {
            let (mut i, tag) = home_and_tag(v, mask);
            while fresh[i] != 0 {
                i = (i + 1) & mask;
            }
            fresh[i] = tag | (pos as u32 + 1);
        }
        self.slots = fresh;
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

    /// Actual heap footprint: index slots + reverse map.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
            + self.ids.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// One slab entry: per-vertex hot payload packed with its adjacency, so
/// the state-change + neighbour-scan pattern of a propagating event touches
/// one contiguous record.
struct DenseRecord<S, E> {
    state: S,
    adj: Adjacency<E>,
}

impl<S: Default, E> Default for DenseRecord<S, E> {
    fn default() -> Self {
        DenseRecord {
            state: S::default(),
            adj: Adjacency::default(),
        }
    }
}

/// A dense, arena-backed vertex table: interning front-end over a record
/// slab indexed by [`LocalIdx`]. `E` is what each adjacency entry keeps
/// beside the neighbour id (see [`EdgeData`]).
///
/// Exposes the dense index so hot paths intern **once** per event and use
/// direct indexing thereafter.
pub struct DenseVertexTable<S, E = Weight> {
    intern: InternTable,
    recs: Vec<DenseRecord<S, E>>,
    edges: usize,
}

impl<S: Default, E: EdgeData> Default for DenseVertexTable<S, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S, E> DenseVertexTable<S, E> {
    /// Bytes of one vertex record in the slab: the state beside its
    /// 24-byte adjacency header, padded to the state's alignment.
    pub const RECORD_BYTES: usize = std::mem::size_of::<DenseRecord<S, E>>();
}

impl<S: Default, E: EdgeData> DenseVertexTable<S, E> {
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
    pub fn adj(&self, idx: LocalIdx) -> &Adjacency<E> {
        &self.recs[idx as usize].adj
    }

    /// Mutable adjacency at `idx`.
    #[inline]
    pub fn adj_mut(&mut self, idx: LocalIdx) -> &mut Adjacency<E> {
        &mut self.recs[idx as usize].adj
    }

    /// Simultaneous mutable access to the state and adjacency of the record
    /// at `idx` (a split borrow of one slab entry — both land in the same
    /// contiguous region).
    #[inline]
    pub fn state_adj_mut(&mut self, idx: LocalIdx) -> (&mut S, &mut Adjacency<E>) {
        let rec = &mut self.recs[idx as usize];
        (&mut rec.state, &mut rec.adj)
    }

    /// Inserts the directed edge `src -> dst` with `data`, interning `src`
    /// if needed. Returns `true` when the edge is new.
    pub fn insert_edge(&mut self, src: VertexId, dst: VertexId, data: E) -> bool {
        let (idx, _) = self.intern(src);
        let new = self.recs[idx as usize].adj.insert(dst, data);
        if new {
            self.edges += 1;
        }
        new
    }

    /// Removes the directed edge `src -> dst`, returning its payload.
    pub fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> Option<E> {
        let idx = self.lookup(src)?;
        let data = self.recs[idx as usize].adj.remove(dst)?;
        self.edges -= 1;
        Some(data)
    }

    /// Out-degree of `v` (0 when absent).
    pub fn degree(&self, v: VertexId) -> usize {
        self.lookup(v)
            .map_or(0, |i| self.recs[i as usize].adj.degree())
    }

    /// Iterates `(vertex, state, adjacency)` in dense (intern) order — a
    /// linear slab walk, not a sparse hash-slot scan.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &S, &Adjacency<E>)> + '_ {
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
            + self.recs.capacity() * std::mem::size_of::<DenseRecord<S, E>>()
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
    fn colliding_homes_probe_past_each_other_and_wrap() {
        // Twelve ids whose home is the last of 16 slots fill the index to
        // its 3/4 load, wrapping to slots 0..=10; a thirteenth probes the
        // whole run to the one empty slot past it.
        let last: Vec<VertexId> = (0u64..)
            .filter(|&v| home_and_tag(v, FIRST_SLOTS - 1).0 == FIRST_SLOTS - 1)
            .take(13)
            .collect();
        let mut t = InternTable::with_capacity(12);
        for (i, &v) in last[..12].iter().enumerate() {
            assert_eq!(t.intern(v), (i as LocalIdx, true));
        }
        assert_eq!(t.slots.len(), FIRST_SLOTS);
        assert_eq!(t.slots.iter().filter(|&&s| s == 0).count(), 4);
        assert_eq!(t.slots[11..15], [0; 4]);
        for (i, &v) in last[..12].iter().enumerate() {
            assert_eq!(t.lookup(v), Some(i as LocalIdx));
        }
        assert_eq!(t.lookup(last[12]), None);
        // The thirteenth id passes 3/4 and doubles the index.
        assert_eq!(t.intern(last[12]), (12, true));
        assert_eq!(t.slots.len(), 2 * FIRST_SLOTS);
        assert!(last
            .iter()
            .enumerate()
            .all(|(i, &v)| t.id(i as LocalIdx) == v));
    }

    #[test]
    fn index_doubles_at_three_quarters_load() {
        let mut t = InternTable::new();
        assert_eq!(t.heap_bytes(), 0);
        for v in 0..1000u64 {
            t.intern(mix64(v));
            let slots = t.slots.len();
            assert!(slots.is_power_of_two() && slots >= FIRST_SLOTS);
            assert!(4 * t.len() <= 3 * slots, "{} ids in {slots} slots", t.len());
            assert!(slots == FIRST_SLOTS || 8 * t.len() > 3 * slots);
            assert_eq!(t.slots.iter().filter(|&&s| s != 0).count(), t.len());
        }
    }

    #[test]
    fn with_capacity_never_rebuilds() {
        for n in [1, 12, 13, 768, 769, 1000] {
            let mut t = InternTable::with_capacity(n);
            let before = t.heap_bytes();
            for v in 0..n as u64 {
                t.intern(v * 3);
            }
            assert_eq!(t.heap_bytes(), before, "{n} ids");
        }
        assert_eq!(InternTable::with_capacity(0).heap_bytes(), 0);
    }

    #[test]
    fn slot_layout_bounds_a_table_at_three_quarters_of_2_pow_32() {
        // The bound's index is 2^32 slots, whose `u32` slots still hold
        // every `position + 1` beside an empty tag, and each of its
        // positions is a `LocalIdx`.
        assert_eq!(slots_for(MAX_VERTICES), 1 << 32);
        assert_eq!(slots_for(MAX_VERTICES / 2 + 1), 1 << 32);
        assert_eq!(slots_for(MAX_VERTICES / 2), 1 << 31);
        assert!(MAX_VERTICES <= u32::MAX as usize);
        assert!(MAX_VERTICES - 1 <= LocalIdx::MAX as usize);
        assert_eq!(home_and_tag(u64::MAX, (1 << 32) - 1).1, 0);
        assert_eq!(slots_for(0), FIRST_SLOTS);
        assert_eq!(slots_for(12), FIRST_SLOTS);
        assert_eq!(slots_for(13), 2 * FIRST_SLOTS);
    }

    #[test]
    #[should_panic(expected = "exceed one intern table")]
    fn slot_layout_refuses_a_table_past_its_bound() {
        slots_for(MAX_VERTICES + 1);
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
        assert!(t.insert_edge(1, 2, 1));
        assert!(t.insert_edge(1, 3, 1));
        assert!(!t.insert_edge(1, 2, 1));
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.degree(2), 0);
    }

    #[test]
    fn state_persists_across_edge_inserts() {
        let mut t: DenseVertexTable<u64> = DenseVertexTable::new();
        let (i, _) = t.intern(1);
        *t.state_mut(i) = 42;
        t.insert_edge(1, 2, 1);
        assert_eq!(*t.state(i), 42);
        assert_eq!(*t.state(t.lookup(1).unwrap()), 42);
    }

    #[test]
    fn remove_edge_updates_count() {
        let mut t: DenseVertexTable<u64> = DenseVertexTable::new();
        t.insert_edge(1, 2, 9);
        assert_eq!(t.remove_edge(1, 2), Some(9));
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
        a.insert(8, 1);
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
            t.insert_edge(v, v + 1, 1);
        }
        assert!(t.heap_bytes() > empty);
    }
}
