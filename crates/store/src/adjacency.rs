//! Degree-aware adjacency storage: indexed flat adjacency lists.
//!
//! DegAwareRHH (§III-B) is "degree aware, and uses a separate, compact data
//! structure for low-degree vertices" while high-degree vertices get hashed
//! duplicate detection. Scale-free graphs make the split pay off: the
//! overwhelming majority of vertices have a handful of edges (insertion is
//! an append, lookup is a short linear scan within one or two cache lines),
//! while the few heavy hitters need O(1) duplicate detection and neighbour
//! lookup.
//!
//! Both kinds of vertex keep their edges the same way — one dense slab of
//! `(neighbour, metadata)` entries in insertion order — and differ only in
//! whether a *position index* sits beside it: past [`PROMOTE_DEGREE`]
//! entries a vertex gains an open-addressing table of 4-byte slots, each
//! naming a position in the slab (RisGraph's "indexed adjacency lists").
//! The index holds no keys and no values, so a hub costs 24 bytes per edge
//! plus 5–11 bytes of index, and a neighbour scan is a slice walk at every
//! degree. (DESIGN.md §11 "Adjacency layout" has the measurements against
//! the per-hub Robin Hood table this layout replaced in PR 17.)
//!
//! Each directed edge stores an [`EdgeMeta`]: its weight plus the *cached
//! neighbour value* the paper's programming model maintains (`nbrs.set(...)`
//! in Algorithm 3). Algorithms use the cache to suppress redundant update
//! messages.

use crate::hash::mix64;
use crate::VertexId;

/// Degree past which a vertex gains a position index.
///
/// 32 entries of 24 bytes each stay within a few cache lines and keep the
/// linear scan cheaper than hashing; beyond that the O(d) duplicate check on
/// insert starts to lose.
pub const PROMOTE_DEGREE: usize = 32;

/// Slots of a vertex's first index; each later one doubles it. 33 entries
/// in 64 slots is a load of about 1/2.
const FIRST_INDEX_SLOTS: usize = 64;

/// Slab capacity from which growth is by half instead of doubling.
const GENTLE_GROWTH_FROM: usize = 64;

/// Per-edge metadata: the edge weight and the last value the neighbour
/// reported (used by algorithms as a local cache of remote state).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeMeta {
    /// Edge weight. Algorithms that ignore weights treat this as 1.
    pub weight: u64,
    /// Cached last-known value of the neighbour's algorithm state, updated
    /// whenever the neighbour sends us an event (Algorithm 3 line 18/21).
    pub cached: u64,
}

impl EdgeMeta {
    /// Metadata for an unweighted edge with no cached neighbour value yet.
    pub fn unweighted() -> Self {
        EdgeMeta {
            weight: 1,
            cached: 0,
        }
    }

    /// Metadata for a weighted edge.
    pub fn weighted(weight: u64) -> Self {
        EdgeMeta { weight, cached: 0 }
    }
}

/// Adjacency list of a single vertex: an edge slab in insertion order and,
/// past [`PROMOTE_DEGREE`] entries, a hash index of positions into it.
///
/// The index is a power-of-two linear-probing table kept at a load of at
/// most 3/4. A slot is `0` when empty; otherwise its low `log2(len)` bits
/// hold `position + 1` and the bits above them a tag cut from the key's
/// hash, so a probe that passes over another key's slot — every step of an
/// absent-key probe — is decided without reading the slab unless the tags
/// happen to collide.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    entries: Vec<(VertexId, EdgeMeta)>,
    index: Box<[u32]>,
}

impl Adjacency {
    /// Creates an empty adjacency list (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of out-edges.
    pub fn degree(&self) -> usize {
        self.entries.len()
    }

    /// True when this vertex has no out-edges.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when the position index exists, i.e. the degree has exceeded
    /// [`PROMOTE_DEGREE`] at some point (removals never drop the index).
    /// Exposed for tests and benches.
    pub fn is_promoted(&self) -> bool {
        !self.index.is_empty()
    }

    /// Inserts the edge `-> nbr` with `meta`. Returns `true` when the edge is
    /// new, `false` when it already existed (its metadata is then updated in
    /// place, matching the paper's attribute-update semantics).
    pub fn insert(&mut self, nbr: VertexId, meta: EdgeMeta) -> bool {
        self.upsert(nbr, meta, |old| *old = meta)
    }

    /// Inserts the edge `-> nbr`, keeping the **minimum** weight across
    /// re-adds (the cached value is still refreshed). Returns `true` when
    /// the edge is new.
    ///
    /// This is the engine's topology-maintenance entry point: §II-B only
    /// supports edge updates "limited to reducing edge weight", and making
    /// the surviving weight the min of everything ever added keeps the
    /// final topology deterministic when the two orientations of an
    /// undirected edge carry different weights and race in from different
    /// shards' streams (plain last-wins [`Adjacency::insert`] would leave
    /// whichever arrived last — an arrival-order artifact).
    pub fn insert_weight_min(&mut self, nbr: VertexId, meta: EdgeMeta) -> bool {
        self.upsert(nbr, meta, |old| {
            old.weight = old.weight.min(meta.weight);
            old.cached = meta.cached;
        })
    }

    /// Removes the edge `-> nbr`, returning its metadata if it existed. The
    /// last entry of the slab takes the removed one's position.
    /// (Used by the decremental extension; the core paper is add-only.)
    pub fn remove(&mut self, nbr: VertexId) -> Option<EdgeMeta> {
        let pos = self.locate(nbr).ok()?;
        if self.index.is_empty() {
            return Some(self.entries.swap_remove(pos).1);
        }
        let mask = self.mask();
        let hole = self.slot_of(pos);
        // Re-point the last entry's slot at its new position (a rewrite of
        // `hole` itself when the removed entry is the last).
        let moved = self.slot_of(self.entries.len() - 1);
        self.index[moved] = (self.index[moved] & !mask) | (pos as u32 + 1);
        let meta = self.entries.swap_remove(pos).1;
        self.close_hole(hole);
        Some(meta)
    }

    /// Metadata of the edge `-> nbr`, if present.
    pub fn get(&self, nbr: VertexId) -> Option<&EdgeMeta> {
        let pos = self.locate(nbr).ok()?;
        Some(&self.entries[pos].1)
    }

    /// Mutable metadata of the edge `-> nbr`, if present.
    pub fn get_mut(&mut self, nbr: VertexId) -> Option<&mut EdgeMeta> {
        let pos = self.locate(nbr).ok()?;
        Some(&mut self.entries[pos].1)
    }

    /// Updates the cached neighbour value on the edge `-> nbr`, if the edge
    /// exists. Returns the previous cached value.
    pub fn set_cached(&mut self, nbr: VertexId, value: u64) -> Option<u64> {
        let meta = self.get_mut(nbr)?;
        Some(std::mem::replace(&mut meta.cached, value))
    }

    /// Iterates `(neighbour, metadata)` in insertion order (a removal moves
    /// the then-last edge into the removed one's place).
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, (VertexId, EdgeMeta)>> {
        self.entries.iter().copied()
    }

    /// Heap footprint in bytes: the edge slab's capacity plus the index.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(VertexId, EdgeMeta)>()
            + self.index.len() * std::mem::size_of::<u32>()
    }

    /// Adds the edge `-> nbr` with `meta` if absent (`true`), else lets
    /// `merge` update the metadata it already has (`false`).
    #[inline]
    fn upsert(&mut self, nbr: VertexId, meta: EdgeMeta, merge: impl FnOnce(&mut EdgeMeta)) -> bool {
        match self.locate(nbr) {
            Ok(pos) => {
                merge(&mut self.entries[pos].1);
                false
            }
            Err(vacancy) => {
                self.push(nbr, meta, vacancy);
                true
            }
        }
    }

    /// Position mask of a non-empty index; its complement selects the tag.
    #[inline]
    fn mask(&self) -> u32 {
        self.index.len() as u32 - 1
    }

    /// Where `nbr`'s probe starts in an index of `mask + 1` slots, and the
    /// tag its slot carries: the low and the high half of one hash.
    #[inline]
    fn home_and_tag(nbr: VertexId, mask: u32) -> (u32, u32) {
        let hash = mix64(nbr);
        (hash as u32 & mask, (hash >> 32) as u32 & !mask)
    }

    /// Finds `nbr`: `Ok(position in the slab)`, or `Err((slot, tag))` — the
    /// empty index slot that ended the probe and the tag to write there
    /// (both meaningless while there is no index).
    #[inline]
    fn locate(&self, nbr: VertexId) -> Result<usize, (usize, u32)> {
        if self.index.is_empty() {
            return self
                .entries
                .iter()
                .position(|&(n, _)| n == nbr)
                .ok_or((0, 0));
        }
        let mask = self.mask();
        let (mut i, tag) = Self::home_and_tag(nbr, mask);
        // Load stays at or below 3/4, so an empty slot ends every probe.
        loop {
            let slot = self.index[i as usize];
            if slot == 0 {
                return Err((i as usize, tag));
            }
            if slot & !mask == tag {
                let pos = (slot & mask) as usize - 1;
                if self.entries[pos].0 == nbr {
                    return Ok(pos);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Appends a new edge whose absence [`Self::locate`] just established,
    /// indexing it in the `vacancy` that probe ended on.
    #[inline]
    fn push(&mut self, nbr: VertexId, meta: EdgeMeta, (slot, tag): (usize, u32)) {
        if self.entries.len() == self.entries.capacity() {
            self.grow_slab();
        }
        self.entries.push((nbr, meta));
        let degree = self.entries.len();
        if degree * 4 > self.index.len() * 3 {
            if degree > PROMOTE_DEGREE {
                self.grow_index();
            }
        } else {
            self.index[slot] = tag | degree as u32;
        }
    }

    /// Makes room in a full slab: doubled while small (4, 8, ... 64 entries),
    /// then grown by half so a hub's unused tail stays under a third of it.
    #[cold]
    fn grow_slab(&mut self) {
        let cap = self.entries.capacity();
        self.entries.reserve_exact(if cap < GENTLE_GROWTH_FROM {
            cap.max(4)
        } else {
            cap / 2
        });
    }

    /// Replaces the index with one of twice the slots (the first has
    /// [`FIRST_INDEX_SLOTS`]), re-deriving every slot from the slab.
    #[cold]
    fn grow_index(&mut self) {
        let slots = (self.index.len() * 2).max(FIRST_INDEX_SLOTS);
        // `position + 1` of any entry must fit below the tag.
        assert!(slots <= 1 << 31, "adjacency index overflows its u32 slots");
        self.index = vec![0; slots].into_boxed_slice();
        let mask = self.mask();
        for (pos, &(nbr, _)) in self.entries.iter().enumerate() {
            let (mut i, tag) = Self::home_and_tag(nbr, mask);
            while self.index[i as usize] != 0 {
                i = (i + 1) & mask;
            }
            self.index[i as usize] = tag | (pos as u32 + 1);
        }
    }

    /// Index slot that names slab position `pos`.
    fn slot_of(&self, pos: usize) -> usize {
        let mask = self.mask();
        let (mut i, _) = Self::home_and_tag(self.entries[pos].0, mask);
        while self.index[i as usize] & mask != pos as u32 + 1 {
            i = (i + 1) & mask;
        }
        i as usize
    }

    /// Empties index slot `hole` by backward-shift deletion: each later slot
    /// of the cluster whose probe path runs through the hole moves into it,
    /// so no tombstone is left and every remaining probe still ends at the
    /// first empty slot. The slab must already be in its final state.
    fn close_hole(&mut self, hole: usize) {
        let mask = self.mask();
        let mut hole = hole as u32;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.index[j as usize];
            if slot == 0 {
                break;
            }
            let (home, _) = Self::home_and_tag(self.entries[(slot & mask) as usize - 1].0, mask);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.index[hole as usize] = slot;
                hole = j;
            }
        }
        self.index[hole as usize] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_unindexed() {
        let a = Adjacency::new();
        assert_eq!(a.degree(), 0);
        assert!(a.is_empty());
        assert!(!a.is_promoted());
    }

    #[test]
    fn insert_dedupes_and_updates_meta() {
        let mut a = Adjacency::new();
        assert!(a.insert(7, EdgeMeta::weighted(3)));
        assert!(!a.insert(7, EdgeMeta::weighted(9)));
        assert_eq!(a.degree(), 1);
        assert_eq!(a.get(7).unwrap().weight, 9);
    }

    #[test]
    fn insert_weight_min_keeps_cheapest_weight() {
        let mut a = Adjacency::new();
        assert!(a.insert_weight_min(7, EdgeMeta::weighted(5)));
        assert!(!a.insert_weight_min(7, EdgeMeta::weighted(9)));
        assert_eq!(a.get(7).unwrap().weight, 5, "re-add must not raise");
        assert!(!a.insert_weight_min(7, EdgeMeta::weighted(2)));
        assert_eq!(a.get(7).unwrap().weight, 2, "reduction applies");
        // The cached value still refreshes on every re-add.
        assert!(!a.insert_weight_min(
            7,
            EdgeMeta {
                weight: 8,
                cached: 42
            }
        ));
        let m = a.get(7).unwrap();
        assert_eq!((m.weight, m.cached), (2, 42));
    }

    #[test]
    fn insert_weight_min_through_the_index() {
        let mut a = Adjacency::new();
        for n in 0..(PROMOTE_DEGREE as u64 + 4) {
            a.insert_weight_min(n, EdgeMeta::weighted(n + 10));
        }
        assert!(a.is_promoted());
        assert!(!a.insert_weight_min(3, EdgeMeta::weighted(1)));
        assert_eq!(a.get(3).unwrap().weight, 1);
        assert!(!a.insert_weight_min(3, EdgeMeta::weighted(100)));
        assert_eq!(a.get(3).unwrap().weight, 1);
    }

    #[test]
    fn promotes_past_threshold_and_preserves_contents() {
        let mut a = Adjacency::new();
        for i in 0..=(PROMOTE_DEGREE as u64) {
            a.insert(i, EdgeMeta::weighted(i + 100));
        }
        assert!(a.is_promoted());
        assert_eq!(a.degree(), PROMOTE_DEGREE + 1);
        for i in 0..=(PROMOTE_DEGREE as u64) {
            assert_eq!(a.get(i).unwrap().weight, i + 100, "neighbour {i}");
        }
    }

    #[test]
    fn dedupe_survives_promotion() {
        let mut a = Adjacency::new();
        for i in 0..200u64 {
            a.insert(i, EdgeMeta::unweighted());
        }
        for i in 0..200u64 {
            assert!(!a.insert(i, EdgeMeta::unweighted()), "dup {i} accepted");
        }
        assert_eq!(a.degree(), 200);
    }

    #[test]
    fn set_cached_roundtrip_below_and_above_threshold() {
        let mut a = Adjacency::new();
        a.insert(1, EdgeMeta::unweighted());
        assert_eq!(a.set_cached(1, 42), Some(0));
        assert_eq!(a.get(1).unwrap().cached, 42);
        assert_eq!(a.set_cached(99, 1), None);

        for i in 0..100u64 {
            a.insert(i, EdgeMeta::unweighted());
        }
        assert!(a.is_promoted());
        assert_eq!(a.set_cached(50, 7), Some(0));
        assert_eq!(a.get(50).unwrap().cached, 7);
    }

    #[test]
    fn iter_is_insertion_order() {
        let mut a = Adjacency::new();
        for i in (0..100u64).rev() {
            a.insert(i, EdgeMeta::weighted(i));
        }
        let seen: Vec<VertexId> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(seen, (0u64..100).rev().collect::<Vec<_>>());
    }

    #[test]
    fn indexed_remove_keeps_every_other_edge_reachable() {
        // Removing each edge in turn from an index at its 3/4 ceiling
        // (48 of 64 slots) runs the backward shift over clusters of every
        // shape, wrap-around included.
        let n = 48u64;
        for victim in 0..n {
            let mut a = Adjacency::new();
            for i in 0..n {
                a.insert(i * 7919, EdgeMeta::weighted(i));
            }
            assert!(a.is_promoted());
            assert_eq!(a.remove(victim * 7919).map(|m| m.weight), Some(victim));
            assert_eq!(a.remove(victim * 7919), None);
            for i in (0..n).filter(|&i| i != victim) {
                assert_eq!(a.get(i * 7919).map(|m| m.weight), Some(i), "lost {i}");
            }
            assert_eq!(a.degree(), n as usize - 1);
        }
    }

    #[test]
    fn drains_below_threshold_and_regrows() {
        let mut a = Adjacency::new();
        for i in 0..500u64 {
            a.insert(i, EdgeMeta::weighted(i));
        }
        for i in 0..495u64 {
            assert_eq!(a.remove(i).map(|m| m.weight), Some(i));
        }
        assert_eq!(a.degree(), 5);
        assert!(a.is_promoted(), "the index is kept once built");
        for i in 0..2000u64 {
            let survivor = (495..500).contains(&i);
            assert_eq!(a.insert(i, EdgeMeta::weighted(i + 1)), !survivor);
        }
        assert_eq!(a.degree(), 2000);
        for i in 0..2000u64 {
            assert_eq!(a.get(i).unwrap().weight, i + 1);
        }
    }

    #[test]
    fn footprint_is_the_two_allocations() {
        assert_eq!(std::mem::size_of::<Adjacency>(), 40);
        let mut a = Adjacency::new();
        assert_eq!(a.heap_bytes(), 0);
        for i in 0..=(PROMOTE_DEGREE as u64) {
            a.insert(i, EdgeMeta::unweighted());
        }
        assert_eq!(a.heap_bytes(), 64 * 24 + FIRST_INDEX_SLOTS * 4);
        // Past 64 entries the slab grows by half, not by doubling.
        for i in 0..1000u64 {
            a.insert(i, EdgeMeta::unweighted());
        }
        // (1000 edges: the index has doubled five times, to 2048 slots.)
        let slab = a.heap_bytes() - 2048 * 4;
        assert!(slab <= 1000 * 24 * 3 / 2, "slab {slab} B for 1000 edges");
    }

    #[test]
    fn remove_below_and_above_threshold() {
        let mut a = Adjacency::new();
        a.insert(1, EdgeMeta::weighted(5));
        assert_eq!(a.remove(1).unwrap().weight, 5);
        assert_eq!(a.remove(1), None);
        assert!(a.is_empty());

        for i in 0..100u64 {
            a.insert(i, EdgeMeta::unweighted());
        }
        assert!(a.remove(3).is_some());
        assert_eq!(a.degree(), 99);
        assert!(a.get(3).is_none());
    }
}
