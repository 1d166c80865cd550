//! Degree-aware adjacency storage.
//!
//! DegAwareRHH (§III-B) is "degree aware, and uses a separate, compact data
//! structure for low-degree vertices" while high-degree vertices get a Robin
//! Hood hash table with good locality. Scale-free graphs make this split pay
//! off: the overwhelming majority of vertices have a handful of edges (a
//! compact array beats any hash table there — insertion is an append, lookup
//! is a short linear scan entirely within one or two cache lines), while the
//! few heavy hitters need O(1) duplicate detection and neighbour lookup.
//!
//! Each directed edge stores an [`EdgeMeta`]: its weight plus the *cached
//! neighbour value* the paper's programming model maintains (`nbrs.set(...)`
//! in Algorithm 3). Algorithms use the cache to suppress redundant update
//! messages.

use crate::rhh::RhhMap;
use crate::VertexId;

/// Degree at which a compact array promotes to a Robin Hood table.
///
/// 32 entries of 24 bytes each stay within a few cache lines and keep the
/// linear scan cheaper than hashing; beyond that the O(d) duplicate check on
/// insert starts to lose.
pub const PROMOTE_DEGREE: usize = 32;

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

/// Adjacency list of a single vertex, automatically switching representation
/// by degree.
#[derive(Debug, Clone)]
pub enum Adjacency {
    /// Compact unordered array for low-degree vertices.
    Compact(Vec<(VertexId, EdgeMeta)>),
    /// Robin Hood table for high-degree vertices.
    Table(RhhMap<VertexId, EdgeMeta>),
}

impl Default for Adjacency {
    fn default() -> Self {
        Adjacency::Compact(Vec::new())
    }
}

impl Adjacency {
    /// Creates an empty adjacency list (compact representation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of out-edges.
    pub fn degree(&self) -> usize {
        match self {
            Adjacency::Compact(v) => v.len(),
            Adjacency::Table(t) => t.len(),
        }
    }

    /// True when this vertex has no out-edges.
    pub fn is_empty(&self) -> bool {
        self.degree() == 0
    }

    /// True when the high-degree (table) representation is active. Exposed
    /// for tests and benches.
    pub fn is_promoted(&self) -> bool {
        matches!(self, Adjacency::Table(_))
    }

    /// Inserts the edge `-> nbr` with `meta`. Returns `true` when the edge is
    /// new, `false` when it already existed (its metadata is then updated in
    /// place, matching the paper's attribute-update semantics).
    pub fn insert(&mut self, nbr: VertexId, meta: EdgeMeta) -> bool {
        match self {
            Adjacency::Compact(v) => {
                if let Some(slot) = v.iter_mut().find(|(n, _)| *n == nbr) {
                    slot.1 = meta;
                    return false;
                }
                v.push((nbr, meta));
                if v.len() > PROMOTE_DEGREE {
                    self.promote();
                }
                true
            }
            Adjacency::Table(t) => t.insert(nbr, meta).is_none(),
        }
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
        match self {
            Adjacency::Compact(v) => {
                if let Some(slot) = v.iter_mut().find(|(n, _)| *n == nbr) {
                    slot.1 = EdgeMeta {
                        weight: slot.1.weight.min(meta.weight),
                        cached: meta.cached,
                    };
                    return false;
                }
                v.push((nbr, meta));
                if v.len() > PROMOTE_DEGREE {
                    self.promote();
                }
                true
            }
            Adjacency::Table(t) => {
                if let Some(slot) = t.get_mut(nbr) {
                    slot.weight = slot.weight.min(meta.weight);
                    slot.cached = meta.cached;
                    false
                } else {
                    t.insert(nbr, meta);
                    true
                }
            }
        }
    }

    /// Removes the edge `-> nbr`, returning its metadata if it existed.
    /// (Used by the decremental extension; the core paper is add-only.)
    pub fn remove(&mut self, nbr: VertexId) -> Option<EdgeMeta> {
        match self {
            Adjacency::Compact(v) => {
                let pos = v.iter().position(|(n, _)| *n == nbr)?;
                Some(v.swap_remove(pos).1)
            }
            Adjacency::Table(t) => t.remove(nbr),
        }
    }

    /// Metadata of the edge `-> nbr`, if present.
    pub fn get(&self, nbr: VertexId) -> Option<&EdgeMeta> {
        match self {
            Adjacency::Compact(v) => v.iter().find(|(n, _)| *n == nbr).map(|(_, m)| m),
            Adjacency::Table(t) => t.get(nbr),
        }
    }

    /// Mutable metadata of the edge `-> nbr`, if present.
    pub fn get_mut(&mut self, nbr: VertexId) -> Option<&mut EdgeMeta> {
        match self {
            Adjacency::Compact(v) => v.iter_mut().find(|(n, _)| *n == nbr).map(|(_, m)| m),
            Adjacency::Table(t) => t.get_mut(nbr),
        }
    }

    /// Updates the cached neighbour value on the edge `-> nbr`, if the edge
    /// exists. Returns the previous cached value.
    pub fn set_cached(&mut self, nbr: VertexId, value: u64) -> Option<u64> {
        let meta = self.get_mut(nbr)?;
        Some(std::mem::replace(&mut meta.cached, value))
    }

    /// Iterates `(neighbour, metadata)` in unspecified order.
    pub fn iter(&self) -> AdjIter<'_> {
        match self {
            Adjacency::Compact(v) => AdjIter::Compact(v.iter()),
            Adjacency::Table(t) => AdjIter::Table(Box::new(t.iter())),
        }
    }

    /// Approximate heap footprint in bytes (for the Table I stand-in
    /// report).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Adjacency::Compact(v) => v.capacity() * std::mem::size_of::<(VertexId, EdgeMeta)>(),
            Adjacency::Table(t) => {
                // dist(u16) + key(u64) + value(EdgeMeta) per slot, padded.
                t.capacity_slots() * 32
            }
        }
    }

    fn promote(&mut self) {
        if let Adjacency::Compact(v) = self {
            let mut table = RhhMap::with_capacity(v.len() * 2);
            for (n, m) in v.drain(..) {
                table.insert(n, m);
            }
            *self = Adjacency::Table(table);
        }
    }
}

/// Iterator over a vertex's out-edges.
pub enum AdjIter<'a> {
    Compact(std::slice::Iter<'a, (VertexId, EdgeMeta)>),
    Table(Box<dyn Iterator<Item = (VertexId, &'a EdgeMeta)> + 'a>),
}

impl<'a> Iterator for AdjIter<'a> {
    type Item = (VertexId, EdgeMeta);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            AdjIter::Compact(it) => it.next().map(|(n, m)| (*n, *m)),
            AdjIter::Table(it) => it.next().map(|(n, m)| (n, *m)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_compact_and_empty() {
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
    fn insert_weight_min_in_table_representation() {
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
    fn set_cached_roundtrip_in_both_representations() {
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
    fn iter_covers_all_edges() {
        let mut a = Adjacency::new();
        for i in 0..100u64 {
            a.insert(i, EdgeMeta::weighted(i));
        }
        let mut seen: Vec<VertexId> = a.iter().map(|(n, _)| n).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0u64..100).collect::<Vec<_>>());
    }

    #[test]
    fn remove_in_both_representations() {
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
