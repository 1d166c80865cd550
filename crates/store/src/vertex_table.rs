//! Record-style vertex table: algorithm state plus adjacency for every
//! vertex, in one map.
//!
//! In the paper each process stores, for its partition of the vertices, the
//! dynamic adjacency structure and the live algorithm state (Figure 2's
//! "compute and storage layers of a process"). This table is that storage
//! layer in its plainest form: a Robin Hood map from vertex id to a
//! [`VertexRecord`] combining the algorithm's vertex-local state `S` with a
//! degree-aware [`Adjacency`]. The sequential reference engine runs on it;
//! shards use [`crate::DenseVertexTable`].
//!
//! The table is deliberately *not* thread-safe: its engine owns it
//! exclusively (shared-nothing design, §II-A reason (ii)).

use crate::adjacency::{Adjacency, EdgeMeta};
use crate::rhh::RhhMap;
use crate::VertexId;

/// Storage for one vertex: live algorithm state and out-edges.
#[derive(Debug, Clone, Default)]
pub struct VertexRecord<S> {
    /// Vertex-local algorithm state (`this.value` in the paper's Algorithm 3,
    /// generalized to an arbitrary type).
    pub state: S,
    /// Out-edges with per-edge metadata.
    pub adj: Adjacency,
}

/// A shard's vertex table.
pub struct VertexTable<S> {
    map: RhhMap<VertexId, VertexRecord<S>>,
    edges: usize,
}

impl<S: Default> Default for VertexTable<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Default> VertexTable<S> {
    /// Creates an empty table.
    pub fn new() -> Self {
        VertexTable {
            map: RhhMap::new(),
            edges: 0,
        }
    }

    /// Creates a table pre-sized for `vertices` entries.
    pub fn with_capacity(vertices: usize) -> Self {
        VertexTable {
            map: RhhMap::with_capacity(vertices),
            edges: 0,
        }
    }

    /// Number of vertices present.
    pub fn num_vertices(&self) -> usize {
        self.map.len()
    }

    /// Number of directed edges stored.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// True when `v` has a record (it was touched by an edge or an init).
    pub fn contains(&self, v: VertexId) -> bool {
        self.map.contains(v)
    }

    /// Record for `v`, if present.
    pub fn get(&self, v: VertexId) -> Option<&VertexRecord<S>> {
        self.map.get(v)
    }

    /// Mutable record for `v`, if present.
    pub fn get_mut(&mut self, v: VertexId) -> Option<&mut VertexRecord<S>> {
        self.map.get_mut(v)
    }

    /// Record for `v`, created with default state and no edges if absent.
    /// Returns `(record, was_new)`.
    pub fn ensure(&mut self, v: VertexId) -> (&mut VertexRecord<S>, bool) {
        let (rec, was_new) = self.map.entry_or_insert_with(v, VertexRecord::default);
        (rec, was_new)
    }

    /// Inserts the directed edge `src -> dst` (where `src` is owned by this
    /// shard) with `meta`. Creates the `src` record if needed. Returns `true`
    /// when the edge is new.
    pub fn insert_edge(&mut self, src: VertexId, dst: VertexId, meta: EdgeMeta) -> bool {
        let (rec, _) = self.ensure(src);
        let new = rec.adj.insert(dst, meta);
        if new {
            self.edges += 1;
        }
        new
    }

    /// Removes the directed edge `src -> dst`, returning its metadata.
    pub fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> Option<EdgeMeta> {
        let meta = self.map.get_mut(src)?.adj.remove(dst)?;
        self.edges -= 1;
        Some(meta)
    }

    /// Out-degree of `v` (0 when absent).
    pub fn degree(&self, v: VertexId) -> usize {
        self.map.get(v).map_or(0, |r| r.adj.degree())
    }

    /// Iterates `(vertex, record)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &VertexRecord<S>)> + '_ {
        self.map.iter()
    }

    /// Iterates `(vertex, record)` mutably, in unspecified order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (VertexId, &mut VertexRecord<S>)> + '_ {
        self.map.iter_mut()
    }

    /// Approximate heap footprint of adjacency storage, in bytes.
    pub fn adjacency_heap_bytes(&self) -> usize {
        self.iter().map(|(_, r)| r.adj.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_creates_once() {
        let mut t: VertexTable<u64> = VertexTable::new();
        let (_, new) = t.ensure(5);
        assert!(new);
        let (_, new) = t.ensure(5);
        assert!(!new);
        assert_eq!(t.num_vertices(), 1);
    }

    #[test]
    fn insert_edge_counts_distinct_edges() {
        let mut t: VertexTable<u64> = VertexTable::new();
        assert!(t.insert_edge(1, 2, EdgeMeta::unweighted()));
        assert!(t.insert_edge(1, 3, EdgeMeta::unweighted()));
        assert!(!t.insert_edge(1, 2, EdgeMeta::unweighted()));
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.degree(2), 0); // dst untouched by a directed insert
    }

    #[test]
    fn state_persists_across_edge_inserts() {
        let mut t: VertexTable<u64> = VertexTable::new();
        t.ensure(1).0.state = 42;
        t.insert_edge(1, 2, EdgeMeta::unweighted());
        assert_eq!(t.get(1).unwrap().state, 42);
    }

    #[test]
    fn remove_edge_updates_count() {
        let mut t: VertexTable<u64> = VertexTable::new();
        t.insert_edge(1, 2, EdgeMeta::weighted(9));
        assert_eq!(t.remove_edge(1, 2).unwrap().weight, 9);
        assert_eq!(t.remove_edge(1, 2), None);
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    fn iter_spans_all_vertices() {
        let mut t: VertexTable<u64> = VertexTable::new();
        for v in 0..50u64 {
            t.ensure(v).0.state = v;
        }
        let mut ids: Vec<VertexId> = t.iter().map(|(v, _)| v).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0u64..50).collect::<Vec<_>>());
    }

    #[test]
    fn high_degree_vertex_promotes_transparently() {
        let mut t: VertexTable<u64> = VertexTable::new();
        for dst in 0..1000u64 {
            t.insert_edge(7, dst, EdgeMeta::unweighted());
        }
        assert_eq!(t.degree(7), 1000);
        assert!(t.get(7).unwrap().adj.is_promoted());
        assert_eq!(t.num_edges(), 1000);
    }
}
