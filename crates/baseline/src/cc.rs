//! Static Connected Components (union-find oracle).
//!
//! Three views of one partition: the raw partition (canonical min-member
//! label) for structural checks, and the two labellings the incremental CC
//! reaches, for exact state comparison with the dynamic engine. On a
//! stream it labels every component by its earliest edge
//! ([`components_earliest_edge`]); in a query registry, by Algorithm 6's
//! *dominating* hash, the maximum of `hash(id)` over members
//! ([`components_dominator_label`]).

use std::collections::HashMap;

use remo_store::{Csr, VertexId};

/// Union-find with path halving and union by size.
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand; // path halving
            x = grand;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns false if already merged.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }
}

/// Component label per vertex: the smallest vertex id in its component.
/// Isolated vertices label themselves.
pub fn components_min_label(g: &Csr) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    for (s, d, _) in g.edges() {
        uf.union(s as u32, d as u32);
    }
    // Min member per root.
    let mut min_of_root = vec![VertexId::MAX; n];
    for v in 0..n {
        let r = uf.find(v as u32) as usize;
        min_of_root[r] = min_of_root[r].min(v as VertexId);
    }
    (0..n)
        .map(|v| min_of_root[uf.find(v as u32) as usize])
        .collect()
}

/// Component label per vertex under an arbitrary "dominator" function:
/// every vertex gets `max(dominator(u))` over the members `u` of its
/// component. With `dominator = hash`, this is exactly the fixpoint of the
/// paper's incremental CC, which a query registry's CC column reaches.
/// Vertices with degree 0 are labelled
/// `dominator(v)` of themselves.
pub fn components_dominator_label(g: &Csr, dominator: impl Fn(VertexId) -> u64) -> Vec<u64> {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    for (s, d, _) in g.edges() {
        uf.union(s as u32, d as u32);
    }
    let mut max_of_root = vec![0u64; n];
    for v in 0..n {
        let r = uf.find(v as u32) as usize;
        max_of_root[r] = max_of_root[r].max(dominator(v as VertexId));
    }
    (0..n)
        .map(|v| max_of_root[uf.find(v as u32) as usize])
        .collect()
}

/// Earliest-edge components of an undirected edge stream: every vertex
/// that `stream` touches, sorted by id, with the index in `stream` of the
/// earliest edge of its component. Self-loops count as edges.
pub fn components_earliest_edge(stream: &[(VertexId, VertexId)]) -> Vec<(VertexId, u64)> {
    let mut dense: HashMap<VertexId, u32> = HashMap::new();
    let mut ids: Vec<VertexId> = Vec::new();
    // The index of each vertex's first edge: every edge's endpoints first
    // appear at or before it, so a component's least is its earliest edge.
    let mut first: Vec<u64> = Vec::new();
    let mut pairs = Vec::with_capacity(stream.len());
    for (i, &(s, d)) in stream.iter().enumerate() {
        let mut intern = |v: VertexId| {
            *dense.entry(v).or_insert_with(|| {
                ids.push(v);
                first.push(i as u64);
                (ids.len() - 1) as u32
            })
        };
        pairs.push((intern(s), intern(d)));
    }
    let mut uf = UnionFind::new(ids.len());
    for (a, b) in pairs {
        uf.union(a, b);
    }
    let mut earliest = vec![u64::MAX; ids.len()];
    for v in 0..ids.len() as u32 {
        let r = uf.find(v) as usize;
        earliest[r] = earliest[r].min(first[v as usize]);
    }
    let mut labels: Vec<(VertexId, u64)> = (0..ids.len() as u32)
        .map(|v| (ids[v as usize], earliest[uf.find(v) as usize]))
        .collect();
    labels.sort_unstable();
    labels
}

/// Number of connected components among vertices that have at least one
/// incident edge, plus isolated vertices counted individually.
pub fn component_count(g: &Csr) -> usize {
    let labels = components_min_label(g);
    let mut set = std::collections::HashSet::new();
    for l in labels {
        set.insert(l);
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undirected(n: usize, pairs: &[(u64, u64)]) -> Csr {
        let mut sym = Vec::new();
        for &(s, d) in pairs {
            sym.push((s, d));
            sym.push((d, s));
        }
        Csr::from_edges(n, &sym)
    }

    #[test]
    fn two_components() {
        let g = undirected(5, &[(0, 1), (1, 2), (3, 4)]);
        let l = components_min_label(&g);
        assert_eq!(l, vec![0, 0, 0, 3, 3]);
        assert_eq!(component_count(&g), 2);
    }

    #[test]
    fn isolated_vertices_are_their_own_component() {
        let g = undirected(4, &[(0, 1)]);
        let l = components_min_label(&g);
        assert_eq!(l[2], 2);
        assert_eq!(l[3], 3);
        assert_eq!(component_count(&g), 3);
    }

    #[test]
    fn dominator_label_takes_max() {
        let g = undirected(4, &[(0, 1), (2, 3)]);
        // Dominator = id*10: comp {0,1} -> 10, comp {2,3} -> 30.
        let l = components_dominator_label(&g, |v| v * 10);
        assert_eq!(l, vec![10, 10, 30, 30]);
    }

    #[test]
    fn earliest_edge_labels_each_component_by_its_first_edge() {
        // {7, 3, 9} forms at edge 0 and absorbs {1, 2} (edge 1) at edge 3;
        // {5} is a self-loop at edge 2; a repeat changes nothing.
        let stream = [(7, 3), (1, 2), (5, 5), (2, 9), (9, 3), (1, 2)];
        assert_eq!(
            components_earliest_edge(&stream),
            vec![(1, 0), (2, 0), (3, 0), (5, 2), (7, 0), (9, 0)]
        );
        assert_eq!(
            components_earliest_edge(&stream[1..3]),
            vec![(1, 0), (2, 0), (5, 1)]
        );
        assert!(components_earliest_edge(&[]).is_empty());
    }

    #[test]
    fn union_find_idempotent_union() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
    }

    #[test]
    fn chain_collapses_to_one_component() {
        let pairs: Vec<(u64, u64)> = (0..99).map(|i| (i, i + 1)).collect();
        let g = undirected(100, &pairs);
        assert_eq!(component_count(&g), 1);
        let l = components_min_label(&g);
        assert!(l.iter().all(|&x| x == 0));
    }
}
