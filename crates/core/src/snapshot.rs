//! Global state collection (§III-D).
//!
//! A [`Snapshot`] is "the collective vertex and edge algorithm-related state
//! after a defined set of events have been ingested and processed". The
//! defined set is a prefix of the engine's input, `stream[..cut]`: the
//! engine waits until every event it was fed has been processed, then
//! collects each shard's live states, which are then exactly the solve of
//! that prefix (DESIGN.md §3 says why this replaces the paper's
//! Chandy–Lamport fork).

use remo_store::VertexId;

/// A collected global state: every vertex's algorithm state after the
/// first [`Snapshot::cut`] stream events.
#[derive(Debug, Clone)]
pub struct Snapshot<S> {
    cut: u64,
    states: Vec<(VertexId, S)>,
}

impl<S> Snapshot<S> {
    /// Assembles a snapshot of `stream[..cut]` from shard fragments; sorts
    /// by vertex id for binary-search lookup and deterministic iteration.
    pub fn from_fragments(cut: u64, mut states: Vec<(VertexId, S)>) -> Self {
        states.sort_unstable_by_key(|&(v, _)| v);
        Snapshot { cut, states }
    }

    /// The stream index the snapshot is cut at: its states are the solve
    /// of the events numbered below it, and of nothing else.
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Number of vertices captured.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the snapshot holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// State of `v`, if the vertex existed at the snapshot point.
    pub fn get(&self, v: VertexId) -> Option<&S> {
        self.states
            .binary_search_by_key(&v, |&(id, _)| id)
            .ok()
            .map(|i| &self.states[i].1)
    }

    /// Iterates `(vertex, state)` in ascending vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &S)> + '_ {
        self.states.iter().map(|(v, s)| (*v, s))
    }

    /// Consumes the snapshot into its sorted backing vector.
    pub fn into_vec(self) -> Vec<(VertexId, S)> {
        self.states
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragments_sorted_and_searchable() {
        let s = Snapshot::from_fragments(3, vec![(5u64, "e"), (1, "a"), (9, "i")]);
        assert_eq!(s.cut(), 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(5), Some(&"e"));
        assert_eq!(s.get(2), None);
        let ids: Vec<VertexId> = s.iter().map(|(v, _)| v).collect();
        assert_eq!(ids, vec![1, 5, 9]);
    }

    #[test]
    fn empty_snapshot() {
        let s: Snapshot<u64> = Snapshot::from_fragments(0, vec![]);
        assert!(s.is_empty());
        assert_eq!(s.get(0), None);
    }
}
