//! Per-vertex engine-side metadata.
//!
//! Beside the algorithm's live state a vertex carries the machinery of the
//! continuous snapshot protocol (§III-D): when it first sees an event of a
//! newer epoch the store forks `prev = live.clone()`; old-epoch events
//! thereafter apply to *both* versions, new-epoch events only to `live`. A
//! fired-triggers bitmask implements at-most-once trigger firing.
//!
//! The epoch and the bitmask live together in the packed [`VertexMeta`] (8
//! bytes), which `crate::storage` keeps in the slab record beside the live
//! state — the hot path touches it on every event — while the fork itself
//! is cold and lives out of line there.

use crate::event::Epoch;

/// Packed per-vertex engine metadata: the snapshot fork epoch and the
/// fired-triggers bitmask. 8 bytes, `Copy`, no algorithm state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VertexMeta {
    /// Epoch the vertex has forked up to: events with `epoch >
    /// forked_epoch` trigger a fork.
    pub forked_epoch: Epoch,
    /// Bitmask of triggers that already fired for this vertex.
    pub fired: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_is_small_and_copy() {
        assert_eq!(std::mem::size_of::<VertexMeta>(), 8);
        let m = VertexMeta {
            forked_epoch: 3,
            fired: 0b101,
        };
        let n = m; // Copy
        assert_eq!(m, n);
    }
}
