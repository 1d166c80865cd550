//! Per-vertex engine-side metadata.
//!
//! Beside the algorithm's live state a vertex carries a fired-triggers
//! bitmask, which implements at-most-once trigger firing. It lives in the
//! packed [`VertexMeta`], which `crate::storage` keeps in the slab record
//! beside the live state: the hot path touches it on every state change.

/// Packed per-vertex engine metadata: the fired-triggers bitmask. 4
/// bytes, `Copy`, no algorithm state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VertexMeta {
    /// Bitmask of triggers that already fired for this vertex.
    pub fired: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_is_small_and_copy() {
        assert_eq!(std::mem::size_of::<VertexMeta>(), 4);
        let m = VertexMeta { fired: 0b101 };
        let n = m; // Copy
        assert_eq!(m, n);
    }
}
