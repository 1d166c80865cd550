//! # remo-store — dynamic and static graph storage
//!
//! Storage substrate for the REMO reproduction, built from scratch:
//!
//! - [`adjacency`]: degree-aware adjacency lists — a vertex's edges in
//!   insertion order, inside its 24-byte header while they fit in 16 bytes
//!   and in a heap slab after, plus a hash index of positions into the slab
//!   for heavy hitters (2-byte slots up to 2^14 of them, 4-byte above:
//!   about 2.7–5.3 B per hub entry below 12 288 entries); each entry keeps
//!   only the [`EdgeData`] payload its algorithm reads (nothing or a
//!   weight), at the narrowest [`EntryWidth`] the vertex's ids and weights
//!   fit (a weight in one byte while they all fit in one).
//! - [`dense`]: dense vertex interning (the ids in intern order plus a
//!   keyless position index over them, 4 bytes a slot) in front of a slab
//!   of records (algorithm state + edges), the engine's one vertex table
//!   (one probe per event, direct indexing after). With the adjacency it
//!   is the crate's take on the paper's DegAwareRHH store (§III-B).
//! - [`csr`]: the static Compressed Sparse Row graph the paper's baselines
//!   run on (§V-B).
//! - [`bitset`]: growable bitsets for multi S-T connectivity state.
//! - [`hash`]: deterministic 64-bit mixing shared with the partitioner.
//!
//! Nothing in this crate is thread-safe by design: each engine shard owns its
//! tables exclusively (shared-nothing architecture).

pub mod adjacency;
pub mod bitset;
pub mod csr;
pub mod dense;
pub mod hash;

/// Vertex identifier. The paper uses opaque integer ids; `u64` covers every
/// dataset in Table I (the Webgraph has 3.5B vertices).
pub type VertexId = u64;

/// Edge weight type. `u64::MAX` is reserved as "infinity" by SSSP-style
/// algorithms.
pub type Weight = u64;

pub use adjacency::{Adjacency, EdgeData, EntryWidth};
pub use bitset::BitSet;
pub use csr::Csr;
pub use dense::{DenseVertexTable, InternTable, LocalIdx};

/// Ledger shim, not part of the API: the frozen ledger's store layer
/// builds its edges with `weighted`. ROADMAP item 10(b) deletes it.
#[doc(hidden)]
pub struct EdgeMeta;

impl EdgeMeta {
    pub fn weighted(w: Weight) -> Weight {
        w
    }
}
