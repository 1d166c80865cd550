//! # remo-store — dynamic and static graph storage
//!
//! Storage substrate for the REMO reproduction, built from scratch:
//!
//! - [`rhh`]: an open-addressing hash map with Robin Hood hashing and
//!   backward-shift deletion, the engine behind every vertex-keyed table
//!   (the paper's DegAwareRHH store, §III-B).
//! - [`adjacency`]: degree-aware adjacency lists — one edge slab per vertex
//!   in insertion order, plus a hash index of 4-byte positions into it for
//!   heavy hitters.
//! - [`dense`]: dense vertex interning in front of a slab of records
//!   (algorithm state + edges), the engine's one vertex table (one probe
//!   per event, direct indexing after).
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
pub mod rhh;

/// Vertex identifier. The paper uses opaque integer ids; `u64` covers every
/// dataset in Table I (the Webgraph has 3.5B vertices).
pub type VertexId = u64;

/// Edge weight type. `u64::MAX` is reserved as "infinity" by SSSP-style
/// algorithms.
pub type Weight = u64;

pub use adjacency::{Adjacency, EdgeMeta, PROMOTE_DEGREE};
pub use bitset::BitSet;
pub use csr::Csr;
pub use dense::{DenseVertexTable, InternTable, LocalIdx};
pub use rhh::RhhMap;
