#![forbid(unsafe_code)]
//! # remo-algos — the paper's incremental REMO algorithms
//!
//! Implementations of every algorithm in §IV of *Incremental Graph
//! Processing for On-Line Analytics*, in the paper's event-centric
//! programming model, plus the extensions its discussion sketches:
//!
//! | Module | Paper | What |
//! |---|---|---|
//! | [`bfs`] | Algorithm 4 | incremental BFS (+ deterministic-tree and cache-suppressing variants) |
//! | [`sssp`] | Algorithm 5 | incremental single-source shortest path |
//! | [`cc`] | Algorithm 6 | incremental connected components (label domination) |
//! | [`stcon`] | Algorithm 7 | multi S-T connectivity (u64 bitmap + wide BitSet) |
//! | [`degree`] | §II-A example | live degree tracking |
//! | [`generational`] | §VI-B | delete support via state generations |
//! | [`widest`] | (extension) | incremental widest path — the REMO class generalizes |
//!
//! All algorithms share the REMO shape: a base case hooked on edge events
//! and a recursive update step, with state converging monotonically to the
//! deterministic fixpoint regardless of event order, stream splits, or
//! shard count — the integration and property tests assert exactly that
//! against the static oracles in `remo-baseline`.
//!
//! Three variants stay for a paper feature each: [`IncBfsDeterministic`]
//! (§II-D tie-breaking), [`IncStConWide`] (Alg. 7 past 64 sources) and
//! [`IncBfsSuppressed`] (Alg. 3's `this.nbrs.set`; the benchmark stores `EdgeMeta` too).

pub mod bfs;
pub mod cc;
pub mod degree;
pub mod generational;
pub mod sssp;
pub mod stcon;
pub mod temporal;
pub mod widest;

pub use bfs::{IncBfs, IncBfsDeterministic, IncBfsSuppressed, LevelParent};
pub use cc::{cc_label, stream_label, IncCc};
pub use degree::DegreeCount;
pub use generational::{GenBfs, GenCc, GenLabel, GenLevel, GenerationHandle};
pub use sssp::IncSssp;
pub use stcon::{IncStCon, IncStConWide};
pub use temporal::IncTemporal;
pub use widest::IncWidest;

/// Level/cost value for unreached vertices (shared across algorithms).
pub const UNREACHED: u64 = u64::MAX;
