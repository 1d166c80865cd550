//! # remo — incremental graph processing for on-line analytics
//!
//! A production-quality Rust reproduction of *Incremental Graph Processing
//! for On-Line Analytics* (Sallinen, Pearce, Ripeanu, IPDPS 2019): an
//! event-centric, shared-nothing engine that keeps **live, queryable
//! algorithm state** while a graph is constructed and modified, one edge
//! event at a time.
//!
//! This facade crate re-exports the workspace:
//!
//! - [`core`]: the engine — shards, visitor events, consistent-hash
//!   partitioning, quiescence detection, continuous snapshots,
//!   local-state triggers.
//! - [`store`]: storage — Robin Hood hashing, degree-aware adjacency,
//!   dense vertex interning, CSR.
//! - [`algos`]: the REMO algorithms — BFS, SSSP, CC, multi S-T, degree
//!   tracking, generational (delete-capable) BFS.
//! - [`baseline`]: static comparators and correctness oracles.
//! - [`gen`]: deterministic workload generators (RMAT/Graph500,
//!   preferential attachment, copying-model web graphs, ER, Watts–Strogatz).
//!
//! ## Quickstart
//!
//! ```
//! use remo::prelude::*;
//!
//! // Live BFS over a growing graph, 4 shard threads.
//! let engine = Engine::new(IncBfs, EngineConfig::undirected(4));
//! engine.try_init_vertex(0).unwrap();                       // the BFS source
//! engine.try_ingest_pairs(&[(0, 1), (1, 2), (0, 3)]).unwrap();
//! let result = engine.try_finish().unwrap();
//! assert_eq!(result.states.get(2), Some(&3));  // two hops from the source
//! ```
//!
//! See `examples/` for the "When" trigger workflow (fraud detection), live
//! reachability on a growing social graph, and dynamic route costs.

/// The README's code, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use remo_algos as algos;
pub use remo_baseline as baseline;
pub use remo_core as core;
pub use remo_gen as gen;
pub use remo_store as store;

/// The most common imports in one place.
pub mod prelude {
    pub use remo_algos::{
        cc_label, stream_label, DegreeCount, GenBfs, IncBfs, IncBfsDeterministic, IncBfsSuppressed,
        IncCc, IncSssp, IncStCon, IncStConWide, IncTemporal, IncWidest,
    };
    pub use remo_core::{
        AlgoCtx, Algorithm, DurabilityConfig, Engine, EngineBuilder, EngineConfig, QueryId,
        QueryRegistry, RegPayload, SequentialEngine, Snapshot, TelemetryHub, TopoEvent,
        TriggerFire, VertexId, Weight,
    };
    pub use remo_gen::{Dataset, RmatConfig};
}
