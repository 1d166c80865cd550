#![warn(clippy::unwrap_used, clippy::expect_used)]
#![deny(unsafe_code)]
#![warn(unnameable_types)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
//! # remo-core — event-centric engine for incremental graph analytics
//!
//! A from-scratch Rust reproduction of the infrastructure in *Incremental
//! Graph Processing for On-Line Analytics* (Sallinen, Pearce, Ripeanu,
//! IPDPS 2019): a shared-nothing, asynchronous, event-centric engine on
//! which **REMO** algorithms (REcursive updates, MOnotonic convergence) run
//! concurrently with graph construction, keeping a live, queryable result.
//!
//! ## Architecture (paper Figures 1 & 2)
//!
//! - Vertices are partitioned over shard threads by consistent hashing
//!   ([`Partitioner`]); each shard owns its vertex table exclusively and
//!   communicates only via per-sender FIFO batches of visitor messages
//!   (`shard.rs`). The data plane (`transport.rs`) is a lane mesh: batches
//!   move over lock-free SPSC rings, one per ordered shard pair, with
//!   event-driven parking, and a batch a full lane has no room for waits
//!   at its sender; each shard's channel carries the controller's traffic
//!   and nothing else. Where a shard thread runs is the
//!   operating system's business; the engine places work by
//!   `hash(V) mod P` and nothing else (§III-A). Configuration lives in
//!   [`EngineConfig`].
//! - Shard-local vertex storage ([`DenseStore`]) is a dense arena: it
//!   interns vertex ids once per event and direct-indexes a record slab
//!   thereafter.
//! - Topology events (`[src, dst]` pairs) arrive over per-shard in-order
//!   streams; events on different streams are concurrent ([`TopoEvent`]).
//!   A stream is fed in bounded chunks inside a per-shard window, so an
//!   ingest holds bounded memory whatever its size ([`Engine`]'s *Ingest*
//!   section).
//! - Algorithms are sets of callbacks over events ([`Algorithm`]:
//!   `init`/`on_add`/`on_reverse_add`/`on_update`), with the recursive step
//!   expressed through `update_nbrs`/`update_single_nbr`.
//! - Quiescence is detected by a two-wave four-counter probe over
//!   per-shard published counters (`termination.rs`).
//! - Global state after a defined set of events (§III-D) is a
//!   [`Snapshot`] cut at a stream index: the engine waits until everything
//!   it was fed has been processed, then collects the live states, which
//!   are the solve of `stream[..cut]`.
//! - Local-state "When" queries fire user callbacks at most once per vertex
//!   ([`EngineBuilder::trigger`], [`TriggerFire`]).
//! - N algorithms share one engine: a [`QueryRegistry`]
//!   runs independent per-query state columns over a single shared
//!   adjacency store and topology stream, with live attach/detach —
//!   topology is ingested once regardless of how many queries watch it.
//! - Shards run under supervision: a panicking shard is
//!   contained by `catch_unwind` and reported as a structured
//!   [`ShardFailure`]; the engine's `try_*` API returns
//!   `Result<_, EngineError>` under configurable deadlines instead of
//!   panicking or blocking forever, and [`Engine::try_finish`]
//!   harvests surviving shards on degraded runs.
//! - The running engine is itself observable: shards
//!   publish their counters through lock-free seqlock snapshot cells so
//!   `Engine::metrics_now` returns coherent mid-run metrics, latency
//!   histograms track flush/quiescence/fixpoint times, and a cloneable
//!   [`TelemetryHub`] renders Prometheus text format for live dashboards.
//!   A dead shard's last published counters and its span ring outlive its
//!   thread, so `metrics_now` and [`Engine::traces_now`] still describe it
//!   beside its [`ShardFailure`].
//! - Sampled causal tracing: one external ingest in
//!   `2^`[`SAMPLE_SHIFT`] per shard stamps the envelopes it causes with a
//!   compact trace tag that survives dominance filtering, registry fan-out,
//!   and rollback; [`Engine::traces_now`] reconstructs per-update propagation
//!   trees (hops to fixpoint, amplification, cross-shard hops), and
//!   per-shard phase accounting attributes every busy nanosecond to
//!   drain/process/flush/spin/park/checkpoint/replay.
//!
//! ## Quick example
//!
//! ```
//! use remo_core::{AlgoCtx, Algorithm, Engine, EngineConfig};
//! use remo_core::VertexId;
//!
//! /// Track each vertex's degree (the paper's §II-A example).
//! struct Degree;
//! impl Algorithm for Degree {
//!     type State = u64;
//!     type Edge = (); // reads no edge weight
//!     fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: u64) {
//!         ctx.apply(|d| { *d += 1; true });
//!     }
//!     fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: u64) {
//!         ctx.apply(|d| { *d += 1; true });
//!     }
//! }
//!
//! let engine = Engine::new(Degree, EngineConfig::undirected(2));
//! engine.try_ingest_pairs(&[(0, 1), (1, 2)]).unwrap();
//! let result = engine.try_finish().unwrap();
//! assert!(!result.is_degraded());
//! assert_eq!(result.states.get(1), Some(&2)); // vertex 1 has degree 2
//! ```

mod algorithm;
mod config;
mod encoding;
mod engine;
mod event;
mod metrics;
mod partition;
mod registry;
mod sequential;
mod shard;
mod snapshot;
mod storage;
mod supervision;
mod telemetry;
mod termination;
mod trace;
mod transport;
mod trigger;
mod wal;

pub use algorithm::{AlgoCtx, Algorithm};
pub use config::EngineConfig;
pub use encoding::Codec;
pub use engine::{Engine, EngineBuilder, RunResult};
pub use event::{ControlKind, ControlOp, TopoEvent, TopoOp};
pub use metrics::{LatencyHistogram, RunMetrics, ShardMetrics};
pub use partition::Partitioner;
pub use registry::{Cell, QueryId, QueryRegistry, RegPayload, MAX_QUERIES};
pub use sequential::SequentialEngine;
pub use snapshot::Snapshot;
pub use storage::DenseStore;
pub use supervision::{EngineError, ShardFailure};
pub use telemetry::{EngineGauges, QueryStatsRow, QueryStatsSource, TelemetryHub, SAMPLE_SHIFT};
pub use trace::{HopStats, PropagationTrace, TraceSummary};
pub use trigger::TriggerFire;
pub use wal::DurabilityConfig;

/// Re-exports of the storage layer's core identifiers.
pub use remo_store::{EdgeData, VertexId, Weight};
