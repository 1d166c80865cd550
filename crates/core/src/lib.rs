#![warn(clippy::unwrap_used, clippy::expect_used)]
#![deny(unsafe_code)]
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
//!   ([`partition`]); each shard owns its vertex table exclusively and
//!   communicates only via per-sender FIFO batches of visitor messages
//!   ([`shard`]). The data plane ([`transport`]) is a lane mesh: batches
//!   move over lock-free SPSC rings with pooled buffer recycling and
//!   event-driven parking, and a batch a full lane has no room for waits
//!   at its sender; each shard's channel carries the controller's traffic
//!   and nothing else. Where a shard thread runs is the
//!   operating system's business; the engine places work by
//!   `hash(V) mod P` and nothing else (§III-A). Configuration lives in
//!   [`config`].
//! - Shard-local vertex storage ([`storage`]) is a dense arena: it
//!   interns vertex ids once per event and direct-indexes a record slab
//!   thereafter.
//! - Topology events (`[src, dst]` pairs) arrive over per-shard in-order
//!   streams; events on different streams are concurrent ([`event`]).
//! - Algorithms are sets of callbacks over events ([`algorithm`]:
//!   `init`/`on_add`/`on_reverse_add`/`on_update`), with the recursive step
//!   expressed through `update_nbrs`/`update_single_nbr`.
//! - Quiescence is detected by a two-wave four-counter probe over
//!   per-shard published counters ([`termination`]).
//! - Global state is collected *without pausing ingestion* via epoch-tagged
//!   events and per-vertex state forks ([`snapshot`], [`vertex_state`]) — the
//!   paper's Chandy–Lamport variant (§III-D).
//! - Local-state "When" queries fire user callbacks at most once per vertex
//!   ([`trigger`]).
//! - N algorithms share one engine ([`registry`]): a [`QueryRegistry`]
//!   runs independent per-query state columns over a single shared
//!   adjacency store and topology stream, with live attach/detach —
//!   topology is ingested once regardless of how many queries watch it.
//! - Shards run under supervision ([`supervision`]): a panicking shard is
//!   contained by `catch_unwind` and reported as a structured
//!   [`ShardFailure`]; the engine's `try_*` API returns
//!   `Result<_, EngineError>` under configurable deadlines instead of
//!   panicking or blocking forever, and [`engine::Engine::try_finish`]
//!   harvests surviving shards on degraded runs.
//! - The running engine is itself observable ([`telemetry`]): shards
//!   publish their counters through lock-free seqlock snapshot cells so
//!   `Engine::metrics_now` returns coherent mid-run metrics, latency
//!   histograms track service/flush/quiescence/fixpoint times, a bounded
//!   per-shard flight recorder attaches a trace of a dying shard's last
//!   events to its [`ShardFailure`], and a cloneable [`TelemetryHub`]
//!   renders Prometheus text format and JSON for live dashboards.
//! - Sampled causal tracing ([`trace`]): a [`TraceConfig`] samples
//!   external ingests and stamps the resulting envelopes with a compact
//!   trace tag that survives dominance filtering, registry fan-out, and
//!   WAL replay; `Engine::traces_now` reconstructs per-update propagation
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

pub mod algorithm;
pub mod config;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod partition;
pub mod registry;
pub mod sequential;
pub mod shard;
pub mod snapshot;
pub mod storage;
pub mod supervision;
pub mod telemetry;
pub mod termination;
pub mod trace;
pub mod transport;
pub mod trigger;
pub mod vertex_state;
pub mod wal;

pub use algorithm::{AlgoCtx, Algorithm, EventCtx, Outgoing};
pub use config::EngineConfig;
pub use engine::{Engine, EngineBuilder, RunResult};
pub use event::{
    events_from_pairs, events_from_weighted, ControlAck, ControlKind, ControlOp, Envelope, Epoch,
    EventKind, TopoEvent, TopoOp,
};
pub use metrics::{LatencyHistogram, RunMetrics, ShardMetrics, HIST_BUCKETS};
pub use partition::Partitioner;
pub use registry::{Cell, QueryId, QueryRegistry, QueryStats, RegPayload, MAX_QUERIES};
pub use sequential::SequentialEngine;
pub use snapshot::Snapshot;
pub use supervision::{EngineError, FailureBoard, FaultPlan, ShardFailure, CHAOS_PANIC_MARKER};
pub use telemetry::{
    EngineGauges, FlightEntry, FlightTag, QueryStatsRow, QueryStatsSource, TelemetryHub,
    FLIGHT_CAPACITY, PUBLISH_EVERY, SAMPLE_SHIFT,
};
pub use termination::{Backoff, Deadline, DetectionTimer};
pub use trace::{
    HopStats, PropagationTrace, SpanKind, TraceConfig, TraceSpan, TraceSummary, TraceTag,
};
pub use trigger::{TriggerFire, MAX_TRIGGERS};
pub use vertex_state::VertexMeta;
pub use wal::DurabilityConfig;

/// Re-exports of the storage layer's core identifiers.
pub use remo_store::{EdgeMeta, VertexId, Weight};
