//! Engine configuration: the immutable [`EngineConfig`] every shard shares.
//! The lattice filter has no entry here: it runs for every algorithm that
//! implements [`Algorithm::absorbs`] and for none that does not. Neither
//! does telemetry ([`crate::telemetry`]): counters, histograms, the flight
//! recorder and phase accounting run in every engine.

use std::time::Duration;

use crate::supervision::FaultPlan;
use crate::trace::TraceConfig;
use crate::wal::DurabilityConfig;

// Named only by the doc comments below.
#[cfg(doc)]
use crate::algorithm::Algorithm;

/// Immutable engine configuration shared with every shard.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of shard threads (the paper's "processes"/"nodes").
    pub num_shards: usize,
    /// Undirected mode: every `Add` spawns the `ReverseAdd` (§III-A).
    pub undirected: bool,
    /// Maximum time a supervised call waits for quiescence or for a
    /// snapshot barrier before returning
    /// [`EngineError::QuiescenceTimeout`](crate::EngineError). `None`
    /// (the default) waits indefinitely — but even then supervised calls
    /// still return promptly if a shard *panics*, because every wait loop
    /// also polls the failure board.
    pub quiescence_deadline: Option<Duration>,
    /// Maximum time a supervised call waits for one shard's reply to a
    /// point query or a state collection. `None` (the default) waits until
    /// the reply channel disconnects.
    pub query_deadline: Option<Duration>,
    /// Best-effort budget for joining shard threads during `Drop` and at
    /// the end of `try_finish`; threads still running afterwards are
    /// detached rather than blocking teardown.
    pub shutdown_deadline: Duration,
    /// Chaos-injection hook for the fault-tolerance test-suite. The
    /// default plan injects nothing and costs one cached branch per shard.
    pub fault_plan: FaultPlan,
    /// Envelopes buffered per destination shard before a batch ships
    /// (HavoqGT batches visitor messages the same way); partial batches
    /// flush whenever the shard goes idle, so no envelope waits for a full
    /// batch. A batch from one sender preserves its internal order, so
    /// per-pair FIFO is unaffected. Default 256.
    pub envelope_batch: usize,
    /// Capacity hint: expected total vertex count across the whole graph
    /// (0 = unknown, start empty). Each shard pre-sizes its vertex store
    /// for its share, so large ingests stop paying rehash storms from
    /// empty tables. Benches set this from the known RMAT scale.
    pub expected_vertices: usize,
    /// Sampled causal tracing ([`crate::trace`]): every `2^sample_shift`-th
    /// external topology ingest mints a trace id, and the envelopes it
    /// causes carry a compact tag through dominance filtering, registry
    /// fan-out, and WAL replay; each shard records
    /// bounded span rings that `Engine::traces_now` reconstructs into
    /// propagation trees. Off by default — when off no envelope is ever
    /// tagged and every observation point is one predictable branch.
    pub trace: TraceConfig,
    /// Per-shard durability (WAL + checkpoints + in-place respawn of
    /// panicked shards). `None` (the default) takes no code path through
    /// [`crate::wal`] — the data path is byte-identical to a
    /// durability-free build. See DESIGN.md §14.
    pub durability: Option<DurabilityConfig>,
}

impl EngineConfig {
    /// `shards` shard threads, undirected.
    pub fn undirected(shards: usize) -> Self {
        EngineConfig {
            num_shards: shards,
            undirected: true,
            quiescence_deadline: None,
            query_deadline: None,
            shutdown_deadline: Duration::from_secs(2),
            fault_plan: FaultPlan::default(),
            envelope_batch: 256,
            expected_vertices: 0,
            trace: TraceConfig::off(),
            durability: None,
        }
    }

    /// `shards` shard threads, directed edges.
    pub fn directed(shards: usize) -> Self {
        EngineConfig {
            undirected: false,
            ..Self::undirected(shards)
        }
    }

    /// Same config expecting roughly `vertices` vertices in total.
    pub fn with_expected_vertices(mut self, vertices: usize) -> Self {
        self.expected_vertices = vertices;
        self
    }

    /// Same config with a different tracing configuration (see
    /// [`TraceConfig::on`] for the default-sampled preset).
    pub fn with_tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Same config with durability enabled (WAL + checkpoints + in-place
    /// shard respawn). Requires the algorithm to implement
    /// [`Algorithm::encode_state`] / [`Algorithm::decode_state`].
    ///
    /// [`Algorithm::encode_state`]: crate::Algorithm::encode_state
    /// [`Algorithm::decode_state`]: crate::Algorithm::decode_state
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Same config with a chaos-injection plan (tests and fault drills).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}
