//! Engine configuration: the immutable [`EngineConfig`] every shard shares.
//! The lattice filter has no entry here: it runs for every algorithm that
//! implements [`Algorithm::absorbs`] and for none that does not. Neither
//! does telemetry ([`crate::telemetry`]) nor causal tracing
//! ([`crate::trace`]): counters, histograms, phase accounting and one
//! sampled trace per `2^SAMPLE_SHIFT` ingests run in every engine.

use std::time::Duration;

use crate::wal::DurabilityConfig;

// Named only by the doc comments below.
#[cfg(doc)]
use crate::algorithm::Algorithm;

/// Immutable engine configuration shared with every shard, in four
/// fields: the shard count, the edge mode, the wait deadline and
/// durability. Telemetry and causal tracing have no field: every engine
/// runs both. Nor does the envelope batch: every shard ships 256
/// envelopes a batch.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of shard threads (the paper's "processes"/"nodes").
    pub num_shards: usize,
    /// Undirected mode: every `Add` spawns the `ReverseAdd` (§III-A).
    pub undirected: bool,
    /// Maximum time any supervised wait lasts before returning
    /// [`EngineError::QuiescenceTimeout`](crate::EngineError): quiescence,
    /// a snapshot barrier, a control-plane broadcast, and one shard's
    /// reply to a point query or a state collection. `None` (the default)
    /// waits indefinitely — but even then supervised calls still return
    /// promptly if a shard *panics*, because every wait also checks the
    /// failure board and a dead replier disconnects its reply channel.
    pub quiescence_deadline: Option<Duration>,
    /// Durability: each shard logs the pulls it takes, the engine
    /// checkpoints every shard at a quiescent cut every
    /// `checkpoint_every` fed pulls, and a cold open or a panicked shard
    /// (at most three rollbacks per engine) restores the cut and re-runs
    /// the logged pulls once each. `None` (the default) touches no file:
    /// the feed path checks it once per chunk, a shard once per pass and
    /// once per pull run. See DESIGN.md §14.
    pub durability: Option<DurabilityConfig>,
}

impl EngineConfig {
    /// `shards` shard threads, undirected.
    pub fn undirected(shards: usize) -> Self {
        EngineConfig {
            num_shards: shards,
            undirected: true,
            quiescence_deadline: None,
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

    /// Same config with durability enabled (pull log, cut checkpoints and
    /// rollback). States are written through their
    /// [`Codec`](crate::Codec), which every [`Algorithm::State`] has.
    ///
    /// [`Algorithm::State`]: crate::Algorithm::State
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }
}
