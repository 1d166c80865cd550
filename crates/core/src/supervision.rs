//! Engine supervision: failure taxonomy, the shard failure board, and the
//! chaos-injection [`FaultPlan`].
//!
//! The paper's system (and the seed reproduction) assumes every process
//! stays alive for the whole run. This module supplies what a production
//! deployment needs instead: a shard that panics publishes a structured
//! [`ShardFailure`] to a shared [`FailureBoard`] rather than silently
//! dying, and every controller-side wait carries a deadline so the engine
//! surfaces [`EngineError`] instead of hanging. The [`FaultPlan`] hook lets
//! the chaos test-suite inject panics, delivery delays, and envelope loss
//! deterministically; with the default (empty) plan the per-shard cost is a
//! single predictable branch off the data path.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::event::Epoch;

/// Structured record of one shard's death, published to the controller by
/// the `catch_unwind` wrapper around the shard worker loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The shard that died.
    pub id: usize,
    /// The panic payload, rendered to a string (or a synthetic description
    /// for non-panic losses such as an unresponsive shutdown).
    pub payload: String,
    /// The last snapshot epoch the shard acknowledged before dying —
    /// snapshots at or before this epoch were fully served by the shard.
    pub last_epoch: Epoch,
    /// Flight-recorder dump: the shard's most recent structured events
    /// (rendered, oldest first), captured by the `catch_unwind` wrapper on
    /// the dying shard's own thread — or by the harvest path for shards
    /// that stopped answering.
    pub trace: Vec<String>,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} failed at epoch {}: {}",
            self.id, self.last_epoch, self.payload
        )?;
        if !self.trace.is_empty() {
            write!(f, " ({} flight-recorder entries)", self.trace.len())?;
        }
        Ok(())
    }
}

/// Failure taxonomy for supervised engine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// One or more shards panicked; the failures carry the panic payloads.
    ShardPanicked {
        /// Every failure recorded so far, in order of occurrence.
        failures: Vec<ShardFailure>,
    },
    /// A shard's channel was closed without a recorded panic (the shard
    /// exited some other way, or the engine is mid-teardown).
    ChannelClosed {
        /// The shard whose channel rejected the send.
        shard: usize,
    },
    /// A configured deadline expired before the engine reached the
    /// requested state (quiescence, snapshot barrier, or a query reply).
    QuiescenceTimeout {
        /// How long the caller waited before giving up.
        waited: Duration,
    },
    /// A collection completed only partially: some shards answered, others
    /// were lost or timed out. Surviving fragments were discarded; use
    /// [`Engine::try_finish`](crate::Engine::try_finish) to harvest
    /// surviving-shard state after a failure.
    Degraded {
        /// Every failure recorded so far.
        failures: Vec<ShardFailure>,
        /// Shards that did answer before the collection aborted.
        answered: usize,
        /// Shards that were asked.
        expected: usize,
    },
    /// The durable directory cannot back this engine: no durability in
    /// the config, an unreadable/malformed `MANIFEST`, or state written
    /// by an engine of a different shape (shard count, undirectedness).
    DurabilityMismatch {
        /// Human-readable description of the mismatch.
        message: String,
    },
    /// A multi-query registry operation failed: all 64 query slots are
    /// occupied, a [`QueryId`](crate::QueryId) is stale (already detached),
    /// or the engine shape does not match the registry's recorded shape.
    Registry {
        /// Human-readable description of the failure.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ShardPanicked { failures } => {
                write!(f, "{} shard(s) panicked:", failures.len())?;
                for fail in failures {
                    write!(f, " [{fail}]")?;
                }
                Ok(())
            }
            EngineError::ChannelClosed { shard } => {
                write!(f, "shard {shard}'s channel is closed")
            }
            EngineError::QuiescenceTimeout { waited } => {
                write!(f, "deadline expired after {waited:?} without quiescence")
            }
            EngineError::Degraded {
                failures,
                answered,
                expected,
            } => write!(
                f,
                "degraded collection: {answered}/{expected} shards answered, {} failure(s)",
                failures.len()
            ),
            EngineError::DurabilityMismatch { message } => {
                write!(f, "durability mismatch: {message}")
            }
            EngineError::Registry { message } => {
                write!(f, "registry: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// The failures carried by this error, if any.
    pub fn failures(&self) -> &[ShardFailure] {
        match self {
            EngineError::ShardPanicked { failures } | EngineError::Degraded { failures, .. } => {
                failures
            }
            _ => &[],
        }
    }
}

/// Shared controller-visible record of dead shards.
///
/// Writers are the per-shard `catch_unwind` wrappers (and the teardown path
/// for unresponsive shards); the reader is the controller, which probes
/// [`FailureBoard::any_failed`] inside every supervised wait loop. The
/// count is published *after* the failure record, so a reader that observes
/// a non-zero count always finds at least that many records.
#[derive(Debug, Default)]
pub struct FailureBoard {
    failures: Mutex<Vec<ShardFailure>>,
    /// Bit per shard id < 64 for O(1) `is_failed` on the query path.
    mask: AtomicU64,
    count: AtomicUsize,
}

impl FailureBoard {
    /// An empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one shard failure. Idempotence is not required: a shard dies
    /// at most once, and teardown only synthesizes records for shards with
    /// no prior entry.
    pub fn record(&self, failure: ShardFailure) {
        let id = failure.id;
        {
            let mut guard = self.failures.lock().unwrap_or_else(|p| p.into_inner());
            guard.push(failure);
        }
        if id < 64 {
            self.mask.fetch_or(1 << id, Ordering::SeqCst);
        }
        self.count.fetch_add(1, Ordering::SeqCst);
    }

    /// True if any shard has failed. One atomic load — cheap enough for
    /// wait-loop polling.
    #[inline]
    pub fn any_failed(&self) -> bool {
        self.count.load(Ordering::SeqCst) > 0
    }

    /// True if shard `id` has failed.
    pub fn is_failed(&self, id: usize) -> bool {
        if id < 64 {
            self.mask.load(Ordering::SeqCst) & (1 << id) != 0
        } else {
            self.failures
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .any(|f| f.id == id)
        }
    }

    /// Number of recorded failures.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::SeqCst)
    }

    /// True when no failure has been recorded.
    pub fn is_empty(&self) -> bool {
        !self.any_failed()
    }

    /// A copy of every failure recorded so far.
    pub fn snapshot(&self) -> Vec<ShardFailure> {
        self.failures
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// Renders a `catch_unwind` payload to a human-readable string.
pub(crate) fn panic_payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Deterministic fault injection for the chaos test-suite.
///
/// The default plan injects nothing, and the engine's happy path pays only
/// one precomputed boolean branch per shard event (`ShardWorker` caches
/// whether the plan targets it at spawn time), so the plan can stay a plain
/// runtime field of [`EngineConfig`](crate::EngineConfig) rather than a
/// compile-time feature.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Panic shard `.0` when it is about to process its `.1`-th
    /// algorithmic event (1-based): the classic fail-stop fault.
    pub panic_at: Option<(usize, u64)>,
    /// Sleep `.1` before each algorithmic event processed on shard `.0`:
    /// models a straggler / slow-delivery shard.
    pub delay: Option<(usize, Duration)>,
    /// On shard `.0`, silently drop outbound envelopes with probability
    /// `.1` (decided by a deterministic hash of the shard's send sequence).
    /// Dropped envelopes stay counted as *sent*: they model messages lost
    /// in transit, so quiescence is never reached — exercising the
    /// controller's deadline paths.
    pub drop_fraction: Option<(usize, f64)>,
    /// How many times `panic_at` fires in total (default 1): with
    /// durability enabled a respawned shard re-arms the same fault until
    /// this budget is spent, so a plan can kill the same shard repeatedly
    /// across recoveries.
    pub panic_repeats: u32,
    /// Panic shard `.0` while it is *replaying* its `.1`-th WAL record
    /// (1-based) during recovery: the twice-dying shard case. Fires once.
    pub panic_in_replay: Option<(usize, u64)>,
    /// Panic shard `.0` while writing its `.1`-th checkpoint (1-based),
    /// after staging but before publish: exercises checkpoint atomicity.
    /// Fires once.
    pub panic_in_checkpoint: Option<(usize, u64)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            panic_at: None,
            delay: None,
            drop_fraction: None,
            panic_repeats: 1,
            panic_in_replay: None,
            panic_in_checkpoint: None,
        }
    }
}

impl FaultPlan {
    /// A plan that panics `shard` at its `nth` processed event (1-based).
    pub fn panic_shard_at(shard: usize, nth: u64) -> Self {
        FaultPlan {
            panic_at: Some((shard, nth)),
            ..Default::default()
        }
    }

    /// A plan that delays every event on `shard` by `delay`.
    pub fn delay_shard(shard: usize, delay: Duration) -> Self {
        FaultPlan {
            delay: Some((shard, delay)),
            ..Default::default()
        }
    }

    /// A plan that drops `fraction` (0.0–1.0) of `shard`'s outbound
    /// envelopes.
    pub fn drop_on_shard(shard: usize, fraction: f64) -> Self {
        FaultPlan {
            drop_fraction: Some((shard, fraction)),
            ..Default::default()
        }
    }

    /// Re-arms `panic_at` to fire `repeats` times in total instead of once
    /// (each respawn under durability re-counts events from zero).
    pub fn repeat_panics(mut self, repeats: u32) -> Self {
        self.panic_repeats = repeats;
        self
    }

    /// A plan that panics `shard` while replaying its `nth` WAL record
    /// (1-based) during recovery.
    pub fn panic_in_replay_at(shard: usize, nth: u64) -> Self {
        FaultPlan {
            panic_in_replay: Some((shard, nth)),
            ..Default::default()
        }
    }

    /// A plan that panics `shard` while writing its `nth` checkpoint
    /// (1-based), after staging but before publish.
    pub fn panic_in_checkpoint_at(shard: usize, nth: u64) -> Self {
        FaultPlan {
            panic_in_checkpoint: Some((shard, nth)),
            ..Default::default()
        }
    }

    /// True when this plan injects at least one fault on shard `id` —
    /// precomputed by each worker so the clean path is one branch.
    pub(crate) fn targets(&self, id: usize) -> bool {
        self.panic_at.map(|(s, _)| s == id).unwrap_or(false)
            || self.delay.map(|(s, _)| s == id).unwrap_or(false)
            || self.drop_fraction.map(|(s, _)| s == id).unwrap_or(false)
            || self.panic_in_replay.map(|(s, _)| s == id).unwrap_or(false)
            || self
                .panic_in_checkpoint
                .map(|(s, _)| s == id)
                .unwrap_or(false)
    }

    /// Deterministic per-sequence-number drop decision.
    pub(crate) fn should_drop(&self, id: usize, seq: u64) -> bool {
        match self.drop_fraction {
            Some((shard, fraction)) if shard == id => {
                // SplitMix64-style scramble of the send sequence number:
                // reproducible across runs, uncorrelated with batch sizes.
                let mut x = seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                ((x >> 11) as f64 / (1u64 << 53) as f64) < fraction
            }
            _ => false,
        }
    }
}

/// Marker prefix for panics injected by [`FaultPlan::panic_at`], so chaos
/// tests can assert the failure they observed is the one they injected.
pub const CHAOS_PANIC_MARKER: &str = "remo-chaos: injected panic";

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn board_records_and_reports() {
        let board = FailureBoard::new();
        assert!(!board.any_failed());
        assert!(board.is_empty());
        assert!(!board.is_failed(1));
        board.record(ShardFailure {
            id: 1,
            payload: "boom".into(),
            last_epoch: 3,
            trace: vec!["#0 e0 park".into()],
        });
        assert!(board.any_failed());
        assert!(board.is_failed(1));
        assert!(!board.is_failed(0));
        assert_eq!(board.len(), 1);
        let snap = board.snapshot();
        assert_eq!(snap[0].id, 1);
        assert_eq!(snap[0].payload, "boom");
        assert_eq!(snap[0].last_epoch, 3);
    }

    #[test]
    fn board_handles_large_shard_ids() {
        let board = FailureBoard::new();
        board.record(ShardFailure {
            id: 100,
            payload: "big".into(),
            last_epoch: 0,
            trace: Vec::new(),
        });
        assert!(board.is_failed(100));
        assert!(!board.is_failed(99));
    }

    #[test]
    fn fault_plan_targets_only_chosen_shard() {
        let plan = FaultPlan::panic_shard_at(2, 5);
        assert!(plan.targets(2));
        assert!(!plan.targets(0));
        assert!(FaultPlan::default() == FaultPlan::default());
        assert!(!FaultPlan::default().targets(0));
    }

    #[test]
    fn drop_decision_is_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::drop_on_shard(0, 0.25);
        let first: Vec<bool> = (0..10_000).map(|s| plan.should_drop(0, s)).collect();
        let second: Vec<bool> = (0..10_000).map(|s| plan.should_drop(0, s)).collect();
        assert_eq!(first, second, "decisions must be reproducible");
        let dropped = first.iter().filter(|&&d| d).count();
        assert!(
            (1_500..=3_500).contains(&dropped),
            "~25% expected, got {dropped}/10000"
        );
        assert!(!plan.should_drop(1, 0), "other shards unaffected");
    }

    #[test]
    fn error_display_is_informative() {
        let err = EngineError::ShardPanicked {
            failures: vec![ShardFailure {
                id: 7,
                payload: "oops".into(),
                last_epoch: 2,
                trace: Vec::new(),
            }],
        };
        let s = err.to_string();
        assert!(s.contains("shard 7"));
        assert!(s.contains("oops"));
        assert_eq!(err.failures().len(), 1);
        let t = EngineError::ChannelClosed { shard: 3 }.to_string();
        assert!(t.contains("3"));
        assert!(EngineError::ChannelClosed { shard: 3 }
            .failures()
            .is_empty());
    }
}
