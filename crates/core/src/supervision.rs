//! Engine supervision: the failure taxonomy and the shard failure board.
//!
//! The paper's system (and the seed reproduction) assumes every process
//! stays alive for the whole run. This module supplies what a production
//! deployment needs instead: a shard that panics — in an algorithm
//! callback, or on a durable-state IO failure — publishes a structured
//! [`ShardFailure`] to a shared [`FailureBoard`] rather than silently
//! dying, and every controller-side wait carries a deadline so the engine
//! surfaces [`EngineError`] instead of hanging.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Structured record of one shard's death, published to the controller by
/// the `catch_unwind` wrapper around the shard worker loop. The rest of the
/// account outlives the thread: the shard's last published counter cell
/// (folded into `RunMetrics::per_shard` for lost shards) and its span ring
/// (still read by `Engine::traces_now`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The shard that died.
    pub id: usize,
    /// The panic payload, rendered to a string (or a synthetic description
    /// for non-panic losses such as an unresponsive shutdown).
    pub payload: String,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} failed: {}", self.id, self.payload)
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
    /// the config, a `MANIFEST` that cannot be read, parsed or written, a
    /// shard's checkpoint or WAL that cannot be read, or state written by
    /// an engine of a different shape (shard count, undirectedness).
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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn board_records_and_reports() {
        let board = FailureBoard::new();
        assert!(!board.any_failed());
        assert!(!board.is_failed(1));
        board.record(ShardFailure {
            id: 1,
            payload: "boom".into(),
        });
        assert!(board.any_failed());
        assert!(board.is_failed(1));
        assert!(!board.is_failed(0));
        assert_eq!(board.len(), 1);
        let snap = board.snapshot();
        assert_eq!(snap[0].id, 1);
        assert_eq!(snap[0].payload, "boom");
    }

    #[test]
    fn board_handles_large_shard_ids() {
        let board = FailureBoard::new();
        board.record(ShardFailure {
            id: 100,
            payload: "big".into(),
        });
        assert!(board.is_failed(100));
        assert!(!board.is_failed(99));
    }

    #[test]
    fn error_display_is_informative() {
        let err = EngineError::ShardPanicked {
            failures: vec![ShardFailure {
                id: 7,
                payload: "oops".into(),
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
