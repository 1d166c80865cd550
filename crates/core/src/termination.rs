//! Quiescence / termination detection.
//!
//! "Processing completes when all visitors have completed, which is
//! determined by a distributed quiescence detection algorithm" (§III-F,
//! citing Pearce et al. \[24\]). The engine runs one detector, Mattern's
//! *four-counter method*: every shard owns monotone `sent` / `processed`
//! counters on its own padded cache line,
//! published with plain atomic stores — there is **no shared
//! read-modify-write on the data path**. The controller probes in two
//! waves: first it sums `processed` (R), then `sent` (S); because a shard
//! publishes `sent` *before* an envelope becomes receivable, published
//! S ≥ published R always, and `S == R` proves no envelope is in flight or
//! buffered. Stream ingestion is covered by a third monotone counter pair
//! per shard (`fed` by the controller, `ingested` by the shard). Two counting
//! waves over per-rank counters is also the shape of the detector the
//! paper cites (HavoqGT's), with the controller's reads standing in for
//! its all-reduce.
//!
//! A snapshot (§III-D) is the same probe: it waits for quiescence, then
//! collects.
//!
//! The controller does not poll these counters on a timer. It waits on a
//! [`Bell`] that shards ring at the transitions it waits for (a park, an
//! emptied chunk, a thread exit) and re-runs the same probe on every wake.

use crate::transport::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Longest a controller wait sleeps without a ring. It bounds a deadline's
/// overshoot and the wait for any condition that turns true without a
/// ring (a thread that exits after its last ring).
pub(crate) const HEARTBEAT: Duration = Duration::from_millis(1);

/// A soft deadline for supervised waits. `None` never expires — the
/// seed's original block-forever behaviour, kept as the default so
/// existing callers are unaffected until they opt into deadlines via
/// [`EngineConfig`](crate::EngineConfig).
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    limit: Option<Duration>,
}

impl Deadline {
    /// Starts a deadline clock now; `limit: None` never expires.
    pub fn new(limit: Option<Duration>) -> Self {
        Deadline {
            start: Instant::now(),
            limit,
        }
    }

    /// True once the limit has elapsed (never, for `None`).
    #[inline]
    pub fn expired(&self) -> bool {
        match self.limit {
            Some(d) => self.start.elapsed() >= d,
            None => false,
        }
    }

    /// Time spent waiting so far.
    pub fn waited(&self) -> Duration {
        self.start.elapsed()
    }
}

/// The controller's wake-up: a Dekker handshake like the shards'
/// `ParkBoard`, with a condvar in place of a parked thread so that any
/// number of controller threads can wait at once.
///
/// A shard publishes what a waiter probes, fences, then rings; a waiter
/// announces itself, then probes. The SeqCst orderings guarantee one side
/// sees the other: either the waiter's probe sees the shard's data, or
/// the ring's swap sees the announcement and bumps the count the waiter
/// sleeps on. The count is read under the lock before the announcement,
/// so a ring that lands between the probe and the sleep is not lost. A
/// poisoned lock still guards a valid count (its one update is `+= 1`).
#[derive(Debug, Default)]
pub struct Bell {
    waiting: AtomicBool,
    rings: Mutex<u64>,
    rung: Condvar,
}

impl Bell {
    /// Wakes every waiter, if one has announced itself since the last
    /// ring. One swap when nobody waits.
    pub fn ring(&self) {
        if self.waiting.swap(false, Ordering::SeqCst) {
            *self.rings.lock().unwrap_or_else(PoisonError::into_inner) += 1;
            self.rung.notify_all();
        }
    }

    /// True when `done()` holds. Otherwise sleeps until a ring or until
    /// `timeout` passes and returns false; the caller probes again.
    pub fn wait(&self, timeout: Duration, done: impl Fn() -> bool) -> bool {
        if done() {
            return true;
        }
        let rings = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        let seen = *rings;
        self.waiting.store(true, Ordering::SeqCst);
        if done() {
            return true;
        }
        drop(self.rung.wait_timeout_while(rings, timeout, |r| *r == seen));
        false
    }
}

/// One participant's published monotone counters. Each lives on its own
/// cache line; only the owner writes it (plain stores), only the controller
/// reads it.
#[derive(Debug, Default)]
pub struct ShardSlots {
    /// Envelopes created. Published **before** the envelope can be
    /// received anywhere (the four-counter soundness condition).
    pub sent: AtomicU64,
    /// Envelopes fully processed (including the publication of any derived
    /// envelopes).
    pub processed: AtomicU64,
    /// Topology events pulled from this shard's input streams.
    pub ingested: AtomicU64,
    /// Topology events handed to this shard (controller-written, before
    /// the chunk that carries them is sent). `fed − ingested` is what
    /// waits unpulled: the ingest window bounds it.
    pub fed: AtomicU64,
}

/// Engine-wide bookkeeping: the recovery gate, the bell and one padded
/// [`ShardSlots`] per shard. Every envelope is created by a shard: the controller's
/// inputs, `Init`s included, are pulls, counted by `fed` and `ingested`.
#[derive(Debug)]
pub struct SharedCounters {
    /// Shards currently between a custody sweep and the end of their
    /// WAL replay. The sweep retires every swept envelope against the
    /// books (they balance) *before* replay has regenerated the swept
    /// work, so the four-counter reading alone is no longer a fixpoint
    /// witness in that window — the probe refuses while this is nonzero.
    recovering: AtomicU64,
    /// Rung by shards at a park that may be the last, an emptied chunk
    /// and an exit.
    pub bell: Bell,
    slots: Vec<CachePadded<ShardSlots>>,
}

impl SharedCounters {
    /// Counters for `shards` shards.
    pub fn new(shards: usize) -> Self {
        SharedCounters {
            recovering: AtomicU64::new(0),
            bell: Bell::default(),
            slots: (0..shards)
                .map(|_| CachePadded::new(ShardSlots::default()))
                .collect(),
        }
    }

    /// A shard enters recovery (custody sweep about to retire envelopes,
    /// or a cold start about to replay). Must be published before the
    /// first sweep retirement so a probe that observes swept-balanced
    /// books also observes the gate (the increment is sequenced before
    /// the sweep's counter stores).
    pub fn recovery_begin(&self) {
        self.recovering.fetch_add(1, Ordering::SeqCst);
    }

    /// The shard finished replay; every swept envelope's effects have
    /// been re-derived and re-counted, so the books are trustworthy again.
    pub fn recovery_end(&self) {
        self.recovering.fetch_sub(1, Ordering::SeqCst);
    }

    /// The slot owned by shard `id`.
    #[inline]
    pub fn slot(&self, id: usize) -> &ShardSlots {
        &self.slots[id]
    }

    /// True while some shard is between a custody sweep (or a cold start)
    /// and the end of its replay. Read after a shard's `ingested`, a
    /// lowered gate says every pull that count covers has run: a sweep
    /// raises the gate before it re-publishes `ingested`.
    pub(crate) fn recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst) != 0
    }

    fn sum_processed(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.processed.load(Ordering::SeqCst))
            .sum()
    }

    fn sum_sent(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.sent.load(Ordering::SeqCst))
            .sum()
    }

    fn sum_ingested(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.ingested.load(Ordering::SeqCst))
            .sum()
    }

    fn sum_fed(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.fed.load(Ordering::SeqCst))
            .sum()
    }

    /// One four-counter quiescence probe. Sound (no false positives):
    /// `processed` for an envelope is only ever published after its `sent`
    /// was published, so with R read strictly before S, `S == R` implies no
    /// envelope is unprocessed; `ingested == fed` implies no stream event
    /// is pending. May return false negatives (probe again).
    pub fn quiescent_probe(&self) -> bool {
        if self.sum_ingested() != self.sum_fed() {
            return false;
        }
        // Wave 1: received/processed counts (R).
        let r = self.sum_processed();
        // Wave 2: sent counts (S) — strictly after wave 1.
        let s = self.sum_sent();
        if s != r {
            return false;
        }
        // Recovery gate, read strictly after the counters: if the balance
        // we just read includes a custody sweep's retirements, that
        // sweep's stores synchronize-with our reads, which makes the
        // sweeping shard's earlier `recovery_begin` visible here — so a
        // mid-recovery balance is always rejected. (A nonzero reading is
        // a false negative at worst; the probe retries.)
        !self.recovering()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Simulates the publication discipline for one shard.
    struct Sim<'a> {
        c: &'a SharedCounters,
        id: usize,
        sent: u64,
        processed: u64,
    }

    impl<'a> Sim<'a> {
        fn new(c: &'a SharedCounters, id: usize) -> Self {
            Sim {
                c,
                id,
                sent: 0,
                processed: 0,
            }
        }
        fn send(&mut self) {
            self.sent += 1;
            self.c.slot(self.id).sent.store(self.sent, Ordering::SeqCst);
        }
        fn process(&mut self) {
            self.processed += 1;
            self.c
                .slot(self.id)
                .processed
                .store(self.processed, Ordering::SeqCst);
        }
    }

    #[test]
    fn deadline_none_never_expires() {
        let d = Deadline::new(None);
        assert!(!d.expired());
        let d = Deadline::new(Some(Duration::ZERO));
        assert!(d.expired());
        let d = Deadline::new(Some(Duration::from_secs(3600)));
        assert!(!d.expired());
        assert!(d.waited() < Duration::from_secs(3600));
    }

    #[test]
    fn bell_wait_returns_at_once_when_done() {
        let bell = Bell::default();
        let start = Instant::now();
        assert!(bell.wait(Duration::from_secs(10), || true));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn bell_loses_no_ring() {
        // The ringer publishes round r only after the waiter has seen
        // r - 1, so most rounds end in a real wait. A lost ring costs
        // that wait its full timeout, which no single wait may reach.
        const ROUNDS: u64 = 10_000;
        const TIMEOUT: Duration = Duration::from_secs(10);
        let bell = Arc::new(Bell::default());
        let published = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(AtomicU64::new(0));
        let ringer = {
            let (bell, published, seen) = (bell.clone(), published.clone(), seen.clone());
            std::thread::spawn(move || {
                for r in 1..=ROUNDS {
                    while seen.load(Ordering::SeqCst) < r - 1 {
                        std::thread::yield_now();
                    }
                    published.store(r, Ordering::SeqCst);
                    bell.ring();
                }
            })
        };
        for r in 1..=ROUNDS {
            loop {
                let start = Instant::now();
                let done = bell.wait(TIMEOUT, || published.load(Ordering::SeqCst) >= r);
                let waited = start.elapsed();
                assert!(waited < TIMEOUT, "round {r} lost its ring ({waited:?})");
                if done {
                    break;
                }
            }
            seen.store(r, Ordering::SeqCst);
        }
        ringer.join().unwrap();
    }

    #[test]
    fn four_counter_basics() {
        let c = SharedCounters::new(2);
        assert!(c.quiescent_probe(), "empty system is quiescent");
        let mut s0 = Sim::new(&c, 0);
        s0.send();
        assert!(!c.quiescent_probe(), "in-flight envelope detected");
        s0.process();
        assert!(c.quiescent_probe());
    }

    #[test]
    fn stream_injection_blocks_quiescence() {
        let c = SharedCounters::new(1);
        c.slot(0).fed.store(5, Ordering::SeqCst);
        assert!(!c.quiescent_probe(), "uningested stream events pending");
        c.slot(0).ingested.store(5, Ordering::SeqCst);
        assert!(c.quiescent_probe());
    }
}
