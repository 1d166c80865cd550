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
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

/// Rollbacks a durable engine takes after contained panics; the next
/// panic records a permanent [`ShardFailure`](crate::ShardFailure) and the
/// run degrades exactly as with durability off.
pub(crate) const MAX_ROLLBACKS: u32 = 3;

/// How a shard's wait at a rollback stage ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// Every shard has arrived and this one came last: it does the
    /// stage's one-shard work, then [`Rollback::release`]s the others.
    Leader,
    /// The leader released the stage.
    Passed,
    /// A newer rollback began, or the rollback halted: this one is over.
    Aborted,
}

/// A durable engine's rollback, whole: the epoch shards poll, the gate
/// quiescence waits behind, the cut recovery restores, and the stages
/// every shard meets at. A rollback (DESIGN.md §14) runs in three stages:
/// 0, each shard drops what it holds; 1, each drains its inbound lanes;
/// 2, each re-runs the WAL of the cut. Stages 0 and 1 are barriers; stage
/// 2 counts shards down and lowers the gate when the last one is done.
#[derive(Debug)]
pub(crate) struct Rollback {
    shards: usize,
    /// The epoch of the latest rollback; a shard whose own epoch is
    /// behind it rolls back before its next pass.
    epoch: AtomicU64,
    /// Odd while a rollback is under way: bumped when one begins and when
    /// its last shard has re-run its tail, so a probe that reads it even
    /// before and unchanged after its counters saw no rollback between.
    gate: AtomicU64,
    /// The cut the MANIFEST names (0: none yet).
    cut: AtomicU64,
    /// Set when a shard is lost for good or the controller stops the
    /// shards: one that has stopped arrives nowhere, so nobody waits.
    halted: AtomicBool,
    stages: Mutex<Stages>,
    moved: Condvar,
}

#[derive(Debug, Default)]
struct Stages {
    epoch: u64,
    stage: u32,
    arrived: usize,
    spent: u32,
}

impl Rollback {
    fn new(shards: usize) -> Self {
        Rollback {
            shards,
            epoch: AtomicU64::new(0),
            gate: AtomicU64::new(0),
            cut: AtomicU64::new(0),
            halted: AtomicBool::new(false),
            stages: Mutex::default(),
            moved: Condvar::new(),
        }
    }

    fn stages(&self) -> MutexGuard<'_, Stages> {
        self.stages.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts epoch `epoch + 1` under the lock, gate raised.
    fn bump(&self, st: &mut Stages) {
        st.epoch += 1;
        (st.stage, st.arrived) = (0, 0);
        self.gate.fetch_or(1, Ordering::SeqCst);
        self.epoch.store(st.epoch, Ordering::SeqCst);
        self.moved.notify_all();
    }

    /// A durable engine's start: every shard runs the recovery path once
    /// (restore cut `cut`, re-run its WAL), behind the gate, before it
    /// takes any new work. Spends no budget.
    pub(crate) fn start(&self, cut: u64) {
        self.cut.store(cut, Ordering::SeqCst);
        self.bump(&mut self.stages());
    }

    /// The panicking shard: begins a rollback while the budget lasts.
    pub(crate) fn begin(&self) -> bool {
        let mut st = self.stages();
        let granted = st.spent < MAX_ROLLBACKS;
        if granted {
            st.spent += 1;
            self.bump(&mut st);
        }
        granted
    }

    /// The epoch of the latest rollback.
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The cut the MANIFEST names.
    pub(crate) fn cut(&self) -> u64 {
        self.cut.load(Ordering::SeqCst)
    }

    /// True while a rollback is under way.
    pub(crate) fn raised(&self) -> bool {
        self.gate.load(Ordering::SeqCst) & 1 != 0
    }

    /// Shard arrival at barrier `stage` of `epoch`: waits for every shard,
    /// unless a newer rollback begins or the rollback halts.
    pub(crate) fn arrive(&self, epoch: u64, stage: u32) -> Arrival {
        let mut st = self.stages();
        if st.epoch != epoch {
            return Arrival::Aborted;
        }
        st.arrived += 1;
        if st.arrived == self.shards {
            return Arrival::Leader;
        }
        loop {
            st = self
                .moved
                .wait_timeout(st, HEARTBEAT)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            if st.epoch != epoch || self.halted.load(Ordering::SeqCst) {
                return Arrival::Aborted;
            }
            if st.stage > stage {
                return Arrival::Passed;
            }
        }
    }

    /// The leader of a barrier stage: lets the others past it.
    pub(crate) fn release(&self, epoch: u64) {
        let mut st = self.stages();
        if st.epoch == epoch {
            (st.stage, st.arrived) = (st.stage + 1, 0);
            self.moved.notify_all();
        }
    }

    /// A shard has re-run its tail (stage 2): the last one lowers the gate.
    pub(crate) fn finish(&self, epoch: u64) {
        let mut st = self.stages();
        if st.epoch == epoch && st.stage == 2 {
            st.arrived += 1;
            if st.arrived == self.shards {
                st.stage = 3;
                self.lower();
            }
        }
    }

    /// A shard is lost for good, or the controller stops every shard:
    /// nobody will finish a rollback under way, so no barrier waits any
    /// more and the gate comes down (the degraded paths read the failure
    /// board).
    pub(crate) fn halt(&self) {
        let _st = self.stages();
        self.halted.store(true, Ordering::SeqCst);
        self.lower();
    }

    fn lower(&self) {
        if self.raised() {
            self.gate.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Names cut `cut` once `publish` (the MANIFEST write) succeeds — if
    /// no rollback began since `epoch`, under the lock a rollback begins
    /// under, so every shard of one rollback restores the same cut.
    pub(crate) fn publish_cut<E>(
        &self,
        epoch: u64,
        cut: u64,
        publish: impl FnOnce() -> Result<(), E>,
    ) -> Result<bool, E> {
        let st = self.stages();
        if st.epoch != epoch || self.raised() {
            return Ok(false);
        }
        publish()?;
        self.cut.store(cut, Ordering::SeqCst);
        Ok(true)
    }
}

/// Engine-wide bookkeeping: the rollback, the bell and one padded
/// [`ShardSlots`] per shard. Every envelope is created by a shard: the controller's
/// inputs, `Init`s included, are pulls, counted by `fed` and `ingested`.
#[derive(Debug)]
pub struct SharedCounters {
    /// A durable engine's rollback and its gate: the four-counter reading
    /// is no fixpoint witness while shards discard and re-run work, so
    /// the probe refuses while the gate is raised.
    pub(crate) rollback: Rollback,
    /// Rung by shards at a park that may be the last, an emptied chunk
    /// and an exit.
    pub bell: Bell,
    slots: Vec<CachePadded<ShardSlots>>,
}

impl SharedCounters {
    /// Counters for `shards` shards.
    pub fn new(shards: usize) -> Self {
        SharedCounters {
            rollback: Rollback::new(shards),
            bell: Bell::default(),
            slots: (0..shards)
                .map(|_| CachePadded::new(ShardSlots::default()))
                .collect(),
        }
    }

    /// The slot owned by shard `id`.
    #[inline]
    pub fn slot(&self, id: usize) -> &ShardSlots {
        &self.slots[id]
    }

    /// Envelopes sent and not processed, as published. With every shard
    /// stopped at a rollback barrier, these are the ones a panic lost.
    pub(crate) fn in_flight(&self) -> u64 {
        self.sum_sent() - self.sum_processed()
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
        // The gate, read before and after the counters: even and unchanged
        // means no rollback discarded or re-ran work in between.
        let gate = self.rollback.gate.load(Ordering::SeqCst);
        if gate & 1 != 0 || self.sum_ingested() != self.sum_fed() {
            return false;
        }
        // Wave 1: received/processed counts (R).
        let r = self.sum_processed();
        // Wave 2: sent counts (S) — strictly after wave 1.
        let s = self.sum_sent();
        s == r && self.rollback.gate.load(Ordering::SeqCst) == gate
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
    fn rollback_budget_is_three() {
        let c = SharedCounters::new(1);
        let granted = (0..5).filter(|_| c.rollback.begin()).count();
        assert_eq!(granted, MAX_ROLLBACKS as usize);
    }

    /// The gate is up from a rollback's start until its last shard re-ran
    /// its tail: balanced books do not read quiescent meanwhile. A stage
    /// of an overtaken epoch aborts.
    #[test]
    fn a_rollback_holds_the_probe_off_until_every_shard_re_ran() {
        let c = SharedCounters::new(1);
        let r = &c.rollback;
        r.start(4);
        assert_eq!((r.epoch(), r.cut()), (1, 4));
        assert!(r.raised() && !c.quiescent_probe());
        for stage in 0..2 {
            assert_eq!(r.arrive(1, stage), Arrival::Leader);
            r.release(1);
        }
        assert!(!c.quiescent_probe(), "the re-run is still to come");
        r.finish(1);
        assert!(!r.raised() && c.quiescent_probe());
        assert!(r.begin());
        assert_eq!(r.arrive(1, 0), Arrival::Aborted, "epoch 2 now");
        assert_eq!(r.publish_cut(2, 5, || Ok::<(), ()>(())), Ok(false));
        r.halt();
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
