//! Quiescence / termination detection.
//!
//! "Processing completes when all visitors have completed, which is
//! determined by a distributed quiescence detection algorithm" (§III-F,
//! citing Pearce et al. \[24\]). The engine runs one detector, Mattern's
//! *four-counter method*: every shard owns monotone `sent` / `processed`
//! counters (per snapshot-epoch parity) on its own padded cache line,
//! published with plain atomic stores — there is **no shared
//! read-modify-write on the data path**. The controller probes in two
//! waves: first it sums `processed` (R), then `sent` (S); because a shard
//! publishes `sent` *before* an envelope becomes receivable, published
//! S ≥ published R always, and `S == R` proves no envelope is in flight or
//! buffered. Stream ingestion is covered by a third monotone counter pair
//! (`injected` by the controller, `ingested` by shards). Two counting
//! waves over per-rank counters is also the shape of the detector the
//! paper cites (HavoqGT's), with the controller's reads standing in for
//! its all-reduce.
//!
//! The per-parity split is what the snapshot protocol (§III-D) uses to know
//! when all events of the *previous* epoch have drained without pausing the
//! new epoch's stream.

use crate::event::Epoch;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

/// Capped exponential backoff for controller wait loops: starts near a
/// busy-wait for snappy short waits, doubles toward `cap` so an idle
/// controller stops burning a core on fixed-interval probing.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    cur: Duration,
    cap: Duration,
}

impl Backoff {
    /// Starts at `start`, doubling up to `cap`.
    pub fn new(start: Duration, cap: Duration) -> Self {
        Backoff { cur: start, cap }
    }

    /// Default controller probe backoff: 20µs doubling to 1ms.
    pub fn probe() -> Self {
        Self::new(Duration::from_micros(20), Duration::from_millis(1))
    }

    /// The next wait duration (doubles toward the cap).
    pub fn next_wait(&mut self) -> Duration {
        let d = self.cur;
        self.cur = (self.cur * 2).min(self.cap);
        d
    }
}

/// Wall-clock meter for quiescence-detection latency: started when the
/// controller enters a detection wait, read when the probe first succeeds.
/// Lives here so the latency definition sits next to the detector it
/// measures; samples land in the telemetry `quiesce` histogram and surface
/// as p50/p99/p999 in [`RunMetrics`](crate::RunMetrics).
#[derive(Debug, Clone, Copy)]
pub struct DetectionTimer {
    start: Instant,
}

impl DetectionTimer {
    /// Starts the clock (call on entry to the detection wait).
    pub fn begin() -> Self {
        DetectionTimer {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since the wait began (saturating).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One participant's published monotone counters. Each lives on its own
/// cache line; only the owner writes it (plain stores), only the controller
/// reads it.
#[derive(Debug, Default)]
pub struct ShardSlots {
    /// Envelopes created, by epoch parity. Published **before** the
    /// envelope can be received anywhere (the four-counter soundness
    /// condition).
    pub sent: [AtomicU64; 2],
    /// Envelopes fully processed (including the publication of any derived
    /// envelopes), by epoch parity.
    pub processed: [AtomicU64; 2],
    /// Topology events pulled from this shard's input streams.
    pub ingested: AtomicU64,
    /// Last epoch this shard has observed (snapshot barrier ack).
    pub epoch_ack: AtomicU32,
}

/// Engine-wide bookkeeping: the epoch cell, the controller's injection
/// count, and one padded [`ShardSlots`] per shard plus one extra slot
/// (index `P`) for envelopes the controller itself creates (`init_vertex`).
#[derive(Debug)]
pub struct SharedCounters {
    /// Current snapshot epoch; stream events are tagged with this.
    pub epoch: AtomicU32,
    /// Total topology events handed to shards (controller-written).
    pub injected: AtomicU64,
    /// Shards currently between a custody sweep and the end of their
    /// WAL replay. The sweep retires every swept envelope against the
    /// books (they balance) *before* replay has regenerated the swept
    /// work, so the four-counter reading alone is no longer a fixpoint
    /// witness in that window — the probe refuses while this is nonzero.
    recovering: AtomicU64,
    slots: Vec<CachePadded<ShardSlots>>,
}

impl SharedCounters {
    /// Counters for `shards` shards (plus the controller slot).
    pub fn new(shards: usize) -> Self {
        SharedCounters {
            epoch: AtomicU32::new(0),
            injected: AtomicU64::new(0),
            recovering: AtomicU64::new(0),
            slots: (0..=shards)
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

    /// The slot owned by `id` (shards use their index; the controller uses
    /// `num_shards`).
    #[inline]
    pub fn slot(&self, id: usize) -> &ShardSlots {
        &self.slots[id]
    }

    /// Index of the controller's slot.
    #[inline]
    pub fn controller_slot(&self) -> usize {
        self.slots.len() - 1
    }

    fn sum_processed(&self, parity: usize) -> u64 {
        self.slots
            .iter()
            .map(|s| s.processed[parity].load(Ordering::SeqCst))
            .sum()
    }

    fn sum_sent(&self, parity: usize) -> u64 {
        self.slots
            .iter()
            .map(|s| s.sent[parity].load(Ordering::SeqCst))
            .sum()
    }

    fn sum_ingested(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.ingested.load(Ordering::SeqCst))
            .sum()
    }

    /// One four-counter quiescence probe. Sound (no false positives):
    /// `processed` for an envelope is only ever published after its `sent`
    /// was published, so with R read strictly before S, `S == R` implies no
    /// envelope is unprocessed; `ingested == injected` implies no stream
    /// event is pending. May return false negatives (probe again).
    pub fn quiescent_probe(&self) -> bool {
        if self.sum_ingested() != self.injected.load(Ordering::SeqCst) {
            return false;
        }
        // Wave 1: received/processed counts (R).
        let r = [self.sum_processed(0), self.sum_processed(1)];
        // Wave 2: sent counts (S) — strictly after wave 1.
        let s = [self.sum_sent(0), self.sum_sent(1)];
        if s != r {
            return false;
        }
        // Recovery gate, read strictly after the counters: if the balance
        // we just read includes a custody sweep's retirements, that
        // sweep's stores synchronize-with our reads, which makes the
        // sweeping shard's earlier `recovery_begin` visible here — so a
        // mid-recovery balance is always rejected. (A nonzero reading is
        // a false negative at worst; the probe retries.)
        self.recovering.load(Ordering::SeqCst) == 0
    }

    /// Four-counter probe restricted to one epoch's parity class — used by
    /// the snapshot protocol to wait for the old epoch to drain. Only sound
    /// once no *new* events of that parity can be born (the epoch-ack
    /// barrier guarantees that for stream events; cascades of the old epoch
    /// are covered by the counters themselves).
    pub fn drained_probe(&self, epoch: Epoch) -> bool {
        let p = (epoch & 1) as usize;
        let r = self.sum_processed(p);
        let s = self.sum_sent(p);
        // Same recovery gate as `quiescent_probe`: a sweep retires the
        // old parity's swept envelopes too, so a mid-recovery "drained"
        // reading would let a snapshot cut before replay re-derives them.
        s == r && self.recovering.load(Ordering::SeqCst) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates the publication discipline for one shard.
    struct Sim<'a> {
        c: &'a SharedCounters,
        id: usize,
        sent: [u64; 2],
        processed: [u64; 2],
    }

    impl<'a> Sim<'a> {
        fn new(c: &'a SharedCounters, id: usize) -> Self {
            Sim {
                c,
                id,
                sent: [0; 2],
                processed: [0; 2],
            }
        }
        fn send(&mut self, epoch: Epoch) {
            let p = (epoch & 1) as usize;
            self.sent[p] += 1;
            self.c.slot(self.id).sent[p].store(self.sent[p], Ordering::SeqCst);
        }
        fn process(&mut self, epoch: Epoch) {
            let p = (epoch & 1) as usize;
            self.processed[p] += 1;
            self.c.slot(self.id).processed[p].store(self.processed[p], Ordering::SeqCst);
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
    fn detection_timer_measures_elapsed() {
        let t = DetectionTimer::begin();
        let first = t.elapsed_ns();
        std::thread::sleep(Duration::from_millis(1));
        let second = t.elapsed_ns();
        assert!(second > first);
        assert!(second >= 1_000_000, "slept at least 1ms, got {second}ns");
    }

    #[test]
    fn backoff_doubles_to_cap() {
        let mut b = Backoff::new(Duration::from_micros(100), Duration::from_micros(350));
        assert_eq!(b.next_wait(), Duration::from_micros(100));
        assert_eq!(b.next_wait(), Duration::from_micros(200));
        assert_eq!(b.next_wait(), Duration::from_micros(350));
        assert_eq!(b.next_wait(), Duration::from_micros(350), "stays at cap");
    }

    #[test]
    fn four_counter_basics() {
        let c = SharedCounters::new(2);
        assert!(c.quiescent_probe(), "empty system is quiescent");
        let mut s0 = Sim::new(&c, 0);
        s0.send(0);
        assert!(!c.quiescent_probe(), "in-flight envelope detected");
        s0.process(0);
        assert!(c.quiescent_probe());
    }

    #[test]
    fn parity_classes_are_independent() {
        let c = SharedCounters::new(1);
        let mut s = Sim::new(&c, 0);
        s.send(2); // parity 0
        s.send(3); // parity 1
        assert!(!c.drained_probe(2));
        assert!(!c.drained_probe(3));
        s.process(2);
        assert!(c.drained_probe(2));
        assert!(!c.drained_probe(3));
        s.process(3);
        assert!(c.drained_probe(3));
    }

    #[test]
    fn stream_injection_blocks_quiescence() {
        let c = SharedCounters::new(1);
        c.injected.store(5, Ordering::SeqCst);
        assert!(!c.quiescent_probe(), "uningested stream events pending");
        c.slot(0).ingested.store(5, Ordering::SeqCst);
        assert!(c.quiescent_probe());
    }

    #[test]
    fn controller_slot_counts() {
        let c = SharedCounters::new(2);
        let ctl = c.controller_slot();
        assert_eq!(ctl, 2);
        c.slot(ctl).sent[0].store(1, Ordering::SeqCst);
        assert!(!c.quiescent_probe());
        let mut s1 = Sim::new(&c, 1);
        s1.process(0); // the shard that received the init retires it
        assert!(c.quiescent_probe());
    }
}
