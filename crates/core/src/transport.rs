//! The data plane: how visitor-message batches move between shards.
//!
//! A P×P mesh of bounded lock-free SPSC rings (`LaneMesh`), one ring per
//! ordered pair, so that no batch crosses a queue contended by the other
//! P−1 peers and the controller:
//!
//! - **Data lanes** carry `Vec<Envelope>` batches from one sender to one
//!   receiver, so the receive path is an uncontended per-lane poll — no
//!   MPMC dequeue, no lock, two atomic words per lane. A batch's buffer
//!   lives from its sender's flush to its receiver's drain.
//! - A **full** data lane never blocks the sender and never reroutes the
//!   batch: `LaneMesh::send` hands it back and the sender keeps it, in
//!   order, until the lane has room (`ShardWorker::do_flush`). The lane is
//!   the pair's only data path, so its FIFO is the pair's FIFO.
//! - Idle shards **park** (`ParkBoard`) instead of timeout-polling:
//!   senders unpark the receiver after publishing into its lane, and
//!   `IDLE_PARK` is a fallback heartbeat rather than the wake latency.
//!
//! Control traffic (Chunk/Collect/Query/Shutdown) stays on the per-shard
//! `std::sync::mpsc` channel — it is rare, and the channel's
//! blocking-receive semantics are exactly right for it. Only the
//! controller sends on it, and it carries no envelope: an `Init` or a
//! registry control op reaches a shard as one more chunk of its input
//! stream.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::event::Envelope;

/// Pads and aligns a value to 128 bytes, so that two values written by
/// different threads never share a cache line (x86-64 prefetches lines in
/// pairs, and 128 B is one line on Apple's aarch64).
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    pub(crate) const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Batches a data lane can hold before the sender starts holding them
/// back. Bounded so a stalled receiver's backlog piles up at its sender,
/// where it is visible, instead of as unbounded lane memory.
const LANE_CAP: usize = 32;

/// Bits per word of a [`PendingSet`].
const PENDING_WORD_BITS: usize = 64;

/// The engine's shard cap: 4,096, far past any engine this crate will
/// ever spawn as threads, with a receiver's pending set at 64 words. A
/// config beyond it is rejected at engine build (see
/// `EngineBuilder::build`).
pub(crate) const MAX_LANE_SHARDS: usize = PENDING_WORD_BITS * PENDING_WORD_BITS;

/// One receiver's pending-senders bitmap: one word per 64 senders.
///
/// Bit `from` (word `from / 64`, bit `from % 64`) says "sender `from` has
/// published work for this receiver". A sender sets its bit after its
/// lane push (Release); the receiver claims each non-zero word with
/// `swap(0, Acquire)`. A sender racing a claim lands its bit either
/// before the swap (the claim takes it) or after (the next claim does),
/// so a flag is never stranded. Up to 64 shards every probe is one load.
pub(crate) struct PendingSet {
    /// One bit per potential sender, `ceil(shards / 64)` words.
    words: Box<[CachePadded<AtomicU64>]>,
}

impl PendingSet {
    pub(crate) fn new(shards: usize) -> Self {
        assert!(shards <= MAX_LANE_SHARDS);
        let nwords = shards.div_ceil(PENDING_WORD_BITS).max(1);
        PendingSet {
            words: (0..nwords)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Sender side: flags `from` as pending. Release, so a receiver that
    /// observes the flag (Acquire) also observes the lane push that
    /// preceded this call.
    #[inline]
    pub(crate) fn set(&self, from: usize) {
        let (w, b) = (from / PENDING_WORD_BITS, from % PENDING_WORD_BITS);
        self.words[w].fetch_or(1 << b, Ordering::Release);
    }

    /// Receiver/observer probe: true when no sender is flagged. One load
    /// per word.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::Acquire) == 0)
    }

    /// Receiver side: claims every flagged sender (clearing the flags),
    /// appending their ids to `out` in ascending order. A Relaxed probe
    /// skips the swap on an empty word. Returns how many senders were
    /// claimed.
    #[inline]
    pub(crate) fn claim_into(&self, out: &mut Vec<usize>) -> usize {
        let before = out.len();
        for (w, word) in self.words.iter().enumerate() {
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::Acquire);
            while bits != 0 {
                out.push(w * PENDING_WORD_BITS + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out.len() - before
    }

    /// Clears `from`'s flag without claiming the rest (dead-receiver lane
    /// reclaim).
    #[inline]
    pub(crate) fn clear(&self, from: usize) {
        let (w, b) = (from / PENDING_WORD_BITS, from % PENDING_WORD_BITS);
        self.words[w].fetch_and(!(1u64 << b), Ordering::Relaxed);
    }
}

/// The crate's whole `unsafe` surface: the SPSC ring's two `unsafe impl`s,
/// one slot write and one slot read. `#![deny(unsafe_code)]` at the crate
/// root makes this `allow` the only place it can grow.
#[allow(unsafe_code)]
mod ring {
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::CachePadded;

    /// A bounded single-producer single-consumer ring.
    ///
    /// Monotone head/tail indices over a power-of-two slot array: `tail` is
    /// written only by the producer, `head` only by the consumer, each on its
    /// own cache line. `push`/`pop` are lock-free and wait-free — one Acquire
    /// load of the opposite index, one slot access, one Release store.
    ///
    /// The single-producer/single-consumer discipline is enforced by
    /// convention, not by types: within [`super::LaneMesh`], lane `(s, r)` is pushed
    /// only by shard thread `s` and popped only by shard thread `r` (see
    /// [`super::LaneMesh::reclaim`] for the one documented exception). Violating the
    /// discipline is a data race on the slot array.
    pub(crate) struct SpscRing<T> {
        mask: usize,
        buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
        /// Next slot to pop (consumer-owned; producer reads to detect full).
        head: CachePadded<AtomicUsize>,
        /// Next slot to push (producer-owned; consumer reads to detect empty).
        tail: CachePadded<AtomicUsize>,
    }

    // SAFETY: the ring moves `T` values across threads (producer writes a
    // slot, consumer takes it), which is exactly the `T: Send` contract; the
    // head/tail protocol guarantees a slot is never accessed by both sides at
    // once, so no `&T` is ever shared.
    unsafe impl<T: Send> Send for SpscRing<T> {}
    unsafe impl<T: Send> Sync for SpscRing<T> {}

    impl<T> SpscRing<T> {
        /// `cap` must be a power of two (the index mask depends on it).
        pub(crate) fn with_capacity(cap: usize) -> Self {
            assert!(
                cap.is_power_of_two(),
                "ring capacity must be a power of two"
            );
            SpscRing {
                mask: cap - 1,
                buf: (0..cap)
                    .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                    .collect(),
                head: CachePadded::new(AtomicUsize::new(0)),
                tail: CachePadded::new(AtomicUsize::new(0)),
            }
        }

        /// Producer side: appends `value`, or returns it when the ring is full.
        pub(crate) fn push(&self, value: T) -> Result<(), T> {
            let tail = self.tail.load(Ordering::Relaxed);
            // Acquire pairs with the consumer's Release in `pop`: a freed slot
            // must be observed freed before we overwrite it.
            let head = self.head.load(Ordering::Acquire);
            if tail.wrapping_sub(head) > self.mask {
                return Err(value);
            }
            // SAFETY: `tail - head <= mask` means slot `tail & mask` is not
            // occupied, and only this (sole) producer writes slots at `tail`.
            unsafe { (*self.buf[tail & self.mask].get()).write(value) };
            // Release publishes the slot write before the index advance.
            self.tail.store(tail.wrapping_add(1), Ordering::Release);
            Ok(())
        }

        /// Consumer side: takes the oldest value, if any.
        pub(crate) fn pop(&self) -> Option<T> {
            let head = self.head.load(Ordering::Relaxed);
            // Acquire pairs with the producer's Release in `push`.
            let tail = self.tail.load(Ordering::Acquire);
            if head == tail {
                return None;
            }
            // SAFETY: `head != tail` means slot `head & mask` holds an
            // initialized value the producer published (Acquire above), and
            // only this (sole) consumer reads slots at `head`.
            let value = unsafe { (*self.buf[head & self.mask].get()).assume_init_read() };
            // Release frees the slot for the producer's full-check.
            self.head.store(head.wrapping_add(1), Ordering::Release);
            Some(value)
        }

        /// True when nothing is buffered (either side may probe).
        #[cfg(test)]
        pub(crate) fn is_empty(&self) -> bool {
            self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire)
        }

        /// Approximate occupancy (either side or an observer may probe; the
        /// two independent loads make it momentarily stale, never unsafe).
        /// Feeds the telemetry lane-occupancy gauge.
        pub(crate) fn len(&self) -> usize {
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            tail.wrapping_sub(head)
        }
    }

    impl<T> Drop for SpscRing<T> {
        fn drop(&mut self) {
            // `&mut self`: both roles are ours now; release leftover values.
            while self.pop().is_some() {}
        }
    }
}

use ring::SpscRing;

/// One pair's data lane: envelope batches from one sender to one receiver.
type Lane<S> = SpscRing<Vec<Envelope<S>>>;

/// The P×P lane mesh: one data lane per ordered pair. One per engine,
/// shared by every shard.
///
/// All methods name a pair as `(from, to)` = (sending shard, receiving
/// shard). Lane `(from, to)` is produced by `from` and consumed by `to`.
///
/// Every ring is allocated up front by whoever builds the mesh (the
/// controller thread, in `Engine::build`), so a lane exists before any
/// shard can send on it: `send` fails only when the lane is full.
pub(crate) struct LaneMesh<S> {
    /// `columns[to][from]`: envelope batches in flight from `from` to `to`.
    columns: Vec<Box<[Lane<S>]>>,
    /// `inbound[to]`: bitmap of senders with batches parked in their lane
    /// to `to` (bit `from` set by the sender *after* its lane push,
    /// Release; claimed wholesale by the receiver's drain). Lets the
    /// receiver's hot loop probe "anything for me?" without scanning P
    /// lanes, and tells it exactly which lanes to drain. A stale set bit
    /// over an already-drained lane is harmless (the drain finds it
    /// empty); a cleared bit is always re-set by the next push.
    inbound: Vec<PendingSet>,
}

impl<S> LaneMesh<S> {
    /// Mesh with every lane allocated by the calling thread.
    pub(crate) fn new(shards: usize) -> Self {
        assert!(
            shards <= MAX_LANE_SHARDS,
            "lane mesh is capped at {MAX_LANE_SHARDS} shards"
        );
        LaneMesh {
            columns: (0..shards)
                .map(|_| {
                    (0..shards)
                        .map(|_| SpscRing::with_capacity(LANE_CAP))
                        .collect()
                })
                .collect(),
            inbound: (0..shards).map(|_| PendingSet::new(shards)).collect(),
        }
    }

    /// Sender `from`: ships a batch to `to`, or hands it back when the
    /// lane is full (the caller holds it and retries). On success the
    /// sender's bit in the receiver's pending bitmap is set *after* the
    /// push, so a receiver that observes the bit will find the batch.
    #[inline]
    pub(crate) fn send(
        &self,
        from: usize,
        to: usize,
        batch: Vec<Envelope<S>>,
    ) -> Result<(), Vec<Envelope<S>>> {
        self.columns[to][from].push(batch)?;
        self.inbound[to].set(from);
        Ok(())
    }

    /// Receiver `to`: next in-flight batch from `from`, if any.
    #[inline]
    pub(crate) fn recv(&self, from: usize, to: usize) -> Option<Vec<Envelope<S>>> {
        self.columns[to][from].pop()
    }

    /// True when any sender has flagged a batch for `to` — no lane scan.
    /// May briefly lag a push whose flag is not yet set; the Dekker
    /// parking protocol covers that window (the sender's `wake` comes
    /// after the flag).
    #[inline]
    pub(crate) fn has_inbound(&self, to: usize) -> bool {
        !self.inbound[to].is_empty()
    }

    /// Receiver `to`: claims the current pending-senders set (clearing
    /// it), appending the flagged sender ids to `out` in ascending order —
    /// the caller drains exactly those lanes. Returns how many senders
    /// were claimed.
    #[inline]
    pub(crate) fn claim_pending_into(&self, to: usize, out: &mut Vec<usize>) -> usize {
        self.inbound[to].claim_into(out)
    }

    /// Observer: batches currently parked in `to`'s inbound data lanes,
    /// summed over all senders — the telemetry lane-occupancy gauge. Each
    /// lane's occupancy is an independent racy probe; the sum is a
    /// point-in-time estimate, which is all a gauge needs.
    pub(crate) fn inbound_occupancy(&self, to: usize) -> usize {
        self.columns[to].iter().map(SpscRing::len).sum()
    }

    /// Sender `from`: drains its own data lane to a **dead** receiver so
    /// the in-flight envelopes can be retired into the undeliverable
    /// accounting (a dead shard can never pop them, and quiescence over
    /// the survivors is unreachable while they count as in flight).
    ///
    /// This is the one sanctioned breach of the SPSC role split: the
    /// producer pops its own lane. Sound only because the caller observed
    /// the consumer's death on the failure board, whose record is
    /// published strictly after the consumer thread's last pop.
    pub(crate) fn reclaim(&self, from: usize, to: usize) -> Vec<Vec<Envelope<S>>> {
        let mut batches = Vec::new();
        while let Some(b) = self.columns[to][from].pop() {
            batches.push(b);
        }
        self.inbound[to].clear(from);
        batches
    }
}

/// Per-shard sleep flags + thread handles for event-driven wakeups.
///
/// The protocol (Dekker-style, SeqCst on both sides):
///
/// - Receiver, before parking: store `asleep = true`, then re-check its
///   inbound lanes and channel; only park if both are empty.
/// - Sender, after publishing work: read-and-clear `asleep`; if it was
///   set, `unpark` the receiver.
///
/// The SeqCst orderings guarantee at least one side sees the other: either
/// the sender's publish precedes the receiver's re-check (work is found,
/// no park), or the receiver's `asleep` store precedes the sender's swap
/// (the sender unparks). `std::thread::park` carries a wake token, so an
/// unpark landing before the park is not lost — and even a missed wake
/// only costs one [`IDLE_PARK`] heartbeat, never a stall: parking is always
/// `park_timeout`.
pub(crate) struct ParkBoard {
    slots: Vec<CachePadded<ParkSlot>>,
}

/// How long a parked shard sleeps before re-probing on its own. Wakes are
/// event-driven, so this only bounds the (latency-only) missed-wake
/// window of the Dekker handshake.
pub(crate) const IDLE_PARK: Duration = Duration::from_micros(200);

struct ParkSlot {
    asleep: AtomicBool,
    /// Set once by the shard thread itself at startup; a `wake` arriving
    /// before registration is safely skipped (the shard is provably awake).
    thread: OnceLock<std::thread::Thread>,
}

impl ParkBoard {
    pub(crate) fn new(shards: usize) -> Self {
        ParkBoard {
            slots: (0..shards)
                .map(|_| {
                    CachePadded::new(ParkSlot {
                        asleep: AtomicBool::new(false),
                        thread: OnceLock::new(),
                    })
                })
                .collect(),
        }
    }

    /// Parks the calling thread for at most `timeout`. The caller must
    /// have announced sleep and re-checked its inbound work first (the
    /// Dekker protocol documented on the type).
    pub(crate) fn park_current(&self, timeout: Duration) {
        std::thread::park_timeout(timeout);
    }

    /// Called once by shard `id` on its own thread before the first park.
    pub(crate) fn register(&self, id: usize) {
        let _ = self.slots[id].thread.set(std::thread::current());
    }

    /// Shard `id` announces it is about to park. The caller must re-check
    /// its inbound queues *after* this call and before parking.
    pub(crate) fn announce_sleep(&self, id: usize) {
        self.slots[id].asleep.store(true, Ordering::SeqCst);
    }

    /// Shard `id` is awake again (after a park, or after finding work in
    /// the post-announce re-check).
    pub(crate) fn clear_sleep(&self, id: usize) {
        self.slots[id].asleep.store(false, Ordering::SeqCst);
    }

    /// True while shard `id` has announced sleep and nobody has woken it.
    pub(crate) fn is_asleep(&self, id: usize) -> bool {
        self.slots[id].asleep.load(Ordering::SeqCst)
    }

    /// Wakes shard `id` if it announced sleep; the caller must have
    /// already published the work being signalled. Returns whether an
    /// unpark actually fired (the `unparks` metric).
    pub(crate) fn wake(&self, id: usize) -> bool {
        let slot = &self.slots[id];
        if slot.asleep.swap(false, Ordering::SeqCst) {
            if let Some(t) = slot.thread.get() {
                t.unpark();
                return true;
            }
        }
        false
    }
}

/// The per-shard bundle every worker carries: the shared mesh and park
/// board.
pub(crate) struct LaneHandles<S> {
    pub mesh: Arc<LaneMesh<S>>,
    pub parks: Arc<ParkBoard>,
}

impl<S> Clone for LaneHandles<S> {
    fn clone(&self) -> Self {
        LaneHandles {
            mesh: Arc::clone(&self.mesh),
            parks: Arc::clone(&self.parks),
        }
    }
}

impl<S> LaneHandles<S> {
    /// A fully allocated mesh and a park board.
    pub(crate) fn new(shards: usize) -> Self {
        LaneHandles {
            mesh: Arc::new(LaneMesh::new(shards)),
            parks: Arc::new(ParkBoard::new(shards)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Envelope, EventKind};

    fn env(target: u64) -> Envelope<u64> {
        Envelope {
            target,
            visitor: 0,
            value: 0,
            weight: 1,
            kind: EventKind::Update,
            tag: 0,
        }
    }

    #[test]
    fn ring_fifo_and_capacity() {
        let ring = SpscRing::with_capacity(4);
        assert!(ring.is_empty());
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.push(99), Err(99), "full ring hands the value back");
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_wraparound_preserves_order() {
        // Interleave pushes and pops far past the capacity so head/tail
        // wrap the mask repeatedly.
        let ring = SpscRing::with_capacity(8);
        let mut expect = 0u64;
        for round in 0..100u64 {
            for i in 0..5 {
                ring.push(round * 5 + i).unwrap();
            }
            for _ in 0..5 {
                assert_eq!(ring.pop(), Some(expect));
                expect += 1;
            }
        }
    }

    #[test]
    fn ring_drop_releases_leftovers() {
        // Leak detection relies on the test allocator/moves: Box values
        // must drop cleanly when the ring drops non-empty.
        let ring = SpscRing::with_capacity(8);
        for i in 0..5 {
            ring.push(Box::new(i)).unwrap();
        }
        drop(ring);
    }

    #[test]
    fn ring_cross_thread_stress() {
        // Miri runs the whole ring, at a hundredth of the values.
        const N: u64 = if cfg!(miri) { 1_000 } else { 100_000 };
        let ring = Arc::new(SpscRing::with_capacity(64));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match ring.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            })
        };
        let mut expect = 0u64;
        while expect < N {
            if let Some(v) = ring.pop() {
                assert_eq!(v, expect, "SPSC ring reordered or lost a value");
                expect += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(ring.is_empty());
    }

    #[test]
    fn mesh_data_and_recycle_roundtrip() {
        let mesh: LaneMesh<u64> = LaneMesh::new(3);
        assert!(!mesh.has_inbound(1));
        mesh.send(0, 1, vec![env(7), env(8)]).unwrap();
        assert!(mesh.has_inbound(1));
        assert!(!mesh.has_inbound(0));
        assert!(!mesh.has_inbound(2));

        let batch = mesh.recv(0, 1).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(mesh.recv(0, 1).is_none());
    }

    #[test]
    fn mesh_pending_bitmap_tracks_senders() {
        let mesh: LaneMesh<u64> = LaneMesh::new(4);
        let mut claimed = Vec::new();
        assert_eq!(mesh.claim_pending_into(3, &mut claimed), 0);
        mesh.send(0, 3, vec![env(1)]).unwrap();
        mesh.send(2, 3, vec![env(2)]).unwrap();
        assert!(mesh.has_inbound(3));
        mesh.claim_pending_into(3, &mut claimed);
        assert_eq!(claimed, vec![0, 2], "one id per flagged sender, ascending");
        claimed.clear();
        assert_eq!(
            mesh.claim_pending_into(3, &mut claimed),
            0,
            "claim clears the bitmap"
        );
        // The claim only transfers the flags — the batches are still in
        // their lanes for the caller to drain.
        assert!(mesh.recv(0, 3).is_some());
        assert!(mesh.recv(2, 3).is_some());
    }

    #[test]
    fn pending_set_multi_word_roundtrip() {
        // 130 senders spans three words; flags straddle every word
        // boundary and must come back ascending.
        let set = PendingSet::new(130);
        assert!(set.is_empty());
        for from in [0usize, 63, 64, 65, 127, 128, 129] {
            set.set(from);
        }
        assert!(!set.is_empty());
        let mut got = Vec::new();
        assert_eq!(set.claim_into(&mut got), 7);
        assert_eq!(got, vec![0, 63, 64, 65, 127, 128, 129]);
        assert!(set.is_empty());
        got.clear();
        assert_eq!(set.claim_into(&mut got), 0, "claim cleared every word");

        // Re-arming after a claim works across words too.
        set.set(70);
        got.clear();
        set.claim_into(&mut got);
        assert_eq!(got, vec![70]);
    }

    #[test]
    fn pending_set_clear_drops_single_flag() {
        let set = PendingSet::new(96);
        set.set(3);
        set.set(80);
        set.clear(80);
        let mut got = Vec::new();
        set.claim_into(&mut got);
        assert_eq!(got, vec![3], "clear removed only the dead sender's flag");
    }

    #[test]
    fn pending_set_sees_a_flag_past_word_zero() {
        // Only the last of 130 senders is flagged: the empty probe and the
        // claim must both read past the first word.
        let set = PendingSet::new(130);
        set.set(129);
        assert!(!set.is_empty());
        let mut got = Vec::new();
        assert_eq!(set.claim_into(&mut got), 1);
        assert_eq!(got, vec![129]);
        assert!(set.is_empty());
    }

    #[test]
    fn pending_set_cross_thread_stress() {
        // Three senders spread across different words hammer flags while
        // the receiver claims; every set must eventually be claimed and no
        // id outside the senders' may ever appear.
        const ROUNDS: usize = 10_000;
        let set = Arc::new(PendingSet::new(200));
        let senders = [5usize, 77, 199];
        let handles: Vec<_> = senders
            .iter()
            .map(|&from| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        set.set(from);
                    }
                })
            })
            .collect();
        let mut seen = std::collections::HashMap::new();
        let mut buf = Vec::new();
        loop {
            buf.clear();
            set.claim_into(&mut buf);
            for &id in &buf {
                assert!(senders.contains(&id), "claimed a never-set id {id}");
                *seen.entry(id).or_insert(0usize) += 1;
            }
            if handles.iter().all(|h| h.is_finished()) {
                // One final sweep after the last set is published.
                buf.clear();
                set.claim_into(&mut buf);
                for &id in &buf {
                    *seen.entry(id).or_insert(0) += 1;
                }
                break;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(set.is_empty(), "no flag stranded after the final sweep");
        for &from in &senders {
            assert!(seen.contains_key(&from), "sender {from} never claimed");
        }
    }

    #[test]
    fn mesh_beyond_64_shards_tracks_high_senders() {
        // The lifted cap: a 96-shard mesh must route flags from senders
        // past bit 63 (second bitmap word) exactly like low ones.
        let mesh: LaneMesh<u64> = LaneMesh::new(96);
        assert!(!mesh.has_inbound(95));
        mesh.send(1, 95, vec![env(1)]).unwrap();
        mesh.send(64, 95, vec![env(2)]).unwrap();
        mesh.send(90, 95, vec![env(3)]).unwrap();
        assert!(mesh.has_inbound(95));
        let mut claimed = Vec::new();
        mesh.claim_pending_into(95, &mut claimed);
        assert_eq!(claimed, vec![1, 64, 90]);
        for &from in &claimed {
            assert!(mesh.recv(from, 95).is_some());
        }
        assert_eq!(mesh.inbound_occupancy(95), 0);
        // Reclaim from a high sender keeps the books straight too.
        mesh.send(70, 2, vec![env(4)]).unwrap();
        let batches = mesh.reclaim(70, 2);
        assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), 1);
        claimed.clear();
        assert_eq!(mesh.claim_pending_into(2, &mut claimed), 0);
    }

    #[test]
    fn mesh_occupancy_gauges_track_lanes() {
        let mesh: LaneMesh<u64> = LaneMesh::new(3);
        assert_eq!(mesh.inbound_occupancy(1), 0);
        mesh.send(0, 1, vec![env(1)]).unwrap();
        mesh.send(0, 1, vec![env(2)]).unwrap();
        mesh.send(2, 1, vec![env(3)]).unwrap();
        assert_eq!(mesh.inbound_occupancy(1), 3);
        assert_eq!(mesh.inbound_occupancy(0), 0);
        mesh.recv(0, 1).unwrap();
        assert_eq!(mesh.inbound_occupancy(1), 2);
    }

    #[test]
    fn mesh_full_lane_hands_batch_back() {
        let mesh: LaneMesh<u64> = LaneMesh::new(2);
        for _ in 0..LANE_CAP {
            mesh.send(0, 1, vec![env(1)]).unwrap();
        }
        let back = mesh.send(0, 1, vec![env(2)]).unwrap_err();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].target, 2);
    }

    #[test]
    fn mesh_reclaim_drains_own_lane() {
        let mesh: LaneMesh<u64> = LaneMesh::new(2);
        mesh.send(0, 1, vec![env(1)]).unwrap();
        mesh.send(0, 1, vec![env(2), env(3)]).unwrap();
        let batches = mesh.reclaim(0, 1);
        assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), 3);
        assert!(!mesh.has_inbound(1));
    }

    #[test]
    fn park_board_wake_requires_announce() {
        let board = ParkBoard::new(2);
        board.register(0);
        assert!(!board.wake(0), "no announce, no unpark");
        board.announce_sleep(0);
        assert!(board.is_asleep(0) && !board.is_asleep(1));
        assert!(board.wake(0), "announced sleeper is woken");
        assert!(!board.is_asleep(0), "a wake ends the sleep");
        assert!(!board.wake(0), "wake consumed the announcement");
        board.announce_sleep(0);
        board.clear_sleep(0);
        assert!(!board.wake(0), "cleared announcement is not woken");
    }

    #[test]
    fn park_board_wake_before_register_is_skipped() {
        let board = ParkBoard::new(1);
        board.announce_sleep(0);
        // No thread registered: the flag clears but no unpark fires.
        assert!(!board.wake(0));
    }

    #[test]
    fn parked_thread_is_woken_by_board() {
        // A long park timeout bounded by the wake below (the test would
        // otherwise take the full timeout and still pass — the assert is
        // on elapsed time).
        let heartbeat = std::time::Duration::from_secs(5);
        let board = Arc::new(ParkBoard::new(1));
        let b = Arc::clone(&board);
        let t = std::thread::spawn(move || {
            b.register(0);
            b.announce_sleep(0);
            let start = std::time::Instant::now();
            b.park_current(heartbeat);
            b.clear_sleep(0);
            start.elapsed()
        });
        // Spin until the sleeper announces, then wake it.
        loop {
            if board.wake(0) {
                break;
            }
            std::thread::yield_now();
        }
        let waited = t.join().unwrap();
        assert!(
            waited < heartbeat,
            "unpark cut the park short (waited {waited:?})"
        );
    }

    #[test]
    fn engine_handles_carry_batches_before_any_shard_runs() {
        // Built exactly as `Engine::build` builds them. No shard thread
        // exists, so nothing but construction can have allocated lane
        // (0, 1): the send must land in the ring, not be handed back.
        let lanes: LaneHandles<u64> = LaneHandles::new(2);
        assert!(lanes.mesh.send(0, 1, vec![env(9)]).is_ok());
        assert!(lanes.mesh.has_inbound(1));
        let got = lanes.mesh.recv(0, 1).expect("batch is in the lane");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].target, 9);
    }
}
