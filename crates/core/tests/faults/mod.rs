//! Fault injection through the public `Algorithm` API, shared by the chaos
//! and recovery suites (`mod faults;` here, a `#[path]` module from
//! `remo-algos`' tests). A shard dies the way it dies in production: a
//! callback panics. [`Faulty`] runs the wrapped algorithm's callback and
//! then, on its one target shard, sleeps or panics on the schedule it was
//! built with. The schedule lives in the algorithm, which every respawn of
//! the shard shares, so a repeat budget carries across recoveries, and
//! since replay re-runs callbacks, a budget above one kills the shard
//! again while it replays.

// Each suite that includes this module uses a part of it.
#![allow(dead_code)]

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

use remo_core::{AlgoCtx, Algorithm, VertexId, Weight};

/// Every injected panic's payload starts with this.
pub const MARKER: &str = "injected fault";

/// `A`, with faults on one shard. Only the event callbacks are wrapped:
/// the control plane is not forwarded, so wrap a registry's query, never
/// the registry.
pub struct Faulty<A> {
    inner: A,
    shard: usize,
    /// The target shard's first panicking callback (1-based).
    panic_at: u64,
    /// Panics still to fire.
    panics: AtomicU32,
    /// Sleep before each callback on the target shard.
    delay: Duration,
    /// Callbacks run on the target shard so far, replays included.
    calls: AtomicU64,
}

impl<A> Faulty<A> {
    /// `inner`, with no fault yet on `shard`.
    pub fn on(shard: usize, inner: A) -> Self {
        Faulty {
            inner,
            shard,
            panic_at: u64::MAX,
            panics: AtomicU32::new(0),
            delay: Duration::ZERO,
            calls: AtomicU64::new(0),
        }
    }

    /// Panics in the shard's `nth` callback (1-based), after the wrapped
    /// callback ran: its state change and its queued updates are what the
    /// panic leaves behind.
    pub fn panic_at(self, nth: u64) -> Self {
        Faulty {
            panic_at: nth,
            panics: AtomicU32::new(1),
            ..self
        }
    }

    /// Fires the panic `times` times in all: each callback on the shard
    /// from the `nth` on panics until the budget is spent.
    pub fn repeat(self, times: u32) -> Self {
        self.panics.store(times, Ordering::Relaxed);
        self
    }

    /// Sleeps `delay` before each callback on the shard: a straggler.
    pub fn delay(self, delay: Duration) -> Self {
        Faulty { delay, ..self }
    }

    /// Runs `callback` (the wrapped one) on `shard`, then the fault.
    fn visit(&self, shard: usize, callback: impl FnOnce(&A)) {
        let target = shard == self.shard;
        if target && !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        callback(&self.inner);
        if !target {
            return;
        }
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = |left: u32| left.checked_sub(1);
        if n >= self.panic_at
            && self
                .panics
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, fire)
                .is_ok()
        {
            panic!("{MARKER}: shard {shard} at callback {n}");
        }
    }
}

impl<A: Algorithm> Algorithm for Faulty<A> {
    type State = A::State;
    type Edge = A::Edge;

    fn init(&self, ctx: &mut impl AlgoCtx<A::State>) {
        self.visit(ctx.shard_hint(), |a| a.init(ctx));
    }

    fn on_add(&self, ctx: &mut impl AlgoCtx<A::State>, v: VertexId, val: &A::State, w: Weight) {
        self.visit(ctx.shard_hint(), |a| a.on_add(ctx, v, val, w));
    }

    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<A::State>,
        v: VertexId,
        val: &A::State,
        w: Weight,
    ) {
        self.visit(ctx.shard_hint(), |a| a.on_reverse_add(ctx, v, val, w));
    }

    fn on_update(&self, ctx: &mut impl AlgoCtx<A::State>, v: VertexId, val: &A::State, w: Weight) {
        self.visit(ctx.shard_hint(), |a| a.on_update(ctx, v, val, w));
    }

    fn on_remove(&self, ctx: &mut impl AlgoCtx<A::State>, v: VertexId, val: &A::State, w: Weight) {
        self.visit(ctx.shard_hint(), |a| a.on_remove(ctx, v, val, w));
    }

    fn on_reverse_remove(
        &self,
        ctx: &mut impl AlgoCtx<A::State>,
        v: VertexId,
        val: &A::State,
        w: Weight,
    ) {
        self.visit(ctx.shard_hint(), |a| a.on_reverse_remove(ctx, v, val, w));
    }

    fn stream_value(index: u64) -> A::State {
        A::stream_value(index)
    }

    fn encode_cache(state: &A::State) -> u64 {
        A::encode_cache(state)
    }

    fn absorbs(live: &A::State, incoming: &A::State) -> bool {
        A::absorbs(live, incoming)
    }

    fn encode_state(state: &A::State, out: &mut Vec<u8>) {
        A::encode_state(state, out);
    }

    fn decode_state(bytes: &[u8]) -> A::State {
        A::decode_state(bytes)
    }
}
