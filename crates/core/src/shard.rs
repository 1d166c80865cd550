//! The shard worker: one shared-nothing "process" of the engine.
//!
//! Each shard owns a partition of the vertices (consistent hashing,
//! §III-C), a [`DenseStore`] holding their adjacency and live algorithm
//! state, and one inbound FIFO lane of visitor messages per peer (HavoqGT's
//! visitor queue, Figure 2) beside the controller's channel. One pass
//! ([`ShardWorker::step`]):
//!
//! 1. drains and processes all queued algorithmic events (events that
//!    "impact the same vertex are ordered in the infrastructure layer by the
//!    built-in visitor queue in FIFO ordering", §IV);
//! 2. when no algorithmic work remains, pulls a **bounded run** of its
//!    input stream (at most `PULL_RUN`, 64 pulls) — the paper's
//!    saturation-test semantics, "each rank pulling a topology event as
//!    soon as local work is completed" (§V-A), with the loop's fixed costs
//!    (lane and channel probes, phase mark, the `ingested` publish) paid
//!    once per run instead of once per event. A pull is an
//!    edge, an `Init` of a vertex the shard owns, or a control op, whose
//!    claim, sweep and commit run in place and end the run. The stream
//!    arrives in chunks the controller hands out inside a per-shard
//!    window, and a run that empties a chunk rings the controller's bell;
//!    a shard whose backlog held for full lanes is past its bound skips
//!    this step until its receivers catch up;
//! 3. when fully idle, flushes its partial batches. The shard's thread
//!    ([`ShardWorker::run_loop`]) then parks until a peer or the
//!    controller wakes it; a test's scheduler steps the next shard instead.
//!
//! Undirected edge serialization follows §III-C exactly: the `[a, b]` event
//! is routed to `owner(a)`, which inserts `a -> b` and then sends the
//! reverse-add for `[b, a]` to `owner(b)` over the pair's FIFO lane, ensuring
//! the edge exists before either side uses it.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

use remo_store::{LocalIdx, VertexId};

use crate::algorithm::{visit, Algorithm, EventCtx, Outgoing};
use crate::config::EngineConfig;
use crate::engine::Controller;
use crate::event::{
    Chunk, ControlKind, ControlOp, Envelope, EventKind, Items, Pull, TopoEvent, TopoOp,
};
use crate::metrics::ShardMetrics;
use crate::partition::Partitioner;
use crate::storage::DenseStore;
use crate::supervision::{panic_payload_string, FailureBoard, ShardFailure};
use crate::telemetry::{TelemetryShared, PUBLISH_EVERY, SAMPLE_SHIFT};
use crate::termination::{Arrival, SharedCounters};
use crate::trace::{self, SpanKind, TraceTag};
use crate::transport::{LaneHandles, IDLE_PARK};
use crate::trigger::{TriggerDef, TriggerFire};
use crate::wal::{CkptHeader, Log};

/// Flush hysteresis: how many idle passes a shard with buffered partial
/// batches re-drains its inbound paths (yielding the core between passes)
/// before flushing them and parking. Short algorithm waves — BFS frontiers
/// especially — otherwise degenerate into storms of near-empty lane
/// batches and peer wakes: every shard goes briefly idle between waves,
/// flushes a handful of envelopes, and unparks its peers for them.
/// Deferring the partial flush for a bounded beat lets the next inbound
/// batch refill the outbox first. Safe at any value: buffered envelopes
/// are already counted as sent, so quiescence cannot falsely fire, and the
/// flush always happens before the shard parks. 0 is the immediate flush
/// that produced the BFS short-wave regression (DESIGN.md §15.1).
const FLUSH_HYSTERESIS: u32 = 32;

/// Pull run: how many pulls a shard with no algorithmic work takes back to
/// back before it looks up again — re-probes its lanes and control
/// channel, publishes `ingested`. Everything that defines an update stays
/// per event (routing, trace sampling); only the pass's fixed costs are
/// amortised. The bound is what
/// a point read can wait behind (an edge or init pull is a route, not a
/// cascade: the run's envelopes queue and are processed by the next pass;
/// a control pull's sweep ends the run), and a run holds at most this many
/// extra envelopes. 64 sits on the flat
/// of the 1/8/64/512 sweep (DESIGN.md §12.1); 1 pays every fixed cost once
/// per event.
const PULL_RUN: usize = 64;

/// Ingest chunk: the most topology events one controller hand-off
/// carries. A shard rings the controller's bell once per chunk it
/// empties, so this is also the grain at which a waiting ingest call
/// refills. Chosen with [`INGEST_WINDOW`] by a sweep (DESIGN.md §20).
pub(crate) const INGEST_CHUNK: usize = 1024;

/// Ingest window: the most topology events the controller lets wait
/// unpulled at one shard (`fed − ingested`). An ingest call sends a chunk
/// only where it fits and otherwise waits on the bell, so what an ingest
/// holds is at most a window and a chunk per shard, whatever its size.
pub(crate) const INGEST_WINDOW: u64 = 4 * INGEST_CHUNK as u64;

/// Held bound: past this many batches held for full lanes (all
/// destinations together), a shard stops pulling topology until its
/// receivers catch up. It keeps draining its inbound paths and processing
/// what arrives, whatever its backlog — two shards holding work for each
/// other both keep draining, so neither waits on the other. No ledger
/// workload reaches it (DESIGN.md §20).
const HELD_BOUND: usize = 4096;

/// Envelope batch: how many envelopes a shard buffers per destination
/// before the batch ships (HavoqGT batches visitor messages the same
/// way). Partial batches flush whenever the shard goes idle, so no
/// envelope waits for a full batch, and a batch keeps its sender's order,
/// so per-pair FIFO is unaffected.
const ENVELOPE_BATCH: usize = 256;

/// `count & SAMPLE_MASK == 0` selects the events that are sampled.
const SAMPLE_MASK: u64 = (1 << SAMPLE_SHIFT) - 1;

/// Messages the controller sends a shard. Shards never send these: what
/// one shard has for another travels the pair's lane and nothing else.
pub(crate) enum Message<S> {
    /// The next piece of this shard's input stream.
    Chunk(Chunk),
    /// Collect every vertex's live state: this shard's fragment of a
    /// snapshot, asked for once the engine is quiescent.
    Collect {
        reply: SyncSender<Vec<(VertexId, S)>>,
    },
    /// Write this shard's store as its checkpoint of `header`'s cut (the
    /// shard fills in `seq` and `edges`), then reply: the controller sends
    /// it to every shard at a quiescent point, holding every sender.
    Checkpoint {
        header: CkptHeader,
        reply: Sender<()>,
    },
    /// Point query: one vertex's live local state (§VI-A: "any vertices'
    /// local state can be observed in constant time").
    Query {
        vertex: VertexId,
        reply: SyncSender<Option<S>>,
    },
    /// Stop immediately and report.
    Shutdown,
}

/// What one pass of [`ShardWorker::step`] found, which tells its caller
/// what to do before the next one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Progress {
    /// Something was admitted, processed or pulled: step again.
    Busy,
    /// Nothing arrived, and partial batches wait out [`FLUSH_HYSTERESIS`]:
    /// yield the core, then step again.
    Spin,
    /// Flushed and published: wait for work.
    Idle,
    /// `Shutdown` arrived.
    Stop,
}

/// What a shard hands back when it stops. Its counters are not here: the
/// final cell publish put them where every reader finds them
/// ([`TelemetryShared::snapshot_metrics`]).
pub(crate) struct ShardReport<A: Algorithm> {
    pub id: usize,
    pub num_edges: u64,
    /// The shard's store, handed over as is, for post-run static
    /// algorithms over the dynamic structure (paper Fig. 3 centre bar).
    pub table: DenseStore<A::State, A::Edge>,
}

pub(crate) struct ShardWorker<A: Algorithm> {
    id: usize,
    algo: Arc<A>,
    config: EngineConfig,
    part: Partitioner,
    rx: Receiver<Message<A::State>>,
    shared: Arc<SharedCounters>,
    board: Arc<FailureBoard>,
    triggers: Arc<Vec<TriggerDef<A::State>>>,
    trigger_tx: Sender<TriggerFire>,

    store: DenseStore<A::State, A::Edge>,
    /// Envelopes this shard sent to itself — the shard's one local queue:
    /// bypass the channel, preserve FIFO (a local queue is trivially
    /// in-order per sender).
    local_q: VecDeque<Envelope<A::State>>,
    /// The input stream: chunks not yet pulled, oldest first; the front
    /// one is pulled from `chunk_pos` on and dropped once it is empty.
    chunks: VecDeque<Chunk>,
    chunk_pos: usize,
    out: Vec<Outgoing<A::State>>,
    /// Per-destination-shard buffers of unsent envelopes.
    outboxes: Vec<Vec<Envelope<A::State>>>,
    /// The outbox length at which a batch ships: [`ENVELOPE_BATCH`],
    /// which only this module's tests and the simulator change.
    batch: usize,
    /// The shared SPSC lane mesh + park board.
    lanes: LaneHandles<A::State>,
    /// Per-destination backlog: batches whose flush found the lane full,
    /// oldest first (see [`ShardWorker::do_flush`]).
    held: Vec<VecDeque<Vec<Envelope<A::State>>>>,
    /// Sender ids claimed from the pending set and not yet drained: empty
    /// between passes, and what survives of a pass that panicked (see
    /// [`ShardWorker::drain_lanes`]).
    claim_buf: Vec<usize>,
    /// Idle passes spent deferring a partial-batch flush in the current
    /// idle episode (bounded by [`FLUSH_HYSTERESIS`]; reset whenever
    /// work arrives or the flush finally happens).
    idle_spins: u32,
    /// Local monotone counters, published to this shard's
    /// [`ShardSlots`](crate::termination::ShardSlots).
    sent_local: u64,
    processed_local: u64,
    ingested_local: u64,
    pending_fires: Vec<TriggerFire>,
    metrics: ShardMetrics,
    edges: u64,
    seq: u64,

    /// Shared telemetry surface (seqlock cells, histograms, span rings).
    tele: Arc<TelemetryShared>,
    /// Events processed since the last snapshot-cell publish.
    pub_ticker: u32,

    /// The open phase-accounting window (see [`ShardWorker::phase_mark`]).
    phase: PhaseWindow,

    /// Durability: the pull log and checkpoint writer (see [`Log`]).
    /// `None` with durability off.
    log: Option<Log>,
    /// The rollback epoch this shard last rolled back in (see
    /// [`ShardWorker::roll_back`]).
    epoch: u64,
}

/// Which `phase_*_ns` counter a loop segment belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PhaseLabel {
    Drain,
    Process,
    Flush,
    Spin,
    Park,
    Checkpoint,
    Replay,
}

/// The open window of run-merged phase accounting: `t0` is when the
/// current run of same-labeled segments began, `run` its label. See
/// `ShardWorker::phase_mark` for the scheme and its error bound.
struct PhaseWindow {
    t0: Instant,
    run: PhaseLabel,
}

impl<A: Algorithm> ShardWorker<A> {
    /// Shard `id`, reading its channel at `rx`, on the world whose
    /// controller's ends are `ctl` (see [`crate::engine::wire`]).
    pub(crate) fn new(
        id: usize,
        algo: Arc<A>,
        config: EngineConfig,
        rx: Receiver<Message<A::State>>,
        triggers: Arc<Vec<TriggerDef<A::State>>>,
        trigger_tx: Sender<TriggerFire>,
        ctl: &Controller<A::State>,
    ) -> Self {
        let part = Partitioner::new(config.num_shards);
        let num_shards = config.num_shards;
        let log = Log::for_shard(&config, id);
        ShardWorker {
            id,
            algo,
            config,
            part,
            rx,
            shared: Arc::clone(&ctl.shared),
            board: Arc::clone(&ctl.board),
            triggers,
            trigger_tx,
            store: DenseStore::with_capacity(0),
            local_q: VecDeque::new(),
            chunks: VecDeque::new(),
            chunk_pos: 0,
            out: Vec::new(),
            outboxes: (0..num_shards).map(|_| Vec::new()).collect(),
            batch: ENVELOPE_BATCH,
            lanes: ctl.lanes.clone(),
            held: (0..num_shards).map(|_| VecDeque::new()).collect(),
            claim_buf: Vec::new(),
            idle_spins: 0,
            sent_local: 0,
            processed_local: 0,
            ingested_local: 0,
            pending_fires: Vec::new(),
            metrics: ShardMetrics::default(),
            edges: 0,
            seq: 0,
            tele: Arc::clone(&ctl.tele),
            pub_ticker: 0,
            phase: PhaseWindow {
                t0: Instant::now(),
                run: PhaseLabel::Drain,
            },
            log,
            epoch: 0,
        }
    }

    /// Supervised entry point: runs the worker loop under `catch_unwind`.
    ///
    /// Without durability a panicking shard publishes a structured
    /// [`ShardFailure`] to the engine's failure board (the run degrades to
    /// the survivors) and returns `None`.
    ///
    /// With durability on, a contained panic begins a rollback of the
    /// whole engine while the budget lasts (see
    /// [`ShardWorker::roll_back`]): the worker re-enters the supervised
    /// region on the same thread and transport endpoints, with nothing on
    /// the failure board, so a panic during the rollback begins another.
    /// Only an exhausted budget records the permanent failure and degrades
    /// exactly as with durability off.
    pub(crate) fn run_supervised(mut self) -> Option<ShardReport<A>> {
        let id = self.id;
        let shared = Arc::clone(&self.shared);
        let board = Arc::clone(&self.board);
        loop {
            // The worker owns its whole world (table, queues, channels); a
            // panic aborts this shard only, so observing no state across
            // the unwind boundary is exactly right — hence
            // AssertUnwindSafe. After a rollback begins the same `self`
            // re-enters here, and its loop rolls back first.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_loop()));
            let Err(payload) = outcome else {
                let report = self.report();
                shared.bell.ring();
                return Some(report);
            };
            if self.log.is_some() && shared.rollback.begin() {
                self.metrics.rollbacks += 1;
                for p in 0..self.config.num_shards {
                    self.lanes.parks.wake(p);
                }
                continue;
            }
            // Permanent (durability off, or budget exhausted): the counter
            // cell and the span ring outlive the thread and describe it, so
            // last words first — a publish before the board records the
            // failure, or up to PUBLISH_EVERY - 1 events of counters die
            // with the thread. A rollback under way halts: the degraded
            // paths detect the loss through the failure board.
            self.publish_telemetry();
            if self.log.is_some() {
                shared.rollback.halt();
            }
            board.record(ShardFailure {
                id,
                payload: panic_payload_string(payload),
            });
            shared.bell.ring();
            return None;
        }
    }

    /// Run-merged phase attribution: closes the open window and starts a
    /// new one *only* when the segment label changes — consecutive
    /// same-labeled segments merge into one window with zero clock
    /// reads, so the hot steady states (an ingest cascade that is all
    /// processing, a long park) cost nothing but a register compare per
    /// boundary. The price is precision at the transition itself: the
    /// boundary segment lands in the outgoing run, an error bounded by
    /// one loop segment per transition (call sites keep those segments
    /// at probe-sliver scale by marking *before* heavy work). Every
    /// charged nanosecond still lands in exactly one `phase_*_ns`
    /// counter and in `phase_busy_ns`, so the breakdown sums to the
    /// attributed wall by construction (`RunMetrics::verify_balance`
    /// checks the identity).
    #[inline]
    fn phase_mark(&mut self, label: PhaseLabel) {
        if self.phase.run != label {
            self.phase_close();
            self.phase.run = label;
        }
    }

    /// Charges the open window to its phase and re-opens it at the current
    /// instant — at a label change, and at a loop exit so the tail of the
    /// final run is attributed rather than dropped.
    fn phase_close(&mut self) {
        let now = Instant::now();
        let ns = now.duration_since(self.phase.t0).as_nanos() as u64;
        self.phase.t0 = now;
        *match self.phase.run {
            PhaseLabel::Drain => &mut self.metrics.phase_drain_ns,
            PhaseLabel::Process => &mut self.metrics.phase_process_ns,
            PhaseLabel::Flush => &mut self.metrics.phase_flush_ns,
            PhaseLabel::Spin => &mut self.metrics.phase_spin_ns,
            PhaseLabel::Park => &mut self.metrics.phase_park_ns,
            PhaseLabel::Checkpoint => &mut self.metrics.phase_checkpoint_ns,
            PhaseLabel::Replay => &mut self.metrics.phase_replay_ns,
        } += ns;
        self.metrics.phase_busy_ns += ns;
    }

    /// The shard thread's loop: steps the shard until it stops, and holds the
    /// only yield and the only park a shard makes. Returns on shutdown (or
    /// when the controller's senders are all gone); the caller then
    /// consumes `self` into the final report.
    pub(crate) fn run_loop(&mut self) {
        self.lanes.parks.register(self.id);
        // Run-merged phase accounting: one window per run of same-labeled
        // segments, a clock read only at label transitions — see
        // `phase_mark`. The hot ingest cascade, whose every segment is
        // processing, therefore costs zero clock reads. Entering the loop
        // is a transition only after a replay.
        self.phase_mark(PhaseLabel::Drain);
        loop {
            if self.rollback_due() {
                self.roll_back();
            }
            match self.step() {
                Progress::Busy => {}
                // The pass marked Spin, so the yield accrues to the spin
                // window.
                Progress::Spin => std::thread::yield_now(),
                Progress::Idle => {
                    if self.idle_wait() {
                        break;
                    }
                }
                Progress::Stop => break,
            }
        }
        // Stopping: the tail of the final phase run attributed rather than
        // dropped.
        self.phase_close();
    }

    /// One pass: *inbound → pull run → idle flush and publish*.
    /// It never parks, yields or waits on the channel, so the shard's
    /// thread and a test's scheduler run the same pass (a callback that
    /// blocks holds either one).
    pub(crate) fn step(&mut self) -> Progress {
        // Phase 1 — inbound: drain all queued messages (algorithm events
        // first): alternate between the inbound lanes, the inbound channel,
        // and the local queue until all are empty. This is also where the
        // previous pass's pull run is processed, and the one place a pass
        // looks at the control channel — so a point read waits for at most
        // one run.
        let mut did_work = false;
        loop {
            let mut round = self.drain_lanes();
            while let Ok(msg) = self.rx.try_recv() {
                round = true;
                if self.dispatch(msg) {
                    return Progress::Stop;
                }
            }
            while let Some(env) = self.local_q.pop_front() {
                round = true;
                self.process(env);
            }
            if !round {
                break;
            }
            did_work = true;
        }
        // A pass that admitted or processed anything is processing time; a
        // pass that merely probed empty queues is drain overhead — the
        // "looking for work" tax.
        self.phase_mark(if did_work {
            PhaseLabel::Process
        } else {
            PhaseLabel::Drain
        });

        // Phase 2 — pull run: up to PULL_RUN topology events, if any and if
        // the backlog held for full lanes is within its bound. A shard over
        // it still drains and processes everything that arrives; it only
        // stops adding new work until its receivers catch up, retrying the
        // held batches at every idle flush.
        if !self.chunks.is_empty() && self.held_batches() <= HELD_BOUND {
            // The run is processing time from here on; the empty probes
            // before it stay with the previous phase run.
            self.phase_mark(PhaseLabel::Process);
            self.pull_run();
            self.idle_spins = 0;
            return Progress::Busy;
        }
        if did_work {
            self.idle_spins = 0;
            return Progress::Busy;
        }

        // Phase 3 preamble — lane flush hysteresis: with partial batches
        // buffered, give inbound work a bounded number of re-drain passes
        // to refill them before shipping near-empty batches and waking
        // peers (the BFS short-wave pathology). Deadlock-free: buffered
        // envelopes are already counted sent, so quiescence cannot fire
        // under them, and the spin budget guarantees the flush below runs
        // before any park.
        if self.idle_spins < FLUSH_HYSTERESIS && self.outboxes.iter().any(|b| !b.is_empty()) {
            self.idle_spins += 1;
            self.metrics.flush_deferrals += 1;
            self.phase_mark(PhaseLabel::Spin);
            return Progress::Spin;
        }
        self.idle_spins = 0;

        // Phase 3 — idle: flush buffered envelopes and publish the counter
        // cell (an idle shard's snapshot is otherwise up to PUBLISH_EVERY-1
        // events stale). A backlog a full lane left behind is retried by
        // this flush, so a shard idling on one retries at least every
        // `IDLE_PARK`: nobody wakes a sender when its lane drains, the
        // park's heartbeat does.
        self.phase_mark(PhaseLabel::Flush);
        self.flush_all();
        self.publish_telemetry();
        Progress::Idle
    }

    /// One idle wait: the shard announces sleep, re-checks both inbound
    /// paths (the Dekker pairing with senders' post-publish
    /// [`crate::transport::ParkBoard::wake`]), rings the controller's bell
    /// if every other live shard is asleep, parks, and dispatches the
    /// message it woke on. [`IDLE_PARK`] only insures against the
    /// (latency-only) missed-wake window. Returns true when the shard must
    /// stop: a `Shutdown` woke it, or the controller dropped every sender
    /// without one (stop and report all the same).
    fn idle_wait(&mut self) -> bool {
        // The whole wait — park, heartbeat timeout — is parked time: the
        // clearest "this shard had nothing to do" signal in the
        // utilization breakdown.
        self.phase_mark(PhaseLabel::Park);
        let lanes = &self.lanes;
        lanes.parks.announce_sleep(self.id);
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        let mut woke_on = None;
        if !lanes.mesh.has_inbound(self.id) {
            match self.rx.try_recv() {
                Ok(msg) => woke_on = Some(msg),
                Err(TryRecvError::Empty) => {
                    self.metrics.idle_parks += 1;
                    // After the fence above: a waiter woken here sees every
                    // count this shard has published. Only a park that may
                    // be the last one rings: every other live shard is
                    // asleep. Of two shards parking at once, the SeqCst
                    // flags let at least one see the other asleep; a
                    // cascade's hop-by-hop parks do not wake the controller.
                    let id = self.id;
                    if (0..self.config.num_shards)
                        .all(|p| p == id || lanes.parks.is_asleep(p) || self.board.is_failed(p))
                    {
                        self.shared.bell.ring();
                    }
                    lanes.parks.park_current(IDLE_PARK);
                }
                Err(TryRecvError::Disconnected) => {
                    lanes.parks.clear_sleep(self.id);
                    return true;
                }
            }
        }
        lanes.parks.clear_sleep(self.id);
        // Waking is the processing guess: a message wake goes straight into
        // dispatch and a lane wake into the next drain pass; a bare
        // heartbeat mislabels only the empty probe that follows.
        self.phase_mark(PhaseLabel::Process);
        woke_on.is_some_and(|msg| self.dispatch(msg))
    }

    /// Handles one message; returns true on shutdown.
    fn dispatch(&mut self, msg: Message<A::State>) -> bool {
        match msg {
            Message::Chunk(chunk) => {
                self.chunks.push_back(chunk);
                false
            }
            Message::Collect { reply } => {
                let _ = reply.send(self.store.states());
                false
            }
            Message::Checkpoint { header, reply } => {
                self.phase_mark(PhaseLabel::Checkpoint);
                if let Some(log) = &self.log {
                    let (seq, edges) = (self.seq, self.edges);
                    let header = CkptHeader {
                        seq,
                        edges,
                        ..header
                    };
                    log.checkpoint::<A>(header, &self.store, &mut self.metrics);
                }
                let _ = reply.send(());
                false
            }
            Message::Query { vertex, reply } => {
                let state = self
                    .store
                    .lookup(vertex)
                    .map(|h| self.store.live(h).clone());
                let _ = reply.send(state);
                false
            }
            Message::Shutdown => true,
        }
    }

    /// Runs one pulled control op: claim the sub-mask this shard sweeps,
    /// sweep the resident vertex set, commit. The pull run logged the op
    /// first, so a rollback re-runs all three.
    fn run_control(&mut self, op: ControlOp) {
        let claimed = self.algo.on_control(self.id, &op);
        if claimed != 0 {
            self.control_sweep(op.kind, claimed);
            self.algo.on_control_commit(self.id, op.kind, claimed);
        }
    }

    /// Walks every vertex resident in this shard's table and hands it to
    /// [`Algorithm::on_sweep`], routing whatever the sweep emits as
    /// ordinary `Update` envelopes (fully accounted by termination
    /// detection).
    fn control_sweep(&mut self, kind: ControlKind, mask: u64) {
        // A sweep interns nothing (its sends only queue), so the positions
        // stay put while it walks them.
        for h in 0..self.store.num_vertices() as LocalIdx {
            let v = self.store.id(h);
            self.seq += 1;
            {
                let mut ctx = EventCtx::new(v, self.store.parts(h), &mut self.out, self.id);
                self.algo.on_sweep(&mut ctx, kind, mask);
                // A sweep that changes state (attach backfill reaching a
                // watched vertex) fires triggers exactly like an envelope.
                ctx.fire_triggers(&self.triggers, self.seq, &mut self.pending_fires);
            }
            // A sweep's sends are never traced: they are caused by the
            // whole store, not by one update.
            self.route_generated(v, 0);
        }
        self.flush_all();
    }

    /// Drains every flagged inbound data lane, dropping each emptied batch
    /// buffer. One bitmap probe covers the empty case — the hot loop
    /// never scans P lanes to find nothing. Mesh calls here
    /// and below go through the `self.lanes` borrow (each ends before the
    /// `&mut self` work after it): cloning the `Arc` instead would put two
    /// locked RMWs on a line every shard shares into every pass. Returns
    /// whether anything was admitted.
    ///
    /// The claim clears the pending bits, so until the pass ends
    /// `claim_buf` alone says which lanes hold delivered batches; a
    /// rollback drains every lane whatever the bits say.
    fn drain_lanes(&mut self) -> bool {
        if self.claim_buf.is_empty() && !self.lanes.mesh.has_inbound(self.id) {
            return false;
        }
        self.lanes
            .mesh
            .claim_pending_into(self.id, &mut self.claim_buf);
        let mut any = false;
        for i in 0..self.claim_buf.len() {
            let from = self.claim_buf[i];
            while let Some(batch) = self.lanes.mesh.recv(from, self.id) {
                any = true;
                for env in batch {
                    self.process(env);
                }
            }
        }
        self.claim_buf.clear();
        any
    }

    /// True when an `Update` carrying `value` cannot change the live state
    /// of the vertex at `h` — the value is information the target already
    /// holds ([`Algorithm::absorbs`]). Algorithms without the hook are
    /// never filtered. Monotone states only advance, so a dominated update
    /// stays dominated no matter how long it waits.
    #[inline]
    fn is_dominated(&self, h: LocalIdx, value: &A::State) -> bool {
        A::absorbs(self.store.live(h), value)
    }

    /// Processes one algorithmic envelope.
    fn process(&mut self, env: Envelope<A::State>) {
        self.seq += 1;
        let target = env.target;
        // The storage probe of the hot path: one per envelope; every
        // access below is direct indexing off the handle. Only an `Update`
        // can be dominated, and only at a vertex that already has a record,
        // so its probe is a lookup whose handle serves both the filter and
        // everything after it.
        let known = match env.kind {
            EventKind::Update => self.store.lookup(target),
            _ => None,
        };
        // Receiver-side dominance filter: an `Update` whose value the live
        // state already absorbs cannot change anything — retire it without
        // the callback/trigger machinery.
        if known.is_some_and(|h| self.is_dominated(h, &env.value)) {
            self.metrics.updates_dominated += 1;
            self.note_processed();
            if env.tag != 0 {
                // A closed branch, not silence: the trace sees where its
                // cascade was cut off.
                self.trace_span(SpanKind::Dominate, env.tag, target, 0);
            }
            return;
        }
        let h = known.unwrap_or_else(|| self.store.intern(target));

        // Algorithm 3's framework step; triggers are evaluated inside its
        // single store borrow.
        let step = visit(
            &*self.algo,
            &env,
            self.store.parts(h),
            &mut self.out,
            self.id,
            self.config.undirected,
            |ctx| ctx.fire_triggers(&self.triggers, self.seq, &mut self.pending_fires),
        );
        self.metrics
            .count_step(&mut self.edges, env.kind, step.edge);

        // Tracing: one Process span per tagged envelope, with the
        // callback's fan-out before suppression trims it. Every generated
        // envelope below inherits the tag at hop+1 — the registry's Delta
        // fan-out rides the same outgoing path, so multi-query traces come
        // for free.
        let ctag = trace::child(env.tag);
        if env.tag != 0 {
            let fanout = u64::from(step.reverse.is_some()) + self.out.len() as u64;
            self.trace_span(SpanKind::Process, env.tag, target, fanout);
        }

        if let Some((kind, value)) = step.reverse {
            self.send_envelope(Envelope {
                target: env.visitor,
                visitor: target,
                value,
                weight: env.weight,
                kind,
                tag: ctag,
            });
        }

        self.route_generated(target, ctag);

        // Retire the envelope only after its children's sends were
        // published (four-counter soundness).
        self.note_processed();
    }

    /// Tail of every callback: hands the trigger fires it raised to the
    /// controller and routes the updates it generated as ordinary `Update`
    /// envelopes from `visitor` (fully accounted by termination detection),
    /// keeping the buffer's allocation for the next event. Runs once per
    /// envelope: kept in `process`'s body, not behind a call.
    #[inline(always)]
    fn route_generated(&mut self, visitor: VertexId, tag: TraceTag) {
        for fire in self.pending_fires.drain(..) {
            self.metrics.triggers_fired += 1;
            let _ = self.trigger_tx.send(fire);
        }
        let mut outgoing = std::mem::take(&mut self.out);
        for o in outgoing.drain(..) {
            self.send_envelope(Envelope {
                target: o.target,
                visitor,
                value: o.value,
                weight: o.weight,
                kind: EventKind::Update,
                tag,
            });
        }
        self.out = outgoing;
    }

    /// Appends one span to this shard's ring, moving the span counters
    /// (`trace_spans_dropped` counts ring evictions — see the overflow
    /// policy in [`crate::trace`]). Callers gate on `env.tag != 0` (or on
    /// the ingest sample for roots), so the untraced path never lands here.
    #[inline]
    fn trace_span(&mut self, kind: SpanKind, tag: TraceTag, a: u64, b: u64) {
        self.metrics.trace_spans += 1;
        if self.tele.record_span(self.id, kind, tag, a, b) {
            self.metrics.trace_spans_dropped += 1;
        }
    }

    /// Publishes one processed envelope.
    #[inline]
    fn note_processed(&mut self) {
        use std::sync::atomic::Ordering;
        self.processed_local += 1;
        self.shared
            .slot(self.id)
            .processed
            .store(self.processed_local, Ordering::Release);
        self.pub_ticker += 1;
        if self.pub_ticker >= PUBLISH_EVERY {
            self.publish_telemetry();
        }
    }

    /// Publishes this shard's counters and live queue gauges into its
    /// seqlock snapshot cell (two fences + one cell write; amortized over
    /// [`PUBLISH_EVERY`] events on the hot path).
    fn publish_telemetry(&mut self) {
        self.pub_ticker = 0;
        let queue_depth = self.local_q.len() as u64;
        let lane_occupancy = self.lanes.mesh.inbound_occupancy(self.id) as u64;
        let held = self.held_batches() as u64;
        self.tele
            .publish_counters(self.id, &self.metrics, [queue_depth, lane_occupancy, held]);
    }

    /// Batches held for full lanes, all destinations together.
    fn held_batches(&self) -> usize {
        self.held.iter().map(VecDeque::len).sum()
    }

    /// Publishes one created envelope. Must happen before the envelope
    /// becomes receivable.
    #[inline]
    fn note_sent(&mut self) {
        use std::sync::atomic::Ordering;
        self.sent_local += 1;
        self.shared
            .slot(self.id)
            .sent
            .store(self.sent_local, Ordering::Release);
    }

    /// Runs one pull at stream `index`: an edge is routed as an
    /// `Add`/`Remove` at `owner(src)` and an init as an `Init` here, each
    /// stamped with `tag` when the pull was trace-sampled (hop 1); a
    /// control op runs in place. An `Add` carries the value
    /// [`Algorithm::stream_value`] gives its index.
    fn route_pull(&mut self, pull: Pull, index: u64, tag: TraceTag) {
        let (kind, value, ev) = match pull {
            Pull::Topo(ev) if ev.op == TopoOp::Add => (EventKind::Add, A::stream_value(index), ev),
            Pull::Topo(ev) => (EventKind::Remove, A::State::default(), ev),
            Pull::Init(v) => (EventKind::Init, A::State::default(), TopoEvent::new(v, v)),
            Pull::Control(op) => return self.run_control(op),
        };
        self.send_envelope(Envelope {
            target: ev.src,
            visitor: ev.dst,
            value,
            weight: ev.weight,
            kind,
            tag,
        });
    }

    /// Queues an envelope for its owner (possibly self), with termination
    /// accounting. Buffered envelopes are already counted as in flight;
    /// buffers flush when full or when the shard goes idle, so the
    /// in-flight counter can only reach zero once every buffer is empty.
    fn send_envelope(&mut self, env: Envelope<A::State>) {
        let owner = self.part.owner(env.target);
        // Self-routed `Update`s whose value the target's live state already
        // absorbs are dropped before any accounting: the envelope never
        // exists as far as termination detection is concerned.
        if owner == self.id
            && env.kind == EventKind::Update
            && self
                .store
                .lookup(env.target)
                .is_some_and(|h| self.is_dominated(h, &env.value))
        {
            // Suppressed, not dominated: the envelope was never counted
            // as sent, so it must not enter the balance equation's
            // processed side either (see RunMetrics::verify_balance).
            self.metrics.updates_suppressed += 1;
            if env.tag != 0 {
                self.trace_span(SpanKind::Suppress, env.tag, env.target, 0);
            }
            return;
        }
        self.note_sent();
        self.metrics.envelopes_sent += 1;
        // A tagged envelope is counted sent here exactly once, so the
        // Send span is the amplification unit (cross-checkable against
        // `envelopes_sent`). `b` is the destination shard.
        if env.tag != 0 {
            self.trace_span(SpanKind::Send, env.tag, env.target, owner as u64);
        }
        if owner == self.id {
            self.local_q.push_back(env);
            return;
        }
        self.outboxes[owner].push(env);
        if self.outboxes[owner].len() >= self.batch {
            self.flush(owner);
        }
    }

    /// Ships what this shard has for one destination — its backlog, then
    /// its outbox — timing the shipment (nothing to ship costs two
    /// branches).
    fn flush(&mut self, owner: usize) {
        if self.outboxes[owner].is_empty() && self.held[owner].is_empty() {
            return;
        }
        let t0 = Instant::now();
        self.do_flush(owner);
        self.tele
            .record_flush(self.id, t0.elapsed().as_nanos() as u64);
    }

    /// The full-lane policy, all of it: a batch the lane has no room for
    /// waits here, at its sender, behind the batches already waiting and
    /// ahead of everything newer. One queue per pair, drained from the
    /// front, is the pair's FIFO; the receiver never learns a lane was
    /// full, and a slow receiver's backlog sits where its sender counts it
    /// (a rollback discards it there; held envelopes are sent and not yet
    /// processed, so quiescence cannot fire over them).
    ///
    /// A held batch keeps the length it left the outbox with, however
    /// long the receiver stalls. The lane is tried again when the
    /// outbox has filled once more and at every `flush_all`, not per
    /// envelope: until then a held batch waits as a partial outbox does,
    /// for its sender to fill a batch or go idle.
    fn do_flush(&mut self, owner: usize) {
        let fresh = !self.outboxes[owner].is_empty();
        if fresh {
            let batch = std::mem::replace(
                &mut self.outboxes[owner],
                Vec::with_capacity(ENVELOPE_BATCH),
            );
            self.held[owner].push_back(batch);
        }
        if self.board.is_failed(owner) {
            return self.retire_dead(owner);
        }
        let mut shipped = 0;
        while let Some(batch) = self.held[owner].pop_front() {
            if let Err(batch) = self.lanes.mesh.send(self.id, owner, batch) {
                self.held[owner].push_front(batch);
                break;
            }
            shipped += 1;
        }
        if shipped > 0 {
            self.metrics.lane_batches += shipped;
            self.wake(owner);
        }
        if fresh && !self.held[owner].is_empty() {
            self.metrics.lane_full_fallbacks += 1;
        }
    }

    /// Retires envelopes whose receiver is gone: counted undeliverable
    /// and processed so the termination books stay balanced.
    fn retire_batch(&mut self, batch: Vec<Envelope<A::State>>) {
        self.metrics.envelopes_undeliverable += batch.len() as u64;
        for _ in batch {
            self.note_processed();
        }
    }

    /// A dead receiver can never pop its lanes: retires the backlog held
    /// for `owner` and whatever is still parked in the lane (quiescence
    /// over the survivors is unreachable while either counts as in
    /// flight). See [`crate::transport::LaneMesh::reclaim`] for why
    /// popping our own lane is sound only once the consumer is provably
    /// gone (its failure-board record is published strictly after its last
    /// pop).
    fn retire_dead(&mut self, owner: usize) {
        while let Some(batch) = self.held[owner].pop_front() {
            self.retire_batch(batch);
        }
        for batch in self.lanes.mesh.reclaim(self.id, owner) {
            self.retire_batch(batch);
        }
    }

    /// Unparks `owner` if it announced sleep; the caller must have
    /// already published the work being signalled.
    fn wake(&mut self, owner: usize) {
        if self.lanes.parks.wake(owner) {
            self.metrics.unparks += 1;
        }
    }

    /// Ships every buffered envelope.
    fn flush_all(&mut self) {
        for owner in 0..self.outboxes.len() {
            self.flush(owner);
        }
        // A dead destination never drains its inbound lanes, and `flush`
        // only notices on the next send — sweep here too, so a panicked
        // shard's lanes drain into the undeliverable accounting even when
        // nothing more is addressed to it and degraded runs can settle
        // their counters.
        if self.board.any_failed() {
            for owner in 0..self.outboxes.len() {
                if owner != self.id && self.board.is_failed(owner) {
                    self.retire_dead(owner);
                }
            }
        }
    }

    /// One pull run: up to `PULL_RUN` pulls, each counted, sampled, tagged
    /// and routed exactly as a lone pull — per-stream order in, per-pair
    /// lane order out. Only the pass's fixed costs are shared by the run.
    fn pull_run(&mut self) {
        use std::sync::atomic::Ordering;
        let chunks_before = self.chunks.len();
        let run = self.run_len();
        // Durable before effects: the run's pulls (exactly what the loop
        // below takes) are logged and committed at once, before the first
        // envelope any of them spawns exists.
        if let Some(log) = &mut self.log {
            let pulls = self.chunks.iter().enumerate().flat_map(|(i, chunk)| {
                let from = if i == 0 { self.chunk_pos } else { 0 };
                (from..chunk.len()).map(move |k| chunk.get(k))
            });
            let cut = self.shared.rollback.cut();
            log.log_pulls(cut, pulls.take(run), &mut self.metrics);
        }
        for _ in 0..run {
            let Some((pull, index)) = self.next_pull() else {
                break;
            };
            self.metrics.topo_ingested += 1;
            self.ingested_local += 1;
            // The sampled pull mints a causal trace.
            // The pull itself is hop 0 (the Root span); the envelope it
            // spawns carries hop 1 and every descendant inherits hop+1 —
            // see crate::trace.
            let mut tag: TraceTag = 0;
            if self.metrics.topo_ingested & SAMPLE_MASK == 0 {
                self.metrics.trace_roots += 1;
                let id = ((self.id as u64 + 1) << 40) | self.metrics.trace_roots;
                // The span names the pull by its first two WAL words.
                let (_, [a, b, _]) = pull.encode();
                self.trace_span(SpanKind::Root, trace::pack(id, 0), a, b);
                tag = trace::pack(id, 1);
            }
            self.route_pull(pull, index, tag);
        }
        // Publish the run only after its last `route_pull` published the
        // spawned envelope's `sent` count. The reverse order opens a
        // false-quiescence window: with `ingested == fed` satisfied and
        // an envelope of the run not yet counted, a probe between the two
        // stores reads balanced books while work is still materialising.
        // Publishing late, by up to a run, only delays the probe:
        // `ingested` lags `fed` for as long as any pull of the run is
        // uncounted, a benign false negative. A control op's sweep ran
        // before this store, so a count past its pull says it has run.
        self.shared
            .slot(self.id)
            .ingested
            .store(self.ingested_local, Ordering::Release);
        // A run that emptied a chunk opened a chunk's room in the ingest
        // window: tell a controller waiting for it, after the publish it
        // probes (the bell's handshake wants the fence between the two).
        // Once per chunk, not once per run.
        if self.chunks.len() < chunks_before {
            std::sync::atomic::fence(Ordering::SeqCst);
            self.shared.bell.ring();
        }
    }

    /// How many pulls the next run takes: up to `PULL_RUN`, and no further
    /// than the first control op. Its sweep runs user code, so a panic
    /// there must leave no logged pull behind it in `chunks`, to be pulled
    /// a second time after the rollback re-ran the log.
    fn run_len(&self) -> usize {
        let mut n = 0;
        for (i, chunk) in self.chunks.iter().enumerate() {
            n += chunk.len() - if i == 0 { self.chunk_pos } else { 0 };
            if n >= PULL_RUN || matches!(chunk.items, Items::Control(_)) {
                break;
            }
        }
        n.min(PULL_RUN)
    }

    /// Next pull from the shard's input stream, with its stream index; a
    /// chunk is dropped as soon as its last pull is taken.
    fn next_pull(&mut self) -> Option<(Pull, u64)> {
        let front = self.chunks.front()?;
        let pull = front.get(self.chunk_pos);
        self.chunk_pos += 1;
        if self.chunk_pos == front.len() {
            self.chunks.pop_front();
            self.chunk_pos = 0;
        }
        Some(pull)
    }

    // ---- durability: rollback and recovery -----------------------------

    /// True when a rollback began that this shard has not run: a durable
    /// shard's one check per pass (a durable engine's start is epoch 1).
    #[inline]
    fn rollback_due(&self) -> bool {
        self.log.is_some() && self.shared.rollback.epoch() != self.epoch
    }

    /// This shard's part of a rollback (DESIGN.md §14), attributed to the
    /// replay phase. Stage 0: drop everything it holds, meet the others.
    /// Stage 1: drain its inbound lanes, which nobody fills any more, meet
    /// them again. Stage 2: restore the cut the MANIFEST names and re-run
    /// that cut's WAL through the pull path. Chunks not yet pulled stay
    /// where they are. A newer rollback starts this one over at its epoch;
    /// a permanent failure ends it, and the run degrades.
    #[cold]
    fn roll_back(&mut self) {
        self.phase_mark(PhaseLabel::Replay);
        while self.rollback_due() {
            let epoch = self.shared.rollback.epoch();
            self.epoch = epoch;
            // Every envelope held here was counted sent and is received
            // nowhere; callback output and trigger fires never entered
            // the books.
            let mut dropped = self.local_q.len();
            self.local_q.clear();
            for (outbox, held) in self.outboxes.iter_mut().zip(&mut self.held) {
                dropped += outbox.len() + held.iter().map(Vec::len).sum::<usize>();
                outbox.clear();
                held.clear();
            }
            self.out.clear();
            self.pending_fires.clear();
            self.discard(dropped);
            if !self.meet(epoch, 0) {
                continue;
            }
            let mut inbound = 0;
            self.lanes
                .mesh
                .claim_pending_into(self.id, &mut self.claim_buf);
            self.claim_buf.clear();
            for from in 0..self.config.num_shards {
                while let Some(batch) = self.lanes.mesh.recv(from, self.id) {
                    inbound += batch.len();
                }
            }
            self.discard(inbound);
            if !self.meet(epoch, 1) {
                continue;
            }
            self.recover();
            self.shared.rollback.finish(epoch);
        }
    }

    /// Counts `n` envelopes processed that a rollback dropped unprocessed.
    fn discard(&mut self, n: usize) {
        self.metrics.envelopes_discarded += n as u64;
        for _ in 0..n {
            self.note_processed();
        }
    }

    /// Meets the other shards at rollback barrier `stage` of `epoch`,
    /// every count published. The last to arrive at stage 1, when no
    /// envelope is anywhere, counts the ones a panic unwound out of a
    /// callback or a half-drained batch: all that is still in flight.
    /// False when the rollback is over for this shard.
    fn meet(&mut self, epoch: u64, stage: u32) -> bool {
        use std::sync::atomic::Ordering;
        // A panic between a pull run's increments and its publish would
        // leave `ingested` a run behind for good.
        let slot = self.shared.slot(self.id);
        slot.ingested.store(self.ingested_local, Ordering::Release);
        self.publish_telemetry();
        match self.shared.rollback.arrive(epoch, stage) {
            Arrival::Leader => {
                if stage == 1 {
                    self.discard(self.shared.in_flight() as usize);
                }
                self.shared.rollback.release(epoch);
                true
            }
            Arrival::Passed => true,
            Arrival::Aborted => false,
        }
    }

    /// Restores the named cut's checkpoint and re-runs that cut's WAL, each
    /// pull through [`ShardWorker::route_pull`] and its local cascade
    /// drained before the next, as the live loop runs a pull: its envelopes
    /// are derived again and fully counted, and `ingested` does not move (the
    /// pulls were counted when first pulled). Untagged: the original pull's
    /// Root span, if it was sampled, already anchors its trace. A control op
    /// is claimed, swept and committed again, whatever the in-memory
    /// progress bits say.
    #[cold]
    fn recover(&mut self) {
        let Some(log) = &mut self.log else {
            return;
        };
        let cut = self.shared.rollback.cut();
        let (header, pulls) = log.restore::<A>(cut, &mut self.store);
        (self.seq, self.edges) = (self.seq.max(header.seq), header.edges);
        for (pull, index) in pulls {
            self.route_pull(pull, index, 0);
            self.metrics.replayed_records += 1;
            while let Some(env) = self.local_q.pop_front() {
                self.process(env);
            }
        }
        self.flush_all();
        self.publish_telemetry();
    }

    fn report(mut self) -> ShardReport<A> {
        // Final cell publish: the run's counters are this cell from here on,
        // even after the thread is gone.
        self.publish_telemetry();
        ShardReport {
            id: self.id,
            num_edges: self.edges,
            table: self.store,
        }
    }
}

#[cfg(test)]
mod sim;

/// Direct regression coverage for the undeliverable-batch path and the
/// lane transport's sender-side machinery: these drive one `ShardWorker`
/// by hand (no engine, no threads), which is the only way to pin down the
/// exact counter movements — chaos runs exercise the same paths but only
/// observe the aggregate balance.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{wire, Controller};

    /// Minimal algorithm: default callbacks, `u64` state.
    struct Noop;
    impl Algorithm for Noop {
        type State = u64;
        type Edge = ();
    }

    struct Fixture {
        worker: ShardWorker<Noop>,
        /// The controller's ends, shard 0's only channel sender among them.
        ctl: Controller<u64>,
    }

    /// A two-shard world with shard 0 driven by hand and shard 1's worker
    /// dropped: the test plays its part on the mesh.
    fn fixture() -> Fixture {
        fixture_with(EngineConfig::undirected(2))
    }

    fn fixture_with(config: EngineConfig) -> Fixture {
        let (mut workers, ctl) = wire(Noop, &config, Vec::new());
        workers.truncate(1);
        let worker = workers.pop().expect("shard 0");
        Fixture { worker, ctl }
    }

    impl Fixture {
        /// Fills lane (0, 1) to the brim with empty batches.
        fn fill_lane(&self) {
            while self.worker.lanes.mesh.send(0, 1, Vec::new()).is_ok() {}
        }

        /// Shard 1 dies: the failure board says so.
        fn kill_peer(&self) {
            self.ctl.board.record(ShardFailure {
                id: 1,
                payload: "test kill".into(),
            });
        }
    }

    /// First `n` vertex ids owned by shard 1 (of 2).
    fn peer_targets(n: usize) -> Vec<VertexId> {
        let part = Partitioner::new(2);
        (0u64..).filter(|v| part.owner(*v) == 1).take(n).collect()
    }

    fn env(target: VertexId) -> Envelope<u64> {
        Envelope {
            target,
            visitor: target,
            value: 1,
            weight: 1,
            kind: EventKind::Update,
            tag: 0,
        }
    }

    #[test]
    fn pull_run_is_bounded_ordered_and_published_once() {
        use std::sync::atomic::Ordering;
        let mut f = fixture();
        let pairs: Vec<(VertexId, VertexId)> = (0..100).map(|v| (v, v + 1000)).collect();
        f.worker.chunks.push_back(Chunk {
            base: 0,
            stride: 1,
            items: Items::Pairs(TopoOp::Add, pairs),
        });
        f.worker.pull_run();
        // The bound a point read waits behind: one run, not the stream.
        assert_eq!(f.worker.metrics.topo_ingested, PULL_RUN as u64);
        assert_eq!(
            f.ctl.shared.slot(0).ingested.load(Ordering::Acquire),
            PULL_RUN as u64,
            "one publish, after the run's last route"
        );
        // Each pull became one `Add` at `owner(src)`, queued in stream
        // order on its path (local queue, or the peer's outbox).
        let local: Vec<VertexId> = f.worker.local_q.iter().map(|e| e.target).collect();
        let remote: Vec<VertexId> = f.worker.outboxes[1].iter().map(|e| e.target).collect();
        assert!(local.is_sorted() && remote.is_sorted());
        let mut routed = [local, remote].concat();
        routed.sort_unstable();
        assert_eq!(routed, (0..PULL_RUN as u64).collect::<Vec<_>>());
        assert_eq!(f.worker.sent_local, PULL_RUN as u64);
        // The next run takes what is left, stops at the stream's end and
        // drops the emptied chunk.
        assert_eq!(f.worker.chunk_pos, PULL_RUN);
        f.worker.pull_run();
        assert_eq!(f.worker.metrics.topo_ingested, 100);
        assert!(f.worker.chunks.is_empty());
        assert_eq!(f.worker.chunk_pos, 0);
    }

    /// A durable run logs, before it routes anything, exactly the events
    /// it pulls, each with its stream index: a run that crosses into the
    /// next chunk, and one that starts inside a chunk.
    #[test]
    fn durable_pull_runs_log_exactly_the_pulls_they_route() {
        let dir = std::env::temp_dir().join(format!("remo-shard-pulls-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig::undirected(2)
            .with_durability(crate::DurabilityConfig::new(&dir).fsync(false));
        let mut f = fixture_with(config);
        let pairs = |r: std::ops::Range<u64>| r.map(|v| (v, v + 1000)).collect();
        // Every other pair of the input, as a 2-shard split numbers it.
        for (base, range) in [(0, 0..40), (80, 40..100)] {
            f.worker.chunks.push_back(Chunk {
                base,
                stride: 2,
                items: Items::Pairs(TopoOp::Add, pairs(range)),
            });
        }
        f.worker.pull_run();
        assert_eq!(f.worker.metrics.wal_records_appended, PULL_RUN as u64);
        assert_eq!(f.worker.chunk_pos, PULL_RUN - 40, "the run crossed a chunk");
        f.worker.pull_run();
        assert!(f.worker.chunks.is_empty());
        let mut store = DenseStore::with_capacity(0);
        let log = f.worker.log.as_mut().unwrap();
        let logged: Vec<(VertexId, u64)> = (log.restore::<Noop>(0, &mut store).1)
            .into_iter()
            .map(|rec| match rec {
                (Pull::Topo(ev), index) => (ev.src, index),
                _ => panic!("this run pulled edges only"),
            })
            .collect();
        assert_eq!(logged, (0..100).map(|v| (v, 2 * v)).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A control pull ends its run: the run logs and takes the pulls up to
    /// and including it, and no further. A sweep that panicked would
    /// otherwise leave logged pulls in `chunks`, run once by the rollback
    /// and once more from the stream.
    #[test]
    fn durable_pull_run_ends_at_its_control_pull() {
        let dir = std::env::temp_dir().join(format!("remo-shard-control-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig::undirected(2)
            .with_durability(crate::DurabilityConfig::new(&dir).fsync(false));
        let mut f = fixture_with(config);
        let edges = |base, v: u64| Chunk {
            base,
            stride: 1,
            items: Items::Pairs(TopoOp::Add, vec![(v, v + 1000); 3]),
        };
        let op = ControlOp {
            kind: ControlKind::Flood,
            mask: 1,
        };
        f.worker.chunks.extend([
            edges(0, 1),
            Chunk::one(3, Items::Init(7)),
            Chunk::one(4, Items::Control(op)),
            edges(5, 2),
        ]);
        f.worker.pull_run();
        let m = &f.worker.metrics;
        assert_eq!((m.topo_ingested, m.wal_records_appended), (5, 5));
        assert_eq!(f.worker.chunks.len(), 1, "the edges behind the op wait");
        f.worker.pull_run();
        assert_eq!(f.worker.metrics.topo_ingested, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A control op counts as run once the shard's `ingested` passes its
    /// mark with the gate down: a rollback after the pull raises the gate,
    /// and only the rollback's re-run of the log, which runs the op again,
    /// lowers it.
    #[test]
    fn a_control_op_runs_again_in_replay_before_it_counts() {
        let dir = std::env::temp_dir().join(format!("remo-shard-ran-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig::undirected(1)
            .with_durability(crate::DurabilityConfig::new(&dir).fsync(false));
        let mut f = fixture_with(config);
        let op = ControlOp {
            kind: ControlKind::Clear,
            mask: 1,
        };
        let mark = f.ctl.offer(0, 1, || Chunk::one(0, Items::Control(op)));
        let mark = mark.unwrap().expect("an empty window has room");
        f.worker.dispatch(f.worker.rx.try_recv().unwrap());
        assert!(!f.ctl.ran(0, mark));
        f.worker.pull_run();
        assert!(f.ctl.ran(0, mark));
        assert!(f.ctl.shared.rollback.begin());
        assert!(
            !f.ctl.ran(0, mark),
            "counted, but its re-run is still to come"
        );
        f.worker.roll_back();
        assert!(f.ctl.ran(0, mark));
        assert_eq!(f.worker.metrics.replayed_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `Init` at `v` is held until the barrier lets it through, when the
    /// algorithm has one.
    struct Held(Option<Arc<std::sync::Barrier>>);
    impl Algorithm for Held {
        type State = u64;
        type Edge = ();
        fn init(&self, _: &mut impl crate::AlgoCtx<u64>) {
            if let Some(b) = &self.0 {
                b.wait();
            }
        }
    }

    /// A durable engine holds quiescence off from the moment it is built,
    /// before its shards' threads could start: a wait right after
    /// `Engine::open` sees their recovery still to come. Here the one
    /// shard re-runs a logged `Init` whose callback waits on the test.
    #[test]
    fn a_cold_shard_gates_quiescence_from_when_it_is_built() {
        let dir = std::env::temp_dir().join(format!("remo-shard-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig::undirected(1)
            .with_durability(crate::DurabilityConfig::new(&dir).fsync(false));
        let engine = crate::Engine::new(Held(None), config.clone());
        engine.try_init_vertex(3).unwrap();
        engine.try_await_quiescence().unwrap();
        drop(engine); // no final cut: the WAL holds the init
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let engine = crate::Engine::open(Held(Some(Arc::clone(&barrier))), config).unwrap();
        assert!(!engine.counters_balanced(), "the init is still to re-run");
        barrier.wait();
        engine.try_await_quiescence().unwrap();
        assert_eq!(
            engine
                .try_finish()
                .unwrap()
                .metrics
                .total()
                .replayed_records,
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undeliverable_batch_retires_and_balances() {
        let mut f = fixture();
        // A full lane keeps the flushed batch at the sender; then the
        // receiver dies with it still held.
        f.fill_lane();
        for v in peer_targets(10) {
            f.worker.send_envelope(env(v));
        }
        assert_eq!(f.worker.metrics.envelopes_sent, 10);
        f.worker.flush_all();
        assert_eq!(f.worker.metrics.lane_full_fallbacks, 1);
        assert_eq!(f.worker.held[1].len(), 1);
        assert!(
            !f.ctl.shared.quiescent_probe(),
            "held envelopes are in flight"
        );
        f.kill_peer();
        f.worker.flush_all();
        assert_eq!(f.worker.metrics.envelopes_undeliverable, 10);
        assert!(f.worker.holds_nothing());
        assert_eq!(f.worker.sent_local, f.worker.processed_local);
        assert!(
            f.ctl.shared.quiescent_probe(),
            "termination books balance after retirement"
        );
    }

    #[test]
    fn dead_receiver_lane_reclaims_into_undeliverable() {
        let mut f = fixture();
        let targets = peer_targets(8);
        for &v in &targets[..3] {
            f.worker.send_envelope(env(v));
        }
        f.worker.flush_all();
        assert_eq!(f.worker.metrics.lane_batches, 1);
        // Two more behind a lane that has since filled up: a held backlog.
        f.fill_lane();
        for &v in &targets[3..5] {
            f.worker.send_envelope(env(v));
        }
        f.worker.flush_all();
        assert_eq!(f.worker.held[1].len(), 1);
        assert!(!f.ctl.shared.quiescent_probe(), "lane batch is in flight");

        // The idle sweep drains the dead shard's lane and the backlog
        // behind it even with nothing further addressed to it.
        f.kill_peer();
        f.worker.flush_all();
        assert_eq!(f.worker.metrics.envelopes_undeliverable, 5);
        assert!(f.ctl.shared.quiescent_probe());

        // Later sends to the dead shard retire at flush.
        for &v in &targets[5..] {
            f.worker.send_envelope(env(v));
        }
        f.worker.flush_all();
        assert_eq!(f.worker.metrics.envelopes_undeliverable, 8);
        assert!(f.ctl.shared.quiescent_probe());
    }

    #[test]
    fn full_lane_holds_batches_and_ships_them_in_order() {
        let mut f = fixture();
        f.worker.batch = 4;
        let mesh = Arc::clone(&f.worker.lanes.mesh);
        let held = |f: &Fixture| f.worker.held[1].iter().map(Vec::len).collect::<Vec<_>>();
        f.fill_lane();
        let targets = peer_targets(13);
        // Two full outboxes and a partial one meet the full lane: every
        // flush keeps its batch here, as long as it left the outbox.
        for &v in &targets[..9] {
            f.worker.send_envelope(env(v));
        }
        f.worker.flush_all();
        assert_eq!(held(&f), [4, 4, 1]);
        assert_eq!(f.worker.metrics.lane_full_fallbacks, 3);
        assert_eq!(f.worker.metrics.lane_batches, 0);
        assert!(!f.worker.holds_nothing(), "a held batch is held");
        assert!(
            !f.ctl.shared.quiescent_probe(),
            "held envelopes are in flight"
        );

        // Room for one: the oldest held batch ships, the rest keep their
        // place ahead of the newer envelope.
        assert!(mesh.recv(0, 1).is_some_and(|b| b.is_empty()));
        f.worker.send_envelope(env(targets[9]));
        f.worker.flush_all();
        assert_eq!(held(&f), [4, 1, 1]);
        assert_eq!(f.worker.metrics.lane_batches, 1);

        // The lane drained: the backlog ships before the new batch, in
        // order, no batch longer than `batch`.
        let mut got: Vec<Vec<VertexId>> = Vec::new();
        let drain = |got: &mut Vec<Vec<VertexId>>| {
            while let Some(b) = mesh.recv(0, 1) {
                got.push(b.iter().map(|e| e.target).collect());
            }
        };
        drain(&mut got);
        for &v in &targets[10..] {
            f.worker.send_envelope(env(v));
        }
        f.worker.flush_all();
        drain(&mut got);
        assert!(f.worker.holds_nothing());
        assert_eq!(f.worker.metrics.lane_batches, 5);
        assert_eq!(f.worker.metrics.lane_full_fallbacks, 4, "no new holds");
        got.retain(|b| !b.is_empty());
        assert_eq!(
            got.iter().map(Vec::len).collect::<Vec<_>>(),
            [4, 4, 1, 1, 3]
        );
        assert_eq!(got.concat(), targets);
    }

    /// Shards used to hold a sender to every shard's channel, their own
    /// included, so no channel could ever disconnect. Now the controller
    /// holds the only one: dropping it without a `Shutdown` must stop the
    /// shard, and the shard must still hand back its report.
    #[test]
    fn dropped_controller_sender_stops_the_shard() {
        let Fixture { worker, ctl } = fixture();
        let shared = Arc::clone(&ctl.shared);
        let shard = std::thread::spawn(move || worker.run_supervised());
        // Work first, so the report has something to show: an edge between
        // two of shard 0's own vertices.
        let part = Partitioner::new(2);
        let mine: Vec<VertexId> = (0u64..).filter(|&v| part.owner(v) == 0).take(2).collect();
        let edge = Items::Pairs(TopoOp::Add, vec![(mine[0], mine[1])]);
        assert!(ctl.offer(0, 1, || Chunk::one(0, edge)).unwrap().is_some());
        while !shared.quiescent_probe() {
            std::thread::yield_now();
        }
        drop(ctl);
        let report = shard.join().unwrap().expect("a clean stop still reports");
        assert_eq!(report.num_edges, 2);
    }
}
