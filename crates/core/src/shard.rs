//! The shard worker: one shared-nothing "process" of the engine.
//!
//! Each shard owns a partition of the vertices (consistent hashing,
//! §III-C), a [`DenseStore`] holding their adjacency and live algorithm
//! state, and one inbound FIFO lane of visitor messages per peer (HavoqGT's
//! visitor queue, Figure 2) beside the controller's channel. The worker loop:
//!
//! 1. drains and processes all queued algorithmic events (events that
//!    "impact the same vertex are ordered in the infrastructure layer by the
//!    built-in visitor queue in FIFO ordering", §IV);
//! 2. when no algorithmic work remains, pulls a **bounded run** of topology
//!    events (at most `PULL_RUN`, 64) from its assigned input stream — the
//!    paper's saturation-test semantics, "each rank pulling a topology
//!    event as soon as local work is completed" (§V-A), with the loop's
//!    fixed costs (lane and channel probes, epoch ack, phase mark, the
//!    `ingested` publish) paid once per run instead of once per event;
//! 3. when fully idle, flushes its partial batches and parks until a peer
//!    or the controller wakes it.
//!
//! Undirected edge serialization follows §III-C exactly: the `[a, b]` event
//! is routed to `owner(a)`, which inserts `a -> b` and then sends the
//! reverse-add for `[b, a]` to `owner(b)` over the pair's FIFO lane, ensuring
//! the edge exists before either side uses it.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender, TryRecvError};
use remo_store::{Adjacency, EdgeMeta, LocalIdx, VertexId};

use crate::algorithm::{AlgoCtx, Algorithm, EventCtx, Outgoing};
use crate::config::EngineConfig;
use crate::event::{ControlAck, ControlKind, ControlOp, Envelope, Epoch, EventKind, TopoEvent};
use crate::metrics::ShardMetrics;
use crate::partition::Partitioner;
use crate::storage::DenseStore;
use crate::supervision::{panic_payload_string, FailureBoard, ShardFailure, CHAOS_PANIC_MARKER};
use crate::telemetry::{FlightTag, TelemetryShared, PUBLISH_EVERY, SAMPLE_SHIFT};
use crate::termination::SharedCounters;
use crate::trace::{self, SpanKind, TraceTag};
use crate::transport::LaneHandles;
use crate::trigger::{TriggerDef, TriggerFire};
use crate::vertex_state::VertexMeta;
use crate::wal::{self, RawRecord, ShardWal};

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

/// Pull run: how many topology events a shard with no algorithmic work
/// pulls back to back before it looks up again — re-probes its lanes and
/// control channel, re-reads the epoch, publishes `ingested`. Everything
/// that defines an update stays per event (routing, epoch tag, trace and
/// flight sampling, fault injection); only the pass's fixed costs are
/// amortised. The bound is what a point read or control sweep can wait
/// behind (a pull is a route, not a cascade: the run's envelopes queue
/// and are processed by the next pass), and a run holds at most this many
/// extra envelopes. 64 sits on the flat of the 1/8/64/512 sweep (DESIGN.md
/// §12.1); 1 pays every fixed cost once per event.
const PULL_RUN: usize = 64;

/// `count & SAMPLE_MASK == 0` selects the events that are sampled.
const SAMPLE_MASK: u64 = (1 << SAMPLE_SHIFT) - 1;

/// Messages the controller sends a shard. Shards never send these: what
/// one shard has for another travels the pair's lane and nothing else.
pub(crate) enum Message<S> {
    /// An algorithmic event (counted by termination detection).
    Event(Envelope<S>),
    /// A batch of topology events for this shard's input stream.
    Stream(Vec<TopoEvent>),
    /// Collect states: the snapshot view at `old_epoch` (or live states).
    Collect {
        old_epoch: Epoch,
        live: bool,
        reply: Sender<Vec<(VertexId, S)>>,
    },
    /// Point query: one vertex's live local state (§VI-A: "any vertices'
    /// local state can be observed in constant time").
    Query {
        vertex: VertexId,
        reply: Sender<Option<S>>,
    },
    /// Control-plane operation (multi-query attach/detach): the shard
    /// claims the sub-mask it has not yet applied via
    /// [`Algorithm::on_control`], sweeps its resident vertices with
    /// [`Algorithm::on_sweep`], commits, and acknowledges. Idempotent —
    /// the controller may resend until acknowledged.
    Control {
        op: ControlOp,
        ack: Sender<ControlAck>,
    },
    /// Stop immediately and report.
    Shutdown,
}

/// How one idle wait ended (see [`ShardWorker::idle_wait`]).
enum IdleWait<S> {
    /// A message arrived on the channel.
    Message(Message<S>),
    /// Woken (or timed out) with nothing on the channel: loop around and
    /// re-drain the lanes.
    Heartbeat,
    /// The controller dropped every sender without a `Shutdown`: stop and
    /// report all the same.
    Disconnected,
}

/// What a shard hands back when it stops.
pub(crate) struct ShardReport<S> {
    pub id: usize,
    pub states: Vec<(VertexId, S)>,
    pub metrics: ShardMetrics,
    pub num_vertices: usize,
    pub num_edges: u64,
    pub adjacency_bytes: usize,
    /// Approximate total heap footprint of the shard's vertex store
    /// (index + state/meta slab + adjacency + forks).
    pub store_bytes: usize,
    /// The shard's store, handed over as is, for post-run static
    /// algorithms over the dynamic structure (paper Fig. 3 centre bar).
    pub table: DenseStore<S>,
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

    /// True iff `config.fault_plan` targets this shard — precomputed so the
    /// fault-free data path pays one predictable branch, not a plan scan.
    fault_armed: bool,
    store: DenseStore<A::State>,
    /// Envelopes this shard sent to itself — the shard's one local queue:
    /// bypass the channel, preserve FIFO (a local queue is trivially
    /// in-order per sender).
    local_q: VecDeque<Envelope<A::State>>,
    streams: VecDeque<std::vec::IntoIter<TopoEvent>>,
    /// Reusable scratch of a durable pull run: pulls logged but not yet
    /// committed, with their trace tags (empty between runs, and always
    /// when `durable` is false).
    topo_staged: Vec<(TopoEvent, TraceTag)>,
    out: Vec<Outgoing<A::State>>,
    /// Per-destination-shard buffers of unsent envelopes.
    outboxes: Vec<Vec<Envelope<A::State>>>,
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
    /// Local monotone counters, published to this shard's [`ShardSlots`].
    sent_local: [u64; 2],
    processed_local: [u64; 2],
    ingested_local: u64,
    pending_fires: Vec<TriggerFire>,
    metrics: ShardMetrics,
    edges: u64,
    seq: u64,

    /// Shared telemetry surface (seqlock cells, histograms, recorders).
    tele: Arc<TelemetryShared>,
    /// Events processed since the last snapshot-cell publish.
    pub_ticker: u32,
    /// Epoch last acked in phase 2 (flight-recorder epoch context and the
    /// `EpochAck` edge detector).
    cur_epoch: Epoch,

    // ---- tracing + phase accounting ----
    /// Cached `config.trace.enabled` — the tracing-off data path pays one
    /// predictable branch per observation point (an envelope tag compare
    /// against 0), nothing else.
    trace_on: bool,
    /// `(topo_ingested & trace_mask) == 0` selects the sampled ingests.
    trace_mask: u64,
    /// Trace ids minted by this shard so far (combined with the shard id
    /// into a run-unique trace id).
    trace_seq: u64,
    /// The open phase-accounting window (see [`ShardWorker::phase_mark`]).
    phase: PhaseWindow,

    // ---- durability (every field inert when `durable` is false) ----
    /// Cached `config.durability.is_some()` — the durability-off data path
    /// pays one predictable branch per custody point, nothing else.
    durable: bool,
    /// The shard's WAL append handle, opened inside the supervised region
    /// on the first (re)entry so open failures surface as a recorded
    /// [`ShardFailure`], not an engine-thread panic.
    wal: Option<ShardWal>,
    /// Scratch buffer for `Algorithm::encode_state` at WAL-append time.
    wal_scratch: Vec<u8>,
    /// Envelopes received but not yet admitted: custody is WAL-logged and
    /// committed *before* any of them is processed, so a record is durable
    /// before its effects can escape the shard.
    inbox: VecDeque<Envelope<A::State>>,
    /// Epoch of the envelope currently inside `process_inner` (set only
    /// for counted inputs): the post-panic custody sweep must retire that
    /// half-processed envelope too.
    mid_process: Option<Epoch>,
    /// Custody records since the last published checkpoint (drives
    /// `DurabilityConfig::checkpoint_every`).
    events_since_ckpt: u64,
    /// Set by the supervisor (panic respawn) or cold-start detection;
    /// cleared once `recover` finishes.
    needs_recovery: bool,
    /// True for the first recovery of a re-opened engine: the previous
    /// process's epoch timeline is meaningless here, so restore clears
    /// forks and replays everything at epoch 0.
    cold_start: bool,
    /// In-place respawns performed so far (bounded by
    /// `DurabilityConfig::max_respawns`).
    respawns_done: u32,
    /// `FaultPlan::panic_at` firings so far (bounded by
    /// `FaultPlan::panic_repeats` once respawn makes refiring possible).
    panics_fired: u32,
    /// Checkpoint attempts so far (drives `FaultPlan::panic_in_checkpoint`).
    ckpt_attempts: u64,
    /// One-shot latches for the replay/checkpoint fault injections.
    replay_fault_fired: bool,
    ckpt_fault_fired: bool,
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        algo: Arc<A>,
        config: EngineConfig,
        rx: Receiver<Message<A::State>>,
        shared: Arc<SharedCounters>,
        board: Arc<FailureBoard>,
        triggers: Arc<Vec<TriggerDef<A::State>>>,
        trigger_tx: Sender<TriggerFire>,
        lanes: LaneHandles<A::State>,
        tele: Arc<TelemetryShared>,
    ) -> Self {
        let part = Partitioner::new(config.num_shards);
        let num_shards = config.num_shards;
        let fault_armed = config.fault_plan.targets(id);
        let trace_on = config.trace.enabled;
        let trace_mask = config.trace.sample_mask();
        let durable = config.durability.is_some();
        // Per-shard share of the capacity hint, with 1/8 headroom for the
        // hash partitioner's imbalance (0 stays 0: start empty).
        let shard_cap = config.expected_vertices.div_ceil(num_shards);
        let shard_cap = shard_cap + shard_cap / 8;
        ShardWorker {
            id,
            algo,
            config,
            part,
            rx,
            shared,
            board,
            triggers,
            trigger_tx,
            fault_armed,
            store: DenseStore::with_capacity(shard_cap),
            local_q: VecDeque::new(),
            streams: VecDeque::new(),
            topo_staged: Vec::new(),
            out: Vec::new(),
            outboxes: (0..num_shards).map(|_| Vec::new()).collect(),
            lanes,
            held: (0..num_shards).map(|_| VecDeque::new()).collect(),
            claim_buf: Vec::new(),
            idle_spins: 0,
            sent_local: [0; 2],
            processed_local: [0; 2],
            ingested_local: 0,
            pending_fires: Vec::new(),
            metrics: ShardMetrics::default(),
            edges: 0,
            seq: 0,
            tele,
            pub_ticker: 0,
            cur_epoch: 0,
            trace_on,
            trace_mask,
            trace_seq: 0,
            phase: PhaseWindow {
                t0: Instant::now(),
                run: PhaseLabel::Drain,
            },
            durable,
            wal: None,
            wal_scratch: Vec::new(),
            inbox: VecDeque::new(),
            mid_process: None,
            events_since_ckpt: 0,
            needs_recovery: false,
            cold_start: false,
            respawns_done: 0,
            panics_fired: 0,
            ckpt_attempts: 0,
            replay_fault_fired: false,
            ckpt_fault_fired: false,
        }
    }

    /// Supervised entry point: runs the worker loop under `catch_unwind`.
    ///
    /// Without durability this is the seed behaviour: a panicking shard
    /// publishes a structured [`ShardFailure`] to the engine's failure
    /// board (the run degrades to the survivors) and returns `None`.
    ///
    /// With durability on, a contained panic is *recoverable*: the worker
    /// sweeps the envelopes still in its custody (retiring them against
    /// the termination books), re-enters the supervised region, restores
    /// its latest checkpoint, replays the WAL tail, and resumes — same
    /// thread, same transport endpoints, nothing on the failure board, so
    /// peers never reclaim its lanes and supervised waits stay clean.
    /// Recovery itself runs *inside* `catch_unwind`, so a panic during
    /// replay or checkpointing consumes another respawn instead of
    /// wedging. Only an exhausted `max_respawns` budget records the
    /// permanent failure and degrades exactly as with durability off.
    pub(crate) fn run_supervised(mut self) -> Option<ShardReport<A::State>> {
        let id = self.id;
        let shared = Arc::clone(&self.shared);
        let board = Arc::clone(&self.board);
        let tele = Arc::clone(&self.tele);
        // Cold restart: durable state left by a previous process means
        // this engine is re-opening — restore before taking any new work.
        if self.durable && self.has_durable_state() {
            self.needs_recovery = true;
            self.cold_start = true;
            // Gate termination detection until the cold replay finishes
            // (see SharedCounters::recovery_begin).
            self.shared.recovery_begin();
        }
        loop {
            // The worker owns its whole world (table, queues, channels); a
            // panic aborts this shard only, so observing no state across
            // the unwind boundary is exactly right — hence
            // AssertUnwindSafe. On a recoverable panic the same `self`
            // re-enters here with `needs_recovery` set.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.durable && self.wal.is_none() {
                    self.open_wal();
                }
                if self.needs_recovery {
                    // Replay is attributed wholesale: restore + WAL replay
                    // + the backlog it spawns, one window that the loop's
                    // first mark closes.
                    self.phase_mark(PhaseLabel::Replay);
                    self.recover();
                }
                self.run_loop()
            }));
            match outcome {
                Ok(()) => return Some(self.report()),
                Err(payload) => {
                    use std::sync::atomic::Ordering;
                    let budget = self
                        .config
                        .durability
                        .as_ref()
                        .map_or(0, |d| d.max_respawns);
                    if self.durable && self.respawns_done < budget {
                        // Transient: sweep custody, then loop back into
                        // the supervised region to restore + replay. The
                        // failure stays OFF the board — the shard is
                        // coming back.
                        self.respawns_done += 1;
                        self.prepare_recovery();
                        continue;
                    }
                    // Permanent (durability off, or budget exhausted):
                    // the dying shard dumps its own recorder — the writer
                    // has provably stopped, so the window is exact. Lift
                    // the recovery gate if one is pending — nobody will
                    // finish this recovery, and the degraded paths detect
                    // the loss through the failure board, not the probe.
                    if self.needs_recovery {
                        self.needs_recovery = false;
                        self.shared.recovery_end();
                    }
                    board.record(ShardFailure {
                        id,
                        payload: panic_payload_string(payload),
                        last_epoch: shared.slot(id).epoch_ack.load(Ordering::SeqCst),
                        trace: tele.dump_flight(id),
                    });
                    return None;
                }
            }
        }
    }

    /// Injects the configured faults for this shard ahead of processing one
    /// algorithmic event. Only called when `fault_armed` is set.
    #[cold]
    fn inject_faults(&mut self, epoch: Epoch) {
        let plan = self.config.fault_plan.clone();
        if let Some((shard, delay)) = plan.delay {
            if shard == self.id {
                self.metrics.faults_injected += 1;
                self.tele
                    .record_flight(self.id, FlightTag::Fault, epoch, 2, self.seq);
                std::thread::sleep(delay);
            }
        }
        if let Some((shard, nth)) = plan.panic_at {
            // `seq` was incremented at the top of `process`, so it is the
            // 1-based index of the event being processed right now. A
            // respawned shard re-arms the same fault until the plan's
            // `panic_repeats` budget is spent (the counter moves *before*
            // the panic, so a recovered worker remembers the firing).
            if shard == self.id && self.seq >= nth && self.panics_fired < plan.panic_repeats {
                self.panics_fired += 1;
                self.metrics.faults_injected += 1;
                // Last words: the fault entry makes the dump non-empty
                // even at the widest sampling, and the final cell publish
                // lets the engine fold this shard's counters into the
                // aggregate instead of losing them with the thread.
                self.tele
                    .record_flight(self.id, FlightTag::Fault, epoch, 1, self.seq);
                self.publish_telemetry();
                panic!(
                    "{CHAOS_PANIC_MARKER}: shard {} at event {}",
                    self.id, self.seq
                );
            }
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

    /// The worker loop. Returns on shutdown (or when the controller's
    /// senders are all gone); the caller then consumes `self` into the
    /// final report.
    pub(crate) fn run_loop(&mut self) {
        use std::sync::atomic::Ordering;
        self.lanes.parks.register(self.id);
        // Run-merged phase accounting: one window per run of same-labeled
        // segments, a clock read only at label transitions — see
        // `phase_mark`. The hot ingest cascade, whose every segment is
        // processing, therefore costs zero clock reads. Entering the loop
        // is a transition only after a replay.
        self.phase_mark(PhaseLabel::Drain);
        'run: loop {
            // Phase 1 — inbound: drain all queued messages (algorithm
            // events first): alternate between the inbound lanes, the
            // inbound channel, and the local queue until all are empty.
            // This is also where the previous pass's pull run is
            // processed, and the one place a pass looks at the control
            // channel — so a point read waits for at most one run.
            let mut did_work = false;
            loop {
                let mut round = false;
                if self.drain_lanes() {
                    round = true;
                }
                while let Ok(msg) = self.rx.try_recv() {
                    round = true;
                    if self.dispatch(msg) {
                        break 'run;
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
            // A pass that admitted or processed anything is processing
            // time; a pass that merely probed empty queues is drain
            // overhead — the "looking for work" tax.
            self.phase_mark(if did_work {
                PhaseLabel::Process
            } else {
                PhaseLabel::Drain
            });

            // Phase 2 — epoch: read the epoch this pass's whole pull run
            // is tagged with, and ack it when it moved (the snapshot
            // barrier — see Engine::try_snapshot). `epoch_ack` always
            // equals `cur_epoch`, so an unchanged epoch needs no store.
            // One read per run keeps the barrier's promise: the ack of a
            // new epoch is stored only after the last run tagged with the
            // old one has published every `sent` count it owes.
            let epoch = self.shared.epoch.load(Ordering::SeqCst);
            if epoch != self.cur_epoch {
                self.shared
                    .slot(self.id)
                    .epoch_ack
                    .store(epoch, Ordering::SeqCst);
                self.tele
                    .record_flight(self.id, FlightTag::EpochAck, epoch, u64::from(epoch), 0);
                self.cur_epoch = epoch;
            }

            // Phase 3 — pull run: up to PULL_RUN topology events, if any.
            if let Some(first) = self.next_topo() {
                // The run is processing time from here on; the empty
                // probes before it stay with the previous phase run.
                self.phase_mark(PhaseLabel::Process);
                self.pull_run(first, epoch);
                self.idle_spins = 0;
                continue;
            }
            if did_work {
                self.idle_spins = 0;
                continue;
            }

            // Phase 4 preamble — lane flush hysteresis: with partial
            // batches buffered, give inbound work a bounded number of
            // re-drain passes to refill them before shipping near-empty
            // batches and waking peers (the BFS short-wave pathology).
            // Deadlock-free: buffered envelopes are already counted sent,
            // so quiescence cannot fire under them, and the spin budget
            // guarantees the flush below runs before any park.
            if self.idle_spins < FLUSH_HYSTERESIS && self.outboxes.iter().any(|b| !b.is_empty()) {
                self.idle_spins += 1;
                self.metrics.flush_deferrals += 1;
                // Marked before the yield so the yield itself accrues to
                // the spin window.
                self.phase_mark(PhaseLabel::Spin);
                std::thread::yield_now();
                continue;
            }
            self.idle_spins = 0;

            // Phase 4 — idle: flush buffered envelopes, publish the
            // counter cell (an idle shard's snapshot is otherwise up to
            // PUBLISH_EVERY-1 events stale), then park until woken. A
            // backlog a full lane left behind is retried by this flush, so
            // a shard idling on one retries at least every `IDLE_PARK`:
            // nobody wakes a sender when its lane drains, the park's
            // heartbeat does.
            self.phase_mark(PhaseLabel::Flush);
            self.flush_all();
            self.publish_telemetry();
            // Durability: idle with every queue drained is the one moment
            // the store is a complete, self-consistent image — checkpoint
            // here if the WAL has grown past the configured interval.
            self.phase_mark(PhaseLabel::Checkpoint);
            self.maybe_checkpoint(false);
            // The whole wait — park, heartbeat timeout — is parked time:
            // the clearest "this shard had nothing to do" signal in the
            // utilization breakdown.
            self.phase_mark(PhaseLabel::Park);
            let waited = self.idle_wait();
            // Waking is the processing guess: a message wake goes straight
            // into dispatch and a lane wake into the next drain pass; a
            // bare heartbeat mislabels only the empty probe that follows.
            self.phase_mark(PhaseLabel::Process);
            match waited {
                IdleWait::Message(msg) => {
                    if self.dispatch(msg) {
                        break 'run;
                    }
                }
                IdleWait::Heartbeat => {}
                IdleWait::Disconnected => break 'run,
            }
        }
        // Stopping: one last checkpoint if the WAL holds anything, and the
        // tail of the final phase run attributed rather than dropped.
        self.phase_mark(PhaseLabel::Checkpoint);
        self.maybe_checkpoint(true);
        self.phase_close();
    }

    /// One idle wait: the shard announces sleep, re-checks both inbound
    /// paths (the Dekker pairing with senders' post-publish
    /// [`crate::transport::ParkBoard::wake`]), and parks. The board's
    /// heartbeat only insures against the (latency-only) missed-wake
    /// window.
    fn idle_wait(&mut self) -> IdleWait<A::State> {
        let lanes = &self.lanes;
        lanes.parks.announce_sleep(self.id);
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        if lanes.mesh.has_inbound(self.id) {
            lanes.parks.clear_sleep(self.id);
            return IdleWait::Heartbeat;
        }
        match self.rx.try_recv() {
            Ok(msg) => {
                lanes.parks.clear_sleep(self.id);
                IdleWait::Message(msg)
            }
            Err(TryRecvError::Empty) => {
                self.metrics.idle_parks += 1;
                self.tele
                    .record_flight(self.id, FlightTag::Park, self.cur_epoch, 0, 0);
                lanes.parks.park_current();
                lanes.parks.clear_sleep(self.id);
                IdleWait::Heartbeat
            }
            Err(TryRecvError::Disconnected) => {
                lanes.parks.clear_sleep(self.id);
                IdleWait::Disconnected
            }
        }
    }

    /// Handles one message; returns true on shutdown.
    fn dispatch(&mut self, msg: Message<A::State>) -> bool {
        match msg {
            Message::Event(env) => {
                self.admit([env]);
                false
            }
            Message::Stream(events) => {
                self.tele.record_flight(
                    self.id,
                    FlightTag::Stream,
                    self.cur_epoch,
                    events.len() as u64,
                    self.streams.len() as u64,
                );
                self.streams.push_back(events.into_iter());
                false
            }
            Message::Collect {
                old_epoch,
                live,
                reply,
            } => {
                self.tele.record_flight(
                    self.id,
                    FlightTag::Collect,
                    old_epoch,
                    u64::from(old_epoch),
                    u64::from(live),
                );
                let states = self.collect(old_epoch, live);
                let _ = reply.send(states);
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
            Message::Control { op, ack } => {
                self.run_control(op, &ack);
                false
            }
            Message::Shutdown => {
                self.tele
                    .record_flight(self.id, FlightTag::Shutdown, self.cur_epoch, 0, 0);
                true
            }
        }
    }

    /// Executes one control-plane operation: claim the not-yet-applied
    /// sub-mask, make it durable, sweep the resident vertex set, commit,
    /// and acknowledge. The claim step makes resends idempotent — a
    /// repeated op claims an empty mask and acks `swept = 0` immediately.
    fn run_control(&mut self, op: ControlOp, ack: &Sender<ControlAck>) {
        let start = Instant::now();
        let claimed = self.algo.on_control(self.id, &op);
        let mut swept = 0u64;
        if claimed != 0 {
            // Durable before effects: the sweep's outgoing envelopes must
            // never escape a shard whose WAL does not yet record why they
            // exist (recovery replays the control record to re-derive
            // them).
            if self.durable {
                if let Some(w) = self.wal.as_mut() {
                    w.append_control(op.kind.as_u8(), claimed);
                    self.metrics.wal_records_appended += 1;
                    self.events_since_ckpt += 1;
                }
                self.wal_commit();
            }
            swept = self.control_sweep(op.kind, claimed);
            self.algo.on_control_commit(self.id, op.kind, claimed);
        }
        let _ = ack.send(ControlAck {
            shard: self.id,
            swept,
            nanos: start.elapsed().as_nanos() as u64,
        });
    }

    /// Walks every vertex resident in this shard's table and hands it to
    /// [`Algorithm::on_sweep`], routing whatever the sweep emits as
    /// ordinary `Update` envelopes (fully accounted by termination
    /// detection). Returns the number of vertices visited.
    fn control_sweep(&mut self, kind: ControlKind, mask: u64) -> u64 {
        self.metrics.control_sweeps += 1;
        let mut swept = 0u64;
        for v in self.store.vertex_ids() {
            let Some(h) = self.store.lookup(v) else {
                continue;
            };
            self.seq += 1;
            let (forked, parts) = self.store.fork_and_parts(h, self.cur_epoch);
            if forked {
                self.metrics.snapshot_forks += 1;
            }
            {
                let mut ctx = EventCtx::new(v, parts, &mut self.out, self.cur_epoch);
                ctx.set_shard(self.id);
                self.algo.on_sweep(&mut ctx, kind, mask);
                // A sweep that changes state (attach backfill reaching a
                // watched vertex) fires triggers exactly like an envelope.
                ctx.fire_triggers(&self.triggers, self.seq, &mut self.pending_fires);
            }
            // Control sweeps are engine-initiated, not caused by any one
            // external update: never traced.
            self.route_generated(v, self.cur_epoch, 0);
            swept += 1;
        }
        self.metrics.sweep_vertices += swept;
        self.flush_all();
        swept
    }

    /// Drains every flagged inbound data lane, returning each emptied batch
    /// buffer to its sender's pool. One bitmap probe covers the empty case
    /// — the hot loop never scans P lanes to find nothing. Mesh calls here
    /// and below go through the `self.lanes` borrow (each ends before the
    /// `&mut self` work after it): cloning the `Arc` instead would put two
    /// locked RMWs on a line every shard shares into every pass. Returns
    /// whether anything was admitted.
    ///
    /// The claim clears the pending bits, so until the pass ends
    /// `claim_buf` alone says which lanes hold delivered batches. A panic
    /// unwinding out of the pass leaves it intact and the respawned
    /// worker's first pass drains those lanes again (an already emptied one
    /// yields nothing) — otherwise batches nobody pushes behind would sit
    /// in their rings unflagged and their senders' books stay open.
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
            while let Some(mut batch) = self.lanes.mesh.recv(from, self.id) {
                any = true;
                self.admit(batch.drain(..));
                self.lanes.mesh.give_recycled(from, self.id, batch);
            }
        }
        self.claim_buf.clear();
        any
    }

    /// Takes custody of received envelopes and processes them. Under
    /// durability the whole run is logged first (memory only, panic-free),
    /// committed once, and only *then* processed: a record is on disk
    /// before any of its effects can escape this shard.
    fn admit(&mut self, envs: impl IntoIterator<Item = Envelope<A::State>>) {
        if self.durable {
            for env in envs {
                self.log_custody(&env);
                self.inbox.push_back(env);
            }
            self.wal_commit();
            while let Some(env) = self.inbox.pop_front() {
                self.process(env);
            }
        } else {
            for env in envs {
                self.process(env);
            }
        }
    }

    /// True when an `Update` carrying `value` cannot change the live state
    /// of the vertex at `h` — the value is information the target already
    /// holds ([`Algorithm::absorbs`]). Skipped when the event predates the
    /// vertex's snapshot fork: those must still dual-apply to the forked
    /// previous state. Algorithms without the hook are never filtered.
    /// Monotone states only advance, so a dominated update stays dominated
    /// no matter how long it waits.
    #[inline]
    fn is_dominated(&self, h: LocalIdx, epoch: Epoch, value: &A::State) -> bool {
        !self.store.applies_to_prev(h, epoch) && A::absorbs(self.store.live(h), value)
    }

    /// Processes one algorithmic envelope (live path: full accounting).
    fn process(&mut self, env: Envelope<A::State>) {
        self.process_inner(env, true);
    }

    /// The envelope-processing body. `count_input` is true on the live
    /// path. Recovery replay passes false: a replayed record was already
    /// accounted — its producer counted it sent, and either its original
    /// processing or the custody sweep counted it processed — so replay
    /// must re-derive its *effects* without re-counting the input
    /// (termination parity, per-kind event metrics, dominance retires) and
    /// without re-arming fault injection. Everything *generated* here
    /// (cascade updates, reverse events) is fresh on either path and is
    /// always fully counted.
    fn process_inner(&mut self, env: Envelope<A::State>, count_input: bool) {
        self.seq += 1;
        // Custody marker for the post-panic sweep: from here until the
        // closing `note_processed`, this envelope is held by nobody but
        // this frame.
        if self.durable && count_input {
            self.mid_process = Some(env.epoch);
        }
        if self.fault_armed && count_input {
            self.inject_faults(env.epoch);
        }
        // Telemetry sampling: 1-in-2^SAMPLE_SHIFT events pay two clock
        // reads and one flight-recorder slot; fault-armed shards record
        // every event so a chaos panic always has a dense trace behind it.
        let sampled = self.seq & SAMPLE_MASK == 0;
        if sampled || self.fault_armed {
            self.tele.record_flight(
                self.id,
                FlightTag::Process,
                env.epoch,
                env.target,
                env.kind as u64,
            );
        }
        let t0 = sampled.then(Instant::now);
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
        // the callback/fork/trigger machinery (see `is_dominated` for the
        // snapshot-fork exemption). The neighbour-cache write
        // (`set_cached`) is skipped too; that is sound because a dominated
        // value is information the target already holds.
        if known.is_some_and(|h| self.is_dominated(h, env.epoch, &env.value)) {
            if count_input {
                self.metrics.updates_dominated += 1;
                self.note_processed(env.epoch);
            }
            if env.tag != 0 {
                // A closed branch, not silence: the trace sees where its
                // cascade was cut off.
                self.trace_span(SpanKind::Dominate, env.tag, target, 0);
            }
            self.mid_process = None;
            self.finish_service(t0);
            return;
        }
        let h = known.unwrap_or_else(|| self.store.intern(target));
        let (forked, parts) = self.store.fork_and_parts(h, env.epoch);
        if forked {
            self.metrics.snapshot_forks += 1;
        }

        // Topology maintenance is handled by the framework (Algorithm 3):
        // Add/ReverseAdd insert the edge before the user callback runs.
        match env.kind {
            EventKind::Add | EventKind::ReverseAdd => {
                let cached = if env.kind == EventKind::ReverseAdd {
                    A::encode_cache(&env.value)
                } else {
                    0
                };
                let new_edge = parts.adj.insert_weight_min(
                    env.visitor,
                    EdgeMeta {
                        weight: env.weight,
                        cached,
                    },
                );
                if new_edge {
                    self.edges += 1;
                    self.metrics.edges_inserted += 1;
                } else {
                    self.metrics.duplicate_edges += 1;
                }
            }
            EventKind::Update => {
                // Cache the visitor's value on our edge to it, if present
                // (`this.nbrs.set(vis_ID, vis_val)`).
                parts
                    .adj
                    .set_cached(env.visitor, A::encode_cache(&env.value));
            }
            EventKind::Remove | EventKind::ReverseRemove => {
                if parts.adj.remove(env.visitor).is_some() {
                    self.edges -= 1;
                    self.metrics.edges_removed += 1;
                }
            }
            EventKind::Init => {}
        }

        // User callback (single store borrow: reverse-add value capture and
        // trigger evaluation happen inside the same handle access).
        let mut reverse_value: Option<A::State> = None;
        {
            let mut ctx = EventCtx::new(target, parts, &mut self.out, env.epoch);
            ctx.set_shard(self.id);
            // Per-kind counters sit on the accounted side of the envelope
            // balance, so replayed inputs must not move them.
            match env.kind {
                EventKind::Init => {
                    if count_input {
                        self.metrics.init_events += 1;
                    }
                    self.algo.init(&mut ctx);
                }
                EventKind::Add => {
                    if count_input {
                        self.metrics.add_events += 1;
                    }
                    self.algo
                        .on_add(&mut ctx, env.visitor, &env.value, env.weight);
                }
                EventKind::ReverseAdd => {
                    if count_input {
                        self.metrics.reverse_add_events += 1;
                    }
                    self.algo
                        .on_reverse_add(&mut ctx, env.visitor, &env.value, env.weight);
                }
                EventKind::Update => {
                    if count_input {
                        self.metrics.update_events += 1;
                    }
                    self.algo
                        .on_update(&mut ctx, env.visitor, &env.value, env.weight);
                }
                EventKind::Remove => {
                    if count_input {
                        self.metrics.remove_events += 1;
                    }
                    self.algo
                        .on_remove(&mut ctx, env.visitor, &env.value, env.weight);
                }
                EventKind::ReverseRemove => {
                    if count_input {
                        self.metrics.remove_events += 1;
                    }
                    self.algo
                        .on_reverse_remove(&mut ctx, env.visitor, &env.value, env.weight);
                }
            }

            // For an undirected Add/Remove, the reverse event carries our
            // value *after* the callback ran (Algorithm 3 sends
            // `this.value`).
            if self.config.undirected && matches!(env.kind, EventKind::Add | EventKind::Remove) {
                reverse_value = Some(ctx.state().clone());
            }

            ctx.fire_triggers(&self.triggers, self.seq, &mut self.pending_fires);
        }

        // Tracing: one Process (live) / Replay (recovery) span per tagged
        // envelope, with the callback's fan-out before suppression trims
        // it. Every generated envelope below inherits the tag at hop+1 —
        // the registry's Delta fan-out rides the same outgoing path, so
        // multi-query traces come for free.
        let ctag = trace::child(env.tag);
        if env.tag != 0 {
            let fanout = u64::from(reverse_value.is_some()) + self.out.len() as u64;
            let kind = if count_input {
                SpanKind::Process
            } else {
                SpanKind::Replay
            };
            self.trace_span(kind, env.tag, target, fanout);
            self.tele.record_flight(
                self.id,
                FlightTag::Trace,
                env.epoch,
                trace::trace_id(env.tag),
                u64::from(trace::hop_of(env.tag)),
            );
        }

        if let Some(value) = reverse_value {
            let kind = if env.kind == EventKind::Add {
                EventKind::ReverseAdd
            } else {
                EventKind::ReverseRemove
            };
            self.send_envelope(Envelope {
                target: env.visitor,
                visitor: target,
                value,
                weight: env.weight,
                kind,
                epoch: env.epoch,
                tag: ctag,
            });
        }

        self.route_generated(target, env.epoch, ctag);

        // Retire the envelope only after its children's sends were
        // published (four-counter soundness).
        if count_input {
            self.note_processed(env.epoch);
        }
        self.mid_process = None;
        self.finish_service(t0);
    }

    /// Tail of every callback: hands the trigger fires it raised to the
    /// controller and routes the updates it generated as ordinary `Update`
    /// envelopes from `visitor` (fully accounted by termination detection),
    /// keeping the buffer's allocation for the next event. Runs once per
    /// envelope: kept in `process_inner`'s body, not behind a call.
    #[inline(always)]
    fn route_generated(&mut self, visitor: VertexId, epoch: Epoch, tag: TraceTag) {
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
                epoch,
                tag,
            });
        }
        self.out = outgoing;
    }

    /// Appends one span to this shard's ring, moving the span counters
    /// (`trace_spans_dropped` counts ring evictions — see the overflow
    /// policy in [`crate::trace`]). Callers gate on `env.tag != 0` (or
    /// `trace_on` for roots), so the untraced path never lands here.
    #[inline]
    fn trace_span(&mut self, kind: SpanKind, tag: TraceTag, a: u64, b: u64) {
        self.metrics.trace_spans += 1;
        if self.tele.record_span(self.id, kind, tag, a, b) {
            self.metrics.trace_spans_dropped += 1;
        }
    }

    /// Closes a sampled service-time measurement opened in `process`.
    #[inline]
    fn finish_service(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.tele
                .record_service(self.id, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Publishes one processed envelope of `epoch`'s parity.
    #[inline]
    fn note_processed(&mut self, epoch: Epoch) {
        use std::sync::atomic::Ordering;
        let p = (epoch & 1) as usize;
        self.processed_local[p] += 1;
        self.shared.slot(self.id).processed[p].store(self.processed_local[p], Ordering::Release);
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
        let queue_depth = (self.rx.len() + self.local_q.len()) as u64;
        let lane_occupancy = self.lanes.mesh.inbound_occupancy(self.id) as u64;
        self.tele
            .publish_counters(self.id, &self.metrics, queue_depth, lane_occupancy);
    }

    /// Publishes one created envelope of `epoch`'s parity. Must happen
    /// before the envelope becomes receivable.
    #[inline]
    fn note_sent(&mut self, epoch: Epoch) {
        use std::sync::atomic::Ordering;
        let p = (epoch & 1) as usize;
        self.sent_local[p] += 1;
        self.shared.slot(self.id).sent[p].store(self.sent_local[p], Ordering::Release);
    }

    /// Routes a pulled topology event as an `Add`/`Remove` at `owner(src)`,
    /// stamped with `tag` when the ingest was trace-sampled (hop 1).
    fn route_topo(&mut self, ev: TopoEvent, epoch: Epoch, tag: TraceTag) {
        let kind = match ev.op {
            crate::event::TopoOp::Add => EventKind::Add,
            crate::event::TopoOp::Remove => EventKind::Remove,
        };
        self.send_envelope(Envelope {
            target: ev.src,
            visitor: ev.dst,
            value: A::State::default(),
            weight: ev.weight,
            kind,
            epoch,
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
                .is_some_and(|h| self.is_dominated(h, env.epoch, &env.value))
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
        self.note_sent(env.epoch);
        self.metrics.envelopes_sent += 1;
        // A tagged envelope is counted sent here exactly once, so the
        // Send span is the amplification unit (cross-checkable against
        // `envelopes_sent`). `b` is the destination shard.
        if env.tag != 0 {
            self.trace_span(SpanKind::Send, env.tag, env.target, owner as u64);
        }
        // Chaos: lose this envelope "in transit" — after the sent counter
        // was published, exactly like a message a real network ate. The
        // imbalance is what the controller's deadline machinery must catch.
        if self.fault_armed
            && self
                .config
                .fault_plan
                .should_drop(self.id, self.metrics.envelopes_sent)
        {
            self.metrics.faults_injected += 1;
            self.metrics.envelopes_dropped += 1;
            self.tele
                .record_flight(self.id, FlightTag::Fault, env.epoch, 3, self.seq);
            return;
        }
        if owner == self.id {
            self.local_q.push_back(env);
            return;
        }
        self.outboxes[owner].push(env);
        if self.outboxes[owner].len() >= self.config.envelope_batch {
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
        self.tele.record_flight(
            self.id,
            FlightTag::Flush,
            self.cur_epoch,
            owner as u64,
            self.outboxes[owner].len() as u64,
        );
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
    /// (`custody_clear`, the custody sweeps; held envelopes are sent and
    /// not yet processed, so quiescence cannot fire over them).
    ///
    /// A held batch keeps the length it left the outbox with, so the
    /// buffers circulating through the recycle pool stay ordinary sized
    /// however long the receiver stalls. The lane is tried again when the
    /// outbox has filled once more and at every `flush_all`, not per
    /// envelope: until then a held batch waits as a partial outbox does,
    /// for its sender to fill a batch or go idle.
    fn do_flush(&mut self, owner: usize) {
        let fresh = !self.outboxes[owner].is_empty();
        if fresh {
            // Pool a drained buffer for the next fill — steady-state
            // flushes allocate nothing.
            let next = self.lanes.mesh.take_recycled(self.id, owner);
            self.metrics.batches_recycled += u64::from(next.is_some());
            let batch = std::mem::replace(&mut self.outboxes[owner], next.unwrap_or_default());
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
        for env in batch {
            self.note_processed(env.epoch);
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
            self.tele
                .record_flight(self.id, FlightTag::Unpark, self.cur_epoch, owner as u64, 0);
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

    /// One pull run: `first` plus up to `PULL_RUN - 1` more topology events,
    /// each counted, sampled, tagged and routed exactly as a lone pull —
    /// per-stream order in, per-pair lane order out. Only the pass's fixed
    /// costs are shared by the run.
    fn pull_run(&mut self, first: TopoEvent, epoch: Epoch) {
        use std::sync::atomic::Ordering;
        // Durable runs stage their pulls here until the group commit; the
        // scratch is taken out of `self` so an unwinding commit failure
        // drops it with the frame (the pulls' WAL frames are discarded by
        // the custody sweep, so they must not be routed afterwards).
        let mut staged = std::mem::take(&mut self.topo_staged);
        let mut first = Some(first);
        for _ in 0..PULL_RUN {
            let Some(ev) = first.take().or_else(|| self.next_topo()) else {
                break;
            };
            self.metrics.topo_ingested += 1;
            self.ingested_local += 1;
            if self.metrics.topo_ingested & SAMPLE_MASK == 0 {
                self.tele
                    .record_flight(self.id, FlightTag::TopoIngest, epoch, ev.src, ev.dst);
            }
            // Sampled causal tracing: every 2^shift-th external ingest
            // mints a trace. The ingest itself is hop 0 (the Root
            // span); the envelope it spawns carries hop 1 and every
            // descendant inherits hop+1 — see crate::trace.
            let mut tag: TraceTag = 0;
            if self.trace_on && self.metrics.topo_ingested & self.trace_mask == 0 {
                self.trace_seq += 1;
                let id = ((self.id as u64 + 1) << 40) | self.trace_seq;
                self.metrics.trace_roots += 1;
                self.trace_span(SpanKind::Root, trace::pack(id, 0), ev.src, ev.dst);
                tag = trace::pack(id, 1);
            }
            if self.durable {
                // Log the pull (with its ingestion epoch) now; route it
                // after the run's one commit, below.
                self.log_topo(&ev, epoch);
                staged.push((ev, tag));
            } else {
                self.route_topo(ev, epoch, tag);
            }
        }
        if self.durable {
            // One group commit per run: every pull of the run is on disk
            // before the first envelope any of them spawns can leave the
            // shard.
            self.wal_commit();
            for (ev, tag) in staged.drain(..) {
                self.route_topo(ev, epoch, tag);
            }
        }
        self.topo_staged = staged;
        // Publish the run only after its last `route_topo` published the
        // spawned envelope's `sent` count. The reverse order opens a
        // false-quiescence window: with `ingested == injected` satisfied
        // and an envelope of the run not yet counted, a probe between the
        // two stores reads balanced books while work is still
        // materialising — and the WAL write above makes that window
        // syscall-wide. Publishing late, by up to a run, only delays the
        // probe: `ingested` lags `injected` for as long as any pull of
        // the run is uncounted, a benign false negative.
        self.shared
            .slot(self.id)
            .ingested
            .store(self.ingested_local, Ordering::Release);
    }

    /// Next topology event from the shard's pending streams.
    fn next_topo(&mut self) -> Option<TopoEvent> {
        loop {
            let front = self.streams.front_mut()?;
            match front.next() {
                Some(ev) => return Some(ev),
                None => {
                    self.streams.pop_front();
                }
            }
        }
    }

    /// Collects this shard's contribution to a snapshot (or the live view).
    fn collect(&mut self, old_epoch: Epoch, live: bool) -> Vec<(VertexId, A::State)> {
        self.store.collect(old_epoch, live)
    }

    // ---- durability: WAL custody, checkpoints, recovery ----------------
    //
    // Every method below is reached only when `self.durable` is true (the
    // callers gate on it), except the panic-free `prepare_recovery` sweep
    // which the supervisor invokes between unwind and re-entry.

    /// True when a previous process left durable state for this shard.
    fn has_durable_state(&self) -> bool {
        match &self.config.durability {
            Some(d) => wal::has_durable_state(&d.dir, self.id),
            None => false,
        }
    }

    /// Opens the WAL inside the supervised region (an IO failure becomes
    /// a recorded shard failure, not a silent death).
    fn open_wal(&mut self) {
        let Some(d) = &self.config.durability else {
            return;
        };
        match ShardWal::open(&d.dir, self.id, d.fsync) {
            Ok(w) => self.wal = Some(w),
            Err(e) => panic!("durability: failed to open WAL for shard {}: {e}", self.id),
        }
    }

    /// Buffers one accepted envelope into the WAL (custody point). The
    /// frame becomes durable at the next [`ShardWorker::wal_commit`].
    fn log_custody(&mut self, env: &Envelope<A::State>) {
        self.wal_scratch.clear();
        A::encode_state(&env.value, &mut self.wal_scratch);
        if let Some(w) = self.wal.as_mut() {
            w.append_envelope(
                env.kind.as_u8(),
                env.epoch,
                env.target,
                env.visitor,
                env.weight,
                env.tag,
                &self.wal_scratch,
            );
            self.metrics.wal_records_appended += 1;
            self.events_since_ckpt += 1;
        }
    }

    /// Buffers one pulled topology event into the WAL.
    fn log_topo(&mut self, ev: &TopoEvent, epoch: Epoch) {
        if let Some(w) = self.wal.as_mut() {
            w.append_topo(ev, epoch);
            self.metrics.wal_records_appended += 1;
            self.events_since_ckpt += 1;
        }
    }

    /// Writes (and under `DurabilityConfig::fsync`, syncs) the buffered
    /// WAL frames. Called at batch boundaries, before processing.
    fn wal_commit(&mut self) {
        if let Some(w) = self.wal.as_mut() {
            match w.commit() {
                Ok(n) => self.metrics.wal_bytes += n,
                Err(e) => panic!("durability: WAL commit failed on shard {}: {e}", self.id),
            }
        }
    }

    /// All custody drained? (The checkpoint-at-idle precondition: with
    /// every queue empty the store is a complete description of this
    /// shard, so checkpoint + empty WAL ≡ current state.)
    fn custody_clear(&self) -> bool {
        self.local_q.is_empty()
            && self.inbox.is_empty()
            && self.out.is_empty()
            && self.outboxes.iter().all(|b| b.is_empty())
            && self.held.iter().all(|q| q.is_empty())
    }

    /// Checkpoints if the WAL has grown past the configured interval (or
    /// unconditionally on `force`, the shutdown path) — but only from a
    /// fully drained state.
    fn maybe_checkpoint(&mut self, force: bool) {
        if !self.durable || self.events_since_ckpt == 0 {
            return;
        }
        let every = self
            .config
            .durability
            .as_ref()
            .map_or(u64::MAX, |d| d.checkpoint_every);
        if (!force && self.events_since_ckpt < every) || !self.custody_clear() {
            return;
        }
        self.write_checkpoint();
    }

    /// Serializes the store (streamed through
    /// [`DenseStore::export_records`]) plus the small scalar tail.
    fn encode_checkpoint(&self) -> Vec<u8> {
        use crate::wal::{put_bytes, put_u32, put_u64};
        let mut body = Vec::with_capacity(64 + self.store.num_vertices() * 48);
        put_u64(&mut body, self.seq);
        put_u32(&mut body, self.cur_epoch);
        put_u64(&mut body, self.edges);
        put_u64(&mut body, self.store.num_vertices() as u64);
        let mut scratch = Vec::new();
        self.store.export_records(&mut |v, live, prev, meta, adj| {
            put_u64(&mut body, v);
            put_u32(&mut body, meta.forked_epoch);
            put_u32(&mut body, meta.fired);
            scratch.clear();
            A::encode_state(live, &mut scratch);
            put_bytes(&mut body, &scratch);
            match prev {
                Some(p) => {
                    body.push(1);
                    scratch.clear();
                    A::encode_state(p, &mut scratch);
                    put_bytes(&mut body, &scratch);
                }
                None => body.push(0),
            }
            put_u32(&mut body, adj.degree() as u32);
            for (nbr, m) in adj.iter() {
                put_u64(&mut body, nbr);
                put_u64(&mut body, m.weight);
                put_u64(&mut body, m.cached);
            }
        });
        body
    }

    /// Stage → (chaos window) → publish → truncate WAL. A crash anywhere
    /// in the sequence leaves a recoverable pair: old checkpoint + full
    /// WAL, or new checkpoint + (possibly still-full) WAL whose replay is
    /// idempotent.
    #[cold]
    fn write_checkpoint(&mut self) {
        let root = match &self.config.durability {
            Some(d) => d.dir.clone(),
            None => return,
        };
        let t0 = Instant::now();
        self.ckpt_attempts += 1;
        let body = self.encode_checkpoint();
        if let Err(e) = wal::stage_checkpoint(&root, self.id, &body) {
            panic!(
                "durability: checkpoint staging failed on shard {}: {e}",
                self.id
            );
        }
        if self.fault_armed {
            self.inject_checkpoint_fault();
        }
        if let Err(e) = wal::publish_checkpoint(&root, self.id) {
            panic!(
                "durability: checkpoint publish failed on shard {}: {e}",
                self.id
            );
        }
        if let Some(w) = self.wal.as_mut() {
            if let Err(e) = w.reset() {
                panic!("durability: WAL reset failed on shard {}: {e}", self.id);
            }
        }
        self.events_since_ckpt = 0;
        self.metrics.checkpoints_written += 1;
        self.tele.record_checkpoint(t0.elapsed().as_nanos() as u64);
        self.tele.record_flight(
            self.id,
            FlightTag::Checkpoint,
            self.cur_epoch,
            body.len() as u64,
            0,
        );
    }

    /// Chaos: die between checkpoint staging and publish (fires once).
    #[cold]
    fn inject_checkpoint_fault(&mut self) {
        if let Some((shard, nth)) = self.config.fault_plan.panic_in_checkpoint {
            if shard == self.id && self.ckpt_attempts >= nth && !self.ckpt_fault_fired {
                self.ckpt_fault_fired = true;
                self.metrics.faults_injected += 1;
                self.publish_telemetry();
                panic!(
                    "{CHAOS_PANIC_MARKER}: shard {} during checkpoint {}",
                    self.id, self.ckpt_attempts
                );
            }
        }
    }

    /// Chaos: die while replaying the `nth` WAL record (fires once).
    #[cold]
    fn inject_replay_fault(&mut self, nth: u64) {
        if let Some((shard, at)) = self.config.fault_plan.panic_in_replay {
            if shard == self.id && nth >= at && !self.replay_fault_fired {
                self.replay_fault_fired = true;
                self.metrics.faults_injected += 1;
                self.publish_telemetry();
                panic!(
                    "{CHAOS_PANIC_MARKER}: shard {} during replay record {nth}",
                    self.id
                );
            }
        }
    }

    /// Replaces the in-memory store with the latest published checkpoint
    /// (or an empty store when none exists yet). On a cold start the
    /// previous process's epoch timeline is void: forks are dropped and
    /// fork epochs zeroed; fired-trigger bits survive either way so
    /// at-most-once firing spans the restart.
    fn restore_checkpoint(&mut self, root: &std::path::Path, cold: bool) {
        let shard_cap = self
            .config
            .expected_vertices
            .div_ceil(self.config.num_shards);
        let shard_cap = shard_cap + shard_cap / 8;
        self.store = DenseStore::with_capacity(shard_cap);
        self.edges = 0;
        let body = match wal::read_checkpoint(root, self.id) {
            Ok(b) => b,
            Err(e) => panic!(
                "durability: checkpoint read failed on shard {}: {e}",
                self.id
            ),
        };
        let Some(body) = body else {
            return;
        };
        let mut r = wal::ByteReader::new(&body);
        let parsed = (|| -> std::io::Result<()> {
            let seq = r.u64()?;
            let _epoch = r.u32()?;
            let edges = r.u64()?;
            let vertices = r.u64()?;
            for _ in 0..vertices {
                let v = r.u64()?;
                let forked_epoch = r.u32()?;
                let fired = r.u32()?;
                let live = A::decode_state(r.bytes()?);
                let prev = if r.u8()? == 1 {
                    Some(A::decode_state(r.bytes()?))
                } else {
                    None
                };
                let degree = r.u32()?;
                let mut adj = Adjacency::new();
                for _ in 0..degree {
                    let nbr = r.u64()?;
                    let weight = r.u64()?;
                    let cached = r.u64()?;
                    adj.insert(nbr, EdgeMeta { weight, cached });
                }
                let meta = VertexMeta {
                    forked_epoch: if cold { 0 } else { forked_epoch },
                    fired,
                };
                self.store
                    .restore_record(v, live, if cold { None } else { prev }, meta, adj);
            }
            self.seq = self.seq.max(seq);
            self.edges = edges;
            Ok(())
        })();
        if let Err(e) = parsed {
            panic!("durability: malformed checkpoint on shard {}: {e}", self.id);
        }
    }

    /// Restore + replay, inside the supervised region (a panic here —
    /// chaos-injected or real — consumes another respawn). Replayed
    /// records run uncounted ([`ShardWorker::process_inner`] with
    /// `count_input = false`); the traffic they *generate* is fresh and
    /// fully counted, which is what keeps the four-counter books balanced
    /// over at-least-once replay.
    #[cold]
    fn recover(&mut self) {
        let cold = self.cold_start;
        self.cold_start = false;
        let root = match &self.config.durability {
            Some(d) => d.dir.clone(),
            None => return,
        };
        self.restore_checkpoint(&root, cold);
        let records = match wal::read_wal(&root, self.id) {
            Ok(r) => r,
            Err(e) => panic!("durability: WAL read failed on shard {}: {e}", self.id),
        };
        let total = records.len() as u64;
        let mut replayed = 0u64;
        for rec in records {
            replayed += 1;
            if self.fault_armed {
                self.inject_replay_fault(replayed);
            }
            match rec {
                RawRecord::Envelope {
                    kind,
                    epoch,
                    target,
                    visitor,
                    weight,
                    tag,
                    state,
                } => {
                    let Some(kind) = EventKind::from_u8(kind) else {
                        panic!(
                            "durability: unknown envelope kind {kind} in shard {} WAL",
                            self.id
                        );
                    };
                    // The tag rides the WAL frame, so a replayed envelope
                    // keeps its trace identity — process_inner records a
                    // Replay span for it (count_input = false), never a
                    // Process span, so replay is visible in the tree
                    // without inflating amplification.
                    let env = Envelope {
                        target,
                        visitor,
                        value: A::decode_state(&state),
                        weight,
                        kind,
                        epoch: if cold { 0 } else { epoch },
                        tag,
                    };
                    self.process_inner(env, false);
                }
                RawRecord::Topo { ev, epoch } => {
                    // Fresh sends (the pull itself was already counted
                    // ingested by the original run; replay must not move
                    // `ingested` or the stream books would overrun).
                    // Untagged: the original ingest's Root span (if it was
                    // sampled) already anchors the trace, and the replayed
                    // envelope chain is re-derived below it.
                    self.route_topo(ev, if cold { 0 } else { epoch }, 0);
                }
                RawRecord::Control { kind, mask } => {
                    // Re-derive the sweep's effects. Replaying a committed
                    // control record is monotone-safe: a duplicated prime
                    // rebuilds the same columns, a duplicated flood re-sends
                    // values the neighbours already dominate.
                    let Some(kind) = ControlKind::from_u8(kind) else {
                        panic!(
                            "durability: unknown control kind {kind} in shard {} WAL",
                            self.id
                        );
                    };
                    self.control_sweep(kind, mask);
                    self.algo.on_control_commit(self.id, kind, mask);
                }
            }
            self.metrics.replayed_records += 1;
            // Drain the cascades each replayed record spawns before the
            // next record, preserving the WAL's custody order the same
            // way the live loop drains local work between admissions.
            self.drain_replay_backlog();
        }
        // Everything replayed is still in the WAL (reset happens only at
        // checkpoint publish), so the next idle checkpoint covers it.
        self.events_since_ckpt = total;
        self.needs_recovery = false;
        // Replay is complete: every swept envelope's effects are
        // re-derived and re-counted, so lift the termination gate.
        self.shared.recovery_end();
        self.tele.record_flight(
            self.id,
            FlightTag::Respawn,
            self.cur_epoch,
            u64::from(self.respawns_done),
            replayed,
        );
        self.flush_all();
        self.publish_telemetry();
    }

    /// Drains self-routed work generated by replay (full accounting —
    /// this is live traffic, merely born during recovery).
    fn drain_replay_backlog(&mut self) {
        while let Some(env) = self.local_q.pop_front() {
            self.process(env);
        }
    }

    /// Post-panic custody sweep, run *outside* the supervised region — it
    /// must be panic-free (queue drains, counter stores, no IO, no user
    /// code). Every envelope still held by this worker is retired against
    /// the termination books exactly once, mirroring
    /// [`ShardWorker::retire_batch`]'s counter motion: whether this shard
    /// *sent* it and never received it (backlogs, outboxes, local queue) or took
    /// custody of it from a peer (inbox, the half-processed one), it was
    /// counted sent and owes a processed mark. Replay re-derives all of
    /// their effects from the WAL.
    fn prepare_recovery(&mut self) {
        use std::sync::atomic::Ordering;
        // Gate termination detection BEFORE the first retirement below:
        // the sweep balances the books without having re-derived the
        // swept work, and the probe must be able to tell. Idempotent
        // across a panic-during-replay (needs_recovery is still set).
        if !self.needs_recovery {
            self.needs_recovery = true;
            self.shared.recovery_begin();
        }
        self.metrics.shard_respawns += 1;
        if let Some(epoch) = self.mid_process.take() {
            self.retire_recovered(epoch);
        }
        // Un-routed callback output and un-sent trigger fires: never
        // entered any book, just dropped (replay regenerates them).
        self.out.clear();
        self.pending_fires.clear();
        for owner in 0..self.outboxes.len() {
            let held = std::mem::take(&mut self.held[owner]);
            let outbox = std::mem::take(&mut self.outboxes[owner]);
            for env in held.into_iter().flatten().chain(outbox) {
                self.retire_recovered(env.epoch);
            }
        }
        while let Some(env) = self.local_q.pop_front() {
            self.retire_recovered(env.epoch);
        }
        while let Some(env) = self.inbox.pop_front() {
            self.retire_recovered(env.epoch);
        }
        // WAL frames buffered but not committed belong to envelopes just
        // swept: discard them, replay must not see them.
        if let Some(w) = self.wal.as_mut() {
            w.discard_pending();
        }
        // A panic between a pull run's local increments and its slot store
        // (the run's WAL commit sits in that region) would otherwise leave
        // the published `ingested` permanently a run behind — re-publish it.
        self.shared
            .slot(self.id)
            .ingested
            .store(self.ingested_local, Ordering::Release);
        self.publish_telemetry();
    }

    /// One swept envelope.
    fn retire_recovered(&mut self, epoch: Epoch) {
        self.metrics.envelopes_recovered += 1;
        self.note_processed(epoch);
    }

    fn report(mut self) -> ShardReport<A::State> {
        // Final cell publish: metrics_now observers see the exact counters
        // this report carries, even after the thread is gone.
        self.publish_telemetry();
        let states = self.collect(u32::MAX, true);
        let num_vertices = self.store.num_vertices();
        let adjacency_bytes = self.store.adjacency_heap_bytes();
        let store_bytes = self.store.heap_bytes();
        ShardReport {
            id: self.id,
            states,
            metrics: self.metrics,
            num_vertices,
            num_edges: self.edges,
            adjacency_bytes,
            store_bytes,
            table: self.store,
        }
    }
}

/// Direct regression coverage for the undeliverable-batch path and the
/// lane transport's sender-side machinery: these drive one `ShardWorker`
/// by hand (no engine, no threads), which is the only way to pin down the
/// exact counter movements — chaos runs exercise the same paths but only
/// observe the aggregate balance.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LaneHandles;
    use crossbeam::channel::unbounded;

    /// Minimal algorithm: default callbacks, `u64` state.
    struct Noop;
    impl Algorithm for Noop {
        type State = u64;
    }

    struct Fixture {
        worker: ShardWorker<Noop>,
        shared: Arc<SharedCounters>,
        board: Arc<FailureBoard>,
        /// The controller's end of shard 0's channel — the only sender.
        controller: Sender<Message<u64>>,
        /// Keep the trigger receiver alive for the fixture's lifetime
        /// (the worker ignores send failures, but a live channel matches
        /// the engine's wiring).
        _trigger_rx: Receiver<TriggerFire>,
    }

    /// A two-shard world with shard 0 driven by hand and shard 1 absent:
    /// the test plays its part on the mesh.
    fn fixture() -> Fixture {
        let config = EngineConfig::undirected(2);
        let shared = Arc::new(SharedCounters::new(2));
        let board = Arc::new(FailureBoard::new());
        let (controller, rx) = unbounded();
        let (trigger_tx, trigger_rx) = unbounded();
        let tele = Arc::new(TelemetryShared::new(
            config.trace.clone(),
            2,
            Arc::clone(&shared),
            Arc::clone(&board),
        ));
        let worker = ShardWorker::new(
            0,
            Arc::new(Noop),
            config,
            rx,
            Arc::clone(&shared),
            Arc::clone(&board),
            Arc::new(Vec::new()),
            trigger_tx,
            LaneHandles::new(2),
            tele,
        );
        Fixture {
            worker,
            shared,
            board,
            controller,
            _trigger_rx: trigger_rx,
        }
    }

    impl Fixture {
        /// Fills lane (0, 1) to the brim with empty batches.
        fn fill_lane(&self) {
            while self.worker.lanes.mesh.send(0, 1, Vec::new()).is_ok() {}
        }

        /// Shard 1 dies: the failure board says so.
        fn kill_peer(&self) {
            self.board.record(ShardFailure {
                id: 1,
                payload: "test kill".into(),
                last_epoch: 0,
                trace: Vec::new(),
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
            epoch: 0,
            tag: 0,
        }
    }

    #[test]
    fn pull_run_is_bounded_ordered_and_published_once() {
        use std::sync::atomic::Ordering;
        let mut f = fixture();
        let stream: Vec<TopoEvent> = (0..100).map(|v| TopoEvent::new(v, v + 1000)).collect();
        f.worker.streams.push_back(stream.into_iter());
        let first = f.worker.next_topo().expect("the stream is not empty");
        f.worker.pull_run(first, 0);
        // The bound a point read waits behind: one run, not the stream.
        assert_eq!(f.worker.metrics.topo_ingested, PULL_RUN as u64);
        assert_eq!(
            f.shared.slot(0).ingested.load(Ordering::Acquire),
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
        assert_eq!(f.worker.sent_local[0], PULL_RUN as u64);
        // The next run takes what is left and stops at the stream's end.
        let first = f.worker.next_topo().expect("36 events remain");
        f.worker.pull_run(first, 0);
        assert_eq!(f.worker.metrics.topo_ingested, 100);
        assert!(f.worker.next_topo().is_none());
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
        assert!(!f.shared.quiescent_probe(), "held envelopes are in flight");
        f.kill_peer();
        f.worker.flush_all();
        assert_eq!(f.worker.metrics.envelopes_undeliverable, 10);
        assert!(f.worker.custody_clear());
        assert_eq!(f.worker.sent_local[0], f.worker.processed_local[0]);
        assert!(
            f.shared.quiescent_probe(),
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
        assert!(!f.shared.quiescent_probe(), "lane batch is in flight");

        // The idle sweep drains the dead shard's lane and the backlog
        // behind it even with nothing further addressed to it.
        f.kill_peer();
        f.worker.flush_all();
        assert_eq!(f.worker.metrics.envelopes_undeliverable, 5);
        assert!(f.shared.quiescent_probe());

        // Later sends to the dead shard retire at flush.
        for &v in &targets[5..] {
            f.worker.send_envelope(env(v));
        }
        f.worker.flush_all();
        assert_eq!(f.worker.metrics.envelopes_undeliverable, 8);
        assert!(f.shared.quiescent_probe());
    }

    #[test]
    fn full_lane_holds_batches_and_ships_them_in_order() {
        let mut f = fixture();
        f.worker.config.envelope_batch = 4;
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
        assert!(!f.worker.custody_clear(), "a held batch is custody");
        assert!(!f.shared.quiescent_probe(), "held envelopes are in flight");

        // Room for one: the oldest held batch ships, the rest keep their
        // place ahead of the newer envelope.
        assert!(mesh.recv(0, 1).is_some_and(|b| b.is_empty()));
        f.worker.send_envelope(env(targets[9]));
        f.worker.flush_all();
        assert_eq!(held(&f), [4, 1, 1]);
        assert_eq!(f.worker.metrics.lane_batches, 1);

        // The lane drained: the backlog ships before the new batch, in
        // order, no batch longer than `envelope_batch`.
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
        assert!(f.worker.custody_clear());
        assert_eq!(f.worker.metrics.lane_batches, 5);
        assert_eq!(f.worker.metrics.lane_full_fallbacks, 4, "no new holds");
        got.retain(|b| !b.is_empty());
        assert_eq!(
            got.iter().map(Vec::len).collect::<Vec<_>>(),
            [4, 4, 1, 1, 3]
        );
        assert_eq!(got.concat(), targets);
    }

    #[test]
    fn flush_reuses_recycled_buffers() {
        let mut f = fixture();
        let mesh = Arc::clone(&f.worker.lanes.mesh);
        let targets = peer_targets(2);
        f.worker.send_envelope(env(targets[0]));
        f.worker.flush_all();
        assert_eq!(f.worker.metrics.lane_batches, 1);
        assert_eq!(
            f.worker.metrics.batches_recycled, 1,
            "the primed pool feeds the very first flush"
        );
        // Play the receiver: drain the batch, return the buffer home.
        let mut b = mesh.recv(0, 1).expect("batch was shipped on the lane");
        b.clear();
        mesh.give_recycled(0, 1, b);
        f.worker.send_envelope(env(targets[1]));
        f.worker.flush_all();
        assert_eq!(f.worker.metrics.lane_batches, 2);
        assert_eq!(
            f.worker.metrics.batches_recycled, 2,
            "second flush hit the pool"
        );
    }

    /// Shards used to hold a sender to every shard's channel, their own
    /// included, so no channel could ever disconnect. Now the controller
    /// holds the only one: dropping it without a `Shutdown` must stop the
    /// shard, and the shard must still hand back its report.
    #[test]
    fn dropped_controller_sender_stops_the_shard() {
        use std::sync::atomic::Ordering;
        let Fixture {
            worker,
            shared,
            controller,
            ..
        } = fixture();
        let shard = std::thread::spawn(move || worker.run_supervised());
        // Work first, so the report has something to show: an edge between
        // two of shard 0's own vertices.
        let part = Partitioner::new(2);
        let mine: Vec<VertexId> = (0u64..).filter(|&v| part.owner(v) == 0).take(2).collect();
        shared.injected.fetch_add(1, Ordering::SeqCst);
        let edge = TopoEvent::new(mine[0], mine[1]);
        controller.send(Message::Stream(vec![edge])).unwrap();
        while !shared.quiescent_probe() {
            std::thread::yield_now();
        }
        drop(controller);
        let report = shard.join().unwrap().expect("a clean stop still reports");
        assert_eq!(report.num_edges, 2);
    }
}
