//! The engine controller: spawns shards, routes streams, detects
//! quiescence, collects snapshots and final state.
//!
//! An [`Engine`] is the embodiment of Figure 1: an incoming stream of events
//! (1) modifies the graph (4) while the hooked algorithm (2,3) observes
//! events (5) and maintains its dynamic state. The controller thread is
//! *not* on the data path — shards exchange visitor messages directly over
//! their FIFO channels — it only injects streams, requests global state
//! collections, and harvests results.
//!
//! ## Supervision
//!
//! Every shard runs under `catch_unwind`: a panicking shard publishes a
//! structured [`ShardFailure`] to the engine's [`FailureBoard`] instead of
//! silently dying. The `try_*` methods form the supervised API: they return
//! `Result<_, EngineError>`, check the failure board on every wake of every
//! wait (so a dead shard surfaces as [`EngineError::ShardPanicked`] rather
//! than a hang), and honour [`EngineConfig::quiescence_deadline`] and the
//! fixed shutdown budget.
//! [`Engine::try_finish`] degrades gracefully: it harvests state, metrics,
//! and tables from surviving shards and reports the dead ones in
//! [`RunResult::failures`] instead of losing the whole run. The `try_*`
//! methods are the only public surface; the seed's infallible wrappers
//! (deprecated in the supervision PR) have been removed.
//!
//! ## Waiting
//!
//! Every supervised wait is one loop (`Engine::wait_until`): probe, sleep
//! on the bell in `SharedCounters`, and let a shard ring it when it parks,
//! empties a chunk or exits. The teardown waits sleep on
//! the same bell under the shutdown budget, and so does a registry
//! control op (`Engine::control`), which a dead shard does not fail. The verdict is always the probe's; a ring only
//! says when to probe again, and `HEARTBEAT` bounds the sleep when nothing
//! rings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use remo_store::{VertexId, Weight};

use crate::algorithm::Algorithm;
use crate::config::EngineConfig;
use crate::event::{Chunk, ControlOp, Items, TopoOp};
use crate::metrics::RunMetrics;
use crate::partition::Partitioner;
use crate::shard::{Message, ShardReport, ShardWorker, INGEST_CHUNK, INGEST_WINDOW};
use crate::snapshot::Snapshot;
use crate::storage::DenseStore;
use crate::supervision::{panic_payload_string, EngineError, FailureBoard, ShardFailure};
use crate::telemetry::{TelemetryHub, TelemetryShared};
use crate::termination::{Deadline, SharedCounters, HEARTBEAT};
use crate::transport::{LaneHandles, MAX_LANE_SHARDS};
use crate::trigger::{TriggerDef, TriggerFire, MAX_TRIGGERS};
use crate::wal::{self, CkptHeader};

/// Best-effort budget for joining shard threads during `Drop` and at the
/// end of `try_finish`, and for letting survivors settle after a failure;
/// threads still running afterwards are detached rather than blocking
/// teardown.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(2);

/// True when a shard fed `fed` events, of which it pulled `ingested`,
/// has room for `n` more within [`INGEST_WINDOW`] unpulled events.
fn fits_window(fed: u64, ingested: u64, n: u64) -> bool {
    fed.saturating_sub(ingested) + n <= INGEST_WINDOW
}

/// Builds an [`Engine`], registering triggers before the shards start.
pub struct EngineBuilder<A: Algorithm> {
    algo: A,
    config: EngineConfig,
    triggers: Vec<TriggerDef<A::State>>,
}

impl<A: Algorithm> EngineBuilder<A> {
    /// Starts a builder for `algo` under `config`.
    pub fn new(algo: A, config: EngineConfig) -> Self {
        EngineBuilder {
            algo,
            config,
            triggers: Vec::new(),
        }
    }

    /// Registers a "When" query (§III-E): `predicate` over `(vertex, local
    /// state)`, evaluated on the owning shard at every state change, firing
    /// at most once per vertex. Returns the trigger's index, which each
    /// [`TriggerFire::trigger`] carries.
    pub fn trigger(
        &mut self,
        predicate: impl Fn(VertexId, &A::State) -> bool + Send + Sync + 'static,
    ) -> usize {
        assert!(
            self.triggers.len() < MAX_TRIGGERS,
            "at most {MAX_TRIGGERS} triggers per engine"
        );
        self.triggers.push(TriggerDef {
            predicate: Box::new(predicate),
        });
        self.triggers.len() - 1
    }

    /// Spawns the shard threads and returns the running engine.
    ///
    /// # Panics
    ///
    /// With durability on, when the directory's MANIFEST was written by
    /// an engine of another shape (or cannot be read or written): the
    /// message [`Engine::open`] returns as an error.
    pub fn build(self) -> Engine<A> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`EngineBuilder::build`], with a refused MANIFEST as an error.
    // Thread-spawn failure is unrecoverable resource exhaustion at startup,
    // before any run state exists — aborting via expect is the right call.
    #[allow(clippy::expect_used)]
    fn try_build(self) -> Result<Engine<A>, EngineError> {
        let config = self.config;
        let shards = config.num_shards;
        assert!(shards > 0, "need at least one shard");
        assert!(
            shards <= MAX_LANE_SHARDS,
            "{shards} shards exceeds the {MAX_LANE_SHARDS}-shard lane mesh"
        );
        // Durable engines stamp their shape into the root directory, so a
        // later cold restart can refuse a mismatched config.
        let mismatch = |message| EngineError::DurabilityMismatch { message };
        let cut = wal::claim_manifest(&config).map_err(mismatch)?;
        let resume = wal::resume_index(&config, cut).map_err(mismatch)?;

        let (workers, ctl) = wire(self.algo, &config, self.triggers);
        ctl.streamed.store(resume, Ordering::Relaxed);
        if config.durability.is_some() {
            // Every shard recovers before it takes new work, and a wait
            // right after `Engine::open` sees that still to come.
            ctl.shared.rollback.start(cut);
        }
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(id, worker)| {
                std::thread::Builder::new()
                    .name(format!("remo-shard-{id}"))
                    .spawn(move || worker.run_supervised())
                    .expect("failed to spawn shard thread")
            })
            .collect();
        Ok(Engine {
            ctl,
            handles,
            config,
        })
    }
}

/// The controller's ends of the shards' world: what a wiring hands the
/// side that feeds, asks and waits.
pub(crate) struct Controller<S> {
    pub(crate) shared: Arc<SharedCounters>,
    pub(crate) board: Arc<FailureBoard>,
    /// Shared telemetry surface (snapshot cells, histograms, span rings).
    pub(crate) tele: Arc<TelemetryShared>,
    /// Unpark targets after controller sends; the settle after a failure
    /// reads the shards' sleep flags and inbound lanes.
    pub(crate) lanes: LaneHandles<S>,
    /// One channel per shard, and the controller keeps its only sender:
    /// shards talk to each other over the lanes alone. The lock makes a
    /// chunk's window reservation and its send one step (see
    /// [`Controller::offer`]).
    pub(crate) senders: Vec<Mutex<Sender<Message<S>>>>,
    /// Behind a lock so that `&Engine` can be shared across threads.
    pub(crate) trigger_rx: Mutex<Receiver<TriggerFire>>,
    /// Cached owner map for the query paths.
    pub(crate) part: Partitioner,
    /// The stream index the next ingest call starts at.
    pub(crate) streamed: AtomicU64,
    /// Pulls fed (summed over shards) when the last cut was taken.
    cut_fed: AtomicU64,
}

/// Makes `config.num_shards` workers and the controller's handles onto
/// them: the one place shards are built. [`EngineBuilder::build`] gives
/// each worker a thread; a test may step them all on its own.
pub(crate) fn wire<A: Algorithm>(
    algo: A,
    config: &EngineConfig,
    triggers: Vec<TriggerDef<A::State>>,
) -> (Vec<ShardWorker<A>>, Controller<A::State>) {
    let shards = config.num_shards;
    let shared = Arc::new(SharedCounters::new(shards));
    let board = Arc::new(FailureBoard::new(shards));
    let (trigger_tx, trigger_rx) = channel();
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..shards)
        .map(|_| {
            let (tx, rx) = channel();
            (Mutex::new(tx), rx)
        })
        .unzip();
    let ctl = Controller {
        tele: Arc::new(TelemetryShared::new(
            shards,
            Arc::clone(&shared),
            Arc::clone(&board),
        )),
        shared,
        board,
        lanes: LaneHandles::new(shards),
        senders,
        trigger_rx: Mutex::new(trigger_rx),
        part: Partitioner::new(shards),
        streamed: AtomicU64::new(0),
        cut_fed: AtomicU64::new(0),
    };
    let (algo, triggers) = (Arc::new(algo), Arc::new(triggers));
    let workers = (0..shards).zip(receivers).map(|(id, rx)| {
        let (algo, triggers, tx) = (Arc::clone(&algo), Arc::clone(&triggers), trigger_tx.clone());
        ShardWorker::new(id, algo, config.clone(), rx, triggers, tx, &ctl)
    });
    (workers.collect(), ctl)
}

impl<S: Clone + Default> Controller<S> {
    /// Classifies a failed send to `shard`.
    fn send_error(&self, shard: usize) -> EngineError {
        if self.board.is_failed(shard) {
            EngineError::ShardPanicked {
                failures: self.board.snapshot(),
            }
        } else {
            EngineError::ChannelClosed { shard }
        }
    }

    /// `shard`'s sender, locked. A sender has no state a panicking holder
    /// could leave half-made.
    fn sender(&self, shard: usize) -> MutexGuard<'_, Sender<Message<S>>> {
        self.senders[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn send_to(&self, shard: usize, msg: Message<S>) -> Result<(), EngineError> {
        let sent = self
            .sender(shard)
            .send(msg)
            .map_err(|_| self.send_error(shard));
        // The shard may be parked — control traffic must wake it or wait
        // out a heartbeat.
        if sent.is_ok() {
            self.lanes.parks.wake(shard);
        }
        sent
    }

    /// Tells every shard to stop, dead or alive, and unparks them all.
    fn shutdown(&self) {
        self.shared.rollback.halt();
        for id in 0..self.senders.len() {
            let _ = self.sender(id).send(Message::Shutdown);
            self.lanes.parks.wake(id);
        }
    }

    /// Numbers a call's `n` pulls: the stream index of its first.
    pub(crate) fn number(&self, n: usize) -> u64 {
        self.streamed.fetch_add(n as u64, Ordering::Relaxed)
    }

    /// Pulls fed, summed over shards.
    fn fed(&self) -> u64 {
        let slots = (0..self.senders.len()).map(|s| self.shared.slot(s));
        slots.map(|slot| slot.fed.load(Ordering::SeqCst)).sum()
    }

    /// Pulls fed since the last cut.
    fn fed_since_cut(&self) -> u64 {
        self.fed() - self.cut_fed.load(Ordering::SeqCst)
    }

    /// True when `n` more pulls fit `shard`'s ingest window.
    fn has_room(&self, shard: usize, n: u64) -> bool {
        let slot = self.shared.slot(shard);
        let ingested = slot.ingested.load(Ordering::SeqCst);
        fits_window(slot.fed.load(Ordering::SeqCst), ingested, n)
    }

    /// True when `shard` has run its pulls up to its `fed` count `mark`:
    /// its `ingested` reaches the mark and then the rollback gate reads
    /// down. A shard that panics in a control sweep raises the gate before
    /// it re-publishes `ingested`, and the gate comes down once every shard
    /// re-ran its log, the sweep among it.
    pub(crate) fn ran(&self, shard: usize, mark: u64) -> bool {
        self.shared.slot(shard).ingested.load(Ordering::SeqCst) >= mark
            && !self.shared.rollback.raised()
    }

    /// Queues the chunk `make` builds, of `n` pulls, on `shard` if it fits
    /// the shard's window: `Some` of the shard's `fed` count with it, which
    /// its `ingested` reaches once the chunk is pulled; `None` when it does
    /// not fit yet. `fed` counts the chunk *before* the send, so
    /// quiescence cannot be observed between the send and the shard's
    /// receipt, and under the sender's lock, so concurrent callers keep the
    /// window and a shard pulls chunks in the order of their counts.
    pub(crate) fn offer(
        &self,
        shard: usize,
        n: u64,
        make: impl FnOnce() -> Chunk,
    ) -> Result<Option<u64>, EngineError> {
        let tx = self.sender(shard);
        let slot = self.shared.slot(shard);
        let ingested = slot.ingested.load(Ordering::SeqCst);
        let Ok(fed) = slot
            .fed
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |fed| {
                fits_window(fed, ingested, n).then_some(fed + n)
            })
        else {
            return Ok(None);
        };
        if tx.send(Message::Chunk(make())).is_err() {
            // Uncount, so a degraded engine can still quiesce over the
            // survivors.
            slot.fed.fetch_sub(n, Ordering::SeqCst);
            return Err(self.send_error(shard));
        }
        self.lanes.parks.wake(shard);
        Ok(Some(fed + n))
    }
}

/// Final results of a run. `E` is the algorithm's [`Algorithm::Edge`],
/// the payload of the harvested stores' adjacency entries.
pub struct RunResult<S, E> {
    /// Live algorithm state of every vertex (sorted by id). On a degraded
    /// run, only vertices owned by surviving shards appear.
    pub states: Snapshot<S>,
    /// Aggregated per-shard metrics (`lost_shards` names the shards whose
    /// counters died with them).
    pub metrics: RunMetrics,
    /// Vertices materialized across surviving shards.
    pub num_vertices: usize,
    /// Distinct directed edges stored on surviving shards.
    pub num_edges: u64,
    /// Approximate heap footprint of adjacency storage.
    pub adjacency_bytes: usize,
    /// Approximate total heap footprint of the per-shard vertex stores
    /// (interning tables, state/meta slabs, adjacency) —
    /// the numerator of the bytes-per-edge metric in the store ablation.
    pub store_bytes: usize,
    /// The per-shard dynamic stores, indexed by shard id, exactly as the
    /// shards left them (read-only: `get`, `iter`, `num_vertices`). Lets
    /// callers run *static* algorithms over the dynamically built
    /// structure — the paper's Fig. 3 centre bar — or inspect topology.
    /// A failed shard's slot holds an empty store.
    pub tables: Vec<DenseStore<S, E>>,
    /// Failure report: one entry per shard that died during the run.
    /// Empty on a clean run. Monotone REMO states harvested from surviving
    /// shards remain valid bounds (§IV) even when this is non-empty.
    pub failures: Vec<ShardFailure>,
}

impl<S, E> RunResult<S, E> {
    /// True when at least one shard was lost and the result covers only
    /// the survivors.
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// A running dynamic-graph engine (shards are live threads).
///
/// # Ingest
///
/// Ingest is a bounded stream. Every `try_ingest*` call cuts each shard's
/// share of its items (round-robin, item `i` to shard `i % P`) into chunks
/// of at most 1,024 events, and sends a shard a chunk only while that
/// shard's unpulled events stay within a window of 4,096; a shard drops
/// each chunk as it empties it. What an ingest holds beyond the caller's
/// slice is therefore at most a window and a chunk per shard, whatever
/// its size. A chunk carries what its call was given:
/// bare pairs for [`Engine::try_ingest_pairs`] and
/// [`Engine::try_delete_pairs`], triples for
/// [`Engine::try_ingest_weighted`]. An [`Engine::try_init_vertex`] is a
/// chunk of one `Init` on its vertex's owner, and a registry's attach or
/// detach step one control op on every live shard: every input is a pull,
/// in order with what was queued before it on the same shard.
///
/// Every event also has a stream index, its position in the engine's
/// input: calls are numbered back to back from 0 (a durable engine
/// re-opened by [`Engine::open`] goes on after the last index its shards
/// pulled; [`Engine::seek_stream`] moves the next call elsewhere), and a
/// call's items in the order given; an init or a control op takes one
/// index. An `Add` hands its index to [`Algorithm::stream_value`].
///
/// - **When a call blocks.** Only when no shard with work left in the
///   call has room. It then sleeps on the bell, which a shard rings each
///   time it empties a chunk. A call that fits in every shard's window —
///   an on-line micro-batch into shards that keep up — never waits.
/// - **When it returns.** Once its last chunk is queued, not when the
///   shards have pulled it: await quiescence for that.
/// - **On `Err`.** A wait is supervised like every other: a dead shard
///   ends it with [`EngineError::ShardPanicked`], and a wait that sees no
///   room open within `quiescence_deadline` ends it with
///   [`EngineError::QuiescenceTimeout`]. Every chunk queued before the
///   error stays queued and will be processed — each shard received a
///   prefix of its share, in order — and nothing after it was sent, so
///   retrying the whole call repeats that prefix.
/// - **Concurrent callers.** Each keeps the window, so they can wait for
///   each other's room. Their chunks interleave at a shard in the order
///   they were queued; each call's own events stay in order. A
///   quiescence wait in another thread may end between two chunks of a
///   call still in progress: it covers what had been queued.
pub struct Engine<A: Algorithm> {
    ctl: Controller<A::State>,
    handles: Vec<JoinHandle<Option<ShardReport<A>>>>,
    config: EngineConfig,
}

// Callers share `&Engine` across threads (an ingesting thread beside a
// reader), so every engine must stay `Send + Sync`.
#[allow(dead_code)]
const _: () = {
    fn send_sync<T: Send + Sync>() {}
    fn engine<A: Algorithm>() {
        send_sync::<Engine<A>>();
    }
};

impl<A: Algorithm> Engine<A> {
    /// Convenience: build with no triggers.
    pub fn new(algo: A, config: EngineConfig) -> Self {
        EngineBuilder::new(algo, config).build()
    }

    /// Cold restart: opens an engine over an existing durable directory
    /// (`config.durability.dir`), validating its `MANIFEST` against the
    /// config before any shard starts. Each shard then restores its
    /// checkpoint of the cut the MANIFEST names and re-runs the pulls its
    /// WAL logged since, once each, so the engine resumes from the last
    /// durable state — ingest more events, snapshot, or
    /// [`Engine::try_finish`] as usual. Its first ingest call is numbered
    /// after the cut's stream index and every index a WAL records (a
    /// resume that re-ingests the stream from its start calls
    /// [`Engine::seek_stream`] first). A fresh (empty) directory is also
    /// accepted, making `open` a drop-in for [`Engine::new`] on first
    /// boot.
    ///
    /// Fails with [`EngineError::DurabilityMismatch`] when the config has
    /// no durability, when the directory was written by an engine of a
    /// different shape (shard count / undirectedness), when its
    /// `MANIFEST` cannot be read or written, or when a shard's checkpoint
    /// or WAL cannot be read.
    pub fn open(algo: A, config: EngineConfig) -> Result<Self, EngineError> {
        if config.durability.is_none() {
            return Err(EngineError::DurabilityMismatch {
                message: "Engine::open requires EngineConfig::with_durability".to_string(),
            });
        }
        EngineBuilder::new(algo, config).try_build()
    }

    /// Numbers the next ingest call from stream index `index` on, for a
    /// caller that feeds again events it fed before. After a crash that
    /// lost events no shard had pulled, a resume that re-ingests the
    /// stream from its start seeks to 0 first: every event then gets back
    /// the index it had, a re-ingested duplicate is absorbed by the join,
    /// and a lost `Add` hands [`Algorithm::stream_value`] what it would
    /// have in one uninterrupted run. New events must not reuse an index
    /// another event had: that is why [`Engine::open`] numbers on after
    /// every durable pull unless told otherwise.
    pub fn seek_stream(&self, index: u64) {
        self.ctl.streamed.store(index, Ordering::Relaxed);
    }

    /// Number of shard threads.
    pub fn num_shards(&self) -> usize {
        self.config.num_shards
    }

    /// Channel on which trigger firings arrive in real time, locked for
    /// the guard's lifetime.
    pub fn trigger_events(&self) -> MutexGuard<'_, Receiver<TriggerFire>> {
        // A receiver has no state a panicking holder could leave half-made.
        self.ctl
            .trigger_rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Failures recorded so far (empty while every shard is healthy).
    pub fn failures(&self) -> Vec<ShardFailure> {
        self.ctl.board.snapshot()
    }

    /// A coherent cross-shard [`RunMetrics`] reading **right now**, without
    /// pausing or contending with the shards: each shard's last seqlock
    /// snapshot-cell publish (at most 256 events stale, and exact
    /// whenever the shard is idle or finished). Latency
    /// histograms reflect every sample recorded so far; `lost_shards`
    /// lists shards already dead.
    pub fn metrics_now(&self) -> RunMetrics {
        self.ctl.tele.snapshot_metrics()
    }

    /// Reconstructed propagation trees for the trace-sampled external
    /// updates (one ingest in `2^`[`crate::SAMPLE_SHIFT`] per shard) whose
    /// spans are still in the rings. Harvest-side work only: dumps each
    /// shard's span ring and stitches the trees — the shards never stop.
    /// See [`PropagationTrace`](crate::PropagationTrace) for the tag
    /// discipline and the ring-overflow policy (rootless traces are
    /// dropped whole).
    pub fn traces_now(&self) -> Vec<crate::trace::PropagationTrace> {
        self.ctl.tele.traces()
    }

    /// Aggregate statistics over [`Engine::traces_now`]: fixpoint-latency,
    /// hops, and amplification quantiles plus cross-shard hop
    /// totals — the same families the Prometheus exporter renders.
    pub fn trace_summary(&self) -> crate::trace::TraceSummary {
        crate::trace::summarize(&self.traces_now())
    }

    /// A cloneable, thread-safe handle onto the engine's live telemetry:
    /// point-in-time gauges ([`crate::EngineGauges`]) and Prometheus text
    /// rendering. The handle stays valid for the life of the engine
    /// (readers of an engine that has finished see its final counters).
    pub fn telemetry(&self) -> TelemetryHub {
        TelemetryHub::new(Arc::clone(&self.ctl.tele))
    }

    /// True once any shard has died; the engine keeps serving the
    /// survivors' partitions.
    pub fn is_degraded(&self) -> bool {
        self.ctl.board.any_failed()
    }

    /// Feeds shard `s` its `lens[s]` pulls in order, as chunks of at most
    /// [`INGEST_CHUNK`] that `chunk(s, from, n)` builds from its pulls
    /// `from..from + n`: the body of every `try_ingest_*`/`try_delete_*`
    /// method and of [`Self::try_init_vertex`] (they differ only in how
    /// a call is split and what a chunk carries). A chunk goes out only if
    /// it fits the shard's window (see [`Controller::offer`]); when no
    /// shard with work left has room, the call waits on the bell,
    /// supervised, with a fresh `quiescence_deadline` per wait (a wait
    /// that sees room open ends; the deadline bounds a stall, not the
    /// call). Returns once the last chunk is queued. A durable engine that
    /// has fed `checkpoint_every` pulls since its last cut takes the next
    /// one at a chunk boundary ([`Self::cut`]).
    fn feed(
        &self,
        lens: &[usize],
        chunk: impl Fn(usize, usize, usize) -> Chunk,
    ) -> Result<(), EngineError> {
        let mut done = vec![0; lens.len()];
        let next = |s: usize, done: &[usize]| (lens[s] - done[s]).min(INGEST_CHUNK);
        loop {
            let mut blocked = false;
            for s in 0..lens.len() {
                while done[s] < lens[s] {
                    let n = next(s, &done);
                    if self
                        .ctl
                        .offer(s, n as u64, || chunk(s, done[s], n))?
                        .is_none()
                    {
                        blocked = true;
                        break;
                    }
                    // Arm the ingest→fixpoint clock at the first chunk sent
                    // (a no-op while armed, so a burst of ingests measures
                    // burst-start → quiescence; an empty ingest arms
                    // nothing).
                    self.ctl.tele.mark_ingest();
                    done[s] += n;
                    if self
                        .config
                        .durability
                        .as_ref()
                        .is_some_and(|d| self.ctl.fed_since_cut() >= d.checkpoint_every)
                    {
                        self.cut()?;
                    }
                }
            }
            if !blocked {
                return Ok(());
            }
            let deadline = Deadline::new(self.config.quiescence_deadline);
            self.wait_until(&deadline, || {
                (0..lens.len())
                    .any(|s| done[s] < lens[s] && self.ctl.has_room(s, next(s, &done) as u64))
            })?;
        }
    }

    /// Splits `items` round-robin — item `i` goes to shard `i % P`, as
    /// stream index `first + i` — and feeds each shard its share, in
    /// chunks whose items `wrap` builds.
    fn feed_split<T: Copy>(
        &self,
        items: &[T],
        wrap: impl Fn(Vec<T>) -> Items,
    ) -> Result<(), EngineError> {
        let k = self.config.num_shards;
        let first = self.ctl.number(items.len());
        let lens: Vec<usize> = (0..k)
            .map(|s| items.len().saturating_sub(s).div_ceil(k))
            .collect();
        self.feed(&lens, |s, from, n| Chunk {
            base: first + (s + from * k) as u64,
            stride: k as u64,
            items: wrap((from..from + n).map(|j| items[s + j * k]).collect()),
        })
    }

    /// Streams an unweighted pair list: pair `i` goes to shard `i % P`'s
    /// input (the paper's evaluation methodology, §V-A), as 16-byte pairs.
    /// Blocks only while no shard with work left has room in its window;
    /// returns once the last chunk is queued; on `Err` each shard has
    /// received a prefix of its share. See [`Engine`]'s *Ingest* section.
    pub fn try_ingest_pairs(&self, pairs: &[(VertexId, VertexId)]) -> Result<(), EngineError> {
        self.feed_split(pairs, |p| Items::Pairs(TopoOp::Add, p))
    }

    /// Streams edge **removals** (§VI-B extension), split and fed exactly
    /// as [`Self::try_ingest_pairs`] splits and feeds additions, with the
    /// same blocking and error behaviour.
    pub fn try_delete_pairs(&self, pairs: &[(VertexId, VertexId)]) -> Result<(), EngineError> {
        self.feed_split(pairs, |p| Items::Pairs(TopoOp::Remove, p))
    }

    /// Weighted variant of [`Self::try_ingest_pairs`]: the triples travel
    /// as they are, with the same blocking and error behaviour.
    pub fn try_ingest_weighted(
        &self,
        triples: &[(VertexId, VertexId, Weight)],
    ) -> Result<(), EngineError> {
        self.feed_split(triples, Items::Weighted)
    }

    /// Initiates the algorithm at `v` — e.g. designate the BFS/SSSP source
    /// or an S-T connectivity source. "Can be initiated at any time"
    /// (§IV.1): before, during, or after ingestion. The init takes the
    /// next stream index and is queued as one pull on `v`'s owner, which
    /// runs it after everything queued there before it. Like an ingest
    /// call it waits while the owner's window is full, and returns once it
    /// is queued, not run.
    pub fn try_init_vertex(&self, v: VertexId) -> Result<(), EngineError> {
        let index = self.ctl.number(1);
        let mut lens = vec![0; self.config.num_shards];
        lens[self.ctl.part.owner(v)] = 1;
        self.feed(&lens, |_, _, _| Chunk::one(index, Items::Init(v)))
    }

    /// Queues one control-plane operation (multi-query attach/detach) on
    /// every live shard's stream, at one stream index, and waits until
    /// every shard has run it ([`Controller::ran`]): each shard claims,
    /// sweeps and commits it once, in order with its other pulls. Dead
    /// shards are skipped — a degraded engine keeps serving its
    /// survivors. Waits for room in a full window like an ingest, under
    /// one `quiescence_deadline` for the whole op.
    pub(crate) fn control(&self, op: ControlOp) -> Result<(), EngineError> {
        let k = self.config.num_shards;
        let index = self.ctl.number(1);
        let deadline = Deadline::new(self.config.quiescence_deadline);
        let dead = |s: usize| self.ctl.board.is_failed(s);
        let mut marks: Vec<Option<u64>> = vec![None; k];
        loop {
            for (s, mark) in marks.iter_mut().enumerate() {
                if mark.is_some() || dead(s) {
                    continue;
                }
                match self
                    .ctl
                    .offer(s, 1, || Chunk::one(index, Items::Control(op)))
                {
                    Ok(m) => *mark = m,
                    // Died mid-broadcast: it owes nothing.
                    Err(_) if dead(s) => {}
                    Err(e) => return Err(e),
                }
            }
            let pulled = |s: usize| dead(s) || marks[s].is_some_and(|m| self.ctl.ran(s, m));
            if self.ctl.shared.bell.wait(HEARTBEAT, || (0..k).all(pulled)) {
                return Ok(());
            }
            if deadline.expired() {
                return Err(EngineError::QuiescenceTimeout {
                    waited: deadline.waited(),
                });
            }
        }
    }

    /// Takes a cut (DESIGN.md §14): holds every shard's sender, so no
    /// ingest call can offer a chunk, waits for quiescence as
    /// [`Self::try_snapshot`] does, has every shard write its checkpoint of
    /// the next cut, and then names that cut in the MANIFEST. False when a
    /// rollback began meanwhile: the cut is abandoned and the MANIFEST
    /// still names the previous one.
    fn cut(&self) -> Result<bool, EngineError> {
        let senders: Vec<_> = (0..self.config.num_shards)
            .map(|s| self.ctl.sender(s))
            .collect();
        let deadline = Deadline::new(self.config.quiescence_deadline);
        self.wait_until(&deadline, || self.ctl.shared.quiescent_probe())?;
        let rollback = &self.ctl.shared.rollback;
        let (epoch, cut) = (rollback.epoch(), rollback.cut() + 1);
        let fed = self.ctl.fed();
        let header = CkptHeader {
            cut,
            next: self.ctl.streamed.load(Ordering::Relaxed),
            ..CkptHeader::default()
        };
        let (reply, written) = channel();
        for (s, tx) in senders.iter().enumerate() {
            let reply = reply.clone();
            tx.send(Message::Checkpoint { header, reply })
                .map_err(|_| self.ctl.send_error(s))?;
            self.ctl.lanes.parks.wake(s);
        }
        drop(reply);
        // Every shard replies once it has written, or drops its reply
        // unsent when it panics while it writes.
        if written.iter().count() < senders.len() {
            return Ok(false);
        }
        let named = rollback.publish_cut(epoch, cut, || wal::write_manifest(&self.config, cut));
        let named = named.map_err(|e| EngineError::DurabilityMismatch {
            message: format!("cannot write the MANIFEST of cut {cut}: {e}"),
        })?;
        if named {
            self.ctl.cut_fed.store(fed, Ordering::SeqCst);
        }
        Ok(named)
    }

    /// One supervised wait step: failure first (a dead shard must surface
    /// even with no deadline configured), then the deadline.
    fn check_liveness(&self, deadline: &Deadline) -> Result<(), EngineError> {
        if self.ctl.board.any_failed() {
            return Err(EngineError::ShardPanicked {
                failures: self.ctl.board.snapshot(),
            });
        }
        if deadline.expired() {
            return Err(EngineError::QuiescenceTimeout {
                waited: deadline.waited(),
            });
        }
        Ok(())
    }

    /// The one supervised wait: until `done` holds, check liveness, then
    /// sleep on the bell until a ring or for at most a [`HEARTBEAT`].
    fn wait_until(&self, deadline: &Deadline, done: impl Fn() -> bool) -> Result<(), EngineError> {
        loop {
            self.check_liveness(deadline)?;
            if self.ctl.shared.bell.wait(HEARTBEAT, &done) {
                return Ok(());
            }
        }
    }

    /// Waits at most [`SHUTDOWN_DEADLINE`] for `done`, dead shards or
    /// not: the teardown waits, which must outlive a failure.
    fn wait_shutdown(&self, done: impl Fn() -> bool) {
        let deadline = Deadline::new(Some(SHUTDOWN_DEADLINE));
        while !self.ctl.shared.bell.wait(HEARTBEAT, &done) && !deadline.expired() {}
    }

    /// Blocks until every injected stream is drained and no algorithmic
    /// event is in flight — or until a shard failure or the configured
    /// `quiescence_deadline` cuts the wait short.
    pub fn try_await_quiescence(&self) -> Result<(), EngineError> {
        let deadline = Deadline::new(self.config.quiescence_deadline);
        self.wait_until(&deadline, || self.ctl.shared.quiescent_probe())?;
        let ns = u64::try_from(deadline.waited().as_nanos()).unwrap_or(u64::MAX);
        self.ctl.tele.record_quiesce(ns);
        self.ctl.tele.settle_ingest();
        Ok(())
    }

    /// One four-counter reading: true when every sent envelope has been
    /// processed and every injected stream event ingested. Exposed so tests
    /// can assert the termination books balance once a run has quiesced —
    /// in particular that suppressed and dominated envelopes retired
    /// without leaking `sent` or `processed` counts.
    pub fn counters_balanced(&self) -> bool {
        self.ctl.shared.quiescent_probe()
    }

    /// Receives one shard reply, waiting at most the `quiescence_deadline`.
    /// A reply that cannot come is `lost()`: its channel disconnected (a
    /// replier died, and the board says which), or the deadline passed
    /// while `failed()` holds.
    fn recv_reply<T>(
        &self,
        rx: &Receiver<T>,
        failed: impl Fn() -> bool,
        lost: impl Fn() -> EngineError,
    ) -> Result<T, EngineError> {
        let Some(d) = self.config.quiescence_deadline else {
            return rx.recv().map_err(|_| lost());
        };
        rx.recv_timeout(d).map_err(|e| match e {
            RecvTimeoutError::Timeout if !failed() => EngineError::QuiescenceTimeout { waited: d },
            _ => lost(),
        })
    }

    /// Gathers every shard's live states into one snapshot cut at `cut`.
    fn collect(&self, cut: u64) -> Result<Snapshot<A::State>, EngineError> {
        let expected = self.config.num_shards;
        let (reply_tx, reply_rx) = sync_channel(expected);
        for id in 0..expected {
            let reply = reply_tx.clone();
            self.ctl.send_to(id, Message::Collect { reply })?;
        }
        drop(reply_tx);
        let mut states = Vec::new();
        for answered in 0..expected {
            let degraded = || EngineError::Degraded {
                failures: self.ctl.board.snapshot(),
                answered,
                expected,
            };
            states.extend(self.recv_reply(&reply_rx, || self.ctl.board.any_failed(), degraded)?);
        }
        Ok(Snapshot::from_fragments(cut, states))
    }

    /// Collects the global state after a defined set of events (§III-D):
    /// the events numbered below [`Snapshot::cut`], which is the stream
    /// index the next ingest call would take. It waits for quiescence as
    /// [`Self::try_await_quiescence`] does, under the same deadline and
    /// failure checks, then collects every vertex's live state, so the
    /// snapshot is exactly the solve of `stream[..cut]`: every `Add`,
    /// `Remove`, `Init` and registry control op fed before the call, and
    /// nothing after it. `&mut self` keeps every ingest call out while it
    /// waits; ingest may resume as soon as it returns. A dead shard or an
    /// expired `quiescence_deadline` fails it with an error, never a
    /// partial snapshot.
    pub fn try_snapshot(&mut self) -> Result<Snapshot<A::State>, EngineError> {
        let cut = self.ctl.streamed.load(Ordering::Relaxed);
        self.try_await_quiescence()?;
        self.collect(cut)
    }

    /// Observes one vertex's **live local state** right now (§III-E,
    /// §VI-A): an O(1) read on the owning shard, answered in queue order
    /// with the events currently ahead of it. Returns `Ok(None)` for
    /// vertices no event has touched. Does not wait for quiescence — the
    /// answer is the current monotone bound, exactly what local-state
    /// queries mean in this model. If the owning shard is dead the query
    /// fails with [`EngineError::ShardPanicked`] instead of blocking
    /// forever on a reply that can never come.
    pub fn try_local_state(&self, v: VertexId) -> Result<Option<A::State>, EngineError> {
        let owner_shard = self.ctl.part.owner(v);
        if self.ctl.board.is_failed(owner_shard) {
            return Err(EngineError::ShardPanicked {
                failures: self.ctl.board.snapshot(),
            });
        }
        let (reply_tx, reply_rx) = sync_channel(1);
        self.ctl.send_to(
            owner_shard,
            Message::Query {
                vertex: v,
                reply: reply_tx,
            },
        )?;
        // Even with no deadline this cannot hang: if the owner dies, its
        // queue (holding our reply sender) is dropped and recv disconnects.
        self.recv_reply(
            &reply_rx,
            || self.ctl.board.is_failed(owner_shard),
            || self.ctl.send_error(owner_shard),
        )
    }

    /// After a shard failure, true quiescence is unreachable (the dead
    /// shard's in-flight events can never be processed), but the survivors
    /// still have useful work queued. Wait — bounded by
    /// [`SHUTDOWN_DEADLINE`] — until every survivor is asleep with empty
    /// inbound lanes, so the degraded harvest reflects everything the
    /// survivors could compute, not a snapshot of wherever they happened
    /// to be when the failure was noticed.
    fn settle_survivors(&self) {
        self.wait_shutdown(|| {
            (0..self.config.num_shards).all(|id| {
                self.ctl.board.is_failed(id)
                    || (self.ctl.lanes.parks.is_asleep(id) && !self.ctl.lanes.mesh.has_inbound(id))
            })
        });
    }

    /// Supervised finish: waits for quiescence (under the configured
    /// deadline), stops the shards, and harvests final state plus metrics.
    ///
    /// Degrades gracefully: if shards died, the run is **not** lost — the
    /// survivors' states, metrics, and tables are returned with
    /// [`RunResult::failures`] describing the dead shards (their vertices
    /// are simply absent, and their monotone states on survivors remain
    /// valid bounds per §IV). Returns `Err` only when nothing useful can be
    /// harvested — today that is [`EngineError::QuiescenceTimeout`] with
    /// every shard still alive but the system not quiescent (e.g. lost
    /// messages), where partial state would be silently wrong rather than
    /// merely partial.
    /// A durable engine that fed pulls since its last cut takes one more
    /// first, so a reopen restores it instead of re-running the pulls.
    pub fn try_finish(mut self) -> Result<RunResult<A::State, A::Edge>, EngineError> {
        let settled = self.try_await_quiescence().and_then(|()| {
            while self.config.durability.is_some() && self.ctl.fed_since_cut() > 0 {
                // An abandoned cut spent a rollback: the budget bounds this.
                if !self.cut()? {
                    self.try_await_quiescence()?;
                }
            }
            Ok(())
        });
        match settled {
            Ok(()) => {}
            // Shards died: harvest what survives.
            Err(EngineError::ShardPanicked { .. }) => {}
            Err(e @ EngineError::QuiescenceTimeout { .. }) => {
                if !self.ctl.board.any_failed() {
                    return Err(e); // Drop will tear the shards down.
                }
            }
            Err(e) => return Err(e),
        }
        if self.ctl.board.any_failed() {
            self.settle_survivors();
        }
        self.ctl.shutdown();

        let shards = self.config.num_shards;
        let mut num_edges = 0;
        let mut tables: Vec<Option<DenseStore<_, _>>> = (0..shards).map(|_| None).collect();

        // Join with a deadline: a healthy shard exits promptly after
        // Shutdown, a panicked shard's thread is already gone, and a wedged
        // shard (a callback that never returns) is detached and reported,
        // never joined unboundedly.
        self.wait_shutdown(|| self.handles.iter().all(JoinHandle::is_finished));
        for (id, h) in self.handles.drain(..).enumerate() {
            let lost = |payload| ShardFailure { id, payload };
            if !h.is_finished() {
                let payload = "shard did not stop within the shutdown deadline".to_string();
                self.ctl.board.record(lost(payload));
                continue; // detach: the thread ends (or not) on its own
            }
            match h.join() {
                Ok(Some(report)) => {
                    num_edges += report.num_edges;
                    tables[report.id] = Some(report.table);
                }
                // A panicked shard recorded its failure on the board
                // before returning None from run_supervised.
                Ok(None) => {}
                // Panic outside catch_unwind (e.g. in a Drop during
                // unwind): synthesize the record the wrapper could not.
                Err(payload) => self.ctl.board.record(lost(panic_payload_string(payload))),
            }
        }
        let failures = self.ctl.board.snapshot();
        // Every shard's last cell publish is its final count: a finished
        // shard published in `report`, a dead one on its way down (its
        // supervisor publishes before recording the failure), and
        // `lost_shards` names the dead.
        let metrics = self.ctl.tele.snapshot_metrics();
        // Satellite invariant: on a clean, quiesced harvest every envelope
        // counted as sent was accounted for exactly once. Lost shards void
        // the equation (their in-flight envelopes retired as
        // undeliverable on survivors, the ones they held at death never
        // retired), as does a timed-out degraded finish.
        if failures.is_empty() {
            debug_assert!(
                metrics.verify_balance().is_ok(),
                "clean harvest failed the envelope balance: {:?}",
                metrics.verify_balance()
            );
        }
        // The states are read once, from the stores the survivors handed
        // over, into one array of exactly their size.
        let stores = || tables.iter().flatten();
        let num_vertices = stores().map(DenseStore::num_vertices).sum();
        let mut states = Vec::with_capacity(num_vertices);
        for table in stores() {
            states.extend(table.iter().map(|(v, s, _)| (v, s.clone())));
        }
        let cut = self.ctl.streamed.load(Ordering::Relaxed);
        Ok(RunResult {
            states: Snapshot::from_fragments(cut, states),
            metrics,
            num_vertices,
            num_edges,
            adjacency_bytes: stores().map(DenseStore::adjacency_heap_bytes).sum(),
            store_bytes: stores().map(DenseStore::heap_bytes).sum(),
            tables: tables
                .into_iter()
                .map(|t| t.unwrap_or_else(|| DenseStore::with_capacity(0)))
                .collect(),
            failures,
        })
    }
}

impl<A: Algorithm> Drop for Engine<A> {
    fn drop(&mut self) {
        // try_finish drains handles; an un-finished engine tears down here.
        // Best-effort with a deadline: a shard that died before receiving
        // Shutdown, or one wedged mid-event, must not block drop forever —
        // stragglers are detached instead of joined.
        if self.handles.is_empty() {
            return;
        }
        self.ctl.shutdown();
        self.wait_shutdown(|| self.handles.iter().all(JoinHandle::is_finished));
        for h in self.handles.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            }
            // else: detached — the OS reaps it when the process exits.
        }
    }
}
