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
//! `Result<_, EngineError>`, poll the failure board inside every wait loop
//! (so a dead shard surfaces as [`EngineError::ShardPanicked`] rather than
//! a hang), and honour the deadlines in [`EngineConfig`]
//! (`quiescence_deadline`, `query_deadline`, `shutdown_deadline`).
//! [`Engine::try_finish`] degrades gracefully: it harvests state, metrics,
//! and tables from surviving shards and reports the dead ones in
//! [`RunResult::failures`] instead of losing the whole run. The `try_*`
//! methods are the only public surface; the seed's infallible wrappers
//! (deprecated in the supervision PR) have been removed.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use remo_store::{VertexId, Weight};

use crate::algorithm::Algorithm;
use crate::config::EngineConfig;
use crate::event::{ControlAck, ControlOp, Envelope, EventKind, TopoEvent};
use crate::metrics::RunMetrics;
use crate::partition::Partitioner;
use crate::shard::{Message, ShardReport, ShardWorker};
use crate::snapshot::Snapshot;
use crate::storage::DenseStore;
use crate::supervision::{EngineError, FailureBoard, ShardFailure};
use crate::telemetry::{TelemetryHub, TelemetryShared};
use crate::termination::{Backoff, Deadline, DetectionTimer, SharedCounters};
use crate::transport::{LaneHandles, ParkBoard, MAX_LANE_SHARDS};
use crate::trigger::{TriggerDef, TriggerFire, MAX_TRIGGERS};
use crate::wal;

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
    /// at most once per vertex. Returns the trigger's index.
    pub fn trigger(
        &mut self,
        label: impl Into<String>,
        predicate: impl Fn(VertexId, &A::State) -> bool + Send + Sync + 'static,
    ) -> usize {
        assert!(
            self.triggers.len() < MAX_TRIGGERS,
            "at most {MAX_TRIGGERS} triggers per engine"
        );
        self.triggers.push(TriggerDef {
            label: label.into(),
            predicate: Box::new(predicate),
        });
        self.triggers.len() - 1
    }

    /// Spawns the shard threads and returns the running engine.
    // Thread-spawn failure is unrecoverable resource exhaustion at startup,
    // before any run state exists — aborting via expect is the right call.
    #[allow(clippy::expect_used)]
    pub fn build(self) -> Engine<A> {
        let config = self.config;
        let shards = config.num_shards;
        assert!(shards > 0, "need at least one shard");
        assert!(
            shards <= MAX_LANE_SHARDS,
            "{shards} shards exceeds the {MAX_LANE_SHARDS}-shard lane mesh"
        );

        // Durable engines stamp their shape into the root directory so a
        // later cold restart ([`Engine::open`]) can refuse a mismatched
        // config (vertex ownership is a function of the shard count — a
        // different count would silently misassign recovered vertices).
        if let Some(d) = &config.durability {
            match wal::read_manifest(&d.dir) {
                Ok(Some((s, u))) if s != shards || u != config.undirected => panic!(
                    "durability dir {} was written by a {s}-shard undirected={u} engine; \
                     refusing to reuse it with {shards} shards undirected={} \
                     (use Engine::open to validate, or point at a fresh directory)",
                    d.dir.display(),
                    config.undirected
                ),
                Err(e) => panic!(
                    "durability: cannot read MANIFEST under {}: {e}",
                    d.dir.display()
                ),
                _ => {}
            }
            if let Err(e) = wal::write_manifest(&d.dir, shards, config.undirected) {
                panic!(
                    "durability: cannot write MANIFEST under {}: {e}",
                    d.dir.display()
                );
            }
        }

        let shared = Arc::new(SharedCounters::new(shards));
        let board = Arc::new(FailureBoard::new());
        let tele = Arc::new(TelemetryShared::new(
            config.trace.clone(),
            shards,
            Arc::clone(&shared),
            Arc::clone(&board),
        ));
        let algo = Arc::new(self.algo);
        let triggers = Arc::new(self.triggers);
        let (trigger_tx, trigger_rx) = unbounded();

        // One channel per shard, and the engine keeps its only sender:
        // shards talk to each other over the lanes alone.
        let (senders, receivers): (Vec<Sender<Message<A::State>>>, Vec<_>) =
            (0..shards).map(|_| unbounded()).unzip();

        let lanes = LaneHandles::new(shards);

        let mut handles = Vec::with_capacity(shards);
        for (id, rx) in receivers.into_iter().enumerate() {
            let worker = ShardWorker::new(
                id,
                Arc::clone(&algo),
                config.clone(),
                rx,
                Arc::clone(&shared),
                Arc::clone(&board),
                Arc::clone(&triggers),
                trigger_tx.clone(),
                lanes.clone(),
                Arc::clone(&tele),
            );
            let handle = std::thread::Builder::new()
                .name(format!("remo-shard-{id}"))
                .spawn(move || worker.run_supervised())
                .expect("failed to spawn shard thread");
            handles.push(handle);
        }

        Engine {
            shared,
            board,
            senders,
            handles,
            trigger_rx,
            part: Partitioner::new(shards),
            parks: lanes.parks,
            tele,
            config,
        }
    }
}

/// Final results of a run.
pub struct RunResult<S> {
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
    /// (interning tables, state/meta slabs, adjacency, fork side maps) —
    /// the numerator of the bytes-per-edge metric in the store ablation.
    pub store_bytes: usize,
    /// The per-shard dynamic stores, indexed by shard id, exactly as the
    /// shards left them (read-only: `get`, `iter`, `num_vertices`). Lets
    /// callers run *static* algorithms over the dynamically built
    /// structure — the paper's Fig. 3 centre bar — or inspect topology.
    /// A failed shard's slot holds an empty store.
    pub tables: Vec<DenseStore<S>>,
    /// Failure report: one entry per shard that died during the run.
    /// Empty on a clean run. Monotone REMO states harvested from surviving
    /// shards remain valid bounds (§IV) even when this is non-empty.
    pub failures: Vec<ShardFailure>,
}

impl<S> RunResult<S> {
    /// True when at least one shard was lost and the result covers only
    /// the survivors.
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// A running dynamic-graph engine (shards are live threads).
pub struct Engine<A: Algorithm> {
    shared: Arc<SharedCounters>,
    board: Arc<FailureBoard>,
    senders: Vec<Sender<Message<A::State>>>,
    handles: Vec<JoinHandle<Option<ShardReport<A::State>>>>,
    trigger_rx: Receiver<TriggerFire>,
    /// Cached owner map (construction hashes nothing, but per-call
    /// rebuilding was pure waste on the query paths).
    part: Partitioner,
    /// Unpark targets after controller sends.
    parks: Arc<ParkBoard>,
    /// Shared telemetry surface (snapshot cells, histograms, recorders).
    tele: Arc<TelemetryShared>,
    config: EngineConfig,
}

impl<A: Algorithm> Engine<A> {
    /// Convenience: build with no triggers.
    pub fn new(algo: A, config: EngineConfig) -> Self {
        EngineBuilder::new(algo, config).build()
    }

    /// Cold restart: opens an engine over an existing durable directory
    /// (`config.durability.dir`), validating its `MANIFEST` against the
    /// config before any shard starts. Each shard then restores its
    /// latest checkpoint and replays its WAL tail during startup, so the
    /// engine resumes from the last durable state — ingest more events,
    /// snapshot, or [`Engine::try_finish`] as usual. A fresh (empty)
    /// directory is also accepted, making `open` a drop-in for
    /// [`Engine::new`] on first boot.
    ///
    /// Fails with [`EngineError::DurabilityMismatch`] when the config has
    /// no durability, or when the directory was written by an engine of a
    /// different shape (shard count / undirectedness).
    pub fn open(algo: A, config: EngineConfig) -> Result<Self, EngineError> {
        let Some(d) = &config.durability else {
            return Err(EngineError::DurabilityMismatch {
                message: "Engine::open requires EngineConfig::with_durability".to_string(),
            });
        };
        match wal::read_manifest(&d.dir) {
            Ok(Some((shards, undirected))) => {
                if shards != config.num_shards || undirected != config.undirected {
                    return Err(EngineError::DurabilityMismatch {
                        message: format!(
                            "{} holds state from a {shards}-shard undirected={undirected} \
                             engine, but the config asks for {} shards undirected={}",
                            d.dir.display(),
                            config.num_shards,
                            config.undirected
                        ),
                    });
                }
            }
            Ok(None) => {} // fresh directory: first boot
            Err(e) => {
                return Err(EngineError::DurabilityMismatch {
                    message: format!("cannot read MANIFEST under {}: {e}", d.dir.display()),
                });
            }
        }
        Ok(EngineBuilder::new(algo, config).build())
    }

    /// Number of shard threads.
    pub fn num_shards(&self) -> usize {
        self.config.num_shards
    }

    /// Channel on which trigger firings arrive in real time.
    pub fn trigger_events(&self) -> &Receiver<TriggerFire> {
        &self.trigger_rx
    }

    /// Failures recorded so far (empty while every shard is healthy).
    pub fn failures(&self) -> Vec<ShardFailure> {
        self.board.snapshot()
    }

    /// A coherent cross-shard [`RunMetrics`] reading **right now**, without
    /// pausing or contending with the shards: each shard's last seqlock
    /// snapshot-cell publish (at most [`crate::PUBLISH_EVERY`] events
    /// stale, and exact whenever the shard is idle or finished). Latency
    /// histograms reflect every sample recorded so far; `lost_shards`
    /// lists shards already dead.
    pub fn metrics_now(&self) -> RunMetrics {
        self.tele.snapshot_metrics()
    }

    /// Reconstructed propagation trees for every trace-sampled external
    /// update observed so far (empty unless the engine was built with
    /// [`EngineConfig::with_tracing`] enabled). Harvest-side work only:
    /// dumps each shard's span ring and stitches the trees — the shards
    /// never stop. See [`crate::trace`] for the tag discipline and the
    /// ring-overflow policy (rootless traces are dropped whole).
    pub fn traces_now(&self) -> Vec<crate::trace::PropagationTrace> {
        self.tele.traces()
    }

    /// Aggregate statistics over [`Engine::traces_now`]: fixpoint-latency,
    /// hops, and amplification quantiles plus cross-shard hop
    /// totals — the same families both exporters render.
    pub fn trace_summary(&self) -> crate::trace::TraceSummary {
        crate::trace::summarize(&self.traces_now())
    }

    /// A cloneable, thread-safe handle onto the engine's live telemetry:
    /// derived gauges ([`crate::EngineGauges`]), Prometheus text, and
    /// JSON rendering. The handle stays valid for the life of the engine
    /// (readers of an engine that has finished see its final counters).
    pub fn telemetry(&self) -> TelemetryHub {
        TelemetryHub::new(Arc::clone(&self.tele))
    }

    /// True once any shard has died; the engine keeps serving the
    /// survivors' partitions.
    pub fn is_degraded(&self) -> bool {
        self.board.any_failed()
    }

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

    fn send_to(&self, shard: usize, msg: Message<A::State>) -> Result<(), EngineError> {
        let sent = self.senders[shard]
            .send(msg)
            .map_err(|_| self.send_error(shard));
        // The shard may be parked — control traffic must wake it or wait
        // out a heartbeat.
        if sent.is_ok() {
            self.parks.wake(shard);
        }
        sent
    }

    /// Unparks every shard (after a broadcast such as a snapshot's epoch
    /// open or the shutdown fan-out).
    fn wake_all(&self) {
        for id in 0..self.config.num_shards {
            self.parks.wake(id);
        }
    }

    /// Injects pre-split event streams: stream `i` becomes shard
    /// `i % P`'s in-order input. Streams may be injected at any time,
    /// including while previous streams are still draining. Fails fast if
    /// a destination shard is dead; streams before the dead one were
    /// delivered. An empty stream is skipped outright — no message, no
    /// wake — so an ingest of fewer items than shards disturbs only the
    /// shards it has work for.
    pub fn try_ingest(&self, streams: Vec<Vec<TopoEvent>>) -> Result<(), EngineError> {
        // Arm the ingest→fixpoint clock (no-op while already armed, so a
        // burst of ingests measures burst-start → quiescence).
        self.tele.mark_ingest();
        for (i, stream) in streams.into_iter().enumerate() {
            if stream.is_empty() {
                continue;
            }
            let shard = i % self.config.num_shards;
            let n = stream.len() as u64;
            // Count *before* sending so quiescence cannot be observed
            // between the send and the shard's receipt; uncount on failure
            // so a degraded engine can still quiesce over the survivors.
            self.shared.injected.fetch_add(n, Ordering::SeqCst);
            if let Err(e) = self.send_to(shard, Message::Stream(stream)) {
                self.shared.injected.fetch_sub(n, Ordering::SeqCst);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Splits `items` round-robin into one stream per shard and ingests —
    /// the shared body of every `try_ingest_*`/`try_delete_*` convenience
    /// method (they differ only in how an item becomes a [`TopoEvent`]).
    fn split_and_ingest<T: Copy>(
        &self,
        items: &[T],
        to_event: impl Fn(T) -> TopoEvent,
    ) -> Result<(), EngineError> {
        let k = self.config.num_shards;
        let mut streams: Vec<Vec<TopoEvent>> = (0..k)
            .map(|_| Vec::with_capacity(items.len().div_ceil(k)))
            .collect();
        for (i, &item) in items.iter().enumerate() {
            streams[i % k].push(to_event(item));
        }
        self.try_ingest(streams)
    }

    /// Convenience: split an unweighted pair list into one stream per shard
    /// and ingest (the paper's evaluation methodology, §V-A).
    pub fn try_ingest_pairs(&self, pairs: &[(VertexId, VertexId)]) -> Result<(), EngineError> {
        self.split_and_ingest(pairs, |(s, d)| TopoEvent::new(s, d))
    }

    /// Convenience: stream edge **removals** (§VI-B extension).
    pub fn try_delete_pairs(&self, pairs: &[(VertexId, VertexId)]) -> Result<(), EngineError> {
        self.split_and_ingest(pairs, |(s, d)| TopoEvent::removal(s, d))
    }

    /// Convenience: weighted variant of [`Self::try_ingest_pairs`].
    pub fn try_ingest_weighted(
        &self,
        triples: &[(VertexId, VertexId, Weight)],
    ) -> Result<(), EngineError> {
        self.split_and_ingest(triples, |(s, d, w)| TopoEvent::weighted(s, d, w))
    }

    /// Sends an `Init` event to `v` — e.g. designate the BFS/SSSP source or
    /// an S-T connectivity source. "Can be initiated at any time" (§IV.1):
    /// before, during, or after ingestion.
    pub fn try_init_vertex(&self, v: VertexId) -> Result<(), EngineError> {
        let epoch = self.shared.epoch.load(Ordering::SeqCst);
        let parity = (epoch & 1) as usize;
        // The controller publishes its own sent counter (extra slot).
        let ctl = self.shared.controller_slot();
        self.shared.slot(ctl).sent[parity].fetch_add(1, Ordering::SeqCst);
        let owner_shard = self.owner(v);
        let sent = self.send_to(
            owner_shard,
            Message::Event(Envelope {
                target: v,
                visitor: v,
                value: A::State::default(),
                weight: 1,
                kind: EventKind::Init,
                epoch,
                tag: 0,
            }),
        );
        if sent.is_err() {
            // Uncount: the envelope never became receivable.
            self.shared.slot(ctl).sent[parity].fetch_sub(1, Ordering::SeqCst);
        }
        sent
    }

    fn owner(&self, v: VertexId) -> usize {
        self.part.owner(v)
    }

    /// Broadcasts one control-plane operation (multi-query attach/detach)
    /// to every live shard and waits for all acknowledgements. Shard-side
    /// claims are idempotent, so the wait loop may resend the op to
    /// laggards without double-applying; a resend after the sweep ran
    /// simply claims an empty mask and acks immediately. Dead shards are
    /// skipped — a degraded engine keeps serving its survivors, and a
    /// respawned shard re-derives committed sweeps from its WAL.
    pub(crate) fn control(&self, op: ControlOp) -> Result<Vec<ControlAck>, EngineError> {
        let n = self.config.num_shards;
        let (tx, rx) = bounded::<ControlAck>(n);
        let mut acked = vec![false; n];
        let mut acks: Vec<ControlAck> = Vec::with_capacity(n);
        for (shard, shard_acked) in acked.iter_mut().enumerate() {
            if self.board.is_failed(shard) {
                *shard_acked = true;
                continue;
            }
            // A send that fails because the shard died mid-broadcast is
            // fine (it will be marked failed below); any other closure is
            // a real error.
            if self
                .send_to(
                    shard,
                    Message::Control {
                        op,
                        ack: tx.clone(),
                    },
                )
                .is_err()
                && !self.board.is_failed(shard)
            {
                return Err(EngineError::ChannelClosed { shard });
            }
        }
        self.wake_all();
        let deadline = Deadline::new(self.config.quiescence_deadline);
        loop {
            if acked.iter().all(|&a| a) {
                return Ok(acks);
            }
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ack) => {
                    if !acked[ack.shard] {
                        acked[ack.shard] = true;
                        acks.push(ack);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Shards that died since the broadcast stop owing an
                    // ack; re-nudge the live laggards (idempotent claims).
                    for (shard, shard_acked) in acked.iter_mut().enumerate() {
                        if *shard_acked {
                            continue;
                        }
                        if self.board.is_failed(shard) {
                            *shard_acked = true;
                            continue;
                        }
                        let _ = self.send_to(
                            shard,
                            Message::Control {
                                op,
                                ack: tx.clone(),
                            },
                        );
                    }
                    if deadline.expired() {
                        return Err(EngineError::QuiescenceTimeout {
                            waited: deadline.waited(),
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable while we hold `tx`, but fail loudly.
                    return Err(EngineError::ShardPanicked {
                        failures: self.board.snapshot(),
                    });
                }
            }
        }
    }

    /// One supervised wait step: failure first (a dead shard must surface
    /// even with no deadline configured), then the deadline.
    fn check_liveness(&self, deadline: &Deadline) -> Result<(), EngineError> {
        if self.board.any_failed() {
            return Err(EngineError::ShardPanicked {
                failures: self.board.snapshot(),
            });
        }
        if deadline.expired() {
            return Err(EngineError::QuiescenceTimeout {
                waited: deadline.waited(),
            });
        }
        Ok(())
    }

    /// Blocks until every injected stream is drained and no algorithmic
    /// event is in flight — or until a shard failure or the configured
    /// `quiescence_deadline` cuts the wait short.
    pub fn try_await_quiescence(&self) -> Result<(), EngineError> {
        let deadline = Deadline::new(self.config.quiescence_deadline);
        let timer = DetectionTimer::begin();
        let mut backoff = Backoff::probe();
        loop {
            self.check_liveness(&deadline)?;
            if self.shared.quiescent_probe() {
                self.tele.record_quiesce(timer.elapsed_ns());
                self.tele.settle_ingest();
                return Ok(());
            }
            std::thread::sleep(backoff.next_wait());
        }
    }

    /// One four-counter reading: true when every sent envelope has been
    /// processed and every injected stream event ingested. Exposed so tests
    /// can assert the termination books balance once a run has quiesced —
    /// in particular that suppressed and dominated envelopes retired
    /// without leaking `sent` or `processed` counts.
    pub fn counters_balanced(&self) -> bool {
        self.shared.quiescent_probe()
    }

    /// Receives one collection fragment under the `query_deadline`.
    fn recv_fragment<T>(
        &self,
        rx: &Receiver<T>,
        answered: usize,
        expected: usize,
    ) -> Result<T, EngineError> {
        let degraded = |answered| EngineError::Degraded {
            failures: self.board.snapshot(),
            answered,
            expected,
        };
        match self.config.query_deadline {
            None => rx.recv().map_err(|_| degraded(answered)),
            Some(d) => rx.recv_timeout(d).map_err(|e| match e {
                // Disconnected: a replier died — the board will say which.
                RecvTimeoutError::Disconnected => degraded(answered),
                RecvTimeoutError::Timeout => {
                    if self.board.any_failed() {
                        degraded(answered)
                    } else {
                        EngineError::QuiescenceTimeout { waited: d }
                    }
                }
            }),
        }
    }

    /// Collects a global snapshot **without pausing ingestion** (§III-D):
    /// opens a new epoch, waits for every shard to start tagging with it,
    /// waits for the old epoch's events to drain (they keep draining while
    /// new-epoch events are processed concurrently), then gathers each
    /// vertex's previous-epoch state. A dead shard or an expired
    /// `quiescence_deadline` aborts the collection with an error instead of
    /// hanging at the barrier.
    pub fn try_snapshot(&mut self) -> Result<Snapshot<A::State>, EngineError> {
        let deadline = Deadline::new(self.config.quiescence_deadline);
        self.check_liveness(&deadline)?;
        let old = self.shared.epoch.fetch_add(1, Ordering::SeqCst);
        let new = old + 1;
        // Parked shards learn about the new epoch on their next wakeup —
        // unpark them all so the ack barrier doesn't wait out heartbeats.
        self.wake_all();
        // Barrier: every shard must have observed the new epoch, so no
        // further old-epoch stream events can be born.
        for id in 0..self.config.num_shards {
            while self.shared.slot(id).epoch_ack.load(Ordering::SeqCst) < new {
                self.check_liveness(&deadline)?;
                std::thread::yield_now();
            }
        }
        // Drain the old epoch (its cascades inherit its parity).
        let mut backoff = Backoff::probe();
        while !self.shared.drained_probe(old) {
            self.check_liveness(&deadline)?;
            std::thread::sleep(backoff.next_wait());
        }
        // Gather fragments.
        let expected = self.config.num_shards;
        let (reply_tx, reply_rx) = bounded(expected);
        for id in 0..expected {
            self.send_to(
                id,
                Message::Collect {
                    old_epoch: old,
                    live: false,
                    reply: reply_tx.clone(),
                },
            )?;
        }
        drop(reply_tx);
        let mut states = Vec::new();
        for answered in 0..expected {
            states.extend(self.recv_fragment(&reply_rx, answered, expected)?);
        }
        Ok(Snapshot::from_fragments(old, states))
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
        let owner_shard = self.owner(v);
        if self.board.is_failed(owner_shard) {
            return Err(EngineError::ShardPanicked {
                failures: self.board.snapshot(),
            });
        }
        let (reply_tx, reply_rx) = bounded(1);
        self.send_to(
            owner_shard,
            Message::Query {
                vertex: v,
                reply: reply_tx,
            },
        )?;
        // Even with no deadline this cannot hang: if the owner dies, its
        // queue (holding our reply sender) is dropped and recv disconnects.
        match self.config.query_deadline {
            None => reply_rx.recv().map_err(|_| self.send_error(owner_shard)),
            Some(d) => reply_rx.recv_timeout(d).map_err(|e| match e {
                RecvTimeoutError::Disconnected => self.send_error(owner_shard),
                RecvTimeoutError::Timeout => {
                    if self.board.is_failed(owner_shard) {
                        EngineError::ShardPanicked {
                            failures: self.board.snapshot(),
                        }
                    } else {
                        EngineError::QuiescenceTimeout { waited: d }
                    }
                }
            }),
        }
    }

    /// Waits for quiescence, then collects every vertex's live state
    /// (equivalent to a snapshot at the end of all injected work).
    pub fn try_collect_live(&self) -> Result<Snapshot<A::State>, EngineError> {
        self.try_await_quiescence()?;
        let expected = self.config.num_shards;
        let (reply_tx, reply_rx) = bounded(expected);
        let epoch = self.shared.epoch.load(Ordering::SeqCst);
        for id in 0..expected {
            self.send_to(
                id,
                Message::Collect {
                    old_epoch: epoch,
                    live: true,
                    reply: reply_tx.clone(),
                },
            )?;
        }
        drop(reply_tx);
        let mut states = Vec::new();
        for answered in 0..expected {
            states.extend(self.recv_fragment(&reply_rx, answered, expected)?);
        }
        Ok(Snapshot::from_fragments(epoch, states))
    }

    /// One reading of every progress counter (injected, epoch, and each
    /// slot's sent/processed/ingested including the controller's), written
    /// into `buf` so the settle loop's 1 ms poll reuses one allocation.
    fn counter_fingerprint_into(&self, buf: &mut Vec<u64>) {
        buf.clear();
        buf.reserve(self.config.num_shards * 5 + 7);
        buf.push(self.shared.injected.load(Ordering::SeqCst));
        buf.push(u64::from(self.shared.epoch.load(Ordering::SeqCst)));
        for id in 0..=self.config.num_shards {
            let s = self.shared.slot(id);
            buf.push(s.sent[0].load(Ordering::SeqCst));
            buf.push(s.sent[1].load(Ordering::SeqCst));
            buf.push(s.processed[0].load(Ordering::SeqCst));
            buf.push(s.processed[1].load(Ordering::SeqCst));
            buf.push(s.ingested.load(Ordering::SeqCst));
        }
    }

    /// After a shard failure, true quiescence is unreachable (the dead
    /// shard's in-flight events can never be processed), but the survivors
    /// still have useful work queued. Wait — bounded by
    /// `shutdown_deadline` — until their progress counters hold still, so
    /// the degraded harvest reflects everything the survivors could
    /// compute, not a snapshot of wherever they happened to be when the
    /// failure was noticed.
    fn settle_survivors(&self) {
        let deadline = Deadline::new(Some(self.config.shutdown_deadline));
        let mut last = Vec::new();
        let mut now = Vec::new();
        self.counter_fingerprint_into(&mut last);
        let mut stable = 0;
        while stable < 5 && !deadline.expired() {
            std::thread::sleep(Duration::from_millis(1));
            self.counter_fingerprint_into(&mut now);
            if now == last {
                stable += 1;
            } else {
                stable = 0;
                std::mem::swap(&mut last, &mut now);
            }
        }
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
    pub fn try_finish(mut self) -> Result<RunResult<A::State>, EngineError> {
        match self.try_await_quiescence() {
            Ok(()) => {}
            // Shards died: harvest what survives.
            Err(EngineError::ShardPanicked { .. }) => {}
            Err(e @ EngineError::QuiescenceTimeout { .. }) => {
                if !self.board.any_failed() {
                    return Err(e); // Drop will tear the shards down.
                }
            }
            Err(e) => return Err(e),
        }
        if self.board.any_failed() {
            self.settle_survivors();
        }
        for s in &self.senders {
            let _ = s.send(Message::Shutdown);
        }
        self.wake_all();

        let shards = self.config.num_shards;
        let mut states = Vec::new();
        let mut metrics = RunMetrics::default();
        metrics.per_shard.resize(shards, Default::default());
        let mut num_vertices = 0;
        let mut num_edges = 0;
        let mut adjacency_bytes = 0;
        let mut store_bytes = 0;
        let mut tables: Vec<Option<DenseStore<_>>> = (0..shards).map(|_| None).collect();

        // Join with a deadline: a healthy shard exits promptly after
        // Shutdown, a panicked shard's thread is already gone, and a wedged
        // shard (e.g. chaos delay) is detached and reported, never joined
        // unboundedly.
        let deadline = Deadline::new(Some(self.config.shutdown_deadline));
        for (id, h) in self.handles.drain(..).enumerate() {
            let mut backoff = Backoff::probe();
            while !h.is_finished() && !deadline.expired() {
                std::thread::sleep(backoff.next_wait());
            }
            if !h.is_finished() {
                self.board.record(ShardFailure {
                    id,
                    payload: "shard did not stop within shutdown_deadline".to_string(),
                    last_epoch: self.shared.slot(id).epoch_ack.load(Ordering::SeqCst),
                    // The wedged shard may still be writing; the dump
                    // drops any possibly-overwritten prefix.
                    trace: self.tele.dump_flight(id),
                });
                continue; // detach: the thread ends (or not) on its own
            }
            match h.join() {
                Ok(Some(report)) => {
                    states.extend(report.states);
                    metrics.per_shard[report.id] = report.metrics;
                    num_vertices += report.num_vertices;
                    num_edges += report.num_edges;
                    adjacency_bytes += report.adjacency_bytes;
                    store_bytes += report.store_bytes;
                    tables[report.id] = Some(report.table);
                }
                // A panicked shard recorded its failure on the board
                // before returning None from run_supervised.
                Ok(None) => {}
                // Panic outside catch_unwind (e.g. in a Drop during
                // unwind): synthesize the record the wrapper could not.
                Err(payload) => self.board.record(ShardFailure {
                    id,
                    payload: crate::supervision::panic_payload_string(payload),
                    last_epoch: self.shared.slot(id).epoch_ack.load(Ordering::SeqCst),
                    trace: self.tele.dump_flight(id),
                }),
            }
        }
        let failures = self.board.snapshot();
        metrics.lost_shards = failures.iter().map(|f| f.id).collect();
        // A dead shard's exact counters died with its thread, but its last
        // snapshot-cell publish survives — fold that in (at most
        // PUBLISH_EVERY events stale, and a chaos panic publishes a final
        // cell on its way down) instead of under-reporting the shard as
        // all zeros.
        for &id in &metrics.lost_shards {
            if id < shards {
                metrics.per_shard[id] = self.tele.shard_snapshot(id).0;
            }
        }
        metrics.controller_sent = self.tele.controller_sent();
        metrics.service = self.tele.service_snapshot();
        metrics.flush = self.tele.flush_snapshot();
        metrics.quiesce = self.tele.quiesce_snapshot();
        metrics.ingest_fixpoint = self.tele.ingest_fixpoint_snapshot();
        metrics.checkpoint = self.tele.checkpoint_snapshot();
        // Satellite invariant: on a clean, quiesced harvest every envelope
        // counted as sent was accounted for exactly once. Lost shards void
        // the equation (their in-flight envelopes retired as
        // undeliverable on survivors, their own counters are a stale
        // cell), as does a timed-out degraded finish.
        if failures.is_empty() {
            debug_assert!(
                metrics.verify_balance().is_ok(),
                "clean harvest failed the envelope balance: {:?}",
                metrics.verify_balance()
            );
        }
        let epoch = self.shared.epoch.load(Ordering::SeqCst);
        Ok(RunResult {
            states: Snapshot::from_fragments(epoch, states),
            metrics,
            num_vertices,
            num_edges,
            adjacency_bytes,
            store_bytes,
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
        for s in &self.senders {
            let _ = s.send(Message::Shutdown);
        }
        self.wake_all();
        let deadline = Deadline::new(Some(self.config.shutdown_deadline));
        for h in self.handles.drain(..) {
            let mut backoff = Backoff::probe();
            while !h.is_finished() && !deadline.expired() {
                std::thread::sleep(backoff.next_wait());
            }
            if h.is_finished() {
                let _ = h.join();
            }
            // else: detached — the OS reaps it when the process exits.
        }
    }
}
