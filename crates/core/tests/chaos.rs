//! Chaos-injection suite: drives the engine through shard panics, delayed
//! shards, and in-transit message loss via [`FaultPlan`], and asserts the
//! supervised API's contract — errors within deadlines, never hangs, never
//! aborts the process, and degraded harvests from surviving shards.
//!
//! Every test is written against wall-clock bounds well under the CI job's
//! hard `timeout`, so a regression to the old block-forever behavior fails
//! fast instead of wedging the suite.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use remo_core::{
    algorithm::codec, AlgoCtx, Algorithm, DurabilityConfig, Engine, EngineConfig, EngineError,
    FaultPlan, Partitioner, QueryRegistry, Snapshot, TraceConfig, VertexId, CHAOS_PANIC_MARKER,
};

/// The paper's §II-A example: count each vertex's degree. Enough to make
/// every topology event fan out an envelope per endpoint. It sends no
/// `Update`s, so the lattice filter has nothing to ask it; the label
/// algorithms below are the ones that filter.
struct Degree;

impl Algorithm for Degree {
    type State = u64;
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: u64) {
        ctx.apply(|d| {
            *d += 1;
            true
        });
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: u64) {
        ctx.apply(|d| {
            *d += 1;
            true
        });
    }
}

/// `REMO_CHAOS_TRACE=1` reruns the whole suite with causal tracing at
/// full sampling (every ingest minted a trace): fault containment,
/// deadlines, respawn, and degraded collection must hold identically
/// while every envelope carries a tag and every shard writes span rings.
fn trace_mode() -> TraceConfig {
    match std::env::var("REMO_CHAOS_TRACE").as_deref() {
        Ok("1") => TraceConfig::on()
            .with_sample_shift(0)
            .with_ring_capacity(1 << 15),
        _ => TraceConfig::off(),
    }
}

/// First few vertex ids owned by `shard` under a `shards`-way partition.
fn owned_by(shard: usize, shards: usize) -> Vec<VertexId> {
    let p = Partitioner::new(shards);
    (0..10_000u64)
        .filter(|&v| p.owner(v) == shard)
        .take(8)
        .collect()
}

/// A workload that guarantees both shards of a 2-way engine process
/// events and exchange cross-shard envelopes.
fn cross_shard_pairs() -> Vec<(VertexId, VertexId)> {
    let s0 = owned_by(0, 2);
    let s1 = owned_by(1, 2);
    vec![
        (s0[0], s1[0]),
        (s1[1], s0[1]),
        (s0[2], s0[3]),
        (s1[2], s1[3]),
        (s0[4], s1[4]),
    ]
}

/// Ingest under an active kill-shard fault. The injected panic races the
/// controller's stream handout: if the shard dies first, the send to it
/// correctly reports `ShardPanicked`. Both outcomes are valid for these
/// tests, which assert on the *aftermath* of the death, so only
/// unexpected error kinds fail here.
fn ingest_racing_death<A: Algorithm>(engine: &Engine<A>, pairs: &[(VertexId, VertexId)]) {
    match engine.try_ingest_pairs(pairs) {
        Ok(()) | Err(EngineError::ShardPanicked { .. }) => {}
        Err(e) => panic!("unexpected ingest error: {e}"),
    }
}

fn chaos_config(plan: FaultPlan) -> EngineConfig {
    EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(5)),
        query_deadline: Some(Duration::from_secs(5)),
        fault_plan: plan,
        trace: trace_mode(),
        ..EngineConfig::undirected(2)
    }
}

/// Acceptance: with a FaultPlan that panics shard 1 at its first event,
/// `try_await_quiescence` returns an error within the deadline — no hang,
/// no process abort — and the failure report names shard 1 with the
/// injected payload.
#[test]
fn await_quiescence_surfaces_shard_panic_within_deadline() {
    let engine = Engine::new(Degree, chaos_config(FaultPlan::panic_shard_at(1, 1)));
    ingest_racing_death(&engine, &cross_shard_pairs());

    let start = Instant::now();
    let err = engine
        .try_await_quiescence()
        .expect_err("a panicked shard must fail the quiescence wait");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "error must surface before the deadline, took {:?}",
        start.elapsed()
    );
    match err {
        EngineError::ShardPanicked { failures } => {
            assert!(
                failures.iter().any(|f| f.id == 1),
                "shard 1 must be reported"
            );
            let f = failures.iter().find(|f| f.id == 1).unwrap();
            assert!(
                f.payload.contains(CHAOS_PANIC_MARKER),
                "panic payload must carry the injected marker, got: {}",
                f.payload
            );
        }
        EngineError::QuiescenceTimeout { .. } => {
            panic!("panic should be detected via the failure board, not the deadline")
        }
        other => panic!("unexpected error variant: {other}"),
    }
    assert!(engine.is_degraded());
}

/// Acceptance: `try_finish` on a run with a dead shard returns `Ok` with
/// the surviving shard's states plus a `ShardFailure` report for shard 1 —
/// the run is degraded, not lost.
#[test]
fn finish_degrades_to_surviving_shards() {
    let engine = Engine::new(Degree, chaos_config(FaultPlan::panic_shard_at(1, 1)));
    ingest_racing_death(&engine, &cross_shard_pairs());

    let start = Instant::now();
    let result = engine
        .try_finish()
        .expect("degraded finish must still harvest survivors");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "no hang on finish"
    );

    assert!(result.is_degraded());
    assert_eq!(result.failures.len(), 1, "exactly one shard died");
    assert_eq!(result.failures[0].id, 1);
    assert!(result.failures[0].payload.contains(CHAOS_PANIC_MARKER));
    assert_eq!(result.metrics.lost_shards, vec![1]);

    // Flight recorder: the injected panic must arrive with a trace of the
    // dying shard's last events, ending in the fault entry it wrote on
    // the way down.
    let trace = &result.failures[0].trace;
    assert!(
        !trace.is_empty(),
        "chaos panic must carry a flight-recorder dump"
    );
    assert!(
        trace.iter().any(|line| line.contains("fault kind=panic")),
        "the dump must contain the injected fault entry, got: {trace:?}"
    );

    // Lost-shard counter fold: the dead shard's final snapshot-cell
    // publish (made just before the panic) lands in the aggregate rather
    // than reading as zeros — the injected fault itself is proof.
    assert!(
        result.metrics.per_shard[1].faults_injected >= 1,
        "dead shard's last published counters must be folded in"
    );
    assert!(result.metrics.total().faults_injected >= 1);

    // Every harvested state belongs to the surviving shard, and the
    // survivor did contribute state (its local pair was processed).
    let p = Partitioner::new(2);
    assert!(result.states.iter().all(|(v, _)| p.owner(v) == 0));
    assert!(
        !result.states.is_empty(),
        "survivor states must be harvested"
    );

    // The dead shard's table slot is an empty placeholder.
    assert_eq!(result.tables.len(), 2);
    assert!(result.tables[0].num_vertices() > 0);
    assert_eq!(result.tables[1].num_vertices(), 0);
}

/// Satellite (c): a local-state query against a vertex owned by a failed
/// shard returns `Err(ShardPanicked)` promptly instead of blocking, while
/// the surviving shard keeps answering queries.
#[test]
fn local_state_on_dead_shard_fails_fast() {
    let engine = Engine::new(Degree, chaos_config(FaultPlan::panic_shard_at(1, 1)));
    ingest_racing_death(&engine, &cross_shard_pairs());

    // Wait (bounded) for the failure to land on the board.
    let start = Instant::now();
    while !engine.is_degraded() && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(engine.is_degraded(), "shard 1 should have panicked by now");

    let dead_vertex = owned_by(1, 2)[0];
    let start = Instant::now();
    let err = engine.try_local_state(dead_vertex).unwrap_err();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "query against a dead shard must not block"
    );
    assert!(
        matches!(err, EngineError::ShardPanicked { .. }),
        "expected ShardPanicked, got: {err}"
    );

    // Degraded service: the survivor still answers.
    let live_vertex = owned_by(0, 2)[0];
    let _state = engine.try_local_state(live_vertex).unwrap();
}

/// A snapshot attempt on a degraded engine errors immediately at the
/// liveness check instead of wedging at the epoch barrier.
#[test]
fn snapshot_on_degraded_engine_errors_not_hangs() {
    let mut engine = Engine::new(Degree, chaos_config(FaultPlan::panic_shard_at(1, 1)));
    ingest_racing_death(&engine, &cross_shard_pairs());

    let start = Instant::now();
    while !engine.is_degraded() && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let start = Instant::now();
    let err = engine.try_snapshot().unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(5));
    assert!(matches!(err, EngineError::ShardPanicked { .. }));
}

/// In-transit message loss (no shard dies): the four-counter imbalance is
/// permanent, so the wait must end with `QuiescenceTimeout` once the
/// configured deadline expires — the seed engine looped forever here.
#[test]
fn dropped_envelopes_hit_quiescence_deadline() {
    let deadline = Duration::from_millis(300);
    let config = EngineConfig {
        quiescence_deadline: Some(deadline),
        fault_plan: FaultPlan::drop_on_shard(0, 1.0),
        ..EngineConfig::undirected(2)
    };
    let engine = Engine::new(Degree, config);
    engine.try_ingest_pairs(&cross_shard_pairs()).unwrap();

    let start = Instant::now();
    let err = engine.try_await_quiescence().unwrap_err();
    let elapsed = start.elapsed();
    match err {
        EngineError::QuiescenceTimeout { waited } => {
            assert!(waited >= deadline, "deadline honoured, waited {waited:?}");
        }
        other => panic!("expected QuiescenceTimeout, got: {other}"),
    }
    assert!(
        elapsed < Duration::from_secs(5),
        "timeout must fire near the deadline, took {elapsed:?}"
    );
    assert!(
        engine.failures().is_empty(),
        "message loss is not a shard failure"
    );
    // Teardown of a non-quiescent engine must still complete (Drop path).
}

/// Delay injection slows a shard without killing it: the run completes
/// cleanly and the injected faults are visible in the metrics.
#[test]
fn delayed_shard_completes_and_reports_fault_metrics() {
    let config = EngineConfig {
        fault_plan: FaultPlan::delay_shard(1, Duration::from_millis(1)),
        ..EngineConfig::undirected(2)
    };
    let engine = Engine::new(Degree, config);
    engine.try_ingest_pairs(&cross_shard_pairs()).unwrap();
    let result = engine.try_finish().unwrap();
    assert!(!result.is_degraded());
    let total = result.metrics.total();
    assert!(total.faults_injected >= 1, "delay faults must be counted");
    // The workload itself is fully processed despite the delays.
    assert_eq!(total.topo_ingested, 5);
    // Satellite (a): a clean (if slow) harvest closes the envelope books.
    result.metrics.verify_balance().unwrap();
}

/// Satellite (a): dropping an engine whose shard panicked (without calling
/// finish) returns within the shutdown deadline instead of hanging on
/// join.
#[test]
fn drop_without_finish_does_not_hang_on_dead_shard() {
    let start = Instant::now();
    {
        let engine = Engine::new(Degree, chaos_config(FaultPlan::panic_shard_at(1, 1)));
        ingest_racing_death(&engine, &cross_shard_pairs());
        let probe = Instant::now();
        while !engine.is_degraded() && probe.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Engine dropped here with shard 1 dead and shard 0 alive.
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "Drop must be best-effort bounded, took {:?}",
        start.elapsed()
    );
}

/// Failure accounting composes: `engine.failures()` mirrors what
/// `try_finish` later reports, so callers can poll mid-run.
#[test]
fn failures_accessor_matches_finish_report() {
    let engine = Engine::new(Degree, chaos_config(FaultPlan::panic_shard_at(0, 1)));
    ingest_racing_death(&engine, &cross_shard_pairs());
    let start = Instant::now();
    while !engine.is_degraded() && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mid_run = engine.failures();
    assert_eq!(mid_run.len(), 1);
    assert_eq!(mid_run[0].id, 0);

    let result = engine.try_finish().unwrap();
    assert_eq!(result.failures.len(), mid_run.len());
    assert_eq!(result.failures[0].id, 0);
    assert_eq!(result.metrics.lost_shards, vec![0]);
}

/// A fault-free run through the supervised API behaves exactly like the
/// legacy path: clean quiescence, full harvest, empty failure report.
#[test]
fn fault_free_run_is_clean_under_supervised_api() {
    let engine = Engine::new(Degree, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1), (1, 2)]).unwrap();
    engine.try_await_quiescence().unwrap();
    assert!(!engine.is_degraded());
    let bound = engine.try_local_state(1).unwrap();
    assert_eq!(bound, Some(2));
    let result = engine.try_finish().unwrap();
    assert!(!result.is_degraded());
    assert!(result.failures.is_empty());
    assert!(result.metrics.lost_shards.is_empty());
    assert_eq!(result.states.get(1), Some(&2));
    let total = result.metrics.total();
    assert_eq!(total.faults_injected, 0);
    assert_eq!(total.envelopes_dropped, 0);
    // Satellite (a): sent = processed + dominated + undeliverable + dropped
    // on every clean quiesced harvest.
    result.metrics.verify_balance().unwrap();
}

/// Mid-run observability composes with fault injection: `metrics_now`
/// stays readable (and coherent) while a shard is dying, and the lost
/// shard's cell survives into post-failure readings.
#[test]
fn metrics_now_remains_readable_through_shard_death() {
    let engine = Engine::new(Degree, chaos_config(FaultPlan::panic_shard_at(1, 1)));
    ingest_racing_death(&engine, &cross_shard_pairs());
    let start = Instant::now();
    while !engine.is_degraded() && start.elapsed() < Duration::from_secs(5) {
        let m = engine.metrics_now();
        // Coherence: a torn read could pair a huge counter with zeros.
        let _ = m.total();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(engine.is_degraded());
    let m = engine.metrics_now();
    assert_eq!(m.lost_shards, vec![1]);
    // The dying shard's pre-panic publish is visible mid-run too.
    assert!(m.per_shard[1].faults_injected >= 1);
}

// ---- durability: WAL + checkpoint recovery ---------------------------

/// Max-label propagation (connected components by max id; labels offset
/// by one so the lattice bottom `0` reads "unlabelled"). Unlike `Degree`,
/// whose increments observe *how many* events arrived, the max join is
/// idempotent under duplicated delivery — which is exactly what WAL
/// replay provides (at-least-once), so a recovered run must land on the
/// same fixpoint byte for byte.
struct MaxLabel;

impl MaxLabel {
    fn absorb(ctx: &mut impl AlgoCtx<u64>, cand: u64) {
        let changed = ctx.apply(|s| {
            if cand > *s {
                *s = cand;
                true
            } else {
                false
            }
        });
        if changed {
            let label = *ctx.state();
            ctx.update_nbrs(&label);
        }
    }
}

impl Algorithm for MaxLabel {
    type State = u64;
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, _val: &u64, _w: u64) {
        let cand = (ctx.vertex() + 1).max(visitor + 1);
        Self::absorb(ctx, cand);
        // A new edge must carry my label to the other endpoint even when
        // nothing changed here — otherwise the fixpoint depends on edge
        // arrival order and the byte-identical assertions are vacuous.
        let label = *ctx.state();
        ctx.update_single_nbr(visitor, &label);
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: u64) {
        let cand = (ctx.vertex() + 1).max(visitor + 1).max(*value);
        Self::absorb(ctx, cand);
        let label = *ctx.state();
        ctx.update_single_nbr(visitor, &label);
    }
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, _visitor: VertexId, value: &u64, _w: u64) {
        Self::absorb(ctx, *value);
    }
    fn absorbs(live: &u64, incoming: &u64) -> bool {
        incoming <= live
    }
    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        codec::put_u64(*state, out);
    }
    fn decode_state(bytes: &[u8]) -> u64 {
        codec::get_u64(bytes)
    }
}

/// Fresh per-test durable root under the OS temp dir.
fn durable_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remo-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A chain 0-1-…-n: every vertex converges to label `n + 1`, with plenty
/// of cross-shard traffic on a 2-way engine.
fn chain_pairs(n: u64) -> Vec<(VertexId, VertexId)> {
    (0..n).map(|i| (i, i + 1)).collect()
}

fn fixpoint(states: &Snapshot<u64>) -> Vec<(VertexId, u64)> {
    states.iter().map(|(v, s)| (v, *s)).collect()
}

/// The uninterrupted, durability-free reference run.
fn baseline_fixpoint(pairs: &[(VertexId, VertexId)]) -> Vec<(VertexId, u64)> {
    let engine = Engine::new(MaxLabel, EngineConfig::undirected(2));
    engine.try_ingest_pairs(pairs).unwrap();
    let result = engine.try_finish().unwrap();
    assert!(!result.is_degraded());
    // `MaxLabel` implements `absorbs`, so every run in this suite retires
    // envelopes unprocessed: containment, respawn and the balance
    // equation are exercised with the filter doing real work.
    let total = result.metrics.total();
    assert!(
        total.updates_dominated + total.updates_suppressed > 0,
        "the reference run never filtered: {total:?}"
    );
    fixpoint(&result.states)
}

fn durable_chaos_config(plan: FaultPlan, dir: &PathBuf, checkpoint_every: u64) -> EngineConfig {
    chaos_config(plan).with_durability(
        DurabilityConfig::new(dir)
            .checkpoint_every(checkpoint_every)
            .fsync(false),
    )
}

/// Tentpole acceptance: a shard that panics mid-run is respawned in
/// place — checkpoint restore + WAL replay — and the run finishes
/// *clean*: no degraded harvest, no failure report, and a fixpoint
/// byte-identical to an uninterrupted run. The old behavior (harvest
/// survivors, lose the shard) now applies only when durability is off or
/// the respawn budget is exhausted.
#[test]
fn panicked_shard_respawns_and_converges_byte_identically() {
    let pairs = chain_pairs(24);
    let want = baseline_fixpoint(&pairs);
    let dir = durable_dir("respawn");
    let engine = Engine::new(
        MaxLabel,
        durable_chaos_config(FaultPlan::panic_shard_at(1, 5), &dir, 8),
    );
    engine.try_ingest_pairs(&pairs).unwrap();
    let result = engine
        .try_finish()
        .expect("recovered run must finish clean");
    assert!(
        !result.is_degraded(),
        "respawned shard must not degrade the harvest: {:?}",
        result.failures
    );
    let total = result.metrics.total();
    assert!(
        total.faults_injected >= 1,
        "the chaos panic must have fired"
    );
    assert!(
        total.shard_respawns >= 1,
        "shard 1 must have been respawned"
    );
    assert!(
        total.wal_records_appended > 0,
        "custody must have been logged"
    );
    assert!(
        total.envelopes_recovered >= 1,
        "the panicked envelope is swept"
    );
    assert_eq!(
        fixpoint(&result.states),
        want,
        "recovery must converge to the byte-identical fixpoint"
    );
    // The books close exactly even across the sweep/replay cycle.
    result.metrics.verify_balance().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos × tracing: a respawned shard must resume span recording into
/// the same ring (the rings live in the telemetry plane, which survives
/// the shard thread), replayed envelopes must surface as `Replay` spans —
/// marked, never double-counted as fresh amplification — and the traced,
/// recovered fixpoint must stay byte-identical to an untraced, unfaulted
/// run. Tracing is forced on here so the default CI pass covers the
/// trace-replay interaction; `REMO_CHAOS_TRACE=1` additionally reruns
/// the whole suite traced.
#[test]
fn respawned_shard_resumes_tracing_and_marks_replays() {
    let pairs = chain_pairs(48);
    let want = baseline_fixpoint(&pairs);
    let dir = durable_dir("trace-respawn");
    // No checkpoint before the panic: everything shard 1 accepted is
    // replayed from the WAL, so tagged envelopes are guaranteed to
    // re-process through the Replay observation point. The panic is set
    // late (event 40 on a 49-vertex chain): shard 1 owns only ~24
    // vertices, so reaching its 40th processed event requires having
    // admitted — and custody-logged, tags included — cross-shard
    // envelopes, which is what makes Replay spans deterministic here
    // (an early panic could land inside the initial topology pull,
    // whose records replay untagged by design).
    let config = durable_chaos_config(FaultPlan::panic_shard_at(1, 40), &dir, 100_000)
        .with_tracing(
            TraceConfig::on()
                .with_sample_shift(0)
                .with_ring_capacity(1 << 15),
        );
    let engine = Engine::new(MaxLabel, config);
    engine.try_ingest_pairs(&pairs).unwrap();
    let traces = {
        engine
            .try_await_quiescence()
            .expect("traced recovery must quiesce clean");
        engine.traces_now()
    };
    let result = engine.try_finish().expect("traced recovery must finish");
    assert!(!result.is_degraded(), "failures: {:?}", result.failures);
    assert_eq!(
        fixpoint(&result.states),
        want,
        "tracing + recovery must not perturb the fixpoint"
    );
    let total = result.metrics.total();
    assert!(total.shard_respawns >= 1, "the chaos panic must respawn");
    assert!(total.trace_roots >= 1, "full sampling must mint roots");
    assert!(
        result.metrics.per_shard[1].trace_spans > 0,
        "the respawned shard must have resumed span recording"
    );
    assert!(
        !traces.is_empty(),
        "the trace plane must survive the respawn"
    );
    let replayed: u64 = traces.iter().map(|t| t.replayed).sum();
    assert!(
        replayed >= 1,
        "WAL replay of tagged envelopes must surface as Replay spans"
    );
    let amplification: u64 = traces.iter().map(|t| t.amplification).sum();
    assert!(
        amplification <= total.envelopes_sent,
        "replays must not inflate amplification past the engine's own send count \
         ({amplification} traced sends vs {} total)",
        total.envelopes_sent
    );
    result.metrics.verify_balance().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the twice-dying shard. The first panic hits the live event
/// loop; the second hits *recovery itself* (mid-replay). The supervisor
/// re-sweeps and re-replays from the checkpoint, and the run still
/// converges byte-identically.
#[test]
fn panic_during_replay_recovers_on_second_attempt() {
    let pairs = chain_pairs(24);
    let want = baseline_fixpoint(&pairs);
    let dir = durable_dir("replay-panic");
    let plan = FaultPlan {
        panic_at: Some((1, 5)),
        panic_in_replay: Some((1, 2)),
        ..Default::default()
    };
    // No checkpoint before the panic: the whole history is in the WAL,
    // guaranteeing the replay fault a record to fire on.
    let engine = Engine::new(MaxLabel, durable_chaos_config(plan, &dir, 100_000));
    engine.try_ingest_pairs(&pairs).unwrap();
    let result = engine.try_finish().expect("second recovery must succeed");
    assert!(!result.is_degraded(), "failures: {:?}", result.failures);
    let total = result.metrics.total();
    assert!(
        total.shard_respawns >= 2,
        "one respawn for the live panic, one for the replay panic; got {}",
        total.shard_respawns
    );
    assert!(total.replayed_records >= 1);
    assert_eq!(fixpoint(&result.states), want);
    result.metrics.verify_balance().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a crash in the stage→publish window of checkpointing. The
/// staged temp file is abandoned, recovery falls back to (previous
/// checkpoint + full WAL), and the next attempt publishes cleanly.
#[test]
fn panic_during_checkpoint_falls_back_to_wal() {
    let pairs = chain_pairs(24);
    let want = baseline_fixpoint(&pairs);
    let dir = durable_dir("ckpt-panic");
    let plan = FaultPlan {
        panic_in_checkpoint: Some((1, 1)),
        ..Default::default()
    };
    // Small interval so shard 1 attempts a checkpoint mid-run.
    let engine = Engine::new(MaxLabel, durable_chaos_config(plan, &dir, 4));
    engine.try_ingest_pairs(&pairs).unwrap();
    let result = engine
        .try_finish()
        .expect("checkpoint crash must be recoverable");
    assert!(!result.is_degraded(), "failures: {:?}", result.failures);
    let total = result.metrics.total();
    assert!(
        total.faults_injected >= 1,
        "checkpoint fault must have fired"
    );
    assert!(total.shard_respawns >= 1);
    assert!(
        total.checkpoints_written >= 1,
        "a later attempt must publish successfully"
    );
    assert_eq!(fixpoint(&result.states), want);
    result.metrics.verify_balance().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: when the respawn budget is exhausted (a deterministic
/// poison-pill fault that re-fires after every recovery), the shard
/// degrades exactly as the pre-durability engine did: permanent failure
/// on the board, survivors harvested.
#[test]
fn exhausted_respawn_budget_degrades_cleanly() {
    let pairs = chain_pairs(24);
    let dir = durable_dir("budget");
    let plan = FaultPlan::panic_shard_at(1, 1).repeat_panics(100);
    let config = chaos_config(plan).with_durability(
        DurabilityConfig::new(&dir)
            .checkpoint_every(8)
            .fsync(false)
            .max_respawns(2),
    );
    let engine = Engine::new(MaxLabel, config);
    // The budget burns fast (three back-to-back panics), so the permanent
    // death can race the stream handout exactly like an undurable kill.
    ingest_racing_death(&engine, &pairs);
    let start = Instant::now();
    let result = engine
        .try_finish()
        .expect("budget exhaustion must degrade, not hang");
    assert!(start.elapsed() < Duration::from_secs(20), "no hang");
    assert!(
        result.is_degraded(),
        "the poison pill must exhaust the budget"
    );
    assert_eq!(result.failures.len(), 1);
    assert_eq!(result.failures[0].id, 1);
    assert!(result.failures[0].payload.contains(CHAOS_PANIC_MARKER));
    // The survivors' monotone states were still harvested.
    let p = Partitioner::new(2);
    assert!(result.states.iter().all(|(v, _)| p.owner(v) == 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole acceptance, cold half: `Engine::open` over a directory a
/// previous process finished into resumes from the durable state — more
/// events stream in, and the final fixpoint is byte-identical to one
/// uninterrupted run over the full input.
#[test]
fn cold_restart_resumes_and_matches_uninterrupted_run() {
    let all = chain_pairs(24);
    let (first, second) = all.split_at(12);
    let want = baseline_fixpoint(&all);
    let dir = durable_dir("cold");
    let config = || {
        EngineConfig::undirected(2)
            .with_durability(DurabilityConfig::new(&dir).checkpoint_every(6).fsync(false))
    };
    {
        let engine = Engine::new(MaxLabel, config());
        engine.try_ingest_pairs(first).unwrap();
        let result = engine.try_finish().unwrap();
        assert!(!result.is_degraded());
        // Shutdown force-checkpointed: every shard's durable image is
        // complete and its WAL is empty.
        assert!(result.metrics.total().checkpoints_written >= 1);
    }
    let engine = Engine::open(MaxLabel, config()).expect("manifest must validate");
    engine.try_ingest_pairs(second).unwrap();
    let result = engine.try_finish().unwrap();
    assert!(!result.is_degraded());
    assert_eq!(
        fixpoint(&result.states),
        want,
        "cold restart + second half must equal one uninterrupted run"
    );
    result.metrics.verify_balance().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Engine::open` validates the manifest: a mismatched shard count (which
/// would silently re-partition recovered vertices) is refused, as is
/// opening without durability configured.
#[test]
fn open_rejects_mismatched_or_missing_durability() {
    let dir = durable_dir("manifest");
    {
        let config =
            EngineConfig::undirected(2).with_durability(DurabilityConfig::new(&dir).fsync(false));
        let engine = Engine::new(MaxLabel, config);
        engine.try_ingest_pairs(&[(0, 1)]).unwrap();
        engine.try_finish().unwrap();
    }
    let mismatched =
        EngineConfig::undirected(3).with_durability(DurabilityConfig::new(&dir).fsync(false));
    let err = match Engine::open(MaxLabel, mismatched) {
        Err(e) => e,
        Ok(_) => panic!("a 3-shard open over a 2-shard directory must fail"),
    };
    assert!(
        matches!(err, EngineError::DurabilityMismatch { .. }),
        "expected DurabilityMismatch, got: {err}"
    );
    let err = match Engine::open(MaxLabel, EngineConfig::undirected(2)) {
        Err(e) => e,
        Ok(_) => panic!("open without durability must fail"),
    };
    assert!(matches!(err, EngineError::DurabilityMismatch { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability off (the default) takes no WAL/checkpoint code path at all:
/// every durability counter stays zero and a panicked shard is harvested
/// degraded exactly as before — the seed contract is unchanged.
#[test]
fn durability_off_keeps_seed_behavior_and_zero_counters() {
    let engine = Engine::new(MaxLabel, chaos_config(FaultPlan::default()));
    engine.try_ingest_pairs(&chain_pairs(8)).unwrap();
    let result = engine.try_finish().unwrap();
    let total = result.metrics.total();
    assert_eq!(total.wal_records_appended, 0);
    assert_eq!(total.wal_bytes, 0);
    assert_eq!(total.checkpoints_written, 0);
    assert_eq!(total.replayed_records, 0);
    assert_eq!(total.shard_respawns, 0);
    assert_eq!(total.envelopes_recovered, 0);
}

// ---- registry: multi-query columns across respawn --------------------

/// Min-label propagation (components by min id, labels offset by one so
/// the bottom `0` reads "unlabelled"). A second idempotent lattice with a
/// *different* join direction from [`MaxLabel`]: the registry recovery
/// test runs both as live columns of one engine, so a respawn that mixed
/// columns up — or replayed one query's WAL records into the other's
/// slot — would push a max-flavored label into the min lattice and break
/// the byte-identity assertion.
struct MinLabel;

impl MinLabel {
    fn absorb(ctx: &mut impl AlgoCtx<u64>, cand: u64) {
        let changed = ctx.apply(|s| {
            if *s == 0 || cand < *s {
                *s = cand;
                true
            } else {
                false
            }
        });
        if changed {
            let label = *ctx.state();
            ctx.update_nbrs(&label);
        }
    }
}

impl Algorithm for MinLabel {
    type State = u64;
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, _val: &u64, _w: u64) {
        let cand = (ctx.vertex() + 1).min(visitor + 1);
        Self::absorb(ctx, cand);
        let label = *ctx.state();
        ctx.update_single_nbr(visitor, &label);
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: u64) {
        let mut cand = (ctx.vertex() + 1).min(visitor + 1);
        if *value != 0 {
            cand = cand.min(*value);
        }
        Self::absorb(ctx, cand);
        let label = *ctx.state();
        ctx.update_single_nbr(visitor, &label);
    }
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, _visitor: VertexId, value: &u64, _w: u64) {
        if *value != 0 {
            Self::absorb(ctx, *value);
        }
    }
    fn absorbs(live: &u64, incoming: &u64) -> bool {
        *incoming == 0 || (*live != 0 && incoming >= live)
    }
    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        codec::put_u64(*state, out);
    }
    fn decode_state(bytes: &[u8]) -> u64 {
        codec::get_u64(bytes)
    }
}

/// Registry × durability × chaos: a shard that panics while N queries are
/// live must come back with **every** query column intact — checkpoint
/// restore and WAL replay recover the whole multi-column vertex state,
/// and the attach control sweeps logged before the crash replay
/// idempotently. After recovery the registry must still be fully alive:
/// a *late* attach backfills from the respawned shard's restored
/// adjacency and lands on the watched-whole-stream fixpoint.
#[test]
fn respawned_shard_recovers_all_query_columns() {
    let pairs = chain_pairs(24);
    // Fault-free solo references, one per lattice.
    let want_max = baseline_fixpoint(&pairs);
    let want_min = {
        let engine = Engine::new(MinLabel, EngineConfig::undirected(2));
        engine.try_ingest_pairs(&pairs).unwrap();
        let result = engine.try_finish().unwrap();
        assert!(!result.is_degraded());
        fixpoint(&result.states)
    };

    let dir = durable_dir("registry-respawn");
    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(
        reg.clone(),
        durable_chaos_config(FaultPlan::panic_shard_at(1, 5), &dir, 8),
    );
    let q_max = reg.attach(&engine, MaxLabel, &[], "max").unwrap();
    let q_min = reg.attach(&engine, MinLabel, &[], "min").unwrap();
    engine.try_ingest_pairs(&pairs).unwrap();
    engine
        .try_await_quiescence()
        .expect("recovered multi-query run must quiesce clean");
    // Live attach *after* the panic + respawn: the prime sweep reads the
    // respawned shard's recovered adjacency, so a hole in its store would
    // surface here as a short column.
    let q_late = reg.attach(&engine, MaxLabel, &[], "max-late").unwrap();
    let result = engine
        .try_finish()
        .expect("recovered multi-query run must finish clean");
    assert!(
        !result.is_degraded(),
        "respawned shard must not degrade the harvest: {:?}",
        result.failures
    );
    let total = result.metrics.total();
    assert!(
        total.faults_injected >= 1,
        "the chaos panic must have fired"
    );
    assert!(
        total.shard_respawns >= 1,
        "shard 1 must have been respawned"
    );
    assert_eq!(
        fixpoint(&reg.project(&result.states, q_max)),
        want_max,
        "max column must survive the respawn byte-identically"
    );
    assert_eq!(
        fixpoint(&reg.project(&result.states, q_min)),
        want_min,
        "min column must survive the respawn byte-identically"
    );
    assert_eq!(
        fixpoint(&reg.project(&result.states, q_late)),
        want_max,
        "post-recovery attach must backfill the restored adjacency"
    );
    result.metrics.verify_balance().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
