//! Chaos suite: drives the engine through shard panics, slowed shards and
//! a stalled shard, each one a callback of the algorithm under test (the
//! [`faults::Faulty`] wrapper, or a gate), and asserts the supervised API's
//! contract — errors within deadlines, never hangs, never aborts the
//! process, and degraded harvests from surviving shards.
//!
//! Every test is written against wall-clock bounds well under the CI job's
//! hard `timeout`, so a regression to the old block-forever behavior fails
//! fast instead of wedging the suite.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use remo_core::{
    codec, AlgoCtx, Algorithm, DurabilityConfig, Engine, EngineConfig, EngineError, Partitioner,
    QueryRegistry, RunMetrics, Snapshot, VertexId,
};

mod faults;
use faults::{Faulty, MARKER};

/// The paper's §II-A example: count each vertex's degree. Enough to make
/// every topology event fan out an envelope per endpoint. It sends no
/// `Update`s, so the lattice filter has nothing to ask it; the label
/// algorithms below are the ones that filter.
struct Degree;

impl Algorithm for Degree {
    type State = u64;
    type Edge = ();
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

fn chaos_config() -> EngineConfig {
    EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(5)),
        ..EngineConfig::undirected(2)
    }
}

/// `Degree`, whose first callback on `shard` panics.
fn dies_first(shard: usize) -> Faulty<Degree> {
    Faulty::on(shard, Degree).panic_at(1)
}

/// `Degree` on [`cross_shard_pairs`], with shard 1 dying in its third
/// callback. Shard 0 sends it only two reverse-adds, so by then shard 1
/// has pulled its own stream, and it dies in the pass after that pull run,
/// before any idle publish: only the publish a dying shard makes shows
/// the pull in its counters.
fn dies_after_its_pull() -> Faulty<Degree> {
    Faulty::on(1, Degree).panic_at(3)
}

/// Acceptance: with a callback that panics on shard 1 at its first call,
/// `try_await_quiescence` returns an error within the deadline — no hang,
/// no process abort — and the failure report names shard 1 with the
/// injected payload.
#[test]
fn await_quiescence_surfaces_shard_panic_within_deadline() {
    let engine = Engine::new(dies_first(1), chaos_config());
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
                f.payload.contains(MARKER),
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
    let engine = Engine::new(dies_after_its_pull(), chaos_config());
    engine.try_ingest_pairs(&cross_shard_pairs()).unwrap();

    let start = Instant::now();
    let result = engine
        .try_finish()
        .expect("degraded finish must still harvest survivors");
    // Under the 2 s a settle that never saw the survivors idle would take.
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "no hang on finish"
    );

    assert!(result.is_degraded());
    assert_eq!(result.failures.len(), 1, "exactly one shard died");
    assert_eq!(result.failures[0].id, 1);
    assert!(result.failures[0].payload.contains(MARKER));
    assert_eq!(result.metrics.lost_shards, vec![1]);

    // Lost-shard counter fold: the dead shard's final snapshot-cell
    // publish (made by its supervisor, before the failure is recorded)
    // lands in the aggregate rather than reading as zeros — the pull of
    // its last pass is proof.
    assert!(
        result.metrics.per_shard[1].topo_ingested >= 1,
        "dead shard's last published counters must be folded in"
    );
    assert_eq!(
        result.metrics.total().topo_ingested,
        5,
        "both streams pulled"
    );

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
    let engine = Engine::new(dies_first(1), chaos_config());
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
/// liveness check instead of wedging in its quiescence wait.
#[test]
fn snapshot_on_degraded_engine_errors_not_hangs() {
    let mut engine = Engine::new(dies_first(1), chaos_config());
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

/// `Degree`, except that `init` holds its shard inside the callback —
/// away from its lanes and its channel — from the first barrier to the
/// second.
struct Gated(Arc<[Barrier; 2]>);

impl Algorithm for Gated {
    type State = u64;
    type Edge = ();
    fn init(&self, _ctx: &mut impl AlgoCtx<u64>) {
        self.0[0].wait();
        self.0[1].wait();
    }
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: u64) {
        Degree.on_add(ctx, v, val, w);
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: u64) {
        Degree.on_reverse_add(ctx, v, val, w);
    }
}

/// A stalled shard (no shard dies): while a callback holds shard 0, the
/// envelopes sent to it stay unprocessed, so the wait must end with
/// `QuiescenceTimeout` once the configured deadline expires — the seed
/// engine looped forever here. Released, the same engine quiesces and
/// its books close.
#[test]
fn stalled_shard_hits_quiescence_deadline() {
    let deadline = Duration::from_millis(300);
    let config = EngineConfig {
        quiescence_deadline: Some(deadline),
        ..EngineConfig::undirected(2)
    };
    let gate = Arc::new([Barrier::new(2), Barrier::new(2)]);
    let engine = Engine::new(Gated(Arc::clone(&gate)), config);
    engine.try_init_vertex(owned_by(0, 2)[0]).unwrap();
    gate[0].wait();
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
        "a stalled shard is not a shard failure"
    );

    gate[1].wait();
    engine
        .try_await_quiescence()
        .expect("the released shard catches up");
    let result = engine.try_finish().unwrap();
    assert!(!result.is_degraded());
    // Five pairs and the init.
    assert_eq!(result.metrics.total().topo_ingested, 6);
    result.metrics.verify_balance().unwrap();
}

/// A callback that sleeps slows its shard without killing it: the run
/// completes cleanly and the delays are visible in the shard's phase
/// accounting.
#[test]
fn delayed_shard_completes_and_reports_fault_metrics() {
    let delay = Duration::from_millis(1);
    let engine = Engine::new(
        Faulty::on(1, Degree).delay(delay),
        EngineConfig::undirected(2),
    );
    engine.try_ingest_pairs(&cross_shard_pairs()).unwrap();
    let result = engine.try_finish().unwrap();
    assert!(!result.is_degraded());
    let slow = &result.metrics.per_shard[1];
    let delayed = slow.add_events + slow.reverse_add_events;
    assert!(delayed >= 1, "shard 1 ran callbacks");
    assert!(
        u128::from(slow.phase_busy_ns) >= u128::from(delayed) * delay.as_nanos(),
        "{delayed} delays of {delay:?} must show in {} busy ns",
        slow.phase_busy_ns
    );
    let total = result.metrics.total();
    // The workload itself is fully processed despite the delays.
    assert_eq!(total.topo_ingested, 5);
    // Satellite (a): a clean (if slow) harvest closes the envelope books.
    result.metrics.verify_balance().unwrap();
}

/// A shard that dies while an ingest waits for room in its window ends the
/// wait: `try_ingest_pairs` returns `ShardPanicked` within the deadline
/// instead of hanging. Shard 1's callbacks are slowed (0.1 ms each) so the
/// first chunk it is handed is still being pulled when it dies in its
/// 1,000th, with more than a window of its share still to send. Even pairs
/// lie inside shard 0's partition and odd ones inside shard 1's, so the
/// survivor exchanged nothing with the dead shard and its books must
/// close alone.
#[test]
fn shard_death_ends_an_ingest_waiting_for_room() {
    let deadline = Duration::from_secs(5);
    let algo = Faulty::on(1, Degree)
        .panic_at(1_000)
        .delay(Duration::from_micros(100));
    let p = Partitioner::new(2);
    let own: Vec<Vec<VertexId>> = (0..2)
        .map(|s| (0u64..).filter(|&v| p.owner(v) == s).take(1_000).collect())
        .collect();
    let pairs: Vec<(VertexId, VertexId)> = (0..60_000)
        .map(|i| {
            let (v, j) = (&own[i % 2], i / 2);
            (v[j % 1_000], v[(j * 7 + 1) % 1_000])
        })
        .collect();
    let engine = Engine::new(algo, chaos_config());
    let start = Instant::now();
    let err = engine
        .try_ingest_pairs(&pairs)
        .expect_err("the shard the ingest waits on died");
    assert!(start.elapsed() < deadline, "took {:?}", start.elapsed());
    match err {
        EngineError::ShardPanicked { failures } => {
            assert!(failures
                .iter()
                .any(|f| f.id == 1 && f.payload.contains(MARKER)));
        }
        other => panic!("expected ShardPanicked, got: {other}"),
    }
    let result = engine.try_finish().expect("a degraded finish harvests");
    assert_eq!(result.metrics.lost_shards, vec![1]);
    let survivors = RunMetrics {
        per_shard: vec![result.metrics.per_shard[0].clone()],
        ..RunMetrics::default()
    };
    survivors.verify_balance().unwrap();
    assert!(survivors.per_shard[0].topo_ingested > 0);
}

/// Satellite (a): dropping an engine whose shard panicked (without calling
/// finish) returns within the shutdown deadline instead of hanging on
/// join.
#[test]
fn drop_without_finish_does_not_hang_on_dead_shard() {
    let start = Instant::now();
    {
        let engine = Engine::new(dies_first(1), chaos_config());
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
    let engine = Engine::new(dies_first(0), chaos_config());
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
    assert_eq!(total.envelopes_undeliverable, 0);
    assert_eq!(total.envelopes_recovered, 0);
    // Satellite (a): sent = processed + dominated + undeliverable +
    // recovered on every clean quiesced harvest.
    result.metrics.verify_balance().unwrap();
}

/// Mid-run observability composes with a dying shard: `metrics_now`
/// stays readable (and coherent) while a shard is dying, and the lost
/// shard's cell survives into post-failure readings.
#[test]
fn metrics_now_remains_readable_through_shard_death() {
    let engine = Engine::new(dies_after_its_pull(), chaos_config());
    engine.try_ingest_pairs(&cross_shard_pairs()).unwrap();
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
    // The dying shard's last publish is visible mid-run too.
    assert!(m.per_shard[1].topo_ingested >= 1);
}

/// The postmortem of a dead shard is its payload, its last published
/// counters and its spans: the span ring lives in the telemetry plane, so
/// `traces_now` still reads what the shard recorded after its thread is
/// gone.
#[test]
fn dead_shard_spans_outlive_its_thread() {
    // Split round-robin, shard 1 pulls the odd-indexed pairs: 128 of them,
    // so its 64th pull mints a trace root. `Degree` sends no `Update`s, so
    // shard 1 processes exactly one `Add` per pair whose lower end it owns
    // and one `ReverseAdd` per pair whose upper end it owns; the panic is
    // set at the last of those. One of them comes from a pull after its
    // 64th, so the panic lands after the root.
    let pairs = chain_pairs(256);
    let p = Partitioner::new(2);
    let on_shard_1 =
        |&(a, b): &(VertexId, VertexId)| u64::from(p.owner(a) == 1) + u64::from(p.owner(b) == 1);
    assert!(pairs.iter().skip(129).step_by(2).any(|e| on_shard_1(e) > 0));
    let last = pairs.iter().map(on_shard_1).sum();
    let engine = Engine::new(Faulty::on(1, Degree).panic_at(last), chaos_config());
    ingest_racing_death(&engine, &pairs);
    match engine.try_await_quiescence() {
        Err(EngineError::ShardPanicked { failures }) => {
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].id, 1);
            assert!(failures[0].payload.contains(MARKER));
        }
        other => panic!("shard 1 must have died, got {other:?}"),
    }
    let traces = engine.traces_now();
    assert!(
        traces.iter().any(|t| t.root_shard == 1),
        "the dead shard's root spans must stay readable: {traces:?}"
    );
    let m = engine.metrics_now();
    assert_eq!(m.lost_shards, vec![1]);
    assert!(
        m.per_shard[1].trace_roots >= 1,
        "its last counters say so too"
    );
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
    type Edge = ();
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

fn durable_chaos_config(dir: &PathBuf, checkpoint_every: u64) -> EngineConfig {
    chaos_config().with_durability(
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
        Faulty::on(1, MaxLabel).panic_at(5),
        durable_chaos_config(&dir, 8),
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
        result.metrics.per_shard[1].shard_respawns >= 1,
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

/// Greets the other end of every new edge with an `Update` stamped with
/// its own id, and poisons a vertex that receives a stamp that is not its
/// visitor's. Replay repeats greetings, and a repeat is harmless; an
/// update routed under the wrong visitor is not, unlike in the label
/// lattices above, which absorb any stale value.
struct Stamped;

impl Stamped {
    const POISON: u64 = u64::MAX;

    fn greet(ctx: &mut impl AlgoCtx<u64>, visitor: VertexId) {
        let stamp = ctx.vertex() + 1;
        ctx.update_single_nbr(visitor, &stamp);
    }
}

impl Algorithm for Stamped {
    type State = u64;
    type Edge = ();
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, _val: &u64, _w: u64) {
        Self::greet(ctx, visitor);
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, _: &u64, _: u64) {
        Self::greet(ctx, visitor);
    }
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: u64) {
        let seen = if *value == visitor + 1 {
            1
        } else {
            Self::POISON
        };
        ctx.apply(move |s| {
            let raised = *s < seen;
            *s = (*s).max(seen);
            raised
        });
    }
    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        codec::put_u64(*state, out);
    }
    fn decode_state(bytes: &[u8]) -> u64 {
        codec::get_u64(bytes)
    }
}

/// A callback that panics with output queued leaves that output behind:
/// the post-panic sweep must drop it, because replay queues it again.
/// Kept, it would go out after the first replayed callback as that
/// vertex's — here the third pulled `Add` (at vertex 4) panics with its
/// greeting to 5 queued, and replay's first callback is the `Add` at 0.
#[test]
fn a_panic_with_queued_output_routes_none_of_it_after_recovery() {
    let pairs: Vec<(VertexId, VertexId)> = (0..8).map(|i| (2 * i, 2 * i + 1)).collect();
    let dir = durable_dir("queued-output");
    let config = EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(5)),
        ..EngineConfig::undirected(1)
    }
    .with_durability(
        DurabilityConfig::new(&dir)
            .checkpoint_every(1000)
            .fsync(false),
    );
    let engine = Engine::new(Faulty::on(0, Stamped).panic_at(3), config);
    engine.try_ingest_pairs(&pairs).unwrap();
    let result = engine.try_finish().expect("a recovered run finishes clean");
    assert!(!result.is_degraded(), "{:?}", result.failures);
    assert_eq!(result.metrics.total().shard_respawns, 1);
    let poisoned: Vec<VertexId> = result
        .states
        .iter()
        .filter(|(_, s)| **s == Stamped::POISON)
        .map(|(v, _)| v)
        .collect();
    assert!(poisoned.is_empty(), "stale greetings reached {poisoned:?}");
    assert_eq!(
        fixpoint(&result.states),
        (0..16).map(|v| (v, 1)).collect::<Vec<_>>()
    );
    result.metrics.verify_balance().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos × tracing: a respawned shard must resume span recording into
/// the same ring (the rings live in the telemetry plane, which survives
/// the shard thread), replayed envelopes must surface as `Replay` spans —
/// marked, never double-counted as fresh amplification — and the traced,
/// recovered fixpoint must stay byte-identical to an unfaulted run. Every
/// chaos engine traces; this test is the one that makes a replay carry
/// tags.
#[test]
fn respawned_shard_resumes_tracing_and_marks_replays() {
    // Each shard's stream is 128 pulls, so each mints two roots: the last
    // pull of each of its two pull runs.
    let pairs = chain_pairs(256);
    let want = baseline_fixpoint(&pairs);
    let dir = durable_dir("trace-respawn");
    // No checkpoint before the panic: everything shard 1 accepted is
    // replayed from the WAL, and its own topology pulls replay untagged
    // by design, so a Replay span needs a tagged envelope that shard 1
    // admitted (and custody-logged, tag included) from shard 0 before it
    // died — such as the `Add` or `ReverseAdd` a shard-0 root sends
    // across with its pull run's batch. The later the panic, the surer
    // that is, so it is set at the last callback the run is certain to
    // reach: shard 1 runs one `on_add` per chain edge whose lower end it
    // owns and one `on_reverse_add` per edge whose upper end it owns,
    // `on_update`s aside (their number depends on the interleaving). It
    // cannot get there on its own stream's work alone.
    let p = Partitioner::new(2);
    let certain = pairs
        .iter()
        .map(|&(a, b)| u64::from(p.owner(a) == 1) + u64::from(p.owner(b) == 1))
        .sum();
    let config = durable_chaos_config(&dir, 100_000);
    let engine = Engine::new(Faulty::on(1, MaxLabel).panic_at(certain), config);
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
    assert!(
        result.metrics.per_shard[1].shard_respawns >= 1,
        "the injected panic must respawn shard 1"
    );
    assert_eq!(total.trace_roots, 4, "two sampled pulls per shard");
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
/// loop; the second hits *recovery itself*: replay re-runs the callbacks,
/// and the first of them spends the second panic of the budget. The
/// supervisor re-sweeps and re-replays from the checkpoint, and the run
/// still converges byte-identically.
#[test]
fn panic_during_replay_recovers_on_second_attempt() {
    let pairs = chain_pairs(24);
    let want = baseline_fixpoint(&pairs);
    let dir = durable_dir("replay-panic");
    // No checkpoint before the panic: the whole history is in the WAL,
    // so replay re-runs every callback the shard ran, the fifth included.
    let algo = Faulty::on(1, MaxLabel).panic_at(5).repeat(2);
    let engine = Engine::new(algo, durable_chaos_config(&dir, 100_000));
    engine.try_ingest_pairs(&pairs).unwrap();
    let result = engine.try_finish().expect("second recovery must succeed");
    assert!(!result.is_degraded(), "failures: {:?}", result.failures);
    let total = result.metrics.total();
    assert!(
        result.metrics.per_shard[1].shard_respawns >= 2,
        "one respawn for the live panic, one for the replay panic; got {}",
        total.shard_respawns
    );
    assert!(total.replayed_records >= 1);
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
    let algo = Faulty::on(1, MaxLabel).panic_at(1).repeat(100);
    let engine = Engine::new(algo, durable_chaos_config(&dir, 8));
    // The budget burns fast (four back-to-back panics), so the permanent
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
    assert!(result.failures[0].payload.contains(MARKER));
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
    let engine = Engine::new(MaxLabel, chaos_config());
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
    type Edge = ();
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
    let engine = Engine::new(reg.clone(), durable_chaos_config(&dir, 8));
    // The max column's query is the one whose callback dies.
    let q_max = reg
        .attach(&engine, Faulty::on(1, MaxLabel).panic_at(5), &[], "max")
        .unwrap();
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
    assert!(
        result.metrics.per_shard[1].shard_respawns >= 1,
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

/// A control op skips dead shards: with durability off, the first
/// attach's query panics in shard 1's prime sweep and kills it for good.
/// Both attaches return over the survivor within the deadline, and the
/// survivor's columns are primed.
#[test]
fn attach_on_a_degraded_engine_skips_the_dead_shard() {
    let pairs = chain_pairs(24);
    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), chaos_config());
    engine.try_ingest_pairs(&pairs).unwrap();
    engine.try_await_quiescence().unwrap();
    // Prime replays one muted `on_add` per stored edge end: shard 1 has
    // some, so its first one panics.
    let start = Instant::now();
    reg.attach(&engine, Faulty::on(1, MaxLabel).panic_at(1), &[], "dies")
        .unwrap();
    let failures = engine.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert_eq!(failures[0].id, 1);
    assert!(
        failures[0].payload.contains(MARKER),
        "{}",
        failures[0].payload
    );
    let late = reg.attach(&engine, MaxLabel, &[], "late").unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the attaches took {:?}",
        start.elapsed()
    );
    let result = engine.try_finish().unwrap();
    assert!(result.is_degraded());
    let column = reg.project(&result.states, late);
    assert!(!column.is_empty());
    assert!(
        column.iter().all(|(_, &label)| label > 0),
        "every surviving vertex holds a primed label"
    );
}

/// Replay sweeps what the run swept. A warm respawn here restores a
/// checkpoint older than the attach's Prime, whose primed bit is already
/// set in memory, so the replayed Prime must sweep all the same. Shard 1
/// panics in the first callback after its Prime sweep, when the flood
/// reaches it; the pair `(a, b)` lives on shard 1 alone, so its label
/// comes from shard 1's Prime and from nothing else.
#[test]
fn replay_reprimes_a_column_its_checkpoint_predates() {
    let p = Partitioner::new(2);
    let mut on_shard_1 = (100..).filter(|&v| p.owner(v) == 1);
    let (a, b) = (on_shard_1.next().unwrap(), on_shard_1.next().unwrap());
    let pairs: Vec<_> = std::iter::once((a, b)).chain(chain_pairs(24)).collect();
    let want = baseline_fixpoint(&pairs);
    let dir = durable_dir("reprime");
    // The first engine leaves a checkpoint and an empty WAL.
    let engine = Engine::new(
        QueryRegistry::<u64>::new(),
        durable_chaos_config(&dir, 1 << 20),
    );
    engine.try_ingest_pairs(&pairs).unwrap();
    assert!(engine.try_finish().unwrap().metrics.per_shard[1].checkpoints_written > 0);

    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::open(reg.clone(), durable_chaos_config(&dir, 1 << 20)).unwrap();
    // The Prime sweep calls one muted `on_add` per stored edge end.
    let primed = pairs
        .iter()
        .map(|&(u, v)| u64::from(p.owner(u) == 1) + u64::from(p.owner(v) == 1))
        .sum::<u64>();
    let q = reg
        .attach(
            &engine,
            Faulty::on(1, MaxLabel).panic_at(primed + 1),
            &[],
            "max",
        )
        .unwrap();
    engine.try_await_quiescence().unwrap();
    let result = engine.try_finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!result.is_degraded(), "{:?}", result.failures);
    assert_eq!(result.metrics.per_shard[1].shard_respawns, 1);
    assert_eq!(fixpoint(&reg.project(&result.states, q)), want);
}
