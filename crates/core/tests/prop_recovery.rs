//! Randomised recovery-equivalence suite: for a spread of generated
//! graphs, shard counts, checkpoint intervals, and mid-stream panic
//! points (the panicking shard's n-th callback, [`faults::Faulty`]), a
//! durable run whose shard panics and rolls the engine back (every shard
//! restores the last cut and re-runs its WAL) must be indistinguishable
//! from an uninterrupted run — byte-identical vertex states, the same
//! trigger-fire set, and exactly balanced termination books — and must
//! show the one rollback that proves its panic fired.
//!
//! Deterministic by construction: a fixed-seed xorshift generator drives
//! every random draw, and the 8 case indices visit every shard count
//! twice, so failures reproduce by case number with no shrinking
//! machinery needed.
//!
//! Grid: 1–4 shards (1 = the panicking shard is the whole engine; 4 =
//! every shard discards its lanes and re-runs its log at once) × two
//! drawn scenarios (graph, panic point, checkpoint interval) per shard
//! count.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

/// `(states, deduplicated fire keys, raw fire count, rollbacks)` from one
/// run.
type RunOutputs = (Vec<(VertexId, u64)>, BTreeSet<(usize, VertexId)>, u64, u64);

use remo_core::{
    Algorithm, DurabilityConfig, EngineBuilder, EngineConfig, Partitioner, Snapshot, VertexId,
};

mod faults;
mod max_label;
use faults::Faulty;
use max_label::MaxLabel;

/// xorshift64* — deterministic, dependency-free, good enough to spread
/// draws across the case grid.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One generated scenario. The shard count is derived from the case
/// index so every count is always covered; everything else is drawn from
/// the seeded generator.
struct Case {
    shards: usize,
    pairs: Vec<(VertexId, VertexId)>,
    vertices: u64,
    panic_shard: usize,
    panic_at: u64,
    checkpoint_every: u64,
}

fn gen_case(idx: usize, rng: &mut Rng) -> Case {
    let shards = 1 + (idx % 4);
    let vertices = 6 + rng.below(20);
    let edges = vertices + rng.below(vertices + 1);
    let mut pairs = Vec::with_capacity(edges as usize);
    while (pairs.len() as u64) < edges {
        let a = rng.below(vertices);
        let b = rng.below(vertices);
        if a != b {
            pairs.push((a, b));
        }
    }
    let panic_shard = rng.below(shards as u64) as usize;
    // The panic shard runs one `on_add` per pair whose first end it owns
    // and one `on_reverse_add` per pair whose second end it owns, updates
    // aside: a panic point past the last of those might never be reached.
    let part = Partitioner::new(shards);
    let certain = pairs
        .iter()
        .map(|&(a, b)| {
            u64::from(part.owner(a) == panic_shard) + u64::from(part.owner(b) == panic_shard)
        })
        .sum::<u64>();
    Case {
        shards,
        pairs,
        vertices,
        panic_shard,
        panic_at: (1 + rng.below(16)).min(certain.max(1)),
        checkpoint_every: [2, 4, 16, 100_000][rng.below(4) as usize],
    }
}

fn base_config(case: &Case) -> EngineConfig {
    EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(10)),
        ..EngineConfig::undirected(case.shards)
    }
}

fn durable_dir(case: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("remo-prop-recovery-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fixpoint(states: &Snapshot<u64>) -> Vec<(VertexId, u64)> {
    states.iter().map(|(v, s)| (v, *s)).collect()
}

/// Runs one engine to its fixpoint and returns `(states, fire keys)`.
/// Trigger delivery across a crash is at-least-once with dedup key
/// `(trigger, vertex)` (see DESIGN.md §14): a fire delivered between the
/// last cut and a panic fires again when the rollback re-runs the log,
/// because the per-vertex fired bit only persists at cuts. Equivalence is
/// therefore asserted on the deduplicated key set.
fn run_engine<A: Algorithm<State = u64>>(
    case: &Case,
    algo: A,
    config: EngineConfig,
    expect_clean: bool,
) -> RunOutputs {
    let threshold = (case.vertices / 2).max(2);
    let mut builder = EngineBuilder::new(algo, config);
    builder.trigger(move |_, s: &u64| *s >= threshold);
    let engine = builder.build();
    engine.try_ingest_pairs(&case.pairs).unwrap();
    // Quiescence first: every fire is sent into the channel before its
    // envelope's `processed` count publishes, so a balanced probe means
    // the fire stream is complete — drain it before `try_finish`
    // consumes the engine (and with it the receiver).
    engine
        .try_await_quiescence()
        .expect("run must reach its fixpoint");
    let mut fires = Vec::new();
    while let Ok(f) = engine.trigger_events().try_recv() {
        fires.push((f.trigger, f.vertex));
    }
    let raw = fires.len() as u64;
    let result = engine.try_finish().expect("harvest must succeed");
    if expect_clean {
        assert!(
            !result.is_degraded(),
            "recovered run must not degrade: {:?}",
            result.failures
        );
    }
    result.metrics.verify_balance().unwrap();
    (
        fixpoint(&result.states),
        fires.into_iter().collect(),
        raw,
        result.metrics.total().rollbacks,
    )
}

/// `MaxLabel`, dying in the case's panicking shard's `panic_at`-th
/// callback.
fn faulty(case: &Case) -> Faulty<MaxLabel> {
    Faulty::on(case.panic_shard, MaxLabel).panic_at(case.panic_at)
}

#[test]
fn recovered_runs_match_uninterrupted_runs() {
    let mut rng = Rng::new(0xD15EA5E);
    for idx in 0..8 {
        let case = gen_case(idx, &mut rng);
        eprintln!(
            "case {idx}: shards={} edges={} panic=({},{}) ckpt={}",
            case.shards,
            case.pairs.len(),
            case.panic_shard,
            case.panic_at,
            case.checkpoint_every
        );
        let (want_states, want_fires, want_raw, _) =
            run_engine(&case, MaxLabel, base_config(&case), true);
        assert_eq!(
            want_fires.len() as u64,
            want_raw,
            "case {idx}: an uninterrupted run must fire at-most-once per (trigger, vertex)"
        );

        let dir = durable_dir(idx);
        let config = base_config(&case).with_durability(
            DurabilityConfig::new(&dir)
                .checkpoint_every(case.checkpoint_every)
                .fsync(false),
        );
        let (got_states, got_fires, _, rollbacks) = run_engine(&case, faulty(&case), config, true);
        assert_eq!(rollbacks, 1, "case {idx}: one panic, one rollback");

        assert_eq!(
            got_states, want_states,
            "case {idx} ({} shards, ckpt {}): recovered fixpoint diverged",
            case.shards, case.checkpoint_every
        );
        assert_eq!(
            got_fires, want_fires,
            "case {idx}: recovered trigger-fire set diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The same grid without faults: durability alone (WAL + cuts, no panic,
/// no rollback) must be invisible in every observable output.
#[test]
fn durable_fault_free_runs_match_plain_runs() {
    let mut rng = Rng::new(0xBADC0FFE);
    for idx in 0..8 {
        let case = gen_case(idx, &mut rng);
        let (want_states, want_fires, _, _) = run_engine(&case, MaxLabel, base_config(&case), true);

        let dir = durable_dir(100 + idx);
        let config = base_config(&case).with_durability(
            DurabilityConfig::new(&dir)
                .checkpoint_every(case.checkpoint_every)
                .fsync(false),
        );
        let (got_states, got_fires, got_raw, rollbacks) = run_engine(&case, MaxLabel, config, true);
        assert_eq!(rollbacks, 0, "case {idx}");
        assert_eq!(
            got_states, want_states,
            "case {idx}: durable fixpoint diverged"
        );
        assert_eq!(
            got_fires, want_fires,
            "case {idx}: durable fire set diverged"
        );
        assert_eq!(
            got_fires.len() as u64,
            got_raw,
            "case {idx}: nothing re-ran, so no duplicate fires are admissible"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Regression: `drain_lanes` claims (clears) the pending bitmap before
/// draining, so a callback panic unwinding between the claim and the drain
/// used to strand delivered batches in the rings — invisible to the bit
/// probe, wedging quiescence (~1 in 4 runs of this exact scenario on the
/// host that found it, ~1 in 15 on a 2-core one). A rollback now drains
/// every inbound lane, whatever the bits say. The case is the sparse
/// 4-shard graph that originally exposed it; iterate to give the race
/// room.
#[test]
fn lane_claim_unwind_does_not_strand_batches() {
    let mut rng = Rng::new(0xD15EA5E);
    let mut case = gen_case(0, &mut rng);
    for idx in 1..4 {
        case = gen_case(idx, &mut rng);
    }
    for iter in 0..20 {
        let dir = durable_dir(900 + iter);
        let config = base_config(&case).with_durability(
            DurabilityConfig::new(&dir)
                .checkpoint_every(case.checkpoint_every)
                .fsync(false),
        );
        let threshold = (case.vertices / 2).max(2);
        let mut builder = EngineBuilder::new(faulty(&case), config);
        builder.trigger(move |_, s: &u64| *s >= threshold);
        let engine = builder.build();
        engine.try_ingest_pairs(&case.pairs).unwrap();
        if let Err(e) = engine.try_await_quiescence() {
            let m = engine.metrics_now();
            eprintln!("iter {iter}: {e}");
            eprintln!("balance: {:?}", m.verify_balance());
            eprintln!("total: {:#?}", m.total());
            for (i, s) in m.per_shard.iter().enumerate() {
                eprintln!("shard {i}: {s:#?}");
            }
            panic!("hang reproduced");
        }
        let result = engine.try_finish().expect("harvest must succeed");
        assert_eq!(
            result.metrics.total().rollbacks,
            1,
            "iter {iter}: one panic, one rollback"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
