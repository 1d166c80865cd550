//! Durable restart: a pull log and checkpoints of a global cut surviving
//! a hard crash.
//!
//! Connected components (`IncCc`) over a deterministic RMAT stream, with
//! the engine's durability layer enabled: every pull is CRC-framed into
//! its shard's write-ahead log, and every 4,096 pulls the engine quiesces
//! and checkpoints every shard's store at one cut. A killed process
//! reopens the same directory: each shard restores the cut and re-runs
//! the pulls logged since, once each, and the run converges to the
//! identical fixpoint.
//!
//! A crash can also lose pulls no shard had logged: the resume path
//! re-ingests the full stream on top of the recovered state, and
//! `IncCc`'s join absorbs the pulls that were already there.
//!
//! `IncCc` labels a component by its earliest stream edge, and a WAL
//! record keeps its edge's stream index. The resume path seeks the
//! engine's stream back to 0 before it re-ingests, so every edge gets
//! back its index, and an edge the `kill -9` lost before any shard pulled
//! it still labels its component as in the uninterrupted run: the
//! `fixpoint` line hashes the labels themselves.
//!
//! Modes (first CLI argument):
//!
//! - `baseline`         — no durability; prints the reference fixpoint.
//! - `ingest <dir>`     — durable run (fsync on) that streams slowly in
//!   chunks, leaving a wide window for `kill -9`; prints the fixpoint if
//!   it survives to the end.
//! - `resume <dir>`     — reopens `<dir>` (checkpoint restore + WAL
//!   replay), re-ingests the stream, prints the fixpoint. CI kills
//!   `ingest` mid-stream and asserts this line equals `baseline`'s.
//! - `demo` (default)   — self-contained tour: baseline, then a durable
//!   run that loses a shard mid-stream to a panicking callback and rolls
//!   back to its last cut, then a cold restart over the same directory;
//!   asserts all three fixpoints are identical and that there was one
//!   rollback. Then the same crash under `DegreeCount`, whose `Add`s are
//!   not idempotent: every degree must equal the static count.
//!
//! Run with: `cargo run --release --example durable_restart [mode] [dir]`

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use remo::prelude::*;

/// `A` whose 5,000th callback on shard 2 panics, once: a bug that kills a
/// shard mid-stream the way a real one would.
struct Crashing<A>(A, AtomicU64);

impl<A> Crashing<A> {
    fn new(inner: A) -> Self {
        Crashing(inner, AtomicU64::new(0))
    }

    const SHARD: usize = 2;
    const AT: u64 = 5_000;

    fn crash_if_due(&self, ctx: &impl AlgoCtx<u64>) {
        if ctx.shard_hint() == Self::SHARD && self.1.fetch_add(1, Ordering::Relaxed) + 1 == Self::AT
        {
            panic!(
                "demo: shard {} crashes in callback {}",
                Self::SHARD,
                Self::AT
            );
        }
    }
}

impl<A: Algorithm<State = u64, Edge = ()>> Algorithm for Crashing<A> {
    type State = u64;
    type Edge = ();
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: Weight) {
        self.0.on_add(ctx, v, val, w);
        self.crash_if_due(ctx);
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: Weight) {
        self.0.on_reverse_add(ctx, v, val, w);
        self.crash_if_due(ctx);
    }
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: Weight) {
        self.0.on_update(ctx, v, val, w);
        self.crash_if_due(ctx);
    }
    fn absorbs(live: &u64, incoming: &u64) -> bool {
        A::absorbs(live, incoming)
    }
    fn stream_value(index: u64) -> u64 {
        A::stream_value(index)
    }
}

/// The deterministic workload every mode shares: scale-12 RMAT
/// (Graph500 parameters), shuffled with a fixed seed. Two processes
/// running days apart produce byte-identical streams.
fn stream() -> Vec<(VertexId, VertexId)> {
    let cfg = RmatConfig::graph500(12);
    let mut edges = remo::gen::rmat::generate(&cfg);
    remo::gen::stream::shuffle(&mut edges, 7);
    edges
}

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(60)),
        ..EngineConfig::undirected(shards)
    }
}

/// FNV-1a over the sorted `(vertex, state)` pairs: one `u64` that two
/// independent processes can compare with `grep fixpoint`.
fn fixpoint_hash(states: &Snapshot<u64>) -> u64 {
    let mut pairs: Vec<(VertexId, u64)> = states.iter().map(|(v, s)| (v, *s)).collect();
    pairs.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (v, s) in pairs {
        for b in v.to_le_bytes().into_iter().chain(s.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Drains the engine and prints the machine-readable fixpoint line CI
/// greps for, plus the durability counters behind it. Returns the states
/// and the rollbacks.
fn finish_and_report<A: Algorithm<State = u64>>(engine: Engine<A>) -> (Snapshot<u64>, u64) {
    let result = engine.try_finish().expect("harvest failed");
    assert!(!result.is_degraded(), "run degraded: {:?}", result.failures);
    let total = result.metrics.total();
    println!(
        "durability: {} WAL records ({} bytes), {} checkpoints, {} replayed, {} rollbacks",
        total.wal_records_appended,
        total.wal_bytes,
        total.checkpoints_written,
        total.replayed_records,
        total.rollbacks
    );
    let hash = fixpoint_hash(&result.states);
    println!("fixpoint {hash:016x} over {} vertices", result.num_vertices);
    (result.states, total.rollbacks)
}

fn run_baseline(edges: &[(VertexId, VertexId)]) -> u64 {
    let engine = Engine::new(IncCc, config(4));
    engine.try_ingest_pairs(edges).unwrap();
    engine.try_await_quiescence().unwrap();
    fixpoint_hash(&finish_and_report(engine).0)
}

/// Slow durable ingest: chunked with short sleeps so an external
/// `kill -9` lands mid-stream with high probability. fsync is ON — the
/// WAL tail on disk is exactly what the kernel was told to persist.
fn run_ingest(edges: &[(VertexId, VertexId)], dir: &PathBuf) -> u64 {
    let cfg = config(4).with_durability(DurabilityConfig::new(dir).checkpoint_every(4096));
    let engine = Engine::open(IncCc, cfg).expect("open durable dir");
    println!("ingesting {} events into {}", edges.len(), dir.display());
    for (i, chunk) in edges.chunks(256).enumerate() {
        engine.try_ingest_pairs(chunk).unwrap();
        if i % 64 == 0 {
            println!("  chunk {i}: {} events in", (i + 1) * 256);
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    engine.try_await_quiescence().unwrap();
    fixpoint_hash(&finish_and_report(engine).0)
}

/// Cold restart: reopen the directory (each shard restores the last cut
/// and re-runs the pulls its WAL logged since, during startup), then
/// re-ingest the whole stream from stream index 0 — the pulls already
/// there are absorbed by the monotone join.
fn run_resume(edges: &[(VertexId, VertexId)], dir: &PathBuf) -> u64 {
    let cfg = config(4).with_durability(DurabilityConfig::new(dir).checkpoint_every(4096));
    let engine = Engine::open(IncCc, cfg).expect("open durable dir");
    println!("reopened {}; re-ingesting the full stream", dir.display());
    engine.seek_stream(0);
    engine.try_ingest_pairs(edges).unwrap();
    engine.try_await_quiescence().unwrap();
    fixpoint_hash(&finish_and_report(engine).0)
}

/// In-process tour of both recovery paths.
fn run_demo(edges: &[(VertexId, VertexId)]) {
    println!("== baseline (no durability) ==");
    let want = run_baseline(edges);

    let dir = std::env::temp_dir().join(format!("remo-durable-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!("\n== durable run, shard 2's callback panics mid-stream, rollback ==");
    let cfg = || {
        config(4).with_durability(
            DurabilityConfig::new(&dir)
                .checkpoint_every(4096)
                .fsync(false),
        )
    };
    let engine = Engine::open(Crashing::new(IncCc), cfg()).expect("open durable dir");
    engine.try_ingest_pairs(edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let (warm, rollbacks) = finish_and_report(engine);
    assert_eq!(rollbacks, 1, "shard 2 must have crashed once");
    assert_eq!(
        fixpoint_hash(&warm),
        want,
        "the rollback diverged from baseline"
    );

    println!("\n== cold restart over the same directory ==");
    let cold = run_resume(edges, &dir);
    assert_eq!(cold, want, "cold restart diverged from baseline");
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nall three fixpoints identical: {want:016x}");

    println!("\n== the same crash under DegreeCount: each pull takes effect once ==");
    let engine = Engine::new(Crashing::new(DegreeCount), cfg());
    engine.try_ingest_pairs(edges).unwrap();
    let (degrees, rollbacks) = finish_and_report(engine);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rollbacks, 1, "shard 2 must have crashed once");
    let mut want: HashMap<VertexId, u64> = HashMap::new();
    for &(a, b) in edges {
        *want.entry(a).or_default() += 1;
        *want.entry(b).or_default() += 1;
    }
    assert_eq!(degrees.len(), want.len());
    for (v, d) in degrees.iter() {
        assert_eq!(Some(d), want.get(&v), "vertex {v}'s degree");
    }
    println!("every degree equals the static count");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = args.get(1).map(String::as_str).unwrap_or("demo");
    let edges = stream();
    println!(
        "workload: RMAT scale 12 — {} edge events, IncCc, 4 shards",
        edges.len()
    );
    match mode {
        "baseline" => {
            run_baseline(&edges);
        }
        "ingest" => {
            let dir = PathBuf::from(args.get(2).expect("usage: ingest <dir>"));
            run_ingest(&edges, &dir);
        }
        "resume" => {
            let dir = PathBuf::from(args.get(2).expect("usage: resume <dir>"));
            run_resume(&edges, &dir);
        }
        "demo" => run_demo(&edges),
        other => {
            eprintln!("unknown mode {other:?}; expected baseline|ingest|resume|demo");
            std::process::exit(2);
        }
    }
}
