//! Sustained-ingest headline bench: a continuous RMAT delta stream driven
//! in waves against a live engine, reporting the sustained topology-update
//! rate and the ingest→fixpoint latency distribution.
//!
//! Unlike the saturation benches (which ingest one pre-randomized stream
//! and time a single run to quiescence), this models the paper's on-line
//! serving story: deltas keep arriving in bursts while the algorithm state
//! is continuously queryable, and what matters is (a) how many updates per
//! second the engine sustains across the whole session and (b) how long
//! after each burst the state is at fixpoint again. Every wave is
//! `try_ingest_pairs(chunk)` followed by `try_await_quiescence()`, which
//! arms/settles the engine's ingest→fixpoint histogram once per wave; the
//! committed `BENCH_sustained_ingest.json` carries p50/p99/p999 of that
//! histogram next to the sustained updates/s.
//!
//! Usage: `cargo run --release -p remo-bench --bin sustained_ingest`.
//! `REMO_BENCH_SCALE` scales the stream (default 1.0 ≈ 524k directed
//! updates), `REMO_BENCH_SHARDS` picks the shard count (last entry wins),
//! `REMO_BENCH_WAVES` the number of delta bursts (default 64).

use std::time::{Duration, Instant};

use remo_algos::{IncBfs, IncSssp};
use remo_bench::*;
use remo_core::{Algorithm, Engine, EngineConfig, RunResult};
use remo_gen::rmat::{self, RmatConfig};
use remo_gen::VertexId;

fn waves() -> usize {
    std::env::var("REMO_BENCH_WAVES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(64)
}

struct WaveRun<S> {
    result: RunResult<S>,
    elapsed: Duration,
    updates: u64,
}

/// Drives `engine` through `waves` ingest→fixpoint bursts over `edges`.
fn drive<A: Algorithm>(
    engine: Engine<A>,
    edges: &[(VertexId, VertexId)],
    waves: usize,
    weighted: bool,
) -> WaveRun<A::State> {
    let chunk = edges.len().div_ceil(waves).max(1);
    let start = Instant::now();
    for delta in edges.chunks(chunk) {
        if weighted {
            let w: Vec<(VertexId, VertexId, u64)> = delta
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| (s, d, (i as u64 % 16) + 1))
                .collect();
            engine.try_ingest_weighted(&w).unwrap();
        } else {
            engine.try_ingest_pairs(delta).unwrap();
        }
        engine.try_await_quiescence().unwrap();
    }
    let elapsed = start.elapsed();
    let result = engine.try_finish().unwrap();
    note_service(&result.metrics.service);
    note_ingest(elapsed, &result.metrics.total());
    WaveRun {
        updates: result.metrics.total().topo_ingested,
        result,
        elapsed,
    }
}

fn row<S>(algo: &str, shards: usize, waves: usize, run: &WaveRun<S>) -> Vec<String> {
    let ups = run.updates as f64 / run.elapsed.as_secs_f64().max(1e-9);
    let fx = &run.result.metrics.ingest_fixpoint;
    let (p50, p99, p999) = fx.quantiles_us();
    vec![
        algo.to_string(),
        shards.to_string(),
        waves.to_string(),
        run.updates.to_string(),
        fmt_dur(run.elapsed),
        fmt_rate(ups),
        format!("{p50:.0}"),
        format!("{p99:.0}"),
        format!("{p999:.0}"),
    ]
}

/// One algorithm's cell: a default engine driven through the waves.
fn cell<A: Algorithm>(
    label: &str,
    algo: A,
    init: Option<VertexId>,
    weighted: bool,
    edges: &[(VertexId, VertexId)],
    shards: usize,
    waves: usize,
) -> Vec<String> {
    let engine = Engine::new(algo, EngineConfig::undirected(shards));
    if let Some(v) = init {
        engine.try_init_vertex(v).unwrap();
    }
    row(label, shards, waves, &drive(engine, edges, waves, weighted))
}

fn main() {
    // SCALE 1.0 ≈ 2^14 vertices × 16 directed edges each, truncated by the
    // multiplier so CI can run the same binary at SCALE 0.1.
    let cfg = RmatConfig::graph500(14);
    let mut edges = rmat::generate(&cfg);
    let keep = ((edges.len() as f64 * bench_scale()) as usize).clamp(1, edges.len());
    edges.truncate(keep);
    let shards = shard_counts().last().copied().unwrap_or(2);
    let waves = waves();
    println!(
        "sustained ingest: {} updates in {waves} waves at {shards} shard(s)",
        edges.len()
    );

    let source = edges[0].0;
    let rows = vec![
        cell("con", ConstructionOnly, None, false, &edges, shards, waves),
        cell("bfs", IncBfs, Some(source), false, &edges, shards, waves),
        cell("sssp", IncSssp, Some(source), true, &edges, shards, waves),
    ];

    report(
        "sustained_ingest",
        "Sustained ingest: RMAT delta waves to fixpoint",
        &[
            "algo",
            "shards",
            "waves",
            "updates",
            "elapsed",
            "updates_per_sec",
            "fixpoint_p50_us",
            "fixpoint_p99_us",
            "fixpoint_p999_us",
        ],
        &rows,
    );
}
