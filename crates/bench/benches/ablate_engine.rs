//! Ablation: engine design choices (criterion).
//!
//! - Snapshot machinery: ingestion with periodic on-the-fly snapshots vs
//!   none — the price of continuous global state collection (§III-D).
//! - Shard count on a fixed workload — the engine's strong-scaling knee at
//!   micro scale.
//! - Supervision overhead: a fault-free run under the supervised
//!   `Result`-returning API, with and without deadlines armed — the happy
//!   path must not pay for the failure machinery.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use remo_algos::{IncBfs, IncCc};
use remo_bench::{timed_run, ConstructionOnly};
use remo_core::{Engine, EngineConfig, SequentialEngine};
use remo_gen::{stream, Dataset};

fn workload() -> Vec<(u64, u64)> {
    let mut edges = Dataset::ErdosRenyi.generate(0.05, 21);
    stream::shuffle(&mut edges, 2);
    edges
}

fn bench_snapshot_overhead(c: &mut Criterion) {
    let edges = workload();
    let mut g = c.benchmark_group("snapshot_overhead");
    g.sample_size(10);
    g.bench_function("no_snapshots", |b| {
        b.iter(|| {
            let engine = Engine::new(IncCc, EngineConfig::undirected(4));
            engine.try_ingest_pairs(&edges).unwrap();
            engine.try_finish().unwrap().num_edges
        })
    });
    g.bench_function("snapshot_every_quarter", |b| {
        b.iter(|| {
            let mut engine = Engine::new(IncCc, EngineConfig::undirected(4));
            let chunk = edges.len() / 4;
            for part in edges.chunks(chunk) {
                engine.try_ingest_pairs(part).unwrap();
                let _ = engine.try_snapshot().unwrap();
            }
            engine.try_finish().unwrap().num_edges
        })
    });
    g.finish();
}

fn bench_shard_scaling(c: &mut Criterion) {
    let edges = workload();
    let mut g = c.benchmark_group("construction_shards");
    g.sample_size(10);
    for p in [1usize, 2, 4, 8] {
        g.bench_function(format!("p{p}"), |b| {
            b.iter(|| timed_run(ConstructionOnly, p, &edges, &[]).result.num_edges)
        });
    }
    g.finish();
}

fn bench_sequential_vs_concurrent(c: &mut Criterion) {
    // §II-A's architectural motivation: prior work's one-event-at-a-time
    // abstract machine vs the concurrent shared-nothing engine, running the
    // *same* Algorithm implementation.
    let edges = workload();
    let source = edges[0].0;
    let mut g = c.benchmark_group("execution_model");
    g.sample_size(10);
    g.bench_function("sequential_reference", |b| {
        b.iter(|| {
            let mut eng = SequentialEngine::undirected(IncBfs);
            eng.init_vertex(source);
            eng.apply_pairs(&edges);
            eng.num_edges()
        })
    });
    g.bench_function("concurrent_4_shards", |b| {
        b.iter(|| {
            let engine = Engine::new(IncBfs, EngineConfig::undirected(4));
            engine.try_init_vertex(source).unwrap();
            engine.try_ingest_pairs(&edges).unwrap();
            engine.try_finish().unwrap().num_edges
        })
    });
    g.finish();
}

fn bench_supervision_overhead(c: &mut Criterion) {
    // The supervised API's happy path: every shard runs under
    // catch_unwind, every wait loop polls the failure board, and (in the
    // "deadlined" variant) checks a deadline. None of that may cost
    // anything observable on a healthy run — compare against each other
    // and against snapshot_overhead/no_snapshots above, which runs the
    // identical workload.
    let edges = workload();
    let mut g = c.benchmark_group("supervision_overhead");
    g.sample_size(10);
    g.bench_function("fault_free_no_deadlines", |b| {
        b.iter(|| {
            let engine = Engine::new(IncCc, EngineConfig::undirected(4));
            engine.try_ingest_pairs(&edges).unwrap();
            engine.try_await_quiescence().unwrap();
            engine.try_finish().unwrap().num_edges
        })
    });
    g.bench_function("fault_free_with_deadlines", |b| {
        b.iter(|| {
            let config = EngineConfig {
                quiescence_deadline: Some(Duration::from_secs(60)),
                query_deadline: Some(Duration::from_secs(60)),
                ..EngineConfig::undirected(4)
            };
            let engine = Engine::new(IncCc, config);
            engine.try_ingest_pairs(&edges).unwrap();
            engine.try_await_quiescence().unwrap();
            engine.try_finish().unwrap().num_edges
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_snapshot_overhead,
    bench_shard_scaling,
    bench_sequential_vs_concurrent,
    bench_supervision_overhead
);
criterion_main!(benches);
