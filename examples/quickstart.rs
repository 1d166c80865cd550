//! Quickstart: live BFS over a dynamically constructed graph.
//!
//! Demonstrates the core loop of the paper: ingest an edge stream while an
//! algorithm maintains its answer, snapshot global state mid-stream without
//! pausing ingestion, and read the final converged result.
//!
//! Run with: `cargo run --release --example quickstart`

use remo::prelude::*;

fn main() {
    // A scale-12 RMAT graph (Graph500 parameters), ~65k directed edge events.
    let cfg = RmatConfig::graph500(12);
    let mut edges = remo::gen::rmat::generate(&cfg);
    remo::gen::stream::shuffle(&mut edges, 7);
    println!(
        "workload: RMAT scale {} — {} vertices, {} edge events",
        cfg.scale,
        cfg.num_vertices(),
        edges.len()
    );

    // Engine: 4 shared-nothing shards, undirected edges, live BFS hooked in.
    let mut engine = Engine::new(IncBfs, EngineConfig::undirected(4));
    let source = edges[0].0;
    engine.try_init_vertex(source).unwrap();
    println!("BFS source: vertex {source}");

    // Stream the first half and snapshot it: the snapshot waits until
    // what was fed is processed, and is the BFS of the stream up to its
    // cut. The second half streams in right after.
    let (first, second) = edges.split_at(edges.len() / 2);
    engine.try_ingest_pairs(first).unwrap();
    let snap = engine.try_snapshot().unwrap();
    println!(
        "snapshot of stream[..{}]: {} vertices captured",
        snap.cut(),
        snap.len()
    );
    engine.try_ingest_pairs(second).unwrap();

    // A snapshot of the whole stream: how far is some vertex now?
    let probe = edges[42].1;
    let live = engine.try_snapshot().unwrap();
    println!(
        "snapshot query: vertex {probe} is at BFS level {:?}",
        live.get(probe)
    );

    // Drain and inspect.
    let result = engine.try_finish().unwrap();
    let reached = result
        .states
        .iter()
        .filter(|(_, &l)| l != remo::algos::UNREACHED)
        .count();
    let max_level = result
        .states
        .iter()
        .map(|(_, &l)| l)
        .filter(|&l| l != remo::algos::UNREACHED)
        .max()
        .unwrap_or(0);
    let total = result.metrics.total();
    println!(
        "final: {reached}/{} vertices reached, eccentricity {max_level}",
        result.num_vertices
    );
    println!(
        "engine: {} topology events, {} algorithmic events, amplification {:.2}x",
        total.topo_ingested,
        total.events_processed(),
        result.metrics.amplification()
    );
}
