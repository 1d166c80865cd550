//! Weights on both sides of a byte, through the real algorithms and against
//! `remo-baseline`. The store keeps a weighted vertex's entries as byte
//! entries (a `u32` id and an 8-bit weight) until its first weight past
//! `u8::MAX` makes them narrow (a `u32` weight), so a stream of weights
//! 1..=1 000 holds vertices of both widths, and neighbour scans over both.
//! A durable restart must restore a vertex of byte entries as one: the same
//! entries in the same order, in the same heap bytes.

use remo_algos::IncSssp;
use remo_baseline as oracle;
use remo_core::{DurabilityConfig, Engine, EngineConfig, VertexId};
use remo_gen::RmatConfig;
use remo_store::hash::mix64;
use std::collections::HashMap;

/// An RMAT-10 stream, each edge with a weight in `1..=top` that depends on
/// its unordered pair only, so duplicates and reversals agree on it.
fn stream(top: u64) -> Vec<(VertexId, VertexId, u64)> {
    remo_gen::rmat::generate(&RmatConfig {
        seed: 0xb7e,
        ..RmatConfig::graph500(10)
    })
    .into_iter()
    .map(|(s, d)| (s, d, 1 + mix64(s.min(d) << 32 ^ s.max(d)) % top))
    .collect()
}

/// Each vertex's largest incident weight: at most 255 for a vertex whose
/// entries stay byte entries.
fn heaviest(edges: &[(VertexId, VertexId, u64)]) -> HashMap<VertexId, u64> {
    let mut heaviest = HashMap::new();
    for &(s, d, w) in edges {
        for v in [s, d] {
            let top = heaviest.entry(v).or_insert(0);
            *top = w.max(*top);
        }
    }
    heaviest
}

#[test]
fn sssp_over_byte_and_narrow_weights_equals_dijkstra() {
    let edges = stream(1000);
    let heaviest = heaviest(&edges);
    // Uniform weights leave byte entries to low-degree vertices: 31 of
    // 907 here.
    let byte = heaviest.values().filter(|&&w| w <= 255).count();
    assert!(
        byte > 20 && heaviest.len() - byte > 20,
        "{byte} of {} vertices keep byte entries",
        heaviest.len()
    );
    let source = edges[0].0;
    let want = oracle::sssp_costs(&oracle::build_undirected_weighted(&edges).csr, source);
    for shards in 1..=3 {
        let engine = Engine::new(IncSssp, EngineConfig::undirected(shards));
        engine.try_init_vertex(source).unwrap();
        engine.try_ingest_weighted(&edges).unwrap();
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.len(), heaviest.len());
        for (v, &cost) in states.iter() {
            assert_eq!(cost, want[v as usize], "vertex {v} at P={shards}");
        }
    }
}

/// A durable run's final checkpoint holds vertices of byte entries (the
/// ledger's weights, 1..=16), and reopening the directory restores every
/// vertex's state and entries in the same order and in as many heap
/// bytes: a vertex of five byte entries owns a slab of six 5-byte entries.
#[test]
fn durable_restart_restores_byte_entries_in_the_same_bytes() {
    let edges = stream(16);
    let source = edges[0].0;
    let dir = std::env::temp_dir().join(format!("remo-byte-weights-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || {
        EngineConfig::undirected(2).with_durability(
            DurabilityConfig::new(&dir)
                .checkpoint_every(512)
                .fsync(false),
        )
    };
    let engine = Engine::new(IncSssp, config());
    engine.try_init_vertex(source).unwrap();
    engine.try_ingest_weighted(&edges).unwrap();
    let before = engine.try_finish().unwrap();
    let after = Engine::open(IncSssp, config())
        .unwrap()
        .try_finish()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let mut five = 0;
    for (old, new) in before.tables.iter().zip(&after.tables) {
        assert_eq!(old.num_vertices(), new.num_vertices());
        for (v, state, adj) in old.iter() {
            let (restored_state, restored) = new.get(v).expect("a vertex is lost");
            assert_eq!(restored_state, state, "vertex {v}");
            assert!(restored.iter().eq(adj.iter()), "vertex {v}: entries");
            assert_eq!(restored.heap_bytes(), adj.heap_bytes(), "vertex {v}");
            if adj.degree() == 5 {
                assert_eq!(adj.heap_bytes(), 6 * 5, "vertex {v}");
                five += 1;
            }
        }
    }
    assert!(five > 10, "only {five} vertices of degree 5");
}
