//! Vertex ids and weights past `u32::MAX`, through the real algorithms and
//! against `remo-baseline`. The store keeps a vertex's entries narrow (a
//! `u32` id and weight) until its first neighbour id or weight past
//! `u32::MAX` widens them, so an RMAT stream with about half of its ids
//! relabelled past 2^32 has narrow vertices, vertices widened inline, in a
//! slab and at a hub, and neighbour scans over both widths. The oracle runs
//! on the dense ids: BFS and SSSP must match exactly, CC as a partition.
//! A durable restart must restore every widened vertex's entries in order.

use remo_algos::{IncBfs, IncCc, IncSssp};
use remo_baseline as oracle;
use remo_core::{DurabilityConfig, Engine, EngineConfig, VertexId};
use remo_gen::RmatConfig;
use remo_store::hash::mix64;
use std::collections::HashMap;

const LOW: u64 = u32::MAX as u64;

/// The id of dense vertex `v`: `v` itself for about half of the vertices,
/// and `v` with a nonzero scattered high half for the rest, so the map is a
/// bijection whose inverse keeps the low 32 bits.
fn relabel(v: VertexId) -> VertexId {
    let h = mix64(v ^ 0x3d);
    if h & 1 == 0 {
        v
    } else {
        v | (h >> 32 | 1) << 32
    }
}

fn dense(id: VertexId) -> usize {
    (id & LOW) as usize
}

/// An RMAT-10 stream on dense ids, each edge with a weight that depends on
/// its unordered pair only (so duplicates and reversals agree on it): 1 to
/// 16, and past `u32::MAX` on about one edge in eight.
fn stream() -> Vec<(VertexId, VertexId, u64)> {
    remo_gen::rmat::generate(&RmatConfig {
        seed: 0x71de,
        ..RmatConfig::graph500(10)
    })
    .into_iter()
    .map(|(s, d)| {
        let h = mix64(s.min(d) << 32 ^ s.max(d));
        let past = if h >> 61 == 0 { 1 << 32 } else { 0 };
        (s, d, 1 + h % 16 + past)
    })
    .collect()
}

fn wide(edges: &[(VertexId, VertexId, u64)]) -> Vec<(VertexId, VertexId, u64)> {
    edges
        .iter()
        .map(|&(s, d, w)| (relabel(s), relabel(d), w))
        .collect()
}

fn pairs(edges: &[(VertexId, VertexId, u64)]) -> Vec<(VertexId, VertexId)> {
    edges.iter().map(|&(s, d, _)| (s, d)).collect()
}

/// The stream relabels about half of its vertices past `u32::MAX` and
/// carries some weights past it too.
#[test]
fn the_stream_is_half_wide() {
    let edges = stream();
    let ids: std::collections::BTreeSet<VertexId> =
        wide(&edges).iter().flat_map(|&(s, d, _)| [s, d]).collect();
    let past = ids.iter().filter(|&&v| v > LOW).count();
    assert!(
        (ids.len() * 2 / 5..=ids.len() * 3 / 5).contains(&past),
        "{past} of {} ids past u32::MAX",
        ids.len()
    );
    let heavy = edges.iter().filter(|e| e.2 > LOW).count();
    assert!(heavy > edges.len() / 16, "{heavy} wide weights");
}

#[test]
fn bfs_on_wide_ids_equals_the_oracle_on_dense_ones() {
    let edges = stream();
    let csr = oracle::build_undirected(&pairs(&edges)).csr;
    let source = edges[0].0;
    let want = oracle::bfs_levels(&csr, source);
    let wide_pairs = pairs(&wide(&edges));
    let vertices: std::collections::HashSet<VertexId> =
        wide_pairs.iter().flat_map(|&(s, d)| [s, d]).collect();
    for shards in [1, 2, 4] {
        let engine = Engine::new(IncBfs, EngineConfig::undirected(shards));
        engine.try_init_vertex(relabel(source)).unwrap();
        engine.try_ingest_pairs(&wide_pairs).unwrap();
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.len(), vertices.len());
        for (v, &level) in states.iter() {
            assert_eq!(level, want[dense(v)], "vertex {v:#x} at P={shards}");
        }
    }
}

#[test]
fn sssp_on_wide_ids_and_weights_equals_dijkstra_on_dense_ones() {
    let edges = stream();
    let source = edges[0].0;
    let want = oracle::sssp_costs(&oracle::build_undirected_weighted(&edges).csr, source);
    assert!(
        want.iter().any(|&c| c > LOW && c != remo_algos::UNREACHED),
        "no path crosses a wide weight"
    );
    let wide_edges = wide(&edges);
    for shards in [1, 2, 4] {
        let engine = Engine::new(IncSssp, EngineConfig::undirected(shards));
        engine.try_init_vertex(relabel(source)).unwrap();
        engine.try_ingest_weighted(&wide_edges).unwrap();
        for (v, &cost) in engine.try_finish().unwrap().states.iter() {
            assert_eq!(cost, want[dense(v)], "vertex {v:#x} at P={shards}");
        }
    }
}

/// Labels differ with the ids, so the components are compared as a
/// partition: two vertices share a live label exactly when they share an
/// oracle component.
#[test]
fn cc_on_wide_ids_partitions_as_the_oracle_on_dense_ones() {
    let edges = stream();
    let want = oracle::components_min_label(&oracle::build_undirected(&pairs(&edges)).csr);
    let engine = Engine::new(IncCc, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&pairs(&wide(&edges))).unwrap();
    let states = engine.try_finish().unwrap().states;
    let (mut to_oracle, mut to_live) = (HashMap::new(), HashMap::new());
    for (v, &label) in states.iter() {
        let component = want[dense(v)];
        assert_eq!(
            *to_oracle.entry(label).or_insert(component),
            component,
            "vertex {v:#x}"
        );
        assert_eq!(
            *to_live.entry(component).or_insert(label),
            label,
            "vertex {v:#x}"
        );
    }
    assert!(
        to_live.len() < states.len(),
        "no component has two vertices"
    );
}

/// A durable run's final checkpoint holds widened vertices — narrow
/// neighbours first, a wide one later — and reopening the directory
/// restores every vertex's state and entries, in the same order.
#[test]
fn durable_restart_restores_widened_vertices_in_order() {
    let edges = wide(&stream());
    let source = edges[0].0;
    let dir = std::env::temp_dir().join(format!("remo-wide-ids-{}", std::process::id()));
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

    let mut widened = 0;
    for (old, new) in before.tables.iter().zip(&after.tables) {
        assert_eq!(old.num_vertices(), new.num_vertices());
        for (v, state, adj) in old.iter() {
            let (restored_state, restored) = new.get(v).expect("a vertex is lost");
            assert_eq!(restored_state, state, "vertex {v:#x}");
            assert!(restored.iter().eq(adj.iter()), "vertex {v:#x}: entries");
            let first_wide = adj.iter().position(|(n, w)| n > LOW || w > LOW);
            widened += usize::from(first_wide.is_some_and(|pos| pos > 0));
        }
    }
    assert!(widened > 100, "only {widened} widened vertices");
}
