//! Hostile inputs (ROADMAP item 5's list), through the real algorithms
//! and against `remo-baseline`, at every shard count and arrival order.
//! Nothing may overflow: this file runs in the debug build, where an
//! overflowing `+` panics.
//!
//! - SSSP weights: a weight-0 edge, a `u64::MAX` edge, and paths whose
//!   cost saturates past `u64::MAX`. Costs follow Algorithm 5: the source
//!   holds 1, and `u64::MAX` is both "unreached" and where a saturated path
//!   lands, so a vertex only reachable over a saturating path reads as
//!   unreached on both sides.
//! - Graph shapes the store must absorb: self-loops, parallel edges in both
//!   orientations with different weights, and the ids 0 and `u64::MAX` —
//!   run into `IncBfs` and `IncCc` (whose entries keep no weight) and
//!   `IncSssp` (whose entries keep the minimum weight).

use remo_algos::{stream_label, IncBfs, IncCc, IncSssp, UNREACHED};
use remo_baseline as oracle;
use remo_core::{Algorithm, Engine, EngineConfig, VertexId};
use remo_store::Csr;

const MAX: u64 = u64::MAX;
const HALF: u64 = u64::MAX / 2;

/// Undirected `(u, v, w)`; every unordered pair appears once, so the stored
/// weight does not depend on arrival order.
const EDGES: &[(u64, u64, u64)] = &[
    // Weight 0: 1 costs what the source does, and a zero-weight cycle.
    (0, 1, 0),
    (1, 2, 5),
    (3, 12, 0),
    (12, 13, 0),
    (13, 3, 0),
    // A `u64::MAX` edge that loses to a finite detour (0-1-2-3 costs 13)…
    (0, 3, MAX),
    (2, 3, 7),
    // …and one that is the only way in until the last edge: 1 + MAX
    // saturates to unreached.
    (0, 4, MAX),
    (4, 11, 1),
    // Saturating chain: 5 costs 6 + HALF; 6 + 2·HALF = MAX + 5 saturates.
    (2, 5, HALF),
    (5, 6, HALF),
    (6, 7, HALF),
    (6, 8, 0),
    // One below the ceiling without saturating: 1 + (MAX - 2) = MAX - 1,
    // carried on by a 0 edge, and one step further lands exactly on MAX.
    (1, 9, MAX - 2),
    (9, 10, 0),
    (10, 14, 1),
    // The unreached side of the MAX edge, later reached cheaply: 11
    // drops to 13 + 4 and takes 4 with it.
    (13, 11, 4),
];

const VERTICES: usize = 15;

fn oracle_costs() -> Vec<u64> {
    let sym = oracle::construct::symmetrize_weighted(EDGES);
    oracle::sssp_costs(&Csr::from_weighted_edges(VERTICES, &sym), 0)
}

/// Runs `batches` in order, awaiting quiescence between them, and returns
/// every vertex's fixpoint cost.
fn incremental(batches: &[Vec<(u64, u64, u64)>], shards: usize) -> Vec<u64> {
    let engine = Engine::new(IncSssp, EngineConfig::undirected(shards));
    engine.try_init_vertex(0).unwrap();
    for batch in batches {
        engine.try_ingest_weighted(batch).unwrap();
        engine.try_await_quiescence().unwrap();
    }
    let states = engine.try_finish().unwrap().states;
    let mut costs = vec![None; VERTICES];
    for (v, &cost) in states.iter() {
        costs[v as usize] = Some(cost);
    }
    costs
        .into_iter()
        .enumerate()
        .map(|(v, c)| c.unwrap_or_else(|| panic!("vertex {v} missing from the fixpoint")))
        .collect()
}

#[test]
fn oracle_saturates_where_the_test_expects() {
    let want = oracle_costs();
    assert_eq!(want[1], 1, "weight-0 edge");
    assert_eq!(want[3], 13, "MAX edge loses to the detour");
    assert_eq!(
        (want[11], want[4]),
        (17, 18),
        "MAX edge, then a cheap way in"
    );
    assert_eq!(want[5], 6 + HALF);
    assert_eq!(&want[6..9], &[UNREACHED; 3], "saturated chain");
    assert_eq!((want[9], want[10]), (MAX - 1, MAX - 1));
    assert_eq!(want[14], MAX);
}

#[test]
fn hostile_weights_match_dijkstra_at_every_shard_count() {
    let want = oracle_costs();
    let forward = EDGES.to_vec();
    let mut reversed = forward.clone();
    reversed.reverse();
    // The cheap way into 11 arrives after 4 and 11 have settled as
    // unreached behind the MAX edge.
    let (early, late) = forward.split_at(forward.len() - 1);
    let orders = [
        vec![forward.clone()],
        vec![reversed],
        vec![early.to_vec(), late.to_vec()],
        forward.iter().map(|&e| vec![e]).collect(),
    ];
    for shards in [1, 2, 4] {
        for (i, batches) in orders.iter().enumerate() {
            assert_eq!(
                incremental(batches, shards),
                want,
                "shards {shards}, order {i}"
            );
        }
    }
}

/// Self-loops, parallel edges in both orientations with different weights,
/// and the extreme ids, in one weighted stream.
const SHAPES: &[(u64, u64, u64)] = &[
    // A self-loop on the source.
    (0, 0, 3),
    // The largest id over three parallel edges: the reversed, cheapest
    // one must stand whichever arrives last.
    (0, MAX, 9),
    (MAX, 0, 2),
    (0, MAX, 5),
    (MAX, MAX, 1),
    (MAX, 7, 4),
    (7, MAX, 1),
    (7, 8, 6),
    // A zero-weight self-loop, and a parallel pair of equal weight.
    (8, 8, 0),
    (8, 0, 20),
    (0, 8, 20),
    // A vertex whose only edge is a self-loop.
    (MAX - 1, MAX - 1, 1),
    // A component away from the source, reversed and cheaper.
    (1, MAX - 2, 2),
    (MAX - 2, 1, 7),
];

/// The sorted ids of `edges` and the undirected CSR over their positions in
/// that list (the baseline indexes vertices densely; `u64::MAX` cannot be
/// an index).
fn dense_graph(edges: &[(u64, u64, u64)]) -> (Vec<VertexId>, Csr) {
    let mut ids: Vec<VertexId> = edges.iter().flat_map(|&(s, d, _)| [s, d]).collect();
    ids.sort_unstable();
    ids.dedup();
    let at = |v: VertexId| ids.binary_search(&v).unwrap() as VertexId;
    let dense: Vec<(u64, u64, u64)> = edges.iter().map(|&(s, d, w)| (at(s), at(d), w)).collect();
    let sym = oracle::construct::symmetrize_weighted(&dense);
    let csr = Csr::from_weighted_edges(ids.len(), &sym);
    (ids, csr)
}

/// `algo`'s fixpoint after `batches` (quiescence between them), from
/// `source` if it has one, as `(id, state)` sorted by id.
fn fixpoint<A: Algorithm<State = u64>>(
    algo: A,
    source: Option<VertexId>,
    batches: &[Vec<(u64, u64, u64)>],
    shards: usize,
) -> Vec<(VertexId, u64)> {
    let engine = Engine::new(algo, EngineConfig::undirected(shards));
    if let Some(s) = source {
        engine.try_init_vertex(s).unwrap();
    }
    for batch in batches {
        engine.try_ingest_weighted(batch).unwrap();
        engine.try_await_quiescence().unwrap();
    }
    engine.try_finish().unwrap().states.into_vec()
}

#[test]
fn hostile_shapes_match_the_baseline_at_every_shard_count() {
    let (ids, g) = dense_graph(SHAPES);
    let source = ids.binary_search(&0).unwrap() as VertexId;
    let by_id = |values: Vec<u64>| ids.iter().copied().zip(values).collect::<Vec<_>>();
    let bfs = by_id(oracle::bfs_levels(&g, source));
    let sssp = by_id(oracle::sssp_costs(&g, source));
    // CC labels by earliest edge, so its answer depends on the order.
    let cc = |batches: &[Vec<(u64, u64, u64)>]| -> Vec<(VertexId, u64)> {
        let stream: Vec<(VertexId, VertexId)> =
            batches.iter().flatten().map(|&(s, d, _)| (s, d)).collect();
        oracle::components_earliest_edge(&stream)
            .into_iter()
            .map(|(v, i)| (v, stream_label(i)))
            .collect()
    };
    let cost = |v: VertexId| sssp.iter().find(|&&(id, _)| id == v).map(|&(_, c)| c);
    assert_eq!(cost(MAX), Some(3), "the cheapest parallel edge");
    assert_eq!(cost(8), Some(10), "over MAX and 7, not the weight-20 pair");
    assert_eq!(cost(MAX - 1), Some(UNREACHED), "a self-loop leads nowhere");

    let forward = SHAPES.to_vec();
    let mut reversed = forward.clone();
    reversed.reverse();
    let orders = [
        vec![forward.clone()],
        vec![reversed],
        forward.iter().map(|&e| vec![e]).collect(),
    ];
    for shards in [1, 2, 4] {
        for (i, batches) in orders.iter().enumerate() {
            let at = format!("shards {shards}, order {i}");
            assert_eq!(
                fixpoint(IncBfs, Some(0), batches, shards),
                bfs,
                "IncBfs, {at}"
            );
            assert_eq!(
                fixpoint(IncCc, None, batches, shards),
                cc(batches),
                "IncCc, {at}"
            );
            assert_eq!(
                fixpoint(IncSssp, Some(0), batches, shards),
                sssp,
                "IncSssp, {at}"
            );
        }
    }
}
