//! Property tests for the dense store against the static baseline: for
//! every algorithm, seeded RMAT stream, and shard count, a run that takes a
//! snapshot mid-stream must agree with `remo-baseline` solved from
//! scratch — the mid-run snapshot with the static solve of the ingested
//! prefix; the fixpoint, the vertex count and the edge count with the
//! static solve of the whole stream; and the trigger fire set with the
//! vertices whose final state left bottom. Incremental ≡ from-scratch
//! `f(x ⊕ δ)` is the one invariant; `control_plane.rs` checks it at many
//! cuts of one run.
//!
//! The same drive also pins the physical choice that must not change what
//! the engine computes: the multi-word lane bitmaps past 64 shards.

use proptest::prelude::*;
use remo_baseline as oracle;
use remo_core::{Algorithm, Engine, EngineBuilder, EngineConfig, VertexId, Weight};
use remo_gen::RmatConfig;
use remo_store::hash::mix64;
use remo_store::Csr;

/// Small seeded RMAT stream, shuffled: dense enough to exercise growth,
/// promotion, and cross-shard traffic while keeping each case cheap.
fn rmat_edges(seed: u64) -> Vec<(VertexId, VertexId)> {
    let cfg = RmatConfig {
        seed,
        ..RmatConfig::graph500(6)
    };
    let mut edges = remo_gen::rmat::generate(&cfg);
    remo_gen::stream::shuffle(&mut edges, seed ^ 0x1a77);
    edges
}

/// Symmetric per-edge weight (see prop_lattice: reversed occurrences of an
/// undirected edge must agree for the weighted fixpoint to be unique).
fn weighted(edges: &[(VertexId, VertexId)]) -> Vec<(VertexId, VertexId, Weight)> {
    edges
        .iter()
        .map(|&(s, d)| (s, d, (mix64(s ^ d) % 13) + 1))
        .collect()
}

/// What one run observed, in comparable form.
struct Observed {
    snapshot: Vec<(VertexId, u64)>,
    fixpoint: Vec<(VertexId, u64)>,
    fires: Vec<(usize, VertexId)>,
    num_vertices: usize,
    num_edges: u64,
}

/// Runs `make()` over the stream: ingest the first half, quiesce, take a
/// snapshot, ingest the rest, and harvest fixpoint + trigger fires. The
/// snapshot's cut is the prefix the baseline solves.
fn observe<A, F>(
    make: F,
    edges: &[(VertexId, VertexId)],
    weights: Option<&[(VertexId, VertexId, Weight)]>,
    init: Option<VertexId>,
    shards: usize,
) -> Observed
where
    A: Algorithm<State = u64>,
    F: Fn() -> A,
{
    let config = EngineConfig::undirected(shards);
    let mut builder = EngineBuilder::new(make(), config);
    // Fire-once trigger over a state the algorithms all eventually leave
    // bottom on.
    builder.trigger(|_v, s: &u64| *s != 0);
    let mut engine = builder.build();
    if let Some(v) = init {
        engine.try_init_vertex(v).unwrap();
    }
    let half = edges.len() / 2;
    match weights {
        Some(w) => engine.try_ingest_weighted(&w[..half]).unwrap(),
        None => engine.try_ingest_pairs(&edges[..half]).unwrap(),
    }
    engine.try_await_quiescence().unwrap();
    let snapshot = engine.try_snapshot().unwrap().into_vec();
    match weights {
        Some(w) => engine.try_ingest_weighted(&w[half..]).unwrap(),
        None => engine.try_ingest_pairs(&edges[half..]).unwrap(),
    }
    engine.try_await_quiescence().unwrap();
    assert!(engine.counters_balanced());
    let mut fires: Vec<(usize, VertexId)> = engine
        .trigger_events()
        .try_iter()
        .map(|f| (f.trigger, f.vertex))
        .collect();
    fires.sort_unstable();
    fires.dedup();
    let result = engine.try_finish().unwrap();
    assert!(result.failures.is_empty());
    // Harvested envelope books must close:
    // sent = processed + dominated + undeliverable + dropped.
    result.metrics.verify_balance().unwrap();
    assert!(result.store_bytes > 0, "store must report a footprint");
    Observed {
        snapshot,
        fixpoint: result.states.into_vec(),
        fires,
        num_vertices: result.num_vertices,
        num_edges: result.num_edges,
    }
}

/// `IncCc`'s labels for `stream`, by vertex id: the earliest-edge oracle
/// over the graph `g` that `stream` built.
fn earliest_edge_labels(g: &Csr, stream: &[(VertexId, VertexId)]) -> Vec<u64> {
    let mut labels = vec![0; g.num_vertices()];
    for (v, i) in oracle::components_earliest_edge(stream) {
        labels[v as usize] = remo_algos::stream_label(i);
    }
    labels
}

/// The baseline's from-scratch answer for the first `n` stream entries, as
/// the `(vertex, state)` list a harvest of the same graph returns: every
/// vertex an edge names, in ascending order.
fn static_states(
    solve: impl Fn(&Csr, &[(VertexId, VertexId)]) -> Vec<u64>,
    edges: &[(VertexId, VertexId)],
    weights: Option<&[(VertexId, VertexId, Weight)]>,
    n: usize,
) -> (Csr, Vec<(VertexId, u64)>) {
    let csr = match weights {
        Some(w) => oracle::build_undirected_weighted(&w[..n]).csr,
        None => oracle::build_undirected(&edges[..n]).csr,
    };
    let solved = solve(&csr, &edges[..n]);
    let states = (0..csr.num_vertices() as VertexId)
        .filter(|&v| csr.degree(v) > 0)
        .map(|v| (v, solved[v as usize]))
        .collect();
    (csr, states)
}

/// Asserts one snapshot-cut run equals the baseline solved from scratch.
fn assert_matches_static<A, F>(
    make: F,
    solve: impl Fn(&Csr, &[(VertexId, VertexId)]) -> Vec<u64>,
    edges: &[(VertexId, VertexId)],
    weights: Option<&[(VertexId, VertexId, Weight)]>,
    init: Option<VertexId>,
    shards: usize,
) -> Result<(), TestCaseError>
where
    A: Algorithm<State = u64>,
    F: Fn() -> A,
{
    let got = observe::<A, F>(make, edges, weights, init, shards);
    let (_, prefix) = static_states(&solve, edges, weights, edges.len() / 2);
    let (csr, whole) = static_states(&solve, edges, weights, edges.len());
    prop_assert_eq!(
        &got.snapshot,
        &prefix,
        "snapshot is not the static solve of the prefix (P={})",
        shards
    );
    prop_assert_eq!(
        &got.fixpoint,
        &whole,
        "fixpoint is not the static solve of the stream (P={})",
        shards
    );
    let mut distinct: Vec<(VertexId, VertexId)> = csr.edges().map(|(s, d, _)| (s, d)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    prop_assert_eq!(got.num_vertices, whole.len());
    prop_assert_eq!(got.num_edges, distinct.len() as u64);
    let nonbottom: Vec<(usize, VertexId)> = got
        .fixpoint
        .iter()
        .filter(|&&(_, s)| s != 0)
        .map(|&(v, _)| (0, v))
        .collect();
    prop_assert_eq!(
        &got.fires,
        &nonbottom,
        "trigger fire set is not the non-bottom vertices (P={})",
        shards
    );
    Ok(())
}

// Grid: algorithm (BFS, SSSP and CC are the three the ledger's workloads
// run, and differ in source, weights and lattice direction) × 1–4 shards
// (1 = no cross-shard traffic, 4 = every vertex's neighbours mostly
// remote). All three implement `absorbs`, so the dominance filter runs
// on every case.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn bfs_matches_static_across_snapshot(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let source = edges[0].0;
        assert_matches_static::<remo_algos::IncBfs, _>(
            || remo_algos::IncBfs, |g, _| oracle::bfs_levels(g, source),
            &edges, None, Some(source), shards)?;
    }

    #[test]
    fn sssp_matches_static_across_snapshot(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let w = weighted(&edges);
        let source = edges[0].0;
        assert_matches_static::<remo_algos::IncSssp, _>(
            || remo_algos::IncSssp, |g, _| oracle::sssp_costs(g, source),
            &edges, Some(&w), Some(source), shards)?;
    }

    #[test]
    fn cc_matches_static_across_snapshot(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        assert_matches_static::<remo_algos::IncCc, _>(
            || remo_algos::IncCc,
            earliest_edge_labels,
            &edges, None, None, shards)?;
    }
}

/// At 96 shards each receiver's pending-senders bitmap spans two words, and the run must still equal the static BFS solve. (Plain test,
/// one deterministic stream — 96 threads per case is too heavy for a
/// proptest axis.)
#[test]
fn lanes_beyond_64_shards_match_static() {
    let edges = rmat_edges(0x96_5eed);
    let source = edges[0].0;
    assert_matches_static::<remo_algos::IncBfs, _>(
        || remo_algos::IncBfs,
        |g, _| oracle::bfs_levels(g, source),
        &edges,
        None,
        Some(source),
        96,
    )
    .unwrap();
}

/// A config the engine cannot honour is an error at build, never a silent
/// downgrade: a shard count past the engine's 4096-shard cap.
#[test]
fn misconfiguration_fails_engine_build() {
    let config = EngineConfig::undirected(4097);
    let ctx = format!("{config:?}");
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Engine::new(remo_algos::IncCc, config)
    }));
    assert!(built.is_err(), "engine build accepted {ctx}");
}
