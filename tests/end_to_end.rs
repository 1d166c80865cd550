//! Workspace end-to-end tests: the full pipeline (generator → engine →
//! algorithms → snapshot/triggers) checked against the static baseline on
//! realistic workloads, across several shard
//! counts. These are the "does the reproduced system actually behave like
//! the paper says" tests.

use remo::algos::UNREACHED;
use remo::baseline as oracle;
use remo::gen::{stream, Dataset};
use remo::prelude::*;
use remo::store::Csr;

fn dataset_edges(ds: Dataset, scale: f64, seed: u64) -> Vec<(u64, u64)> {
    let mut e = ds.generate(scale, seed);
    stream::shuffle(&mut e, seed ^ 0xfeed);
    e
}

fn undirected_csr(edges: &[(u64, u64)]) -> Csr {
    let n = oracle::implied_vertices(edges);
    Csr::from_edges(n, &oracle::symmetrize(edges))
}

/// Fig. 3's correctness backbone: live BFS maintained during construction
/// equals static BFS on the final graph, on a real-ish workload.
#[test]
fn live_bfs_equals_static_on_social_graph() {
    let edges = dataset_edges(Dataset::TwitterLike, 0.05, 11);
    let source = edges[0].0;

    let engine = Engine::new(IncBfs, EngineConfig::undirected(4));
    engine.try_init_vertex(source).unwrap();
    engine.try_ingest_pairs(&edges).unwrap();
    let dynamic = engine.try_finish().unwrap().states;

    let csr = undirected_csr(&edges);
    let want = oracle::bfs_levels(&csr, source);
    for (v, &level) in dynamic.iter() {
        assert_eq!(level, want[v as usize], "vertex {v}");
    }
}

/// The same check for every stand-in dataset family (topology diversity is
/// the point of Fig. 5).
#[test]
fn live_cc_equals_union_find_on_every_dataset() {
    for ds in [
        Dataset::TwitterLike,
        Dataset::FriendsterLike,
        Dataset::Sk2005Like,
        Dataset::WebgraphLike,
        Dataset::ErdosRenyi,
        Dataset::SmallWorld,
        Dataset::Rmat(9),
    ] {
        let edges = dataset_edges(ds, 0.02, 23);
        let engine = Engine::new(IncCc, EngineConfig::undirected(4));
        engine.try_ingest_pairs(&edges).unwrap();
        let dynamic = engine.try_finish().unwrap().states;

        let csr = undirected_csr(&edges);
        let want = oracle::components_dominator_label(&csr, cc_label);
        for (v, &label) in dynamic.iter() {
            assert_eq!(label, want[v as usize], "{}: vertex {v}", ds.name());
        }
    }
}

/// Fig. 4 semantics: a snapshot taken at a quiescent boundary equals a
/// static run over exactly the ingested prefix — "functionally equivalent
/// to a snapshot (or processing of a batch) that ended at that specific
/// time point" (§VI-A).
#[test]
fn snapshot_equals_static_run_on_prefix() {
    let edges = dataset_edges(Dataset::SmallWorld, 0.03, 5);
    let source = edges[0].0;
    let cut = edges.len() / 2;

    let mut engine = Engine::new(IncBfs, EngineConfig::undirected(4));
    engine.try_init_vertex(source).unwrap();
    engine.try_ingest_pairs(&edges[..cut]).unwrap();
    engine.try_await_quiescence().unwrap();
    let snap = engine.try_snapshot().unwrap();
    engine.try_ingest_pairs(&edges[cut..]).unwrap(); // keep going; snapshot must not care
    let _ = engine.try_finish().unwrap();

    let csr = undirected_csr(&edges[..cut]);
    let want = oracle::bfs_levels(&csr, source);
    for (v, &level) in snap.iter() {
        assert_eq!(level, want[v as usize], "vertex {v} in snapshot");
    }
    // And nothing from the suffix leaked in.
    let prefix_vertices: std::collections::HashSet<u64> =
        edges[..cut].iter().flat_map(|&(a, b)| [a, b]).collect();
    for (v, _) in snap.iter() {
        assert!(
            prefix_vertices.contains(&v),
            "vertex {v} is from the future"
        );
    }
}

/// SSSP against Dijkstra on a weighted workload, multiple shard counts.
#[test]
fn live_sssp_equals_dijkstra_across_shard_counts() {
    let pairs = dataset_edges(Dataset::SmallWorld, 0.02, 3);
    // Dedupe pairs so the final weight per edge is unambiguous.
    let mut seen = std::collections::HashSet::new();
    let pairs: Vec<(u64, u64)> = pairs
        .into_iter()
        .filter(|&(a, b)| seen.insert((a, b)))
        .collect();
    let weighted = stream::with_weights(&pairs, 12, 8);
    let source = weighted[0].0;

    let n = oracle::implied_vertices(&pairs);
    let csr = Csr::from_weighted_edges(n, &oracle::construct::symmetrize_weighted(&weighted));
    let want = oracle::sssp_costs(&csr, source);

    for shards in [1usize, 4, 8] {
        let engine = Engine::new(IncSssp, EngineConfig::undirected(shards));
        engine.try_init_vertex(source).unwrap();
        engine.try_ingest_weighted(&weighted).unwrap();
        let dynamic = engine.try_finish().unwrap().states;
        for (v, &cost) in dynamic.iter() {
            assert_eq!(cost, want[v as usize], "vertex {v} at P={shards}");
        }
    }
}

/// Multi S-T with 64 sources (the Fig. 7 maximum) against per-source BFS.
#[test]
fn multi_st_64_sources_matches_oracle() {
    let edges = dataset_edges(Dataset::WebgraphLike, 0.01, 17);
    let n = oracle::implied_vertices(&edges) as u64;
    let sources: Vec<u64> = (0..64).map(|i| (i * 37) % n).collect();

    let engine = Engine::new(IncStCon::new(sources.clone()), EngineConfig::undirected(4));
    for &s in &sources {
        engine.try_init_vertex(s).unwrap();
    }
    engine.try_ingest_pairs(&edges).unwrap();
    let dynamic = engine.try_finish().unwrap().states;

    let csr = undirected_csr(&edges);
    let want = oracle::st_masks(&csr, &sources);
    for (v, &mask) in dynamic.iter() {
        assert_eq!(mask, want[v as usize], "vertex {v}");
    }
}

/// The §III-E guarantee, end to end: an S-T trigger fires exactly once per
/// satisfying vertex, never for non-satisfying vertices, and the set of
/// fired vertices equals the final connectivity set (no false positives,
/// no misses).
#[test]
fn st_trigger_fires_exactly_for_connected_vertices() {
    let edges = dataset_edges(Dataset::TwitterLike, 0.01, 29);
    let source = edges[0].0;

    let mut builder = EngineBuilder::new(IncStCon::new(vec![source]), EngineConfig::undirected(4));
    builder.trigger("connected to S", |_, mask: &u64| *mask != 0);
    let engine = builder.build();
    engine.try_init_vertex(source).unwrap();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();

    let fired: Vec<u64> = engine
        .trigger_events()
        .try_iter()
        .map(|f| f.vertex)
        .collect();
    let result = engine.try_finish().unwrap();

    let mut fired_sorted = fired.clone();
    fired_sorted.sort_unstable();
    let mut connected: Vec<u64> = result
        .states
        .iter()
        .filter(|(_, &m)| m != 0)
        .map(|(v, _)| v)
        .collect();
    connected.sort_unstable();
    assert_eq!(fired_sorted, connected);
    // Exactly once: no duplicates.
    let unique: std::collections::HashSet<u64> = fired.iter().copied().collect();
    assert_eq!(unique.len(), fired.len());
}

/// §VI-B end to end: generational BFS after deletions equals a static BFS
/// over the remaining graph.
#[test]
fn generational_delete_matches_recompute() {
    let edges = dataset_edges(Dataset::SmallWorld, 0.01, 41);
    let source = edges[0].0;
    // Delete every 7th edge after full ingestion.
    let deletions: Vec<(u64, u64)> = edges.iter().step_by(7).copied().collect();

    let (algo, generation) = GenBfs::new();
    let engine = Engine::new(algo, EngineConfig::undirected(4));
    engine.try_init_vertex(source).unwrap();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();
    engine.try_delete_pairs(&deletions).unwrap();
    engine.try_await_quiescence().unwrap();
    let g = generation.bump();
    engine.try_init_vertex(source).unwrap();
    let states = engine.try_finish().unwrap().states;

    // Static oracle over the remaining edges. Note deletions remove the
    // edge regardless of how many duplicate adds occurred (store dedupes).
    let deleted: std::collections::HashSet<(u64, u64)> = deletions
        .iter()
        .flat_map(|&(a, b)| [(a, b), (b, a)])
        .collect();
    let remaining: Vec<(u64, u64)> = edges
        .iter()
        .filter(|&&(a, b)| !deleted.contains(&(a, b)))
        .copied()
        .collect();
    let csr = undirected_csr(&remaining);
    let want = oracle::bfs_levels(&csr, source);

    for (v, &state) in states.iter() {
        let got = remo::algos::generational::level_in_generation(state, g);
        let expect = want.get(v as usize).copied().unwrap_or(UNREACHED);
        assert_eq!(got, expect, "vertex {v} after deletions");
    }
}

/// Metrics sanity on a full run: every ingested topology event became an
/// add (+ reverse-add when undirected), and envelope accounting balances.
#[test]
fn metrics_account_for_every_event() {
    let edges = dataset_edges(Dataset::ErdosRenyi, 0.01, 55);
    let engine = Engine::new(DegreeCount, EngineConfig::undirected(4));
    engine.try_ingest_pairs(&edges).unwrap();
    let r = engine.try_finish().unwrap();
    let t = r.metrics.total();
    assert_eq!(t.topo_ingested as usize, edges.len());
    assert_eq!(t.add_events as usize, edges.len());
    assert_eq!(t.reverse_add_events as usize, edges.len());
    assert_eq!(
        t.envelopes_sent,
        t.events_processed(),
        "all sent envelopes must be processed at quiescence"
    );
}

/// The multi-query vision (§I): BFS and CC maintained simultaneously on one
/// dynamic graph (two registry columns over one adjacency) must each equal
/// the static oracles.
#[test]
fn registry_bfs_and_cc_match_oracles() {
    let edges = dataset_edges(Dataset::TwitterLike, 0.02, 77);
    let source = edges[0].0;

    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), EngineConfig::undirected(4));
    let bfs = reg.attach(&engine, IncBfs, &[source], "bfs").unwrap();
    let cc = reg.attach(&engine, IncCc, &[], "cc").unwrap();
    engine.try_ingest_pairs(&edges).unwrap();
    let both = engine.try_finish().unwrap().states;

    let csr = undirected_csr(&edges);
    let bfs_want = oracle::bfs_levels(&csr, source);
    let cc_want = oracle::components_dominator_label(&csr, cc_label);
    for (v, level) in reg.project(&both, bfs).iter() {
        assert_eq!(*level, bfs_want[v as usize], "BFS column, vertex {v}");
    }
    for (v, label) in reg.project(&both, cc).iter() {
        assert_eq!(*label, cc_want[v as usize], "CC column, vertex {v}");
    }
}
