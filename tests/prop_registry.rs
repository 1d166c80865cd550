//! Multi-query registry differential tests: every query attached to a
//! [`QueryRegistry`] must reach the **same fixpoint a solo run** of that
//! algorithm over the same stream reaches — across shard counts;
//! whether the query was attached before the
//! first edge or live in the middle of the stream; and across
//! detach/reattach cycles that reuse a slot (DESIGN.md §17). The one
//! exception is CC: a solo run labels a component by its earliest stream
//! edge, and a registry column, which a Prime rebuilds from stored
//! adjacency with no stream order, by Algorithm 6's hash order. Its column
//! is checked against the hash-dominator oracle.

use remo::core::{EngineError, MAX_QUERIES};
use remo::gen::{stream, Dataset};
use remo::prelude::*;

#[path = "../crates/core/tests/scrape/mod.rs"]
mod scrape;

fn dataset_edges(ds: Dataset, scale: f64, seed: u64) -> Vec<(u64, u64)> {
    let mut e = ds.generate(scale, seed);
    stream::shuffle(&mut e, seed ^ 0xfeed);
    e
}

/// Deduplicated undirected edge list (degree-count identity requires a
/// duplicate-free stream: a solo `DegreeCount` counts duplicate add
/// *events*, while an attach backfill replays stored *edges* once).
fn dedup(edges: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut seen = std::collections::HashSet::new();
    edges
        .iter()
        .copied()
        .filter(|&(a, b)| a != b && seen.insert(if a < b { (a, b) } else { (b, a) }))
        .collect()
}

/// Solo fixpoint of `algo` over `edges` with optional init sources.
fn solo_run<A: Algorithm<State = u64>>(
    algo: A,
    config: EngineConfig,
    sources: &[u64],
    edges: &[(u64, u64)],
) -> Vec<(u64, u64)> {
    let engine = Engine::new(algo, config);
    for &s in sources {
        engine.try_init_vertex(s).unwrap();
    }
    engine.try_ingest_pairs(edges).unwrap();
    engine.try_finish().unwrap().states.into_vec()
}

/// The registry's CC column over `edges`: every vertex an edge names with
/// the largest [`cc_label`] in its component.
fn hash_cc(edges: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let csr = remo::baseline::build_undirected(edges).csr;
    let labels = remo::baseline::components_dominator_label(&csr, cc_label);
    (0..csr.num_vertices() as u64)
        .filter(|&v| csr.degree(v) > 0)
        .map(|v| (v, labels[v as usize]))
        .collect()
}

/// Projects one query out of a finished registry run.
fn projected(
    reg: &QueryRegistry<u64>,
    states: &Snapshot<RegPayload<u64>>,
    id: QueryId,
) -> Vec<(u64, u64)> {
    reg.project(states, id).into_vec()
}

/// Tentpole identity: BFS + CC + degree attached from the start, projected
/// columns byte-identical to solo runs (CC's to its hash oracle) — at
/// every shard count.
///
/// Grid: shards 1/2/4 (1 = every delta self-routed, 4 = mostly remote).
#[test]
fn registry_matches_solo_across_grid() {
    let edges = dedup(&dataset_edges(Dataset::SmallWorld, 0.02, 41));
    let source = edges[0].0;
    for shards in [1usize, 2, 4] {
        let config = || EngineConfig::undirected(shards);
        let want_bfs = solo_run(IncBfs, config(), &[source], &edges);
        let want_cc = hash_cc(&edges);
        let want_deg = solo_run(DegreeCount, config(), &[], &edges);

        let reg = QueryRegistry::<u64>::new();
        let engine = Engine::new(reg.clone(), config());
        let bfs = reg.attach(&engine, IncBfs, &[source], "bfs").unwrap();
        let cc = reg.attach(&engine, IncCc, &[], "cc").unwrap();
        let deg = reg.attach(&engine, DegreeCount, &[], "degree").unwrap();
        assert_eq!(reg.attached(), 3);
        engine.try_ingest_pairs(&edges).unwrap();
        let states = engine.try_finish().unwrap().states;

        let tag = format!("P={shards}");
        assert_eq!(projected(&reg, &states, bfs), want_bfs, "bfs {tag}");
        assert_eq!(projected(&reg, &states, cc), want_cc, "cc {tag}");
        assert_eq!(projected(&reg, &states, deg), want_deg, "degree {tag}");
    }
}

/// Live attach mid-stream: the backfill (prime + flood from stored
/// adjacency, no stream re-ingest) must land the late query on exactly
/// the fixpoint of a query that watched the whole stream.
#[test]
fn attach_mid_stream_matches_solo() {
    let edges = dedup(&dataset_edges(Dataset::TwitterLike, 0.03, 7));
    let source = edges[0].0;
    let cut = edges.len() / 2;
    for shards in [1usize, 3] {
        let config = EngineConfig::undirected(shards);
        let want_bfs = solo_run(IncBfs, config.clone(), &[source], &edges);
        let want_cc = hash_cc(&edges);
        let want_deg = solo_run(DegreeCount, config.clone(), &[], &edges);

        let reg = QueryRegistry::<u64>::new();
        let engine = Engine::new(reg.clone(), config);
        // CC watches the whole stream; BFS and degree arrive mid-stream.
        let cc = reg.attach(&engine, IncCc, &[], "cc").unwrap();
        engine.try_ingest_pairs(&edges[..cut]).unwrap();
        engine.try_await_quiescence().unwrap();
        let bfs = reg.attach(&engine, IncBfs, &[source], "bfs-late").unwrap();
        let deg = reg.attach(&engine, DegreeCount, &[], "deg-late").unwrap();
        engine.try_ingest_pairs(&edges[cut..]).unwrap();
        let states = engine.try_finish().unwrap().states;

        assert_eq!(
            projected(&reg, &states, bfs),
            want_bfs,
            "late bfs P={shards}"
        );
        assert_eq!(projected(&reg, &states, cc), want_cc, "cc P={shards}");
        assert_eq!(
            projected(&reg, &states, deg),
            want_deg,
            "late deg P={shards}"
        );
    }
}

/// Attach during *in-flight* ingestion (no quiescent point): the two-phase
/// prime/flood handshake must absorb events racing the backfill.
#[test]
fn attach_against_in_flight_ingest_matches_solo() {
    let edges = dedup(&dataset_edges(Dataset::ErdosRenyi, 0.03, 13));
    let source = edges[0].0;
    let cut = edges.len() / 3;
    let config = EngineConfig::undirected(4);
    let want = solo_run(IncBfs, config.clone(), &[source], &edges);

    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), config);
    engine.try_ingest_pairs(&edges[..cut]).unwrap();
    // No quiescence wait: the attach handshake races live topology events.
    let bfs = reg
        .attach(&engine, IncBfs, &[source], "bfs-racing")
        .unwrap();
    engine.try_ingest_pairs(&edges[cut..]).unwrap();
    let states = engine.try_finish().unwrap().states;
    assert_eq!(projected(&reg, &states, bfs), want);
}

/// Detach reclaims the slot; a successor query attached into the reused
/// slot starts from bottom and converges to its own solo fixpoint, and the
/// detached handle goes stale.
#[test]
fn detach_then_reattach_reuses_slot_cleanly() {
    let edges = dedup(&dataset_edges(Dataset::SmallWorld, 0.02, 29));
    let source = edges[0].0;
    let config = EngineConfig::undirected(2);
    let want_cc = hash_cc(&edges);

    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), config);
    let deg = reg.attach(&engine, DegreeCount, &[], "deg").unwrap();
    let bfs = reg.attach(&engine, IncBfs, &[source], "bfs").unwrap();
    assert_eq!(deg.slot(), 0);
    assert_eq!(bfs.slot(), 1);
    engine.try_ingest_pairs(&edges[..edges.len() / 2]).unwrap();
    engine.try_await_quiescence().unwrap();

    reg.detach(&engine, deg).unwrap();
    assert_eq!(reg.attached(), 1);
    assert!(reg.query_counters(deg).is_none(), "stale handle");
    assert!(
        reg.detach(&engine, deg).is_err(),
        "double detach must fail loudly"
    );

    // The successor reuses slot 0 under a fresh generation.
    let cc = reg.attach(&engine, IncCc, &[], "cc").unwrap();
    assert_eq!(cc.slot(), 0);
    engine.try_ingest_pairs(&edges[edges.len() / 2..]).unwrap();
    let states = engine.try_finish().unwrap().states;
    assert_eq!(projected(&reg, &states, cc), want_cc);
}

/// The slot limit, from outside: with all `MAX_QUERIES` slots taken the
/// next attach is refused, and a detach frees exactly that slot for the
/// next attach, which then converges like a solo run.
#[test]
fn attach_past_the_slot_limit_fails_until_a_detach() {
    let edges = dedup(&dataset_edges(Dataset::SmallWorld, 0.01, 61));
    let config = EngineConfig::undirected(2);
    let want_cc = hash_cc(&edges);

    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), config);
    let ids: Vec<QueryId> = (0..MAX_QUERIES)
        .map(|i| {
            reg.attach(&engine, DegreeCount, &[], &format!("deg{i}"))
                .unwrap()
        })
        .collect();
    assert_eq!(reg.attached(), MAX_QUERIES);
    let full = reg.attach(&engine, IncCc, &[], "one too many");
    assert!(
        matches!(full, Err(EngineError::Registry { .. })),
        "{full:?}"
    );

    let freed = ids[MAX_QUERIES / 2];
    reg.detach(&engine, freed).unwrap();
    let cc = reg.attach(&engine, IncCc, &[], "cc").unwrap();
    assert_eq!(cc.slot(), freed.slot());
    engine.try_ingest_pairs(&edges).unwrap();
    let states = engine.try_finish().unwrap().states;
    assert_eq!(projected(&reg, &states, cc), want_cc);
}

/// A registry's columns are laid out per shard at its first attach: an
/// engine with another shard count is refused.
#[test]
fn attach_to_an_engine_of_another_shard_count_fails() {
    let reg = QueryRegistry::<u64>::new();
    let two = Engine::new(reg.clone(), EngineConfig::undirected(2));
    reg.attach(&two, IncCc, &[], "cc").unwrap();
    two.try_finish().unwrap();

    let three = Engine::new(reg.clone(), EngineConfig::undirected(3));
    let wrong = reg.attach(&three, IncCc, &[], "cc");
    assert!(
        matches!(wrong, Err(EngineError::Registry { .. })),
        "{wrong:?}"
    );
}

/// Triggers observe registry state changes exactly like solo state
/// changes: a "When" query over one column fires once per matching vertex.
#[test]
fn triggers_fire_through_registry_columns() {
    let edges: Vec<(u64, u64)> = (0..32).map(|i| (i, i + 1)).collect();
    let config = EngineConfig::undirected(2);

    // Solo reference: count vertices that ever reach BFS level <= 3.
    let mut solo = EngineBuilder::new(IncBfs, config.clone());
    solo.trigger(|_, lvl: &u64| *lvl != 0 && *lvl <= 3);
    let solo_engine = solo.build();
    solo_engine.try_init_vertex(0).unwrap();
    solo_engine.try_ingest_pairs(&edges).unwrap();
    // Every fire is queued before its envelope counts as processed, so
    // the stream is complete once the engine is quiescent.
    solo_engine.try_await_quiescence().unwrap();
    let want = solo_engine.trigger_events().try_iter().count();
    solo_engine.try_finish().unwrap();

    let reg = QueryRegistry::<u64>::new();
    let mut builder = EngineBuilder::new(reg.clone(), config);
    builder.trigger(|_, s: &RegPayload<u64>| s.cell(0).is_some_and(|lvl| *lvl != 0 && *lvl <= 3));
    let engine = builder.build();
    let _bfs = reg.attach(&engine, IncBfs, &[0], "bfs").unwrap();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();
    assert_eq!(engine.trigger_events().try_iter().count(), want);
    engine.try_finish().unwrap();
}

/// Weighted queries ride the same envelopes: SSSP through the registry
/// equals solo SSSP on a weighted stream.
#[test]
fn weighted_sssp_matches_solo_through_registry() {
    let base = dedup(&dataset_edges(Dataset::SmallWorld, 0.02, 3));
    let weighted: Vec<(u64, u64, u64)> = base
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| (a, b, 1 + (i as u64 % 7)))
        .collect();
    let source = weighted[0].0;
    let config = EngineConfig::undirected(3);

    let solo_engine = Engine::new(IncSssp, config.clone());
    solo_engine.try_init_vertex(source).unwrap();
    solo_engine.try_ingest_weighted(&weighted).unwrap();
    let want = solo_engine.try_finish().unwrap().states.into_vec();

    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), config);
    let sssp = reg.attach(&engine, IncSssp, &[source], "sssp").unwrap();
    engine.try_ingest_weighted(&weighted).unwrap();
    let states = engine.try_finish().unwrap().states;
    assert_eq!(projected(&reg, &states, sssp), want);
}

/// Per-query telemetry: counters move independently, the hub exports them,
/// and the backfill histogram records one sample per attach.
#[test]
fn registry_telemetry_reports_per_query_rows() {
    let edges = dedup(&dataset_edges(Dataset::SmallWorld, 0.02, 17));
    let source = edges[0].0;
    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), EngineConfig::undirected(2));
    let bfs = reg.attach(&engine, IncBfs, &[source], "bfs").unwrap();
    let deg = reg.attach(&engine, DegreeCount, &[], "degree").unwrap();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();

    let (bfs_sent, bfs_applied) = reg.query_counters(bfs).unwrap();
    let (_deg_sent, deg_applied) = reg.query_counters(deg).unwrap();
    assert!(bfs_sent > 0, "bfs propagates");
    assert!(bfs_applied > 0, "bfs applies levels");
    assert!(deg_applied > 0, "degree applies counts");

    let hub = engine.telemetry();
    let prom = hub.render_prometheus();
    assert!(prom.contains("remo_queries_attached 2"), "{prom}");
    assert!(prom.contains("remo_query_envelopes_sent_total{query=\"bfs\",slot=\"0\"}"));
    assert!(prom.contains("remo_query_updates_applied_total{query=\"degree\",slot=\"1\"}"));
    assert!(prom.contains("remo_attach_backfill_seconds_count 2"));
    scrape::parse(&prom);

    // A query name is caller-supplied: quotes, backslashes and newlines
    // must come out escaped, or the whole scrape stops parsing.
    reg.attach(&engine, DegreeCount, &[], "a\"b\\c\n").unwrap();
    engine.try_await_quiescence().unwrap();
    let prom = hub.render_prometheus();
    scrape::parse(&prom);
    assert!(prom.contains("remo_query_envelopes_sent_total{query=\"a\\\"b\\\\c\\n\",slot=\"2\"}"));
    engine.try_finish().unwrap();
}

/// Multi S-T connectivity through the registry (the attack-graph example's
/// engine shape): reachability masks equal the solo run's.
#[test]
fn stcon_masks_match_solo_through_registry() {
    let edges = dedup(&dataset_edges(Dataset::WebgraphLike, 0.02, 53));
    let sources = vec![edges[0].0, edges[1].0, edges[2].0];
    let config = EngineConfig::undirected(2);

    let solo_engine = Engine::new(IncStCon::new(sources.clone()), config.clone());
    for &s in &sources {
        solo_engine.try_init_vertex(s).unwrap();
    }
    solo_engine.try_ingest_pairs(&edges).unwrap();
    let want = solo_engine.try_finish().unwrap().states.into_vec();

    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), config);
    let st = reg
        .attach(&engine, IncStCon::new(sources.clone()), &sources, "stcon")
        .unwrap();
    engine.try_ingest_pairs(&edges).unwrap();
    let states = engine.try_finish().unwrap().states;
    assert_eq!(projected(&reg, &states, st), want);
}
