//! Property tests for the lattice filter (`Algorithm::absorbs`): for every
//! algorithm that implements the hook, any seeded RMAT stream, and any
//! shard count, the filtering engine lands on exactly the fixpoint
//! `remo-baseline` solves from scratch — retiring an `Update` unprocessed
//! may only change how much work convergence takes, never where it lands
//! (§II-B order-independence). Each run also checks the termination books:
//! suppressed and dominance-retired envelopes must not leak `sent` or
//! `processed` counts, so the four-counter probe still balances at
//! quiescence.

use proptest::prelude::*;
use remo_baseline as oracle;
use remo_core::{Algorithm, Engine, EngineConfig, RunMetrics, VertexId, Weight};
use remo_gen::RmatConfig;
use remo_store::hash::mix64;
use remo_store::Csr;

/// Small seeded RMAT stream: dense enough for improvement bursts (the
/// redundancy the filter exists to eliminate) while keeping each proptest
/// case cheap.
fn rmat_edges(seed: u64) -> Vec<(VertexId, VertexId)> {
    let cfg = RmatConfig {
        seed,
        ..RmatConfig::graph500(6)
    };
    let mut edges = remo_gen::rmat::generate(&cfg);
    remo_gen::stream::shuffle(&mut edges, seed ^ 0x1a77);
    edges
}

/// Weight derived from the endpoints only (symmetric), so duplicate and
/// reversed occurrences of an edge in the stream agree — differing weights
/// on the same undirected edge make the weighted fixpoint order-dependent
/// regardless of filtering (see DESIGN.md on reduction-only updates).
fn weighted(edges: &[(VertexId, VertexId)]) -> Vec<(VertexId, VertexId, Weight)> {
    edges
        .iter()
        .map(|&(s, d)| (s, d, (mix64(s ^ d) % 13) + 1))
        .collect()
}

/// Runs the algorithm over the stream on the default engine and asserts
/// the harvested states equal `solve` on the same edge set (every vertex an
/// edge names, ascending), with balanced counters. Returns the run's
/// metrics for the callers that assert on the filter's counters.
fn assert_matches_static<A: Algorithm<State = u64>>(
    algo: A,
    solve: impl Fn(&Csr) -> Vec<u64>,
    edges: &[(VertexId, VertexId)],
    weights: Option<&[(VertexId, VertexId, Weight)]>,
    init: Option<VertexId>,
    shards: usize,
) -> Result<RunMetrics, TestCaseError> {
    let engine = Engine::new(algo, EngineConfig::undirected(shards));
    if let Some(v) = init {
        engine.try_init_vertex(v).unwrap();
    }
    match weights {
        Some(w) => engine.try_ingest_weighted(w).unwrap(),
        None => engine.try_ingest_pairs(edges).unwrap(),
    }
    engine.try_await_quiescence().unwrap();
    prop_assert!(
        engine.counters_balanced(),
        "sent/processed counters leaked (P={})",
        shards
    );
    let result = engine.try_finish().unwrap();
    // The per-envelope books must close too: sent = processed +
    // dominated + undeliverable + dropped, with suppressed envelopes
    // never counted as sent (RunMetrics::verify_balance).
    let balance = result.metrics.verify_balance();
    prop_assert!(
        balance.is_ok(),
        "balance violated (P={}): {:?}",
        shards,
        balance
    );
    let csr = match weights {
        Some(w) => oracle::build_undirected_weighted(w).csr,
        None => oracle::build_undirected(edges).csr,
    };
    let solved = solve(&csr);
    let want: Vec<(VertexId, u64)> = (0..csr.num_vertices() as VertexId)
        .filter(|&v| csr.degree(v) > 0)
        .map(|v| (v, solved[v as usize]))
        .collect();
    prop_assert_eq!(
        result.states.into_vec(),
        want,
        "fixpoint is not the static solve of the stream (P={})",
        shards
    );
    Ok(result.metrics)
}

// Grid: algorithm (one per distinct `absorbs` shape: min-level, min-plus,
// max-label, max-min, plus one without the hook) × 1–4 shards (1 = every
// update self-routed, so only the suppress point and the local queue's
// process-time check fire; 4 = mostly cross-shard, so the admit point
// does the work).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bfs_filtered_matches_static(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let source = edges[0].0;
        assert_matches_static(
            remo_algos::IncBfs, |g| oracle::bfs_levels(g, source),
            &edges, None, Some(source), shards)?;
    }

    #[test]
    fn sssp_filtered_matches_static(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let w = weighted(&edges);
        let source = edges[0].0;
        assert_matches_static(
            remo_algos::IncSssp, |g| oracle::sssp_costs(g, source),
            &edges, Some(&w), Some(source), shards)?;
    }

    #[test]
    fn cc_filtered_matches_static(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        assert_matches_static(
            remo_algos::IncCc,
            |g| oracle::components_dominator_label(g, remo_algos::cc_label),
            &edges, None, None, shards)?;
    }

    #[test]
    fn widest_filtered_matches_static(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let w = weighted(&edges);
        let source = edges[0].0;
        assert_matches_static(
            remo_algos::IncWidest, |g| oracle::widest_paths(g, source),
            &edges, Some(&w), Some(source), shards)?;
    }

    /// The hook-less case: S-T connectivity sends `Update`s but does not
    /// implement `absorbs`, so nothing is ever filtered and every envelope
    /// sent is processed — exact §III-C FIFO is the only path for it.
    #[test]
    fn hookless_algorithm_is_never_filtered(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let source = edges[0].0;
        let m = assert_matches_static(
            remo_algos::IncStCon::new(vec![source]),
            |g| oracle::st_masks(g, &[source]),
            &edges, None, Some(source), shards)?;
        let t = m.total();
        prop_assert!(t.update_events > 0, "the case needs update traffic");
        prop_assert_eq!(t.updates_dominated + t.updates_suppressed, 0);
        prop_assert_eq!(t.envelopes_sent + m.controller_sent, t.events_processed());
    }
}

/// The default engine filters: nothing is switched on, and SSSP over a
/// small RMAT stream still retires updates unprocessed.
#[test]
fn default_engine_filters_sssp() {
    let edges = rmat_edges(0x5eed);
    let w = weighted(&edges);
    let source = edges[0].0;
    let m = assert_matches_static(
        remo_algos::IncSssp,
        |g| oracle::sssp_costs(g, source),
        &edges,
        Some(&w),
        Some(source),
        2,
    )
    .unwrap();
    let t = m.total();
    assert!(
        t.updates_dominated + t.updates_suppressed > 0,
        "the default engine never filtered: {t:?}"
    );
}
