//! Property tests for the lattice messaging layers (coalescing + dominance
//! filtering + priority draining): for every coalescing-enabled algorithm,
//! any seeded RMAT stream, and any shard count, the lattice-enabled engine
//! reaches the *identical* final state map as the exact-FIFO baseline — the
//! layers may only change how much work convergence takes, never where it
//! lands (§II-B order-independence). Each run also checks the termination
//! books: absorbed and dominance-retired envelopes must not leak `sent` or
//! `processed` counts, so the four-counter probe still balances at
//! quiescence.

use proptest::prelude::*;
use remo_core::{Engine, EngineConfig, VertexId, Weight};
use remo_gen::RmatConfig;
use remo_store::hash::mix64;

/// Small seeded RMAT stream: dense enough for improvement bursts (the
/// redundancy the lattice layers exist to eliminate) while keeping each
/// proptest case cheap.
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
/// regardless of coalescing (see DESIGN.md on reduction-only updates).
fn weighted(edges: &[(VertexId, VertexId)]) -> Vec<(VertexId, VertexId, Weight)> {
    edges
        .iter()
        .map(|&(s, d)| (s, d, (mix64(s ^ d) % 13) + 1))
        .collect()
}

/// Runs the algorithm over the stream twice — exact FIFO and all lattice
/// layers on — and asserts identical fixpoints plus balanced counters.
fn assert_lattice_matches_fifo<A, F>(
    make: F,
    edges: &[(VertexId, VertexId)],
    weights: Option<&[(VertexId, VertexId, Weight)]>,
    init: Option<VertexId>,
    shards: usize,
) -> Result<(), TestCaseError>
where
    A: remo_core::Algorithm,
    A::State: PartialEq + std::fmt::Debug,
    F: Fn() -> A,
{
    let mut states = Vec::new();
    for lattice in [false, true] {
        let mut config = EngineConfig::undirected(shards);
        if lattice {
            config = config.with_lattice();
        }
        let engine = Engine::new(make(), config);
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
            "sent/processed counters leaked (lattice={}, P={})",
            lattice,
            shards
        );
        let result = engine.try_finish().unwrap();
        // The per-envelope books must close too: sent = processed +
        // dominated + undeliverable + dropped, with coalesced/suppressed
        // envelopes never counted as sent (RunMetrics::verify_balance).
        let balance = result.metrics.verify_balance();
        prop_assert!(
            balance.is_ok(),
            "balance violated (lattice={}, P={}): {:?}",
            lattice,
            shards,
            balance
        );
        states.push(result.states.into_vec());
    }
    prop_assert_eq!(
        &states[0],
        &states[1],
        "lattice run diverged (P={})",
        shards
    );
    Ok(())
}

// Grid: lattice on/off (the layers are off by default and the ledger's
// lattice.* ratios only mean something if on ≡ off) × algorithm (one per
// distinct `join`/`priority` shape: min-level, min-plus, max-label,
// max-min, and degree's join-without-priority) × 1–4 shards (1 = every
// update self-routed through the pending backlog, 4 = mostly outboxes).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bfs_lattice_matches_fifo(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let source = edges[0].0;
        assert_lattice_matches_fifo(|| remo_algos::IncBfs, &edges, None, Some(source), shards)?;
    }

    #[test]
    fn sssp_lattice_matches_fifo(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let w = weighted(&edges);
        let source = edges[0].0;
        assert_lattice_matches_fifo(|| remo_algos::IncSssp, &edges, Some(&w), Some(source), shards)?;
    }

    #[test]
    fn cc_lattice_matches_fifo(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        assert_lattice_matches_fifo(|| remo_algos::IncCc, &edges, None, None, shards)?;
    }

    #[test]
    fn widest_lattice_matches_fifo(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let w = weighted(&edges);
        let source = edges[0].0;
        assert_lattice_matches_fifo(|| remo_algos::IncWidest, &edges, Some(&w), Some(source), shards)?;
    }

    /// Degree implements `join` (max — for composition) but no `priority`:
    /// the lattice layers must degrade to exact FIFO without disturbing the
    /// counts.
    #[test]
    fn degree_lattice_matches_fifo(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        assert_lattice_matches_fifo(|| remo_algos::DegreeCount, &edges, None, None, shards)?;
    }
}
