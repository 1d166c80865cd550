//! Property tests for the REMO convergence claim (§II-B, §II-D):
//! for every algorithm, **any** edge stream over **any** shard count,
//! shuffled **any** way, converges to exactly the state a static oracle
//! computes on the final graph — monotonically.
//!
//! This is the paper's central correctness argument ("the resulting state is
//! the deterministic level according to the topology of the graph")
//! verified mechanically against the union-find / BFS / Dijkstra oracles.

use proptest::prelude::*;
use remo_algos::{cc_label, IncBfs, IncCc, IncSssp, IncStCon, UNREACHED};
use remo_baseline as oracle;
use remo_core::{Engine, EngineConfig};
use remo_store::Csr;

/// Generates a random edge list over a small vertex domain (dense enough to
/// produce interesting components and cycles).
fn edges_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..24, 0u64..24), 1..120)
        .prop_map(|v| v.into_iter().filter(|&(a, b)| a != b).collect())
}

fn undirected_csr(edges: &[(u64, u64)], n: usize) -> Csr {
    Csr::from_edges(n, &oracle::symmetrize(edges))
}

fn weighted_csr(edges: &[(u64, u64, u64)], n: usize) -> Csr {
    Csr::from_weighted_edges(n, &oracle::construct::symmetrize_weighted(edges))
}

// Grid: edge list (the graph) × shuffle seed (the arrival order — the
// claim is order-independence) × 1–4 shards (the claim is also
// interleaving-independence; 1 = no cross-shard traffic). No engine knob
// is an axis here: this suite pins the default engine to the oracles.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental BFS == static BFS, for any stream and shard count.
    #[test]
    fn bfs_matches_oracle(
        edges in edges_strategy(),
        shards in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut stream = edges.clone();
        remo_gen::stream::shuffle(&mut stream, seed);

        let engine = Engine::new(IncBfs, EngineConfig::undirected(shards));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_pairs(&stream).unwrap();
        let states = engine.try_finish().unwrap().states;

        let csr = undirected_csr(&edges, 24);
        let want = oracle::bfs_levels(&csr, 0);
        for (v, &level) in states.iter() {
            let expect = want.get(v as usize).copied().unwrap_or(oracle::UNREACHED);
            prop_assert_eq!(level, expect, "vertex {} (P={}, seed={})", v, shards, seed);
        }
    }

    /// Incremental SSSP == Dijkstra, for any weighted stream.
    #[test]
    fn sssp_matches_oracle(
        edges in edges_strategy(),
        shards in 1usize..5,
        seed in any::<u64>(),
        wmax in 1u64..20,
    ) {
        let weighted = remo_gen::stream::with_weights(&edges, wmax, seed ^ 0xabc);
        let mut stream = weighted.clone();
        // Shuffle triple order with the pair shuffler's RNG discipline.
        {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in (1..stream.len()).rev() {
                let j = rng.gen_range(0..=i);
                stream.swap(i, j);
            }
        }

        let engine = Engine::new(IncSssp, EngineConfig::undirected(shards));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_weighted(&stream).unwrap();
        let states = engine.try_finish().unwrap().states;

        // Re-adding an undirected edge with a different weight makes the
        // stored weight (and thus late re-relaxations) depend on event
        // arrival order — the paper restricts weight updates to reductions
        // for exactly this reason. Keep the oracle exact by only checking
        // streams where every *unordered* pair appears once.
        let mut seen: std::collections::HashSet<(u64, u64)> = Default::default();
        let unique = weighted
            .iter()
            .all(|&(s, d, _)| seen.insert((s.min(d), s.max(d))));
        if unique {
            let csr = weighted_csr(&weighted, 24);
            let want = oracle::sssp_costs(&csr, 0);
            for (v, &cost) in states.iter() {
                let expect = want.get(v as usize).copied().unwrap_or(UNREACHED);
                prop_assert_eq!(cost, expect, "vertex {} (P={}, seed={})", v, shards, seed);
            }
        }
    }

    /// Incremental CC == union-find dominator labels.
    #[test]
    fn cc_matches_oracle(
        edges in edges_strategy(),
        shards in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut stream = edges.clone();
        remo_gen::stream::shuffle(&mut stream, seed);

        let engine = Engine::new(IncCc, EngineConfig::undirected(shards));
        engine.try_ingest_pairs(&stream).unwrap();
        let states = engine.try_finish().unwrap().states;

        let csr = undirected_csr(&edges, 24);
        let want = oracle::components_dominator_label(&csr, cc_label);
        for (v, &label) in states.iter() {
            prop_assert_eq!(label, want[v as usize], "vertex {} (P={})", v, shards);
        }
    }

    /// Multi S-T == per-source reachability masks.
    #[test]
    fn stcon_matches_oracle(
        edges in edges_strategy(),
        shards in 1usize..5,
        seed in any::<u64>(),
        nsources in 1usize..5,
    ) {
        let mut stream = edges.clone();
        remo_gen::stream::shuffle(&mut stream, seed);
        let sources: Vec<u64> = (0..nsources as u64 * 3).step_by(3).collect();

        let engine = Engine::new(
            IncStCon::new(sources.clone()),
            EngineConfig::undirected(shards),
        );
        for &s in &sources {
            engine.try_init_vertex(s).unwrap();
        }
        engine.try_ingest_pairs(&stream).unwrap();
        let states = engine.try_finish().unwrap().states;

        let csr = undirected_csr(&edges, 24);
        let want = oracle::st_masks(&csr, &sources);
        for (v, &mask) in states.iter() {
            let expect = want.get(v as usize).copied().unwrap_or(0);
            prop_assert_eq!(mask, expect, "vertex {} (P={})", v, shards);
        }
    }

    /// Permutation independence: two different shuffles of the same stream
    /// give bit-identical final states (the §II-D determinism claim).
    #[test]
    fn permutations_reach_identical_fixpoints(
        edges in edges_strategy(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let mut a = edges.clone();
        let mut b = edges.clone();
        remo_gen::stream::shuffle(&mut a, seed_a);
        remo_gen::stream::shuffle(&mut b, seed_b);

        let ea = Engine::new(IncBfs, EngineConfig::undirected(3));
        ea.try_init_vertex(0).unwrap();
        ea.try_ingest_pairs(&a).unwrap();
        let ra = ea.try_finish().unwrap().states.into_vec();

        let eb = Engine::new(IncBfs, EngineConfig::undirected(3));
        eb.try_init_vertex(0).unwrap();
        eb.try_ingest_pairs(&b).unwrap();
        let rb = eb.try_finish().unwrap().states.into_vec();

        prop_assert_eq!(ra, rb);
    }

    /// Monotonicity under incremental batches: levels never increase as
    /// more edges arrive (the definition of the convex REMO state space).
    #[test]
    fn bfs_levels_never_regress_across_batches(
        edges in edges_strategy(),
        cut in 0.1f64..0.9,
    ) {
        let split_at = ((edges.len() as f64) * cut) as usize;
        let (first, second) = edges.split_at(split_at);

        let engine = Engine::new(IncBfs, EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_pairs(first).unwrap();
        let before = engine.try_collect_live().unwrap();
        engine.try_ingest_pairs(second).unwrap();
        let after = engine.try_finish().unwrap().states;

        for (v, &lvl_before) in before.iter() {
            if let Some(&lvl_after) = after.get(v) {
                prop_assert!(
                    lvl_after <= lvl_before || lvl_before == 0,
                    "vertex {} regressed {} -> {}", v, lvl_before, lvl_after
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental widest path == max-bottleneck Dijkstra, for any stream
    /// with unique unordered pairs (duplicate weights are order-ambiguous,
    /// as for SSSP).
    #[test]
    fn widest_matches_oracle(
        edges in edges_strategy(),
        shards in 1usize..5,
        seed in any::<u64>(),
        wmax in 1u64..30,
    ) {
        let mut seen: std::collections::HashSet<(u64, u64)> = Default::default();
        let unique: Vec<(u64, u64)> = edges
            .into_iter()
            .filter(|&(a, b)| seen.insert((a.min(b), a.max(b))))
            .collect();
        prop_assume!(!unique.is_empty());
        let weighted = remo_gen::stream::with_weights(&unique, wmax, seed ^ 0x717);

        let engine = Engine::new(remo_algos::IncWidest, EngineConfig::undirected(shards));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_weighted(&weighted).unwrap();
        let states = engine.try_finish().unwrap().states;

        let csr = weighted_csr(&weighted, 24);
        let want = oracle::widest_paths(&csr, 0);
        for (v, &cap) in states.iter() {
            let expect = want.get(v as usize).copied().unwrap_or(0);
            prop_assert_eq!(cap, expect, "vertex {} (P={}, seed={})", v, shards, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental temporal reachability == the static earliest-arrival
    /// sweep (unique unordered pairs; timestamps >= 2 per the arrival
    /// convention).
    #[test]
    fn temporal_matches_oracle(
        edges in edges_strategy(),
        shards in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut seen: std::collections::HashSet<(u64, u64)> = Default::default();
        let unique: Vec<(u64, u64)> = edges
            .into_iter()
            .filter(|&(a, b)| seen.insert((a.min(b), a.max(b))))
            .collect();
        prop_assume!(!unique.is_empty());
        // Timestamps in 2..=50.
        let stamped: Vec<(u64, u64, u64)> = remo_gen::stream::with_weights(&unique, 49, seed)
            .into_iter()
            .map(|(s, d, w)| (s, d, w + 1))
            .collect();

        let engine = Engine::new(remo_algos::IncTemporal, EngineConfig::undirected(shards));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_weighted(&stamped).unwrap();
        let states = engine.try_finish().unwrap().states;

        let csr = weighted_csr(&stamped, 24);
        let want = oracle::earliest_arrivals(&csr, 0);
        for (v, &arrival) in states.iter() {
            let expect = want.get(v as usize).copied().unwrap_or(UNREACHED);
            prop_assert_eq!(arrival, expect, "vertex {} (P={}, seed={})", v, shards, seed);
        }
    }
}
