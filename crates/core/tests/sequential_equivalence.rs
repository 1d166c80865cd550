//! The concurrency-transparency claim (§II-D): the concurrent engine and
//! the sequential reference engine — prior work's one-event-at-a-time
//! abstract machine — reach identical fixpoints for REMO algorithms.
//! Also covers the live point-query API (§VI-A's "any vertices' local
//! state can be observed in constant time").

use remo_core::{AlgoCtx, Algorithm, Engine, EngineConfig, SequentialEngine, VertexId, Weight};

/// Min-label flood (component min id + 1).
#[derive(Debug, Default, Clone, Copy)]
struct MinFlood;

impl Algorithm for MinFlood {
    type State = u64;
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: Weight) {
        let me = ctx.vertex() + 1;
        ctx.apply(move |s| {
            if *s == 0 || *s > me {
                *s = me;
                true
            } else {
                false
            }
        });
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: Weight) {
        self.on_add(ctx, v, val, w);
        self.on_update(ctx, v, val, w);
    }
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: Weight) {
        let mine = *ctx.state();
        let theirs = *value;
        if theirs != 0 && (mine == 0 || theirs < mine) {
            if ctx.apply(move |s| {
                if *s == 0 || *s > theirs {
                    *s = theirs;
                    true
                } else {
                    false
                }
            }) {
                ctx.update_nbrs(&theirs);
            }
        } else if mine != 0 && (theirs == 0 || mine < theirs) {
            ctx.update_single_nbr(visitor, &mine);
        }
    }
}

fn random_edges(n: u64, m: usize, seed: u64) -> Vec<(u64, u64)> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..m)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .filter(|&(a, b)| a != b)
        .collect()
}

// Grid: three seeds (three different streams) × shards 1/4 (1 = the
// concurrent engine with no cross-shard traffic, the closest twin of the
// sequential machine; 4 = real interleavings).
#[test]
fn sequential_and_concurrent_agree() {
    for seed in [1u64, 2, 3] {
        let edges = random_edges(60, 300, seed);

        let mut seq = SequentialEngine::undirected(MinFlood);
        seq.apply_pairs(&edges);
        let sequential = seq.states();

        for shards in [1usize, 4] {
            let engine = Engine::new(MinFlood, EngineConfig::undirected(shards));
            engine.try_ingest_pairs(&edges).unwrap();
            let concurrent = engine.try_finish().unwrap().states.into_vec();
            assert_eq!(sequential, concurrent, "seed {seed}, P={shards}");
        }
    }
}

#[test]
fn sequential_event_counts_match_concurrent_topology() {
    let edges = random_edges(40, 150, 9);
    let mut seq = SequentialEngine::undirected(MinFlood);
    seq.apply_pairs(&edges);

    let engine = Engine::new(MinFlood, EngineConfig::undirected(3));
    engine.try_ingest_pairs(&edges).unwrap();
    let r = engine.try_finish().unwrap();

    assert_eq!(seq.num_edges(), r.num_edges);
    assert_eq!(seq.metrics().topo_ingested, r.metrics.total().topo_ingested);
    assert_eq!(
        seq.metrics().edges_inserted,
        r.metrics.total().edges_inserted
    );
}

#[test]
fn point_query_returns_live_state() {
    let engine = Engine::new(MinFlood, EngineConfig::undirected(3));
    engine.try_ingest_pairs(&[(5, 6), (6, 7)]).unwrap();
    engine.try_await_quiescence().unwrap();
    assert_eq!(engine.try_local_state(6).unwrap(), Some(6)); // min id 5 -> label 6
    assert_eq!(
        engine.try_local_state(999).unwrap(),
        None,
        "untouched vertex"
    );
    // Query mid-stream: must return the current monotone bound, never
    // something above it.
    engine.try_ingest_pairs(&[(0, 5)]).unwrap();
    let bound = engine.try_local_state(6).unwrap().unwrap();
    assert!(bound == 6 || bound == 1, "monotone bound, got {bound}");
    engine.try_await_quiescence().unwrap();
    assert_eq!(engine.try_local_state(6).unwrap(), Some(1));
    let _ = engine.try_finish().unwrap();
}

#[test]
fn point_queries_during_heavy_ingest_do_not_deadlock() {
    let edges = random_edges(200, 5_000, 4);
    let engine = Engine::new(MinFlood, EngineConfig::undirected(4));
    engine.try_ingest_pairs(&edges).unwrap();
    for v in 0..50u64 {
        let _ = engine.try_local_state(v).unwrap();
    }
    let _ = engine.try_finish().unwrap();
}
