//! Incremental Single Source Shortest Path (paper Algorithm 5).
//!
//! "SSSP is similar to BFS, and unsurprisingly, uses almost identical code.
//! The notable difference is the implication of edge weights": a vertex's
//! state is the minimum cost of a path to the source (source cost = 1,
//! following the paper's init), where the cost of traversing an edge is its
//! weight. State is monotone decreasing with a lower bound, so the solution
//! space is convex and convergence under asynchrony follows (§II-B).
//!
//! "The actual execution path of an instantiated algorithm is more data
//! dependant [than BFS], as the edge weights play a key role" — the fig5
//! bench shows exactly that: identical code, different amplification.

use remo_core::algorithm::codec;
use remo_core::{AlgoCtx, Algorithm, VertexId, Weight};

/// Cost for vertices that exist but are not (yet) reached.
pub const UNREACHED: u64 = u64::MAX;

/// Incremental SSSP. Initiate the source with
/// [`remo_core::Engine::try_init_vertex`]; ingest weighted edges.
#[derive(Debug, Default, Clone, Copy)]
pub struct IncSssp;

#[inline]
fn lower_to(candidate: u64) -> impl Fn(&mut u64) -> bool {
    move |s: &mut u64| {
        if *s == 0 || *s > candidate {
            *s = candidate;
            true
        } else {
            false
        }
    }
}

#[inline]
fn effective(cost: u64) -> u64 {
    if cost == 0 {
        UNREACHED
    } else {
        cost
    }
}

impl Algorithm for IncSssp {
    type State = u64;
    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        codec::put_u64(*state, out);
    }

    fn decode_state(bytes: &[u8]) -> u64 {
        codec::get_u64(bytes)
    }

    /// Begin the traversal from this vertex (cost 1, Algorithm 5 line 3).
    fn init(&self, ctx: &mut impl AlgoCtx<u64>) {
        if ctx.apply(lower_to(1)) {
            ctx.update_nbrs(&1);
        }
    }

    /// A new vertex ensures its cost is "infinity" (line 8).
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _visitor: VertexId, _value: &u64, _w: Weight) {
        ctx.apply(lower_to(UNREACHED));
    }

    /// Same logic as the update step (lines 11-16).
    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<u64>,
        visitor: VertexId,
        value: &u64,
        w: Weight,
    ) {
        ctx.apply(lower_to(UNREACHED));
        self.on_update(ctx, visitor, value, w);
    }

    /// The weighted recursive step (lines 18-28).
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, w: Weight) {
        let mine = effective(*ctx.state());
        let theirs = effective(*value);
        // We are cheaper by more than the edge: notify the visitor back.
        if mine.saturating_add(w) < theirs {
            let state = *ctx.state();
            ctx.update_single_nbr(visitor, &state);
        }
        // They offer a cheaper path: adopt, propagate.
        else if theirs.saturating_add(w) < mine {
            let new_cost = theirs + w;
            if ctx.apply(lower_to(new_cost)) {
                ctx.update_nbrs(&new_cost);
            }
        }
    }

    fn encode_cache(state: &u64) -> u64 {
        *state
    }

    /// Costs form a min-lattice under `effective`: a visitor no cheaper
    /// than we are cannot lower us over any edge weight.
    fn absorbs(live: &u64, incoming: &u64) -> bool {
        effective(*incoming) >= effective(*live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remo_core::{Engine, EngineConfig, SequentialEngine};

    fn run(edges: &[(u64, u64, u64)], source: u64, shards: usize) -> Vec<(u64, u64)> {
        let engine = Engine::new(IncSssp, EngineConfig::undirected(shards));
        engine.try_init_vertex(source).unwrap();
        engine.try_ingest_weighted(edges).unwrap();
        engine.try_finish().unwrap().states.into_vec()
    }

    fn get(states: &[(u64, u64)], v: u64) -> Option<u64> {
        states.iter().find(|&&(id, _)| id == v).map(|&(_, s)| s)
    }

    #[test]
    fn weighted_path_costs() {
        let states = run(&[(0, 1, 5), (1, 2, 3)], 0, 2);
        assert_eq!(get(&states, 0), Some(1));
        assert_eq!(get(&states, 1), Some(6));
        assert_eq!(get(&states, 2), Some(9));
    }

    #[test]
    fn cheaper_indirect_path_wins() {
        // Direct 0-2 costs 10; 0-1-2 costs 3.
        let states = run(&[(0, 2, 10), (0, 1, 1), (1, 2, 2)], 0, 2);
        assert_eq!(get(&states, 2), Some(4)); // 1 + 1 + 2
    }

    #[test]
    fn late_cheap_edge_repairs_downstream() {
        let engine = Engine::new(IncSssp, EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        engine
            .try_ingest_weighted(&[(0, 1, 100), (1, 2, 1)])
            .unwrap();
        engine.try_await_quiescence().unwrap();
        // A cheap bypass to vertex 1 must also lower vertex 2.
        engine.try_ingest_weighted(&[(0, 1, 2)]).unwrap();
        let states = engine.try_finish().unwrap().states.into_vec();
        assert_eq!(get(&states, 1), Some(3));
        assert_eq!(get(&states, 2), Some(4));
    }

    #[test]
    fn edge_weight_update_to_lower_applies() {
        // §II-B: "Similar logic applies for edge updates limited only to
        // reducing edge weight" — re-adding an edge with a lower weight.
        let engine = Engine::new(IncSssp, EngineConfig::undirected(1));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_weighted(&[(0, 1, 50)]).unwrap();
        engine.try_await_quiescence().unwrap();
        engine.try_ingest_weighted(&[(0, 1, 5)]).unwrap();
        let states = engine.try_finish().unwrap().states.into_vec();
        assert_eq!(get(&states, 1), Some(6));
    }

    #[test]
    fn filtered_run_matches_sequential_fifo() {
        let edges: Vec<(u64, u64, u64)> = (0..80u64)
            .map(|i| (i, (i * 13 + 3) % 80, (i % 9) + 1))
            .collect();
        let mut fifo = SequentialEngine::undirected(IncSssp);
        fifo.init_vertex(0);
        fifo.apply_weighted(&edges);
        assert_eq!(fifo.states(), run(&edges, 0, 4));
    }

    #[test]
    fn unit_weights_match_bfs_semantics() {
        let edges: Vec<(u64, u64, u64)> = vec![(0, 1, 1), (1, 2, 1), (0, 2, 1)];
        let states = run(&edges, 0, 2);
        assert_eq!(get(&states, 2), Some(2));
    }
}
