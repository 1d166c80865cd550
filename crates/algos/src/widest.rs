//! Incremental Widest Path (maximum-bottleneck bandwidth) — an additional
//! member of the REMO class beyond the paper's four algorithms.
//!
//! Every REMO ingredient from §II-B is present: the vertex state is the
//! best bottleneck bandwidth of any path from the source (the minimum edge
//! weight along the path, maximized over paths); adding edges can only
//! *increase* it (monotone, convex, upper-bounded by the source's ∞), and
//! the recursive update step is the usual relax-and-propagate. This is the
//! "network capacity" query: *what is the fattest pipe between the source
//! and everything else, right now?* — a natural on-line analytics question
//! for communication or payment networks.

use remo_core::algorithm::codec;
use remo_core::{AlgoCtx, Algorithm, VertexId, Weight};

/// Bottleneck value of the source itself (an "infinite" pipe).
pub const SOURCE_CAPACITY: u64 = u64::MAX;

/// Bottleneck for vertices with no path from the source yet (the bottom).
pub const UNREACHED: u64 = 0;

/// Incremental widest path. Initiate the source with
/// [`remo_core::Engine::try_init_vertex`]; ingest weighted edges (weights =
/// capacities).
#[derive(Debug, Default, Clone, Copy)]
pub struct IncWidest;

#[inline]
fn raise_to(candidate: u64) -> impl Fn(&mut u64) -> bool {
    move |s: &mut u64| {
        if *s < candidate {
            *s = candidate;
            true
        } else {
            false
        }
    }
}

impl Algorithm for IncWidest {
    type State = u64;
    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        codec::put_u64(*state, out);
    }

    fn decode_state(bytes: &[u8]) -> u64 {
        codec::get_u64(bytes)
    }

    /// The source has unbounded capacity to itself.
    fn init(&self, ctx: &mut impl AlgoCtx<u64>) {
        if ctx.apply(raise_to(SOURCE_CAPACITY)) {
            ctx.update_nbrs(&SOURCE_CAPACITY);
        }
    }

    /// Same logic as update (the paper's reverse-add pattern).
    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<u64>,
        visitor: VertexId,
        value: &u64,
        w: Weight,
    ) {
        self.on_update(ctx, visitor, value, w);
    }

    /// Relax over the bottleneck: `candidate = min(their_bottleneck, edge)`.
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, w: Weight) {
        let mine = *ctx.state();
        let theirs = *value;
        let candidate = theirs.min(w);
        if candidate > mine {
            if ctx.apply(raise_to(candidate)) {
                let s = *ctx.state();
                ctx.update_nbrs(&s);
            }
        } else if mine.min(w) > theirs {
            // We could improve the visitor over this same edge: notify back.
            let s = *ctx.state();
            ctx.update_single_nbr(visitor, &s);
        }
    }

    fn encode_cache(state: &u64) -> u64 {
        *state
    }

    /// Bottlenecks form a max-lattice (0 = unreached bottom): a visitor
    /// no wider than we are cannot widen us over any edge.
    fn absorbs(live: &u64, incoming: &u64) -> bool {
        incoming <= live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remo_core::{Engine, EngineConfig, SequentialEngine};

    fn run(edges: &[(u64, u64, u64)], source: u64, shards: usize) -> Vec<(u64, u64)> {
        let engine = Engine::new(IncWidest, EngineConfig::undirected(shards));
        engine.try_init_vertex(source).unwrap();
        engine.try_ingest_weighted(edges).unwrap();
        engine.try_finish().unwrap().states.into_vec()
    }

    fn get(states: &[(u64, u64)], v: u64) -> Option<u64> {
        states.iter().find(|&&(id, _)| id == v).map(|&(_, s)| s)
    }

    #[test]
    fn single_edge_bottleneck_is_edge_weight() {
        let states = run(&[(0, 1, 7)], 0, 2);
        assert_eq!(get(&states, 0), Some(SOURCE_CAPACITY));
        assert_eq!(get(&states, 1), Some(7));
    }

    #[test]
    fn prefers_wider_indirect_path() {
        // Direct 0-2 capacity 3; 0-1-2 capacity min(10, 8) = 8.
        let states = run(&[(0, 2, 3), (0, 1, 10), (1, 2, 8)], 0, 2);
        assert_eq!(get(&states, 2), Some(8));
    }

    #[test]
    fn bottleneck_is_path_minimum() {
        let states = run(&[(0, 1, 10), (1, 2, 4), (2, 3, 9)], 0, 2);
        assert_eq!(get(&states, 1), Some(10));
        assert_eq!(get(&states, 2), Some(4));
        assert_eq!(get(&states, 3), Some(4));
    }

    #[test]
    fn late_fat_edge_raises_downstream() {
        let engine = Engine::new(IncWidest, EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_weighted(&[(0, 1, 2), (1, 2, 9)]).unwrap();
        engine.try_await_quiescence().unwrap();
        let before = engine.try_collect_live().unwrap();
        assert_eq!(before.get(2), Some(&2));
        engine.try_ingest_weighted(&[(0, 1, 20)]).unwrap(); // a fatter pipe appears
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.get(1), Some(&20));
        assert_eq!(states.get(2), Some(&9), "downstream bottleneck re-widens");
    }

    #[test]
    fn filtered_run_matches_sequential_fifo() {
        // Weight depends only on the endpoints so duplicate edges in the
        // stream agree — differing weights would make the fixpoint
        // order-dependent regardless of filtering.
        let edges: Vec<(u64, u64, u64)> = (0..80u64)
            .map(|i| (i % 30, (i * 11 + 2) % 30))
            .map(|(a, b)| (a, b, ((a + b) % 13) + 1))
            .collect();
        let mut fifo = SequentialEngine::undirected(IncWidest);
        fifo.init_vertex(0);
        fifo.apply_weighted(&edges);
        assert_eq!(fifo.states(), run(&edges, 0, 4));
    }

    #[test]
    fn unreached_component_stays_bottom() {
        let states = run(&[(0, 1, 5), (7, 8, 5)], 0, 2);
        assert_eq!(get(&states, 7), Some(UNREACHED));
        assert_eq!(get(&states, 8), Some(UNREACHED));
    }
}
