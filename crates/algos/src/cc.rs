//! Incremental Connected Components (paper Algorithm 6).
//!
//! "The CC algorithm does not require an initiating vertex": every vertex
//! assumes it dominates its component and label propagation settles the
//! fight. State: the dominating label of the component the vertex can reach,
//! where a vertex's own label is `hash(ID)` (Algorithm 6 line 5) and the
//! comparison keeps the **larger** value (lines 17-26: smaller adopts
//! larger). The fixpoint is therefore `max over component members of
//! hash(id)` — convex, monotone increasing per vertex.
//!
//! One deliberate deviation from the paper's pseudocode: Algorithm 6 labels
//! a vertex with its own hash only on `add` (first-endpoint) events, letting
//! `reverse_add` blindly adopt the visitor's label. Under multiple
//! concurrent streams the same vertex can appear first as a source in one
//! stream and as a destination in another, making "who self-labels" — and
//! hence the final labelling — order-dependent. We self-label on *every*
//! first touch, which restores the determinism §II-D promises and makes the
//! fixpoint exactly the static oracle's
//! `remo_baseline::components_dominator_label`.

use remo_core::algorithm::codec;
use remo_core::{AlgoCtx, Algorithm, VertexId, Weight};
use remo_store::hash::mix64;

/// A vertex's own component label: a well-mixed hash of its id, with 0
/// reserved as the "unlabelled" sentinel.
#[inline]
pub fn cc_label(v: VertexId) -> u64 {
    mix64(v).max(1)
}

/// Incremental Connected Components. No initiation required; just ingest.
#[derive(Debug, Default, Clone, Copy)]
pub struct IncCc;

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

impl Algorithm for IncCc {
    type State = u64;
    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        codec::put_u64(*state, out);
    }

    fn decode_state(bytes: &[u8]) -> u64 {
        codec::get_u64(bytes)
    }

    /// Label any new vertex added to the graph (Algorithm 6 lines 3-5).
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _visitor: VertexId, _value: &u64, _w: Weight) {
        let label = cc_label(ctx.vertex());
        ctx.apply(raise_to(label));
    }

    /// Self-label, then run the update logic against the visitor's label.
    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<u64>,
        visitor: VertexId,
        value: &u64,
        w: Weight,
    ) {
        let label = cc_label(ctx.vertex());
        ctx.apply(raise_to(label));
        self.on_update(ctx, visitor, value, w);
    }

    /// Label domination (lines 16-26).
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: Weight) {
        let mine = *ctx.state();
        let theirs = *value;
        // Our component dominates: notify the visitor back.
        if mine > theirs {
            ctx.update_single_nbr(visitor, &mine);
        }
        // Their component dominates: adopt and recursively apply the new
        // minimum-state (here: maximum-label) into our component.
        else if mine < theirs && ctx.apply(raise_to(theirs)) {
            ctx.update_nbrs(&theirs);
        }
    }

    fn encode_cache(state: &u64) -> u64 {
        *state
    }

    /// Labels form a max-lattice (smaller adopts larger, 0 = unlabelled):
    /// a label no larger than ours cannot raise us.
    fn absorbs(live: &u64, incoming: &u64) -> bool {
        incoming <= live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remo_core::{Engine, EngineConfig, SequentialEngine};

    fn run(edges: &[(u64, u64)], shards: usize) -> Vec<(u64, u64)> {
        let engine = Engine::new(IncCc, EngineConfig::undirected(shards));
        engine.try_ingest_pairs(edges).unwrap();
        engine.try_finish().unwrap().states.into_vec()
    }

    fn label_of(states: &[(u64, u64)], v: u64) -> u64 {
        states
            .iter()
            .find(|&&(id, _)| id == v)
            .map(|&(_, s)| s)
            .unwrap()
    }

    #[test]
    fn one_component_one_label() {
        let states = run(&[(0, 1), (1, 2), (2, 3)], 2);
        let expect = (0..4u64).map(cc_label).max().unwrap();
        for v in 0..4 {
            assert_eq!(label_of(&states, v), expect, "vertex {v}");
        }
    }

    #[test]
    fn two_components_two_labels() {
        let states = run(&[(0, 1), (10, 11)], 2);
        let a = cc_label(0).max(cc_label(1));
        let b = cc_label(10).max(cc_label(11));
        assert_eq!(label_of(&states, 0), a);
        assert_eq!(label_of(&states, 1), a);
        assert_eq!(label_of(&states, 10), b);
        assert_eq!(label_of(&states, 11), b);
    }

    #[test]
    fn merging_components_floods_dominator() {
        let engine = Engine::new(IncCc, EngineConfig::undirected(2));
        engine.try_ingest_pairs(&[(0, 1), (10, 11)]).unwrap();
        engine.try_await_quiescence().unwrap();
        engine.try_ingest_pairs(&[(1, 10)]).unwrap(); // case (ii): bridge two components
        let states = engine.try_finish().unwrap().states.into_vec();
        let dominator = [0u64, 1, 10, 11]
            .iter()
            .map(|&v| cc_label(v))
            .max()
            .unwrap();
        for v in [0u64, 1, 10, 11] {
            assert_eq!(label_of(&states, v), dominator, "vertex {v}");
        }
    }

    #[test]
    fn internal_edge_is_trivial_no_label_change() {
        // Case (i): an edge within a component must not disturb the label.
        let engine = Engine::new(IncCc, EngineConfig::undirected(2));
        engine.try_ingest_pairs(&[(0, 1), (1, 2)]).unwrap();
        engine.try_await_quiescence().unwrap();
        let before = engine.try_collect_live().unwrap();
        engine.try_ingest_pairs(&[(0, 2)]).unwrap();
        let after = engine.try_finish().unwrap().states;
        for v in 0..3u64 {
            assert_eq!(before.get(v), after.get(v), "vertex {v}");
        }
    }

    #[test]
    fn filtered_run_matches_sequential_fifo() {
        let edges: Vec<(u64, u64)> = (0..100).map(|i| (i % 40, (i * 7 + 1) % 40)).collect();
        let mut fifo = SequentialEngine::undirected(IncCc);
        fifo.apply_pairs(&edges);
        assert_eq!(fifo.states(), run(&edges, 4));
    }

    #[test]
    fn matches_static_oracle_on_random_graph() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31);
        let n = 300u64;
        let edges: Vec<(u64, u64)> = (0..600)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|&(a, b)| a != b)
            .collect();
        let states = run(&edges, 4);

        let sym = remo_baseline::symmetrize(&edges);
        let csr = remo_store::Csr::from_edges(n as usize, &sym);
        let oracle = remo_baseline::components_dominator_label(&csr, cc_label);
        for &(v, label) in &states {
            assert_eq!(label, oracle[v as usize], "vertex {v}");
        }
    }
}
