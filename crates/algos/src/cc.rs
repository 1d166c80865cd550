//! Incremental Connected Components (paper Algorithm 6), labelled by
//! earliest edge.
//!
//! "The CC algorithm does not require an initiating vertex": a vertex
//! labels itself when an edge reaches it and label propagation settles the
//! fight. State: the label of the component the vertex can reach, and the
//! comparison keeps the **larger** label (lines 17-26: smaller adopts
//! larger), so states only rise.
//!
//! Algorithm 6 labels a vertex with `hash(ID)` (line 5), which makes the
//! fixpoint the largest hash among a component's members. Which side of a
//! merge relabels is then a coin flip, and on a skewed graph the coin
//! sometimes picks the giant component: every member re-sends to every
//! neighbour. Here a stream edge labels instead: its `Add` carries
//! [`stream_label`] of the edge's stream index, `u64::MAX − index`, which
//! [`IncCc::on_add`] adopts, and the reverse add adopts the first
//! endpoint's label. The fixpoint is each component's earliest stream
//! edge, so a merge relabels the side that formed later — almost never
//! the giant component. The label depends only on the input order, so a
//! given stream reaches the same labels on any shard count, call split or
//! recovery (§II-D), and equals `remo_baseline::components_earliest_edge`.
//!
//! An add no stream numbers — a [`QueryRegistry`](remo_core::QueryRegistry)
//! query's, whose Prime rebuilds from stored adjacency — carries 0 and
//! falls back to Algorithm 6's hash order, [`cc_label`]. Hash labels sit
//! below 2^63 and stream labels at or above it, so the two orders never
//! meet in one comparison. In hash order a vertex self-labels on *every*
//! first touch, reverse adds included (Algorithm 6 lets `reverse_add` only
//! adopt): with several concurrent streams, the same vertex can first be a
//! source in one and a destination in another, which would make "who
//! self-labels" order-dependent. The fixpoint is then exactly
//! `remo_baseline::components_dominator_label` over [`cc_label`].

use remo_core::codec;
use remo_core::{AlgoCtx, Algorithm, VertexId, Weight};
use remo_store::hash::mix64;

/// Stream labels are at least this, hash labels below it.
const STREAM_LABELS: u64 = 1 << 63;

/// A vertex's own component label in hash order: a well-mixed hash of its
/// id below 2^63, with 0 reserved as the "unlabelled" sentinel.
#[inline]
pub fn cc_label(v: VertexId) -> u64 {
    (mix64(v) >> 1).max(1)
}

/// The label a stream edge gives its component: `u64::MAX − index`, so an
/// earlier edge labels higher. At least 2^63 for every index below 2^63.
#[inline]
pub fn stream_label(index: u64) -> u64 {
    u64::MAX - index
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
    type Edge = ();
    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        codec::put_u64(*state, out);
    }

    fn decode_state(bytes: &[u8]) -> u64 {
        codec::get_u64(bytes)
    }

    fn stream_value(index: u64) -> u64 {
        stream_label(index)
    }

    /// Label the first endpoint of a new edge (Algorithm 6 lines 3-5) with
    /// the edge's stream label, or its own hash when the add has none. The
    /// visitor learns the label from the reverse add. Shards pull edges
    /// concurrently, so an edge can arrive after a later one labelled its
    /// endpoint's component: a label that raises a vertex that already
    /// has other neighbours goes on to them too.
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: Weight) {
        let label = if *value == 0 {
            cc_label(ctx.vertex())
        } else {
            *value
        };
        if ctx.apply(raise_to(label)) && ctx.degree() > 1 {
            ctx.update_nbrs_filtered(&label, |n, _| n != visitor);
        }
    }

    /// Adopt the first endpoint's label, which is at least the edge's own
    /// (in hash order, self-label first), and run the update logic.
    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<u64>,
        visitor: VertexId,
        value: &u64,
        w: Weight,
    ) {
        if *value < STREAM_LABELS {
            ctx.apply(raise_to(cc_label(ctx.vertex())));
        }
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
        for v in 0..4 {
            assert_eq!(label_of(&states, v), stream_label(0), "vertex {v}");
        }
    }

    #[test]
    fn two_components_two_labels() {
        let states = run(&[(0, 1), (10, 11)], 2);
        assert_eq!(label_of(&states, 0), stream_label(0));
        assert_eq!(label_of(&states, 1), stream_label(0));
        assert_eq!(label_of(&states, 10), stream_label(1));
        assert_eq!(label_of(&states, 11), stream_label(1));
    }

    #[test]
    fn merging_components_floods_dominator() {
        let engine = Engine::new(IncCc, EngineConfig::undirected(2));
        // Stream indices 0 and 1, then 2 in the next call.
        engine.try_ingest_pairs(&[(10, 11), (0, 1)]).unwrap();
        engine.try_await_quiescence().unwrap();
        engine.try_ingest_pairs(&[(1, 10)]).unwrap(); // case (ii): bridge two components
        let states = engine.try_finish().unwrap().states.into_vec();
        for v in [0u64, 1, 10, 11] {
            assert_eq!(label_of(&states, v), stream_label(0), "vertex {v}");
        }
    }

    #[test]
    fn stream_labels_sit_above_every_hash_label() {
        assert!(stream_label(0) == u64::MAX && stream_label(1) < stream_label(0));
        assert!(stream_label((1 << 63) - 1) >= STREAM_LABELS);
        assert!((0..10_000).all(|v| (1..STREAM_LABELS).contains(&cc_label(v))));
    }

    #[test]
    fn internal_edge_is_trivial_no_label_change() {
        // Case (i): an edge within a component must not disturb the label.
        let mut engine = Engine::new(IncCc, EngineConfig::undirected(2));
        engine.try_ingest_pairs(&[(0, 1), (1, 2)]).unwrap();
        let before = engine.try_snapshot().unwrap();
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
        use remo_gen::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(31);
        let n = 300u64;
        let edges: Vec<(u64, u64)> = (0..600)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|&(a, b)| a != b)
            .collect();
        let oracle: Vec<(u64, u64)> = remo_baseline::components_earliest_edge(&edges)
            .into_iter()
            .map(|(v, i)| (v, stream_label(i)))
            .collect();
        assert_eq!(run(&edges, 4), oracle);
    }
}
