//! Incremental Multi S-T Connectivity (paper Algorithm 7).
//!
//! Each vertex stores the set of sources it is connected to; "the same
//! argument can be extended to multi S-T connectivity by using a bitmap"
//! (§II-B). When two vertices meet over an edge they compare sets: equal →
//! nothing; pure superset → notify back; pure subset → adopt and broadcast;
//! mixed → union and broadcast (eventually exchanging sets). The state only
//! ever gains bits — a convex, monotone lattice — so the "When is T
//! connected to S?" trigger fires at most once and never falsely (§III-E).
//!
//! Two implementations: [`IncStCon`] packs up to 64 sources in a `u64`
//! (the configuration of the paper's Fig. 7, which sweeps 0..64 sources),
//! and [`IncStConWide`] uses a growable [`BitSet`] for arbitrarily many.

use remo_core::{AlgoCtx, Algorithm, VertexId, Weight};
use remo_store::BitSet;

/// Multi S-T connectivity over at most 64 sources (u64 bitmask state).
///
/// The source list fixes each source's bit index. Call
/// [`remo_core::Engine::try_init_vertex`] for each source to start its flow.
#[derive(Debug, Clone)]
pub struct IncStCon {
    sources: Vec<VertexId>,
}

impl IncStCon {
    /// Creates the algorithm for the given sources (at most 64).
    pub fn new(sources: Vec<VertexId>) -> Self {
        assert!(sources.len() <= 64, "u64 mask supports at most 64 sources");
        IncStCon { sources }
    }

    /// Bit index of `v` in the source list, if it is a source.
    fn source_bit(&self, v: VertexId) -> Option<u32> {
        self.sources.iter().position(|&s| s == v).map(|i| i as u32)
    }
}

#[inline]
fn union_mask(bits: u64) -> impl Fn(&mut u64) -> bool {
    move |s: &mut u64| {
        let merged = *s | bits;
        let changed = merged != *s;
        *s = merged;
        changed
    }
}

impl Algorithm for IncStCon {
    type State = u64;
    type Edge = ();

    /// Begin a source flow from this vertex (Algorithm 7 lines 2-4).
    fn init(&self, ctx: &mut impl AlgoCtx<u64>) {
        if let Some(bit) = self.source_bit(ctx.vertex()) {
            if ctx.apply(union_mask(1u64 << bit)) {
                let s = *ctx.state();
                ctx.update_nbrs(&s);
            }
        }
    }

    // "Do nothing but wait" on add (line 7).

    /// Same logic as the update step (lines 9-11).
    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<u64>,
        visitor: VertexId,
        value: &u64,
        w: Weight,
    ) {
        self.on_update(ctx, visitor, value, w);
    }

    /// Set comparison: superset / subset / mixed (lines 13-30).
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: Weight) {
        let mine = *ctx.state();
        let theirs = *value;
        if mine == theirs {
            // Identical connectivity: nothing to exchange.
        } else if theirs & !mine == 0 {
            // We are a pure superset: notify the visitor back.
            ctx.update_single_nbr(visitor, &mine);
        } else {
            // Subset or mixed: union and broadcast. (The mixed case also
            // notifies the visitor implicitly, since it is among nbrs after
            // the reverse-add — and the broadcast carries the union.)
            if ctx.apply(union_mask(theirs)) {
                let s = *ctx.state();
                ctx.update_nbrs(&s);
            }
        }
    }
}

/// Multi S-T connectivity with an unbounded source set (BitSet state):
/// the paper's bitmap, generalized past one machine word.
#[derive(Debug, Clone)]
pub struct IncStConWide {
    sources: Vec<VertexId>,
}

impl IncStConWide {
    /// Creates the algorithm for any number of sources.
    pub fn new(sources: Vec<VertexId>) -> Self {
        IncStConWide { sources }
    }

    fn source_bit(&self, v: VertexId) -> Option<usize> {
        self.sources.iter().position(|&s| s == v)
    }
}

impl Algorithm for IncStConWide {
    type State = BitSet;
    type Edge = ();

    fn init(&self, ctx: &mut impl AlgoCtx<BitSet>) {
        if let Some(bit) = self.source_bit(ctx.vertex()) {
            if ctx.apply(move |s: &mut BitSet| s.insert(bit)) {
                let s = ctx.state().clone();
                ctx.update_nbrs(&s);
            }
        }
    }

    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<BitSet>,
        visitor: VertexId,
        value: &BitSet,
        w: Weight,
    ) {
        self.on_update(ctx, visitor, value, w);
    }

    fn on_update(
        &self,
        ctx: &mut impl AlgoCtx<BitSet>,
        visitor: VertexId,
        value: &BitSet,
        _w: Weight,
    ) {
        if ctx.state().same_elements(value) {
            return;
        }
        if value.is_subset(ctx.state()) {
            let s = ctx.state().clone();
            ctx.update_single_nbr(visitor, &s);
        } else if ctx.apply(|s: &mut BitSet| s.union_in_place(value)) {
            let s = ctx.state().clone();
            ctx.update_nbrs(&s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remo_core::{Engine, EngineConfig};

    fn run(sources: &[u64], edges: &[(u64, u64)], shards: usize) -> Vec<(u64, u64)> {
        let engine = Engine::new(
            IncStCon::new(sources.to_vec()),
            EngineConfig::undirected(shards),
        );
        for &s in sources {
            engine.try_init_vertex(s).unwrap();
        }
        engine.try_ingest_pairs(edges).unwrap();
        engine.try_finish().unwrap().states.into_vec()
    }

    fn mask(states: &[(u64, u64)], v: u64) -> u64 {
        states
            .iter()
            .find(|&&(id, _)| id == v)
            .map(|&(_, s)| s)
            .unwrap_or(0)
    }

    #[test]
    fn single_source_floods_component() {
        let states = run(&[0], &[(0, 1), (1, 2), (5, 6)], 2);
        assert_eq!(mask(&states, 0), 1);
        assert_eq!(mask(&states, 1), 1);
        assert_eq!(mask(&states, 2), 1);
        assert_eq!(mask(&states, 5), 0);
    }

    #[test]
    fn two_sources_exchange_sets() {
        // Sources 0 and 3 in one chain: everyone ends with both bits.
        let states = run(&[0, 3], &[(0, 1), (1, 2), (2, 3)], 2);
        for v in 0..4u64 {
            assert_eq!(mask(&states, v), 0b11, "vertex {v}");
        }
    }

    #[test]
    fn late_bridge_merges_flows() {
        let engine = Engine::new(IncStCon::new(vec![0, 10]), EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        engine.try_init_vertex(10).unwrap();
        engine.try_ingest_pairs(&[(0, 1), (10, 11)]).unwrap();
        engine.try_await_quiescence().unwrap();
        engine.try_ingest_pairs(&[(1, 11)]).unwrap();
        let states = engine.try_finish().unwrap().states.into_vec();
        for v in [0u64, 1, 10, 11] {
            assert_eq!(mask(&states, v), 0b11, "vertex {v}");
        }
    }

    #[test]
    fn init_before_edges_is_fine() {
        let engine = Engine::new(IncStCon::new(vec![7]), EngineConfig::undirected(1));
        engine.try_init_vertex(7).unwrap(); // source exists before any topology
        engine.try_await_quiescence().unwrap();
        engine.try_ingest_pairs(&[(7, 8)]).unwrap();
        let states = engine.try_finish().unwrap().states.into_vec();
        assert_eq!(mask(&states, 8), 1);
    }

    #[test]
    fn wide_variant_matches_narrow() {
        let sources = vec![0u64, 5, 9];
        let edges: Vec<(u64, u64)> = (0..30).map(|i| (i, (i + 3) % 30)).collect();
        let narrow = run(&sources, &edges, 2);

        let engine = Engine::new(
            IncStConWide::new(sources.clone()),
            EngineConfig::undirected(2),
        );
        for &s in &sources {
            engine.try_init_vertex(s).unwrap();
        }
        engine.try_ingest_pairs(&edges).unwrap();
        let wide = engine.try_finish().unwrap().states.into_vec();
        for &(v, m) in &narrow {
            let w: &BitSet = &wide.iter().find(|&&(id, _)| id == v).unwrap().1;
            let as_mask: u64 = w.iter().map(|b| 1u64 << b).sum();
            assert_eq!(as_mask, m, "vertex {v}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_sources_rejected() {
        IncStCon::new((0..65).collect());
    }
}
