//! Live degree tracking — the paper's §II-A motivating example.
//!
//! "In an event-centric design, we simply implement a callback on edge
//! insertion ...: if an edge is added, increment a counter tracking the
//! vertex degree ... resulting in a real-time analysis of a specific
//! vertices degree or enabling a user-defined callback if the degree exceeds
//! a certain threshold." State is a plain counter — monotone increasing in
//! an add-only world.

use remo_core::{AlgoCtx, Algorithm, VertexId, Weight};

/// Tracks total degree on undirected graphs, out-degree on directed ones.
#[derive(Debug, Default, Clone, Copy)]
pub struct DegreeCount;

impl Algorithm for DegreeCount {
    type State = u64;
    type Edge = ();

    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _visitor: VertexId, _value: &u64, _w: Weight) {
        ctx.apply(|d| {
            *d += 1;
            true
        });
    }

    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<u64>,
        _visitor: VertexId,
        _value: &u64,
        _w: Weight,
    ) {
        ctx.apply(|d| {
            *d += 1;
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remo_core::{Engine, EngineBuilder, EngineConfig};

    #[test]
    fn undirected_degrees() {
        let engine = Engine::new(DegreeCount, EngineConfig::undirected(2));
        engine.try_ingest_pairs(&[(0, 1), (0, 2), (0, 3)]).unwrap();
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.get(0), Some(&3));
        assert_eq!(states.get(1), Some(&1));
    }

    #[test]
    fn directed_out_degrees() {
        let engine = Engine::new(DegreeCount, EngineConfig::directed(2));
        engine.try_ingest_pairs(&[(0, 1), (0, 2), (1, 2)]).unwrap();
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.get(0), Some(&2));
        assert_eq!(states.get(1), Some(&1));
        // Vertex 2 never appears as a source: no record, i.e. degree 0.
        assert_eq!(states.get(2), None);
    }

    #[test]
    fn duplicate_edges_count_as_events() {
        // The degree example counts edge *events* (the paper's callback has
        // no dedup); duplicates in the stream increment again.
        let engine = Engine::new(DegreeCount, EngineConfig::undirected(1));
        engine.try_ingest_pairs(&[(0, 1), (0, 1)]).unwrap();
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.get(0), Some(&2));
    }

    #[test]
    fn threshold_trigger_fires_once() {
        // "Enabling a user-defined callback if the degree exceeds a certain
        // threshold" (§II-A).
        let mut builder = EngineBuilder::new(DegreeCount, EngineConfig::undirected(2));
        builder.trigger(|_, d: &u64| *d >= 3);
        let engine = builder.build();
        engine
            .try_ingest_pairs(&[(7, 1), (7, 2), (7, 3), (7, 4), (7, 5)])
            .unwrap();
        engine.try_await_quiescence().unwrap();
        let fires: Vec<_> = engine.trigger_events().try_iter().collect();
        assert_eq!(fires.len(), 1, "monotone trigger must fire exactly once");
        assert_eq!(fires[0].vertex, 7);
        let result = engine.try_finish().unwrap();
        assert_eq!(result.metrics.total().triggers_fired, 1);
    }
}
