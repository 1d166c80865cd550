//! Engine edge cases: inputs real event streams contain but generators
//! avoid (self-loops, duplicates, empty streams), teardown paths, and
//! snapshot corner cases.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remo_core::{
    AlgoCtx, Algorithm, Engine, EngineConfig, Partitioner, SequentialEngine, TopoEvent, VertexId,
    Weight,
};

#[derive(Debug, Default, Clone, Copy)]
struct Touch;

impl Algorithm for Touch {
    type State = u64;
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: Weight) {
        ctx.apply(|s| {
            *s += 1;
            true
        });
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: Weight) {
        ctx.apply(|s| {
            *s += 1;
            true
        });
    }
}

#[test]
fn self_loops_terminate_and_count_once_per_side() {
    let engine = Engine::new(Touch, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(5, 5), (5, 5)]).unwrap();
    let r = engine.try_finish().unwrap();
    // Each self-loop event: one Add at 5, one ReverseAdd at 5.
    assert_eq!(r.states.get(5), Some(&4));
    // The self-edge is stored once (dedup on the second event).
    assert_eq!(r.num_edges, 1);
}

#[test]
fn empty_streams_quiesce_immediately() {
    let engine = Engine::new(Touch, EngineConfig::undirected(3));
    engine
        .try_ingest(vec![Vec::new(), Vec::new(), Vec::new()])
        .unwrap();
    engine.try_await_quiescence().unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.num_vertices, 0);
}

#[test]
fn engine_with_no_work_finishes() {
    let engine = Engine::new(Touch, EngineConfig::undirected(1));
    let r = engine.try_finish().unwrap();
    assert_eq!(r.num_edges, 0);
    assert!(r.states.is_empty());
}

#[test]
fn drop_without_finish_does_not_hang() {
    let engine = Engine::new(Touch, EngineConfig::undirected(4));
    let pairs: Vec<(u64, u64)> = (0..10_000).map(|i| (i, i + 1)).collect();
    engine.try_ingest_pairs(&pairs).unwrap();
    drop(engine); // teardown mid-stream must terminate promptly
}

#[test]
fn snapshot_twice_with_no_traffic() {
    let mut engine = Engine::new(Touch, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1)]).unwrap();
    engine.try_await_quiescence().unwrap();
    let s1 = engine.try_snapshot().unwrap();
    let s2 = engine.try_snapshot().unwrap();
    assert_eq!(s1.len(), s2.len());
    assert_eq!(s1.get(0), s2.get(0));
    assert!(s2.epoch > s1.epoch);
    let _ = engine.try_finish().unwrap();
}

#[test]
fn snapshot_on_fresh_engine_is_empty() {
    let mut engine = Engine::new(Touch, EngineConfig::undirected(2));
    let snap = engine.try_snapshot().unwrap();
    assert!(snap.is_empty());
    let _ = engine.try_finish().unwrap();
}

#[test]
fn collect_live_mid_session_then_more_work() {
    let engine = Engine::new(Touch, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1)]).unwrap();
    let live1 = engine.try_collect_live().unwrap();
    assert_eq!(live1.get(0), Some(&1));
    engine.try_ingest_pairs(&[(0, 2)]).unwrap();
    let live2 = engine.try_collect_live().unwrap();
    assert_eq!(live2.get(0), Some(&2));
    let _ = engine.try_finish().unwrap();
}

#[test]
fn huge_vertex_ids_are_fine() {
    // Ids are hashed, never used as indices.
    let engine = Engine::new(Touch, EngineConfig::undirected(2));
    engine
        .try_ingest_pairs(&[(u64::MAX - 1, u64::MAX), (0, u64::MAX)])
        .unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.states.get(u64::MAX), Some(&2));
}

#[test]
fn weighted_and_unweighted_batches_interleave() {
    let engine = Engine::new(Touch, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1)]).unwrap();
    engine.try_ingest_weighted(&[(1, 2, 50)]).unwrap();
    engine
        .try_ingest(vec![vec![TopoEvent::weighted(2, 3, 7)]])
        .unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.num_edges, 6);
}

#[test]
fn removal_of_missing_edge_is_harmless() {
    let engine = Engine::new(Touch, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1)]).unwrap();
    engine.try_await_quiescence().unwrap();
    engine.try_delete_pairs(&[(5, 6), (0, 9)]).unwrap(); // never existed
    let r = engine.try_finish().unwrap();
    assert_eq!(r.num_edges, 2);
    assert_eq!(r.metrics.total().edges_removed, 0);
}

#[test]
fn many_small_ingests_accumulate() {
    let engine = Engine::new(Touch, EngineConfig::undirected(2));
    for i in 0..100u64 {
        engine.try_ingest_pairs(&[(i, i + 1)]).unwrap();
    }
    let r = engine.try_finish().unwrap();
    assert_eq!(r.metrics.total().topo_ingested, 100);
    assert_eq!(r.num_edges, 200);
}

#[test]
fn partial_batches_flush_at_idle() {
    // With a batch size far larger than the event count, every cross-shard
    // envelope sits in a partial outbox; only the idle-flush path can
    // deliver them. A deadline turns a lost-flush bug into a fast failure.
    let config = EngineConfig {
        envelope_batch: 1 << 20,
        quiescence_deadline: Some(std::time::Duration::from_secs(10)),
        ..EngineConfig::undirected(4)
    };
    let engine = Engine::new(Touch, config);
    engine
        .try_ingest_pairs(&[(0, 1), (1, 2), (2, 3), (3, 4)])
        .unwrap();
    engine.try_await_quiescence().unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.states.get(1), Some(&2));
    assert_eq!(r.states.get(4), Some(&1));
}

#[test]
fn envelope_batch_of_one_streams_eagerly() {
    // The other extreme: flush on every envelope.
    let config = EngineConfig {
        envelope_batch: 1,
        ..EngineConfig::undirected(3)
    };
    let engine = Engine::new(Touch, config);
    engine.try_ingest_pairs(&[(0, 1), (1, 2), (2, 0)]).unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.states.get(0), Some(&2));
    assert_eq!(r.states.get(1), Some(&2));
    assert_eq!(r.states.get(2), Some(&2));
}

/// An ingest of fewer items than shards leaves the other shards' streams
/// empty, and an empty stream is not sent: no message, no wake, nothing
/// counted injected. One pair whose endpoints both live on shard 0 keeps
/// the other three shards out of the run altogether.
#[test]
fn ingest_of_fewer_items_than_shards_wakes_only_the_streams_it_fills() {
    let part = Partitioner::new(4);
    let mut on_shard_0 = (0u64..).filter(|&v| part.owner(v) == 0);
    let (a, b) = (on_shard_0.next().unwrap(), on_shard_0.next().unwrap());
    let config = EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(10)),
        ..EngineConfig::undirected(4)
    };
    let engine = Engine::new(Touch, config);
    engine.try_ingest_pairs(&[(a, b)]).unwrap();
    engine.try_await_quiescence().unwrap();
    assert!(engine.counters_balanced());
    let r = engine.try_finish().unwrap();
    r.metrics.verify_balance().unwrap();
    assert_eq!(r.states.into_vec(), vec![(a, 1), (b, 1)]);
    assert_eq!(r.num_edges, 2);
    assert_eq!(r.metrics.per_shard[0].topo_ingested, 1);
    for idle in &r.metrics.per_shard[1..] {
        assert_eq!(idle.topo_ingested, 0);
        assert_eq!(idle.events_processed(), 0);
    }
}

/// A stream of `len` toggles over `edges`: each step picks an edge and
/// adds it if the model lacks it, removes it otherwise — so the same
/// edges are added, removed and re-added many times, always with the
/// orientation given (an edge's events must share one owner to be
/// ordered). `model` receives both directions, as the undirected engine
/// stores them.
fn toggle_stream(
    edges: &[(VertexId, VertexId)],
    len: usize,
    seed: u64,
    model: &mut BTreeSet<(VertexId, VertexId)>,
) -> Vec<TopoEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            if model.insert((a, b)) {
                model.insert((b, a));
                TopoEvent::new(a, b)
            } else {
                model.remove(&(a, b));
                model.remove(&(b, a));
                TopoEvent::removal(a, b)
            }
        })
        .collect()
}

/// Per-stream FIFO across pull-run boundaries: a shard pulls its stream
/// in bounded runs (64 events), and a remove must never overtake the add
/// it undoes, within a run or across two. Two pre-split streams, each
/// more than six runs long, toggle disjoint edge sets over the same 25
/// vertices; the adjacency the shards end with must be the set model
/// applied in stream order, at every batch size and with and without
/// cross-shard lanes.
#[test]
fn stream_order_survives_pull_run_boundaries() {
    let path: Vec<(VertexId, VertexId)> = (0..24).map(|k| (k, k + 1)).collect();
    let skip: Vec<(VertexId, VertexId)> = (0..23).map(|k| (k, k + 2)).collect();
    let mut model = BTreeSet::new();
    let streams = vec![
        toggle_stream(&path, 400, 18, &mut model),
        toggle_stream(&skip, 400, 81, &mut model),
    ];
    let injected: usize = streams.iter().map(Vec::len).sum();
    assert!(!model.is_empty(), "the streams must leave edges standing");

    for shards in [1, 3] {
        for envelope_batch in [1, EngineConfig::undirected(1).envelope_batch] {
            let config = EngineConfig {
                envelope_batch,
                quiescence_deadline: Some(Duration::from_secs(30)),
                ..EngineConfig::undirected(shards)
            };
            let ctx = format!("P={shards} batch={envelope_batch}");
            let engine = Engine::new(Touch, config);
            engine.try_ingest(streams.clone()).unwrap();
            engine.try_await_quiescence().unwrap();
            assert!(engine.counters_balanced(), "{ctx}");
            let r = engine.try_finish().unwrap();
            r.metrics.verify_balance().unwrap();
            assert_eq!(r.metrics.total().topo_ingested, injected as u64, "{ctx}");
            let stored: BTreeSet<(VertexId, VertexId)> = r
                .tables
                .iter()
                .flat_map(|t| t.iter())
                .flat_map(|(v, _, adj)| adj.iter().map(move |(nbr, _)| (v, nbr)))
                .collect();
            assert_eq!(stored, model, "{ctx}");
            assert_eq!(r.num_edges, model.len() as u64, "{ctx}");
        }
    }
}

/// `Touch`, except that `init` holds its shard inside the callback — that
/// is, away from its lanes — from the first barrier to the second.
struct Gated(Arc<[Barrier; 2]>);

impl Algorithm for Gated {
    type State = u64;
    fn init(&self, _ctx: &mut impl AlgoCtx<u64>) {
        self.0[0].wait();
        self.0[1].wait();
    }
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: Weight) {
        Touch.on_add(ctx, v, val, w);
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: Weight) {
        Touch.on_reverse_add(ctx, v, val, w);
    }
}

/// A full data lane holds its sender's batches back, and they must reach
/// the receiver behind what the lane already carries and in the order
/// they were flushed, or the pair's FIFO breaks. Shard 1 is held inside a
/// channel dispatch while a hub on shard 0 adds and then removes an edge
/// to each of 64 leaves on shard 1, one envelope per batch: the first
/// reverse-adds fill the lane, the rest — and every reverse-remove — pile
/// up at shard 0, which goes idle on them. Once released, shard 1 drains
/// the lane and shard 0 ships its backlog; a reverse-remove overtaking its
/// leaf's reverse-add would leave that edge standing.
#[test]
fn full_lane_holds_the_backlog_in_order() {
    let part = Partitioner::new(2);
    let hub = (0u64..).find(|&v| part.owner(v) == 0).unwrap();
    let mut on_shard_1 = (0u64..).filter(|&v| part.owner(v) == 1);
    let held = on_shard_1.next().unwrap();
    let leaves: Vec<VertexId> = on_shard_1.take(64).collect();
    let burst: Vec<TopoEvent> = leaves
        .iter()
        .map(|&leaf| TopoEvent::new(hub, leaf))
        .chain(leaves.iter().map(|&leaf| TopoEvent::removal(hub, leaf)))
        .collect();

    let gate = Arc::new([Barrier::new(2), Barrier::new(2)]);
    let config = EngineConfig {
        envelope_batch: 1,
        quiescence_deadline: Some(Duration::from_secs(10)),
        ..EngineConfig::undirected(2)
    };
    let engine = Engine::new(Gated(Arc::clone(&gate)), config);
    engine.try_init_vertex(held).unwrap();
    gate[0].wait();
    engine.try_ingest(vec![burst.clone(), Vec::new()]).unwrap();
    // Shard 0 publishes its counters when it goes idle, the burst shipped.
    let patience = Instant::now() + Duration::from_secs(10);
    while engine.metrics_now().per_shard[0].topo_ingested < burst.len() as u64 {
        assert!(Instant::now() < patience, "shard 0 never drained the burst");
        std::thread::yield_now();
    }
    gate[1].wait();

    engine.try_await_quiescence().unwrap();
    assert!(engine.counters_balanced());
    let r = engine.try_finish().unwrap();
    r.metrics.verify_balance().unwrap();
    assert!(r.metrics.total().lane_full_fallbacks > 0);

    let mut seq = SequentialEngine::undirected(Touch);
    seq.init_vertex(held);
    for &ev in &burst {
        seq.apply(ev);
    }
    assert_eq!(r.num_edges, seq.num_edges());
    assert_eq!(r.states.into_vec(), seq.states());
}
