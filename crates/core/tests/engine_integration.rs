//! Engine-level integration tests: the infrastructure guarantees of
//! §III (event routing, undirected serialization, quiescence detection,
//! continuous snapshots, triggers) exercised through small
//! purpose-built algorithms, independent of the paper's headline algorithms.

use remo_core::{
    AlgoCtx, Algorithm, Engine, EngineBuilder, EngineConfig, TopoEvent, VertexId, Weight,
};

/// Counts add/reverse-add events per vertex (monotone counter).
#[derive(Debug, Default, Clone, Copy)]
struct TouchCount;

impl Algorithm for TouchCount {
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

/// Min-label flood: every vertex converges to the minimum vertex id in its
/// component (a classic monotone fixpoint, cheap to oracle).
#[derive(Debug, Default, Clone, Copy)]
struct MinLabel;

impl Algorithm for MinLabel {
    type State = u64;

    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: Weight) {
        let me = ctx.vertex() + 1; // avoid the 0 = bottom sentinel
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

fn ring_edges(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

#[test]
fn undirected_add_produces_symmetric_touches() {
    let engine = Engine::new(TouchCount, EngineConfig::undirected(3));
    engine.try_ingest_pairs(&[(1, 2)]).unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.states.get(1), Some(&1));
    assert_eq!(r.states.get(2), Some(&1));
    assert_eq!(r.num_edges, 2, "undirected edge stored in both directions");
}

#[test]
fn directed_add_touches_only_source() {
    let engine = Engine::new(TouchCount, EngineConfig::directed(3));
    engine.try_ingest_pairs(&[(1, 2)]).unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.states.get(1), Some(&1));
    assert_eq!(r.states.get(2), None, "no reverse-add in directed mode");
    assert_eq!(r.num_edges, 1);
}

#[test]
fn min_label_converges_on_every_shard_count() {
    let edges = ring_edges(64);
    let mut reference: Option<Vec<(u64, u64)>> = None;
    for shards in [1usize, 2, 3, 4, 8] {
        let engine = Engine::new(MinLabel, EngineConfig::undirected(shards));
        engine.try_ingest_pairs(&edges).unwrap();
        let states = engine.try_finish().unwrap().states.into_vec();
        for &(_, label) in &states {
            assert_eq!(label, 1, "ring must flood to min id + 1 at P={shards}");
        }
        match &reference {
            None => reference = Some(states),
            Some(r) => assert_eq!(r, &states, "shard count changed the fixpoint"),
        }
    }
}

#[test]
fn multi_stream_splits_converge_identically() {
    let edges = ring_edges(50);
    let engine_a = Engine::new(MinLabel, EngineConfig::undirected(4));
    engine_a.try_ingest_pairs(&edges).unwrap();
    let a = engine_a.try_finish().unwrap().states.into_vec();

    // Same edges, adversarial split: all edges in one stream, then reversed
    // order in many tiny streams.
    let engine_b = Engine::new(MinLabel, EngineConfig::undirected(4));
    let mut streams: Vec<Vec<TopoEvent>> = vec![Vec::new(); 4];
    for (i, &(s, d)) in edges.iter().rev().enumerate() {
        streams[(i / 5) % 4].push(TopoEvent::new(s, d));
    }
    engine_b.try_ingest(streams).unwrap();
    let b = engine_b.try_finish().unwrap().states.into_vec();
    assert_eq!(a, b);
}

#[test]
fn quiescence_then_more_work_then_quiescence() {
    let engine = Engine::new(TouchCount, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1)]).unwrap();
    engine.try_await_quiescence().unwrap();
    engine.try_ingest_pairs(&[(0, 2), (2, 3)]).unwrap();
    engine.try_await_quiescence().unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.states.get(0), Some(&2));
    assert_eq!(r.states.get(3), Some(&1));
    // Far fewer batches per pair than a lane holds, and every lane exists
    // before the first shard thread starts: nothing may take the channel
    // fallback.
    assert_eq!(r.metrics.total().lane_full_fallbacks, 0);
}

#[test]
fn snapshot_mid_ingest_excludes_later_epoch() {
    // Ingest one batch; snapshot; ingest a second batch. The snapshot must
    // reflect only the first batch even though collection overlaps batch 2.
    let mut engine = Engine::new(TouchCount, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1), (0, 2)]).unwrap();
    engine.try_await_quiescence().unwrap();

    // Start the second batch *before* snapshotting so its (new-epoch) events
    // interleave with collection.
    engine.try_ingest_pairs(&[(0, 3), (0, 4), (0, 5)]).unwrap();
    let snap = engine.try_snapshot().unwrap();
    let r = engine.try_finish().unwrap();

    // Snapshot: vertex 0 had exactly 2 touches at the boundary... except the
    // second batch may have partially landed in the old epoch: shards tag
    // stream pulls with the epoch *at pull time*, and the bump happens
    // inside snapshot(). What IS guaranteed: snapshot counts <= final
    // counts, and the final state sees everything.
    let snap0 = snap.get(0).copied().unwrap_or(0);
    assert!(
        (2..=5).contains(&snap0),
        "snapshot count {snap0} out of range"
    );
    assert_eq!(r.states.get(0), Some(&5));
}

#[test]
fn snapshot_boundary_is_exact_when_quiesced() {
    // With the engine quiescent, a snapshot is exactly the state so far and
    // later events don't leak in.
    let mut engine = Engine::new(TouchCount, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1), (0, 2)]).unwrap();
    engine.try_await_quiescence().unwrap();
    let snap = engine.try_snapshot().unwrap();
    engine.try_ingest_pairs(&[(0, 3), (0, 4)]).unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(snap.get(0), Some(&2));
    assert_eq!(snap.get(3), None, "vertex 3 did not exist at the boundary");
    assert_eq!(r.states.get(0), Some(&4));
}

#[test]
fn consecutive_snapshots_are_monotone() {
    let mut engine = Engine::new(TouchCount, EngineConfig::undirected(4));
    let mut last = 0u64;
    for batch in 0..4u64 {
        let pairs: Vec<(u64, u64)> = (0..50).map(|i| (7, 1000 + batch * 50 + i)).collect();
        engine.try_ingest_pairs(&pairs).unwrap();
        let snap = engine.try_snapshot().unwrap();
        let now = snap.get(7).copied().unwrap_or(0);
        assert!(now >= last, "vertex 7 went backwards: {last} -> {now}");
        last = now;
    }
    let r = engine.try_finish().unwrap();
    assert_eq!(r.states.get(7), Some(&200));
}

#[test]
fn triggers_fire_exactly_once_with_causal_seq() {
    let mut builder = EngineBuilder::new(TouchCount, EngineConfig::undirected(2));
    let t0 = builder.trigger("t>=1", |_, s: &u64| *s >= 1);
    let t1 = builder.trigger("t>=3", |_, s: &u64| *s >= 3);
    let engine = builder.build();
    engine
        .try_ingest_pairs(&[(9, 1), (9, 2), (9, 3), (9, 4)])
        .unwrap();
    engine.try_await_quiescence().unwrap();
    let fires: Vec<_> = engine.trigger_events().try_iter().collect();
    // t0 fires for every touched vertex (5 of them), t1 only for vertex 9.
    let t0_fires: Vec<_> = fires.iter().filter(|f| f.trigger == t0).collect();
    let t1_fires: Vec<_> = fires.iter().filter(|f| f.trigger == t1).collect();
    assert_eq!(t0_fires.len(), 5);
    assert_eq!(t1_fires.len(), 1);
    assert_eq!(t1_fires[0].vertex, 9);
    drop(engine);
}

#[test]
fn removal_events_update_topology() {
    let engine = Engine::new(TouchCount, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1), (0, 2)]).unwrap();
    engine.try_await_quiescence().unwrap();
    engine.try_delete_pairs(&[(0, 1)]).unwrap();
    let r = engine.try_finish().unwrap();
    // 4 directed edges added, 2 removed.
    assert_eq!(r.num_edges, 2);
    assert_eq!(r.metrics.total().edges_removed, 2);
}

#[test]
fn duplicate_edges_are_deduped_in_topology() {
    let engine = Engine::new(TouchCount, EngineConfig::undirected(1));
    engine.try_ingest_pairs(&[(0, 1), (0, 1), (1, 0)]).unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.num_edges, 2, "one undirected edge = two directed records");
    assert!(r.metrics.total().duplicate_edges > 0);
}

#[test]
fn heavy_fanout_stress_with_many_shards() {
    // A star graph pushes every event through the hub's shard; make sure
    // nothing deadlocks and counts are exact.
    let n: u64 = 5_000;
    let pairs: Vec<(u64, u64)> = (1..=n).map(|i| (0, i)).collect();
    let engine = Engine::new(TouchCount, EngineConfig::undirected(8));
    engine.try_ingest_pairs(&pairs).unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.states.get(0), Some(&n));
    assert_eq!(r.metrics.total().topo_ingested, n);
    assert_eq!(r.num_vertices as u64, n + 1);
}

/// The transport's steady state end to end: drained batch buffers come
/// back over the recycle lanes fast enough that at least nine flushes in
/// ten refill from the pool rather than the allocator. (No bound on
/// `lane_full_fallbacks`: it tracks the host's scheduling.)
#[test]
fn steady_state_flushes_recycle_their_buffers() {
    let mut x = 0x5eed_u64;
    let pairs: Vec<(u64, u64)> = (0..60_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 4096, (x >> 32) % 4096)
        })
        .collect();
    let engine = Engine::new(MinLabel, EngineConfig::undirected(4));
    engine.try_ingest_pairs(&pairs).unwrap();
    let r = engine.try_finish().unwrap();
    r.metrics.verify_balance().unwrap();
    let t = r.metrics.total();
    assert!(t.lane_batches >= 100, "{} lane batches", t.lane_batches);
    assert!(
        t.batches_recycled * 10 >= t.lane_batches * 9,
        "{} of {} lane batches refilled from the pool",
        t.batches_recycled,
        t.lane_batches
    );
}

#[test]
fn init_routes_to_owning_shard() {
    #[derive(Debug, Default)]
    struct InitMark;
    impl Algorithm for InitMark {
        type State = u64;
        fn init(&self, ctx: &mut impl AlgoCtx<u64>) {
            ctx.apply(|s| {
                *s = 42;
                true
            });
        }
    }
    let engine = Engine::new(InitMark, EngineConfig::undirected(4));
    for v in 0..16u64 {
        engine.try_init_vertex(v).unwrap();
    }
    let r = engine.try_finish().unwrap();
    for v in 0..16u64 {
        assert_eq!(r.states.get(v), Some(&42), "vertex {v}");
    }
}
