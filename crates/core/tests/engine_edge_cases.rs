//! Engine edge cases: inputs real event streams contain but generators
//! avoid (self-loops, duplicates, empty streams), teardown paths, and
//! snapshot corner cases.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use remo_core::{
    codec, AlgoCtx, Algorithm, DurabilityConfig, Engine, EngineConfig, EngineError, Partitioner,
    QueryRegistry, SequentialEngine, TopoEvent, TopoOp, VertexId, Weight,
};
use remo_gen::rng::SmallRng;

/// The engine's per-shard ingest window: the most topology events it lets
/// wait unpulled at one shard (`INGEST_WINDOW`, four 1,024-event chunks).
const INGEST_WINDOW: u64 = 4_096;

#[derive(Debug, Default, Clone, Copy)]
struct Touch;

impl Algorithm for Touch {
    type State = u64;
    type Edge = ();
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
    engine.try_ingest_pairs(&[]).unwrap();
    engine.try_await_quiescence().unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.num_vertices, 0);
}

/// An ingest with nothing in it sends no chunk, so it must not arm the
/// ingest→fixpoint clock: an await after it would otherwise record a
/// spurious near-zero sample.
#[test]
fn empty_ingest_arms_no_fixpoint_clock() {
    let engine = Engine::new(Touch, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1)]).unwrap();
    engine.try_await_quiescence().unwrap();
    let before = engine.metrics_now().ingest_fixpoint.count;
    assert_eq!(before, 1, "a real ingest records one sample");
    engine.try_ingest_pairs(&[]).unwrap();
    engine.try_delete_pairs(&[]).unwrap();
    engine.try_ingest_weighted(&[]).unwrap();
    engine.try_await_quiescence().unwrap();
    assert_eq!(engine.metrics_now().ingest_fixpoint.count, before);
    let _ = engine.try_finish().unwrap();
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
    assert_eq!((s1.cut(), s2.cut()), (1, 1), "no traffic, no new cut");
    let _ = engine.try_finish().unwrap();
}

#[test]
fn snapshot_on_fresh_engine_is_empty() {
    let mut engine = Engine::new(Touch, EngineConfig::undirected(2));
    let snap = engine.try_snapshot().unwrap();
    assert!(snap.is_empty());
    assert_eq!(snap.cut(), 0);
    let _ = engine.try_finish().unwrap();
}

#[test]
fn collect_live_mid_session_then_more_work() {
    let mut engine = Engine::new(Touch, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&[(0, 1)]).unwrap();
    let live1 = engine.try_snapshot().unwrap();
    assert_eq!((live1.cut(), live1.get(0)), (1, Some(&1)));
    engine.try_ingest_pairs(&[(0, 2)]).unwrap();
    let live2 = engine.try_snapshot().unwrap();
    assert_eq!((live2.cut(), live2.get(0)), (2, Some(&2)));
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
    engine.try_ingest_weighted(&[(2, 3, 7)]).unwrap();
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
    // Four pairs are far below the 256-envelope batch, so every
    // cross-shard envelope sits in a partial outbox; only the idle-flush
    // path can deliver them. A deadline turns a lost-flush bug into a fast
    // failure.
    let config = EngineConfig {
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

/// The directed edges the shards of a finished run store.
fn stored_edges(r: &remo_core::RunResult<u64, ()>) -> BTreeSet<(VertexId, VertexId)> {
    r.tables
        .iter()
        .flat_map(|t| t.iter())
        .flat_map(|(v, _, adj)| adj.iter().map(move |(nbr, _)| (v, nbr)))
        .collect()
}

/// Feeds `events` in order, one pair per call. A one-pair call always
/// lands on shard 0, so the whole stream is shard 0's.
fn feed_one_pair_calls<A: Algorithm>(engine: &Engine<A>, events: &[TopoEvent]) {
    for ev in events {
        let pair = [(ev.src, ev.dst)];
        match ev.op {
            TopoOp::Add => engine.try_ingest_pairs(&pair).unwrap(),
            TopoOp::Remove => engine.try_delete_pairs(&pair).unwrap(),
        }
    }
}

/// Longer than two ingest windows, and not a whole number of chunks or
/// pull runs: every boundary falls inside a stream.
const PAST_TWO_WINDOWS: usize = 2 * INGEST_WINDOW as usize + 2_085;

/// Stream FIFO across pull-run and chunk boundaries: a shard pulls its
/// stream in bounded runs (64 events) out of the chunks the controller
/// hands out inside a window, and a remove must never overtake the add it
/// undoes — within a run, across two, across a chunk boundary, or across
/// a wait for room. Two toggle streams, each longer than two windows,
/// toggle disjoint edge sets over the same 25 vertices; they are fed
/// interleaved as one-pair calls, which all land on shard 0. So every
/// chunk is one event with its own op, and every run of 64 pulls crosses
/// 64 chunks. The adjacency the shards end with must be the set model
/// applied in stream order, with and without cross-shard lanes. (The
/// multi-shard order across calls is checked by
/// `pair_calls_keep_their_order_across_chunks`.)
#[test]
fn stream_order_survives_pull_run_boundaries() {
    let path: Vec<(VertexId, VertexId)> = (0..24).map(|k| (k, k + 1)).collect();
    let skip: Vec<(VertexId, VertexId)> = (0..23).map(|k| (k, k + 2)).collect();
    let mut model = BTreeSet::new();
    let path_stream = toggle_stream(&path, PAST_TWO_WINDOWS, 18, &mut model);
    let skip_stream = toggle_stream(&skip, PAST_TWO_WINDOWS, 81, &mut model);
    let stream: Vec<TopoEvent> = path_stream
        .into_iter()
        .zip(skip_stream)
        .flat_map(|(a, b)| [a, b])
        .collect();
    assert!(!model.is_empty(), "the streams must leave edges standing");

    for shards in [1, 3] {
        let config = EngineConfig {
            quiescence_deadline: Some(Duration::from_secs(30)),
            ..EngineConfig::undirected(shards)
        };
        let engine = Engine::new(Touch, config);
        feed_one_pair_calls(&engine, &stream);
        engine.try_await_quiescence().unwrap();
        assert!(engine.counters_balanced(), "P={shards}");
        let r = engine.try_finish().unwrap();
        r.metrics.verify_balance().unwrap();
        assert_eq!(r.metrics.per_shard[0].topo_ingested, stream.len() as u64);
        assert_eq!(r.metrics.total().topo_ingested, stream.len() as u64);
        assert_eq!(stored_edges(&r), model, "P={shards}");
        assert_eq!(r.num_edges, model.len() as u64, "P={shards}");
    }
}

/// The same order on the pair path, where a chunk carries bare pairs and
/// one op. Pair `i` of a call goes to shard `i % P`'s stream, so each call
/// lists *groups* of `P` edges, one per stream, and every group toggles
/// its edges together: an edge keeps its stream from call to call. Calls
/// alternate between `try_ingest_pairs` and `try_delete_pairs`, each
/// longer than two windows per shard, so the next call's first chunks
/// queue behind the last one's while the shards are still pulling it. An
/// edge must end as the last call that named it left it.
#[test]
fn pair_calls_keep_their_order_across_chunks() {
    for shards in [1usize, 3] {
        // Group k holds edge k of each stream's disjoint path.
        let groups: Vec<Vec<(VertexId, VertexId)>> = (0..24u64)
            .map(|k| {
                (0..shards as u64)
                    .map(|r| (100 * r + k, 100 * r + k + 1))
                    .collect()
            })
            .collect();
        let config = EngineConfig {
            quiescence_deadline: Some(Duration::from_secs(30)),
            ..EngineConfig::undirected(shards)
        };
        let engine = Engine::new(Touch, config);
        let mut model = BTreeSet::new();
        let mut rng = SmallRng::seed_from_u64(7 + shards as u64);
        let mut injected = 0;
        for call in 0..4 {
            let picks: Vec<usize> = (0..PAST_TWO_WINDOWS)
                .map(|_| rng.gen_range(0..groups.len()))
                .collect();
            let pairs: Vec<(VertexId, VertexId)> =
                picks.iter().flat_map(|&k| groups[k].clone()).collect();
            for &(a, b) in &pairs {
                if call % 2 == 0 {
                    model.insert((a, b));
                    model.insert((b, a));
                } else {
                    model.remove(&(a, b));
                    model.remove(&(b, a));
                }
            }
            if call % 2 == 0 {
                engine.try_ingest_pairs(&pairs).unwrap();
            } else {
                engine.try_delete_pairs(&pairs).unwrap();
            }
            injected += pairs.len();
        }
        engine.try_await_quiescence().unwrap();
        assert!(engine.counters_balanced());
        let r = engine.try_finish().unwrap();
        r.metrics.verify_balance().unwrap();
        assert_eq!(r.metrics.total().topo_ingested, injected as u64);
        assert_eq!(stored_edges(&r), model, "P={shards}");
    }
}

/// `Touch`, except that `init` holds its shard inside the callback — that
/// is, away from its lanes — from the first barrier to the second.
struct Gated(Arc<[Barrier; 2]>);

impl Algorithm for Gated {
    type State = u64;
    type Edge = ();
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
/// channel dispatch while a hub on shard 0 adds an edge to each of 8,448
/// filler leaves on shard 1 (33 batches of reverse-adds, one more than
/// the lane holds at 256 a batch), then adds and then removes an edge to
/// each of 2,048 more. All of it is fed as one-pair calls, which land on
/// shard 0. However shard 0 cuts its batches, the lane is full before the
/// first of the 2,048 is flushed, so all their reverse-adds and
/// reverse-removes wait at shard 0 — a few tens of batches, far below the
/// held bound — and shard 0 goes idle on them. Once released, shard 1
/// drains the lane and shard 0 ships its backlog; a reverse-remove
/// overtaking its leaf's reverse-add would leave that edge standing.
#[test]
fn full_lane_holds_the_backlog_in_order() {
    let part = Partitioner::new(2);
    let hub = (0u64..).find(|&v| part.owner(v) == 0).unwrap();
    let mut on_shard_1 = (0u64..).filter(|&v| part.owner(v) == 1);
    let held = on_shard_1.next().unwrap();
    let filler: Vec<VertexId> = on_shard_1.by_ref().take(33 * 256).collect();
    let leaves: Vec<VertexId> = on_shard_1.take(2_048).collect();
    let burst: Vec<TopoEvent> = filler
        .iter()
        .chain(&leaves)
        .map(|&leaf| TopoEvent::new(hub, leaf))
        .chain(leaves.iter().map(|&leaf| TopoEvent::removal(hub, leaf)))
        .collect();

    let gate = Arc::new([Barrier::new(2), Barrier::new(2)]);
    let config = EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(10)),
        ..EngineConfig::undirected(2)
    };
    let engine = Engine::new(Gated(Arc::clone(&gate)), config);
    engine.try_init_vertex(held).unwrap();
    gate[0].wait();
    feed_one_pair_calls(&engine, &burst);
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

/// `count` pseudo-random pairs over `0..n` with no self-loops.
fn random_pairs(count: usize, n: u64, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| loop {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                break (a, b);
            }
        })
        .collect()
}

/// Waits, for at most ten seconds, until `done` holds.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let patience = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < patience, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A stalled receiver bounds what an ingest holds. Shard 1 is held inside
/// a callback while another thread ingests 400 K pairs. The ingest call
/// must not return while the gate is closed: shard 1 pulls nothing, so it
/// is handed one window of events and no more, while shard 0 takes its
/// whole share and holds what it has for shard 1's full lane. Shard 0
/// still answers point reads. Once released, the run reaches the same
/// fixpoint as the sequential engine, with balanced books. (The bound on
/// the held backlog is `shard::sim`'s
/// `starved_receiver_fills_its_lane_and_its_peer_holds`: at 256 envelopes
/// a batch it takes about a million held envelopes to reach.)
#[test]
fn stalled_receiver_bounds_the_ingest_and_the_backlog() {
    let part = Partitioner::new(2);
    let held = (0u64..).find(|&v| part.owner(v) == 1).unwrap();
    let pairs = random_pairs(400_000, 50_000, 0x57a1);
    let on_shard_0 = pairs
        .iter()
        .map(|p| p.0)
        .find(|&v| part.owner(v) == 0)
        .unwrap();

    let gate = Arc::new([Barrier::new(2), Barrier::new(2)]);
    let config = EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(60)),
        ..EngineConfig::undirected(2)
    };
    let engine = Engine::new(Gated(Arc::clone(&gate)), config);
    let hub = engine.telemetry();
    engine.try_init_vertex(held).unwrap();
    gate[0].wait();
    let share_0 = pairs.len().div_ceil(2) as u64;
    std::thread::scope(|scope| {
        let ingest = scope.spawn(|| engine.try_ingest_pairs(&pairs));
        wait_for("shard 0 to take its whole share", || {
            engine.metrics_now().per_shard[0].topo_ingested == share_0
        });
        wait_for("shard 1's window to fill", || {
            hub.gauges().ingest_backlog[1] == INGEST_WINDOW
        });
        // A plateau, not a moment: nothing grows while the gate is shut.
        for _ in 0..50 {
            let g = hub.gauges();
            assert_eq!(g.ingest_backlog[0], 0, "{g:?}");
            assert_eq!(g.ingest_backlog[1], INGEST_WINDOW, "{g:?}");
            assert!(g.held_backlog[0] > 0, "{g:?}");
            std::thread::sleep(Duration::from_millis(4));
        }
        assert!(!ingest.is_finished(), "the ingest returned past a stall");
        assert!(engine.try_local_state(on_shard_0).unwrap().is_some());
        gate[1].wait();
        ingest.join().unwrap().unwrap();
    });
    engine.try_await_quiescence().unwrap();
    assert!(engine.counters_balanced());
    let r = engine.try_finish().unwrap();
    r.metrics.verify_balance().unwrap();
    assert!(r.metrics.total().lane_full_fallbacks > 0);

    let mut seq = SequentialEngine::undirected(Touch);
    seq.init_vertex(held);
    for &(a, b) in &pairs {
        seq.apply(TopoEvent::new(a, b));
    }
    assert_eq!(r.num_edges, seq.num_edges());
    assert_eq!(r.states.into_vec(), seq.states());
}

/// The deadline variant: with shard 1 stalled, an ingest that needs room
/// at shard 1 returns `QuiescenceTimeout` once no room opens within the
/// deadline. What it delivered — shard 0's whole share and a prefix of
/// shard 1's — stays delivered: after the release it quiesces with
/// balanced books, to the sequential engine's fixpoint over that prefix.
#[test]
fn stalled_shard_times_the_ingest_out_and_its_prefix_quiesces() {
    let part = Partitioner::new(2);
    let held = (0u64..).find(|&v| part.owner(v) == 1).unwrap();
    // Shard 1's share is past its window; shard 0's holds less than its
    // bound for shard 1.
    let pairs = random_pairs(40_000, 5_000, 0xdead);
    let gate = Arc::new([Barrier::new(2), Barrier::new(2)]);
    let deadline = Duration::from_secs(1);
    let config = EngineConfig {
        quiescence_deadline: Some(deadline),
        ..EngineConfig::undirected(2)
    };
    let engine = Engine::new(Gated(Arc::clone(&gate)), config);
    engine.try_init_vertex(held).unwrap();
    gate[0].wait();
    let start = Instant::now();
    let err = engine
        .try_ingest_pairs(&pairs)
        .expect_err("a stalled shard must time the ingest out");
    assert!(
        matches!(err, EngineError::QuiescenceTimeout { .. }),
        "{err}"
    );
    assert!(start.elapsed() >= deadline);
    gate[1].wait();
    // Each await may time out while the released shard catches up; it
    // must get there without another ingest.
    let mut awaits = 0;
    while let Err(e) = engine.try_await_quiescence() {
        assert!(matches!(e, EngineError::QuiescenceTimeout { .. }), "{e}");
        awaits += 1;
        assert!(awaits < 30, "the delivered prefix never quiesced");
    }
    assert!(engine.counters_balanced());
    let r = engine.try_finish().unwrap();
    r.metrics.verify_balance().unwrap();
    // Shard 1's first pull was the init.
    let pulled = |s: usize| r.metrics.per_shard[s].topo_ingested as usize - s;
    assert_eq!(pulled(0), pairs.len() / 2, "shard 0 took its whole share");
    assert!(pulled(1) as u64 <= INGEST_WINDOW, "no more than a window");

    let mut seq = SequentialEngine::undirected(Touch);
    seq.init_vertex(held);
    let delivered = pairs
        .iter()
        .enumerate()
        .filter(|&(i, _)| i % 2 == 0 || i / 2 < pulled(1));
    for (_, &(a, b)) in delivered {
        seq.apply(TopoEvent::new(a, b));
    }
    assert_eq!(r.num_edges, seq.num_edges());
    assert_eq!(r.states.into_vec(), seq.states());
}

/// An `Add` leaves its stream index at its source.
struct Indexed;

impl Algorithm for Indexed {
    type State = u64;
    type Edge = ();
    fn stream_value(index: u64) -> u64 {
        index
    }
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, value: &u64, _w: Weight) {
        let index = *value;
        ctx.apply(|s| {
            *s = index;
            true
        });
    }
    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        codec::put_u64(*state, out);
    }
    fn decode_state(bytes: &[u8]) -> u64 {
        codec::get_u64(bytes)
    }
}

/// An init takes a stream index like an edge: the first edge after one
/// carries index 1, at every shard count and in the sequential engine.
#[test]
fn an_init_takes_a_stream_index() {
    let want = vec![(1, 1), (3, 2), (5, 4), (100, 0), (200, 0)];
    for shards in 1..=3 {
        let engine = Engine::new(Indexed, EngineConfig::directed(shards));
        engine.try_init_vertex(100).unwrap();
        engine.try_ingest_pairs(&[(1, 2), (3, 4)]).unwrap();
        engine.try_init_vertex(200).unwrap();
        engine.try_ingest_pairs(&[(5, 6)]).unwrap();
        let r = engine.try_finish().unwrap();
        assert_eq!(r.metrics.total().topo_ingested, 5);
        let got: Vec<_> = r
            .states
            .into_vec()
            .into_iter()
            .filter(|&(v, _)| v % 2 == 1 || v >= 100)
            .collect();
        assert_eq!(got, want, "{shards} shards");
    }
    let mut seq = SequentialEngine::directed(Indexed);
    seq.init_vertex(100);
    seq.apply(TopoEvent::new(1, 2));
    seq.apply(TopoEvent::new(3, 4));
    seq.init_vertex(200);
    seq.apply(TopoEvent::new(5, 6));
    let got: Vec<_> = seq
        .states()
        .into_iter()
        .filter(|&(v, _)| v % 2 == 1 || v >= 100)
        .collect();
    assert_eq!(got, want);
    assert_eq!(seq.metrics().topo_ingested, 5);
}

/// An init's index is durable like an edge's: a shard's checkpoint
/// records it, so a re-opened engine numbers on past it.
#[test]
fn a_reopened_engine_numbers_on_past_an_init() {
    let dir = std::env::temp_dir().join(format!("remo-init-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        || EngineConfig::directed(2).with_durability(DurabilityConfig::new(&dir).fsync(false));
    let engine = Engine::new(Indexed, config());
    engine.try_init_vertex(100).unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(r.metrics.total().checkpoints_written, 1);
    let engine = Engine::open(Indexed, config()).unwrap();
    engine.try_ingest_pairs(&[(1, 2)]).unwrap();
    let r = engine.try_finish().unwrap();
    assert_eq!(
        r.states.get(1),
        Some(&1),
        "the edge after the init has index 1"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An attach waits for room like an ingest: while shard 1 is held inside
/// a query's `init` with its window full, the attach's first control op
/// cannot be queued there, so the attach waits; released, it completes,
/// and the run quiesces with balanced books.
#[test]
fn attach_waits_for_a_stalled_shards_window() {
    let part = Partitioner::new(2);
    let held = (0u64..).find(|&v| part.owner(v) == 1).unwrap();
    let pairs = random_pairs(40_000, 5_000, 0xa77);
    let gate = Arc::new([Barrier::new(2), Barrier::new(2)]);
    let config = EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(60)),
        ..EngineConfig::undirected(2)
    };
    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), config);
    let hub = engine.telemetry();
    // The query's source init holds shard 1.
    reg.attach(&engine, Gated(Arc::clone(&gate)), &[held], "gated")
        .unwrap();
    gate[0].wait();
    std::thread::scope(|scope| {
        let ingest = scope.spawn(|| engine.try_ingest_pairs(&pairs));
        wait_for("shard 1's window to fill", || {
            hub.gauges().ingest_backlog[1] == INGEST_WINDOW
        });
        let attach = scope.spawn(|| reg.attach(&engine, Touch, &[], "touch"));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!attach.is_finished(), "the attach returned past a stall");
        assert_eq!(hub.gauges().ingest_backlog[1], INGEST_WINDOW);
        gate[1].wait();
        ingest.join().unwrap().unwrap();
        attach.join().unwrap().unwrap();
    });
    assert_eq!(reg.attached(), 2);
    engine.try_await_quiescence().unwrap();
    let r = engine.try_finish().unwrap();
    r.metrics.verify_balance().unwrap();
}
