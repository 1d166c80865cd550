//! Durable recovery with a weighted adjacency. The other recovery tests
//! run label algorithms, whose entries keep no weight, so a checkpoint that
//! lost weights would pass them. Here an `IncSssp` engine (`Edge = Weight`)
//! loads a quarter of its stream, starts the source and loses a shard to a
//! panicking callback during the rest: the shard restores its last
//! checkpoint — every weighted entry rebuilt from the checkpoint's edge
//! records — replays its WAL, and the run still converges to Dijkstra.

use remo_algos::{IncBfs, IncSssp};
use remo_baseline as oracle;
use remo_core::{DurabilityConfig, Engine, EngineConfig, VertexId};
use remo_gen::RmatConfig;
use remo_store::hash::mix64;
use std::time::{Duration, Instant};

#[path = "../../core/tests/faults/mod.rs"]
mod faults;
use faults::Faulty;

/// Callbacks shard 1 runs when `edges` are ingested with no source: one
/// add or reverse-add per edge end it owns and no update, since no cost
/// is reached. The count does not depend on thread interleaving, and it is
/// what [`Faulty::panic_at`] counts.
fn topology_events_on_shard_1(edges: &[(VertexId, VertexId, u64)]) -> u64 {
    let engine = Engine::new(IncSssp, EngineConfig::undirected(2));
    engine.try_ingest_weighted(edges).unwrap();
    let m = engine.try_finish().unwrap().metrics.per_shard[1].clone();
    assert_eq!(
        m.update_events + m.updates_dominated,
        0,
        "updates without a source"
    );
    m.add_events + m.reverse_add_events
}

#[test]
fn durable_sssp_respawns_and_converges_to_dijkstra() {
    // RMAT-10: duplicate pairs and both orientations of a pair arrive
    // with different weights, so the entries the checkpoint holds are
    // minimum weights, not whichever came last.
    let edges: Vec<(VertexId, VertexId, u64)> = remo_gen::rmat::generate(&RmatConfig {
        seed: 0x22,
        ..RmatConfig::graph500(10)
    })
    .into_iter()
    .enumerate()
    .map(|(i, (s, d))| (s, d, 1 + mix64(i as u64) % 64))
    .collect();
    let source = edges[0].0;
    let want = oracle::sssp_costs(&oracle::build_undirected_weighted(&edges).csr, source);

    let (first, rest) = edges.split_at(edges.len() / 4);
    // Shard 1 panics halfway through its share of the rest's topology
    // callbacks: after the first quarter, which it finishes before the
    // source starts, and before the end, since the rest brings at least
    // that many callbacks whatever updates come with them.
    let loaded = topology_events_on_shard_1(first);
    let panic_at = loaded + (topology_events_on_shard_1(&edges) - loaded) / 2;

    let dir = std::env::temp_dir().join(format!("remo-durable-sssp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig::undirected(2).with_durability(
        DurabilityConfig::new(&dir)
            .checkpoint_every(512)
            .fsync(false),
    );
    let engine = Engine::new(Faulty::on(1, IncSssp).panic_at(panic_at), config);
    engine.try_ingest_weighted(first).unwrap();
    engine.try_await_quiescence().unwrap();
    // Idle shards checkpoint, so the panic below restores weighted edges,
    // not an empty store. An idle shard publishes its counters before it
    // checkpoints, so the checkpoint can show up a heartbeat later.
    let start = Instant::now();
    let before = loop {
        let m = engine.metrics_now().per_shard[1].clone();
        if m.checkpoints_written > 0 || start.elapsed() > Duration::from_secs(5) {
            break m;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        before.checkpoints_written > 0,
        "no checkpoint before the panic"
    );
    assert_eq!(before.shard_respawns, 0, "the panic came early");
    engine.try_init_vertex(source).unwrap();
    engine.try_ingest_weighted(rest).unwrap();
    let result = engine.try_finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(!result.is_degraded(), "{:?}", result.failures);
    assert_eq!(result.metrics.per_shard[1].shard_respawns, 1, "no respawn");
    let mut reached = 0;
    for (v, &cost) in result.states.iter() {
        assert_eq!(cost, want[v as usize], "vertex {v}");
        reached += usize::from(cost != remo_algos::UNREACHED);
    }
    assert!(reached > 500, "only {reached} vertices reached");
}

/// An init is a durable pull. Its shard dies for good in the source's
/// `init` callback (the first panic, and one more in each of the three
/// respawns' replays), so no checkpoint ever covers it and the WAL holds
/// the init pull alone. A cold re-open replays it: the source is at
/// level 1 with no second init.
#[test]
fn an_init_pull_alone_replays_on_a_cold_open() {
    let source: VertexId = 7;
    let owner = remo_core::Partitioner::new(2).owner(source);
    let dir = std::env::temp_dir().join(format!("remo-durable-init-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        || EngineConfig::undirected(2).with_durability(DurabilityConfig::new(&dir).fsync(false));
    let engine = Engine::new(Faulty::on(owner, IncBfs).panic_at(1).repeat(4), config());
    engine.try_init_vertex(source).unwrap();
    let start = Instant::now();
    while !engine.is_degraded() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the owner never died"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let result = engine.try_finish().unwrap();
    assert_eq!(result.failures.len(), 1);
    assert_eq!(result.metrics.per_shard[owner].shard_respawns, 3);

    let engine = Engine::open(IncBfs, config()).unwrap();
    let result = engine.try_finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!result.is_degraded(), "{:?}", result.failures);
    assert_eq!(result.states.get(source), Some(&1));
    assert_eq!(result.metrics.total().topo_ingested, 0, "no new pull");
    assert_eq!(result.metrics.per_shard[owner].replayed_records, 1);
}
