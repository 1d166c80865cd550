//! Durable recovery is exactly-once. A rollback after a panic and a cold
//! open after a crash both restore the named cut and re-run every pull the
//! WAL logged since, once each, so even `DegreeCount`, whose `Add`s are not
//! idempotent, recovers its static degrees. An `IncSssp` engine
//! (`Edge = Weight`) recovers through a checkpoint whose entries keep their
//! weights, and a whole-WAL reopen re-runs each pull once and writes no
//! WAL record.

use remo_algos::{stream_label, DegreeCount, IncBfs, IncCc, IncSssp};
use remo_baseline as oracle;
use remo_core::{DurabilityConfig, Engine, EngineConfig, Partitioner, VertexId};
use remo_gen::RmatConfig;
use remo_store::hash::mix64;
use std::time::{Duration, Instant};

#[path = "../../core/tests/faults/mod.rs"]
mod faults;
use faults::Faulty;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("remo-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

    let dir = tmp_dir("sssp");
    let config = EngineConfig::undirected(2).with_durability(
        DurabilityConfig::new(&dir)
            .checkpoint_every(512)
            .fsync(false),
    );
    let engine = Engine::new(Faulty::on(1, IncSssp).panic_at(panic_at), config);
    engine.try_ingest_weighted(first).unwrap();
    engine.try_await_quiescence().unwrap();
    // The first quarter crossed the interval, so a cut holds weighted
    // edges and the rollback below restores them, not an empty store. A
    // shard publishes its counters at its next idle pass, so the count
    // can show up a heartbeat late.
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
    assert_eq!(before.rollbacks, 0, "the panic came early");
    engine.try_init_vertex(source).unwrap();
    engine.try_ingest_weighted(rest).unwrap();
    let result = engine.try_finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(!result.is_degraded(), "{:?}", result.failures);
    assert_eq!(result.metrics.total().rollbacks, 1, "no rollback");
    let mut reached = 0;
    for (v, &cost) in result.states.iter() {
        assert_eq!(cost, want[v as usize], "vertex {v}");
        reached += usize::from(cost != remo_algos::UNREACHED);
    }
    assert!(reached > 500, "only {reached} vertices reached");
}

/// An init is a durable pull. Its shard dies for good in the source's
/// `init` callback (the first panic, and one more in each of the three
/// rollbacks' re-runs), so no cut ever covers it and the WAL holds the
/// init pull alone. A cold re-open re-runs it: the source is at level 1
/// with no second init.
#[test]
fn an_init_pull_alone_replays_on_a_cold_open() {
    let source: VertexId = 7;
    let owner = Partitioner::new(2).owner(source);
    let dir = tmp_dir("init");
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
    assert_eq!(result.metrics.per_shard[owner].rollbacks, 3);

    let engine = Engine::open(IncBfs, config()).unwrap();
    let result = engine.try_finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!result.is_degraded(), "{:?}", result.failures);
    assert_eq!(result.states.get(source), Some(&1));
    assert_eq!(result.metrics.total().topo_ingested, 0, "no new pull");
    assert_eq!(result.metrics.per_shard[owner].replayed_records, 1);
}

/// The probe: `DegreeCount` over 4,981 edges among 200 vertices, whose
/// degree sum is 9,962. Every `Add` adds a degree, so a pull that took
/// effect twice shows.
fn probe_edges() -> Vec<(VertexId, VertexId)> {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 200
    };
    let mut edges = Vec::with_capacity(4_981);
    while edges.len() < 4_981 {
        let (a, b) = (next(), next());
        if a != b {
            edges.push((a, b));
        }
    }
    edges
}

/// Each vertex's degree in `edges`: one per edge end.
fn static_degrees(edges: &[(VertexId, VertexId)]) -> Vec<(VertexId, u64)> {
    let mut degree = vec![0u64; 200];
    for &(a, b) in edges {
        degree[a as usize] += 1;
        degree[b as usize] += 1;
    }
    let degrees: Vec<_> = (0..200).map(|v| (v, degree[v as usize])).collect();
    assert_eq!(degrees.iter().map(|&(_, d)| d).sum::<u64>(), 9_962);
    degrees.into_iter().filter(|&(_, d)| d > 0).collect()
}

fn probe_config(dir: &std::path::Path, shards: usize, every: u64, fsync: bool) -> EngineConfig {
    EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(30)),
        ..EngineConfig::undirected(shards)
    }
    .with_durability(
        DurabilityConfig::new(dir)
            .checkpoint_every(every)
            .fsync(fsync),
    )
}

/// Warm: `Faulty` panics in shard 1's 3,000th callback (shard 0's at one
/// shard), with no cut before it and with a cut every 64 pulls. The one
/// rollback re-runs each pull past the cut once, and every degree is the
/// static count.
#[test]
fn degree_count_recovers_exactly_from_a_warm_panic() {
    let edges = probe_edges();
    let want = static_degrees(&edges);
    for shards in 1..=3 {
        let victim = 1.min(shards - 1);
        let part = Partitioner::new(shards);
        let callbacks: usize = edges
            .iter()
            .map(|&(a, b)| {
                usize::from(part.owner(a) == victim) + usize::from(part.owner(b) == victim)
            })
            .sum();
        assert!(
            callbacks > 3_000,
            "shard {victim} runs only {callbacks} callbacks"
        );
        for every in [1 << 20, 64] {
            let dir = tmp_dir(&format!("warm-{shards}-{every}"));
            let engine = Engine::new(
                Faulty::on(victim, DegreeCount).panic_at(3_000),
                probe_config(&dir, shards, every, false),
            );
            engine.try_ingest_pairs(&edges).unwrap();
            let result = engine.try_finish().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            let case = format!("{shards} shards, a cut every {every} pulls");
            assert!(!result.is_degraded(), "{case}: {:?}", result.failures);
            assert_eq!(result.metrics.total().rollbacks, 1, "{case}");
            assert_eq!(result.states.into_vec(), want, "{case}");
            result.metrics.verify_balance().unwrap();
        }
    }
}

/// The child half of [`degree_count_recovers_exactly_from_a_cold_abort`],
/// run by the test binary re-running itself with this variable set to
/// `<shards> <every> <dir>`.
const CHILD: &str = "REMO_DURABLE_PROBE_CHILD";

/// Cold: a child process ingests the first half with fsync on, awaits
/// quiescence and aborts; the parent reopens the directory and feeds the
/// second half. The reopen re-runs the child's pulls past its last cut
/// once each, and every degree is the static count.
#[test]
fn degree_count_recovers_exactly_from_a_cold_abort() {
    let edges = probe_edges();
    let (first, second) = edges.split_at(edges.len() / 2);
    if let Ok(args) = std::env::var(CHILD) {
        let mut args = args.splitn(3, ' ');
        let shards = args.next().unwrap().parse().unwrap();
        let every = args.next().unwrap().parse().unwrap();
        let dir = std::path::PathBuf::from(args.next().unwrap());
        let engine = Engine::new(DegreeCount, probe_config(&dir, shards, every, true));
        engine.try_ingest_pairs(first).unwrap();
        engine.try_await_quiescence().unwrap();
        std::process::abort();
    }
    let want = static_degrees(&edges);
    for shards in 1..=3 {
        for every in [1 << 20, 64] {
            let dir = tmp_dir(&format!("cold-{shards}-{every}"));
            let status = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    "degree_count_recovers_exactly_from_a_cold_abort",
                    "--exact",
                    "--test-threads=1",
                ])
                .env(CHILD, format!("{shards} {every} {}", dir.display()))
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .unwrap();
            let case = format!("{shards} shards, a cut every {every} pulls");
            assert!(!status.success(), "{case}: the child must abort");
            let engine =
                Engine::open(DegreeCount, probe_config(&dir, shards, every, true)).unwrap();
            engine.try_ingest_pairs(second).unwrap();
            let result = engine.try_finish().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert!(!result.is_degraded(), "{case}: {:?}", result.failures);
            assert_eq!(result.states.into_vec(), want, "{case}");
        }
    }
}

/// A whole-WAL reopen: a durable `IncCc` run on RMAT-10 that never takes
/// a cut (dropped without `try_finish`) leaves every pull in the WAL. The
/// reopen re-runs each once — one `Add` per logged pull — and appends no
/// WAL record; with no new pull, its `try_finish` takes no cut either.
#[test]
fn a_reopen_re_runs_each_pull_once_and_writes_nothing() {
    let edges = remo_gen::rmat::generate(&RmatConfig::graph500(10));
    let dir = tmp_dir("reopen");
    let config = || {
        EngineConfig::undirected(2).with_durability(
            DurabilityConfig::new(&dir)
                .checkpoint_every(1 << 30)
                .fsync(false),
        )
    };
    let engine = Engine::new(IncCc, config());
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();
    drop(engine);

    let engine = Engine::open(IncCc, config()).unwrap();
    let result = engine.try_finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let total = result.metrics.total();
    assert_eq!(total.replayed_records, edges.len() as u64);
    assert_eq!(total.add_events, edges.len() as u64, "one Add per pull");
    assert_eq!(
        (total.wal_records_appended, total.checkpoints_written),
        (0, 0)
    );
    let want: Vec<_> = oracle::components_earliest_edge(&edges)
        .into_iter()
        .map(|(v, i)| (v, stream_label(i)))
        .collect();
    assert_eq!(result.states.into_vec(), want);
}
