//! Figure 4 — on-the-fly global state collection vs. static recompute.
//!
//! Ingests an RMAT stream and, at fixed edge-count intervals (the
//! deterministic stand-in for the paper's 15-second wall-clock intervals,
//! DESIGN.md §3.4), measures three things:
//!
//! 1. **Snapshot latency, backlog queued**: request-to-complete time for
//!    a snapshot issued right after the interval's ingest call returns,
//!    while its events are still queued at the shards: the snapshot waits
//!    for quiescence, so this includes processing the backlog (§III-D).
//! 2. **Snapshot latency, at quiescence**: the pure collection cost (one
//!    quiescence probe + per-shard collection) with no backlog.
//! 3. **Static recompute**: a static BFS from scratch over the same
//!    topology, already resident in memory (the paper grants the static
//!    side its topology pre-loaded).
//!
//! Paper shape: collection latency stays roughly flat as the graph grows,
//! while the static recompute cost grows with the graph — the gap widens.
//!
//! Run: `cargo bench -p remo-bench --bench fig4`

use std::time::Instant;

use remo_algos::IncBfs;
use remo_bench::*;
use remo_core::{Engine, EngineConfig};
use remo_gen::{stream, RmatConfig};

fn main() {
    let scale = bench_scale();
    let shards = *shard_counts().last().unwrap_or(&4);
    let rmat_scale = 16 + (scale.log2().round() as i32).clamp(-6, 6);
    let cfg = RmatConfig::graph500(rmat_scale.max(8) as u32);
    let mut edges = remo_gen::rmat::generate(&cfg);
    stream::shuffle(&mut edges, 4);
    let source = edges[0].0;
    println!(
        "RMAT scale {} — {} edge events, {} shards, live BFS maintained",
        cfg.scale,
        edges.len(),
        shards
    );

    let intervals = 8usize;
    let chunk = edges.len() / intervals;
    let mut engine = Engine::new(IncBfs, EngineConfig::undirected(shards));
    engine.try_init_vertex(source).unwrap();

    let mut rows = Vec::new();
    for i in 0..intervals {
        let lo = i * chunk;
        let hi = if i + 1 == intervals {
            edges.len()
        } else {
            lo + chunk
        };
        engine.try_ingest_pairs(&edges[lo..hi]).unwrap();

        // (1) Snapshot with the interval's backlog still queued.
        let t0 = Instant::now();
        let _snap_queued = engine.try_snapshot().unwrap();
        let lat_queued = t0.elapsed();

        // (2) Quiescent snapshot: pure collection cost at the boundary.
        engine.try_await_quiescence().unwrap();
        let t0 = Instant::now();
        let snap = engine.try_snapshot().unwrap();
        let lat_quiet = t0.elapsed();

        // (3) Static recompute on the same topology from scratch.
        let build = remo_baseline::build_undirected(&edges[..hi]);
        let t0 = Instant::now();
        let levels = remo_baseline::bfs_levels(&build.csr, source);
        let static_time = t0.elapsed();
        let reached = levels.iter().filter(|&&l| l != u64::MAX).count();
        let snap_reached = snap
            .iter()
            .filter(|(_, &l)| l != u64::MAX && l != 0)
            .count();
        assert_eq!(
            reached, snap_reached,
            "snapshot must equal the static result"
        );

        rows.push(vec![
            format!("{}", i + 1),
            hi.to_string(),
            fmt_dur(lat_queued),
            fmt_dur(lat_quiet),
            fmt_dur(static_time),
            format!(
                "{:.1}x",
                static_time.as_secs_f64() / lat_quiet.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    let _ = engine.try_finish().unwrap();

    report(
        "fig4",
        "Figure 4: snapshot latency vs static recompute, per interval",
        &[
            "Interval",
            "Edges so far",
            "Snapshot (backlog queued)",
            "Snapshot (quiescent)",
            "Static BFS from scratch",
            "Static/quiescent",
        ],
        &rows,
    );
    println!(
        "\nShape check vs the paper: collection latency stays flat while the\n\
         static recompute grows with |E|. (The backlog-queued column\n\
         includes processing the interval's backlog; the quiescent\n\
         column isolates the collection cost.)"
    );
}
