//! Live dashboard: mid-run telemetry over a streaming RMAT ingest.
//!
//! Drives an incremental degree-count over a Graph500 RMAT stream and,
//! while shards are still chewing on it, polls the cloneable
//! [`TelemetryHub`] once per tick — events/s and ingested updates/s from
//! two successive counter readings, in-flight envelopes, ingest backlog
//! and per-shard queue depth — the numbers an operator's dashboard would
//! chart. After quiescence it performs one Prometheus text-exposition
//! scrape against the same hub, exactly what a `/metrics` endpoint would
//! serve. The CI smoke job runs this bounded and asserts the scrape parses.
//!
//! Knobs (all optional):
//! - `REMO_DASH_SCALE`  — RMAT scale (default 13; edges ≈ 16 × 2^scale)
//! - `REMO_DASH_SHARDS` — shard threads (default 4)
//! - `REMO_DASH_TICKS`  — ingest chunks / dashboard refreshes (default 16)
//! - `REMO_DASH_QUERIES` — number of live queries (default 0 = a solo
//!   degree-count). When ≥ 1 the engine runs a [`QueryRegistry`] with a
//!   rotating BFS / CC / degree / SSSP mix attached, and the dashboard
//!   gains a per-query section — attached gauge, per-query envelope and
//!   update counters — scraped from the same hub the exporters serve
//!   (DESIGN.md §17)
//! - `REMO_DASH_WAL`    — directory for the durability layer; when set,
//!   every event is write-ahead logged and checkpointed, and the WAL /
//!   checkpoint / replay counters show up in the scrape and the final
//!   report (default: off)
//!
//! Every engine traces one ingest in 64 per shard (DESIGN.md §18), so the
//! report has a propagation-trace section — summary quantiles plus the
//! deepest reconstructed tree, hop by hop — and the `remo_trace_*`
//! families in the scrape carry real samples. It ends with a per-shard
//! utilization table: each shard's busy wall decomposed into drain /
//! process / flush / spin / park / checkpoint / replay time.
//!
//! Run with: `cargo run --release --example live_dashboard`

use std::time::{Duration, Instant};

use remo::core::{Algorithm, ShardMetrics};
use remo::prelude::*;

fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = env_or("REMO_DASH_SCALE", 13) as u32;
    let shards = env_or("REMO_DASH_SHARDS", 4) as usize;
    let ticks = env_or("REMO_DASH_TICKS", 16) as usize;
    let queries = env_or("REMO_DASH_QUERIES", 0) as usize;

    let cfg = RmatConfig {
        seed: 42,
        ..RmatConfig::graph500(scale)
    };
    let mut edges = remo::gen::rmat::generate(&cfg);
    remo::gen::stream::shuffle(&mut edges, 7);
    println!(
        "ingesting RMAT{scale} ({} edge events) over {shards} shards, {ticks} ticks\n",
        edges.len()
    );

    let mut config = EngineConfig::undirected(shards);
    if let Ok(dir) = std::env::var("REMO_DASH_WAL") {
        println!("durability: WAL + checkpoints under {dir}");
        config = config.with_durability(DurabilityConfig::new(dir).fsync(false));
    }

    if queries > 0 {
        // Multi-query mode: one shared topology, `queries` live columns.
        let hub_vertex = edges[0].0;
        let reg = QueryRegistry::<u64>::new();
        let engine = Engine::new(reg.clone(), config);
        for i in 0..queries {
            match i % 4 {
                0 => reg.attach(&engine, DegreeCount, &[], &format!("degree-{i}")),
                1 => reg.attach(&engine, IncBfs, &[hub_vertex], &format!("bfs-{i}")),
                2 => reg.attach(&engine, IncCc, &[], &format!("cc-{i}")),
                _ => reg.attach(&engine, IncSssp, &[hub_vertex], &format!("sssp-{i}")),
            }
            .expect("attach");
        }
        println!("registry: {} live queries on one topology", reg.attached());
        drive(engine, &edges, ticks);
    } else {
        drive(Engine::new(DegreeCount, config), &edges, ticks);
    }
}

/// The dashboard loop itself is algorithm-agnostic: it only talks to the
/// engine's supervised API and its telemetry hub.
fn drive<A: Algorithm>(engine: Engine<A>, edges: &[(u64, u64)], ticks: usize) {
    // The hub is a cheap clone-able handle: hand it to a dashboard thread,
    // an HTTP endpoint, or (here) poll it inline between ingest chunks.
    let hub = engine.telemetry();

    println!(
        "{:>4}  {:>12}  {:>10}  {:>10}  {:>9}  {:>10}  queue depths",
        "tick", "processed", "events/s", "updates/s", "in-flight", "backlog"
    );
    // Rates are deltas between two successive counter readings.
    let reading = || (Instant::now(), hub.metrics_now().total());
    let mut last = reading();
    let chunk = edges.len().div_ceil(ticks.max(1));
    for (i, batch) in edges.chunks(chunk).enumerate() {
        engine.try_ingest_pairs(batch).expect("ingest");
        // Shards drain in the background; give them a beat so consecutive
        // readings straddle real progress.
        std::thread::sleep(Duration::from_millis(40));
        let now = reading();
        let dt = now.0.duration_since(last.0).as_secs_f64();
        let rate = |f: fn(&ShardMetrics) -> u64| f(&now.1).saturating_sub(f(&last.1)) as f64 / dt;
        let g = hub.gauges();
        let depths: Vec<String> = g.queue_depth.iter().map(|d| d.to_string()).collect();
        println!(
            "{i:>4}  {:>12}  {:>10.0}  {:>10.0}  {:>9}  {:>10}  [{}]",
            now.1.events_processed(),
            rate(ShardMetrics::events_processed),
            rate(|m| m.topo_ingested),
            g.in_flight,
            g.ingest_backlog.iter().sum::<u64>(),
            depths.join(" ")
        );
        last = now;
    }

    engine.try_await_quiescence().expect("quiescence");

    // The per-query section, present whenever a registry is live: the
    // same rows the exporter serializes, straight off the hub.
    if let Some(src) = hub.query_source() {
        println!(
            "\n--- live queries ({} attached) ---",
            src.queries_attached()
        );
        println!(
            "{:>4}  {:<12}  {:>14}  {:>14}",
            "slot", "query", "envelopes", "updates"
        );
        for row in src.query_rows() {
            println!(
                "{:>4}  {:<12}  {:>14}  {:>14}",
                row.slot, row.name, row.envelopes_sent, row.updates_applied
            );
        }
    }

    // The trace section, present whenever a sampled trace survives: summary
    // quantiles over every reconstructed propagation tree, then the
    // deepest tree hop by hop — "what did update X touch, and where did
    // its latency go" for one concrete X (DESIGN.md §18).
    let traces = engine.traces_now();
    if !traces.is_empty() {
        let ts = engine.trace_summary();
        println!("\n--- propagation traces ({} observed) ---", ts.observed);
        println!(
            "fixpoint p50/p99: {:.1}/{:.1} us  hops p50/p99: {:.0}/{:.0}  \
             amplification p50/p99: {:.0}/{:.0}  cross-shard {}",
            ts.fixpoint.quantile_ns(0.50) / 1_000.0,
            ts.fixpoint.quantile_ns(0.99) / 1_000.0,
            ts.hops.quantile_ns(0.50),
            ts.hops.quantile_ns(0.99),
            ts.amplification.quantile_ns(0.50),
            ts.amplification.quantile_ns(0.99),
            ts.cross_shard_hops
        );
        if let Some(t) = traces
            .iter()
            .max_by_key(|t| (t.depth, t.amplification, t.id))
        {
            println!(
                "deepest tree: trace {} root {}->{} @shard {}  depth {}  \
                 amplification {}  processed {}  fixpoint {:.1} us",
                t.id,
                t.src,
                t.dst,
                t.root_shard,
                t.depth,
                t.amplification,
                t.processed,
                t.fixpoint_ns as f64 / 1_000.0
            );
            for h in &t.hops {
                println!(
                    "  hop {:>2}: sent {:>4}  processed {:>4}  dominated {:>3}  \
                     suppressed {:>3}  transit {:.1} us",
                    h.hop,
                    h.sent,
                    h.processed,
                    h.dominated,
                    h.suppressed,
                    h.transit_ns as f64 / 1_000.0
                );
            }
        }
    }

    // One scrape against the still-live engine — the same string a
    // `/metrics` endpoint would serve. The smoke job parses this section.
    println!("\n--- prometheus scrape ---");
    print!("{}", hub.render_prometheus());

    let result = engine.try_finish().expect("finish");
    let m = &result.metrics;
    m.verify_balance().expect("envelope balance");
    let (q50, q99, _) = m.quiesce.quantiles_us();
    println!("--- final ---");
    println!(
        "vertices {}  edges {}  events {}  amplification {:.2}",
        result.num_vertices,
        result.num_edges,
        m.total().events_processed(),
        m.amplification()
    );
    println!("quiesce p50/p99: {q50:.0}/{q99:.0} us");
    let t = m.total();
    println!("lanes: {} deferred flushes", t.flush_deferrals);
    if t.wal_records_appended > 0 {
        println!(
            "durability: {} WAL records / {} bytes, {} checkpoints \
             (mean {:.0} us), {} replayed, {} rollbacks",
            t.wal_records_appended,
            t.wal_bytes,
            t.checkpoints_written,
            t.phase_checkpoint_ns as f64 / 1e3 / t.checkpoints_written.max(1) as f64,
            t.replayed_records,
            t.rollbacks
        );
    }

    // Where did each shard's wall clock go? Phase accounting runs in every
    // engine; every busy nanosecond lands in exactly one phase, so the
    // row sums to ~100% of the shard's busy wall (DESIGN.md §18).
    if m.per_shard.iter().any(|s| s.phase_busy_ns > 0) {
        println!("--- per-shard utilization ---");
        println!(
            "{:>5}  {:>9}  {:>6}  {:>6}  {:>6}  {:>6}  {:>6}  {:>6}  {:>6}",
            "shard", "busy_ms", "drain%", "proc%", "flush%", "spin%", "park%", "ckpt%", "replay%"
        );
        for (i, s) in m.per_shard.iter().enumerate() {
            let busy = s.phase_busy_ns.max(1) as f64;
            let pct = |ns: u64| 100.0 * ns as f64 / busy;
            println!(
                "{i:>5}  {:>9.1}  {:>6.1}  {:>6.1}  {:>6.1}  {:>6.1}  {:>6.1}  {:>6.1}  {:>6.1}",
                s.phase_busy_ns as f64 / 1e6,
                pct(s.phase_drain_ns),
                pct(s.phase_process_ns),
                pct(s.phase_flush_ns),
                pct(s.phase_spin_ns),
                pct(s.phase_park_ns),
                pct(s.phase_checkpoint_ns),
                pct(s.phase_replay_ns),
            );
        }
    }
}
