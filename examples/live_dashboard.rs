//! Live dashboard: mid-run telemetry over a streaming RMAT ingest.
//!
//! Drives an incremental degree-count over a Graph500 RMAT stream and,
//! while shards are still chewing on it, polls the cloneable
//! [`TelemetryHub`] for derived gauges — events/sec and ingested
//! updates/sec over sliding windows, per-shard queue depth, park ratio,
//! in-flight envelopes — the numbers an operator's dashboard would chart.
//! After quiescence it
//! performs one Prometheus text-exposition scrape and one JSON scrape
//! against the same hub, exactly what a `/metrics` endpoint would serve.
//! The CI smoke job runs this bounded and asserts the scrape parses.
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
//!   checkpoint / replay counters show up in both scrapes and the final
//!   report (default: off)
//! - `REMO_DASH_TRACE` — `1` turns on causal update tracing
//!   ([`TraceConfig::on`]: 1-in-64 ingest sampling, DESIGN.md §18). The
//!   report gains a propagation-trace section — summary quantiles plus the
//!   deepest reconstructed tree, hop by hop — and the `remo_trace_*`
//!   families in both scrapes carry real samples (default: off)
//!
//! Independent of tracing, the final report always ends with a per-shard
//! utilization table (phase accounting is on by default): each shard's
//! busy wall decomposed into drain / process / flush / spin / park /
//! checkpoint / replay time.
//!
//! Run with: `cargo run --release --example live_dashboard`

use std::time::Duration;

use remo::core::Algorithm;
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
    if std::env::var("REMO_DASH_TRACE").as_deref() == Ok("1") {
        println!("tracing: causal update tracing on (1-in-64 sampling)");
        config = config.with_tracing(TraceConfig::on());
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
        "{:>4}  {:>12}  {:>10}  {:>10}  {:>9}  {:>10}  {:>7}  queue depths",
        "tick", "processed", "events/s", "updates/s", "in-flight", "backlog", "park%"
    );
    let chunk = edges.len().div_ceil(ticks.max(1));
    for (i, batch) in edges.chunks(chunk).enumerate() {
        engine.try_ingest_pairs(batch).expect("ingest");
        // Shards drain in the background; give the sliding window a beat
        // so consecutive polls straddle real progress.
        std::thread::sleep(Duration::from_millis(40));
        let g = hub.gauges();
        let depths: Vec<String> = g.queue_depth.iter().map(|d| d.to_string()).collect();
        println!(
            "{i:>4}  {:>12}  {:>10.0}  {:>10.0}  {:>9}  {:>10}  {:>6.2}%  [{}]",
            g.events_processed,
            g.events_per_sec,
            g.updates_per_sec,
            g.in_flight,
            g.ingest_backlog,
            100.0 * g.park_ratio,
            depths.join(" ")
        );
    }

    engine.try_await_quiescence().expect("quiescence");

    // The per-query section, present whenever a registry is live: the
    // same rows the exporters serialize, straight off the hub.
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

    // The trace section, present whenever causal tracing is on: summary
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
                     suppressed {:>3}  replayed {:>3}  transit {:.1} us",
                    h.hop,
                    h.sent,
                    h.processed,
                    h.dominated,
                    h.suppressed,
                    h.replayed,
                    h.transit_ns as f64 / 1_000.0
                );
            }
        }
    }

    // One scrape of each exporter against the still-live engine — the
    // same strings a `/metrics` (Prometheus) or `/metrics.json` endpoint
    // would serve. The smoke job greps these sections.
    println!("\n--- prometheus scrape ---");
    print!("{}", hub.render_prometheus());
    println!("--- json scrape ---");
    println!("{}", hub.render_json());

    let result = engine.try_finish().expect("finish");
    let m = &result.metrics;
    m.verify_balance().expect("envelope balance");
    let (p50, p99, p999) = m.service.quantiles_us();
    let (q50, q99, _) = m.quiesce.quantiles_us();
    println!("--- final ---");
    println!(
        "vertices {}  edges {}  events {}  amplification {:.2}",
        result.num_vertices,
        result.num_edges,
        m.total().events_processed(),
        m.amplification()
    );
    println!(
        "service time p50/p99/p999: {p50:.1}/{p99:.1}/{p999:.1} us \
         ({} samples)  quiesce p50/p99: {q50:.0}/{q99:.0} us",
        m.service.count
    );
    let t = m.total();
    println!("lanes: {} deferred flushes", t.flush_deferrals);
    if t.wal_records_appended > 0 {
        let (c50, c99, _) = m.checkpoint.quantiles_us();
        println!(
            "durability: {} WAL records / {} bytes, {} checkpoints \
             (p50/p99 {c50:.0}/{c99:.0} us), {} replayed, {} respawns",
            t.wal_records_appended,
            t.wal_bytes,
            t.checkpoints_written,
            t.replayed_records,
            t.shard_respawns
        );
    }

    // Where did each shard's wall clock go? Phase accounting is on by
    // default; every busy nanosecond lands in exactly one phase, so the
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
