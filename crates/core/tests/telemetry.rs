//! Integration suite for the live telemetry subsystem: `metrics_now`
//! monotonicity and coherence under concurrent ingest (1–4 shards), the
//! latency histograms, envelope-balance verification on clean runs, and
//! the Prometheus exporter surface.
//!
//! The seqlock snapshot cells promise two things these tests pin down:
//! a reader never observes a torn (mixed-publication) counter set, and
//! successive reads of one shard's cell never go backwards — each read is
//! some real published state, and publications are program-ordered.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use remo_core::{AlgoCtx, Algorithm, Engine, EngineConfig, ShardMetrics, VertexId};

mod scrape;

/// §II-A degree counting — every topology event fans an envelope to each
/// endpoint, so counters, histograms, and the balance equation all
/// get real traffic.
struct Degree;

impl Algorithm for Degree {
    type State = u64;
    type Edge = ();
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: u64) {
        ctx.apply(|d| {
            *d += 1;
            true
        });
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: u64) {
        ctx.apply(|d| {
            *d += 1;
            true
        });
    }
}

/// Deterministic pseudo-random edge stream (xorshift) over a small vertex
/// range — dense enough that every shard of a ≤4-way engine owns work.
fn edge_stream(n: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n)
        .map(|_| {
            let s = step() % 509;
            let mut d = step() % 509;
            if d == s {
                d = (d + 1) % 509;
            }
            (s, d)
        })
        .collect()
}

fn counter_words(m: &ShardMetrics) -> [u64; ShardMetrics::COUNTER_WORDS] {
    let mut w = [0u64; ShardMetrics::COUNTER_WORDS];
    m.to_words(&mut w);
    w
}

/// Counters are increment-only and each shard's cell is single-writer, so
/// any interleaving of snapshots must be elementwise nondecreasing per
/// shard. A violation means a torn or reordered seqlock read.
fn assert_snapshots_monotone(snaps: &[remo_core::RunMetrics], ctx: &str) {
    for pair in snaps.windows(2) {
        for (shard, (prev, next)) in pair[0].per_shard.iter().zip(&pair[1].per_shard).enumerate() {
            let (pw, nw) = (counter_words(prev), counter_words(next));
            for (i, name) in ShardMetrics::COUNTER_NAMES.iter().enumerate() {
                assert!(
                    nw[i] >= pw[i],
                    "{ctx}: shard {shard} counter `{name}` went backwards ({} -> {})",
                    pw[i],
                    nw[i]
                );
            }
        }
    }
}

/// Polls `metrics_now` from a dedicated thread while the controller
/// ingests and quiesces, across 1–4 shards: every
/// observed snapshot must be coherent (monotone per shard) and the final
/// snapshot must agree with the harvested report.
#[test]
fn metrics_now_is_monotone_under_concurrent_ingest() {
    let edges = edge_stream(4_000, 0x5eed);
    for shards in 1..=4usize {
        let engine = Engine::new(Degree, EngineConfig::undirected(shards));
        let hub = engine.telemetry();
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let hub = hub.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut snaps = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    snaps.push(hub.metrics_now());
                    std::thread::yield_now();
                }
                snaps.push(hub.metrics_now());
                snaps
            })
        };
        for chunk in edges.chunks(1_000) {
            engine.try_ingest_pairs(chunk).unwrap();
            engine.try_await_quiescence().unwrap();
            // Mid-run probe from the controller side too: must agree
            // with itself (total == sum of shards) at every poll.
            let m = engine.metrics_now();
            let total = m.total().events_processed();
            let by_shard: u64 = m.per_shard.iter().map(|s| s.events_processed()).sum();
            assert_eq!(total, by_shard);
        }
        stop.store(true, Ordering::Relaxed);
        let snaps = reader.join().unwrap();
        let ctx = format!("P={shards}");
        assert_snapshots_monotone(&snaps, &ctx);

        let result = engine.try_finish().unwrap();
        assert!(result.failures.is_empty());
        result.metrics.verify_balance().unwrap();
        // The hub outlives the engine, frozen at each shard's final
        // report-time publication: processed counts match the harvest
        // exactly, and no cell counter exceeds its harvested value.
        let last = hub.metrics_now();
        for (shard, (cell, harvested)) in last
            .per_shard
            .iter()
            .zip(&result.metrics.per_shard)
            .enumerate()
        {
            assert_eq!(
                cell.events_processed(),
                harvested.events_processed(),
                "{ctx}: shard {shard} final cell trails the harvest"
            );
            let (cw, hw) = (counter_words(cell), counter_words(harvested));
            for (i, name) in ShardMetrics::COUNTER_NAMES.iter().enumerate() {
                assert!(
                    cw[i] <= hw[i],
                    "{ctx}: shard {shard} cell `{name}` exceeds harvest"
                );
            }
        }
    }
}

/// Every flush, quiescence detection and settled burst is timed.
/// Quantiles come out ordered, and the summary triple is exposed through
/// the harvested `RunMetrics`.
#[test]
fn histograms_populate_and_quantiles_are_ordered() {
    let edges = edge_stream(20_000, 0x600d);
    let engine = Engine::new(Degree, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();
    engine.try_ingest_pairs(&edges[..64]).unwrap();
    engine.try_await_quiescence().unwrap();
    let result = engine.try_finish().unwrap();
    let m = &result.metrics;
    assert!(m.flush.count >= 10);
    assert!(m.quiesce.count >= 2, "one sample per await_quiescence");
    assert!(m.ingest_fixpoint.count >= 2, "one sample per settled burst");
    for h in [&m.flush, &m.quiesce, &m.ingest_fixpoint] {
        let (p50, p99, p999) = h.quantiles_us();
        assert!(p50 <= p99 && p99 <= p999, "quantiles out of order");
        assert!(p999 > 0.0);
        assert_eq!(h.count, h.buckets.iter().sum::<u64>());
    }
}

/// The scrape parses and carries exactly the expected families: every
/// shard counter, the gauges and the summaries, each declared once — no
/// family left behind by a deletion and none written twice.
#[test]
fn prometheus_rendering_is_parseable_and_complete() {
    let edges = edge_stream(1_500, 0xfeed);
    let engine = Engine::new(Degree, EngineConfig::undirected(2));
    let hub = engine.telemetry();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let text = hub.render_prometheus();
    drop(engine.try_finish().unwrap());

    for name in ShardMetrics::COUNTER_NAMES {
        assert!(text.contains(&format!("remo_{name}_total{{shard=\"0\"}}")));
    }
    let got: BTreeSet<(String, String)> = scrape::parse(&text).into_iter().collect();
    let mut want: BTreeSet<(String, String)> = ShardMetrics::COUNTER_NAMES
        .iter()
        .map(|n| (format!("remo_{n}_total"), "counter".to_string()))
        .collect();
    for (name, kind) in [
        ("uptime_seconds", "gauge"),
        ("in_flight_envelopes", "gauge"),
        ("ingest_backlog", "gauge"),
        ("failed_shards", "gauge"),
        ("queue_depth", "gauge"),
        ("lane_occupancy", "gauge"),
        ("held_backlog", "gauge"),
        ("traces_observed", "gauge"),
        ("trace_cross_shard_hops_total", "counter"),
        ("flush_latency_seconds", "summary"),
        ("quiesce_latency_seconds", "summary"),
        ("ingest_fixpoint_seconds", "summary"),
        ("trace_fixpoint_seconds", "summary"),
        ("trace_hops", "summary"),
        ("trace_amplification", "summary"),
    ] {
        want.insert((format!("remo_{name}"), kind.to_string()));
    }
    assert_eq!(got, want);
}

/// Per-shard phase accounting: with the default config every nanosecond a
/// shard thread spends between loop laps is charged to exactly one
/// `phase_*_ns` counter *and* to `phase_busy_ns`, so the breakdown must
/// decompose the busy wall almost exactly (≥95% — the charge points are
/// lockstep, so the only slack is the final partial lap). The counters
/// flow through the exporter like every other `shard_metrics!` entry.
#[test]
fn phase_breakdown_decomposes_busy_wall_and_exports() {
    let edges = edge_stream(4_000, 0x7157);
    let engine = Engine::new(Degree, EngineConfig::undirected(2));
    let hub = engine.telemetry();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let prom = hub.render_prometheus();
    let result = engine.try_finish().unwrap();
    assert!(result.failures.is_empty());
    result.metrics.verify_balance().unwrap();

    let mut charged_shards = 0;
    for (shard, m) in result.metrics.per_shard.iter().enumerate() {
        if m.phase_busy_ns == 0 {
            continue;
        }
        charged_shards += 1;
        let sum = m.phase_sum_ns();
        assert!(
            sum as f64 >= 0.95 * m.phase_busy_ns as f64,
            "shard {shard}: phase sum {sum}ns covers <95% of busy {}ns",
            m.phase_busy_ns
        );
        // Real work happened, so the work phases can't all be zero.
        assert!(
            m.phase_process_ns + m.phase_drain_ns + m.phase_flush_ns > 0,
            "shard {shard}: processed events but charged no work phase"
        );
    }
    assert!(charged_shards > 0, "no shard accumulated busy time");

    // The exporter carries the phase counters like any other shard metric.
    for name in [
        "phase_drain_ns",
        "phase_process_ns",
        "phase_flush_ns",
        "phase_spin_ns",
        "phase_park_ns",
        "phase_checkpoint_ns",
        "phase_replay_ns",
        "phase_busy_ns",
    ] {
        assert!(
            prom.contains(&format!("remo_{name}_total{{shard=\"0\"}}")),
            "missing Prometheus sample for {name}"
        );
    }
}

/// Gauges stay self-consistent with the snapshot cells and the
/// engine's shape.
#[test]
fn gauges_track_engine_shape() {
    let edges = edge_stream(1_000, 0x9a6e);
    let engine = Engine::new(Degree, EngineConfig::undirected(4));
    let hub = engine.telemetry();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let g = hub.gauges();
    assert_eq!(g.queue_depth.len(), 4);
    assert_eq!(g.lane_occupancy.len(), 4);
    assert_eq!(g.failed_shards, 0);
    assert!(g.events_processed > 0, "cells published during the run");
    let result = engine.try_finish().unwrap();
    assert!(g.events_processed <= result.metrics.total().events_processed());
}
