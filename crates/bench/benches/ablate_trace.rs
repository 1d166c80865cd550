//! Ablation — the trace plane: causal update tracing off / default
//! sampling / full sampling.
//!
//! The trace plane is runtime-selectable (`EngineConfig::with_tracing`)
//! and off by default, so the data path must not pay for observability
//! nobody asked for: with tracing off every envelope carries a zero tag
//! and every trace-plane entry point is one predictable untaken branch.
//! This harness prices the whole spectrum on RMAT-14 SSSP (shard width
//! from `REMO_BENCH_SHARDS`, default 8):
//!
//! - `off`     — the shipping default: tracing off; the reference the
//!   gate and the dWall column compare against, interleaved rep-by-rep.
//! - `sampled` — [`TraceConfig::on`]: 1-in-64 ingest sampling, 4096-span
//!   rings. Gated at ≤3% wall over `off`.
//! - `full`    — every ingest minted a trace (`sample_shift 0`, 64Ki
//!   rings): the diagnostic ceiling, reported but not gated.
//!
//! Every cell must converge to the byte-identical SSSP fixpoint. Both
//! traced cells must reconstruct at least one propagation tree with
//! non-zero amplification and non-zero root→fixpoint latency, and the
//! amplification total (traced sends) must stay ≤ the engine's own
//! `envelopes_sent` counter for the same run — the cross-check that the
//! trace plane measures the cascade the engine actually ran rather than
//! inventing one. Wall gates are skipped below full scale or when the
//! box has fewer cores than shards (`REMO_BENCH_STRICT_TRACE=1`
//! overrides), same policy as `ablate_wal`.
//!
//! Run: `cargo bench -p remo-bench --bench ablate_trace`

use std::time::{Duration, Instant};

use remo_algos::IncSssp;
use remo_bench::*;
use remo_core::{Engine, EngineConfig, TraceConfig, VertexId, Weight};
use remo_gen::{stream, RmatConfig};
use remo_store::hash::mix64;

/// `REMO_BENCH_SHARDS` (last entry wins, default 8): the committed
/// artifact is regenerated at whatever width gives `cores >= shards` on
/// the producing box, so its gates are *asserted*, not skipped — on the
/// 1-core dev container that is 1 shard; a multi-core runner uses 8.
fn shards() -> usize {
    shard_counts().last().copied().unwrap_or(8)
}

/// Default-sampling acceptance ceiling vs the trace-off reference cell.
const SAMPLED_OVERHEAD_CEILING: f64 = 1.03;

/// Weight derived from the endpoints only (symmetric), so duplicate and
/// reversed edges in the stream agree on the undirected edge's weight.
fn edge_weight(s: VertexId, d: VertexId) -> Weight {
    (mix64(s ^ d) % 15) + 1
}

struct Cell {
    elapsed: Duration,
    events: u64,
    envelopes_sent: u64,
    trace_roots: u64,
    trees: u64,
    amp_total: u64,
    amp_p50: f64,
    amp_p99: f64,
    fix_p50_us: f64,
    fix_p99_us: f64,
    cross_shard: u64,
    states: Vec<(VertexId, u64)>,
}

fn run_once(
    trace: &TraceConfig,
    shards: usize,
    expected_vertices: usize,
    weighted: &[(VertexId, VertexId, Weight)],
    source: VertexId,
) -> Cell {
    let cfg = EngineConfig::undirected(shards)
        .with_expected_vertices(expected_vertices)
        .with_tracing(trace.clone());
    let engine = Engine::new(IncSssp, cfg);
    engine.try_init_vertex(source).unwrap();
    let start = Instant::now();
    engine.try_ingest_weighted(weighted).unwrap();
    engine.try_await_quiescence().unwrap();
    let elapsed = start.elapsed();
    // Harvest trees from the still-live engine: `traces_now` is the same
    // call a dashboard would poll mid-run.
    let traces = engine.traces_now();
    let summary = engine.trace_summary();
    let result = engine.try_finish().unwrap();
    note_service(&result.metrics.service);
    note_ingest(elapsed, &result.metrics.total());
    let total = result.metrics.total();
    result.metrics.verify_balance().unwrap();
    Cell {
        elapsed,
        events: total.events_processed(),
        envelopes_sent: total.envelopes_sent,
        trace_roots: total.trace_roots,
        trees: traces.len() as u64,
        amp_total: traces.iter().map(|t| t.amplification).sum(),
        amp_p50: summary.amplification.quantile_ns(0.50),
        amp_p99: summary.amplification.quantile_ns(0.99),
        fix_p50_us: summary.fixpoint.quantile_ns(0.50) / 1_000.0,
        fix_p99_us: summary.fixpoint.quantile_ns(0.99) / 1_000.0,
        cross_shard: summary.cross_shard_hops,
        states: result.states.into_vec(),
    }
}

fn main() {
    let scale = bench_scale();
    let rmat_scale: u32 = (14 + (scale.log2().round() as i32).clamp(-6, 6)) as u32;
    let cfg = RmatConfig::graph500(rmat_scale);
    let mut edges = remo_gen::rmat::generate(&cfg);
    stream::shuffle(&mut edges, 61);
    let weighted: Vec<(VertexId, VertexId, Weight)> = edges
        .iter()
        .map(|&(s, d)| (s, d, edge_weight(s, d)))
        .collect();
    let source = edges[0].0;
    let expected_vertices = 1usize << rmat_scale;
    let shards = shards();

    let grid: Vec<(&str, TraceConfig)> = vec![
        ("off", TraceConfig::off()),
        ("sampled", TraceConfig::on()),
        (
            "full",
            TraceConfig::on()
                .with_sample_shift(0)
                .with_ring_capacity(1 << 16),
        ),
    ];

    // Rep-major sweep keeping each cell's minimum wall-clock
    // (interleaving beats rep count against load drift). Counters, trees, and states come from the final rep.
    let mut cells: Vec<Option<Cell>> = grid.iter().map(|_| None).collect();
    for _ in 0..bench_reps() {
        for (slot, (_, trace)) in cells.iter_mut().zip(&grid) {
            let mut cell = run_once(trace, shards, expected_vertices, &weighted, source);
            if let Some(prev) = slot.take() {
                cell.elapsed = cell.elapsed.min(prev.elapsed);
            }
            *slot = Some(cell);
        }
    }
    let cells: Vec<Cell> = cells.into_iter().map(|c| c.expect("reps >= 1")).collect();
    let base = &cells[0];

    for ((tag, trace), cell) in grid.iter().zip(&cells) {
        assert_eq!(
            base.states, cell.states,
            "{tag}: SSSP fixpoint diverged across trace modes"
        );
        if !trace.enabled {
            assert_eq!(
                (cell.trace_roots, cell.trees),
                (0, 0),
                "{tag}: tracing off must mint no roots and reconstruct no trees"
            );
            continue;
        }
        assert!(
            cell.trees >= 1,
            "{tag}: a traced run must reconstruct at least one tree"
        );
        assert!(
            cell.amp_total >= 1 && cell.fix_p99_us > 0.0,
            "{tag}: traced trees must carry non-zero amplification \
             and hop latency (amp {}, fixpoint p99 {:.1}us)",
            cell.amp_total,
            cell.fix_p99_us
        );
        // The cross-check: traced sends are a sampled subset of what the
        // engine counted sent, never more.
        assert!(
            cell.amp_total <= cell.envelopes_sent,
            "{tag}: traced amplification ({}) exceeds the engine's \
             envelopes_sent ({})",
            cell.amp_total,
            cell.envelopes_sent
        );
    }

    // Acceptance gate: default sampling stays within 3% of tracing off.
    // Guarded like ablate_wal's gate — at smoke scales the runs are too
    // short to resolve it, and with fewer cores than shards the wall
    // delta measures the kernel scheduler, not the trace plane.
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let strict = std::env::var("REMO_BENCH_STRICT_TRACE").as_deref() == Ok("1");
    if scale >= 1.0 && (cores >= shards || strict) {
        let ratio = cells[1].elapsed.as_secs_f64() / base.elapsed.as_secs_f64().max(1e-9);
        assert!(
            ratio <= SAMPLED_OVERHEAD_CEILING,
            "trace-sampled costs {:.2}% wall over the trace-off reference (ceiling {:.0}%)",
            100.0 * (ratio - 1.0),
            100.0 * (SAMPLED_OVERHEAD_CEILING - 1.0)
        );
    } else if scale >= 1.0 {
        eprintln!(
            "note: trace overhead gate skipped ({cores} cores < {shards} \
             shards; wall deltas would measure the scheduler)"
        );
    }

    let mut rows = Vec::new();
    for ((tag, _), cell) in grid.iter().zip(&cells) {
        let wall_delta = if std::ptr::eq(base, cell) {
            "base".to_string()
        } else {
            format!(
                "{:+.1}%",
                100.0 * (cell.elapsed.as_secs_f64() - base.elapsed.as_secs_f64())
                    / base.elapsed.as_secs_f64().max(1e-9)
            )
        };
        let eps = cell.events as f64 / cell.elapsed.as_secs_f64().max(1e-9);
        rows.push(vec![
            tag.to_string(),
            fmt_dur(cell.elapsed),
            wall_delta,
            format!("{eps:.0}"),
            cell.trace_roots.to_string(),
            cell.trees.to_string(),
            cell.amp_total.to_string(),
            format!("{:.0}/{:.0}", cell.amp_p50, cell.amp_p99),
            format!("{:.0}/{:.0}", cell.fix_p50_us, cell.fix_p99_us),
            cell.cross_shard.to_string(),
            cell.envelopes_sent.to_string(),
        ]);
    }

    report(
        "ablate_trace",
        &format!(
            "Ablation: causal update tracing on RMAT{rmat_scale} \
             SSSP ({shards} shards, identical fixpoints verified per cell)"
        ),
        &[
            "Tracing",
            "Wall",
            "dWall",
            "Events/s",
            "Roots",
            "Trees",
            "AmpTotal",
            "Amp_p50/p99",
            "Fix_us_p50/p99",
            "XShard",
            "EnvSent",
        ],
        &rows,
    );
}
