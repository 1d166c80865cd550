//! Ablation — the lane-mesh data plane, with telemetry on and off.
//!
//! Every cross-shard envelope batch rides a bounded lock-free SPSC ring
//! per shard pair (receive = uncontended per-lane poll); drained batch
//! buffers recycle back to their sender over per-pair recycle lanes
//! (steady-state `flush()` is allocation-free), and idle shards park
//! until a sender unparks them. This harness prices the lanes cell
//! end-to-end on RMAT BFS and SSSP against the same run with telemetry
//! off, asserts the fixpoint is byte-identical in both cells, and reports
//! the lane counters (batches shipped, pool hit rate, full-lane
//! fallbacks, wakeups) alongside wall clock.
//!
//! At full scale the harness also asserts the steady-state recycle
//! invariant `batches_recycled / lane_batches >= 0.9` — the pool, not the
//! allocator, must be feeding the hot path — and the telemetry overhead
//! budget: the fully-instrumented lanes cell (counters + histograms +
//! flight recorder, the engine default) must stay within 2% wall clock of
//! an identical run with telemetry off.
//!
//! Run: `cargo bench -p remo-bench --bench ablate_transport`

use std::time::Duration;

use remo_algos::{IncBfs, IncSssp};
use remo_bench::*;
use remo_core::{EngineConfig, TelemetryConfig, VertexId, Weight};
use remo_gen::{stream, RmatConfig};
use remo_store::hash::mix64;

const SHARDS: usize = 8;

/// Full-telemetry overhead ceiling vs the telemetry-off lanes cell,
/// asserted at `scale >= 1.0`.
const TELEMETRY_OVERHEAD_CEILING: f64 = 1.02;

/// Grid cell: display name, telemetry.
type GridCell = (&'static str, TelemetryConfig);

fn transport_grid() -> Vec<GridCell> {
    vec![
        ("lanes", TelemetryConfig::default()),
        ("lanes-notel", TelemetryConfig::off()),
    ]
}

fn config(telemetry: TelemetryConfig, expected_vertices: usize) -> EngineConfig {
    EngineConfig::undirected(SHARDS)
        .with_telemetry(telemetry)
        .with_expected_vertices(expected_vertices)
}

/// Weight derived from the endpoints only (symmetric), so duplicate and
/// reversed edges in the stream agree on the undirected edge's weight.
fn edge_weight(s: VertexId, d: VertexId) -> Weight {
    (mix64(s ^ d) % 15) + 1
}

struct Cell {
    elapsed: Duration,
    events: u64,
    lane_batches: u64,
    batches_recycled: u64,
    lane_full_fallbacks: u64,
    unparks: u64,
    states: Vec<(VertexId, u64)>,
}

fn run_once(
    algo_name: &str,
    telemetry: TelemetryConfig,
    expected_vertices: usize,
    edges: &[(VertexId, VertexId)],
    weighted: &[(VertexId, VertexId, Weight)],
    source: VertexId,
) -> Cell {
    let cfg = config(telemetry, expected_vertices);
    let run = match algo_name {
        "BFS" => timed_run_with(IncBfs, cfg, edges, &[source]),
        _ => timed_run_weighted_with(IncSssp, cfg, weighted, &[source]),
    };
    let total = run.result.metrics.total();
    Cell {
        elapsed: run.elapsed,
        events: total.events_processed(),
        lane_batches: total.lane_batches,
        batches_recycled: total.batches_recycled,
        lane_full_fallbacks: total.lane_full_fallbacks,
        unparks: total.unparks,
        states: run.result.states.into_vec(),
    }
}

/// Rep-major sweep keeping each cell's minimum wall-clock (interleaving
/// beats rep count against load drift).
/// Counters and states come from the final rep.
fn measure_grid(
    algo_name: &str,
    grid: &[GridCell],
    expected_vertices: usize,
    edges: &[(VertexId, VertexId)],
    weighted: &[(VertexId, VertexId, Weight)],
    source: VertexId,
) -> Vec<Cell> {
    let mut cells: Vec<Option<Cell>> = grid.iter().map(|_| None).collect();
    for _ in 0..bench_reps() {
        for (slot, (_, telemetry)) in cells.iter_mut().zip(grid) {
            let mut cell = run_once(
                algo_name,
                telemetry.clone(),
                expected_vertices,
                edges,
                weighted,
                source,
            );
            if let Some(prev) = slot.take() {
                cell.elapsed = cell.elapsed.min(prev.elapsed);
            }
            *slot = Some(cell);
        }
    }
    cells.into_iter().map(|c| c.expect("reps >= 1")).collect()
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

    let grid = transport_grid();
    let mut rows = Vec::new();
    for algo in ["BFS", "SSSP"] {
        let cells = measure_grid(algo, &grid, expected_vertices, &edges, &weighted, source);
        let base = &cells[0];
        // Acceptance gate: full telemetry (the `lanes` cell — engine
        // defaults) must cost at most 2% wall clock over the identical
        // run with telemetry compiled-in but switched off. Min-of-reps
        // wall clocks keep scheduler noise out of the comparison. Smoke
        // scales skip it (runs too short to resolve 2%), and so do boxes
        // without a core per shard: with 8 workers timesharing fewer
        // cores, inter-cell wall deltas measure the kernel scheduler,
        // not the instrumentation (observed swings of ±10% in both
        // directions on a 1-core container). `REMO_BENCH_STRICT_TELEMETRY=1`
        // forces the gate regardless.
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let strict = std::env::var("REMO_BENCH_STRICT_TELEMETRY").as_deref() == Ok("1");
        if scale >= 1.0 && (cores >= SHARDS || strict) {
            let on = &cells[0];
            let off = &cells[1];
            let ratio = on.elapsed.as_secs_f64() / off.elapsed.as_secs_f64().max(1e-9);
            assert!(
                ratio <= TELEMETRY_OVERHEAD_CEILING,
                "{algo}: full telemetry costs {:.1}% wall over telemetry-off \
                 (ceiling {:.0}%)",
                100.0 * (ratio - 1.0),
                100.0 * (TELEMETRY_OVERHEAD_CEILING - 1.0)
            );
        } else if scale >= 1.0 {
            eprintln!(
                "note: telemetry overhead gate skipped ({cores} cores < {SHARDS} \
                 shards; wall deltas would measure the scheduler)"
            );
        }
        for ((transport, telemetry), cell) in grid.iter().zip(&cells) {
            assert_eq!(
                base.states, cell.states,
                "{algo}/{transport}: fixpoint diverged across cells"
            );
            assert!(
                cell.lane_batches > 0,
                "{algo}/{transport}: shipped no lane batches"
            );
            let ratio = cell.batches_recycled as f64 / cell.lane_batches as f64;
            // At smoke scale a run is over before the pool warms up;
            // only the committed full-scale artifact asserts it.
            if scale >= 1.0 {
                assert!(
                    ratio >= 0.9,
                    "{algo}/{transport}: pool hit rate {ratio:.3} below steady-state floor"
                );
            }
            let wall_delta = if std::ptr::eq(base, cell) {
                "base".to_string()
            } else {
                format!(
                    "{:+.1}%",
                    100.0 * (cell.elapsed.as_secs_f64() - base.elapsed.as_secs_f64())
                        / base.elapsed.as_secs_f64().max(1e-9)
                )
            };
            let recycle_rate = format!("{:.1}%", 100.0 * ratio);
            rows.push(vec![
                algo.to_string(),
                transport.to_string(),
                if telemetry.counters { "on" } else { "off" }.to_string(),
                fmt_dur(cell.elapsed),
                wall_delta,
                cell.events.to_string(),
                cell.lane_batches.to_string(),
                recycle_rate,
                cell.lane_full_fallbacks.to_string(),
                cell.unparks.to_string(),
            ]);
        }
    }

    report(
        "ablate_transport",
        &format!(
            "Ablation: data-plane transport on RMAT{rmat_scale} \
             ({SHARDS} shards, identical fixpoints verified per cell)"
        ),
        &[
            "Algo",
            "Transport",
            "Telemetry",
            "Wall",
            "dWall",
            "Events",
            "LaneB",
            "Recycle",
            "Fallb",
            "Unparks",
        ],
        &rows,
    );
}
