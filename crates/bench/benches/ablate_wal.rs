//! Ablation — durability: pull log + cuts off / on / on-with-fsync.
//!
//! Durability is runtime-selectable (`EngineConfig::with_durability`) and
//! the default is off, so the data path must not pay for a feature nobody
//! asked for: with durability off the only added cost is one predictable
//! untaken branch per chunk and per pass. This harness prices the whole
//! spectrum on RMAT-14 SSSP at the largest of `shard_counts()` (one shard
//! per core):
//!
//! - `off`       — the engine default (`durability: None`), the base row.
//! - `wal`       — per-shard CRC-framed pull log + a checkpoint cut every
//!   4,096 fed pulls, OS page cache only (`fsync(false)`).
//! - `wal-fsync` — the same with fsync batching on: the honest
//!   crash-consistent configuration `examples/durable_restart.rs` ships.
//!
//! Every cell must converge to the byte-identical SSSP fixpoint, the off
//! cell must record zero WAL records / bytes / checkpoints (durability
//! off does no durability work, not merely cheap work), and each durable
//! cell must write exactly one WAL record per pull: the log holds pulls
//! and nothing else. Those counts are exact at any scale; the walls are
//! not. Wall clock is the minimum over interleaved reps; the on-cells'
//! overhead is reported, not gated — it prices an fsync policy choice,
//! not a regression.
//!
//! Run: `cargo bench -p remo-bench --bench ablate_wal`

use std::path::PathBuf;
use std::time::Duration;

use remo_algos::IncSssp;
use remo_bench::*;
use remo_core::{DurabilityConfig, EngineConfig, VertexId, Weight};
use remo_gen::{stream, RmatConfig};
use remo_store::hash::mix64;

/// Weight derived from the endpoints only (symmetric), so duplicate and
/// reversed edges in the stream agree on the undirected edge's weight.
fn edge_weight(s: VertexId, d: VertexId) -> Weight {
    (mix64(s ^ d) % 15) + 1
}

enum Durability {
    Off,
    Wal { fsync: bool },
}

struct Cell {
    elapsed: Duration,
    events: u64,
    pulls: u64,
    wal_records: u64,
    wal_bytes: u64,
    checkpoints: u64,
    states: Vec<(VertexId, u64)>,
}

fn cell_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("remo-ablate-wal-{}-{tag}", std::process::id()))
}

fn run_once(
    mode: &Durability,
    tag: &str,
    shards: usize,
    weighted: &[(VertexId, VertexId, Weight)],
    source: VertexId,
) -> Cell {
    let mut cfg = EngineConfig::undirected(shards);
    let dir = cell_dir(tag);
    if let Durability::Wal { fsync } = mode {
        let _ = std::fs::remove_dir_all(&dir);
        cfg = cfg.with_durability(
            DurabilityConfig::new(&dir)
                .checkpoint_every(4096)
                .fsync(*fsync),
        );
    }
    let run = timed_run(IncSssp, cfg, &[source], |e| e.try_ingest_weighted(weighted));
    if matches!(mode, Durability::Wal { .. }) {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let total = run.result.metrics.total();
    Cell {
        elapsed: run.elapsed,
        events: total.events_processed(),
        pulls: total.topo_ingested,
        wal_records: total.wal_records_appended,
        wal_bytes: total.wal_bytes,
        checkpoints: total.checkpoints_written,
        states: run.result.states.into_vec(),
    }
}

fn main() {
    let rmat_scale: u32 = (14 + (bench_scale().log2().round() as i32).clamp(-6, 6)) as u32;
    let cfg = RmatConfig::graph500(rmat_scale);
    let mut edges = remo_gen::rmat::generate(&cfg);
    stream::shuffle(&mut edges, 61);
    let weighted: Vec<(VertexId, VertexId, Weight)> = edges
        .iter()
        .map(|&(s, d)| (s, d, edge_weight(s, d)))
        .collect();
    let source = edges[0].0;
    let shards = shard_counts().last().copied().unwrap_or(1);

    let grid: Vec<(&str, Durability)> = vec![
        ("off", Durability::Off),
        ("wal", Durability::Wal { fsync: false }),
        ("wal-fsync", Durability::Wal { fsync: true }),
    ];

    // Rep-major sweep keeping each cell's minimum wall-clock (interleaving
    // beats rep count against load drift). Counters and states come from
    // the final rep.
    let mut cells: Vec<Option<Cell>> = grid.iter().map(|_| None).collect();
    for _ in 0..bench_reps() {
        for (slot, (tag, mode)) in cells.iter_mut().zip(&grid) {
            let mut cell = run_once(mode, tag, shards, &weighted, source);
            if let Some(prev) = slot.take() {
                cell.elapsed = cell.elapsed.min(prev.elapsed);
            }
            *slot = Some(cell);
        }
    }
    let cells: Vec<Cell> = cells.into_iter().map(|c| c.expect("reps >= 1")).collect();
    let off = &cells[0];

    for ((tag, mode), cell) in grid.iter().zip(&cells) {
        assert_eq!(
            off.states, cell.states,
            "{tag}: SSSP fixpoint diverged across durability modes"
        );
        match mode {
            Durability::Off => assert_eq!(
                (cell.wal_records, cell.wal_bytes, cell.checkpoints),
                (0, 0, 0),
                "{tag}: durability off must do zero durability work"
            ),
            Durability::Wal { .. } => {
                assert_eq!(
                    cell.wal_records, cell.pulls,
                    "{tag}: a durable cell logs exactly one WAL record per pull"
                );
                assert!(cell.checkpoints > 0, "{tag}: durable cell took no cut");
            }
        }
    }

    let mut rows = Vec::new();
    for ((tag, _), cell) in grid.iter().zip(&cells) {
        let wall_delta = if std::ptr::eq(off, cell) {
            "base".to_string()
        } else {
            format!(
                "{:+.1}%",
                100.0 * (cell.elapsed.as_secs_f64() - off.elapsed.as_secs_f64())
                    / off.elapsed.as_secs_f64().max(1e-9)
            )
        };
        let eps = cell.events as f64 / cell.elapsed.as_secs_f64().max(1e-9);
        let per_pull = |n: u64| n as f64 / cell.pulls.max(1) as f64;
        rows.push(vec![
            tag.to_string(),
            fmt_dur(cell.elapsed),
            wall_delta,
            format!("{:.0}", eps),
            cell.pulls.to_string(),
            cell.wal_records.to_string(),
            format!("{:.2}", per_pull(cell.wal_records)),
            format!("{:.2}", cell.wal_bytes as f64 / 1e6),
            format!("{:.1}", per_pull(cell.wal_bytes)),
            cell.checkpoints.to_string(),
        ]);
    }

    report(
        "ablate_wal",
        &format!(
            "Ablation: durability (per-shard pull log + checkpoint cuts) on RMAT{rmat_scale} \
             SSSP ({shards} shards, identical fixpoints and one WAL record per pull \
             verified per cell)"
        ),
        &[
            "Durability",
            "Wall",
            "dWall",
            "Events/s",
            "Pulls",
            "WalRecs",
            "Recs/pull",
            "WalMB",
            "WalB/pull",
            "Ckpts",
        ],
        &rows,
    );
}
