//! # remo-bench — harness utilities for regenerating the paper's evaluation
//!
//! Every table and figure of the paper's §V has a bench target in
//! `benches/` that prints the corresponding rows/series. This library holds
//! the shared machinery: saturation-test runners (the paper's methodology —
//! streams pre-randomized and pulled "as fast as possible", §V-A), a
//! construction-only algorithm, a static-BFS-over-dynamic-store driver
//! (Fig. 3's centre bar), and table formatting.
//!
//! Workload sizes default to laptop scale; set `REMO_BENCH_SCALE` (a float
//! multiplier) and `REMO_BENCH_SHARDS` (comma-separated shard counts) to
//! dial them.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use remo_core::storage::DenseStore;
use remo_core::{
    AlgoCtx, Algorithm, Engine, EngineConfig, LatencyHistogram, RunResult, VertexId, Weight,
};

/// Process-wide accumulator of sampled event-service-time measurements
/// across every timed run of a bench invocation. `json_table` surfaces its
/// p50/p99/p999 in each `BENCH_*.json`, so every committed artifact
/// carries the latency shape behind its throughput numbers.
static SERVICE_HIST: Mutex<LatencyHistogram> = Mutex::new(LatencyHistogram::new());

/// Folds one run's harvested service-time histogram into the accumulator.
/// Called by every `timed_run*` helper; benches driving engines by hand
/// can call it themselves.
pub fn note_service(h: &LatencyHistogram) {
    SERVICE_HIST
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .merge(h);
}

/// Process-wide ingest totals across every timed run of a bench
/// invocation. `json_table` derives the sustained `updates_per_sec`
/// (topology updates / timed wall-clock), so a committed artifact shows
/// how fast the stream went in.
#[derive(Debug, Default, Clone, Copy)]
struct IngestTotals {
    updates: u64,
    wall_secs: f64,
}

static INGEST_TOTALS: Mutex<IngestTotals> = Mutex::new(IngestTotals {
    updates: 0,
    wall_secs: 0.0,
});

/// Folds one run's ingest volume into the
/// process-wide accumulator. Called by every `timed_run*` helper; benches
/// driving engines by hand can call it themselves.
pub fn note_ingest(elapsed: Duration, totals: &remo_core::ShardMetrics) {
    let mut t = INGEST_TOTALS.lock().unwrap_or_else(|p| p.into_inner());
    t.updates += totals.topo_ingested;
    t.wall_secs += elapsed.as_secs_f64();
}

/// The accumulated service-time histogram so far.
pub fn service_hist() -> LatencyHistogram {
    SERVICE_HIST
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
}

/// "CON" in Fig. 5: graph construction with no algorithm hooked in.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConstructionOnly;

impl Algorithm for ConstructionOnly {
    type State = u64;
}

/// A timed saturation run: ingest the whole stream and wait for quiescence.
pub struct TimedRun<S> {
    pub result: RunResult<S>,
    pub elapsed: Duration,
}

impl<S> TimedRun<S> {
    /// Topology events per second — the paper's headline metric.
    pub fn events_per_sec(&self) -> f64 {
        let t = self.result.metrics.total();
        t.topo_ingested as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs `algo` over the unweighted stream at `shards`, initiating `inits`
/// first, timing ingestion-to-quiescence.
pub fn timed_run<A: Algorithm>(
    algo: A,
    shards: usize,
    edges: &[(VertexId, VertexId)],
    inits: &[VertexId],
) -> TimedRun<A::State> {
    let engine = Engine::new(algo, EngineConfig::undirected(shards));
    for &v in inits {
        engine.try_init_vertex(v).unwrap();
    }
    let start = Instant::now();
    engine.try_ingest_pairs(edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let elapsed = start.elapsed();
    let result = engine.try_finish().unwrap();
    note_service(&result.metrics.service);
    note_ingest(elapsed, &result.metrics.total());
    TimedRun { result, elapsed }
}

/// [`timed_run`] with a caller-supplied engine config, for ablations that
/// flip `EngineConfig` switches rather than shard counts.
pub fn timed_run_with<A: Algorithm>(
    algo: A,
    config: EngineConfig,
    edges: &[(VertexId, VertexId)],
    inits: &[VertexId],
) -> TimedRun<A::State> {
    let engine = Engine::new(algo, config);
    for &v in inits {
        engine.try_init_vertex(v).unwrap();
    }
    let start = Instant::now();
    engine.try_ingest_pairs(edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let elapsed = start.elapsed();
    let result = engine.try_finish().unwrap();
    note_service(&result.metrics.service);
    note_ingest(elapsed, &result.metrics.total());
    TimedRun { result, elapsed }
}

/// Weighted variant of [`timed_run_with`].
pub fn timed_run_weighted_with<A: Algorithm>(
    algo: A,
    config: EngineConfig,
    edges: &[(VertexId, VertexId, Weight)],
    inits: &[VertexId],
) -> TimedRun<A::State> {
    let engine = Engine::new(algo, config);
    for &v in inits {
        engine.try_init_vertex(v).unwrap();
    }
    let start = Instant::now();
    engine.try_ingest_weighted(edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let elapsed = start.elapsed();
    let result = engine.try_finish().unwrap();
    note_service(&result.metrics.service);
    note_ingest(elapsed, &result.metrics.total());
    TimedRun { result, elapsed }
}

/// Weighted variant of [`timed_run`].
pub fn timed_run_weighted<A: Algorithm>(
    algo: A,
    shards: usize,
    edges: &[(VertexId, VertexId, Weight)],
    inits: &[VertexId],
) -> TimedRun<A::State> {
    let engine = Engine::new(algo, EngineConfig::undirected(shards));
    for &v in inits {
        engine.try_init_vertex(v).unwrap();
    }
    let start = Instant::now();
    engine.try_ingest_weighted(edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let elapsed = start.elapsed();
    let result = engine.try_finish().unwrap();
    note_service(&result.metrics.service);
    note_ingest(elapsed, &result.metrics.total());
    TimedRun { result, elapsed }
}

/// Static top-down BFS **over the dynamic store** (the paper's Fig. 3
/// centre bar: "running the static algorithm run-time on top of ... the
/// graph constructed dynamically"). Every neighbour read goes through the
/// shards' intern tables and per-vertex edge slabs instead of a flat CSR
/// array — exactly the locality disadvantage §V-B discusses.
pub fn static_bfs_on_dynamic<S: Clone + Default + PartialEq>(
    tables: &[DenseStore<S>],
    source: VertexId,
) -> Vec<(VertexId, u64)> {
    use remo_core::Partitioner;
    use remo_store::RhhMap;
    let part = Partitioner::new(tables.len());
    let mut levels: RhhMap<VertexId, u64> = RhhMap::new();
    let mut frontier = vec![source];
    levels.insert(source, 1);
    let mut level = 1u64;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            let table = &tables[part.owner(v)];
            if let Some((_, adj)) = table.get(v) {
                for (nbr, _) in adj.iter() {
                    if !levels.contains(nbr) {
                        levels.insert(nbr, level);
                        next.push(nbr);
                    }
                }
            }
        }
        frontier = next;
    }
    levels.iter().map(|(v, &l)| (v, l)).collect()
}

/// Size multiplier from `REMO_BENCH_SCALE` (default 1.0).
pub fn bench_scale() -> f64 {
    std::env::var("REMO_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Repetitions per measured cell from `REMO_BENCH_REPS` (default 5). Benches
/// that compare wall-clock across configurations keep the minimum across
/// reps, which discards scheduler noise on loaded/single-core boxes.
pub fn bench_reps() -> usize {
    std::env::var("REMO_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(5)
}

/// Shard counts from `REMO_BENCH_SHARDS` (default "1,2,4,8", capped at the
/// machine's available parallelism).
pub fn shard_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(8);
    std::env::var("REMO_BENCH_SHARDS")
        .ok()
        .map(|v| v.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
        .into_iter()
        .filter(|&s| s >= 1 && s <= max.max(8))
        .collect()
}

/// Formats a rate in the paper's "events per second" style.
pub fn fmt_rate(r: f64) -> String {
    if r >= 1e9 {
        format!("{:.2}B", r / 1e9)
    } else if r >= 1e6 {
        format!("{:.2}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}K", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

/// Formats a byte count in adaptive binary units.
pub fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2}GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.1}MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1}KiB", b / KIB)
    } else {
        format!("{b:.0}B")
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`). `None` off Linux or if the field is missing —
/// callers report it as best-effort telemetry, never a hard number.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Formats a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}us", s * 1e6)
    }
}

/// Renders a markdown-style table (header + rows) to a string.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |out: &mut String, cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(4)))
            .collect();
        let _ = writeln!(out, "| {} |", padded.join(" | "));
    };
    line(
        &mut out,
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let _ = writeln!(
        out,
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Prints a markdown-style table (header + rows) to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, header, rows));
}

/// Where bench artifacts land: `REMO_BENCH_OUT`, default `bench_results/`.
pub fn bench_out_dir() -> std::path::PathBuf {
    std::env::var("REMO_BENCH_OUT")
        .unwrap_or_else(|_| "bench_results".to_string())
        .into()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes a table as `{"name", "scale", "header", "rows": [{col: cell}]}`.
/// Hand-rolled (the workspace has no serde); cells stay the exact strings
/// the printed table shows, so the two artifacts can never disagree.
pub fn json_table(name: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"name\": \"{}\",\n", json_escape(name)));
    out.push_str(&format!("  \"scale\": {},\n", bench_scale()));
    // Host topology at serialization time: every committed artifact says
    // what machine shape produced it, so cross-host comparisons (1-core CI
    // vs a multi-socket box) are never apples-to-oranges by accident.
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    out.push_str(&format!("  \"host_topology\": {{\"cpus\": {cpus}}},\n"));
    // Process-wide high-water mark at serialization time: comparable across
    // cells of one bench run, not across separately-invoked benches.
    out.push_str(&format!(
        "  \"peak_rss_bytes\": {},\n",
        peak_rss_bytes().unwrap_or(0)
    ));
    // Sampled event-service-time quantiles accumulated over every timed
    // run of this bench process (zeros if no timed run reported in).
    let service = service_hist();
    let (p50, p99, p999) = service.quantiles_us();
    out.push_str(&format!(
        "  \"service_time_us\": {{\"samples\": {}, \"p50\": {:.3}, \"p99\": {:.3}, \"p999\": {:.3}}},\n",
        service.count, p50, p99, p999
    ));
    // Sustained topology-update rate over every timed run of this bench
    // process (zero when no timed runs happened).
    let t = *INGEST_TOTALS.lock().unwrap_or_else(|p| p.into_inner());
    let ups = if t.wall_secs > 1e-9 {
        t.updates as f64 / t.wall_secs
    } else {
        0.0
    };
    out.push_str(&format!("  \"updates_per_sec\": {ups:.3},\n"));
    out.push_str("  \"rows\": [\n");
    for (r, row) in rows.iter().enumerate() {
        out.push_str("    {");
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let key = header.get(i).copied().unwrap_or("col");
            out.push_str(&format!(
                "\"{}\": \"{}\"",
                json_escape(key),
                json_escape(cell)
            ));
        }
        out.push('}');
        if r + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the table AND persists both artifacts: the rendered table as
/// `<dir>/<name>.txt` and machine-readable `<dir>/BENCH_<name>.json`.
/// Filesystem problems are reported, never fatal — a bench run's numbers
/// still land on stdout.
pub fn report(name: &str, title: &str, header: &[&str], rows: &[Vec<String>]) {
    let rendered = render_table(title, header, rows);
    print!("{rendered}");
    let dir = bench_out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("bench report: cannot create {}: {e}", dir.display());
        return;
    }
    let txt = dir.join(format!("{name}.txt"));
    if let Err(e) = std::fs::write(&txt, &rendered) {
        eprintln!("bench report: cannot write {}: {e}", txt.display());
    }
    let json = dir.join(format!("BENCH_{name}.json"));
    if let Err(e) = std::fs::write(&json, json_table(name, header, rows)) {
        eprintln!("bench report: cannot write {}: {e}", json.display());
    }
}

/// A tiny always-empty-callback marker used by criterion benches.
#[derive(Debug, Default, Clone, Copy)]
pub struct Noop;

impl Algorithm for Noop {
    type State = u64;
    fn on_add(&self, _ctx: &mut impl AlgoCtx<u64>, _v: VertexId, _val: &u64, _w: Weight) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_run_counts_events() {
        let edges = vec![(0u64, 1u64), (1, 2), (2, 3)];
        let run = timed_run(ConstructionOnly, 2, &edges, &[]);
        assert_eq!(run.result.metrics.total().topo_ingested, 3);
        assert!(run.events_per_sec() > 0.0);
    }

    #[test]
    fn static_bfs_on_dynamic_matches_levels() {
        let edges = vec![(0u64, 1u64), (1, 2), (0, 3)];
        let run = timed_run(ConstructionOnly, 3, &edges, &[]);
        let mut levels = static_bfs_on_dynamic(&run.result.tables, 0);
        levels.sort_unstable();
        assert_eq!(levels, vec![(0, 1), (1, 2), (2, 3), (3, 2)]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_rate(1_500_000.0), "1.50M");
        assert_eq!(fmt_rate(2_000.0), "2.0K");
        assert_eq!(fmt_rate(3.2e9), "3.20B");
        assert!(fmt_dur(Duration::from_millis(5)).ends_with("ms"));
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(4 * 1024), "4.0KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 / 2), "1.5MiB");
    }

    #[test]
    fn peak_rss_reports_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM present on Linux");
            assert!(rss > 0);
        }
    }

    #[test]
    fn json_table_carries_peak_rss() {
        let j = json_table("t", &["a"], &[vec!["1".to_string()]]);
        assert!(j.contains("\"peak_rss_bytes\": "));
    }

    #[test]
    fn json_table_carries_updates_rate() {
        let totals = remo_core::ShardMetrics {
            topo_ingested: 100,
            ..Default::default()
        };
        note_ingest(Duration::from_millis(50), &totals);
        let j = json_table("t", &["a"], &[vec!["1".to_string()]]);
        assert!(j.contains("\"updates_per_sec\": "));
    }

    #[test]
    fn json_table_carries_host_topology() {
        let j = json_table("t", &["a"], &[vec!["1".to_string()]]);
        assert!(j.contains("\"host_topology\": {\"cpus\": "));
    }

    #[test]
    fn json_table_carries_service_quantiles() {
        note_service(&{
            let mut h = LatencyHistogram::new();
            h.record(1_000);
            h.record(2_000);
            h
        });
        let j = json_table("t", &["a"], &[vec!["1".to_string()]]);
        assert!(j.contains("\"service_time_us\": {\"samples\": "));
        assert!(j.contains("\"p50\": "));
        assert!(j.contains("\"p999\": "));
    }

    #[test]
    fn scale_default_is_one() {
        std::env::remove_var("REMO_BENCH_SCALE");
        assert_eq!(bench_scale(), 1.0);
    }

    #[test]
    fn json_table_is_wellformed_and_escaped() {
        let rows = vec![
            vec!["a\"b".to_string(), "1.50M".to_string()],
            vec!["plain".to_string(), "2".to_string()],
        ];
        let j = json_table("t1", &["name", "rate"], &rows);
        assert!(j.contains("\"name\": \"t1\""));
        assert!(j.contains("\"name\": \"a\\\"b\", \"rate\": \"1.50M\""));
        assert!(j.contains("\"rows\": ["));
        // Balanced braces/brackets — a cheap well-formedness proxy given no
        // JSON parser in the workspace.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                j.matches(open).count(),
                j.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn render_table_aligns_columns() {
        let rows = vec![vec!["x".to_string(), "123456".to_string()]];
        let t = render_table("T", &["col", "value"], &rows);
        assert!(t.contains("## T"));
        assert!(t.contains("| x   | 123456 |"));
    }
}
