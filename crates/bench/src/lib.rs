//! # remo-bench — harness utilities for regenerating the paper's evaluation
//!
//! Every table and figure of the paper's §V has a bench target in
//! `benches/` that prints the corresponding rows/series. This library holds
//! the shared machinery: saturation-test runners (the paper's methodology —
//! streams pre-randomized and pulled "as fast as possible", §V-A), a
//! construction-only algorithm, a static-BFS-over-dynamic-store driver
//! (Fig. 3's centre bar), and table formatting. Beside them sit the two
//! planes the perf ledger leaves out: durability (`benches/ablate_wal.rs`)
//! and the multi-query registry (`src/bin/marginal_query.rs`).
//!
//! Workload sizes default to laptop scale; set `REMO_BENCH_SCALE` (a float
//! multiplier) and `REMO_BENCH_SHARDS` (comma-separated shard counts) to
//! dial them.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

use remo_core::DenseStore;
use remo_core::{Algorithm, EdgeData, Engine, EngineConfig, EngineError, RunResult, VertexId};

/// "CON" in Fig. 5: graph construction with no algorithm hooked in.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConstructionOnly;

impl Algorithm for ConstructionOnly {
    type State = u64;
    type Edge = ();
}

/// A timed saturation run: ingest the whole stream and wait for quiescence.
pub struct TimedRun<S, E> {
    pub result: RunResult<S, E>,
    pub elapsed: Duration,
}

impl<S, E> TimedRun<S, E> {
    /// Topology events per second — the paper's headline metric.
    pub fn events_per_sec(&self) -> f64 {
        let t = self.result.metrics.total();
        t.topo_ingested as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs `algo` under `config`, initiating `inits` first, and times
/// `ingest` — one `try_ingest_*` call on the engine — to quiescence.
pub fn timed_run<A: Algorithm>(
    algo: A,
    config: EngineConfig,
    inits: &[VertexId],
    ingest: impl FnOnce(&Engine<A>) -> Result<(), EngineError>,
) -> TimedRun<A::State, A::Edge> {
    let engine = Engine::new(algo, config);
    for &v in inits {
        engine.try_init_vertex(v).unwrap();
    }
    let start = Instant::now();
    ingest(&engine).unwrap();
    engine.try_await_quiescence().unwrap();
    let elapsed = start.elapsed();
    let result = engine.try_finish().unwrap();
    TimedRun { result, elapsed }
}

/// The bench's integer-keyed hashing: [`mix64`](remo_store::hash::mix64), the store's own integer
/// hash, in place of std's SipHash.
mod hash {
    use std::hash::Hasher;

    use remo_store::hash::mix64;

    /// Folds each written word into its state and finishes with [`mix64`],
    /// so a lone `u64` key hashes to `mix64(key)` and a pair hashes
    /// differently from its swap.
    #[derive(Default)]
    pub(crate) struct Mix64Hasher(u64);

    impl Hasher for Mix64Hasher {
        fn finish(&self) -> u64 {
            mix64(self.0)
        }

        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = self.0.rotate_left(8) ^ u64::from(b);
            }
        }

        fn write_u64(&mut self, v: u64) {
            self.0 = self.0.rotate_left(32) ^ v;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::hash::{BuildHasher, BuildHasherDefault};

        fn hash<T: std::hash::Hash>(key: T) -> u64 {
            BuildHasherDefault::<Mix64Hasher>::default().hash_one(key)
        }

        #[test]
        fn vertex_key_hashes_to_mix64() {
            for v in [0u64, 1, 42, u64::MAX] {
                assert_eq!(hash(v), mix64(v));
            }
        }

        #[test]
        fn pair_key_is_order_sensitive() {
            assert_ne!(hash((1u64, 2u64)), hash((2u64, 1u64)));
            assert_ne!(hash((1u64, 2u64)), hash((3u64, 2u64)));
        }
    }
}

/// Static top-down BFS **over the dynamic store** (the paper's Fig. 3
/// centre bar: "running the static algorithm run-time on top of ... the
/// graph constructed dynamically"). Every neighbour read goes through the
/// shards' intern tables and per-vertex edge slabs instead of a flat CSR
/// array — exactly the locality disadvantage §V-B discusses. Returns each
/// reached vertex's level (the source is 1), sorted by vertex.
pub fn static_bfs_on_dynamic<S: Clone + Default + PartialEq, E: EdgeData>(
    tables: &[DenseStore<S, E>],
    source: VertexId,
) -> Vec<(VertexId, u64)> {
    use remo_core::Partitioner;
    let part = Partitioner::new(tables.len());
    let mut levels: HashMap<VertexId, u64, BuildHasherDefault<hash::Mix64Hasher>> =
        HashMap::default();
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
                    if let Entry::Vacant(slot) = levels.entry(nbr) {
                        slot.insert(level);
                        next.push(nbr);
                    }
                }
            }
        }
        frontier = next;
    }
    let mut levels: Vec<(VertexId, u64)> = levels.into_iter().collect();
    levels.sort_unstable();
    levels
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
    let cap = std::thread::available_parallelism().map_or(1, |p| p.get());
    let requested = std::env::var("REMO_BENCH_SHARDS")
        .ok()
        .map(|v| v.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    capped_shard_counts(requested, cap)
}

/// The counts of `requested` in `1..=cap`, or `[1]` when none is: a
/// harness never time-slices more shards than there are cores.
fn capped_shard_counts(requested: Vec<usize>, cap: usize) -> Vec<usize> {
    let counts: Vec<usize> = requested
        .into_iter()
        .filter(|&s| s >= 1 && s <= cap)
        .collect();
    if counts.is_empty() {
        vec![1]
    } else {
        counts
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_run_counts_events() {
        let edges = vec![(0u64, 1u64), (1, 2), (2, 3)];
        let run = timed_run(ConstructionOnly, EngineConfig::undirected(2), &[], |e| {
            e.try_ingest_pairs(&edges)
        });
        assert_eq!(run.result.metrics.total().topo_ingested, 3);
        assert!(run.events_per_sec() > 0.0);
    }

    #[test]
    fn timed_run_sssp_matches_dijkstra() {
        // (1, 2) arrives cheap, then again reversed and dearer: the store
        // keeps the minimum weight, as Dijkstra over the multigraph does.
        let edges = vec![
            (0u64, 1u64, 4u64),
            (2, 1, 2),
            (0, 3, 1),
            (3, 2, 7),
            (1, 2, 9),
            (2, 4, 1),
        ];
        let build = remo_baseline::build_undirected_weighted(&edges);
        let want: Vec<(VertexId, u64)> = remo_baseline::sssp_costs(&build.csr, 0)
            .into_iter()
            .enumerate()
            .map(|(v, cost)| (v as VertexId, cost))
            .collect();
        let run = timed_run(
            remo_algos::IncSssp,
            EngineConfig::undirected(2),
            &[0],
            |e| e.try_ingest_weighted(&edges),
        );
        assert_eq!(run.result.states.into_vec(), want);
        assert_eq!(want[2], (2, 7), "the cheap copy of (1, 2) must win");
    }

    #[test]
    fn static_bfs_on_dynamic_matches_levels() {
        let edges = vec![(0u64, 1u64), (1, 2), (0, 3)];
        let run = timed_run(ConstructionOnly, EngineConfig::undirected(3), &[], |e| {
            e.try_ingest_pairs(&edges)
        });
        let levels = static_bfs_on_dynamic(&run.result.tables, 0);
        assert_eq!(levels, vec![(0, 1), (1, 2), (2, 3), (3, 2)]);
    }

    #[test]
    fn shard_counts_never_exceed_the_cap() {
        let cap = std::thread::available_parallelism().map_or(1, |p| p.get());
        let counts = shard_counts();
        assert!(!counts.is_empty());
        assert!(counts.iter().all(|&s| (1..=cap).contains(&s)), "{counts:?}");
        for cap in 1..=16 {
            for requested in [vec![1, 2, 4, 8], vec![4, 8], vec![0, 3, 64], vec![]] {
                let counts = capped_shard_counts(requested.clone(), cap);
                assert!(!counts.is_empty(), "cap {cap}, {requested:?}");
                assert!(
                    counts.iter().all(|&s| (1..=cap).contains(&s)),
                    "cap {cap}, {requested:?} -> {counts:?}"
                );
            }
        }
        assert_eq!(capped_shard_counts(vec![1, 2, 4, 8], 2), vec![1, 2]);
        assert_eq!(capped_shard_counts(vec![4, 8], 2), vec![1]);
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
    fn json_table_carries_host_topology() {
        let j = json_table("t", &["a"], &[vec!["1".to_string()]]);
        assert!(j.contains("\"host_topology\": {\"cpus\": "));
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
