//! The benchmark's vocabulary: workload names, metric names with their units
//! and regression bounds, the `BENCHMARK.json` text generated from them, and
//! the two order statistics every reported number is built from.

use std::fmt::Write as _;

/// How long one run measures, in seconds (the driver passes it back as
/// `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Value reported for a per-layer metric that does not exist on a run: the
/// engine no longer has the counter it is derived from, its divisor was
/// zero, it belongs to another kind of workload, or it is a tail with fewer
/// than ten samples beyond it.
pub const ABSENT: f64 = -1.0;

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "rmat_sssp_bulk",
        "propagation-heavy: re-relaxation makes events/update high, so callbacks, lattice filtering and lanes dominate",
    ),
    (
        "rmat_cc_bulk",
        "construction-heavy: no source and few updates, so intern, adjacency insert and reverse-add routing dominate",
    ),
    (
        "chain_bfs_cascade",
        "worst-case depth: one envelope in flight, so batching and the store are bypassed and per-hop wake cost is all there is",
    ),
    (
        "rmat_bfs_online",
        "open loop at three fixed rates with a point read beside every write: per-batch fixed costs and quiescence detection dominate",
    ),
];

/// One metric of `BENCHMARK.json`.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// True when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen.
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: None,
    }
}

/// The gated metrics. The driver has every workload report every one of
/// them and rejects a change that worsens one by more than its bound, so a
/// metric belongs here only if unchanged code repeats it within that bound on
/// all four workloads. On the calibration host no timing of the engine does
/// (README, "Calibration record"): they head [`PER_LAYER`] as diagnostics.
pub const END_TO_END: [Metric; 2] = [
    gated("setup_s", "s", false, 0.25),
    gated("peak_rss_mb", "MiB", false, 0.25),
];

/// Printed by the traced run, not gated. First the end-to-end quantities —
/// those every workload has, then those of one kind of workload (−1 on the
/// others) and the tails — then single layers, named `<layer>.<metric>`.
pub const PER_LAYER: [Metric; 64] = [
    layer("updates_per_s", "1/s", true),
    layer("cpu_us_per_update", "us", false),
    layer("fresh_p50_us", "us", false),
    layer("query_p50_us", "us", false),
    layer("wave_fixpoint_p50_ms", "ms", false),
    layer("wave_fixpoint_p95_ms", "ms", false),
    layer("hop_ns_p50", "ns", false),
    layer("hop_ns_p95", "ns", false),
    layer("fresh_p99_us", "us", false),
    layer("query_p99_us", "us", false),
    layer("sustainable_rate", "1/s", true),
    layer("gen.generate_s", "s", false),
    layer("store.intern_ns", "ns", false),
    layer("store.insert_edge_ns", "ns", false),
    layer("store.bytes_per_edge", "B", false),
    layer("store.duplicate_edge_ratio", "ratio", false),
    layer("sequential.updates_per_s", "1/s", true),
    layer("sequential.events_per_update", "ratio", false),
    layer("shard.events_per_update", "ratio", false),
    layer("shard.process_ns_per_event", "ns", false),
    layer("shard.drain_ns_per_event", "ns", false),
    layer("shard.flush_ns_per_event", "ns", false),
    layer("shard.spin_ns_per_event", "ns", false),
    layer("shard.park_share", "ratio", false),
    layer("shard.busy_skew", "ratio", false),
    layer("shard.unattributed_share", "ratio", false),
    layer("lattice.dominated_ratio", "ratio", true),
    layer("lattice.coalesced_ratio", "ratio", true),
    layer("lattice.suppressed_ratio", "ratio", true),
    layer("transport.envelopes_per_update", "ratio", false),
    layer("transport.envelopes_per_batch", "ratio", true),
    layer("transport.recycle_ratio", "ratio", true),
    layer("transport.fallback_ratio", "ratio", false),
    layer("transport.unparks_per_kevent", "ratio", false),
    layer("transport.parks_per_kevent", "ratio", false),
    layer("transport.flush_deferrals_per_kevent", "ratio", false),
    layer("transport.flush_p50_us", "us", false),
    layer("engine.new_ms", "ms", false),
    layer("engine.ingest_call_us_p50", "us", false),
    layer("engine.await_call_us_p50", "us", false),
    layer("engine.finish_ms", "ms", false),
    layer("engine.parallel_vs_sequential", "ratio", true),
    layer("engine.idle_await_us_p50", "us", false),
    layer("termination.quiesce_p50_us", "us", false),
    layer("baseline.build_ms", "ms", false),
    layer("baseline.solve_ms", "ms", false),
    layer("baseline.speedup_vs_static", "ratio", true),
    layer("loadgen.late_p99_us", "us", false),
    layer("loadgen.merged_batch_ratio", "ratio", false),
    layer("loadgen.backlog_end", "count", false),
    layer("online.fresh_p50_us.lo", "us", false),
    layer("online.fresh_p50_us.mid", "us", false),
    layer("online.fresh_p50_us.hi", "us", false),
    layer("online.fresh_p99_us.lo", "us", false),
    layer("online.fresh_p99_us.mid", "us", false),
    layer("online.fresh_p99_us.hi", "us", false),
    layer("harness.trace_overhead_pct", "%", false),
    layer("harness.span_count", "count", false),
    layer("harness.reps", "count", true),
    layer("harness.steal_share", "ratio", false),
    layer("harness.unit_samples", "count", true),
    layer("harness.query_samples", "count", true),
    layer("harness.shards", "count", true),
    layer("harness.stand_in_deps", "count", false),
];

/// The text of `BENCHMARK.json`, generated so that the names the harness
/// emits and the names the driver expects cannot drift apart.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"bash\", \"ledger/cargo.sh\", \"run\", \"--release\", \"--quiet\", \
         \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"ledger\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n");
    for (key, metrics, last) in [
        ("end_to_end", &END_TO_END[..], false),
        ("per_layer", &PER_LAYER[..], true),
    ] {
        let _ = writeln!(s, "  \"{key}\": [");
        for (i, m) in metrics.iter().enumerate() {
            let better = if m.higher { "higher" } else { "lower" };
            let bound = m
                .bound
                .map(|b| format!(", \"bound\": {b}"))
                .unwrap_or_default();
            let sep = if i + 1 < metrics.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}{sep}",
                m.name, m.unit
            );
        }
        s.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    s.push_str("}\n");
    s
}

/// Nearest-rank quantile of `values` (sorts them); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// [`quantile`] `q` of `values` in units of `per`, when at least ten values
/// lie beyond it — the least a tail needs to mean anything; [`ABSENT`]
/// otherwise.
pub fn tail(values: &mut [f64], q: f64, per: f64) -> f64 {
    if (1.0 - q) * values.len() as f64 > 9.99 {
        quantile(values, q) / per
    } else {
        ABSENT
    }
}

/// Median of `values`, the mean of the middle two when the count is even.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Run-to-run spread the way the driver takes it: the distance between the
/// first and third quartile as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)`. 0 for fewer than two values
/// or a median of 0.
pub fn quartile_spread(values: &mut [f64]) -> f64 {
    let n = values.len();
    let mid = median(values);
    if n < 2 || mid == 0.0 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&mut v), (8.25 - 2.75) / 5.5);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartile_spread(&mut [4.0, 1.0, 2.0]), 1.5);
        assert_eq!(quartile_spread(&mut [3.0]), 0.0);
        assert_eq!(quartile_spread(&mut [0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(tail(&mut v, 0.9, 10.0), 9.0);
        assert_eq!(tail(&mut v, 0.95, 1.0), ABSENT);
    }
}
