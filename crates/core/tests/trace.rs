//! Causal-tracing integration suite: every engine traces one external
//! ingest in `2^SAMPLE_SHIFT` per shard, and tracing must be pure
//! observation. The pinned contracts:
//!
//! - **Fixpoint identity**: a traced run reaches the fixpoint
//!   `SequentialEngine` reaches on the same stream at every shard count —
//!   tags are cargo, never consulted by the computation.
//! - **Exact roots**: each shard mints one root per `2^SAMPLE_SHIFT`
//!   ingests, no more and no fewer.
//! - **Tree sanity**: every reconstructed propagation tree is anchored at
//!   a genuinely ingested topology event, its hop depths are strictly
//!   ascending, its per-trace tallies equal the per-hop sums, and the
//!   total amplification never exceeds the engine's own envelope counter.
//! - **Exporter round-trip**: the trace families render in the Prometheus
//!   scrape with live values, and the registry's `column_bytes` gauge
//!   tracks detach-time compaction.

use std::collections::BTreeSet;

use remo_core::{
    AlgoCtx, Algorithm, Engine, EngineConfig, QueryRegistry, SequentialEngine, VertexId,
    SAMPLE_SHIFT,
};

mod max_label;
use max_label::MaxLabel;

/// Deterministic xorshift edge stream over a small vertex range.
fn edge_stream(n: usize, vertices: u64, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n)
        .map(|_| {
            let s = step() % vertices;
            let mut d = step() % vertices;
            if d == s {
                d = (d + 1) % vertices;
            }
            (s, d)
        })
        .collect()
}

/// Traced runs reach the sequential engine's fixpoint, on a stream long
/// enough that every shard mints at least four roots.
///
/// Grid: shards 1/2/4 (1 = no Send span ever crosses a shard, and only
/// suppression closes a branch; 2 and 4 add dominance retirement).
#[test]
fn traced_fixpoint_matches_sequential() {
    let edges = edge_stream(1100, 61, 0x7ace);
    let mut seq = SequentialEngine::undirected(MaxLabel);
    seq.apply_pairs(&edges);
    let want = seq.states();
    for (i, shards) in [1usize, 2, 4].into_iter().enumerate() {
        let ctx = format!("case {i}: P={shards}");
        let engine = Engine::new(MaxLabel, EngineConfig::undirected(shards));
        engine.try_ingest_pairs(&edges).unwrap();
        let result = engine.try_finish().unwrap();
        assert!(result.failures.is_empty(), "{ctx}");
        result.metrics.verify_balance().unwrap();
        for (s, m) in result.metrics.per_shard.iter().enumerate() {
            assert!(
                m.trace_roots >= 4,
                "{ctx}: shard {s} minted {}",
                m.trace_roots
            );
        }
        let mut got = result.states.into_vec();
        got.sort_unstable_by_key(|&(v, _)| v);
        assert_eq!(got, want, "{ctx}: the traced fixpoint differs");
    }
}

/// Roots are counted exactly: each shard mints one per `2^SAMPLE_SHIFT`
/// ingests, whatever the remainder of its stream.
#[test]
fn roots_are_one_per_sampled_ingest() {
    let edges = edge_stream(64 * 3 * 5 + 37, 61, 0x0ff7);
    let engine = Engine::new(MaxLabel, EngineConfig::undirected(3));
    engine.try_ingest_pairs(&edges).unwrap();
    let result = engine.try_finish().unwrap();
    let per_shard = &result.metrics.per_shard;
    let ingested: u64 = per_shard.iter().map(|m| m.topo_ingested).sum();
    assert_eq!(ingested, edges.len() as u64);
    for (s, m) in per_shard.iter().enumerate() {
        assert_eq!(
            m.trace_roots,
            m.topo_ingested >> SAMPLE_SHIFT,
            "shard {s}: {} ingests",
            m.topo_ingested
        );
    }
}

/// Propagation-tree sanity: every tree is anchored at an ingested update,
/// hop depths ascend strictly, per-trace tallies equal their per-hop sums,
/// and total amplification cross-checks against the engine's own
/// `envelopes_sent` counter.
#[test]
fn propagation_trees_are_sane() {
    let edges = edge_stream(1280, 120, 0x5a9e);
    let engine = Engine::new(MaxLabel, EngineConfig::undirected(2));
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();

    let traces = engine.traces_now();
    assert!(!traces.is_empty(), "sampled ingests must observe traces");
    let ingested: BTreeSet<(u64, u64)> = edges.iter().copied().collect();
    let mut total_amplification = 0u64;
    for t in &traces {
        assert!(
            ingested.contains(&(t.src, t.dst)),
            "trace {} rooted at ({}, {}), which was never ingested",
            t.id,
            t.src,
            t.dst
        );
        assert!(
            t.hops.windows(2).all(|w| w[0].hop < w[1].hop),
            "trace {}: hop depths must ascend strictly",
            t.id
        );
        assert_eq!(
            t.depth,
            t.hops.last().map_or(0, |h| h.hop),
            "trace {}: depth must equal the deepest hop",
            t.id
        );
        assert_eq!(
            t.amplification,
            t.hops.iter().map(|h| h.sent).sum::<u64>(),
            "trace {}: amplification must equal the per-hop send sum",
            t.id
        );
        assert_eq!(t.processed, t.hops.iter().map(|h| h.processed).sum::<u64>());
        assert_eq!(t.dominated, t.hops.iter().map(|h| h.dominated).sum::<u64>());
        assert_eq!(
            t.suppressed,
            t.hops.iter().map(|h| h.suppressed).sum::<u64>()
        );
        assert!(
            t.cross_shard_hops <= t.amplification,
            "trace {}: cross-shard hops are a subset of sends",
            t.id
        );
        total_amplification += t.amplification;
    }
    assert!(
        traces.iter().any(|t| t.amplification >= 1),
        "at least one update must have caused an envelope"
    );
    assert!(
        traces.iter().any(|t| t.depth >= 2),
        "max-label cascades must reach depth >= 2"
    );
    assert!(
        traces.iter().any(|t| t.dominated + t.suppressed >= 1),
        "max-label implements `absorbs`: some branch must close on a \
         Dominate or Suppress span"
    );

    let summary = engine.trace_summary();
    assert_eq!(summary.observed, traces.len() as u64);
    assert_eq!(summary.fixpoint.count, traces.len() as u64);

    let result = engine.try_finish().unwrap();
    let total = result.metrics.total();
    assert_eq!(
        total.trace_spans_dropped, 0,
        "precondition: the rings must not wrap at this scale"
    );
    assert_eq!(
        traces.len() as u64,
        total.trace_roots,
        "with no span evicted every minted root must reconstruct"
    );
    assert!(
        total_amplification <= total.envelopes_sent,
        "traced sends ({total_amplification}) cannot exceed all sends ({})",
        total.envelopes_sent
    );
    assert!(total_amplification > 0);
}

/// The exporter carries the trace families with live values.
#[test]
fn trace_families_export_live_values() {
    let edges = edge_stream(300, 31, 0xe4b0);
    let engine = Engine::new(MaxLabel, EngineConfig::undirected(2));
    let hub = engine.telemetry();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let prom = hub.render_prometheus();
    drop(engine.try_finish().unwrap());

    for family in [
        "remo_traces_observed",
        "remo_trace_fixpoint_seconds",
        "remo_trace_hops",
        "remo_trace_amplification",
        "remo_trace_cross_shard_hops_total",
    ] {
        assert!(prom.contains(family), "missing family {family}");
    }
    let observed: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("remo_traces_observed "))
        .expect("gauge line present")
        .trim()
        .parse()
        .expect("gauge value parses");
    assert!(observed > 0, "observed={observed}");
}

/// Registry satellite: the `registry_column_bytes` gauge is recounted by
/// the Prime sweep (attach) and the Clear sweep (detach), and detach-time
/// compaction reclaims the whole column store when the last query leaves.
#[test]
fn registry_column_bytes_tracks_attach_and_detach_compaction() {
    /// Degree counting as a registry cell query: the prime sweep's muted
    /// `on_add` per stored edge materializes a column on every vertex.
    struct DegreeCell;
    impl Algorithm for DegreeCell {
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
        fn absorbs(live: &u64, incoming: &u64) -> bool {
            incoming <= live
        }
    }

    let column_bytes_of = |prom: &str| -> u64 {
        prom.lines()
            .find_map(|l| l.strip_prefix("remo_registry_column_bytes "))
            .expect("column-bytes gauge line present")
            .trim()
            .parse()
            .expect("gauge value parses")
    };

    let edges = edge_stream(300, 41, 0xc01b);
    let reg: QueryRegistry<u64> = QueryRegistry::new();
    let engine = Engine::new(reg.clone(), EngineConfig::undirected(2));
    let hub = engine.telemetry();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();

    let id = reg.attach(&engine, DegreeCell, &[], "degree").unwrap();
    engine.try_await_quiescence().unwrap();
    let attached = column_bytes_of(&hub.render_prometheus());
    assert!(
        attached > 0,
        "prime sweep must count the materialized columns"
    );

    reg.detach(&engine, id).unwrap();
    engine.try_await_quiescence().unwrap();
    let detached = column_bytes_of(&hub.render_prometheus());
    assert_eq!(
        detached, 0,
        "clear sweep must compact every column to nothing once the last query leaves"
    );
    drop(engine.try_finish().unwrap());
}
