//! Causal-tracing integration suite (PR 10 tentpole): tracing must be
//! pure observation. The pinned contracts:
//!
//! - **Fixpoint identity**: a tracing-on run (sampling every ingest) is
//!   byte-identical to a tracing-off run over the same stream at every
//!   shard count — tags are cargo, never consulted by the computation.
//! - **Tree sanity**: every reconstructed propagation tree is anchored at
//!   a genuinely ingested topology event, its hop depths are strictly
//!   ascending, its per-trace tallies equal the per-hop sums, and the
//!   total amplification never exceeds the engine's own envelope counter.
//! - **Exporter round-trip**: the trace families render in Prometheus and
//!   JSON whether tracing is on (live values) or off (stable zeros), and
//!   the registry's `column_bytes` gauge tracks detach-time compaction.

use std::collections::BTreeSet;

use remo_core::{AlgoCtx, Algorithm, Engine, EngineConfig, QueryRegistry, TraceConfig, VertexId};

/// Max-label propagation (see `tests/prop_recovery.rs`): the monotone max
/// join makes the fixpoint interleaving-independent — `on_add` always
/// pushes the local label across the new edge, so no cascade depends on
/// adjacency-at-processing-time. Multi-hop cascades with real fan-out
/// exercise dominance and suppression — every span kind.
struct MaxLabel;

impl MaxLabel {
    fn absorb(ctx: &mut impl AlgoCtx<u64>, cand: u64) {
        let changed = ctx.apply(|s| {
            if cand > *s {
                *s = cand;
                true
            } else {
                false
            }
        });
        if changed {
            let label = *ctx.state();
            ctx.update_nbrs(&label);
        }
    }
}

impl Algorithm for MaxLabel {
    type State = u64;
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, _val: &u64, _w: u64) {
        let cand = (ctx.vertex() + 1).max(visitor + 1);
        Self::absorb(ctx, cand);
        let label = *ctx.state();
        ctx.update_single_nbr(visitor, &label);
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: u64) {
        let cand = (ctx.vertex() + 1).max(visitor + 1).max(*value);
        Self::absorb(ctx, cand);
        let label = *ctx.state();
        ctx.update_single_nbr(visitor, &label);
    }
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, _visitor: VertexId, value: &u64, _w: u64) {
        Self::absorb(ctx, *value);
    }
    fn absorbs(live: &u64, incoming: &u64) -> bool {
        incoming <= live
    }
}

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

fn run_fixpoint(config: EngineConfig, edges: &[(VertexId, VertexId)]) -> Vec<(VertexId, u64)> {
    let engine = Engine::new(MaxLabel, config);
    engine.try_ingest_pairs(edges).unwrap();
    let result = engine.try_finish().unwrap();
    assert!(result.failures.is_empty());
    result.metrics.verify_balance().unwrap();
    let mut states = result.states.into_vec();
    states.sort_unstable_by_key(|&(v, _)| v);
    states
}

/// Tracing-on runs (sampling *every* ingest — the most invasive setting)
/// reach byte-identical fixpoints to tracing-off runs.
///
/// Grid: shards 1/2/4 (1 = no Send span ever crosses a shard, and only
/// suppression closes a branch; 2 and 4 add dominance retirement).
#[test]
fn tracing_is_invisible_to_the_fixpoint() {
    let edges = edge_stream(220, 61, 0x7ace);
    for (i, shards) in [1usize, 2, 4].into_iter().enumerate() {
        let ctx = format!("case {i}: P={shards}");
        let want = run_fixpoint(EngineConfig::undirected(shards), &edges);
        let traced = EngineConfig::undirected(shards).with_tracing(
            TraceConfig::on()
                .with_sample_shift(0)
                .with_ring_capacity(1 << 16),
        );
        let got = run_fixpoint(traced, &edges);
        assert_eq!(got, want, "{ctx}: tracing perturbed the fixpoint");
    }
}

/// Tracing off (the default) keeps every trace counter at zero — the
/// observation points never fire.
#[test]
fn tracing_off_records_nothing() {
    let edges = edge_stream(400, 61, 0x0ff7);
    let engine = Engine::new(MaxLabel, EngineConfig::undirected(2));
    let hub = engine.telemetry();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();
    assert!(engine.traces_now().is_empty());
    assert_eq!(hub.trace_summary().observed, 0);
    let result = engine.try_finish().unwrap();
    let t = result.metrics.total();
    assert_eq!(t.trace_roots, 0);
    assert_eq!(t.trace_spans, 0);
    assert_eq!(t.trace_spans_dropped, 0);
}

/// Propagation-tree sanity on a fully-sampled run: every tree is anchored
/// at an ingested update, hop depths ascend strictly, per-trace tallies
/// equal their per-hop sums, and total amplification cross-checks against
/// the engine's own `envelopes_sent` counter.
#[test]
fn propagation_trees_are_sane() {
    let edges = edge_stream(250, 47, 0x5a9e);
    let config = EngineConfig::undirected(2).with_tracing(
        TraceConfig::on()
            .with_sample_shift(0)
            .with_ring_capacity(1 << 16),
    );
    let engine = Engine::new(MaxLabel, config);
    let hub = engine.telemetry();
    engine.try_ingest_pairs(&edges).unwrap();
    engine.try_await_quiescence().unwrap();

    let traces = engine.traces_now();
    assert!(
        !traces.is_empty(),
        "a fully-sampled run must observe traces"
    );
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
        assert_eq!(t.replayed, 0, "no shard died, nothing may be replayed");
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

    let summary = hub.trace_summary();
    assert_eq!(summary.observed, traces.len() as u64);
    assert_eq!(summary.fixpoint.count, traces.len() as u64);

    let result = engine.try_finish().unwrap();
    let total = result.metrics.total();
    assert_eq!(
        traces.len() as u64,
        total.trace_roots,
        "with a roomy ring every minted root must reconstruct"
    );
    assert_eq!(
        total.trace_spans_dropped, 0,
        "ring must not wrap at this scale"
    );
    assert!(
        total_amplification <= total.envelopes_sent,
        "traced sends ({total_amplification}) cannot exceed all sends ({})",
        total.envelopes_sent
    );
    assert!(total_amplification > 0);
}

/// Both exporters carry the trace families — live values when tracing is
/// on, stable zeros when it is off (scrapers need a fixed family set).
#[test]
fn trace_families_round_trip_both_exporters() {
    let edges = edge_stream(200, 31, 0xe4b0);
    let run = |trace: TraceConfig| {
        let engine = Engine::new(MaxLabel, EngineConfig::undirected(2).with_tracing(trace));
        let hub = engine.telemetry();
        engine.try_ingest_pairs(&edges).unwrap();
        engine.try_await_quiescence().unwrap();
        let (prom, json) = (hub.render_prometheus(), hub.render_json());
        drop(engine.try_finish().unwrap());
        (prom, json)
    };

    for (on, (prom, json)) in [
        (
            true,
            run(TraceConfig::on()
                .with_sample_shift(0)
                .with_ring_capacity(1 << 14)),
        ),
        (false, run(TraceConfig::off())),
    ] {
        for family in [
            "remo_traces_observed",
            "remo_trace_fixpoint_seconds",
            "remo_trace_hops",
            "remo_trace_amplification",
            "remo_trace_cross_shard_hops_total",
        ] {
            assert!(
                prom.contains(family),
                "tracing={on}: missing family {family}"
            );
        }
        let observed: u64 = prom
            .lines()
            .find_map(|l| l.strip_prefix("remo_traces_observed "))
            .expect("gauge line present")
            .trim()
            .parse()
            .expect("gauge value parses");
        assert_eq!(observed > 0, on, "observed={observed} with tracing={on}");
        assert!(
            json.contains("\"traces\":"),
            "tracing={on}: JSON traces object"
        );
        for key in [
            "\"observed\":",
            "\"amplification\":",
            "\"cross_shard_hops\":",
        ] {
            assert!(json.contains(key), "tracing={on}: missing JSON key {key}");
        }
    }
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
    assert!(hub.render_json().contains("\"column_bytes\":"));

    reg.detach(&engine, id).unwrap();
    engine.try_await_quiescence().unwrap();
    let detached = column_bytes_of(&hub.render_prometheus());
    assert_eq!(
        detached, 0,
        "clear sweep must compact every column to nothing once the last query leaves"
    );
    drop(engine.try_finish().unwrap());
}
