//! Marginal-query headline bench: what does the Nth live query cost?
//!
//! The registry's pitch (DESIGN.md §17) is "N live queries for ~1× the
//! topology cost": the shared adjacency is built once no matter how many
//! queries watch it, so each additional query pays only its own
//! propagation. This bench measures that directly on an RMAT-14 stream at
//! 8 shards, growing the live-query mix 1 → 2 → 4 → 8
//! (BFS / CC / SSSP / degree, rotating sources), with three checks:
//!
//! 1. **Identity** (asserted every cell, every rep): each query's
//!    projected column equals its solo-run fixpoint byte for byte.
//! 2. **Marginal cost**: the wall cost of adding the 2nd query
//!    (`reg-2` − `reg-1`) must be ≤ 40% of that query's solo wall — the
//!    shared topology work is not paid twice.
//! 3. **Attach vs re-ingest**: with 7 queries live and the stream fully
//!    ingested, attaching the 8th query live (prime + flood backfill
//!    inside the shards, DESIGN.md §17) must reach its fixpoint ≥ 2×
//!    faster than the alternative an operator actually has without live
//!    attach: tearing the engine down and re-ingesting the whole stream
//!    with all 8 queries attached (the `reg-8` cell).
//!
//! All wall cells run rep-major interleaved, keeping each cell's minimum
//! (interleaving beats rep count against load drift). The two wall gates
//! are guarded like ablate_wal's: they need full scale and at least as
//! many cores as shards — on a loaded or 1-core box the deltas measure
//! the kernel scheduler, not the registry — and
//! `REMO_BENCH_STRICT_QUERY=1` forces them on.
//!
//! Usage: `cargo run --release -p remo-bench --bin marginal_query`.
//! `REMO_BENCH_SCALE` scales the stream (CI smokes at 0.1),
//! `REMO_BENCH_SHARDS` picks the shard count (last entry wins, default 8),
//! `REMO_BENCH_REPS` the rep count.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use remo_algos::{DegreeCount, IncBfs, IncCc, IncSssp};
use remo_bench::*;
use remo_core::{Algorithm, Engine, EngineConfig, QueryId, QueryRegistry, VertexId as Vid, Weight};
use remo_gen::rmat::{self, RmatConfig};
use remo_gen::stream;

/// One query in the mix. Sources rotate so duplicate algorithm kinds in
/// the 8-query mix are still distinct queries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Spec {
    Bfs(Vid),
    Cc,
    Sssp(Vid),
    Deg,
}

impl Spec {
    fn label(&self) -> String {
        match self {
            Spec::Bfs(s) => format!("bfs@{s}"),
            Spec::Cc => "cc".to_string(),
            Spec::Sssp(s) => format!("sssp@{s}"),
            Spec::Deg => "deg".to_string(),
        }
    }
}

/// The 1 → 2 → 4 → 8 growth path: every prefix of this list is a mix.
fn mix(sources: &[Vid]) -> Vec<Spec> {
    vec![
        Spec::Bfs(sources[0]),
        Spec::Cc,
        Spec::Sssp(sources[0]),
        Spec::Deg,
        Spec::Bfs(sources[1]),
        Spec::Sssp(sources[1]),
        Spec::Deg,
        Spec::Bfs(sources[2]),
    ]
}

fn attach_spec(
    reg: &QueryRegistry<u64>,
    engine: &Engine<QueryRegistry<u64>>,
    spec: Spec,
    name: &str,
) -> QueryId {
    match spec {
        Spec::Bfs(s) => reg.attach(engine, IncBfs, &[s], name),
        Spec::Cc => reg.attach(engine, IncCc, &[], name),
        Spec::Sssp(s) => reg.attach(engine, IncSssp, &[s], name),
        Spec::Deg => reg.attach(engine, DegreeCount, &[], name),
    }
    .expect("attach")
}

/// Ingest-to-fixpoint wall plus the harvested fixpoint of a solo engine.
fn run_solo<A: Algorithm<State = u64>>(
    algo: A,
    sources: &[Vid],
    shards: usize,
    edges: &[(Vid, Vid, Weight)],
) -> (Duration, Vec<(Vid, u64)>) {
    let engine = Engine::new(algo, EngineConfig::undirected(shards));
    for &s in sources {
        engine.try_init_vertex(s).unwrap();
    }
    let start = Instant::now();
    engine.try_ingest_weighted(edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let wall = start.elapsed();
    (wall, engine.try_finish().unwrap().states.into_vec())
}

fn solo_spec(
    spec: Spec,
    shards: usize,
    edges: &[(Vid, Vid, Weight)],
) -> (Duration, Vec<(Vid, u64)>) {
    match spec {
        Spec::Bfs(s) => run_solo(IncBfs, &[s], shards, edges),
        Spec::Cc => run_solo(IncCc, &[], shards, edges),
        Spec::Sssp(s) => run_solo(IncSssp, &[s], shards, edges),
        Spec::Deg => run_solo(DegreeCount, &[], shards, edges),
    }
}

/// One registry run with `specs` attached up front. Returns the
/// ingest-to-fixpoint wall and every query's projected fixpoint, asserted
/// against the solo references by the caller.
fn run_registry(
    specs: &[Spec],
    shards: usize,
    edges: &[(Vid, Vid, Weight)],
    solos: &HashMap<Spec, Vec<(Vid, u64)>>,
) -> Duration {
    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), EngineConfig::undirected(shards));
    let ids: Vec<QueryId> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| attach_spec(&reg, &engine, *s, &format!("{}-{i}", s.label())))
        .collect();
    let start = Instant::now();
    engine.try_ingest_weighted(edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let wall = start.elapsed();
    let result = engine.try_finish().unwrap();
    for (spec, id) in specs.iter().zip(&ids) {
        assert_eq!(
            reg.project(&result.states, *id).into_vec(),
            solos[spec],
            "{} diverged from its solo fixpoint in a {}-query registry",
            spec.label(),
            specs.len()
        );
    }
    wall
}

/// The attach-vs-reingest cell: seven queries are already live and fully
/// ingested when the 8th (a BFS) attaches — the wall from attach to
/// fixpoint is the backfill cost. The operational alternative (what you
/// would do without live attach) is tearing the engine down and
/// re-ingesting the whole stream with all 8 queries attached, which is
/// exactly the `reg-8` cell's wall.
fn run_attach(
    specs: &[Spec],
    shards: usize,
    edges: &[(Vid, Vid, Weight)],
    solos: &HashMap<Spec, Vec<(Vid, u64)>>,
) -> Duration {
    let (late_spec, residents) = specs.split_last().unwrap();
    let reg = QueryRegistry::<u64>::new();
    let engine = Engine::new(reg.clone(), EngineConfig::undirected(shards));
    for (i, s) in residents.iter().enumerate() {
        attach_spec(&reg, &engine, *s, &format!("{}-{i}", s.label()));
    }
    engine.try_ingest_weighted(edges).unwrap();
    engine.try_await_quiescence().unwrap();
    let start = Instant::now();
    let late = attach_spec(&reg, &engine, *late_spec, "late");
    engine.try_await_quiescence().unwrap();
    let wall = start.elapsed();
    let result = engine.try_finish().unwrap();
    assert_eq!(
        reg.project(&result.states, late).into_vec(),
        solos[late_spec],
        "live-attached {} diverged from its solo fixpoint",
        late_spec.label()
    );
    wall
}

fn main() {
    // SCALE 1.0 = the full RMAT-14 Graph500 stream, deduplicated (the
    // degree query counts duplicate add *events* while an attach backfill
    // replays stored *edges* once — identity needs a duplicate-free
    // stream), with deterministic weights for the SSSP lanes.
    let cfg = RmatConfig::graph500(14);
    let mut raw = rmat::generate(&cfg);
    let keep = ((raw.len() as f64 * bench_scale()) as usize).clamp(1, raw.len());
    raw.truncate(keep);
    stream::shuffle(&mut raw, 23);
    let mut seen = std::collections::HashSet::new();
    let edges: Vec<(Vid, Vid, Weight)> = raw
        .iter()
        .filter(|&&(a, b)| a != b && seen.insert(if a < b { (a, b) } else { (b, a) }))
        .map(|&(a, b)| (a, b, (a % 13 + b % 7) + 1))
        .collect();
    let shards = shard_counts().last().copied().unwrap_or(8);
    let sources: Vec<Vid> = vec![edges[0].0, edges[1].0, edges[2].0];
    let full_mix = mix(&sources);
    println!(
        "marginal query: {} unique edge events at {shards} shard(s), mix {:?}",
        edges.len(),
        full_mix.iter().map(Spec::label).collect::<Vec<_>>()
    );

    // Solo reference fixpoints, one per distinct query spec (untimed —
    // the timed solo cells below re-run the gated ones).
    let mut solos: HashMap<Spec, Vec<(Vid, u64)>> = HashMap::new();
    for spec in &full_mix {
        if !solos.contains_key(spec) {
            solos.insert(*spec, solo_spec(*spec, shards, &edges).1);
        }
    }

    // Rep-major interleaved sweep, min wall per cell. Cell order:
    // 4 timed solos, the 1→2→4→8 registry ladder, the live-attach cell.
    let timed_solos = [
        Spec::Bfs(sources[0]),
        Spec::Cc,
        Spec::Sssp(sources[0]),
        Spec::Deg,
    ];
    let counts = [1usize, 2, 4, 8];
    let mut solo_wall: Vec<Option<Duration>> = vec![None; timed_solos.len()];
    let mut reg_wall: Vec<Option<Duration>> = vec![None; counts.len()];
    let mut attach_wall: Option<Duration> = None;
    for _ in 0..bench_reps() {
        for (slot, spec) in solo_wall.iter_mut().zip(&timed_solos) {
            let (wall, fix) = solo_spec(*spec, shards, &edges);
            assert_eq!(&fix, &solos[spec], "{} solo rerun diverged", spec.label());
            *slot = Some(slot.map_or(wall, |p: Duration| p.min(wall)));
        }
        for (slot, &n) in reg_wall.iter_mut().zip(&counts) {
            let wall = run_registry(&full_mix[..n], shards, &edges, &solos);
            *slot = Some(slot.map_or(wall, |p: Duration| p.min(wall)));
        }
        let wall = run_attach(&full_mix, shards, &edges, &solos);
        attach_wall = Some(attach_wall.map_or(wall, |p| p.min(wall)));
    }
    let solo_wall: Vec<Duration> = solo_wall.into_iter().map(|w| w.unwrap()).collect();
    let reg_wall: Vec<Duration> = reg_wall.into_iter().map(|w| w.unwrap()).collect();
    let attach_wall = attach_wall.unwrap();

    // Gates (guarded: wall deltas need full scale and enough cores,
    // REMO_BENCH_STRICT_QUERY=1 forces them).
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let strict = std::env::var("REMO_BENCH_STRICT_QUERY").as_deref() == Ok("1");
    let gates_on = bench_scale() >= 1.0 && (cores >= shards || strict);
    let marginal_2nd = reg_wall[1].saturating_sub(reg_wall[0]);
    let solo_2nd = solo_wall[1]; // the 2nd query in the mix is CC
    let marginal_pct = 100.0 * marginal_2nd.as_secs_f64() / solo_2nd.as_secs_f64().max(1e-9);
    // Re-ingest = rebuild with all 8 queries and replay the stream: reg-8.
    let reingest = reg_wall[counts.len() - 1];
    let attach_speedup = reingest.as_secs_f64() / attach_wall.as_secs_f64().max(1e-9);
    if gates_on {
        assert!(
            marginal_pct <= 40.0,
            "2nd query's marginal wall is {marginal_pct:.1}% of its solo run (ceiling 40%)"
        );
        assert!(
            attach_speedup >= 2.0,
            "live attach-backfill is only {attach_speedup:.2}x a full re-ingest (floor 2x)"
        );
    } else {
        eprintln!(
            "note: wall gates skipped (scale {} / {cores} core(s) for {shards} shards); \
             REMO_BENCH_STRICT_QUERY=1 forces them",
            bench_scale()
        );
    }

    let mut rows = Vec::new();
    for (spec, wall) in timed_solos.iter().zip(&solo_wall) {
        rows.push(vec![
            format!("solo-{}", spec.label()),
            "1".to_string(),
            fmt_dur(*wall),
            "base".to_string(),
            "ok".to_string(),
        ]);
    }
    for (&n, wall) in counts.iter().zip(&reg_wall) {
        let vs_one = 100.0 * (wall.as_secs_f64() - reg_wall[0].as_secs_f64())
            / reg_wall[0].as_secs_f64().max(1e-9);
        rows.push(vec![
            format!("reg-{n}"),
            n.to_string(),
            fmt_dur(*wall),
            format!("{vs_one:+.1}%"),
            "ok".to_string(),
        ]);
    }
    rows.push(vec![
        "marginal-2nd".to_string(),
        "2".to_string(),
        fmt_dur(marginal_2nd),
        format!("{marginal_pct:.1}% of solo"),
        if gates_on { "gated<=40%" } else { "ungated" }.to_string(),
    ]);
    rows.push(vec![
        "attach-backfill".to_string(),
        "1".to_string(),
        fmt_dur(attach_wall),
        format!("{attach_speedup:.2}x vs re-ingest"),
        if gates_on { "gated>=2x" } else { "ungated" }.to_string(),
    ]);
    report(
        "marginal_query",
        "Marginal query cost: 1-8 live queries on one topology (registry)",
        &["cell", "queries", "wall", "delta", "identity"],
        &rows,
    );
}
