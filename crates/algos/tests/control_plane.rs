//! The control plane and the snapshot cut.
//!
//! A shard pulls topology events in bounded runs and looks at its control
//! channel between runs, so a point read or a snapshot issued behind a
//! 200 K-edge ingest is answered within the query deadline.
//!
//! A snapshot is the solve of its cut (§III-D: "a global state after a
//! defined set of events"). `Engine::try_snapshot` names the stream index
//! the next ingest call would take, waits until everything fed before it
//! has been processed, and collects the live states. Fed in random-sized
//! calls with snapshots and point reads between them, every snapshot of
//! BFS, SSSP, CC and widest paths at 1–3 shards must equal `remo-baseline`
//! solved from scratch on `stream[..cut]` — Liu's incremental ≡
//! `f(x ⊕ δ)` at every cut — and every point read must be a monotone bound
//! (§IV) on the snapshot that follows it.

use std::time::Duration;

use proptest::prelude::*;
use remo_algos::{stream_label, IncBfs, IncCc, IncSssp, IncWidest};
use remo_baseline as oracle;
use remo_core::{Algorithm, Engine, EngineConfig, Snapshot, VertexId, Weight};
use remo_gen::RmatConfig;
use remo_store::hash::mix64;
use remo_store::Csr;

/// The baseline's component labels for `edges`, as a harvest lists them
/// (`prop_dense`'s oracle).
fn static_labels(edges: &[(VertexId, VertexId)]) -> Vec<(VertexId, u64)> {
    oracle::components_earliest_edge(edges)
        .into_iter()
        .map(|(v, i)| (v, stream_label(i)))
        .collect()
}

#[test]
fn point_reads_and_a_snapshot_are_served_during_a_long_pull() {
    let edges: Vec<(VertexId, VertexId)> = remo_gen::rmat::generate(&RmatConfig {
        seed: 0x18,
        ..RmatConfig::graph500(15)
    })
    .into_iter()
    .take(200_000)
    .collect();
    assert_eq!(edges.len(), 200_000);

    let config = EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(120)),
        ..EngineConfig::undirected(2)
    };
    let mut engine = Engine::new(IncCc, config);
    engine.try_ingest_pairs(&edges).unwrap();
    for &(v, _) in &edges[..32] {
        engine.try_local_state(v).unwrap();
    }
    let snapshot = engine.try_snapshot().unwrap();
    assert!(engine.counters_balanced());
    assert_eq!(snapshot.cut(), edges.len() as u64);
    let fixpoint = static_labels(&edges);
    assert_eq!(snapshot.into_vec(), fixpoint, "the snapshot solves its cut");

    let result = engine.try_finish().unwrap();
    assert!(result.failures.is_empty());
    result.metrics.verify_balance().unwrap();
    assert_eq!(result.states.into_vec(), fixpoint);
}

/// A weighted edge of the stream. The weight is a function of the
/// unordered pair, so a repeated or reversed edge has one weight and the
/// weighted solves are unique.
type Edge = (VertexId, VertexId, Weight);

fn rmat_stream(seed: u64) -> Vec<Edge> {
    let mut pairs = remo_gen::rmat::generate(&RmatConfig {
        seed,
        ..RmatConfig::graph500(7)
    });
    remo_gen::stream::shuffle(&mut pairs, seed ^ 0xc07);
    pairs
        .into_iter()
        .map(|(s, d)| (s, d, mix64(s ^ d) % 13 + 1))
        .collect()
}

fn pairs(edges: &[Edge]) -> Vec<(VertexId, VertexId)> {
    edges.iter().map(|&(s, d, _)| (s, d)).collect()
}

/// `solved` restricted to the vertices an edge of `g` names, in id order:
/// the states a snapshot of the same stream holds.
fn on_vertices(g: &Csr, solved: Vec<u64>) -> Vec<(VertexId, u64)> {
    (0..g.num_vertices() as VertexId)
        .filter(|&v| g.degree(v) > 0)
        .map(|v| (v, solved[v as usize]))
        .collect()
}

/// The baseline on a stream prefix, for the algorithm a test drives.
type Solve = fn(&[Edge], VertexId) -> Vec<(VertexId, u64)>;

fn bfs(edges: &[Edge], source: VertexId) -> Vec<(VertexId, u64)> {
    let g = oracle::build_undirected(&pairs(edges)).csr;
    on_vertices(&g, oracle::bfs_levels(&g, source))
}

fn sssp(edges: &[Edge], source: VertexId) -> Vec<(VertexId, u64)> {
    let g = oracle::build_undirected_weighted(edges).csr;
    on_vertices(&g, oracle::sssp_costs(&g, source))
}

fn widest(edges: &[Edge], source: VertexId) -> Vec<(VertexId, u64)> {
    let g = oracle::build_undirected_weighted(edges).csr;
    on_vertices(&g, oracle::widest_paths(&g, source))
}

fn cc(edges: &[Edge], _: VertexId) -> Vec<(VertexId, u64)> {
    static_labels(&pairs(edges))
}

/// One call of a plan: how many edges it feeds, then whether a snapshot
/// (bit 0) and a point read (bit 1) follow it.
type Call = (usize, u8);

/// Feeds `stream` in the calls `plan` sizes, with an `Init` of the first
/// edge's source first when `sourced`, and checks every snapshot the plan
/// asks for, and the final harvest, against `solve` on its cut.
fn drive<A: Algorithm<State = u64>>(
    algo: A,
    sourced: bool,
    weighted: bool,
    solve: Solve,
    stream: &[Edge],
    plan: &[Call],
    shards: usize,
) -> Result<(), TestCaseError> {
    let source = stream[0].0;
    let mut engine = Engine::new(algo, EngineConfig::undirected(shards));
    if sourced {
        engine.try_init_vertex(source).unwrap();
    }
    let inits = u64::from(sourced);
    // Each point read waits for the next snapshot, which must absorb it.
    let mut reads: Vec<(VertexId, u64)> = Vec::new();
    let check = |snap: &Snapshot<u64>, fed: usize, reads: &mut Vec<(VertexId, u64)>| {
        prop_assert_eq!(snap.cut(), inits + fed as u64, "the cut is what was fed");
        let expect = solve(&stream[..fed], source);
        prop_assert_eq!(
            snap.iter().map(|(v, &s)| (v, s)).collect::<Vec<_>>(),
            expect
        );
        for (v, read) in reads.drain(..) {
            let held = snap.get(v).copied().unwrap_or_default();
            prop_assert!(
                A::absorbs(&held, &read),
                "vertex {}: read {} past {}",
                v,
                read,
                held
            );
        }
        Ok(())
    };
    let mut fed = 0;
    for &(len, then) in plan {
        let call = &stream[fed..(fed + len).min(stream.len())];
        if weighted {
            engine.try_ingest_weighted(call).unwrap();
        } else {
            engine.try_ingest_pairs(&pairs(call)).unwrap();
        }
        fed += call.len();
        if then & 2 != 0 {
            let v = stream[fed - 1].0;
            if let Some(read) = engine.try_local_state(v).unwrap() {
                reads.push((v, read));
            }
        }
        if then & 1 != 0 {
            let snap = engine.try_snapshot().unwrap();
            check(&snap, fed, &mut reads)?;
        }
    }
    let result = engine.try_finish().unwrap();
    prop_assert!(result.failures.is_empty());
    check(&result.states, fed, &mut reads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_snapshot_is_the_static_solve_of_its_cut(
        seed in any::<u64>(),
        algo in 0u8..4,
        shards in 1usize..4,
        plan in proptest::collection::vec((1usize..160, 0u8..4), 1..10),
    ) {
        let stream = rmat_stream(seed);
        match algo {
            0 => drive(IncBfs, true, false, bfs, &stream, &plan, shards)?,
            1 => drive(IncSssp, true, true, sssp, &stream, &plan, shards)?,
            2 => drive(IncCc, false, false, cc, &stream, &plan, shards)?,
            _ => drive(IncWidest, true, true, widest, &stream, &plan, shards)?,
        }
    }
}
