//! Differential property tests for the data-plane transports: for every
//! algorithm, seeded RMAT stream, and shard count, the SPSC lane-mesh transport must be observationally identical to the
//! seed's channel transport — byte-identical fixpoints, identical
//! mid-stream snapshot views, and the same set of trigger firings. The
//! transport is a physical choice; nothing the engine computes may depend
//! on whether a batch rode a lane, fell back to the channel, or woke a
//! parked receiver.

use proptest::prelude::*;
use remo_core::{
    Engine, EngineBuilder, EngineConfig, PlacementPolicy, TransportMode, VertexId, Weight,
};
use remo_gen::RmatConfig;
use remo_store::hash::mix64;

/// Small seeded RMAT stream, shuffled: dense enough to exercise batching,
/// lane traffic, recycling, and cross-shard fan-out while keeping each
/// case cheap.
fn rmat_edges(seed: u64) -> Vec<(VertexId, VertexId)> {
    let cfg = RmatConfig {
        seed,
        ..RmatConfig::graph500(6)
    };
    let mut edges = remo_gen::rmat::generate(&cfg);
    remo_gen::stream::shuffle(&mut edges, seed ^ 0x7a3e);
    edges
}

/// Symmetric per-edge weight (see prop_lattice: reversed occurrences of an
/// undirected edge must agree for the weighted fixpoint to be unique).
fn weighted(edges: &[(VertexId, VertexId)]) -> Vec<(VertexId, VertexId, Weight)> {
    edges
        .iter()
        .map(|&(s, d)| (s, d, (mix64(s ^ d) % 13) + 1))
        .collect()
}

/// What one run observed, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed<S> {
    snapshot: Vec<(VertexId, S)>,
    fixpoint: Vec<(VertexId, S)>,
    fires: Vec<(usize, VertexId)>,
    num_vertices: usize,
    num_edges: u64,
}

/// Runs `make()` over the stream under `transport`: ingest the first half,
/// quiesce, take a continuous snapshot (the epoch barrier must not hang on
/// parked shards), ingest the rest, and harvest fixpoint + trigger fires.
/// The mid-run quiescence pins the snapshot boundary so both transports
/// observe the same prefix.
fn observe<A, F>(
    make: F,
    transport: TransportMode,
    edges: &[(VertexId, VertexId)],
    weights: Option<&[(VertexId, VertexId, Weight)]>,
    init: Option<VertexId>,
    shards: usize,
    placement: PlacementPolicy,
) -> Observed<A::State>
where
    A: remo_core::Algorithm,
    A::State: PartialEq + std::fmt::Debug,
    F: Fn() -> A,
{
    let config = EngineConfig::undirected(shards)
        .with_transport(transport)
        .with_expected_vertices(64)
        .with_placement(placement);
    let mut builder = EngineBuilder::new(make(), config);
    builder.trigger("nonbottom", |_v, s: &A::State| *s != A::State::default());
    let mut engine = builder.build();
    if let Some(v) = init {
        engine.try_init_vertex(v).unwrap();
    }
    let half = edges.len() / 2;
    match weights {
        Some(w) => engine.try_ingest_weighted(&w[..half]).unwrap(),
        None => engine.try_ingest_pairs(&edges[..half]).unwrap(),
    }
    engine.try_await_quiescence().unwrap();
    let snapshot = engine.try_snapshot().unwrap().into_vec();
    match weights {
        Some(w) => engine.try_ingest_weighted(&w[half..]).unwrap(),
        None => engine.try_ingest_pairs(&edges[half..]).unwrap(),
    }
    engine.try_await_quiescence().unwrap();
    assert!(engine.counters_balanced());
    let mut fires: Vec<(usize, VertexId)> = engine
        .trigger_events()
        .try_iter()
        .map(|f| (f.trigger, f.vertex))
        .collect();
    fires.sort_unstable();
    fires.dedup();
    let result = engine.try_finish().unwrap();
    assert!(result.failures.is_empty());
    // Harvested envelope books must close under either transport:
    // sent = processed + dominated + undeliverable + dropped.
    result.metrics.verify_balance().unwrap();
    Observed {
        snapshot,
        fixpoint: result.states.into_vec(),
        fires,
        num_vertices: result.num_vertices,
        num_edges: result.num_edges,
    }
}

/// Asserts the two transports observe the same world.
fn assert_transports_agree<A, F>(
    make: F,
    edges: &[(VertexId, VertexId)],
    weights: Option<&[(VertexId, VertexId, Weight)]>,
    init: Option<VertexId>,
    shards: usize,
) -> Result<(), TestCaseError>
where
    A: remo_core::Algorithm,
    A::State: PartialEq + std::fmt::Debug,
    F: Fn() -> A + Copy,
{
    let lanes = observe::<A, F>(
        make,
        TransportMode::Lanes,
        edges,
        weights,
        init,
        shards,
        PlacementPolicy::None,
    );
    let channel = observe::<A, F>(
        make,
        TransportMode::Channel,
        edges,
        weights,
        init,
        shards,
        PlacementPolicy::None,
    );
    prop_assert_eq!(
        &lanes.fixpoint,
        &channel.fixpoint,
        "fixpoints diverged (P={})",
        shards
    );
    prop_assert_eq!(
        &lanes.snapshot,
        &channel.snapshot,
        "snapshot views diverged (P={})",
        shards
    );
    prop_assert_eq!(
        &lanes.fires,
        &channel.fires,
        "trigger fire sets diverged (P={})",
        shards
    );
    prop_assert_eq!(lanes.num_vertices, channel.num_vertices);
    prop_assert_eq!(lanes.num_edges, channel.num_edges);
    Ok(())
}

// Grid: transport (lanes is the default data plane, the channel stays as
// its control plane and lane-full fallback, so both must compute the same
// thing) × algorithm (BFS/SSSP/CC differ in source, weights and lattice
// direction) × 1–4 shards (1 = self-routing only, no lane ever used), plus
// one lattice-on case because coalesced and dominated envelopes must never
// reach a lane unbalanced.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn bfs_transports_agree(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let source = edges[0].0;
        assert_transports_agree::<remo_algos::IncBfs, _>(
            || remo_algos::IncBfs, &edges, None, Some(source), shards)?;
    }

    #[test]
    fn sssp_transports_agree(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let w = weighted(&edges);
        let source = edges[0].0;
        assert_transports_agree::<remo_algos::IncSssp, _>(
            || remo_algos::IncSssp, &edges, Some(&w), Some(source), shards)?;
    }

    #[test]
    fn cc_transports_agree(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        assert_transports_agree::<remo_algos::IncCc, _>(
            || remo_algos::IncCc, &edges, None, None, shards)?;
    }

    /// The lattice messaging layers compose with the lane transport: all
    /// three layers on, both transports, same fixpoint and balanced
    /// counters (coalesced/dominated envelopes never touch a lane).
    #[test]
    fn lattice_on_lanes_matches_lattice_on_channel(seed in any::<u64>(), shards in 1usize..5) {
        let edges = rmat_edges(seed);
        let source = edges[0].0;
        let mut states = Vec::new();
        for transport in [TransportMode::Lanes, TransportMode::Channel] {
            let config = EngineConfig::undirected(shards)
                .with_lattice()
                .with_transport(transport);
            let engine = Engine::new(remo_algos::IncBfs, config);
            engine.try_init_vertex(source).unwrap();
            engine.try_ingest_pairs(&edges).unwrap();
            engine.try_await_quiescence().unwrap();
            prop_assert!(engine.counters_balanced());
            let result = engine.try_finish().unwrap();
            let balance = result.metrics.verify_balance();
            prop_assert!(
                balance.is_ok(),
                "balance violated ({:?}, P={}): {:?}",
                transport,
                shards,
                balance
            );
            states.push(result.states.into_vec());
        }
        prop_assert_eq!(&states[0], &states[1], "lattice+lanes diverged (P={})", shards);
    }
}

/// The lane mesh is no longer capped at 64 shards: at 96 shards the
/// multi-word pending-senders bitmaps must carry the mesh and the
/// fixpoint must stay identical to the channel transport. (Plain test,
/// one deterministic stream — 2×96 threads per case is too heavy for a
/// proptest axis.)
/// Pinning is a physical choice exactly like the transport: Compact and
/// Scatter placement must be observationally identical to an unpinned run
/// — byte-identical fixpoints, snapshot views, and trigger fire sets —
/// across transports and 1–4 shards. Shard counts the
/// host cannot seat on distinct cores are skipped with a note: pinning
/// two shards to one core is legal but proves nothing extra here.
/// (Plain test, one deterministic stream — the combo grid already runs
/// dozens of engines per invocation.)
#[test]
fn pinned_placement_is_observationally_identity() {
    let edges = rmat_edges(0x919_5eed);
    let w = weighted(&edges);
    let source = edges[0].0;
    let cores = remo_core::placement::host().num_cpus();
    for shards in 1usize..=4 {
        if cores < shards {
            eprintln!(
                "note: skipping placement identity at P={shards} \
                 (host has {cores} cores)"
            );
            continue;
        }
        for transport in [TransportMode::Lanes, TransportMode::Channel] {
            let base = observe::<remo_algos::IncBfs, _>(
                || remo_algos::IncBfs,
                transport,
                &edges,
                None,
                Some(source),
                shards,
                PlacementPolicy::None,
            );
            for policy in [PlacementPolicy::Compact, PlacementPolicy::Scatter] {
                let pinned = observe::<remo_algos::IncBfs, _>(
                    || remo_algos::IncBfs,
                    transport,
                    &edges,
                    None,
                    Some(source),
                    shards,
                    policy.clone(),
                );
                let ctx = format!("{policy} vs none ({transport:?}, P={shards})");
                assert_eq!(pinned.fixpoint, base.fixpoint, "fixpoint diverged: {ctx}");
                assert_eq!(pinned.snapshot, base.snapshot, "snapshot diverged: {ctx}");
                assert_eq!(pinned.fires, base.fires, "trigger fires diverged: {ctx}");
            }
        }
        // One weighted pass so the min-plus lattice rides pinned lanes too.
        let base = observe::<remo_algos::IncSssp, _>(
            || remo_algos::IncSssp,
            TransportMode::Lanes,
            &edges,
            Some(&w),
            Some(source),
            shards,
            PlacementPolicy::None,
        );
        let pinned = observe::<remo_algos::IncSssp, _>(
            || remo_algos::IncSssp,
            TransportMode::Lanes,
            &edges,
            Some(&w),
            Some(source),
            shards,
            PlacementPolicy::Compact,
        );
        assert_eq!(
            pinned.fixpoint, base.fixpoint,
            "weighted fixpoint diverged under compact (P={shards})"
        );
    }
}

/// A [`PlacementPolicy::Explicit`] seating that names a CPU the host does
/// not have — or the wrong number of CPUs — is a configuration error:
/// engine construction must fail loudly, never pin arbitrarily or fall
/// back silently.
#[test]
fn explicit_placement_misconfiguration_fails_engine_build() {
    let bogus = remo_core::placement::host().num_cpus() + 4096;
    for cpus in [vec![bogus], vec![0, 0]] {
        let config =
            EngineConfig::undirected(1).with_placement(PlacementPolicy::Explicit(cpus.clone()));
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Engine::new(remo_algos::IncCc, config)
        }));
        assert!(
            built.is_err(),
            "engine build accepted bad explicit seating {cpus:?}"
        );
    }
}

#[test]
fn lanes_beyond_64_shards_match_channel() {
    let edges = rmat_edges(0x96_5eed);
    let source = edges[0].0;
    assert_transports_agree::<remo_algos::IncBfs, _>(
        || remo_algos::IncBfs,
        &edges,
        None,
        Some(source),
        96,
    )
    .unwrap();
}
