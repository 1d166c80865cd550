//! Live routing: incremental SSSP over an evolving road network, plus a
//! road-closure scenario handled by generational state (§VI-B).
//!
//! Part 1 — roads open over time (edge additions with weights): the SSSP
//! state at every junction is the live cost of the best route to the depot;
//! a new shortcut repairs downstream costs automatically (Algorithm 5).
//!
//! Part 2 — a road closes (edge deletion): deletions break monotonicity, so
//! the generational BFS bumps the state generation and re-floods, exactly
//! the paper's sketched strategy. Old-generation values are recognizably
//! stale; the rebuilt tree reflects the closure.
//!
//! Run with: `cargo run --release --example live_routing`

use remo::algos::generational::level_in_generation;
use remo::prelude::*;

fn main() {
    // A small-world road network: mostly local connections plus a few long
    // highways — Watts-Strogatz is the classic model for that.
    let junctions = 10_000u64;
    let roads = remo::gen::random::watts_strogatz(&remo::gen::random::WsConfig {
        num_vertices: junctions,
        k: 3,
        beta: 0.05,
        seed: 77,
    });
    let weighted = remo::gen::stream::with_weights(&roads, 9, 3);
    println!(
        "road network: {} junctions, {} road segments",
        junctions,
        weighted.len()
    );

    // ---- Part 1: live SSSP while roads open ----
    let depot = 0u64;
    let mut engine = Engine::new(IncSssp, EngineConfig::undirected(4));
    engine.try_init_vertex(depot).unwrap();

    let (phase1, phase2) = weighted.split_at(weighted.len() / 2);
    engine.try_ingest_weighted(phase1).unwrap();
    let probe = junctions / 2;
    let before = engine.try_snapshot().unwrap().get(probe).copied();

    engine.try_ingest_weighted(phase2).unwrap();
    let result = engine.try_finish().unwrap();
    let after = result.states.get(probe).copied();
    println!(
        "junction {probe}: route cost with half the roads {:?} -> all roads {:?}",
        before, after
    );
    let reachable = result
        .states
        .iter()
        .filter(|(_, &c)| c != remo::algos::UNREACHED && c != 0)
        .count();
    println!(
        "depot reaches {reachable}/{} junctions",
        result.num_vertices
    );

    // ---- Part 2: a closure, handled generationally ----
    println!("\n-- road closure (generational rebuild, §VI-B) --");
    let (algo, generation) = GenBfs::new();
    let mut engine = Engine::new(algo, EngineConfig::undirected(4));
    engine.try_init_vertex(depot).unwrap();
    // A corridor 0-1-2-3-4 plus a detour 0-10-11-12-4.
    engine
        .try_ingest_pairs(&[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (0, 10),
            (10, 11),
            (11, 12),
            (12, 4),
        ])
        .unwrap();
    engine.try_await_quiescence().unwrap();
    let g0 = generation.current();
    let hops = |s: Option<&remo::algos::GenLevel>, g: u32| {
        s.map(|&st| level_in_generation(st, g))
            .unwrap_or(remo::algos::UNREACHED)
    };
    let live = engine.try_snapshot().unwrap();
    println!("junction 4 before closure: {} hops", hops(live.get(4), g0));

    // Close segment 1-2; bump the generation; re-flood from the depot.
    engine.try_delete_pairs(&[(1, 2)]).unwrap();
    engine.try_await_quiescence().unwrap();
    let g1 = generation.bump();
    engine.try_init_vertex(depot).unwrap();
    let result = engine.try_finish().unwrap();
    let after_closure = hops(result.states.get(4), g1);
    println!("junction 4 after closure:  {after_closure} hops (via the detour)");
    assert_eq!(after_closure, 5, "detour is 0-10-11-12-4: five levels");
    let stranded = hops(result.states.get(2), g1) == remo::algos::UNREACHED
        || hops(result.states.get(2), g1) > 3;
    println!("junction 2 rerouted or stranded correctly: {stranded}");
}
