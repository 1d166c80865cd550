//! Social-network reachability: live connected components over a growing
//! friendship graph, with on-the-fly global snapshots.
//!
//! The paper's "observable problem solution" framing (§I): instead of the
//! static "what are the components?", the dynamic system maintains "what are
//! the components *right now*?" — and can discretize that answer at any
//! moment (§III-D) without stopping the stream. This example watches a
//! social graph grow and reports, at each snapshot, how consolidated the
//! network is (size of the giant component, number of components), exactly
//! the kind of evolving-structure dashboards the introduction motivates.
//!
//! Run with: `cargo run --release --example social_reachability`

use remo::prelude::*;
use std::collections::HashMap;

fn main() {
    let people = 30_000u64;
    let mut friendships = remo::gen::social::generate(&remo::gen::SocialConfig {
        num_vertices: people,
        edges_per_vertex: 3,
        seed: 2024,
    });
    remo::gen::stream::shuffle(&mut friendships, 5);
    println!(
        "friendship stream: {} edges among up to {people} people",
        friendships.len()
    );

    let mut engine = Engine::new(IncCc, EngineConfig::undirected(4));

    let intervals = 5;
    let chunk = friendships.len() / intervals;
    for i in 0..intervals {
        let lo = i * chunk;
        let hi = if i + 1 == intervals {
            friendships.len()
        } else {
            lo + chunk
        };
        engine.try_ingest_pairs(&friendships[lo..hi]).unwrap();
        // The global state after this interval: the snapshot waits until
        // the interval has been processed, then collects.
        let snap = engine.try_snapshot().unwrap();
        let mut sizes: HashMap<u64, usize> = HashMap::new();
        for (_, &label) in snap.iter() {
            *sizes.entry(label).or_default() += 1;
        }
        let giant = sizes.values().copied().max().unwrap_or(0);
        println!(
            "after {:>7} edges: {:>6} people seen, {:>5} components, giant component {:>6} ({:.1}%)",
            hi,
            snap.len(),
            sizes.len(),
            giant,
            100.0 * giant as f64 / snap.len().max(1) as f64
        );
    }

    // Final answer and a point query: are two arbitrary people connected?
    let result = engine.try_finish().unwrap();
    let (a, b) = (100u64, 29_000u64);
    let connected = match (result.states.get(a), result.states.get(b)) {
        (Some(la), Some(lb)) => la == lb,
        _ => false,
    };
    println!("point query: are {a} and {b} in the same community? {connected}");
    println!(
        "engine totals: {} events processed for {} topology events",
        result.metrics.total().events_processed(),
        result.metrics.total().topo_ingested
    );
}
