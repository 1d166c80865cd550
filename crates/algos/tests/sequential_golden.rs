//! The sequential reference engine, pinned exactly. `SequentialEngine` is
//! what the concurrent engine's fixpoints are compared against, so its own
//! behaviour must not drift: on one RMAT-10 stream (seed 1) each of BFS
//! (source 0), weighted SSSP (source 0) and CC must reach the same states
//! and do the same work, counter for counter. The engine is one thread and
//! one FIFO queue, so every count repeats exactly.
//!
//! The golden values were taken from the engine as it stood before
//! Algorithm 3's framework step moved into `remo_core::algorithm` (one
//! step shared by the shards, this engine and the registry): a change that
//! moves any of them changed the reference.

use remo_algos::{IncBfs, IncCc, IncSssp};
use remo_core::{Algorithm, SequentialEngine, ShardMetrics, VertexId};
use remo_gen::RmatConfig;

fn stream() -> Vec<(VertexId, VertexId)> {
    remo_gen::rmat::generate(&RmatConfig {
        seed: 1,
        ..RmatConfig::graph500(10)
    })
}

/// FNV-1a over every `(vertex, state)` pair, in vertex order.
fn checksum<A: Algorithm<State = u64>>(eng: &SequentialEngine<A>) -> u64 {
    eng.states()
        .into_iter()
        .flat_map(|(v, s)| [v, s])
        .fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The counters every run here shares: the stream's 16,384 adds, their
/// reverses, and the 21,093 distinct directed edges they leave (11,675
/// repeats, self-loops' reverses among them).
fn topology(init_events: u64, update_events: u64) -> ShardMetrics {
    ShardMetrics {
        topo_ingested: 16_384,
        init_events,
        add_events: 16_384,
        reverse_add_events: 16_384,
        update_events,
        envelopes_sent: init_events + 2 * 16_384 + update_events,
        edges_inserted: 21_093,
        duplicate_edges: 11_675,
        ..ShardMetrics::default()
    }
}

fn assert_pinned<A: Algorithm<State = u64>>(
    eng: &SequentialEngine<A>,
    sum: u64,
    expect: ShardMetrics,
) {
    assert_eq!(eng.states().len(), 899);
    assert_eq!(checksum(eng), sum, "states moved");
    assert_eq!(eng.num_edges(), 21_093);
    assert_eq!(*eng.metrics(), expect, "work counts moved");
}

#[test]
fn bfs_reference_is_pinned() {
    let mut eng = SequentialEngine::undirected(IncBfs);
    eng.init_vertex(0);
    eng.apply_pairs(&stream());
    assert_pinned(&eng, 0x966a_0130_c567_6cd1, topology(1, 10_533));
}

#[test]
fn sssp_reference_is_pinned() {
    let weighted = remo_gen::stream::with_weights(&stream(), 16, 1);
    let mut eng = SequentialEngine::undirected(IncSssp);
    eng.init_vertex(0);
    eng.apply_weighted(&weighted);
    assert_pinned(&eng, 0x182c_073f_46d4_f477, topology(1, 55_000));
}

#[test]
fn cc_reference_is_pinned() {
    let mut eng = SequentialEngine::undirected(IncCc);
    eng.apply_pairs(&stream());
    assert_pinned(&eng, 0x2e6e_0919_6d91_cf3a, topology(0, 4_841));
}
