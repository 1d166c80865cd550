//! `IncCc` labels a component by its earliest stream edge, and that label
//! must depend on the stream alone: one ingest call or several, 1–3
//! shards, bare pairs, weighted triples or one pair per call, a shard
//! rolled back to its last cut, an engine re-opened over its directory, or a
//! resume that re-ingests a stream whose crash lost events. Every
//! run must reach exactly the earliest-edge oracle's labels, and so must
//! the sequential reference engine.

use proptest::prelude::*;
use remo_algos::{stream_label, IncCc};
use remo_baseline as oracle;
use remo_core::{Algorithm, DurabilityConfig, Engine, EngineConfig, SequentialEngine, VertexId};
use std::time::Duration;

#[path = "../../core/tests/faults/mod.rs"]
mod faults;
use faults::Faulty;

type Labels = Vec<(VertexId, u64)>;

/// The earliest-edge oracle's labels for `stream`, as a harvest lists them.
fn oracle_labels(stream: &[(VertexId, VertexId)]) -> Labels {
    oracle::components_earliest_edge(stream)
        .into_iter()
        .map(|(v, i)| (v, stream_label(i)))
        .collect()
}

/// The stream `draws` describe over `vertices` vertices: a fresh pair
/// (kinds 0–4), a repeat of an earlier pair (5–6), an earlier pair
/// reversed (7–8) or a self-loop (9).
fn build_stream(draws: &[(u8, u64, u64)], vertices: u64) -> Vec<(VertexId, VertexId)> {
    let mut stream: Vec<(VertexId, VertexId)> = Vec::with_capacity(draws.len());
    for &(kind, a, b) in draws {
        let earlier = |stream: &[(VertexId, VertexId)]| stream[a as usize % stream.len()];
        let pair = match kind {
            _ if kind < 5 || stream.is_empty() => (a % vertices, b % vertices),
            5 | 6 => earlier(&stream),
            7 | 8 => {
                let (s, d) = earlier(&stream);
                (d, s)
            }
            _ => (a % vertices, a % vertices),
        };
        stream.push(pair);
    }
    stream
}

/// Hands `engine` one call: bare pairs (`mode` 0), weighted triples (1),
/// or one call per pair (2), which all land on shard 0 and are numbered
/// as the one call would be.
fn ingest<A: Algorithm>(engine: &Engine<A>, call: &[(VertexId, VertexId)], mode: u8) {
    match mode {
        0 => engine.try_ingest_pairs(call).unwrap(),
        1 => {
            let triples: Vec<_> = call.iter().map(|&(s, d)| (s, d, 1 + (s ^ d) % 5)).collect();
            engine.try_ingest_weighted(&triples).unwrap();
        }
        _ => {
            for pair in call.chunks(1) {
                engine.try_ingest_pairs(pair).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn labels_are_the_earliest_edge_however_the_stream_is_fed(
        draws in proptest::collection::vec((0u8..10, any::<u64>(), any::<u64>()), 1..120),
        vertices in 2u64..24,
        cuts in proptest::collection::vec(0usize..120, 0..4),
        feed in (1usize..4, 0u8..3, any::<bool>()),
    ) {
        let (shards, mode, settle) = feed;
        let stream = build_stream(&draws, vertices);
        let want = oracle_labels(&stream);
        let mut sequential = SequentialEngine::undirected(IncCc);
        sequential.apply_pairs(&stream);
        prop_assert_eq!(&sequential.states(), &want, "the sequential engine");

        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
        bounds.extend([0, stream.len()]);
        bounds.sort_unstable();
        let engine = Engine::new(IncCc, EngineConfig::undirected(shards));
        for call in bounds.windows(2) {
            ingest(&engine, &stream[call[0]..call[1]], mode);
            if settle {
                engine.try_await_quiescence().unwrap();
            }
        }
        let got = engine.try_finish().unwrap().states.into_vec();
        prop_assert_eq!(got, want, "{} shards, mode {}, calls {:?}", shards, mode, bounds);
    }
}

/// A few hundred edges over 120 vertices: several components that merge.
fn long_stream(seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let draws: Vec<(u8, u64, u64)> = (0..400)
        .map(|_| ((next() % 10) as u8, next(), next()))
        .collect();
    build_stream(&draws, 120)
}

fn durable(dir: &std::path::Path, shards: usize) -> EngineConfig {
    EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(30)),
        ..EngineConfig::undirected(shards)
    }
    .with_durability(DurabilityConfig::new(dir).checkpoint_every(64).fsync(false))
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("remo-cc-labels-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A shard that dies mid-stream rolls the engine back, and every shard
/// re-runs its pulls with the stream indices the WAL logged, so the
/// recovery lands on the uninterrupted labels.
#[test]
fn a_respawned_shard_reproduces_the_uninterrupted_labels() {
    let stream = long_stream(0xcc1);
    let want = oracle_labels(&stream);
    for (mode, panic_at) in [(0, 40), (1, 150), (2, 300)] {
        let dir = tmp_dir(&format!("respawn-{mode}"));
        let engine = Engine::new(Faulty::on(1, IncCc).panic_at(panic_at), durable(&dir, 2));
        for call in stream.chunks(150) {
            ingest(&engine, call, mode);
            engine.try_await_quiescence().unwrap();
        }
        let result = engine.try_finish().unwrap();
        assert!(!result.is_degraded(), "{:?}", result.failures);
        assert_eq!(result.metrics.total().rollbacks, 1, "mode {mode}");
        assert_eq!(result.states.into_vec(), want, "mode {mode}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An engine re-opened over its directory numbers its next call after the
/// last index its shards pulled: a new component it meets gets a label no
/// component before the restart has, as in one uninterrupted run.
#[test]
fn a_reopened_engine_numbers_on_after_its_durable_pulls() {
    let before = long_stream(0xcc2);
    // New vertices, so new components form; bridges into the old ones;
    // and two components that stay apart from everything before.
    let after: Vec<(VertexId, VertexId)> = long_stream(0xcc3)
        .into_iter()
        .map(|(s, d)| (s + 1000, d + 1000))
        .chain([(1000, 0), (1001, 7), (2000, 2001), (2002, 2002)])
        .collect();
    let dir = tmp_dir("reopen");
    let engine = Engine::open(IncCc, durable(&dir, 3)).unwrap();
    engine.try_ingest_pairs(&before).unwrap();
    engine.try_finish().unwrap();
    let engine = Engine::open(IncCc, durable(&dir, 3)).unwrap();
    engine.try_ingest_pairs(&after).unwrap();
    let got = engine.try_finish().unwrap().states.into_vec();
    assert_eq!(got, oracle_labels(&[before, after].concat()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash can lose events no shard had pulled. A resume that seeks to 0
/// and re-ingests the whole stream gives every event back its index, so a
/// lost edge labels its component as in one uninterrupted run; numbering
/// on after the durable pulls instead gives the lost edges later labels.
#[test]
fn a_resume_from_the_start_restores_the_labels_of_lost_edges() {
    let stream = long_stream(0xcc4);
    let want = oracle_labels(&stream);
    let resumed = |seek: bool| {
        let dir = tmp_dir(&format!("lost-{seek}"));
        let engine = Engine::open(IncCc, durable(&dir, 2)).unwrap();
        // Every third call of 40 is lost before any shard pulls it; the
        // others are numbered where the stream puts them.
        for (i, call) in stream.chunks(40).enumerate() {
            engine.seek_stream(40 * i as u64);
            if i % 3 != 0 {
                engine.try_ingest_pairs(call).unwrap();
            }
        }
        engine.try_finish().unwrap();
        let engine = Engine::open(IncCc, durable(&dir, 2)).unwrap();
        if seek {
            engine.seek_stream(0);
        }
        engine.try_ingest_pairs(&stream).unwrap();
        let got = engine.try_finish().unwrap().states.into_vec();
        let _ = std::fs::remove_dir_all(&dir);
        got
    };
    assert_eq!(resumed(true), want);
    assert_ne!(resumed(false), want, "the lost calls hold an earliest edge");
}
