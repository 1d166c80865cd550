//! The control plane stays live while a shard works through a long
//! stream: a shard pulls topology events in bounded runs and looks at its
//! control channel between runs, so a point read or a snapshot issued
//! behind a 200 K-edge ingest is answered within the query deadline — and
//! the snapshot it gets is still cut where §III-D says: every shard's
//! old-epoch pulls are a prefix of its stream.
//!
//! What the snapshot *holds* is checked as the bound it is. A snapshot
//! taken at a quiesced boundary equals the static solve of the prefix
//! (`prop_dense`); one taken while both epochs are in flight does not:
//! callbacks compare against the live state, so a vertex whose live label
//! already rose through a new-epoch edge ignores the old-epoch update that
//! would have raised its fork too, and an old-epoch cascade crosses edges
//! a new-epoch pull added. On this stream at the parent commit 8 of 4 064
//! fork labels sat below the cut's solve and 2 vertices outside the cut
//! held one. The sound statement is the monotone one (§IV): every vertex
//! of the cut is present, at or above the label its own edge gave it and
//! at or below its fixpoint label.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use remo_algos::{stream_label, IncCc};
use remo_baseline as oracle;
use remo_core::{AlgoCtx, Algorithm, Engine, EngineConfig, VertexId, Weight};
use remo_gen::RmatConfig;

/// `IncCc`, noting every external add it sees tagged with epoch 0 — the
/// edges on the old side of the first snapshot's cut.
struct CutRecorder(Arc<Mutex<Vec<(VertexId, VertexId)>>>);

impl Algorithm for CutRecorder {
    type State = u64;
    type Edge = ();
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, w: Weight) {
        if ctx.epoch() == 0 {
            self.0.lock().unwrap().push((ctx.vertex(), visitor));
        }
        IncCc.on_add(ctx, visitor, value, w);
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: Weight) {
        IncCc.on_reverse_add(ctx, v, val, w);
    }
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, val: &u64, w: Weight) {
        IncCc.on_update(ctx, v, val, w);
    }
    fn absorbs(live: &u64, incoming: &u64) -> bool {
        IncCc::absorbs(live, incoming)
    }
    fn stream_value(index: u64) -> u64 {
        IncCc::stream_value(index)
    }
}

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
    const SHARDS: usize = 2;
    // Distinct directed pairs, so an edge names one stream position and
    // the recorded cut can be checked against the streams.
    let mut seen = HashSet::new();
    let edges: Vec<(VertexId, VertexId)> = remo_gen::rmat::generate(&RmatConfig {
        seed: 0x18,
        ..RmatConfig::graph500(15)
    })
    .into_iter()
    .filter(|&e| seen.insert(e))
    .take(200_000)
    .collect();
    assert_eq!(edges.len(), 200_000);

    let config = EngineConfig {
        quiescence_deadline: Some(Duration::from_secs(120)),
        ..EngineConfig::undirected(SHARDS)
    };
    let recorded = Arc::new(Mutex::new(Vec::new()));
    let mut engine = Engine::new(CutRecorder(Arc::clone(&recorded)), config);
    engine.try_ingest_pairs(&edges).unwrap();
    for &(v, _) in &edges[..32] {
        engine.try_local_state(v).unwrap();
    }
    let snapshot = engine.try_snapshot().unwrap().into_vec();
    engine.try_await_quiescence().unwrap();
    assert!(engine.counters_balanced());

    // The cut: the adds tagged epoch 0. (The barrier has passed, so no
    // further epoch-0 add can be born.) They are a prefix of each shard's
    // stream — a run is tagged with one epoch read, and the ack of the
    // next epoch follows the run's last pull.
    let cut = recorded.lock().unwrap().clone();
    let old: HashSet<(VertexId, VertexId)> = cut.iter().copied().collect();
    assert_eq!(old.len(), cut.len());
    let mut prefix_total = 0;
    for shard in 0..SHARDS {
        let stream = edges.iter().skip(shard).step_by(SHARDS);
        let flags: Vec<bool> = stream.map(|e| old.contains(e)).collect();
        let prefix = flags.iter().take_while(|&&f| f).count();
        assert!(
            flags[prefix..].iter().all(|&f| !f),
            "shard {shard}: an epoch-0 pull follows an epoch-1 pull"
        );
        prefix_total += prefix;
    }
    assert_eq!(prefix_total, cut.len());

    // The snapshot: every vertex of the cut, each label a monotone bound:
    // at least the label its cut edge gave it, at most its fixpoint's.
    let fixpoint = static_labels(&edges);
    let held: HashMap<VertexId, u64> = snapshot.iter().copied().collect();
    let limit: HashMap<VertexId, u64> = fixpoint.iter().copied().collect();
    for &(v, label) in &snapshot {
        assert!(label <= limit[&v], "vertex {v} is past its fixpoint");
    }
    let index: HashMap<(VertexId, VertexId), u64> = edges
        .iter()
        .enumerate()
        .map(|(i, &e)| (e, i as u64))
        .collect();
    for &(s, d) in &cut {
        let own = stream_label(index[&(s, d)]);
        for v in [s, d] {
            assert!(held.get(&v).is_some_and(|&l| l >= own), "vertex {v}");
        }
    }

    let result = engine.try_finish().unwrap();
    assert!(result.failures.is_empty());
    result.metrics.verify_balance().unwrap();
    assert_eq!(result.states.into_vec(), fixpoint);
}
