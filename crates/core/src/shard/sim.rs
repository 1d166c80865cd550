//! A seeded scheduler for the shard pass. It builds `k` workers with the
//! engine's own wiring ([`wire`]) and steps them on the test thread, in
//! an order a seed chooses, playing the controller's part between steps:
//! it queues an `Init` and feeds chunks where the ingest window allows
//! ([`Controller::offer`]), reads the quiescence probe and takes a
//! snapshot. Nothing parks and no OS schedule is involved, so a run is a
//! pure function of its seed, and a failing seed replays from its printed
//! case.
//!
//! Every schedule is checked against five oracles:
//! 1. the final states equal [`SequentialEngine`]'s on the same stream;
//! 2. [`RunMetrics::verify_balance`] holds over the shards' final cells;
//! 3. no quiescence verdict while work exists: whenever the probe holds
//!    after a tick, every worker holds no envelope, no chunk and no
//!    inbound lane batch;
//! 4. liveness: once the schedule turns fair (round robin, feeding what
//!    fits), the run quiesces within [`FAIR_BUDGET`] ticks;
//! 5. replay: the same seed gives the same states, snapshot and counters,
//!    the `phase_*_ns` clock readings aside.
//!
//! A snapshot is taken at a seeded tick as `Engine::try_snapshot` takes
//! one: the fair schedule settles what was fed (the `Init`, queued before
//! any chunk, and each shard's chunks so far), then every shard answers a
//! `Collect` on its channel. The states must equal the static solve of
//! what was fed.

use proptest::prelude::*;
use remo_gen::rng::SmallRng;
use remo_gen::{rmat, RmatConfig};
use remo_store::{VertexId, Weight};

impl<A: Algorithm> ShardWorker<A> {
    /// True when this worker holds no envelope: none queued, buffered for
    /// a peer, or held for a full lane.
    pub(super) fn holds_nothing(&self) -> bool {
        self.local_q.is_empty()
            && self.out.is_empty()
            && self.outboxes.iter().all(Vec::is_empty)
            && self.held.iter().all(|q| q.is_empty())
    }
}

use super::{Message, Progress, ShardWorker, HELD_BOUND, INGEST_CHUNK, PULL_RUN};
use crate::algorithm::{AlgoCtx, Algorithm};
use crate::config::EngineConfig;
use crate::engine::{wire, Controller};
use crate::event::{Chunk, Items, TopoOp};
use crate::metrics::{RunMetrics, ShardMetrics};
use crate::sequential::SequentialEngine;

/// Ticks a run may take to quiesce once its schedule turns fair (oracle 4).
const FAIR_BUDGET: u64 = 200_000;

/// Min-label connected components: a vertex's label is the least id in
/// its component, stored as `u64::MAX - id` so that labels join by `max`
/// and 0, the default, is "unlabelled".
#[derive(Clone, Copy)]
struct MinCc;

fn raise(s: &mut u64, to: u64) -> bool {
    let up = to > *s;
    if up {
        *s = to;
    }
    up
}

impl Algorithm for MinCc {
    type State = u64;
    type Edge = ();

    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _: VertexId, _: &u64, _: Weight) {
        let own = u64::MAX - ctx.vertex();
        ctx.apply(|s| raise(s, own));
    }

    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, value: &u64, w: Weight) {
        self.on_add(ctx, v, value, w);
        self.on_update(ctx, v, value, w);
    }

    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _: Weight) {
        let (mine, theirs) = (*ctx.state(), *value);
        if mine > theirs {
            ctx.update_single_nbr(visitor, &mine);
        } else if mine < theirs && ctx.apply(|s| raise(s, theirs)) {
            ctx.update_nbrs(&theirs);
        }
    }

    fn absorbs(live: &u64, incoming: &u64) -> bool {
        incoming <= live
    }
}

/// BFS levels from the `Init` source: 0, the default, is "not seen",
/// [`UNREACHED`] a vertex with no path to the source yet, and levels join
/// by `min`.
#[derive(Clone, Copy)]
struct Levels;

const UNREACHED: u64 = u64::MAX;

/// A level, with "not seen" read as unreached.
fn level(s: u64) -> u64 {
    if s == 0 {
        UNREACHED
    } else {
        s
    }
}

fn lower(s: &mut u64, to: u64) -> bool {
    let down = to < level(*s) || *s == 0;
    if down {
        *s = to;
    }
    down
}

impl Algorithm for Levels {
    type State = u64;
    type Edge = ();

    fn init(&self, ctx: &mut impl AlgoCtx<u64>) {
        if ctx.apply(|s| lower(s, 1)) {
            ctx.update_nbrs(&1);
        }
    }

    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _: VertexId, _: &u64, _: Weight) {
        ctx.apply(|s| lower(s, UNREACHED));
    }

    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, v: VertexId, value: &u64, w: Weight) {
        self.on_add(ctx, v, value, w);
        self.on_update(ctx, v, value, w);
    }

    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _: Weight) {
        let (mine, theirs) = (level(*ctx.state()), level(*value));
        if mine.saturating_add(1) < theirs {
            ctx.update_single_nbr(visitor, &mine);
        } else if theirs.saturating_add(1) < mine && ctx.apply(|s| lower(s, theirs + 1)) {
            ctx.update_nbrs(&(theirs + 1));
        }
    }

    fn absorbs(live: &u64, incoming: &u64) -> bool {
        level(*incoming) >= level(*live)
    }
}

type States = Vec<(VertexId, u64)>;

/// The static solve: [`SequentialEngine`] over `pairs`, after an `Init`
/// of `source` if there is one.
fn solve<A: Algorithm<State = u64>>(
    algo: A,
    source: Option<VertexId>,
    pairs: &[(VertexId, VertexId)],
) -> States {
    let mut seq = SequentialEngine::undirected(algo);
    if let Some(v) = source {
        seq.init_vertex(v);
    }
    seq.apply_pairs(pairs);
    seq.states()
}

/// `m` with its clock readings zeroed: the counts a schedule determines.
fn counts(m: &ShardMetrics) -> ShardMetrics {
    ShardMetrics {
        phase_drain_ns: 0,
        phase_process_ns: 0,
        phase_flush_ns: 0,
        phase_spin_ns: 0,
        phase_park_ns: 0,
        phase_checkpoint_ns: 0,
        phase_replay_ns: 0,
        phase_busy_ns: 0,
        ..m.clone()
    }
}

/// `k` workers, the controller's ends onto them, and the stream they
/// are fed.
struct Sim<A: Algorithm<State = u64>> {
    workers: Vec<ShardWorker<A>>,
    ctl: Controller<u64>,
    /// Each shard's share of the stream (pair `i` goes to shard `i % k`,
    /// as the engine splits it, at stream index `i`) and how much of it
    /// was fed.
    shares: Vec<Vec<(VertexId, VertexId)>>,
    fed: Vec<usize>,
    /// The most events one chunk carries.
    chunk: usize,
    ticks: u64,
}

impl<A: Algorithm<State = u64>> Sim<A> {
    fn new(algo: A, k: usize, batch: usize, chunk: usize, pairs: &[(VertexId, VertexId)]) -> Self {
        let (mut workers, ctl) = wire(algo, &EngineConfig::undirected(k), Vec::new());
        for w in &mut workers {
            w.batch = batch;
        }
        let shares = (0..k)
            .map(|s| pairs.iter().skip(s).step_by(k).copied().collect())
            .collect();
        // The pairs take indices `0..pairs.len()`; an init comes after.
        ctl.number(pairs.len());
        Sim {
            workers,
            ctl,
            shares,
            fed: vec![0; k],
            chunk,
            ticks: 0,
        }
    }

    fn k(&self) -> usize {
        self.workers.len()
    }

    fn all_fed(&self) -> bool {
        (0..self.k()).all(|s| self.fed[s] == self.shares[s].len())
    }

    /// Queues an `Init` of `v` on its owner's stream, before any chunk;
    /// returns the owner.
    fn init(&mut self, v: VertexId) -> usize {
        let s = self.ctl.part.owner(v);
        let index = self.ctl.number(1);
        let queued = self.ctl.offer(s, 1, || Chunk::one(index, Items::Init(v)));
        assert!(queued.expect("the owner's channel is open").is_some());
        s
    }

    /// One tick: feeds shard `s` its next chunk if there is one and it
    /// fits the window. False when nothing was fed.
    fn feed(&mut self, s: usize) -> bool {
        let (from, k) = (self.fed[s], self.k());
        let n = (self.shares[s].len() - from).min(self.chunk);
        let chunk = || Chunk {
            base: (s + from * k) as u64,
            stride: k as u64,
            items: Items::Pairs(TopoOp::Add, self.shares[s][from..][..n].to_vec()),
        };
        let open = "the shard's channel is open";
        let queued = n > 0 && self.ctl.offer(s, n as u64, chunk).expect(open).is_some();
        if !queued {
            return false;
        }
        self.fed[s] += n;
        self.tick();
        true
    }

    /// One tick: one pass of shard `s`.
    fn step(&mut self, s: usize) -> Progress {
        let progress = self.workers[s].step();
        assert_ne!(progress, Progress::Stop, "nothing sent a Shutdown");
        self.tick();
        progress
    }

    /// Closes a tick with oracle 3: a quiescence verdict must find no work.
    fn tick(&mut self) {
        self.ticks += 1;
        if !self.ctl.shared.quiescent_probe() {
            return;
        }
        for w in &self.workers {
            assert!(
                w.holds_nothing() && w.chunks.is_empty() && !self.ctl.lanes.mesh.has_inbound(w.id),
                "tick {}: the probe says quiescent while shard {} holds work",
                self.ticks,
                w.id
            );
        }
    }

    /// The fair schedule: round robin, feeding each shard what fits before
    /// its step (nothing with `feed` off), until the probe holds with the
    /// stream fed. Oracle 4: within [`FAIR_BUDGET`] ticks.
    fn settle(&mut self, feed: bool) {
        let start = self.ticks;
        loop {
            if (!feed || self.all_fed()) && self.ctl.shared.quiescent_probe() {
                return;
            }
            assert!(
                self.ticks - start < FAIR_BUDGET,
                "no quiescence within {FAIR_BUDGET} fair ticks"
            );
            for s in 0..self.k() {
                while feed && self.feed(s) {}
                self.step(s);
            }
        }
    }

    /// A snapshot, as `Engine::try_snapshot` takes one: settles what was
    /// fed, then every shard answers a `Collect` on its channel in the
    /// step after the request.
    fn snapshot(&mut self) -> States {
        self.settle(false);
        let (reply, answers) = std::sync::mpsc::sync_channel(self.k());
        for s in 0..self.k() {
            let reply = reply.clone();
            let sent = self.ctl.send_to(s, Message::Collect { reply });
            assert!(sent.is_ok(), "the shard's channel is open");
            self.step(s);
        }
        let mut states: States = answers.try_iter().flatten().collect();
        states.sort_unstable();
        states
    }

    /// The pairs fed so far: every shard's share up to its feed point.
    fn fed_pairs(&self) -> Vec<(VertexId, VertexId)> {
        (0..self.k())
            .flat_map(|s| self.shares[s][..self.fed[s]].to_vec())
            .collect()
    }

    /// The live states of every shard, by vertex.
    fn states(&self) -> States {
        let mut states: States = self
            .workers
            .iter()
            .flat_map(|w| w.store.iter().map(|(v, s, _)| (v, *s)))
            .collect();
        states.sort_unstable();
        states
    }

    /// Oracle 2 over the cells each shard publishes when it goes idle; the
    /// cells must also be the workers' own counters.
    fn check_balance(&mut self) -> Vec<ShardMetrics> {
        for w in &mut self.workers {
            w.publish_telemetry();
        }
        let metrics: RunMetrics = self.ctl.tele.snapshot_metrics();
        metrics.verify_balance().expect("the envelope balance");
        for w in &self.workers {
            assert_eq!(metrics.per_shard[w.id], w.metrics);
        }
        metrics.per_shard.iter().map(counts).collect()
    }
}

/// What one seeded schedule did: its snapshot, final states and counters
/// (oracle 5 compares two runs of it).
#[derive(Debug, PartialEq)]
struct Outcome {
    snapshot: States,
    states: States,
    counts: Vec<ShardMetrics>,
}

/// Runs the schedule `seed` chooses and checks oracles 1–4 on it.
fn run_seed(seed: u64) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pairs = rmat::generate(&RmatConfig {
        scale: rng.gen_range(3..=7u64) as u32,
        edge_factor: rng.gen_range(1..=4u64) as u32,
        seed: rng.next_u64(),
        ..RmatConfig::graph500(3)
    });
    let k = rng.gen_range(1..=3usize);
    let batch = [1, 2, 8, 256][rng.gen_range(0..4usize)];
    let chunk = rng.gen_range(1..=128usize);
    if rng.next_u64() & 1 == 0 {
        run_schedule(MinCc, None, &pairs, k, batch, chunk, rng)
    } else {
        run_schedule(Levels, Some(pairs[0].0), &pairs, k, batch, chunk, rng)
    }
}

/// A snapshot of `sim`, asserted to be the static solve of what was fed:
/// the `Init` and every chunk so far.
fn solved_snapshot<A: Algorithm<State = u64> + Copy>(
    sim: &mut Sim<A>,
    algo: A,
    source: Option<VertexId>,
) -> States {
    let states = sim.snapshot();
    let cut = solve(algo, source, &sim.fed_pairs());
    assert_eq!(states, cut, "the snapshot solves its cut");
    states
}

fn run_schedule<A: Algorithm<State = u64> + Copy>(
    algo: A,
    source: Option<VertexId>,
    pairs: &[(VertexId, VertexId)],
    k: usize,
    batch: usize,
    chunk: usize,
    mut rng: SmallRng,
) -> Outcome {
    let mut sim = Sim::new(algo, k, batch, chunk, pairs);
    if let Some(v) = source {
        sim.init(v);
    }
    // The unfair stretch: each tick feeds a chunk (one time in
    // `feed_odds`) or steps a shard drawn by weight. Weights are redrawn
    // every `stretch` ticks, and a weight of 0 starves its shard for the
    // stretch: its lanes fill and its peers' held backlogs form.
    let unfair = rng.gen_range(0..4_000u64);
    let stretch = rng.gen_range(64..=2_048u64);
    let feed_odds = rng.gen_range(2..=16u64);
    let snap_at = rng.gen_range(0..=unfair);
    let mut snapshot = None;
    let mut weights = vec![1u64; k];
    for t in 0..unfair {
        if t == snap_at {
            snapshot = Some(solved_snapshot(&mut sim, algo, source));
        }
        if t % stretch == 0 {
            weights = (0..k)
                .map(|_| [0, 1, 1, 4][rng.gen_range(0..4usize)])
                .collect();
            weights[rng.gen_range(0..k)] += 1;
        }
        if !sim.all_fed() && rng.gen_range(0..feed_odds) == 0 {
            let s = rng.gen_range(0..k);
            sim.feed(s);
            continue;
        }
        let mut pick = rng.gen_range(0..weights.iter().sum::<u64>());
        let mut s = 0;
        while pick >= weights[s] {
            pick -= weights[s];
            s += 1;
        }
        sim.step(s);
    }
    let snapshot = snapshot.unwrap_or_else(|| solved_snapshot(&mut sim, algo, source));
    sim.settle(true);

    // Oracle 1.
    let states = sim.states();
    assert_eq!(
        states,
        solve(algo, source, pairs),
        "the final states are the static solve"
    );
    Outcome {
        snapshot,
        states,
        counts: sim.check_balance(),
    }
}

proptest! {
    /// Oracles 1–4 on every seeded schedule, and oracle 5 on a second run
    /// of each. `PROPTEST_CASES` scales the sweep.
    #[test]
    fn seeded_schedules_match_the_static_solve(seed in any::<u64>()) {
        let first = run_seed(seed);
        prop_assert_eq!(first, run_seed(seed), "the same seed replays");
    }
}

/// A receiver starved while its peer pulls: the lane fills, and the peer
/// holds what does not fit until its backlog passes `HELD_BOUND`. Then it
/// stops pulling, give or take what its last pull run sends: each pull's
/// `Add` and the reverse-add of a local one, at most two batches per
/// `batch` envelopes of the run, plus one partial batch. (`Levels` with
/// no source sends nothing else.) The fair schedule then delivers it all.
#[test]
fn starved_receiver_fills_its_lane_and_its_peer_holds() {
    let pairs = rmat::generate(&RmatConfig {
        seed: 7,
        ..RmatConfig::graph500(11)
    });
    let batch = 1;
    let mut sim = Sim::new(Levels, 2, batch, INGEST_CHUNK, &pairs);
    let pulled = |sim: &Sim<Levels>| sim.workers[0].metrics.topo_ingested;
    let step_0 = |sim: &mut Sim<Levels>| {
        while sim.feed(0) {}
        sim.step(0);
    };
    while sim.workers[0].held_batches() <= HELD_BOUND {
        assert!(
            pulled(&sim) < sim.shares[0].len() as u64,
            "shard 0 pulled its share without reaching the bound"
        );
        step_0(&mut sim);
    }
    assert!(sim.workers[0].metrics.lane_full_fallbacks > 0);
    // A plateau, not a moment: nothing grows while shard 1 is starved.
    let at = pulled(&sim);
    for _ in 0..1_000 {
        step_0(&mut sim);
        let held = sim.workers[0].held_batches();
        assert!(held <= HELD_BOUND + 2 * PULL_RUN / batch + 1, "{held} held");
    }
    assert_eq!(pulled(&sim), at, "shard 0 pulled past its bound");
    sim.settle(true);
    assert_eq!(sim.states(), solve(Levels, None, &pairs));
    sim.check_balance();
}

/// The exact work of one schedule (ROADMAP item 2(c)): two shards in
/// round robin over RMAT-10 seed 1, the window-bounded feed and the
/// default batch. Every count is a function of the stream and the
/// schedule, so a change that moves one changed what the engine does.
#[test]
fn round_robin_counts_are_exact() {
    let pairs = rmat::generate(&RmatConfig {
        seed: 1,
        ..RmatConfig::graph500(10)
    });
    let mut sim = Sim::new(MinCc, 2, 256, INGEST_CHUNK, &pairs);
    sim.settle(true);
    assert_eq!(sim.states(), solve(MinCc, None, &pairs));
    let counts = sim.check_balance();
    let expect = [
        ShardMetrics {
            topo_ingested: 8_192,
            add_events: 7_974,
            reverse_add_events: 7_976,
            update_events: 662,
            envelopes_sent: 17_705,
            edges_inserted: 10_123,
            duplicate_edges: 5_827,
            updates_dominated: 780,
            updates_suppressed: 553,
            lane_batches: 38,
            flush_deferrals: 64,
            trace_roots: 128,
            trace_spans: 651,
            ..ShardMetrics::default()
        },
        ShardMetrics {
            topo_ingested: 8_192,
            add_events: 8_410,
            reverse_add_events: 8_408,
            update_events: 777,
            envelopes_sent: 18_363,
            edges_inserted: 10_970,
            duplicate_edges: 5_848,
            updates_dominated: 1_081,
            updates_suppressed: 894,
            lane_batches: 36,
            flush_deferrals: 64,
            trace_roots: 128,
            trace_spans: 678,
            ..ShardMetrics::default()
        },
    ];
    assert_eq!(counts, expect, "work counts moved");
}
