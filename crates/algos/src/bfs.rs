//! Incremental Breadth First Search (paper Algorithm 4).
//!
//! State: the vertex's BFS level — the minimum number of hops from the
//! source, where the source itself has level 1. `0` means "no state yet"
//! (new vertex), `u64::MAX` means "not reached". State is monotone: after
//! initialization it only ever *decreases* (§II-B, "Convex Monotonicity"),
//! which is what guarantees convergence to the deterministic answer under
//! asynchronous, concurrent event processing.
//!
//! The recursive step doubles as the incremental update: on an edge addition
//! that exposes a shorter path (case (iii) of §II-B), the update event
//! repairs the tree downstream; cases (i) and (ii) generate no work.

use remo_core::algorithm::codec;
use remo_core::{AlgoCtx, Algorithm, VertexId, Weight};

/// Level value for vertices that exist but are not (yet) reached.
pub const UNREACHED: u64 = u64::MAX;

/// Incremental BFS. Attach with [`remo_core::Engine::try_init_vertex`] on the
/// source ("can be initiated at any time").
#[derive(Debug, Default, Clone, Copy)]
pub struct IncBfs;

/// Monotone transition: take `candidate` if it improves (lowers) the level.
#[inline]
fn lower_to(candidate: u64) -> impl Fn(&mut u64) -> bool {
    move |s: &mut u64| {
        if *s == 0 || *s > candidate {
            *s = candidate;
            true
        } else {
            false
        }
    }
}

/// Treats the paper's `0 = fresh vertex` sentinel as infinity.
#[inline]
fn effective(level: u64) -> u64 {
    if level == 0 {
        UNREACHED
    } else {
        level
    }
}

impl Algorithm for IncBfs {
    type State = u64;
    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        codec::put_u64(*state, out);
    }

    fn decode_state(bytes: &[u8]) -> u64 {
        codec::get_u64(bytes)
    }

    /// `init()`: begin the traversal from this vertex (Algorithm 4 line 2).
    fn init(&self, ctx: &mut impl AlgoCtx<u64>) {
        if ctx.apply(lower_to(1)) {
            ctx.update_nbrs(&1);
        }
    }

    /// A new vertex ensures its level is "infinity" (line 6).
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _visitor: VertexId, _value: &u64, _w: Weight) {
        ctx.apply(lower_to(UNREACHED));
    }

    /// Reverse-add carries the other endpoint's level: same logic as update
    /// (lines 11-16).
    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<u64>,
        visitor: VertexId,
        value: &u64,
        w: Weight,
    ) {
        ctx.apply(lower_to(UNREACHED));
        self.on_update(ctx, visitor, value, w);
    }

    /// The recursive step (lines 18-28).
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: Weight) {
        let mine = effective(*ctx.state());
        let theirs = effective(*value);
        // Case: we are lower — notify the visitor back so *they* improve
        // (this is also how an unreached endpoint learns its level).
        if mine.saturating_add(1) < theirs {
            let state = *ctx.state();
            ctx.update_single_nbr(visitor, &state);
        }
        // Case: they are lower — adopt and propagate to all neighbours.
        else if theirs.saturating_add(1) < mine {
            let new_level = theirs + 1;
            if ctx.apply(lower_to(new_level)) {
                ctx.update_nbrs(&new_level);
            }
        }
        // Same level (±1): the current solution remains valid; no events.
    }

    /// Levels fit in the per-edge cache; used by the suppressing variant.
    fn encode_cache(state: &u64) -> u64 {
        *state
    }

    /// Levels form a min-lattice under `effective`: a visitor no lower
    /// than we are cannot lower us, and whatever we could tell it went
    /// out when we took our level (or rides the edge's reverse-add).
    fn absorbs(live: &u64, incoming: &u64) -> bool {
        effective(*incoming) >= effective(*live)
    }
}

/// Cache-suppressing BFS: identical semantics to [`IncBfs`], but when
/// propagating it skips neighbours whose cached level already proves they
/// cannot improve (they are at most `new_level + 1`... i.e. their cached
/// value is `<= new_level + 1`). This is the optimization the per-edge
/// neighbour cache of Algorithm 3 enables.
#[derive(Debug, Default, Clone, Copy)]
pub struct IncBfsSuppressed;

impl Algorithm for IncBfsSuppressed {
    type State = u64;
    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        codec::put_u64(*state, out);
    }

    fn decode_state(bytes: &[u8]) -> u64 {
        codec::get_u64(bytes)
    }

    fn init(&self, ctx: &mut impl AlgoCtx<u64>) {
        if ctx.apply(lower_to(1)) {
            ctx.update_nbrs(&1);
        }
    }

    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, _visitor: VertexId, _value: &u64, _w: Weight) {
        ctx.apply(lower_to(UNREACHED));
    }

    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<u64>,
        visitor: VertexId,
        value: &u64,
        w: Weight,
    ) {
        ctx.apply(lower_to(UNREACHED));
        self.on_update(ctx, visitor, value, w);
    }

    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: Weight) {
        let mine = effective(*ctx.state());
        let theirs = effective(*value);
        if mine.saturating_add(1) < theirs {
            let state = *ctx.state();
            ctx.update_single_nbr(visitor, &state);
        } else if theirs.saturating_add(1) < mine {
            let new_level = theirs + 1;
            if ctx.apply(lower_to(new_level)) {
                // Suppress sends to neighbours whose cached level shows they
                // already have a level <= ours + 1 (cache 0 = unknown).
                ctx.update_nbrs_filtered(&new_level, |_, meta| {
                    meta.cached == 0 || effective(meta.cached) > new_level + 1
                });
            }
        }
    }

    fn encode_cache(state: &u64) -> u64 {
        *state
    }
}

/// Deterministic-tree BFS (§II-D): state is `(level, parent)`. Where two
/// parents offer the same level, the lower parent id wins — "choosing the
/// parent with the lowest vertex ID" — making the *entire tree*, not just
/// the levels, independent of event ordering.
#[derive(Debug, Default, Clone, Copy)]
pub struct IncBfsDeterministic;

/// State of [`IncBfsDeterministic`]: `(level, parent)`; `(0, _)` = fresh,
/// parent is meaningless until `level >= 2`. The lattice order is
/// lexicographic: lower level wins, then lower parent id.
pub type LevelParent = (u64, VertexId);

#[inline]
fn lp_effective(s: LevelParent) -> LevelParent {
    if s.0 == 0 {
        (UNREACHED, VertexId::MAX)
    } else {
        s
    }
}

#[inline]
fn lp_lower_to(candidate: LevelParent) -> impl Fn(&mut LevelParent) -> bool {
    move |s: &mut LevelParent| {
        if lp_effective(*s) > candidate {
            *s = candidate;
            true
        } else {
            false
        }
    }
}

impl Algorithm for IncBfsDeterministic {
    type State = LevelParent;
    fn encode_state(state: &LevelParent, out: &mut Vec<u8>) {
        codec::put_u64(state.0, out);
        codec::put_u64(state.1, out);
    }

    fn decode_state(bytes: &[u8]) -> LevelParent {
        (codec::get_u64(&bytes[..8]), codec::get_u64(&bytes[8..]))
    }

    fn init(&self, ctx: &mut impl AlgoCtx<LevelParent>) {
        let me = ctx.vertex();
        if ctx.apply(lp_lower_to((1, me))) {
            let s = *ctx.state();
            ctx.update_nbrs(&s);
        }
    }

    fn on_add(
        &self,
        ctx: &mut impl AlgoCtx<LevelParent>,
        _visitor: VertexId,
        _value: &LevelParent,
        _w: Weight,
    ) {
        ctx.apply(lp_lower_to((UNREACHED, VertexId::MAX)));
    }

    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<LevelParent>,
        visitor: VertexId,
        value: &LevelParent,
        w: Weight,
    ) {
        ctx.apply(lp_lower_to((UNREACHED, VertexId::MAX)));
        self.on_update(ctx, visitor, value, w);
    }

    fn on_update(
        &self,
        ctx: &mut impl AlgoCtx<LevelParent>,
        visitor: VertexId,
        value: &LevelParent,
        _w: Weight,
    ) {
        let (my_level, _) = lp_effective(*ctx.state());
        let (their_level, _) = lp_effective(*value);
        // Notify back on `<=`, not `<`: at equal distance the visitor may
        // still prefer us as a lower-id parent (the §II-D tie-break), and it
        // can only learn our level from this reply. Without the equality
        // case the final tree depends on whether the edge arrived before or
        // after we settled — exactly the nondeterminism the deterministic
        // variant exists to remove. The `my_level != UNREACHED` guard is
        // load-bearing: two unreached endpoints otherwise satisfy
        // `MAX <= MAX` and ping-pong replies forever.
        if my_level != UNREACHED && my_level.saturating_add(1) <= their_level {
            let state = *ctx.state();
            ctx.update_single_nbr(visitor, &state);
        } else if their_level != UNREACHED {
            // Candidate: become the visitor's child. The lexicographic order
            // also settles equal-level parent contention deterministically.
            let candidate = (their_level + 1, visitor);
            if candidate < lp_effective(*ctx.state()) && ctx.apply(lp_lower_to(candidate)) {
                let s = *ctx.state();
                ctx.update_nbrs(&s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remo_core::{Engine, EngineConfig, SequentialEngine};

    fn run_bfs(edges: &[(u64, u64)], source: u64, shards: usize) -> Vec<(u64, u64)> {
        let engine = Engine::new(IncBfs, EngineConfig::undirected(shards));
        engine.try_init_vertex(source).unwrap();
        engine.try_ingest_pairs(edges).unwrap();
        engine.try_finish().unwrap().states.into_vec()
    }

    #[test]
    fn path_levels() {
        let states = run_bfs(&[(0, 1), (1, 2), (2, 3)], 0, 2);
        let get = |v: u64| states.iter().find(|&&(id, _)| id == v).map(|&(_, s)| s);
        assert_eq!(get(0), Some(1));
        assert_eq!(get(1), Some(2));
        assert_eq!(get(2), Some(3));
        assert_eq!(get(3), Some(4));
    }

    #[test]
    fn init_after_ingest_still_converges() {
        let engine = Engine::new(IncBfs, EngineConfig::undirected(2));
        engine.try_ingest_pairs(&[(0, 1), (1, 2)]).unwrap();
        engine.try_await_quiescence().unwrap();
        engine.try_init_vertex(0).unwrap(); // late initiation (§IV.1)
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.get(2), Some(&3));
    }

    #[test]
    fn shortcut_edge_lowers_levels() {
        // Long path first, then a shortcut from the source.
        let engine = Engine::new(IncBfs, EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        engine
            .try_ingest_pairs(&[(0, 1), (1, 2), (2, 3), (3, 4)])
            .unwrap();
        engine.try_await_quiescence().unwrap();
        engine.try_ingest_pairs(&[(0, 4)]).unwrap(); // case (iii): shorter path appears
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.get(4), Some(&2));
        assert_eq!(states.get(3), Some(&3), "repair must flow backwards too");
    }

    #[test]
    fn disconnected_component_unreached() {
        let states = run_bfs(&[(0, 1), (5, 6)], 0, 2);
        let get = |v: u64| states.iter().find(|&&(id, _)| id == v).map(|&(_, s)| s);
        assert_eq!(get(5), Some(UNREACHED));
        assert_eq!(get(6), Some(UNREACHED));
    }

    #[test]
    fn deterministic_variant_picks_lowest_parent() {
        // Vertex 3 reachable at level 3 via parent 1 or 2; the tie-break
        // clause (§II-D) must choose the lower parent id, 1.
        let engine = Engine::new(IncBfsDeterministic, EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        engine
            .try_ingest_pairs(&[(0, 1), (0, 2), (1, 3), (2, 3)])
            .unwrap();
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.get(3), Some(&(3, 1)));
    }

    #[test]
    fn deterministic_variant_quiesces_without_source() {
        // Regression: two unreached endpoints must not ping-pong replies
        // forever (the `MAX <= MAX` livelock). No init: everything stays
        // unreached and the engine must still reach quiescence.
        let engine = Engine::new(IncBfsDeterministic, EngineConfig::undirected(2));
        engine.try_ingest_pairs(&[(0, 1), (1, 2), (2, 0)]).unwrap();
        engine.try_await_quiescence().unwrap();
        let r = engine.try_finish().unwrap();
        for (v, &(l, _)) in r.states.iter() {
            // Raw 0 is the fresh sentinel; both mean "unreached".
            assert!(l == UNREACHED || l == 0, "vertex {v} has level {l}");
        }
    }

    #[test]
    fn deterministic_variant_equal_level_parent_improves_late() {
        // The confluence case that motivated the <= notify-back: vertex 3
        // settles at level 3 via parent 2, then a *late* edge to the
        // already-settled, lower-id vertex 1 (also level 2) must flip the
        // parent to 1 even though 1's state never changes again.
        let engine = Engine::new(IncBfsDeterministic, EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_pairs(&[(0, 1), (0, 2), (2, 3)]).unwrap();
        engine.try_await_quiescence().unwrap();
        assert_eq!(engine.try_local_state(3).unwrap(), Some((3, 2)));
        engine.try_ingest_pairs(&[(1, 3)]).unwrap(); // late edge to the lower-id parent
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.get(3), Some(&(3, 1)));
    }

    #[test]
    fn filtered_run_matches_sequential_fifo() {
        // Dominance filtering must not change the fixpoint — only how much
        // work it takes to get there. The sequential engine never filters.
        let edges: Vec<(u64, u64)> = (0..80).map(|i| (i, (i * 13 + 3) % 80)).collect();
        let mut fifo = SequentialEngine::undirected(IncBfs);
        fifo.init_vertex(0);
        fifo.apply_pairs(&edges);
        assert_eq!(fifo.states(), run_bfs(&edges, 0, 4));
    }

    #[test]
    fn suppressed_variant_matches_plain() {
        let edges: Vec<(u64, u64)> = (0..50).map(|i| (i, (i * 7 + 1) % 50)).collect();
        let plain = run_bfs(&edges, 0, 2);
        let engine = Engine::new(IncBfsSuppressed, EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_pairs(&edges).unwrap();
        let supp = engine.try_finish().unwrap().states.into_vec();
        assert_eq!(plain, supp);
    }
}
