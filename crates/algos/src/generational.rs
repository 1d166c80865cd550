//! Decremental support via **state generations** (paper §VI-B).
//!
//! Edge deletions break the monotonicity REMO relies on (removing an edge
//! can *increase* a BFS distance). The paper's proposed fix: "define the new
//! monotonic state to be determined (i) firstly by the generation of the
//! algorithmic state, and only secondly by (ii) the actual algorithmic
//! state. ... if an algorithmic action would break monotonicity we move the
//! state into a new generation", which sits convexly below every state of
//! the older generation.
//!
//! [`GenBfs`] implements that design for BFS. State is `(generation,
//! level)`; the lattice order is lexicographic — higher generation always
//! dominates, and within a generation the level decreases as usual. A
//! deletion bumps the shared current-generation counter; re-initiating the
//! source floods `(g+1, 1)` and rebuilds the tree, while stale
//! lower-generation values lose every comparison. "While deletion events
//! done in this generational fashion may have a high overhead ... this
//! provides a correct solution as a starting point" — the
//! `ablate_generational` measurements quantify that overhead.
//!
//! Reading results: a vertex whose stored generation is older than the
//! current one is **unreached** in the current world (its value predates the
//! deletion).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use remo_core::{AlgoCtx, Algorithm, VertexId, Weight};

/// Level value for unreached vertices.
pub const UNREACHED: u64 = u64::MAX;

/// `(generation, level)`; `(0, 0)` is the fresh-vertex bottom.
pub type GenLevel = (u32, u64);

/// Shared handle to the algorithm's generation counter. Bump it after
/// streaming deletions, then re-initiate the source.
#[derive(Debug, Clone, Default)]
pub struct GenerationHandle(Arc<AtomicU32>);

impl GenerationHandle {
    /// Current generation.
    pub fn current(&self) -> u32 {
        self.0.load(Ordering::SeqCst)
    }

    /// Opens a new generation (after deletions); returns it.
    pub fn bump(&self) -> u32 {
        self.0.fetch_add(1, Ordering::SeqCst) + 1
    }
}

/// Generational BFS: incremental BFS that stays correct under edge
/// deletions via the §VI-B generation scheme.
#[derive(Debug, Clone, Default)]
pub struct GenBfs {
    gen: GenerationHandle,
}

impl GenBfs {
    /// Creates the algorithm plus the user-side generation handle.
    pub fn new() -> (Self, GenerationHandle) {
        let handle = GenerationHandle::default();
        (
            GenBfs {
                gen: handle.clone(),
            },
            handle,
        )
    }
}

#[inline]
fn effective(s: GenLevel) -> GenLevel {
    if s.1 == 0 {
        (s.0, UNREACHED)
    } else {
        s
    }
}

/// Candidate dominates iff its generation is higher, or equal-generation
/// with a lower level (the lexicographic order of §VI-B).
#[inline]
fn dominates(candidate: GenLevel, over: GenLevel) -> bool {
    let over = effective(over);
    candidate.0 > over.0 || (candidate.0 == over.0 && candidate.1 < over.1)
}

#[inline]
fn adopt(candidate: GenLevel) -> impl Fn(&mut GenLevel) -> bool {
    move |s: &mut GenLevel| {
        if dominates(candidate, *s) {
            *s = candidate;
            true
        } else {
            false
        }
    }
}

impl Algorithm for GenBfs {
    type State = GenLevel;
    type Edge = ();

    /// Initiates (or re-initiates, after a bump) the source at the current
    /// generation.
    fn init(&self, ctx: &mut impl AlgoCtx<GenLevel>) {
        let g = self.gen.current();
        if ctx.apply(adopt((g, 1))) {
            let s = *ctx.state();
            ctx.update_nbrs(&s);
        }
    }

    fn on_add(
        &self,
        ctx: &mut impl AlgoCtx<GenLevel>,
        _visitor: VertexId,
        _value: &GenLevel,
        _w: Weight,
    ) {
        // Fresh vertices sit at the bottom; nothing to do (the bottom is
        // dominated by any real value of any generation).
        let _ = ctx;
    }

    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<GenLevel>,
        visitor: VertexId,
        value: &GenLevel,
        w: Weight,
    ) {
        self.on_update(ctx, visitor, value, w);
    }

    fn on_update(
        &self,
        ctx: &mut impl AlgoCtx<GenLevel>,
        visitor: VertexId,
        value: &GenLevel,
        _w: Weight,
    ) {
        let mine = effective(*ctx.state());
        let theirs = effective(*value);
        // Their value is stale (older generation): send ours back so they
        // catch up — only over a still-existing edge (see GenCc's on_update
        // for why replies must be topology-guarded in a decremental world).
        if mine.0 > theirs.0 {
            if ctx.edge_weight(visitor).is_some() {
                let s = *ctx.state();
                ctx.update_single_nbr(visitor, &s);
            }
            return;
        }
        // We are stale or same-generation BFS logic applies.
        if theirs.1 != UNREACHED {
            let candidate = (theirs.0, theirs.1 + 1);
            if dominates(candidate, mine) {
                if ctx.apply(adopt(candidate)) {
                    let s = *ctx.state();
                    ctx.update_nbrs(&s);
                }
                return;
            }
        }
        // Same generation, we are closer: notify back (plain BFS rule),
        // topology-guarded.
        if mine.0 == theirs.0
            && mine.1.saturating_add(1) < theirs.1
            && ctx.edge_weight(visitor).is_some()
        {
            let s = *ctx.state();
            ctx.update_single_nbr(visitor, &s);
        }
    }
}

/// Convenience view: the level of `s` in generation `g` (`UNREACHED` if the
/// state predates `g` or is the bottom).
pub fn level_in_generation(s: GenLevel, g: u32) -> u64 {
    if s.0 == g && s.1 != 0 {
        s.1
    } else {
        UNREACHED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remo_core::{Engine, EngineConfig};

    #[test]
    fn behaves_like_bfs_without_deletions() {
        let (algo, _gen) = GenBfs::new();
        let engine = Engine::new(algo, EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_pairs(&[(0, 1), (1, 2), (0, 3)]).unwrap();
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.get(0), Some(&(0, 1)));
        assert_eq!(states.get(1), Some(&(0, 2)));
        assert_eq!(states.get(2), Some(&(0, 3)));
        assert_eq!(states.get(3), Some(&(0, 2)));
    }

    #[test]
    fn deletion_then_new_generation_rebuilds() {
        let (algo, gen) = GenBfs::new();
        let engine = Engine::new(algo, EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        // Short path 0-1-4 and long path 0-2-3-4.
        engine
            .try_ingest_pairs(&[(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
            .unwrap();
        engine.try_await_quiescence().unwrap();

        // Delete the shortcut, open a new generation, re-seed.
        engine.try_delete_pairs(&[(0, 1), (1, 4)]).unwrap();
        engine.try_await_quiescence().unwrap();
        let g = gen.bump();
        engine.try_init_vertex(0).unwrap();
        let states = engine.try_finish().unwrap().states;

        // Vertex 4 now only reachable via the long path: level 4.
        assert_eq!(level_in_generation(*states.get(4).unwrap(), g), 4);
        // Vertex 1 is disconnected: must remain at the old generation.
        assert_eq!(level_in_generation(*states.get(1).unwrap(), g), UNREACHED);
        assert_eq!(level_in_generation(*states.get(2).unwrap(), g), 2);
    }

    #[test]
    fn incremental_adds_after_regeneration_work() {
        let (algo, gen) = GenBfs::new();
        let engine = Engine::new(algo, EngineConfig::undirected(1));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_pairs(&[(0, 1)]).unwrap();
        engine.try_await_quiescence().unwrap();
        engine.try_delete_pairs(&[(0, 1)]).unwrap();
        engine.try_await_quiescence().unwrap();
        let g = gen.bump();
        engine.try_init_vertex(0).unwrap();
        engine.try_await_quiescence().unwrap();
        // New edge in the new generation propagates normally.
        engine.try_ingest_pairs(&[(0, 5)]).unwrap();
        let states = engine.try_finish().unwrap().states;
        assert_eq!(level_in_generation(*states.get(5).unwrap(), g), 2);
        assert_eq!(level_in_generation(*states.get(1).unwrap(), g), UNREACHED);
    }

    #[test]
    fn stale_generation_values_lose_every_comparison() {
        assert!(
            dominates((1, 50), (0, 2)),
            "new gen dominates despite worse level"
        );
        assert!(!dominates((0, 1), (1, 50)));
        assert!(dominates((1, 2), (1, 3)));
        assert!(!dominates((1, 3), (1, 2)));
    }
}

/// Generational Connected Components: delete-capable CC via the same §VI-B
/// generation scheme, but **self-healing** — CC has no initiation vertex,
/// so instead of an explicit re-seed the deletion itself opens the new
/// generation and floods it epidemically.
///
/// On an edge removal, both endpoints bump their generation and re-label
/// themselves; any neighbour that sees a higher-generation value resets to
/// its own hash label in that generation, joins the incoming label, and
/// re-broadcasts. The flood covers exactly the component(s) touching the
/// deleted edge (both halves, if it was a bridge), and within the new
/// generation ordinary CC label domination converges to the dominator of
/// each *remaining* component. Untouched components keep their old
/// generation — their labels were never invalidated.
///
/// State: `(generation, label)`. Two vertices are in the same component iff
/// their full `(generation, label)` pairs are equal at quiescence.
///
/// ## Exactness contract
///
/// Separating deletions by quiescence (`delete → await_quiescence → delete
/// → …`, the paper's "trivial, yet costly" synchronous regime — though here
/// the repair cost is proportional to the affected component, not a
/// stop-the-world recompute) gives **exact** results: the per-channel FIFO
/// order fences every message that could cross the deleted edge. Under
/// fully concurrent deletion storms the algorithm remains convergent and
/// complete (vertices of one component always agree), but a flood sent over
/// an edge that a *different* concurrent deletion later removed can
/// transiently equate the states of components that are in fact separate —
/// resolved by the next quiesced deletion touching them. The extension
/// tests pin down both regimes.
#[derive(Debug, Default, Clone, Copy)]
pub struct GenCc;

/// `(generation, label)`; `(0, 0)` is the fresh-vertex bottom.
pub type GenLabel = (u32, u64);

use crate::cc::cc_label;

#[inline]
fn gcc_join(me: remo_core::VertexId, incoming: GenLabel) -> impl Fn(&mut GenLabel) -> bool {
    move |s: &mut GenLabel| {
        if incoming.0 > s.0 {
            // Entering a newer generation: restart from our own label, then
            // join the incoming one (CC join is max).
            *s = (incoming.0, cc_label(me).max(incoming.1));
            true
        } else if incoming.0 == s.0 && incoming.1 > s.1 {
            s.1 = incoming.1;
            true
        } else {
            false
        }
    }
}

impl Algorithm for GenCc {
    type State = GenLabel;
    type Edge = ();

    /// Label any new vertex (Algorithm 6's add behaviour, generation-aware:
    /// the self-label joins within whatever generation the vertex is in).
    fn on_add(
        &self,
        ctx: &mut impl AlgoCtx<GenLabel>,
        _visitor: VertexId,
        _value: &GenLabel,
        _w: Weight,
    ) {
        let me = ctx.vertex();
        ctx.apply(move |s: &mut GenLabel| {
            let label = cc_label(me);
            if s.1 < label {
                s.1 = label;
                true
            } else {
                false
            }
        });
    }

    fn on_reverse_add(
        &self,
        ctx: &mut impl AlgoCtx<GenLabel>,
        visitor: VertexId,
        value: &GenLabel,
        w: Weight,
    ) {
        self.on_add(ctx, visitor, value, w);
        self.on_update(ctx, visitor, value, w);
    }

    fn on_update(
        &self,
        ctx: &mut impl AlgoCtx<GenLabel>,
        visitor: VertexId,
        value: &GenLabel,
        _w: Weight,
    ) {
        let me = ctx.vertex();
        let mine = *ctx.state();
        let theirs = *value;
        if mine.0 > theirs.0 || (mine.0 == theirs.0 && mine.1 > theirs.1) {
            // We dominate (newer generation or bigger label): notify back —
            // but ONLY over a still-existing edge. An unguarded reply to an
            // in-flight message from a since-deleted neighbour would leak
            // our generation across the removed edge and merge components
            // that are no longer connected. (FIFO ordering makes every
            // other cross-deleted-edge path impossible: the reverse-remove
            // follows the sender's last legitimate flood.)
            if ctx.edge_weight(visitor).is_some() {
                ctx.update_single_nbr(visitor, &mine);
            }
        } else if ctx.apply(gcc_join(me, theirs)) {
            let s = *ctx.state();
            ctx.update_nbrs(&s);
        }
    }

    /// A removal opens a new generation at both endpoints; the flood does
    /// the rest.
    fn on_remove(
        &self,
        ctx: &mut impl AlgoCtx<GenLabel>,
        _visitor: VertexId,
        _value: &GenLabel,
        _w: Weight,
    ) {
        let me = ctx.vertex();
        ctx.apply(move |s: &mut GenLabel| {
            *s = (s.0 + 1, cc_label(me));
            true
        });
        let s = *ctx.state();
        ctx.update_nbrs(&s);
    }

    fn on_reverse_remove(
        &self,
        ctx: &mut impl AlgoCtx<GenLabel>,
        visitor: VertexId,
        value: &GenLabel,
        w: Weight,
    ) {
        self.on_remove(ctx, visitor, value, w);
    }
}
