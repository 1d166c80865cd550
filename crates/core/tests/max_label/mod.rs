//! The max-label test algorithm, shared by the chaos, recovery and
//! tracing suites (`mod max_label;`).

use remo_core::{AlgoCtx, Algorithm, VertexId};

/// Max-label propagation: connected components by max id, labels offset
/// by one so the lattice bottom `0` reads "unlabelled". The max join is
/// idempotent under duplicated delivery, which is exactly what WAL replay
/// provides (at-least-once), so a recovered run must land on the same
/// fixpoint byte for byte. And because `on_add` always pushes the local
/// label across a new edge, the fixpoint does not depend on event
/// interleaving. Multi-hop cascades with real fan-out exercise dominance
/// and suppression.
pub struct MaxLabel;

impl MaxLabel {
    fn absorb(ctx: &mut impl AlgoCtx<u64>, cand: u64) {
        let changed = ctx.apply(|s| {
            if cand > *s {
                *s = cand;
                true
            } else {
                false
            }
        });
        if changed {
            let label = *ctx.state();
            ctx.update_nbrs(&label);
        }
    }
}

impl Algorithm for MaxLabel {
    type State = u64;
    type Edge = ();
    fn on_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, _val: &u64, _w: u64) {
        let cand = (ctx.vertex() + 1).max(visitor + 1);
        Self::absorb(ctx, cand);
        // A new edge must carry my label to the other endpoint even when
        // nothing changed here — otherwise the fixpoint depends on edge
        // arrival order and the byte-identical assertions are vacuous.
        let label = *ctx.state();
        ctx.update_single_nbr(visitor, &label);
    }
    fn on_reverse_add(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, _w: u64) {
        let cand = (ctx.vertex() + 1).max(visitor + 1).max(*value);
        Self::absorb(ctx, cand);
        let label = *ctx.state();
        ctx.update_single_nbr(visitor, &label);
    }
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, _visitor: VertexId, value: &u64, _w: u64) {
        Self::absorb(ctx, *value);
    }
    fn absorbs(live: &u64, incoming: &u64) -> bool {
        incoming <= live
    }
}
