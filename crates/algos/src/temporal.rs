//! Incremental temporal reachability (earliest arrival) — a REMO algorithm
//! for *timestamped* streams, beyond the paper's four.
//!
//! Interpret each edge's weight as a timestamp: "u and v interacted at time
//! τ". Information starting at the source at time 0 spreads along
//! time-respecting paths — it can cross an interaction at time τ only if it
//! arrived at the endpoint no later than τ. The vertex state is the
//! *earliest arrival time* of information from the source; adding
//! interactions can only make arrival earlier or equal, never later, so the
//! state is monotone decreasing with a lower bound — exactly the §II-B
//! recipe. This is the natural "rumour/contagion reach" query on the social
//! and financial streams the paper's introduction motivates.
//!
//! Arrival convention: the source has arrival 0; a vertex reached via an
//! interaction at time τ has arrival τ; unreached vertices hold
//! `u64::MAX`. The fresh-vertex bottom `0` is disambiguated by context (a
//! non-source vertex becomes `UNREACHED` on its add event, as in the
//! paper's Algorithm 4/5 pattern).

use remo_core::{AlgoCtx, Algorithm, VertexId, Weight};

/// Arrival time of unreached vertices.
pub const UNREACHED: u64 = u64::MAX;

/// Sentinel stored at the source (arrival "before everything"). 1 rather
/// than 0 so the fresh-vertex `0` bottom stays unambiguous; timestamps in
/// streams must therefore be `>= 2`.
pub const SOURCE_ARRIVAL: u64 = 1;

/// Incremental earliest-arrival reachability. Initiate the source with
/// [`remo_core::Engine::try_init_vertex`]; ingest edges whose weights are
/// interaction timestamps (`>= 2`).
#[derive(Debug, Default, Clone, Copy)]
pub struct IncTemporal;

#[inline]
fn effective(a: u64) -> u64 {
    if a == 0 {
        UNREACHED
    } else {
        a
    }
}

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

impl Algorithm for IncTemporal {
    type State = u64;
    type Edge = Weight;

    fn init(&self, ctx: &mut impl AlgoCtx<u64>) {
        if ctx.apply(lower_to(SOURCE_ARRIVAL)) {
            ctx.update_nbrs(&SOURCE_ARRIVAL);
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

    /// Time-respecting relaxation: the interaction at time `w` carries
    /// information from whichever endpoint had it by then.
    fn on_update(&self, ctx: &mut impl AlgoCtx<u64>, visitor: VertexId, value: &u64, w: Weight) {
        let mine = effective(*ctx.state());
        let theirs = effective(*value);
        // They can improve through this interaction if we arrived by `w`.
        if mine <= w && theirs > w {
            let s = *ctx.state();
            ctx.update_single_nbr(visitor, &s);
        }
        // We can improve if they arrived by `w`. When our arrival changes,
        // some incident interactions may now be usable; re-examine all
        // neighbours.
        else if theirs <= w && mine > w && ctx.apply(lower_to(w)) {
            let s = *ctx.state();
            ctx.update_nbrs(&s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remo_core::{Engine, EngineConfig};

    fn run(edges: &[(u64, u64, u64)], source: u64, shards: usize) -> Vec<(u64, u64)> {
        let engine = Engine::new(IncTemporal, EngineConfig::undirected(shards));
        engine.try_init_vertex(source).unwrap();
        engine.try_ingest_weighted(edges).unwrap();
        engine.try_finish().unwrap().states.into_vec()
    }

    fn get(states: &[(u64, u64)], v: u64) -> Option<u64> {
        states.iter().find(|&&(id, _)| id == v).map(|&(_, s)| s)
    }

    #[test]
    fn time_respecting_chain() {
        // 0 -(t=5)- 1 -(t=9)- 2: reachable; arrival times are the
        // interaction timestamps.
        let states = run(&[(0, 1, 5), (1, 2, 9)], 0, 2);
        assert_eq!(get(&states, 0), Some(SOURCE_ARRIVAL));
        assert_eq!(get(&states, 1), Some(5));
        assert_eq!(get(&states, 2), Some(9));
    }

    #[test]
    fn time_violating_chain_blocks() {
        // 0 -(t=9)- 1 -(t=5)- 2: information reaches 1 at 9, but the 1-2
        // interaction happened at 5 — too early to carry it.
        let states = run(&[(0, 1, 9), (1, 2, 5)], 0, 2);
        assert_eq!(get(&states, 1), Some(9));
        assert_eq!(get(&states, 2), Some(UNREACHED));
    }

    #[test]
    fn earlier_alternative_wins() {
        // Two routes to 2: via 1 (arrival 20) and direct at 7.
        let states = run(&[(0, 1, 3), (1, 2, 20), (0, 2, 7)], 0, 2);
        assert_eq!(get(&states, 2), Some(7));
    }

    #[test]
    fn late_early_edge_unlocks_downstream() {
        // After an early interaction appears, a previously time-blocked
        // path becomes traversable — the incremental repair case.
        let engine = Engine::new(IncTemporal, EngineConfig::undirected(2));
        engine.try_init_vertex(0).unwrap();
        engine.try_ingest_weighted(&[(0, 1, 9), (1, 2, 5)]).unwrap();
        engine.try_await_quiescence().unwrap();
        assert_eq!(engine.try_local_state(2).unwrap(), Some(UNREACHED));
        engine.try_ingest_weighted(&[(0, 1, 2)]).unwrap(); // earlier interaction surfaces
        let states = engine.try_finish().unwrap().states;
        assert_eq!(states.get(1), Some(&2));
        assert_eq!(states.get(2), Some(&5), "1-2 at t=5 is now usable");
    }

    #[test]
    fn order_of_ingestion_is_irrelevant() {
        let edges = vec![
            (0u64, 1u64, 4u64),
            (1, 2, 6),
            (2, 3, 8),
            (0, 3, 30),
            (3, 4, 31),
        ];
        let a = run(&edges, 0, 3);
        let mut rev = edges.clone();
        rev.reverse();
        let b = run(&rev, 0, 3);
        assert_eq!(a, b);
    }
}
