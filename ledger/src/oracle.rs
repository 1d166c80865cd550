//! The correctness oracle: the incremental result must equal the static
//! baseline run from scratch on the same edge set (PAPERS.md, Liu:
//! incremental ≡ `f(x ⊕ δ)`).

use std::collections::HashMap;
use std::time::Instant;

use remo_baseline::{
    bfs_levels, build_undirected, build_undirected_weighted, components_min_label, sssp_costs,
};
use remo_core::VertexId;

use crate::trace::Tracer;
use crate::workloads::{Algo, Edges, Plan};

/// The baseline's answer and what it cost to compute.
pub struct Baseline {
    /// Level, cost or component label of every vertex id up to the largest.
    pub expected: Vec<u64>,
    pub build_ms: f64,
    pub solve_ms: f64,
}

/// Builds the CSR of every edge the run ingests and solves it statically.
pub fn baseline(plan: &Plan, tracer: &mut Tracer) -> Baseline {
    let n = plan.consumed();
    let t = Instant::now();
    let build = tracer.span("baseline.build", None, || match &plan.edges {
        Edges::Pairs(e) => build_undirected(&e[..n]),
        Edges::Weighted(e) => build_undirected_weighted(&e[..n]),
    });
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let expected = tracer.span("baseline.solve", None, || match (plan.algo, plan.source) {
        (Algo::Bfs, Some(s)) => bfs_levels(&build.csr, s),
        (Algo::Sssp, Some(s)) => sssp_costs(&build.csr, s),
        _ => components_min_label(&build.csr),
    });
    Baseline {
        expected,
        build_ms,
        solve_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

/// Checks harvested `(vertex, state)` pairs against the baseline: BFS levels
/// and SSSP costs exactly (the engine's 0 means "not reached"), components
/// as the same partition under any labelling, and exactly the vertices the
/// stream named.
pub fn verify(plan: &Plan, states: &[(VertexId, u64)], expected: &[u64]) -> Result<(), String> {
    let mut named = vec![false; expected.len()];
    let mut distinct = 0usize;
    let mut name = |v: VertexId| {
        if let Some(seen) = named.get_mut(v as usize) {
            distinct += usize::from(!std::mem::replace(seen, true));
        }
    };
    plan.source.into_iter().for_each(&mut name);
    for (s, d, _) in plan.edges.iter(0..plan.consumed()) {
        name(s);
        name(d);
    }
    if states.len() != distinct {
        return Err(format!(
            "engine holds {} vertices, the stream named {distinct}",
            states.len()
        ));
    }

    let mut to_base: HashMap<u64, u64> = HashMap::new();
    let mut to_live: HashMap<u64, u64> = HashMap::new();
    for &(v, live) in states {
        let Some(&want) = expected.get(v as usize) else {
            return Err(format!("vertex {v} is outside the stream's id range"));
        };
        let ok = match plan.algo {
            Algo::Cc => {
                *to_base.entry(live).or_insert(want) == want
                    && *to_live.entry(want).or_insert(live) == live
            }
            _ => (if live == 0 { u64::MAX } else { live }) == want,
        };
        if !ok {
            return Err(format!(
                "vertex {v}: engine says {live}, baseline says {want}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build, Scale};

    #[test]
    fn cc_partitions_match_up_to_relabelling_only() {
        let plan = build("rmat_cc_bulk", 1, Scale::Smoke).unwrap();
        let base = baseline(&plan, &mut Tracer::new());
        let mut named: Vec<u64> = plan
            .edges
            .iter(0..plan.consumed())
            .flat_map(|(s, d, _)| [s, d])
            .collect();
        named.sort_unstable();
        named.dedup();
        let relabelled: Vec<(u64, u64)> = named
            .iter()
            .map(|&v| (v, base.expected[v as usize] ^ 0xabcd))
            .collect();
        assert_eq!(verify(&plan, &relabelled, &base.expected), Ok(()));
        let mut split = relabelled.clone();
        split[0].1 = 7;
        assert!(verify(&plan, &split, &base.expected).is_err());
        assert!(verify(&plan, &relabelled[1..], &base.expected).is_err());
    }

    #[test]
    fn chain_tail_sits_one_level_per_hop_below_the_root() {
        let plan = build("chain_bfs_cascade", 1, Scale::Smoke).unwrap();
        let base = baseline(&plan, &mut Tracer::new());
        let (_, tail, _) = plan.edges.get(plan.preload / plan.units.len() - 1);
        assert_eq!(base.expected[tail as usize], plan.units[0].hops + 1);
    }
}
