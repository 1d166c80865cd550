//! The four workloads: seeded generators and the plan each one runs.
//!
//! A plan is an edge stream cut into *units* — a wave, a cascade or a
//! micro-batch: what one ingest call carries — grouped into *steps*, each
//! either closed loop (the next unit goes in when the previous one is at
//! fixpoint) or open loop at a fixed rate. The engine sees only the edges.

use std::ops::Range;

use remo_core::{Algorithm, Engine, EngineError, VertexId};
use remo_gen::RmatConfig;
use remo_store::hash::mix64;

/// Sizes of a run. `Full` is what `BENCHMARK.json` measures; `Smoke` is the
/// same code on inputs small enough for a debug-build test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

/// Frozen sizes and rates (calibration record: see the README).
struct Sizes {
    /// log2 vertices of the RMAT streams, edge factor 16.
    rmat_scale: u32,
    /// Updates per wave of a bulk stream.
    wave: usize,
    /// Disjoint paths per repetition, and vertices per path.
    chain_paths: usize,
    chain_len: usize,
    /// Closed-loop micro-batches that open `rmat_bfs_online`: the
    /// saturation rate the three offered rates are fractions of.
    saturation_batches: usize,
    /// Seconds each open-loop rate is offered for.
    step_secs: f64,
    /// Offered rates, updates/s: 10 %, 40 % and 80 % of the measured
    /// closed-loop saturation rate, to two significant figures.
    rates: [f64; 3],
    /// An open-loop step is sustainable when its p99 due-time → fixpoint
    /// latency is within this many microseconds (4 × a typical p99 at `lo`,
    /// to one significant figure).
    fresh_limit_us: f64,
}

const FULL: Sizes = Sizes {
    rmat_scale: 16,
    wave: 16_384,
    chain_paths: 128,
    chain_len: 1024,
    saturation_batches: 2048,
    step_secs: 1.25,
    rates: [10_000.0, 40_000.0, 80_000.0],
    fresh_limit_us: 30_000.0,
};

const SMOKE: Sizes = Sizes {
    rmat_scale: 9,
    wave: 1024,
    chain_paths: 4,
    chain_len: 64,
    saturation_batches: 16,
    step_secs: 0.05,
    rates: [3_200.0, 6_400.0, 12_800.0],
    fresh_limit_us: 50_000.0,
};

/// Updates per open-loop micro-batch.
pub const BATCH: usize = 32;

/// Which REMO algorithm a plan runs; all three keep a `u64` per vertex.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    Bfs,
    Sssp,
    Cc,
}

/// The edge stream, in the shape the engine's ingest call wants.
pub enum Edges {
    Pairs(Vec<(VertexId, VertexId)>),
    Weighted(Vec<(VertexId, VertexId, u64)>),
}

impl Edges {
    pub fn len(&self) -> usize {
        match self {
            Edges::Pairs(e) => e.len(),
            Edges::Weighted(e) => e.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Edge `i` as `(src, dst, weight)`; unweighted edges weigh 1.
    pub fn get(&self, i: usize) -> (VertexId, VertexId, u64) {
        match self {
            Edges::Pairs(e) => (e[i].0, e[i].1, 1),
            Edges::Weighted(e) => e[i],
        }
    }

    pub fn iter(&self, r: Range<usize>) -> impl Iterator<Item = (VertexId, VertexId, u64)> + '_ {
        r.map(move |i| self.get(i))
    }

    /// One ingest call carrying `edges[r]`.
    pub fn ingest<A: Algorithm>(
        &self,
        engine: &Engine<A>,
        r: Range<usize>,
    ) -> Result<(), EngineError> {
        match self {
            Edges::Pairs(e) => engine.try_ingest_pairs(&e[r]),
            Edges::Weighted(e) => engine.try_ingest_weighted(&e[r]),
        }
    }
}

/// What one ingest call carries.
pub struct Unit {
    pub edges: Range<usize>,
    /// Strictly sequential hops the unit's cascade makes: the path length
    /// on the chain, 0 (not known) elsewhere.
    pub hops: u64,
}

/// A run of units under one pacing rule.
pub struct Step {
    /// Offered updates/s; `None` is closed loop with one client.
    pub rate: Option<f64>,
    pub units: Range<usize>,
}

pub struct Plan {
    pub algo: Algo,
    pub source: Option<VertexId>,
    pub edges: Edges,
    /// `edges[..preload]` go in during set-up, before the timed region.
    pub preload: usize,
    pub units: Vec<Unit>,
    pub steps: Vec<Step>,
    /// The step whose freshness quantiles are the end-to-end ones.
    pub headline: usize,
    /// Latency limit of the sustainable-rate verdict (open-loop plans).
    pub fresh_limit_us: Option<f64>,
}

impl Plan {
    /// Edges the engine has seen when the run ends.
    pub fn consumed(&self) -> usize {
        self.units.last().map_or(self.preload, |u| u.edges.end)
    }
}

/// Builds the named workload's plan from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Plan> {
    let sizes = if scale == Scale::Full { &FULL } else { &SMOKE };
    match name {
        "rmat_sssp_bulk" => Some(rmat_bulk(seed, sizes, Algo::Sssp)),
        "rmat_cc_bulk" => Some(rmat_bulk(seed, sizes, Algo::Cc)),
        "chain_bfs_cascade" => Some(chain(seed, sizes)),
        "rmat_bfs_online" => Some(online(seed, sizes)),
        _ => None,
    }
}

fn rmat(seed: u64, scale: u32) -> Vec<(VertexId, VertexId)> {
    remo_gen::rmat::generate(&RmatConfig {
        seed,
        ..RmatConfig::graph500(scale)
    })
}

/// The highest-degree vertex: a source inside the giant component whatever
/// the seed, so every seed's traversal covers it.
fn hub(pairs: &[(VertexId, VertexId)], vertices: usize) -> VertexId {
    let mut degree = vec![0u32; vertices];
    for &(s, d) in pairs {
        degree[s as usize] += 1;
        degree[d as usize] += 1;
    }
    let (v, _) = degree
        .iter()
        .enumerate()
        .max_by_key(|&(v, &d)| (d, std::cmp::Reverse(v)))
        .unwrap_or((0, &0));
    v as VertexId
}

/// Weight in 1..=16 from the unordered endpoints and the seed, so duplicate
/// and reversed occurrences of an edge agree.
fn weight(s: VertexId, d: VertexId, seed: u64) -> u64 {
    mix64(mix64(s.min(d) ^ seed) ^ s.max(d)) % 16 + 1
}

fn closed(units: Range<usize>) -> Step {
    Step { rate: None, units }
}

/// The whole stream, as generated, in waves; nothing is preloaded.
fn rmat_bulk(seed: u64, sizes: &Sizes, algo: Algo) -> Plan {
    let pairs = rmat(seed, sizes.rmat_scale);
    let source = (algo != Algo::Cc).then(|| hub(&pairs, 1 << sizes.rmat_scale));
    let units: Vec<Unit> = (0..pairs.len())
        .step_by(sizes.wave)
        .map(|lo| Unit {
            edges: lo..(lo + sizes.wave).min(pairs.len()),
            hops: 0,
        })
        .collect();
    let edges = if algo == Algo::Sssp {
        Edges::Weighted(
            pairs
                .iter()
                .map(|&(s, d)| (s, d, weight(s, d, seed)))
                .collect(),
        )
    } else {
        Edges::Pairs(pairs)
    };
    Plan {
        algo,
        source,
        edges,
        preload: 0,
        steps: vec![closed(0..units.len())],
        units,
        headline: 0,
        fresh_limit_us: None,
    }
}

/// A seeded bijection on `bits`-bit ids (odd multiply, xorshift and add are
/// each invertible), so path neighbours get unrelated ids and owners.
fn scatter(v: u64, seed: u64, bits: u32) -> u64 {
    let mask = (1u64 << bits) - 1;
    let mut x = v & mask;
    for round in 0..3 {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask;
        x ^= x >> (bits / 2).max(1);
        x = x.wrapping_add(mix64(seed ^ round)) & mask;
    }
    x
}

fn chain(seed: u64, sizes: &Sizes) -> Plan {
    let (paths, len) = (sizes.chain_paths, sizes.chain_len);
    let bits = ((paths * len + 1) as u64)
        .next_power_of_two()
        .trailing_zeros()
        .max(2);
    let id = |k: usize| scatter(k as u64, seed, bits);
    let root = id(0);
    let vertex = |p: usize, i: usize| id(1 + p * len + i);
    let mut pairs = Vec::with_capacity(paths * len);
    for p in 0..paths {
        pairs.extend((0..len - 1).map(|i| (vertex(p, i), vertex(p, i + 1))));
    }
    let preload = pairs.len();
    pairs.extend((0..paths).map(|p| (root, vertex(p, 0))));
    let units: Vec<Unit> = (0..paths)
        .map(|p| Unit {
            edges: preload + p..preload + p + 1,
            hops: len as u64,
        })
        .collect();
    Plan {
        algo: Algo::Bfs,
        source: Some(root),
        edges: Edges::Pairs(pairs),
        preload,
        steps: vec![closed(0..units.len())],
        units,
        headline: 0,
        fresh_limit_us: None,
    }
}

fn online(seed: u64, sizes: &Sizes) -> Plan {
    let pairs = rmat(seed, sizes.rmat_scale);
    let source = hub(&pairs, 1 << sizes.rmat_scale);
    let preload = pairs.len() / 2;
    let mut units = Vec::new();
    let mut batches = |n: usize| {
        let first = units.len();
        units.extend((first..first + n).map(|b| Unit {
            edges: preload + b * BATCH..preload + (b + 1) * BATCH,
            hops: 0,
        }));
        first..first + n
    };
    // The saturation step, then `lo`, `mid` and `hi`.
    let mut steps = vec![closed(batches(sizes.saturation_batches))];
    for rate in sizes.rates {
        steps.push(Step {
            rate: Some(rate),
            units: batches((rate * sizes.step_secs / BATCH as f64).floor() as usize),
        });
    }
    assert!(
        units.last().is_some_and(|u| u.edges.end <= pairs.len()),
        "the second half of the stream must cover every step"
    );
    Plan {
        algo: Algo::Bfs,
        source: Some(source),
        edges: Edges::Pairs(pairs),
        preload,
        units,
        steps,
        headline: 2,
        fresh_limit_us: Some(sizes.fresh_limit_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        for (name, _) in crate::metrics::WORKLOADS {
            let a = build(name, 3, Scale::Smoke).unwrap();
            let b = build(name, 3, Scale::Smoke).unwrap();
            let c = build(name, 4, Scale::Smoke).unwrap();
            let all = |p: &Plan| p.edges.iter(0..p.edges.len()).collect::<Vec<_>>();
            assert_eq!(all(&a), all(&b), "{name}");
            assert_ne!(all(&a), all(&c), "{name}");
            assert_eq!(a.source, b.source);
        }
        assert!(build("nope", 1, Scale::Smoke).is_none());
    }

    #[test]
    fn units_tile_the_stream_after_the_preload() {
        for (name, _) in crate::metrics::WORKLOADS {
            let p = build(name, 9, Scale::Smoke).unwrap();
            let mut at = p.preload;
            for u in &p.units {
                assert_eq!(u.edges.start, at, "{name}");
                assert!(u.edges.end > at);
                at = u.edges.end;
            }
            assert_eq!(at, p.consumed());
            assert!(at <= p.edges.len());
            let covered: usize = p.steps.iter().map(|s| s.units.len()).sum();
            assert_eq!(covered, p.units.len());
        }
    }

    #[test]
    fn chain_paths_are_disjoint_and_scattered() {
        let p = build("chain_bfs_cascade", 5, Scale::Smoke).unwrap();
        let mut seen = HashSet::new();
        for (s, d, _) in p.edges.iter(0..p.preload) {
            seen.insert(s);
            seen.insert(d);
        }
        assert_eq!(
            seen.len(),
            SMOKE.chain_paths * SMOKE.chain_len,
            "scatter must be a bijection"
        );
        assert!(!seen.contains(&p.source.unwrap()));
    }

    #[test]
    fn weights_are_symmetric_and_in_range() {
        for (s, d) in [(1u64, 2u64), (7, 3), (0, 0)] {
            let w = weight(s, d, 11);
            assert_eq!(w, weight(d, s, 11));
            assert!((1..=16).contains(&w));
        }
    }
}
