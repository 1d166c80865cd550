//! Property-based tests for the storage layer: the Robin Hood map and the
//! indexed adjacency must behave exactly like their obvious model
//! implementations under arbitrary operation sequences.

use proptest::prelude::*;
use remo_store::adjacency::{Adjacency, EdgeMeta, PROMOTE_DEGREE};
use remo_store::bitset::BitSet;
use remo_store::csr::Csr;
use remo_store::rhh::RhhMap;
use std::collections::{BTreeMap, BTreeSet, HashMap};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Clear,
}

fn map_op() -> impl Strategy<Value = MapOp> {
    // Keys from a small domain so inserts/removes collide often.
    let key = 0u64..64;
    prop_oneof![
        4 => (key.clone(), any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        2 => key.clone().prop_map(MapOp::Remove),
        2 => key.prop_map(MapOp::Get),
        1 => Just(MapOp::Clear),
    ]
}

proptest! {
    /// The Robin Hood map agrees with `HashMap` under arbitrary op sequences.
    #[test]
    fn rhh_matches_model(ops in proptest::collection::vec(map_op(), 0..400)) {
        let mut rhh: RhhMap<u64, u64> = RhhMap::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(rhh.insert(k, v), model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(rhh.remove(k), model.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(rhh.get(k), model.get(&k));
                }
                MapOp::Clear => {
                    rhh.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(rhh.len(), model.len());
        }
        // Final full-content comparison.
        let got: BTreeMap<u64, u64> = rhh.iter().map(|(k, v)| (k, *v)).collect();
        let want: BTreeMap<u64, u64> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// Adjacency (edge slab + position index) agrees with a BTreeMap model
    /// through every entry point, across index growths, a drain back below
    /// the promotion threshold and the regrowth after it.
    ///
    /// A run is a few phases, each biased one way so the degree actually
    /// travels: *grow* draws keys from the whole 4 096-id domain (mostly
    /// fresh, so inserts append and the index doubles 64 -> 128 -> ... as the
    /// degree passes 48, 96, 192, 384, ...), *drain* aims every op at a live
    /// key and makes most of them removals, *mixed* does half of each.
    #[test]
    fn adjacency_matches_model(
        phases in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(
                    (0u8..100, any::<u64>(), 1u64..1000, any::<u64>()),
                    0..700,
                ),
            ),
            1..8,
        )
    ) {
        const DOMAIN: u64 = 4096;
        const GROW: u8 = 0;
        const DRAIN: u8 = 1;
        // Cumulative percentages per phase: insert, insert_weight_min,
        // remove, set_cached, get (the rest is get_mut).
        const MIX: [[u8; 5]; 3] = [
            [40, 80, 84, 90, 95],
            [3, 6, 86, 91, 96],
            [20, 40, 60, 75, 90],
        ];
        let mut adj = Adjacency::new();
        // neighbour -> (weight, cached)
        let mut model: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut peak = 0usize;
        // Stamp of the last check that saw each neighbour in `iter()`.
        let mut seen = vec![0u32; DOMAIN as usize];
        let mut stamp = 0u32;
        for (bias, ops) in phases {
            for (sel, pick, weight, cached) in ops {
                let live = match bias {
                    GROW => false,
                    DRAIN => true,
                    _ => pick & 1 == 1,
                };
                let nbr = if live && !model.is_empty() {
                    let k = (pick >> 1) as usize % model.len();
                    *model.keys().nth(k).unwrap()
                } else {
                    (pick >> 1) % DOMAIN
                };
                let mix = MIX[bias as usize];
                let meta = EdgeMeta { weight, cached };
                if sel < mix[0] {
                    let new = adj.insert(nbr, meta);
                    prop_assert_eq!(new, model.insert(nbr, (weight, cached)).is_none());
                } else if sel < mix[1] {
                    let new = adj.insert_weight_min(nbr, meta);
                    let kept = model.get(&nbr).map_or(weight, |&(w, _)| w.min(weight));
                    prop_assert_eq!(new, model.insert(nbr, (kept, cached)).is_none());
                } else if sel < mix[2] {
                    let removed = adj.remove(nbr).map(|m| (m.weight, m.cached));
                    prop_assert_eq!(removed, model.remove(&nbr));
                } else if sel < mix[3] {
                    let before = adj.set_cached(nbr, cached);
                    let slot = model.get_mut(&nbr);
                    prop_assert_eq!(before, slot.as_ref().map(|s| s.1));
                    if let Some(s) = slot {
                        s.1 = cached;
                    }
                } else if sel < mix[4] {
                    let got = adj.get(nbr).map(|m| (m.weight, m.cached));
                    prop_assert_eq!(got, model.get(&nbr).copied());
                } else {
                    let slot = adj.get_mut(nbr);
                    prop_assert_eq!(slot.is_some(), model.contains_key(&nbr));
                    if let Some(m) = slot {
                        m.weight = weight;
                        model.insert(nbr, (weight, m.cached));
                    }
                }

                prop_assert_eq!(adj.degree(), model.len());
                peak = peak.max(adj.degree());
                prop_assert_eq!(adj.is_promoted(), peak > PROMOTE_DEGREE);
                // `iter()` yields each live neighbour exactly once: as many
                // items as the model has keys, each one in the model with
                // its metadata, none of them twice.
                stamp += 1;
                let mut yielded = 0usize;
                for (n, m) in adj.iter() {
                    prop_assert_eq!(Some(&(m.weight, m.cached)), model.get(&n), "neighbour {}", n);
                    prop_assert!(seen[n as usize] != stamp, "neighbour {} yielded twice", n);
                    seen[n as usize] = stamp;
                    yielded += 1;
                }
                prop_assert_eq!(yielded, model.len());
            }
        }
        for (&n, &(w, c)) in &model {
            prop_assert_eq!(adj.get(n), Some(&EdgeMeta { weight: w, cached: c }));
        }
    }

    /// BitSet agrees with a BTreeSet model, and union is the lattice join.
    #[test]
    fn bitset_matches_model(
        a in proptest::collection::btree_set(0usize..512, 0..64),
        b in proptest::collection::btree_set(0usize..512, 0..64),
    ) {
        let sa: BitSet = a.iter().copied().collect();
        let sb: BitSet = b.iter().copied().collect();
        prop_assert_eq!(sa.count(), a.len());
        for x in 0..512 {
            prop_assert_eq!(sa.contains(x), a.contains(&x));
        }
        prop_assert_eq!(sa.is_subset(&sb), a.is_subset(&b));
        let mut merged = sa.clone();
        let changed = merged.union_in_place(&sb);
        let union: BTreeSet<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(merged.iter().collect::<Vec<_>>(),
                        union.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(changed, union.len() != a.len());
        // Join is idempotent (monotone convergence relies on this).
        prop_assert!(!merged.clone().union_in_place(&sb));
    }

    /// CSR is a lossless re-encoding of any edge list.
    #[test]
    fn csr_roundtrips_edges(
        edges in proptest::collection::vec((0u64..64, 0u64..64, 1u64..1000), 0..200)
    ) {
        let g = Csr::from_weighted_edges(64, &edges);
        prop_assert_eq!(g.num_edges(), edges.len());
        let mut got: Vec<_> = g.edges().collect();
        let mut want = edges.clone();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // Degrees sum to edge count.
        let total: usize = (0..64).map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, edges.len());
    }
}
