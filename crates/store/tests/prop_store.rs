//! Property-based tests for the storage layer: the Robin Hood map and the
//! degree-aware adjacency must behave exactly like their obvious model
//! implementations under arbitrary operation sequences.

use proptest::prelude::*;
use remo_store::adjacency::{Adjacency, EdgeMeta};
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

    /// Adjacency (with its compact->table promotion) agrees with a BTreeMap
    /// model, including the promotion boundary.
    #[test]
    fn adjacency_matches_model(
        ops in proptest::collection::vec(
            prop_oneof![
                4 => (0u64..128, 1u64..100).prop_map(|(n, w)| (0u8, n, w)),
                1 => (0u64..128, 0u64..1).prop_map(|(n, _)| (1u8, n, 0)),
            ],
            0..300,
        )
    ) {
        let mut adj = Adjacency::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (kind, nbr, w) in ops {
            if kind == 0 {
                let new = adj.insert(nbr, EdgeMeta::weighted(w));
                prop_assert_eq!(new, model.insert(nbr, w).is_none());
            } else {
                let removed = adj.remove(nbr);
                prop_assert_eq!(removed.map(|m| m.weight), model.remove(&nbr));
            }
            prop_assert_eq!(adj.degree(), model.len());
        }
        let got: BTreeMap<u64, u64> =
            adj.iter().map(|(n, m)| (n, m.weight)).collect();
        prop_assert_eq!(got, model);
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
