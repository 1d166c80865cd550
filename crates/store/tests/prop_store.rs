//! Property-based tests for the storage layer: the intern table and the
//! indexed adjacency must behave exactly like their obvious model
//! implementations under arbitrary operation sequences.

use proptest::prelude::*;
use remo_store::adjacency::{Adjacency, EdgeData, PROMOTE_BYTES};
use remo_store::bitset::BitSet;
use remo_store::csr::Csr;
use remo_store::dense::{InternTable, LocalIdx};
use remo_store::hash::mix64;
use remo_store::Weight;
use std::collections::{BTreeMap, BTreeSet, HashMap};

#[derive(Debug, Clone)]
enum InternOp {
    Intern(u64),
    Lookup(u64),
}

/// Inverse of [`mix64`]: the id whose hash is `h`, so a test can choose
/// where an id lands in an index.
fn unmix64(mut h: u64) -> u64 {
    // Newton's iteration doubles the correct low bits of an odd number's
    // inverse mod 2^64; `c` itself is its inverse mod 8.
    fn inverse(c: u64) -> u64 {
        let mut x = c;
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)));
        }
        x
    }
    h ^= h >> 31 ^ h >> 62;
    h = h.wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
    h ^= h >> 27 ^ h >> 54;
    h = h.wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9));
    h ^= h >> 30 ^ h >> 60;
    h
}

/// The `j`-th of ids whose hashes agree on their low 10 bits and their
/// high half, so in any index of up to 1 024 slots they share the last slot
/// as home and their tag.
fn collider(j: u64) -> u64 {
    unmix64(0xdead_beef << 32 | j << 10 | 0x3ff)
}

/// Ids for [`InternOp`]s: a small pool, so most ops repeat an id;
/// [`collider`]s, which only the key check in `ids` tells apart while their
/// probe wraps around to slot 0; ids that share that home under distinct
/// tags; and fresh ids, which make the index double past the pool's size.
fn intern_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..64,
        2 => (0u64..24).prop_map(collider),
        1 => (0u64..24).prop_map(|j| unmix64(j << 56 | 0x3ff)),
        1 => any::<u64>(),
    ]
}

/// The premise of [`intern_id`]'s colliding ids, checked at every index
/// size they are built for.
#[test]
fn colliding_ids_share_home_and_tag() {
    let hashes: Vec<u64> = (0u64..24).map(|j| mix64(collider(j))).collect();
    for bits in 4..=10 {
        let mask = (1u64 << bits) - 1;
        assert!(hashes.iter().all(|&h| h & mask == mask));
        assert!(hashes
            .iter()
            .all(|&h| h >> (32 + bits) == hashes[0] >> (32 + bits)));
    }
    for h in [0, 1, 0x3ff, u64::MAX, 23 << 56 | 0x3ff] {
        assert_eq!(mix64(unmix64(h)), h);
    }
}

fn intern_op() -> impl Strategy<Value = InternOp> {
    prop_oneof![
        3 => intern_id().prop_map(InternOp::Intern),
        1 => intern_id().prop_map(InternOp::Lookup),
    ]
}

/// Phases of adjacency operations for [`check_adjacency`]: a run is a few
/// phases, each biased one way so the degree actually travels: *grow* draws
/// keys from the whole 4 096-id domain (mostly fresh, so inserts append,
/// the index comes once the ids pass 1 KiB and doubles each time the
/// degree passes 3/4 of its slots), *drain* aims every op at a live key
/// and makes most of them removals, *mixed* does half of each, and
/// *churn* keeps to five ids, so the degree moves between 0 and 5, in and
/// out of the header's inline entries while no slab has been needed yet.
/// Weights are 1..=255, which a byte holds. In every phase one fresh id in
/// 128 is past `u32::MAX`, one weight in 128 is past it too, and one in
/// 128 is 256..=510, past a byte, so the vertex widens inline, in a slab
/// or indexed, wherever the first one arrives, and one of byte entries
/// goes narrow first or straight to wide.
type Phases = Vec<(u8, Vec<(u8, u64, u64)>)>;

fn adjacency_phases() -> impl Strategy<Value = Phases> {
    proptest::collection::vec(
        (
            0u8..4,
            proptest::collection::vec((0u8..100, any::<u64>(), 1u64..256), 0..700),
        ),
        1..8,
    )
}

/// How a payload's entries are laid out at each tier — byte, narrow,
/// wide: the bytes of an entry and the entries the header holds. An id
/// takes [`ID_BYTES`] whatever the payload.
#[derive(Clone, Copy)]
struct Widths {
    entry: [usize; 3],
    inline: [usize; 3],
}

/// [`Weight`]: three 5-byte byte entries in the header, two 8-byte narrow
/// ones or one 16-byte wide one.
const WEIGHT: Widths = Widths {
    entry: [5, 8, 16],
    inline: [3, 2, 1],
};

/// `()`: four 4-byte narrow entries in the header, or two 8-byte wide
/// ones. It has no byte width: its weight always reads 1, so it never
/// leaves tier 0 but for wide, and tier 0 is its narrow width.
const UNIT: Widths = Widths {
    entry: [4, 4, 8],
    inline: [4, 4, 2],
};

/// Bytes of a neighbour id at each tier: what [`PROMOTE_BYTES`] counts.
const ID_BYTES: [usize; 3] = [4, 4, 8];

/// The tier an entry of neighbour `n` and weight `w` needs: 0 while the
/// weight fits in a byte, 1 while both fit in a `u32`, 2 after.
fn tier(n: u64, w: u64) -> usize {
    if n > u64::from(u32::MAX) || w > u64::from(u32::MAX) {
        2
    } else {
        usize::from(w > 255)
    }
}

/// The vertex's storage as the model predicts it from the ops alone.
#[derive(Default)]
struct Storage {
    /// The widest [`tier`] of any entry inserted.
    tier: usize,
    /// Entries of the first slab (0 while the entries are inline).
    first_slab: usize,
    /// Largest degree since the vertex was built.
    peak: usize,
    /// Degree after the last op.
    degree: usize,
    /// Slots of the position index (0 while there is none).
    index: usize,
}

impl Storage {
    /// Records an op that left `degree` entries and that inserted an
    /// entry of [`tier`] `tier`: the vertex takes its first slab, of twice
    /// the inline entries and at least four, when the degree outgrows the
    /// header at the width it now has. An op that added an entry builds the
    /// index once the ids pass [`PROMOTE_BYTES`] at that width (after any
    /// widening the op made), whatever the payload, sized to the next power
    /// of two of 4/3 of the degree, and doubles an index the degree has
    /// filled past 3/4.
    fn record(&mut self, degree: usize, tier: usize, w: Widths) {
        self.tier = self.tier.max(tier);
        self.peak = self.peak.max(degree);
        let inline = w.inline[self.tier];
        if self.first_slab == 0 && degree > inline {
            self.first_slab = (2 * inline).max(4);
        }
        let added = degree > self.degree;
        self.degree = degree;
        let bytes = degree * ID_BYTES[self.tier];
        if added && self.index == 0 && bytes > PROMOTE_BYTES {
            self.index = (degree * 4).div_ceil(3).next_power_of_two();
        } else if added && self.index != 0 && degree * 4 > self.index * 3 {
            self.index *= 2;
        }
    }

    /// The vertex's heap bytes: a slab grown from the first (doubling to
    /// 64 entries, then by an eighth) until it held the peak degree, at
    /// the recorded width — its ids and its payload words alike — plus the
    /// index in `u16` slots.
    fn heap_bytes(&self, w: Widths) -> usize {
        if self.first_slab == 0 {
            return 0;
        }
        let mut cap = self.first_slab;
        while cap < self.peak {
            cap = if cap < 64 { 2 * cap } else { cap + cap / 8 };
        }
        cap * w.entry[self.tier] + 2 * self.index
    }
}

/// Runs `phases` against an `Adjacency<E>` and a model that knows only
/// whether the payload keeps a weight (`weighted`) and its [`Widths`]: an
/// unkept weight reads as 1, a re-add keeps the minimum weight only where
/// one is kept, and the vertex owns exactly the heap bytes [`Storage`]
/// predicts — at the width set by the widest id or weight it was handed,
/// and re-derived from the live entries by a clone.
fn check_adjacency<E: EdgeData>(
    phases: Phases,
    weighted: bool,
    widths: Widths,
) -> Result<(), TestCaseError> {
    const DOMAIN: u64 = 4096;
    const GROW: u8 = 0;
    const DRAIN: u8 = 1;
    const CHURN: u8 = 3;
    const PAST_U32: u64 = 1 << 32;
    const PAST_BYTE: u64 = 255;
    // Cumulative percentages per phase: insert, insert_weight_min,
    // remove, get (the rest, 1 %, is a clone).
    const MIX: [[u8; 4]; 4] = [
        [40, 80, 84, 99],
        [3, 6, 86, 99],
        [20, 40, 60, 99],
        [25, 50, 80, 99],
    ];
    let kept_weight = |w: u64| if weighted { w } else { 1 };
    let mut adj: Adjacency<E> = Adjacency::new();
    // neighbour -> weight, as the payload reports it
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    // The neighbours in the order `iter()` must yield them: appended when
    // new, and a removal moves the last one into the hole (`swap_remove`).
    let mut order: Vec<u64> = Vec::new();
    let mut storage = Storage::default();
    for (bias, ops) in phases {
        for (sel, pick, weight) in ops {
            let live = match bias {
                GROW | CHURN => false,
                DRAIN => true,
                _ => pick & 1 == 1,
            };
            let nbr = if live && !model.is_empty() {
                let k = (pick >> 1) as usize % model.len();
                *model.keys().nth(k).unwrap()
            } else {
                let past = if pick >> 57 == 0 { PAST_U32 } else { 0 };
                past + (pick >> 1) % if bias == CHURN { 5 } else { DOMAIN }
            };
            let weight = weight
                + match pick >> 57 {
                    1 => PAST_U32,
                    2 => PAST_BYTE,
                    _ => 0,
                };
            let mix = MIX[bias as usize];
            let data = E::new(weight);
            let stored = kept_weight(weight);
            let mut widens = 0;
            if sel < mix[0] {
                let new = adj.insert(nbr, data);
                prop_assert_eq!(new, model.insert(nbr, stored).is_none());
                if new {
                    order.push(nbr);
                }
                widens = tier(nbr, stored);
            } else if sel < mix[1] {
                let new = adj.insert_weight_min(nbr, data);
                let kept = model.get(&nbr).map_or(stored, |&w| w.min(stored));
                prop_assert_eq!(new, model.insert(nbr, kept).is_none());
                if new {
                    order.push(nbr);
                }
                widens = tier(nbr, stored);
            } else if sel < mix[2] {
                let removed = adj.remove(nbr).map(|e| e.weight());
                prop_assert_eq!(removed, model.remove(&nbr));
                if let Some(pos) = order.iter().position(|&n| n == nbr) {
                    order.swap_remove(pos);
                }
            } else if sel < mix[3] {
                let got = adj.get(nbr).map(|e| e.weight());
                prop_assert_eq!(got, model.get(&nbr).copied());
            } else {
                // A clone holds the same entries in the same order, in
                // storage rebuilt by inserting them one by one.
                let copy = adj.clone();
                prop_assert!(copy.iter().eq(adj.iter()));
                adj = copy;
                storage = Storage::default();
                for (i, n) in order.iter().enumerate() {
                    storage.record(i + 1, tier(*n, model[n]), widths);
                }
            }

            prop_assert_eq!(adj.degree(), model.len());
            storage.record(adj.degree(), widens, widths);
            prop_assert_eq!(adj.is_promoted(), storage.index != 0);
            prop_assert_eq!(
                adj.heap_bytes(),
                storage.heap_bytes(widths),
                "peak {}, tier {}, index {}",
                storage.peak,
                storage.tier,
                storage.index
            );
            // `iter()` yields every live neighbour once, with its payload,
            // in the order the model kept.
            let got: Vec<(u64, u64)> = adj.iter().map(|(n, e)| (n, e.weight())).collect();
            let want: Vec<(u64, u64)> = order.iter().map(|&n| (n, model[&n])).collect();
            prop_assert_eq!(got, want);
        }
    }
    for (&n, &w) in &model {
        prop_assert_eq!(adj.get(n).map(|e| e.weight()), Some(w));
    }
    Ok(())
}

/// One grow phase that crosses 1 KiB of ids by widening, for each payload:
/// `narrow` narrow ids of byte weights (at most 1 KiB of them), a re-add of
/// a live edge with a weight past a byte (which makes a payload that keeps
/// the weight narrow, with ids as wide as before), a re-add with a weight
/// past `u32::MAX` (which widens it past 1 KiB of ids without adding an
/// entry, so without an index), a new id past `u32::MAX` (which widens
/// `()` and adds the entry that builds the index), then 20 more narrow
/// ids. The model predicts `is_promoted()` and `heap_bytes()` after each
/// op.
#[test]
fn widening_across_a_kilobyte_matches_the_model() {
    /// A grow-phase insert of id `n` below 4 096 whose `pick` has `top` in
    /// its top bits: 0 puts the id past `u32::MAX`, 1 the weight, 2 puts
    /// the weight past a byte, and 3 neither.
    fn insert(n: u64, top: u64) -> (u8, u64, u64) {
        (0, top << 57 | n << 1, 5)
    }
    fn phases(narrow: u64) -> Phases {
        let mut ops: Vec<_> = (0..narrow).map(|n| insert(n, 3)).collect();
        ops.push(insert(7, 2));
        ops.push(insert(3, 1));
        ops.push(insert(narrow, 0));
        ops.extend((narrow + 1..narrow + 21).map(|n| insert(n, 3)));
        vec![(0, ops)]
    }
    check_adjacency::<Weight>(phases(200), true, WEIGHT).unwrap();
    check_adjacency::<()>(phases(200), false, UNIT).unwrap();
}

proptest! {
    /// The intern table agrees with a `HashMap` + `Vec` model: a new id
    /// takes the next dense index, a known one keeps its index across every
    /// doubling of the index, and `ids()` is the first-intern order, for a
    /// table started empty or pre-sized (which then never reallocates
    /// within its capacity).
    #[test]
    fn intern_matches_model(
        capacity in prop_oneof![1 => Just(None), 1 => (0usize..300).prop_map(Some)],
        ops in proptest::collection::vec(intern_op(), 0..400),
    ) {
        let mut table = capacity.map_or_else(InternTable::new, InternTable::with_capacity);
        let mut model: HashMap<u64, LocalIdx> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut bytes = table.heap_bytes();
        for op in ops {
            match op {
                InternOp::Intern(v) => {
                    let (idx, new) = table.intern(v);
                    let want = match model.get(&v) {
                        Some(&idx) => (idx, false),
                        None => {
                            model.insert(v, order.len() as LocalIdx);
                            order.push(v);
                            (order.len() as LocalIdx - 1, true)
                        }
                    };
                    prop_assert_eq!((idx, new), want, "intern({})", v);
                    prop_assert_eq!(table.id(idx), v);
                }
                InternOp::Lookup(v) => {
                    prop_assert_eq!(table.lookup(v), model.get(&v).copied(), "lookup({})", v);
                }
            }
            prop_assert_eq!(table.len(), order.len());
            if table.heap_bytes() != bytes {
                prop_assert!(
                    capacity.is_none_or(|c| order.len() > c),
                    "{} ids reallocated a table pre-sized for {:?}",
                    order.len(),
                    capacity
                );
                bytes = table.heap_bytes();
                for (&v, &idx) in &model {
                    prop_assert_eq!(table.lookup(v), Some(idx), "lookup({}) after a doubling", v);
                }
            }
        }
        prop_assert_eq!(table.ids(), &order[..]);
        for (idx, &v) in order.iter().enumerate() {
            prop_assert_eq!(table.lookup(v), Some(idx as LocalIdx));
            prop_assert_eq!(table.id(idx as LocalIdx), v);
        }
    }

    /// Adjacency (inline entries, edge slab, position index, byte, narrow
    /// and wide entries) agrees with a BTreeMap model and its ordered
    /// mirror through every entry point, across index growths, each
    /// widening, a drain back below the promotion threshold and the
    /// regrowth after it — with the weight payload: the minimum weight is
    /// kept, and the header holds three 5-byte byte entries, two 8-byte
    /// narrow ones or one 16-byte wide one.
    #[test]
    fn adjacency_matches_model_weight(phases in adjacency_phases()) {
        check_adjacency::<Weight>(phases, true, WEIGHT)?;
    }

    /// The same model with the empty payload: every weight reads 1, only
    /// the neighbours are kept (so only an id widens), and the header holds
    /// four 4-byte narrow entries or two 8-byte wide ones.
    #[test]
    fn adjacency_matches_model_unit(phases in adjacency_phases()) {
        check_adjacency::<()>(phases, false, UNIT)?;
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
