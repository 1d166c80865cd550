//! Hashing primitives shared by the storage layer and the partitioner.
//!
//! The paper's infrastructure assigns a vertex `V` to a process via
//! `hash(V) mod P` (consistent hashing, §III-C), and the store's
//! open-addressing position indexes (the intern table's and a hub's) pick
//! a home slot and a tag from a vertex id. Both need a fast, well-mixing
//! integer hash. We use the finalizer of SplitMix64 / Murmur3's
//! 64-bit avalanche, which passes standard avalanche tests and is effectively
//! free compared to SipHash for integer keys (see the Rust Performance Book's
//! guidance on hashing integer keys).

/// A 64-bit finalizer with full avalanche: every input bit flips each output
/// bit with probability ~1/2. Deterministic across runs and platforms.
#[inline(always)]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Hash used by the vertex partitioner. Kept distinct from [`mix64`] so that
/// the partition function and the in-table hash can be re-seeded
/// independently without correlating bucket placement with shard placement.
#[inline(always)]
pub fn partition_hash(x: u64) -> u64 {
    // xor with a distinct odd constant before mixing de-correlates the two
    // hash streams.
    mix64(x ^ 0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(0), mix64(0));
        assert_eq!(mix64(12345), mix64(12345));
    }

    #[test]
    fn mix64_zero_is_not_zero_fixed_point_neighbourhood() {
        // mix64(0) == 0 (SplitMix finalizer maps 0 to 0); every other small
        // input must avalanche away from its identity.
        for i in 1u64..1000 {
            assert_ne!(mix64(i), i, "identity fixed point at {i}");
        }
    }

    #[test]
    fn mix64_spreads_low_bits() {
        // Sequential keys must not collide in their low bits (these select
        // the bucket in a power-of-two table).
        let mask = 0xfffu64;
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..1024 {
            seen.insert(mix64(i) & mask);
        }
        // With 4096 buckets and 1024 balls, expect ~890 distinct under a
        // uniform hash; require a loose lower bound.
        assert!(
            seen.len() > 700,
            "only {} distinct low-bit patterns",
            seen.len()
        );
    }

    #[test]
    fn partition_hash_differs_from_mix64() {
        let mut same = 0;
        for i in 0u64..1000 {
            if partition_hash(i) == mix64(i) {
                same += 1;
            }
        }
        assert_eq!(same, 0);
    }

    #[test]
    fn partition_hash_balances_mod_small_p() {
        // Check the consistent-hashing use: hash(V) mod P should be roughly
        // balanced for sequential vertex ids.
        for p in [2usize, 3, 7, 8] {
            let mut counts = vec![0usize; p];
            for v in 0u64..10_000 {
                counts[(partition_hash(v) % p as u64) as usize] += 1;
            }
            let min = *counts.iter().min().unwrap();
            let max = *counts.iter().max().unwrap();
            assert!(max - min < 10_000 / p, "imbalance for P={p}: {counts:?}");
        }
    }
}
