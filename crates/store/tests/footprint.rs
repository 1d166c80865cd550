//! Footprint budget: bytes of store per directed edge on a scale-free
//! stream. The ledger reports the same ratio as `store.bytes_per_edge`; this
//! makes a regression fail in `cargo test` too.

use remo_store::hash::mix64;
use remo_store::{Adjacency, DenseVertexTable, EdgeMeta};

/// 2^SCALE vertex ids, EDGE_FACTOR undirected edges per id: the Graph500
/// shape the ledger's RMAT workloads use, two scales down and thinned so
/// the duplicate share comes out the same.
const SCALE: u32 = 14;
const EDGE_FACTOR: u64 = 10;

/// One edge of a seeded R-MAT stream (quadrant probabilities .57/.19/.19/.05
/// per bit, drawn from `mix64`): power-law degrees and, at this size, about
/// one insert in seven a duplicate — like the RMAT-16 stream the ledger runs.
fn skewed_edge(seed: u64, i: u64) -> (u64, u64) {
    let (mut src, mut dst) = (0u64, 0u64);
    for level in 0..SCALE as u64 {
        let (s, d) = match mix64(seed ^ mix64(i * SCALE as u64 + level)) % 100 {
            0..=56 => (0, 0),
            57..=75 => (0, 1),
            76..=94 => (1, 0),
            _ => (1, 1),
        };
        src = src << 1 | s;
        dst = dst << 1 | d;
    }
    (src, dst)
}

#[test]
fn store_stays_within_its_bytes_per_edge_budget() {
    // The dense slab record is state + this; DESIGN §11 counts on it.
    assert_eq!(std::mem::size_of::<Adjacency>(), 40);

    let mut table: DenseVertexTable<u64> = DenseVertexTable::new();
    let inserts = 2 * (EDGE_FACTOR << SCALE);
    let mut duplicates = 0u64;
    for i in 0..inserts / 2 {
        let (s, d) = skewed_edge(0x5eed, i);
        let meta = EdgeMeta::weighted(1 + i % 64);
        duplicates += u64::from(!table.insert_edge(s, d, meta));
        duplicates += u64::from(!table.insert_edge(d, s, meta));
    }
    assert!(table.num_edges() >= 200_000, "{} edges", table.num_edges());
    let dup_pct = 100 * duplicates / inserts;
    assert!(
        (10..=18).contains(&dup_pct),
        "the stream lost its shape: {dup_pct} % duplicates"
    );
    let hub = table.iter().map(|(_, _, adj)| adj.degree()).max();
    assert!(hub > Some(1000), "no hub: max degree {hub:?}");

    let per_edge = table.heap_bytes() as f64 / table.num_edges() as f64;
    assert!(
        per_edge <= 44.0,
        "{per_edge:.1} B per directed edge ({} B over {} edges)",
        table.heap_bytes(),
        table.num_edges()
    );
}
