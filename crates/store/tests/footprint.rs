//! Footprint budget: bytes of store per directed edge on a scale-free
//! stream, for each adjacency payload, with narrow entries and with wide
//! ones. The ledger reports the same ratio for a `Weight` table as
//! `store.bytes_per_edge`; this makes a regression fail in `cargo test`
//! too.

use remo_store::hash::mix64;
use remo_store::{Adjacency, DenseVertexTable, EdgeData, VertexId, Weight};

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

/// Bytes of store per directed edge once the stream, every id plus
/// `offset`, is in a table whose entries carry `E`, of weights 1..=64 plus
/// `heavier`.
fn bytes_per_edge<E: EdgeData>(offset: u64, heavier: u64) -> f64 {
    let mut table: DenseVertexTable<u64, E> = DenseVertexTable::new();
    let inserts = 2 * (EDGE_FACTOR << SCALE);
    let mut duplicates = 0u64;
    for i in 0..inserts / 2 {
        let (s, d) = skewed_edge(0x5eed, i);
        let (s, d) = (s + offset, d + offset);
        let data = E::new(1 + i % 64 + heavier);
        duplicates += u64::from(!table.insert_edge(s, d, data));
        duplicates += u64::from(!table.insert_edge(d, s, data));
    }
    assert!(table.num_edges() >= 200_000, "{} edges", table.num_edges());
    let dup_pct = 100 * duplicates / inserts;
    assert!(
        (10..=18).contains(&dup_pct),
        "the stream lost its shape: {dup_pct} % duplicates"
    );
    let hub = table.iter().map(|(_, _, adj)| adj.degree()).max();
    assert!(hub > Some(1000), "no hub: max degree {hub:?}");
    table.heap_bytes() as f64 / table.num_edges() as f64
}

/// Inline entries and bytes per entry of an `Adjacency<E>` whose ids start
/// at `first` and whose weights are `weight`, read off its first slab:
/// twice the inline entries, and at least four.
fn measured_layout<E: EdgeData>(first: VertexId, weight: Weight) -> (usize, usize) {
    let mut a: Adjacency<E> = Adjacency::new();
    let mut inline = 0;
    while a.insert(first + inline as u64, E::new(weight)) && a.heap_bytes() == 0 {
        inline += 1;
    }
    (inline, a.heap_bytes() / (2 * inline).max(4))
}

/// Entries an `Adjacency<E>` whose ids start at `first` and whose weights
/// are `weight` holds before its position index comes.
fn entries_before_the_index<E: EdgeData>(first: VertexId, weight: Weight) -> usize {
    let mut a: Adjacency<E> = Adjacency::new();
    while a.insert(first + a.degree() as u64, E::new(weight)) && !a.is_promoted() {}
    a.degree() - 1
}

/// An entry is the neighbour id plus what the payload keeps: for a weight,
/// a byte entry (a `u32` id and an 8-bit weight) while the vertex's ids
/// fit in a `u32` and its weights in a `u8`; for either payload, narrow (a
/// `u32` id and 32-bit weight) while its ids and weights fit in a `u32`,
/// wide after. The index comes past 1 KiB of ids, so at the same degree
/// for every payload and width but wide. The per-vertex header does not depend on the
/// payload: the dense slab record is state + this header, and DESIGN §11
/// counts on both.
#[test]
fn entry_layout_per_payload() {
    use std::mem::size_of;
    assert_eq!(size_of::<Adjacency<()>>(), 24);
    assert_eq!(size_of::<Adjacency<Weight>>(), 24);
    assert_eq!(DenseVertexTable::<u64, ()>::RECORD_BYTES, 32);
    assert_eq!(DenseVertexTable::<u64, Weight>::RECORD_BYTES, 32);
    // (inline entries, bytes per entry): byte, narrow, then wide.
    let wide = 1 << 32;
    assert_eq!(measured_layout::<()>(0, 2), (4, 4));
    assert_eq!(measured_layout::<()>(wide, 2), (2, 8));
    assert_eq!(measured_layout::<Weight>(0, 255), (3, 5));
    assert_eq!(measured_layout::<Weight>(0, 256), (2, 8));
    assert_eq!(measured_layout::<Weight>(0, wide), (1, 16));
    assert_eq!(measured_layout::<Weight>(wide, 2), (1, 16));
    // 256 narrow ids or 128 wide ones fill 1 KiB, whatever rides beside.
    assert_eq!(entries_before_the_index::<()>(0, 2), 256);
    assert_eq!(entries_before_the_index::<()>(wide, 2), 128);
    assert_eq!(entries_before_the_index::<Weight>(0, 255), 256);
    assert_eq!(entries_before_the_index::<Weight>(0, 256), 256);
    assert_eq!(entries_before_the_index::<Weight>(0, wide), 128);
    assert_eq!(entries_before_the_index::<Weight>(wide, 2), 128);
}

/// Each budget is the figure measured on this stream plus about 5 %:
/// 7.9 B for `()` and 9.5 B for `Weight` with byte entries, since every id
/// fits in a `u32` and every weight in a `u8`, and 12.4 B for `Weight`
/// with narrow entries, on the same stream with every weight past a byte
/// (the figure every `Weight` stream gave before byte entries came). All
/// three keep an index only past 1 KiB of ids and a slab that grows by an
/// eighth past 64 entries. The `()` and narrow figures were 8.4 and
/// 14.5 B with an index past 1 KiB of whole entries and growth by half,
/// which both budgets fail; 10.3 and 15.4 B with an index past 32 entries
/// at every width; 15.4 and 25.8 B with the wide entries every vertex kept
/// before narrow ones. Each was 0.7 B higher with the Robin Hood intern
/// table before the keyless index; with it and wide entries, 19.0 and
/// 29.3 B were measured with 4-byte adjacency index slots at every size,
/// and 20.3 and 30.8 B with the 40-byte header before the 24-byte one that
/// keeps a low-degree vertex's first 16 bytes of entries inline.
#[test]
fn store_stays_within_its_bytes_per_edge_budget() {
    for (payload, per_edge, budget) in [
        ("()", bytes_per_edge::<()>(0, 0), 8.3),
        ("Weight", bytes_per_edge::<Weight>(0, 0), 9.9),
        ("Weight, narrow", bytes_per_edge::<Weight>(0, 255), 13.1),
    ] {
        assert!(
            per_edge <= budget,
            "{payload}: {per_edge:.1} B per directed edge (budget {budget})"
        );
    }
}

/// The same stream with every id past `u32::MAX`, so every vertex keeps
/// wide entries: the budgets are the 13.4 and 22.7 B measured plus about
/// 5 % (14.5 and 25.4 B with growth by half and, for `Weight`, an index
/// past 1 KiB of whole entries; 15.4 and 25.8 B with an index past 32
/// entries), so the wide path cannot regress unseen.
#[test]
fn wide_ids_stay_within_the_wide_bytes_per_edge_budget() {
    for (payload, per_edge, budget) in [
        ("()", bytes_per_edge::<()>(1 << 32, 0), 14.1),
        ("Weight", bytes_per_edge::<Weight>(1 << 32, 0), 23.8),
    ] {
        assert!(
            per_edge <= budget,
            "{payload}: {per_edge:.1} B per directed edge (budget {budget})"
        );
    }
}

/// Bytes of store per vertex on a path of `n` vertices with scattered ids:
/// every vertex but the two ends has degree 2, the shape of the ledger's
/// `chain_bfs_cascade`. An unweighted path keeps every edge in its vertex
/// record, so no adjacency owns a heap block. The budget is the 62.9 B
/// measured plus about 5 %: 10.5 B of reverse ids and 42 B of 32-byte
/// records, each at the 131 072 entries a doubling array reaches for
/// 100 000, and 10.5 B of 4-byte intern index slots, 262 144 of them to
/// keep the load at or below 3/4 (73.4 B with the 16-byte slots of the
/// Robin Hood intern table before it, and 126.4 B with the 40-byte header
/// and a heap slab of four entries per vertex before that).
#[test]
fn path_vertices_stay_within_their_bytes_per_vertex_budget() {
    let n = 100_000u64;
    let mut table: DenseVertexTable<u64, ()> = DenseVertexTable::new();
    for i in 0..n - 1 {
        let (a, b) = (mix64(i), mix64(i + 1));
        assert!(table.insert_edge(a, b, ()));
        assert!(table.insert_edge(b, a, ()));
    }
    assert_eq!(table.num_vertices(), n as usize);
    for (v, _, adj) in table.iter() {
        assert!(adj.degree() <= 2, "vertex {v}: degree {}", adj.degree());
        assert_eq!(adj.heap_bytes(), 0, "vertex {v} left its record");
    }
    assert_eq!(table.adjacency_heap_bytes(), 0);
    let per_vertex = table.heap_bytes() as f64 / n as f64;
    assert!(
        per_vertex <= 66.0,
        "{per_vertex:.1} B per path vertex (budget 66)"
    );
}
