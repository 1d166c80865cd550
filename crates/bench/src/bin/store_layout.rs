//! Store layout bench: what one adjacency insert costs, and where the
//! adjacency's heap bytes go, for each edge payload.
//!
//! Feeds a seeded RMAT-16 stream (Graph500 parameters, 2^20 pairs, the
//! ledger's `rmat_*` shape) into a `DenseVertexTable<u64, ()>` and a
//! `DenseVertexTable<u64, Weight>`, each pair in both directions as the
//! engine stores an undirected edge, with the ledger's weights (1..=16
//! from the unordered endpoints). For each payload it prints the minimum
//! over seven runs of the nanoseconds per insert (the two payloads'
//! runs interleaved, so drift hits both alike), and the table's heap
//! bytes split into the vertex table (intern index, reverse ids and the
//! 32-byte records) and the adjacency's live slab entries, slab tails
//! and position indexes. The ledger's `store.insert_edge_ns` times only
//! the `Weight` table and reports its bytes as one ratio.
//!
//! Usage: `cargo run --release -p remo-bench --bin store_layout [seed]`
//! (seed 1 when none is given).

use std::time::Instant;

use remo_gen::rmat::{self, RmatConfig};
use remo_store::hash::mix64;
use remo_store::{DenseVertexTable, EdgeData, VertexId, Weight};

const SCALE: u32 = 16;
const RUNS: usize = 7;
const MIB: f64 = (1 << 20) as f64;

/// The ledger's weight of an edge: 1..=16 from the unordered endpoints and
/// the seed, so both directions and every repeat agree.
fn weight(s: VertexId, d: VertexId, seed: u64) -> Weight {
    mix64(mix64(s.min(d) ^ seed) ^ s.max(d)) % 16 + 1
}

/// One payload's figures: the fastest run's ns per insert, and the bytes
/// of the table it built.
#[derive(Default)]
struct Row {
    ns_per_insert: f64,
    edges: usize,
    table: usize,
    entries: usize,
    slack: usize,
    index: usize,
    indexed: usize,
}

/// Builds the table of payload `E` once and times it; keeps the faster of
/// this run and what `row` holds.
fn run<E: EdgeData>(pairs: &[(VertexId, VertexId, Weight)], row: &mut Row) {
    let mut table: DenseVertexTable<u64, E> = DenseVertexTable::new();
    let start = Instant::now();
    for &(s, d, w) in pairs {
        std::hint::black_box(table.insert_edge(s, d, E::new(w)));
        std::hint::black_box(table.insert_edge(d, s, E::new(w)));
    }
    let ns = start.elapsed().as_nanos() as f64 / (2 * pairs.len()) as f64;
    if row.edges != 0 && ns >= row.ns_per_insert {
        return;
    }
    let (mut entries, mut slack, mut index, mut indexed) = (0, 0, 0, 0);
    for (_, _, adj) in table.iter() {
        let (e, s, i) = adj.heap_split();
        entries += e;
        slack += s;
        index += i;
        indexed += usize::from(adj.is_promoted());
    }
    *row = Row {
        ns_per_insert: ns,
        edges: table.num_edges(),
        table: table.heap_bytes() - table.adjacency_heap_bytes(),
        entries,
        slack,
        index,
        indexed,
    };
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map_or(1, |s| s.parse().expect("the seed is an integer"));
    let pairs: Vec<(VertexId, VertexId, Weight)> = rmat::generate(&RmatConfig {
        seed,
        ..RmatConfig::graph500(SCALE)
    })
    .into_iter()
    .map(|(s, d)| (s, d, weight(s, d, seed)))
    .collect();

    let (mut unit, mut weighted) = (Row::default(), Row::default());
    for _ in 0..RUNS {
        run::<()>(&pairs, &mut unit);
        run::<Weight>(&pairs, &mut weighted);
    }

    println!(
        "## Store layout: RMAT-{SCALE} seed {seed}, {} pairs inserted both ways, min of {RUNS} runs\n",
        pairs.len()
    );
    println!(
        "| payload | ns/insert | edges | vertex table MiB | entries MiB | slack MiB | index MiB | adjacency MiB | B/edge | indexed vertices |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for (name, r) in [("()", &unit), ("Weight", &weighted)] {
        let adjacency = r.entries + r.slack + r.index;
        println!(
            "| {name} | {:.1} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {} |",
            r.ns_per_insert,
            r.edges,
            r.table as f64 / MIB,
            r.entries as f64 / MIB,
            r.slack as f64 / MIB,
            r.index as f64 / MIB,
            adjacency as f64 / MIB,
            (r.table + adjacency) as f64 / r.edges as f64,
            r.indexed,
        );
    }
}
