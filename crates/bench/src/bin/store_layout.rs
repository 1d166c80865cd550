//! Store layout bench: what one adjacency insert costs, and where the
//! adjacency's heap bytes go, for each edge payload.
//!
//! Feeds a seeded RMAT-16 stream (Graph500 parameters, 2^20 pairs, the
//! ledger's `rmat_*` shape) into a `DenseVertexTable<u64, ()>` and two
//! `DenseVertexTable<u64, Weight>`s, each pair in both directions as the
//! engine stores an undirected edge. One weighted table takes the ledger's
//! weights (1..=16 from the unordered endpoints), which every vertex keeps
//! in byte entries; the other takes weights 1..=65 536 drawn the same way,
//! which leave almost every vertex narrow entries. For each row it prints
//! the minimum over seven runs of the nanoseconds per insert (the rows'
//! runs interleaved, so drift hits all alike), the table's heap bytes
//! split into the vertex table (intern index, reverse ids and the 32-byte
//! records) and the adjacency's live slab entries, slab tails and
//! position indexes, and how many vertices keep byte, narrow and wide
//! entries. The ledger's `store.insert_edge_ns` times only a `Weight`
//! table of the ledger's weights and reports its bytes as one ratio.
//!
//! Usage: `cargo run --release -p remo-bench --bin store_layout [seed]`
//! (seed 1 when none is given).

use std::time::Instant;

use remo_gen::rmat::{self, RmatConfig};
use remo_store::hash::mix64;
use remo_store::{DenseVertexTable, EdgeData, EntryWidth, VertexId, Weight};

const SCALE: u32 = 16;
const RUNS: usize = 7;
const MIB: f64 = (1 << 20) as f64;

/// The weight of an edge, 1..=`top`, from the unordered endpoints and the
/// seed, so both directions and every repeat agree: the ledger's at `top`
/// 16.
fn weight(s: VertexId, d: VertexId, seed: u64, top: u64) -> Weight {
    mix64(mix64(s.min(d) ^ seed) ^ s.max(d)) % top + 1
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
    /// Vertices with byte, narrow and wide entries.
    widths: [usize; 3],
}

/// Builds the table of payload `E` from `edges` once and times it; keeps
/// the faster of this run and what `row` holds.
fn run<E: EdgeData>(edges: &[(VertexId, VertexId, Weight)], row: &mut Row) {
    let mut table: DenseVertexTable<u64, E> = DenseVertexTable::new();
    let start = Instant::now();
    for &(s, d, w) in edges {
        std::hint::black_box(table.insert_edge(s, d, E::new(w)));
        std::hint::black_box(table.insert_edge(d, s, E::new(w)));
    }
    let ns = start.elapsed().as_nanos() as f64 / (2 * edges.len()) as f64;
    if row.edges != 0 && ns >= row.ns_per_insert {
        return;
    }
    let (mut entries, mut slack, mut index, mut indexed) = (0, 0, 0, 0);
    let mut widths = [0; 3];
    for (_, _, adj) in table.iter() {
        let (e, s, i) = adj.heap_split();
        entries += e;
        slack += s;
        index += i;
        indexed += usize::from(adj.is_promoted());
        widths[match adj.entry_width() {
            EntryWidth::Byte => 0,
            EntryWidth::Narrow => 1,
            EntryWidth::Wide => 2,
        }] += 1;
    }
    *row = Row {
        ns_per_insert: ns,
        edges: table.num_edges(),
        table: table.heap_bytes() - table.adjacency_heap_bytes(),
        entries,
        slack,
        index,
        indexed,
        widths,
    };
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map_or(1, |s| s.parse().expect("the seed is an integer"));
    let pairs = rmat::generate(&RmatConfig {
        seed,
        ..RmatConfig::graph500(SCALE)
    });
    let weighted = |top| -> Vec<(VertexId, VertexId, Weight)> {
        pairs
            .iter()
            .map(|&(s, d)| (s, d, weight(s, d, seed, top)))
            .collect()
    };
    let (light, heavy) = (weighted(16), weighted(1 << 16));

    let mut rows: [(&str, Row); 3] = Default::default();
    rows[0].0 = "()";
    rows[1].0 = "Weight 1..=16";
    rows[2].0 = "Weight 1..=65536";
    for _ in 0..RUNS {
        run::<()>(&light, &mut rows[0].1);
        run::<Weight>(&light, &mut rows[1].1);
        run::<Weight>(&heavy, &mut rows[2].1);
    }

    println!(
        "## Store layout: RMAT-{SCALE} seed {seed}, {} pairs inserted both ways, min of {RUNS} runs\n",
        pairs.len()
    );
    println!(
        "| payload | ns/insert | edges | vertex table MiB | entries MiB | slack MiB | index MiB | adjacency MiB | B/edge | indexed vertices | byte / narrow / wide vertices |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for (name, r) in &rows {
        let adjacency = r.entries + r.slack + r.index;
        println!(
            "| {name} | {:.1} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {} | {} / {} / {} |",
            r.ns_per_insert,
            r.edges,
            r.table as f64 / MIB,
            r.entries as f64 / MIB,
            r.slack as f64 / MIB,
            r.index as f64 / MIB,
            adjacency as f64 / MIB,
            (r.table + adjacency) as f64 / r.edges as f64,
            r.indexed,
            r.widths[0],
            r.widths[1],
            r.widths[2],
        );
    }
}
