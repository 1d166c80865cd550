#![forbid(unsafe_code)]
//! # remo-baseline — static construction and static algorithms
//!
//! The paper's evaluation is anchored by a *static* comparator: build an
//! optimized CSR from the same `[src, dst]` stream, then run a classical
//! algorithm over it (§V-B, Figures 3 and 4). This crate is that comparator
//! and doubles as the correctness oracle for every incremental algorithm:
//!
//! - [`construct`] — timed edge-list → CSR pipeline (with symmetrization).
//! - [`bfs`] — sequential level-synchronous BFS.
//! - [`sssp`] — Dijkstra.
//! - [`cc`] — union-find components, including the two labellings the
//!   incremental algorithm converges to: earliest stream edge, and (in a
//!   query registry) the hash dominator.
//! - [`stcon`] — multi-source reachability bitmasks.
//!
//! Conventions match the dynamic side exactly (source level/cost = 1,
//! unreached = `u64::MAX`) so states can be compared bit-for-bit.

pub mod bfs;
pub mod cc;
pub mod construct;
pub mod sssp;
pub mod stcon;
pub mod temporal;
pub mod widest;

pub use bfs::{bfs_levels, UNREACHED};
pub use cc::{
    component_count, components_dominator_label, components_earliest_edge, components_min_label,
    UnionFind,
};
pub use construct::{build_undirected, build_undirected_weighted, implied_vertices, symmetrize};
pub use sssp::sssp_costs;
pub use stcon::st_masks;
pub use temporal::earliest_arrivals;
pub use widest::widest_paths;
