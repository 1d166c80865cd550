//! Event types: the wire format of the engine.
//!
//! The programming model (§III-A) defines three key events — Edge Add, Edge
//! Reverse-Add, and Update — plus Init for algorithms with an initiation
//! vertex (Algorithm 4's `init()`). An [`Envelope`] is one visitor message:
//! it identifies the vertex being visited (`target`), the vertex that
//! created the event (`visitor`, the paper's `vis_ID`), the visitor's value
//! at event-creation time (`vis_val`), the edge weight, and the snapshot
//! epoch the event belongs to (§III-D's version identifier).

use remo_store::{VertexId, Weight};

/// Snapshot version identifier carried by every event (§III-D).
pub type Epoch = u32;

/// The kind of an algorithmic event (Algorithm 3's `VISIT_TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Algorithm initiation at a vertex (e.g. choose the BFS source).
    Init,
    /// Topology change: a directed edge `visitor <- target`... more
    /// precisely the edge `[target -> visitor]` materializes at `target`,
    /// the first endpoint of the edge (§III-A).
    Add,
    /// Second half of an undirected insertion: `target` learns of the edge
    /// back to `visitor` and of the visitor's current value.
    ReverseAdd,
    /// Algorithm-generated propagation (the recursive step).
    Update,
    /// Decremental topology change (§VI-B extension): the edge
    /// `[target -> visitor]` is removed at `target`.
    Remove,
    /// Second half of an undirected removal.
    ReverseRemove,
}

impl EventKind {
    /// Stable single-byte wire encoding (WAL envelope records).
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            EventKind::Init => 0,
            EventKind::Add => 1,
            EventKind::ReverseAdd => 2,
            EventKind::Update => 3,
            EventKind::Remove => 4,
            EventKind::ReverseRemove => 5,
        }
    }

    /// Inverse of [`EventKind::as_u8`]; `None` on an unknown byte (WAL
    /// from a future format version).
    pub(crate) fn from_u8(b: u8) -> Option<EventKind> {
        Some(match b {
            0 => EventKind::Init,
            1 => EventKind::Add,
            2 => EventKind::ReverseAdd,
            3 => EventKind::Update,
            4 => EventKind::Remove,
            5 => EventKind::ReverseRemove,
            _ => return None,
        })
    }
}

/// One visitor message.
#[derive(Debug, Clone)]
pub struct Envelope<S> {
    /// Vertex being visited (`this` in Algorithm 3).
    pub target: VertexId,
    /// Vertex that created the event (`vis_ID`).
    pub visitor: VertexId,
    /// The visitor's vertex value when it created the event (`vis_val`).
    /// Default-valued for `Add`/`Init`, where no meaningful value exists.
    pub value: S,
    /// Weight of the edge the event travelled over (1 for unweighted).
    pub weight: Weight,
    pub kind: EventKind,
    /// Snapshot epoch: inherited from the triggering event; stream events
    /// are tagged at ingestion time.
    pub epoch: Epoch,
    /// Causal trace tag (`0` = untraced, the common case): trace id plus
    /// hop depth, inherited with hop+1 by every envelope generated while
    /// processing this one. Pure cargo — never consulted by the
    /// computation. See [`crate::trace`].
    pub tag: crate::trace::TraceTag,
}

/// What a control sweep does to the claimed per-query columns (see
/// [`QueryRegistry`](crate::QueryRegistry) and DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlKind {
    /// Rebuild the claimed columns from the shard's stored adjacency with
    /// all sends muted (attach backfill, phase 1).
    Prime,
    /// Propagate every non-bottom primed cell to its neighbours (attach
    /// backfill, phase 2 — recovers deltas dropped before priming).
    Flood,
    /// Reset the claimed columns to bottom (detach reclaim).
    Clear,
}

impl ControlKind {
    /// Stable single-byte wire encoding (WAL control records).
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            ControlKind::Prime => 0,
            ControlKind::Flood => 1,
            ControlKind::Clear => 2,
        }
    }

    /// Inverse of [`ControlKind::as_u8`]; `None` on an unknown byte.
    pub(crate) fn from_u8(b: u8) -> Option<ControlKind> {
        Some(match b {
            0 => ControlKind::Prime,
            1 => ControlKind::Flood,
            2 => ControlKind::Clear,
            _ => return None,
        })
    }
}

/// A control-plane request broadcast to every shard: run one sweep of
/// `kind` over the query slots named by `mask`. The algorithm layer (the
/// registry) decides per shard which bits it actually claims — see
/// [`crate::Algorithm::on_control`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlOp {
    pub kind: ControlKind,
    /// Bitmask of query slots the operation targets.
    pub mask: u64,
}

/// Whether a topology event creates or removes an edge. The core paper is
/// add-only; removal implements the §VI-B decremental extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopoOp {
    #[default]
    Add,
    Remove,
}

/// A raw topology event from an input stream: "create (or remove) edge
/// src -> dst". For undirected runs the engine generates the
/// reverse-add/remove automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoEvent {
    pub src: VertexId,
    pub dst: VertexId,
    pub weight: Weight,
    pub op: TopoOp,
}

impl TopoEvent {
    /// Unweighted edge-add event.
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        TopoEvent {
            src,
            dst,
            weight: 1,
            op: TopoOp::Add,
        }
    }

    /// Weighted edge-add event.
    pub fn weighted(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        TopoEvent {
            src,
            dst,
            weight,
            op: TopoOp::Add,
        }
    }

    /// Edge-removal event (§VI-B extension).
    pub fn removal(src: VertexId, dst: VertexId) -> Self {
        TopoEvent {
            src,
            dst,
            weight: 1,
            op: TopoOp::Remove,
        }
    }
}

/// One bounded piece of a shard's input stream, in the shape the ingest
/// call that cut it was given: the op once and bare pairs
/// (`try_ingest_pairs`, `try_delete_pairs`) or weighted triples
/// (`try_ingest_weighted`). Never empty.
///
/// A chunk also numbers its events in the engine's input: event `i` has
/// stream index `base + i·stride` (see [`crate::Algorithm::stream_value`]).
/// A round-robin split puts pairs `s, s + k, s + 2k, …` of a call in shard
/// `s`'s chunks, so their stride is the shard count `k`.
#[derive(Debug)]
pub(crate) struct Chunk {
    pub(crate) base: u64,
    pub(crate) stride: u64,
    pub(crate) items: Items,
}

/// What a [`Chunk`] carries.
#[derive(Debug)]
pub(crate) enum Items {
    Pairs(TopoOp, Vec<(VertexId, VertexId)>),
    Weighted(Vec<(VertexId, VertexId, Weight)>),
}

impl Chunk {
    pub(crate) fn len(&self) -> usize {
        match &self.items {
            Items::Pairs(_, p) => p.len(),
            Items::Weighted(t) => t.len(),
        }
    }

    /// The `i`th pull and its stream index, as the WAL records them.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> (TopoEvent, u64) {
        let ev = match &self.items {
            Items::Pairs(op, p) => {
                let (src, dst) = p[i];
                TopoEvent {
                    src,
                    dst,
                    weight: 1,
                    op: *op,
                }
            }
            Items::Weighted(t) => {
                let (src, dst, weight) = t[i];
                TopoEvent::weighted(src, dst, weight)
            }
        };
        (ev, self.base + i as u64 * self.stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An envelope is what every lane, outbox and queue holds, so its size
    /// is the engine's memory per event in flight. No field may grow it.
    #[test]
    fn envelope_of_u64_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Envelope<u64>>(), 48);
    }

    #[test]
    fn topo_event_constructors() {
        assert_eq!(TopoEvent::new(1, 2).weight, 1);
        assert_eq!(TopoEvent::weighted(1, 2, 9).weight, 9);
    }
}
