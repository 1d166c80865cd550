//! Event types: the wire format of the engine.
//!
//! The programming model (§III-A) defines three key events — Edge Add, Edge
//! Reverse-Add, and Update — plus Init for algorithms with an initiation
//! vertex (Algorithm 4's `init()`). An [`Envelope`] is one visitor message:
//! it identifies the vertex being visited (`target`), the vertex that
//! created the event (`visitor`, the paper's `vis_ID`), the visitor's value
//! at event-creation time (`vis_val`) and the edge weight.

use remo_store::{VertexId, Weight};

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
    /// Stable single-byte wire encoding (WAL pull frames, after 3).
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

/// One bounded piece of a shard's input stream, in the shape the call
/// that queued it was given: the op once and bare pairs
/// (`try_ingest_pairs`, `try_delete_pairs`), weighted triples
/// (`try_ingest_weighted`), or one `Init` (`try_init_vertex`) or control
/// op (`Engine::control`). Never empty.
///
/// A chunk also numbers its pulls in the engine's input: pull `i` has
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
    Init(VertexId),
    Control(ControlOp),
}

/// One pull from a shard's input stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pull {
    /// An edge to add or remove, routed to `owner(src)`.
    Topo(TopoEvent),
    /// An `Init` of a vertex this shard owns.
    Init(VertexId),
    /// A control op, claimed, swept and committed where it is pulled.
    Control(ControlOp),
}

impl Pull {
    /// The fixed-width wire form of a WAL pull frame: an op byte (0 add,
    /// 1 remove, 2 init, `3 +` [`ControlKind::as_u8`] a control op) and
    /// three words (`src dst weight`; an init's vertex and a control op's
    /// mask are its `src`).
    pub(crate) fn encode(self) -> (u8, [u64; 3]) {
        match self {
            Pull::Topo(ev) => (
                u8::from(ev.op == TopoOp::Remove),
                [ev.src, ev.dst, ev.weight],
            ),
            Pull::Init(v) => (2, [v, v, 1]),
            Pull::Control(op) => (3 + op.kind.as_u8(), [op.mask, 0, 0]),
        }
    }

    /// Inverse of [`Pull::encode`]; `None` on an unknown op byte.
    pub(crate) fn decode(op: u8, [src, dst, weight]: [u64; 3]) -> Option<Pull> {
        Some(match op {
            0 | 1 => Pull::Topo(TopoEvent {
                op: if op == 0 { TopoOp::Add } else { TopoOp::Remove },
                ..TopoEvent::weighted(src, dst, weight)
            }),
            2 => Pull::Init(src),
            _ => Pull::Control(ControlOp {
                kind: ControlKind::from_u8(op - 3)?,
                mask: src,
            }),
        })
    }
}

impl Chunk {
    /// A one-pull chunk at stream index `index`.
    pub(crate) fn one(index: u64, items: Items) -> Chunk {
        Chunk {
            base: index,
            stride: 1,
            items,
        }
    }

    pub(crate) fn len(&self) -> usize {
        match &self.items {
            Items::Pairs(_, p) => p.len(),
            Items::Weighted(t) => t.len(),
            Items::Init(_) | Items::Control(_) => 1,
        }
    }

    /// The `i`th pull and its stream index, as the WAL records them.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> (Pull, u64) {
        let pull = match &self.items {
            Items::Pairs(op, p) => {
                let (src, dst) = p[i];
                Pull::Topo(TopoEvent {
                    src,
                    dst,
                    weight: 1,
                    op: *op,
                })
            }
            Items::Weighted(t) => {
                let (src, dst, weight) = t[i];
                Pull::Topo(TopoEvent::weighted(src, dst, weight))
            }
            Items::Init(v) => Pull::Init(*v),
            Items::Control(op) => Pull::Control(*op),
        };
        (pull, self.base + i as u64 * self.stride)
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
