//! Causal update tracing: sampled end-to-end propagation trees.
//!
//! The paper's model is that one external topology event triggers a
//! bounded causal cascade of per-vertex reactions (§III). The aggregate
//! counters measure how *much* cascading happened; this module answers
//! *where it went*. Every engine traces: one external ingest in
//! `2^`[`SAMPLE_SHIFT`](crate::SAMPLE_SHIFT) per shard mints a
//! **trace id**, every envelope
//! it causes carries a compact [`TraceTag`]
//! (id + hop depth), and each shard appends bounded span records to a
//! per-shard ring as tagged envelopes move through it. Harvest
//! reconstructs per-update **propagation trees** — hops to fixpoint,
//! per-hop latency, amplification, cross-shard hop counts —
//! exposed via `Engine::traces_now()` and the telemetry exporter.
//!
//! ## Tag discipline (soundness)
//!
//! A tag never changes what the engine computes; it is cargo. The rules:
//!
//! - A sampled ingest's envelope carries `(id, hop 1)`; the ingest itself
//!   is hop 0 (the `Root` span).
//! - Every envelope generated while processing a tagged envelope inherits
//!   `(id, hop + 1)` — registry `Delta` fan-out included, since deltas are
//!   routed through the same outgoing path.
//! - Dominance retirement and sender-side suppression close a branch
//!   with a `Dominate` / `Suppress` span instead of silence.
//! - Work a rollback re-runs from the WAL is untraced: its pulls carry no
//!   tag, and the original pull's `Root` span already anchors its trace.
//!
//! ## Ring-overflow policy
//!
//! Span rings hold [`SPAN_CAPACITY`](crate::telemetry::SPAN_CAPACITY) spans per shard
//! and overwrite oldest-first (the ring lives in [`crate::telemetry`], so
//! a dead shard's spans stay readable); `trace_spans_dropped` counts
//! evictions. A
//! trace whose `Root` span was evicted is dropped whole at reconstruction
//! — partial trees without an anchor would report garbage latencies — so
//! a long run's trees describe its latest cascades.

use remo_store::VertexId;

use crate::metrics::LatencyHistogram;

/// Compact causal tag carried by every [`Envelope`](crate::event::Envelope):
/// `(trace_id << 8) | hop_depth`, or `0` for untraced envelopes (the
/// overwhelmingly common case — the untraced hot path pays one predictable
/// branch per observation point).
pub type TraceTag = u64;

/// Packs a trace id and hop depth into a [`TraceTag`].
#[inline]
pub(crate) fn pack(id: u64, hop: u8) -> TraceTag {
    (id << 8) | u64::from(hop)
}

/// The trace id half of a tag.
#[inline]
pub fn trace_id(tag: TraceTag) -> u64 {
    tag >> 8
}

/// The hop-depth half of a tag.
#[inline]
pub fn hop_of(tag: TraceTag) -> u8 {
    (tag & 0xFF) as u8
}

/// Tag inherited by an envelope generated while processing `tag`: same
/// id, hop + 1 (saturating — depth 255 is far beyond any REMO cascade we
/// measure, and saturation merely flattens the tree's tail). `0` stays
/// `0`.
#[inline]
pub(crate) fn child(tag: TraceTag) -> TraceTag {
    if tag == 0 {
        return 0;
    }
    let hop = (tag & 0xFF).min(0xFE);
    (tag & !0xFF) | (hop + 1)
}

/// What one span record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// A sampled external ingest minted this trace (`a` = src, `b` = dst
    /// of the topology event). Hop 0 by construction.
    Root = 1,
    /// A tagged envelope was counted sent (`a` = target vertex, `b` =
    /// destination shard).
    Send = 2,
    /// A tagged envelope was processed (`a` = target, `b` = children
    /// emitted by the callback, before suppression).
    Process = 3,
    /// A tagged envelope was retired by receiver-side dominance
    /// filtering (`a` = target).
    Dominate = 4,
    /// A tagged self-routed envelope was suppressed before sending
    /// (`a` = target).
    Suppress = 5,
}

impl SpanKind {
    fn from_u8(v: u8) -> Option<SpanKind> {
        Some(match v {
            1 => SpanKind::Root,
            2 => SpanKind::Send,
            3 => SpanKind::Process,
            4 => SpanKind::Dominate,
            5 => SpanKind::Suppress,
            _ => return None,
        })
    }
}

/// One decoded span record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Shard whose ring recorded the span.
    pub shard: usize,
    pub kind: SpanKind,
    /// Full tag (id + hop) of the envelope the span describes.
    pub tag: TraceTag,
    /// Nanoseconds since engine start.
    pub t_ns: u64,
    /// First operand (see [`SpanKind`]).
    pub a: u64,
    /// Second operand (see [`SpanKind`]).
    pub b: u64,
}

impl TraceSpan {
    /// The span's ring words.
    #[inline]
    pub(crate) fn words(kind: SpanKind, tag: TraceTag, t_ns: u64, a: u64, b: u64) -> [u64; 4] {
        [(t_ns << 8) | kind as u64, tag, a, b]
    }

    /// Decodes one slot of `shard`'s ring (`None` for a slot that was
    /// never written).
    pub(crate) fn from_words(shard: usize, w: [u64; 4]) -> Option<TraceSpan> {
        Some(TraceSpan {
            shard,
            kind: SpanKind::from_u8((w[0] & 0xFF) as u8)?,
            tag: w[1],
            t_ns: w[0] >> 8,
            a: w[2],
            b: w[3],
        })
    }
}

/// Per-hop statistics inside one propagation tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HopStats {
    /// Hop depth (1 = the envelope spawned directly by the ingest).
    pub hop: u8,
    /// Tagged envelopes counted sent at this depth.
    pub sent: u64,
    /// Tagged envelopes processed at this depth.
    pub processed: u64,
    /// Tagged envelopes retired by dominance filtering.
    pub dominated: u64,
    /// Tagged envelopes suppressed before sending.
    pub suppressed: u64,
    /// Earliest send timestamp at this depth (ns since engine start; 0
    /// when no send was observed).
    pub first_send_ns: u64,
    /// Earliest processing timestamp at this depth (0 when none).
    pub first_process_ns: u64,
    /// First-send → first-process latency at this depth: lane/channel
    /// transit plus queueing (0 when either side is missing).
    pub transit_ns: u64,
}

/// One reconstructed propagation tree: everything a sampled external
/// update caused, across all shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationTrace {
    /// Trace id (unique per engine run).
    pub id: u64,
    /// Shard that ingested the root topology event.
    pub root_shard: usize,
    /// Root topology event endpoints.
    pub src: VertexId,
    pub dst: VertexId,
    /// Root ingest timestamp (ns since engine start).
    pub started_ns: u64,
    /// Per-hop breakdown, ascending hop depth.
    pub hops: Vec<HopStats>,
    /// Deepest hop observed (hops to fixpoint).
    pub depth: u8,
    /// Envelopes this update caused (count of `Send` spans) — the
    /// per-update amplification factor.
    pub amplification: u64,
    /// Envelopes processed on behalf of this trace.
    pub processed: u64,
    /// Branches closed by dominance retirement.
    pub dominated: u64,
    /// Branches closed by sender-side suppression.
    pub suppressed: u64,
    /// Sends whose destination was a different shard.
    pub cross_shard_hops: u64,
    /// Root ingest → last observed span (ns): the update's propagation
    /// wall time.
    pub fixpoint_ns: u64,
}

/// Rebuilds propagation trees from the harvested span rings. Traces
/// whose `Root` span was evicted by ring overflow are dropped whole (see
/// the module docs for the overflow policy). Returned ascending by root
/// timestamp.
pub(crate) fn reconstruct(spans: &[TraceSpan]) -> Vec<PropagationTrace> {
    use std::collections::HashMap;
    let mut by_id: HashMap<u64, Vec<&TraceSpan>> = HashMap::new();
    for s in spans {
        by_id.entry(trace_id(s.tag)).or_default().push(s);
    }
    let mut out = Vec::new();
    for (id, group) in by_id {
        let Some(root) = group.iter().find(|s| s.kind == SpanKind::Root) else {
            continue;
        };
        let mut t = PropagationTrace {
            id,
            root_shard: root.shard,
            src: root.a,
            dst: root.b,
            started_ns: root.t_ns,
            hops: Vec::new(),
            depth: 0,
            amplification: 0,
            processed: 0,
            dominated: 0,
            suppressed: 0,
            cross_shard_hops: 0,
            fixpoint_ns: 0,
        };
        let mut hops: HashMap<u8, HopStats> = HashMap::new();
        let mut last_ns = root.t_ns;
        for s in &group {
            last_ns = last_ns.max(s.t_ns);
            let hop = hop_of(s.tag);
            if s.kind == SpanKind::Root {
                continue;
            }
            t.depth = t.depth.max(hop);
            let h = hops.entry(hop).or_insert_with(|| HopStats {
                hop,
                ..Default::default()
            });
            match s.kind {
                SpanKind::Send => {
                    t.amplification += 1;
                    h.sent += 1;
                    if h.first_send_ns == 0 || s.t_ns < h.first_send_ns {
                        h.first_send_ns = s.t_ns;
                    }
                    if s.b as usize != s.shard {
                        t.cross_shard_hops += 1;
                    }
                }
                SpanKind::Process => {
                    t.processed += 1;
                    h.processed += 1;
                    if h.first_process_ns == 0 || s.t_ns < h.first_process_ns {
                        h.first_process_ns = s.t_ns;
                    }
                }
                SpanKind::Dominate => {
                    t.dominated += 1;
                    h.dominated += 1;
                }
                SpanKind::Suppress => {
                    t.suppressed += 1;
                    h.suppressed += 1;
                }
                SpanKind::Root => unreachable!("filtered above"),
            }
        }
        let mut hops: Vec<HopStats> = hops.into_values().collect();
        hops.sort_by_key(|h| h.hop);
        for h in &mut hops {
            if h.first_send_ns != 0 && h.first_process_ns != 0 {
                h.transit_ns = h.first_process_ns.saturating_sub(h.first_send_ns);
            }
        }
        t.hops = hops;
        t.fixpoint_ns = last_ns.saturating_sub(root.t_ns);
        out.push(t);
    }
    out.sort_by_key(|t| (t.started_ns, t.id));
    out
}

/// Aggregate statistics over a set of propagation traces — what the
/// exporter renders as summary families.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Traces reconstructed.
    pub observed: u64,
    /// Root-to-last-span propagation wall time, one sample per trace.
    pub fixpoint: LatencyHistogram,
    /// Hops to fixpoint, one sample per trace (unitless; histogram
    /// buckets reused for quantiles).
    pub hops: LatencyHistogram,
    /// Amplification factor (envelopes caused per update), one sample
    /// per trace.
    pub amplification: LatencyHistogram,
    /// Cross-shard sends, totalled over all traces.
    pub cross_shard_hops: u64,
}

/// Summarizes reconstructed traces.
pub fn summarize(traces: &[PropagationTrace]) -> TraceSummary {
    let mut s = TraceSummary::default();
    for t in traces {
        s.observed += 1;
        s.fixpoint.record(t.fixpoint_ns);
        s.hops.record(u64::from(t.depth));
        s.amplification.record(t.amplification);
        s.cross_shard_hops += t.cross_shard_hops;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_packing_roundtrips() {
        let tag = pack(42, 3);
        assert_eq!(trace_id(tag), 42);
        assert_eq!(hop_of(tag), 3);
        assert_eq!(child(0), 0, "untraced stays untraced");
        assert_eq!(hop_of(child(tag)), 4);
        assert_eq!(trace_id(child(tag)), 42);
        // Saturation at depth 255.
        let deep = pack(7, 255);
        assert_eq!(hop_of(child(deep)), 255);
        assert_eq!(trace_id(child(deep)), 7);
    }

    #[test]
    fn span_words_round_trip() {
        let w = TraceSpan::words(SpanKind::Send, pack(9, 2), 1_000_000, 7, 3);
        assert_eq!(
            TraceSpan::from_words(5, w),
            Some(TraceSpan {
                shard: 5,
                kind: SpanKind::Send,
                tag: pack(9, 2),
                t_ns: 1_000_000,
                a: 7,
                b: 3,
            })
        );
        assert_eq!(TraceSpan::from_words(0, [0; 4]), None, "unwritten slot");
    }

    #[test]
    fn reconstruct_builds_tree_and_drops_rootless() {
        let spans = vec![
            TraceSpan {
                shard: 0,
                kind: SpanKind::Root,
                tag: pack(5, 0),
                t_ns: 100,
                a: 7,
                b: 9,
            },
            TraceSpan {
                shard: 0,
                kind: SpanKind::Send,
                tag: pack(5, 1),
                t_ns: 110,
                a: 7,
                b: 1, // dest shard 1: cross-shard
            },
            TraceSpan {
                shard: 1,
                kind: SpanKind::Process,
                tag: pack(5, 1),
                t_ns: 150,
                a: 7,
                b: 2,
            },
            TraceSpan {
                shard: 1,
                kind: SpanKind::Send,
                tag: pack(5, 2),
                t_ns: 160,
                a: 9,
                b: 1, // self-shard: not a cross-shard hop
            },
            TraceSpan {
                shard: 1,
                kind: SpanKind::Dominate,
                tag: pack(5, 2),
                t_ns: 170,
                a: 9,
                b: 0,
            },
            // Rootless trace: must be dropped whole.
            TraceSpan {
                shard: 0,
                kind: SpanKind::Send,
                tag: pack(99, 1),
                t_ns: 500,
                a: 1,
                b: 0,
            },
        ];
        let traces = reconstruct(&spans);
        assert_eq!(traces.len(), 1, "rootless trace dropped");
        let t = &traces[0];
        assert_eq!(t.id, 5);
        assert_eq!((t.src, t.dst), (7, 9));
        assert_eq!(t.root_shard, 0);
        assert_eq!(t.depth, 2);
        assert_eq!(t.amplification, 2);
        assert_eq!(t.processed, 1);
        assert_eq!(t.dominated, 1);
        assert_eq!(t.cross_shard_hops, 1);
        assert_eq!(t.fixpoint_ns, 70);
        assert_eq!(t.hops.len(), 2);
        assert_eq!(t.hops[0].hop, 1);
        assert_eq!(t.hops[0].transit_ns, 40, "first send 110 -> process 150");
        assert_eq!(t.hops[1].hop, 2);
        // Hop depths monotone by construction of the sort.
        assert!(t.hops.windows(2).all(|w| w[0].hop < w[1].hop));
    }

    #[test]
    fn summarize_aggregates() {
        let spans = vec![
            TraceSpan {
                shard: 0,
                kind: SpanKind::Root,
                tag: pack(1, 0),
                t_ns: 10,
                a: 0,
                b: 1,
            },
            TraceSpan {
                shard: 0,
                kind: SpanKind::Send,
                tag: pack(1, 1),
                t_ns: 20,
                a: 0,
                b: 0,
            },
        ];
        let traces = reconstruct(&spans);
        let s = summarize(&traces);
        assert_eq!(s.observed, 1);
        assert_eq!(s.fixpoint.count, 1);
        assert_eq!(s.hops.count, 1);
        assert_eq!(s.amplification.count, 1);
        assert!(s.amplification.quantile_ns(0.5) >= 1.0);
    }
}
