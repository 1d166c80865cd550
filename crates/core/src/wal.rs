//! Per-shard durability: the [`Custody`] a durable shard keeps, and the
//! formats it writes — CRC-framed write-ahead log, atomic checkpoints, and
//! the engine manifest.
//!
//! Durability is opt-in ([`crate::EngineConfig::with_durability`]). A
//! shard holds `Option<Custody>`; with durability off it is `None` and the
//! worker takes one untaken branch at each custody point. With it on, each
//! shard owns one directory (`<root>/shard-<id>/`) holding:
//!
//! - `wal.log` — the write-ahead log of *accepted external inputs*: every
//!   envelope the shard took custody of from a peer or the controller,
//!   every topology event it pulled from an input stream, and every
//!   control sweep it claimed. Self-routed cascade envelopes are
//!   deliberately **not** logged: replaying the external inputs through
//!   the normal event loop re-derives them (REMO callbacks are monotone
//!   and join-idempotent, so at-least-once replay converges to the same
//!   fixpoint — see DESIGN.md §14).
//! - `checkpoint.bin` — a point-in-time image of the shard's vertex store
//!   (states, forks, metas, adjacency), written only at *idle* (all queues
//!   drained), so the checkpoint plus the WAL tail is always a complete
//!   description of the shard. Checkpoints are published atomically: body
//!   to `checkpoint.tmp`, fsync, rename, fsync the directory — a crash at
//!   any point leaves either the old checkpoint or the new one, never a
//!   torn file. After a successful publish the WAL is truncated; a crash
//!   between the two merely leaves already-checkpointed records in the
//!   WAL, which replay reapplies idempotently.
//!
//! The worker calls its custody at four points: a pull run is logged
//! ([`Custody::log_pulls`]), a received batch is admitted
//! ([`Custody::admit`]), a control op commits ([`Custody::log_control`]),
//! and a checkpoint is due ([`Custody::checkpoint`]). Each logs first and
//! commits once, *before* any effect of what it logged can escape the
//! shard. The supervisor adds three: [`Custody::open`] on entry, the
//! respawn decision ([`Custody::respawn`], at most three per shard), and
//! the post-panic [`Custody::sweep`]. Recovery reads its records back
//! through [`Custody::restore`]; the worker replays them.
//!
//! WAL records are length-prefixed frames: `len: u32 | crc32: u32 |
//! payload`, CRC over the payload. On open the log is scanned
//! front-to-back and truncated at the first frame whose length or CRC does
//! not check out (torn tail from a mid-write crash).

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::algorithm::Algorithm;
use crate::config::EngineConfig;
use crate::event::{ControlKind, Envelope, Epoch, EventKind, TopoEvent, TopoOp};
use crate::metrics::ShardMetrics;
use crate::storage::DenseStore;
use crate::vertex_state::VertexMeta;
use remo_store::{Adjacency, EdgeData};

/// Runtime durability selection, carried by
/// [`EngineConfig`]. Constructed with
/// [`DurabilityConfig::new`] and customized through the builder methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory for the engine's durable state (one subdirectory
    /// per shard plus a `MANIFEST`). Created on first use.
    pub dir: PathBuf,
    /// Custody records (accepted envelopes + pulled topology events)
    /// between checkpoints. Smaller = shorter replay, more checkpoint
    /// I/O.
    pub checkpoint_every: u64,
    /// Fsync the WAL at each batch-boundary commit. Off trades crash
    /// durability (a `kill -9` may lose the un-synced tail) for speed;
    /// panic recovery within a live process is unaffected either way.
    pub fsync: bool,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with defaults: checkpoint every 4096
    /// custody records, fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 4096,
            fsync: true,
        }
    }

    /// Sets the checkpoint interval in custody records (minimum 1).
    pub fn checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every = records.max(1);
        self
    }

    /// Enables or disables fsync batching (see [`DurabilityConfig::fsync`]).
    pub fn fsync(mut self, on: bool) -> Self {
        self.fsync = on;
        self
    }
}

// ---- CRC32 (IEEE 802.3, slicing-by-8) -------------------------------

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][i]` is
/// `CRC_TABLES[k - 1][i]` advanced over one more zero byte, so one lookup
/// in each of the eight tables consumes eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let p = t[k - 1][i];
            t[k][i] = t[0][(p & 0xFF) as usize] ^ (p >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC32 over `bytes`, eight bytes a step: a WAL frame's is taken as
/// it is written and again by every read that walks the log.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- little-endian byte cursor ---------------------------------------

/// Corrupt durable data.
fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("durability: {what}"))
}

/// Bounds-checked little-endian reader over a byte slice, used by both the
/// WAL record and checkpoint decoders.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| invalid("truncated length"))?;
        if end > self.buf.len() {
            return Err(invalid("truncated payload"));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        let mut w = [0u8; 4];
        w.copy_from_slice(b);
        Ok(u32::from_le_bytes(w))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }

    /// A `u32`-length-prefixed byte run.
    fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Appends one vertex's out-edges in the checkpoint format: the degree,
/// then `neighbour | weight | cached` per edge. Every [`EdgeData`] payload
/// writes all three words (what it does not store reads as weight 1,
/// cache 0), so the format does not depend on the algorithm's payload.
pub(crate) fn put_adjacency<E: EdgeData>(out: &mut Vec<u8>, adj: &Adjacency<E>) {
    put_u32(out, adj.degree() as u32);
    for (nbr, e) in adj.iter() {
        put_u64(out, nbr);
        put_u64(out, e.weight());
        put_u64(out, e.cached());
    }
}

/// Reads back what [`put_adjacency`] wrote, rebuilding each entry with
/// [`EdgeData::new`] — the slab and its position index are rebuilt, not
/// copied.
pub(crate) fn get_adjacency<E: EdgeData>(r: &mut ByteReader<'_>) -> io::Result<Adjacency<E>> {
    let degree = r.u32()?;
    let mut adj = Adjacency::new();
    for _ in 0..degree {
        let nbr = r.u64()?;
        let weight = r.u64()?;
        let cached = r.u64()?;
        adj.insert(nbr, E::new(weight, cached));
    }
    Ok(adj)
}

// ---- custody ---------------------------------------------------------

/// In-place respawns one shard gets after contained panics; the next panic
/// records a permanent [`ShardFailure`](crate::ShardFailure) and the run
/// degrades exactly as with durability off.
const MAX_RESPAWNS: u32 = 3;

/// One WAL record, decoded for replay (epochs already zeroed on a cold
/// start).
pub(crate) enum Replay<S> {
    /// An envelope the shard accepted from a peer or the controller, with
    /// its trace tag, so a replayed envelope keeps its trace identity.
    Envelope(Envelope<S>),
    /// A topology event pulled from an input stream, with its stream index
    /// and the epoch it was tagged with at ingestion.
    Topo(TopoEvent, u64, Epoch),
    /// A claimed control sweep (registry attach/detach — see
    /// [`crate::registry`]) and the slot mask the shard claimed.
    Control(ControlKind, u64),
}

/// One durable shard's custody, whole: its WAL handle and the frames not
/// yet committed, the envelopes it logged and has not processed, the
/// checkpoint interval, cold-start and recovery state, and the respawn
/// budget.
pub(crate) struct Custody<A: Algorithm> {
    root: PathBuf,
    shard: usize,
    every: u64,
    fsync: bool,
    /// `wal.log`, positioned after its valid prefix; opened by
    /// [`Custody::open`] inside the supervised region, so an open failure
    /// is a recorded shard failure, not an engine-thread panic.
    wal: Option<File>,
    /// Frames appended since the last commit; nothing in here is visible
    /// to recovery yet.
    buf: Vec<u8>,
    /// Scratch for [`Algorithm::encode_state`].
    scratch: Vec<u8>,
    /// Envelopes logged and committed but not yet handed out for
    /// processing (see [`Custody::admit`]).
    inbox: VecDeque<Envelope<A::State>>,
    /// Epoch of the counted envelope being processed right now: the
    /// post-panic sweep must retire that half-processed envelope too.
    in_process: Option<Epoch>,
    /// Custody records since the last published checkpoint.
    since_ckpt: u64,
    /// Set by cold-start detection or the sweep; cleared once replay ends.
    recovering: bool,
    /// True for the first recovery of a re-opened engine: the previous
    /// process's epoch timeline is meaningless here, so restore clears
    /// forks and replays everything at epoch 0.
    cold: bool,
    /// Respawns spent, of [`MAX_RESPAWNS`].
    respawns: u32,
}

/// An algorithm's vertex store, as checkpoints write and restore it.
type Store<A> = DenseStore<<A as Algorithm>::State, <A as Algorithm>::Edge>;

/// Unwraps a durable-state IO result; a failure kills the shard with a
/// message naming the step.
fn or_die<T>(r: io::Result<T>, what: &str, shard: usize) -> T {
    r.unwrap_or_else(|e| panic!("durability: {what} failed on shard {shard}: {e}"))
}

impl<A: Algorithm> Custody<A> {
    /// Shard `shard`'s custody under `config`; `None` when durability is
    /// off. Durable state a previous process left behind (a published
    /// checkpoint, or a non-empty WAL) means the engine is re-opening: the
    /// shard starts recovering, cold, before it takes any new work.
    pub(crate) fn for_shard(config: &EngineConfig, shard: usize) -> Option<Self> {
        let d = config.durability.as_ref()?;
        let cold = fs::metadata(ckpt_path(&d.dir, shard)).is_ok()
            || fs::metadata(wal_path(&d.dir, shard)).is_ok_and(|m| m.len() > 0);
        Some(Custody {
            root: d.dir.clone(),
            shard,
            every: d.checkpoint_every,
            fsync: d.fsync,
            wal: None,
            buf: Vec::new(),
            scratch: Vec::new(),
            inbox: VecDeque::new(),
            in_process: None,
            since_ckpt: 0,
            recovering: cold,
            cold,
            respawns: 0,
        })
    }

    /// Supervisor, on entry: opens (creating if needed) the WAL, truncating
    /// any torn tail a crash mid-append left. A respawn keeps the handle.
    pub(crate) fn open(&mut self) {
        if self.wal.is_none() {
            let wal = open_wal(&self.root, self.shard);
            self.wal = Some(or_die(wal, "WAL open", self.shard));
        }
    }

    /// True from cold-start detection or a sweep until replay ends.
    pub(crate) fn recovering(&self) -> bool {
        self.recovering
    }

    /// Starts one frame: an 8-byte header placeholder, then the tag.
    fn begin_frame(&mut self, tag: u8) -> usize {
        self.buf.extend_from_slice(&[0u8; 8]);
        let start = self.buf.len();
        self.buf.push(tag);
        start
    }

    /// Backfills the header of the frame whose payload starts at `start`.
    fn end_frame(&mut self, start: usize, m: &mut ShardMetrics) {
        let len = (self.buf.len() - start) as u32;
        let crc = crc32(&self.buf[start..]);
        self.buf[start - 8..start - 4].copy_from_slice(&len.to_le_bytes());
        self.buf[start - 4..start].copy_from_slice(&crc.to_le_bytes());
        m.wal_records_appended += 1;
        self.since_ckpt += 1;
    }

    /// Writes the buffered frames to the log (and to stable storage under
    /// [`DurabilityConfig::fsync`]).
    fn commit(&mut self, m: &mut ShardMetrics) {
        if self.buf.is_empty() {
            return;
        }
        let (shard, fsync) = (self.shard, self.fsync);
        let Some(file) = self.wal.as_mut() else {
            panic!("durability: shard {shard} logged before its WAL was opened");
        };
        let mut written = file.write_all(&self.buf);
        if fsync {
            written = written.and_then(|()| file.sync_data());
        }
        or_die(written, "WAL commit", shard);
        m.wal_bytes += self.buf.len() as u64;
        self.buf.clear();
    }

    /// Custody point: a pull run. Logs each pull with its stream index and
    /// the epoch the run is tagged with, and commits once, before the first
    /// envelope any of them spawns exists.
    pub(crate) fn log_pulls(
        &mut self,
        run: impl Iterator<Item = (TopoEvent, u64)>,
        epoch: Epoch,
        m: &mut ShardMetrics,
    ) {
        for (ev, index) in run {
            let start = self.begin_frame(TAG_TOPO);
            self.buf.push(match ev.op {
                TopoOp::Add => 0,
                TopoOp::Remove => 1,
            });
            put_u32(&mut self.buf, epoch);
            put_u64(&mut self.buf, index);
            put_u64(&mut self.buf, ev.src);
            put_u64(&mut self.buf, ev.dst);
            put_u64(&mut self.buf, ev.weight);
            self.end_frame(start, m);
        }
        self.commit(m);
    }

    /// Custody point: a received batch. Logs every envelope, commits once,
    /// and keeps them until [`Custody::take_admitted`] hands them out, so a
    /// record is on disk before any of its effects can escape the shard.
    pub(crate) fn admit(
        &mut self,
        envs: impl IntoIterator<Item = Envelope<A::State>>,
        m: &mut ShardMetrics,
    ) {
        for env in envs {
            self.scratch.clear();
            A::encode_state(&env.value, &mut self.scratch);
            let start = self.begin_frame(TAG_ENVELOPE);
            self.buf.push(env.kind.as_u8());
            put_u32(&mut self.buf, env.epoch);
            put_u64(&mut self.buf, env.target);
            put_u64(&mut self.buf, env.visitor);
            put_u64(&mut self.buf, env.weight);
            put_u64(&mut self.buf, env.tag);
            put_bytes(&mut self.buf, &self.scratch);
            self.end_frame(start, m);
            self.inbox.push_back(env);
        }
        self.commit(m);
    }

    /// The next admitted envelope, oldest first.
    pub(crate) fn take_admitted(&mut self) -> Option<Envelope<A::State>> {
        self.inbox.pop_front()
    }

    /// Marks the counted envelope being processed (`None` once it is).
    pub(crate) fn mark_in_process(&mut self, epoch: Option<Epoch>) {
        self.in_process = epoch;
    }

    /// Custody point: a claimed control op commits, before its sweep runs,
    /// so replay can re-derive the sweep's effects.
    pub(crate) fn log_control(&mut self, kind: ControlKind, mask: u64, m: &mut ShardMetrics) {
        let start = self.begin_frame(TAG_CONTROL);
        self.buf.push(kind.as_u8());
        put_u64(&mut self.buf, mask);
        self.end_frame(start, m);
        self.commit(m);
    }

    /// Custody point: a checkpoint is due when the WAL has grown past the
    /// interval (or holds anything at all on `force`, the shutdown path)
    /// and every admitted envelope was processed. The caller adds its own
    /// queues: only a fully drained shard is a complete image.
    pub(crate) fn checkpoint_due(&self, force: bool) -> bool {
        self.since_ckpt > 0 && (force || self.since_ckpt >= self.every) && self.inbox.is_empty()
    }

    /// Writes a checkpoint of `store` (streamed through
    /// [`DenseStore::export_records`]) and the scalar header: stage →
    /// publish → truncate the WAL. A crash anywhere in the sequence leaves
    /// a recoverable pair: old checkpoint + full WAL, or new checkpoint +
    /// (possibly still-full) WAL whose replay is idempotent.
    #[cold]
    pub(crate) fn checkpoint(
        &mut self,
        store: &Store<A>,
        header: (u64, Epoch, u64, u64),
        m: &mut ShardMetrics,
    ) {
        let (seq, epoch, edges, streamed) = header;
        let mut body = Vec::with_capacity(64 + store.num_vertices() * 48);
        put_u64(&mut body, seq);
        put_u32(&mut body, epoch);
        put_u64(&mut body, edges);
        put_u64(&mut body, streamed);
        put_u64(&mut body, store.num_vertices() as u64);
        let scratch = &mut self.scratch;
        store.export_records(&mut |v, live, prev, meta, adj| {
            put_u64(&mut body, v);
            put_u32(&mut body, meta.forked_epoch);
            put_u32(&mut body, meta.fired);
            scratch.clear();
            A::encode_state(live, scratch);
            put_bytes(&mut body, scratch);
            match prev {
                Some(p) => {
                    body.push(1);
                    scratch.clear();
                    A::encode_state(p, scratch);
                    put_bytes(&mut body, scratch);
                }
                None => body.push(0),
            }
            put_adjacency(&mut body, adj);
        });
        let (root, shard) = (&self.root, self.shard);
        or_die(
            stage_checkpoint(root, shard, &body),
            "checkpoint staging",
            shard,
        );
        or_die(publish_checkpoint(root, shard), "checkpoint publish", shard);
        if let Some(file) = self.wal.as_mut() {
            let reset = file
                .set_len(0)
                .and_then(|()| file.seek(SeekFrom::Start(0)))
                .and_then(|_| if self.fsync { file.sync_data() } else { Ok(()) });
            or_die(reset, "WAL reset", shard);
        }
        self.since_ckpt = 0;
        m.checkpoints_written += 1;
    }

    /// Recovery, inside the supervised region: replaces `store` with the
    /// latest published checkpoint (an empty store when none exists yet),
    /// raises `seq` and `streamed` to the checkpoint's, sets `edges`, and
    /// returns the WAL tail to replay. On a cold start the previous
    /// process's epoch timeline is void: forks are dropped and every epoch
    /// zeroed; fired-trigger bits survive either way so at-most-once firing
    /// spans the restart.
    #[cold]
    pub(crate) fn restore(
        &mut self,
        store: &mut Store<A>,
        seq: &mut u64,
        edges: &mut u64,
        streamed: &mut u64,
    ) -> Vec<Replay<A::State>> {
        let (cold, shard) = (std::mem::take(&mut self.cold), self.shard);
        *store = DenseStore::with_capacity(0);
        *edges = 0;
        if let Some(body) = or_die(read_checkpoint(&self.root, shard), "checkpoint read", shard) {
            let image = decode_checkpoint::<A>(&body, cold);
            let (header, image) = or_die(image, "checkpoint decode", shard);
            *store = image;
            *seq = (*seq).max(header.seq);
            *edges = header.edges;
            *streamed = (*streamed).max(header.streamed);
        }
        or_die(read_wal::<A>(&self.root, shard, cold), "WAL read", shard)
    }

    /// Replay of `replayed` records ended. They are all still in the WAL
    /// (it is truncated only at a checkpoint publish), so the next idle
    /// checkpoint covers them.
    pub(crate) fn recovered(&mut self, replayed: u64) {
        self.since_ckpt = replayed;
        self.recovering = false;
    }

    /// Supervisor, after a panic: the respawn decision. True, with one
    /// respawn spent, while the budget lasts.
    pub(crate) fn respawn(&mut self) -> bool {
        let granted = self.respawns < MAX_RESPAWNS;
        self.respawns += u32::from(granted);
        granted
    }

    /// Supervisor: the custody half of the post-panic sweep, panic-free (no
    /// IO, no user code). Marks the shard recovering — `true` when that is
    /// new, and the caller must raise the recovery gate before it retires
    /// anything — drops the frames not yet committed (they belong to
    /// envelopes being retired; replay must not see them), and returns the
    /// epochs of the envelopes custody still held: the half-processed one
    /// and every admitted one not yet processed.
    pub(crate) fn sweep(&mut self) -> (bool, Vec<Epoch>) {
        let gate = !std::mem::replace(&mut self.recovering, true);
        self.buf.clear();
        let mut held: Vec<Epoch> = self.in_process.take().into_iter().collect();
        held.extend(self.inbox.drain(..).map(|e| e.epoch));
        (gate, held)
    }

    /// Supervisor: the shard is lost for good. True when a recovery was
    /// pending, whose gate the caller must lift: nobody will finish it.
    pub(crate) fn abandon(&mut self) -> bool {
        std::mem::take(&mut self.recovering)
    }
}

// ---- WAL records -----------------------------------------------------

const TAG_ENVELOPE: u8 = 1;
/// A pull with its stream index (tag 2 was a pull without one).
const TAG_TOPO: u8 = 4;
const TAG_CONTROL: u8 = 3;

/// `<root>/shard-<id>/`.
fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

fn wal_path(root: &Path, shard: usize) -> PathBuf {
    shard_dir(root, shard).join("wal.log")
}

/// The payloads of the valid frames at the front of `bytes`, in order,
/// stopping at the first torn or corrupt one.
fn frames(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut r = ByteReader::new(bytes);
    std::iter::from_fn(move || {
        let (len, crc) = (r.u32().ok()?, r.u32().ok()?);
        let payload = r.take(len as usize).ok()?;
        (crc32(payload) == crc).then_some(payload)
    })
}

/// The byte length of the valid frames at the front of `bytes`:
/// everything after it is a torn tail to truncate.
fn valid_prefix(bytes: &[u8]) -> u64 {
    frames(bytes).map(|payload| 8 + payload.len() as u64).sum()
}

/// A shard's whole WAL; empty when it has none yet.
fn wal_bytes(root: &Path, shard: usize) -> io::Result<Vec<u8>> {
    match fs::read(wal_path(root, shard)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// Opens (creating if needed) a shard's WAL for appending, truncated to
/// its valid prefix.
fn open_wal(root: &Path, shard: usize) -> io::Result<File> {
    fs::create_dir_all(shard_dir(root, shard))?;
    let path = wal_path(root, shard);
    let existing = wal_bytes(root, shard)?;
    let keep = valid_prefix(&existing);
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(false) // the valid prefix is the whole point
        .read(true)
        .write(true)
        .open(&path)?;
    if keep < existing.len() as u64 {
        file.set_len(keep)?;
    }
    file.seek(SeekFrom::Start(keep))?;
    Ok(file)
}

/// Reads and decodes every valid record in a shard's WAL (bounded by the
/// checkpoint interval, so an in-memory `Vec` is fine), at epoch 0 when
/// `cold`. Stops cleanly at a torn tail.
fn read_wal<A: Algorithm>(
    root: &Path,
    shard: usize,
    cold: bool,
) -> io::Result<Vec<Replay<A::State>>> {
    let bytes = wal_bytes(root, shard)?;
    let at = |epoch: Epoch| if cold { 0 } else { epoch };
    let mut out = Vec::new();
    for payload in frames(&bytes) {
        let mut r = ByteReader::new(payload);
        out.push(match r.u8()? {
            TAG_ENVELOPE => {
                let kind = r.u8()?;
                let kind = EventKind::from_u8(kind)
                    .ok_or_else(|| invalid(&format!("unknown envelope kind {kind}")))?;
                let epoch = at(r.u32()?);
                let (target, visitor, weight, tag) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
                let value = A::decode_state(r.bytes()?);
                Replay::Envelope(Envelope {
                    target,
                    visitor,
                    value,
                    weight,
                    kind,
                    epoch,
                    tag,
                })
            }
            TAG_TOPO => {
                let op = if r.u8()? == 0 {
                    TopoOp::Add
                } else {
                    TopoOp::Remove
                };
                let epoch = at(r.u32()?);
                let (index, src, dst, weight) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
                Replay::Topo(
                    TopoEvent {
                        src,
                        dst,
                        weight,
                        op,
                    },
                    index,
                    epoch,
                )
            }
            TAG_CONTROL => {
                let kind = r.u8()?;
                let kind = ControlKind::from_u8(kind)
                    .ok_or_else(|| invalid(&format!("unknown control kind {kind}")))?;
                Replay::Control(kind, r.u64()?)
            }
            t => return Err(invalid(&format!("unknown WAL record tag {t}"))),
        });
    }
    Ok(out)
}

// ---- checkpoints -----------------------------------------------------

const CKPT_MAGIC: u32 = 0x524D_4350; // "RMCP"
/// Version 2 added the header's stream index.
const CKPT_VERSION: u32 = 2;

fn ckpt_path(root: &Path, shard: usize) -> PathBuf {
    shard_dir(root, shard).join("checkpoint.bin")
}

fn ckpt_tmp_path(root: &Path, shard: usize) -> PathBuf {
    shard_dir(root, shard).join("checkpoint.tmp")
}

/// Stage one: write `body` to the shard's `checkpoint.tmp` and fsync it.
/// Not yet visible to recovery — a crash here abandons the temp file.
fn stage_checkpoint(root: &Path, shard: usize, body: &[u8]) -> io::Result<()> {
    fs::create_dir_all(shard_dir(root, shard))?;
    let mut header = Vec::with_capacity(16);
    put_u32(&mut header, CKPT_MAGIC);
    put_u32(&mut header, CKPT_VERSION);
    put_u32(&mut header, crc32(body));
    put_u32(&mut header, body.len() as u32);
    let mut f = File::create(ckpt_tmp_path(root, shard))?;
    f.write_all(&header)?;
    f.write_all(body)?;
    f.sync_all()
}

/// Stage two: atomically publish the staged checkpoint via rename, then
/// fsync the directory so the rename itself is durable.
fn publish_checkpoint(root: &Path, shard: usize) -> io::Result<()> {
    fs::rename(ckpt_tmp_path(root, shard), ckpt_path(root, shard))?;
    if let Ok(d) = File::open(shard_dir(root, shard)) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads the shard's published checkpoint body. `Ok(None)` when no
/// checkpoint has ever been published; `Err` on corruption (the atomic
/// publish protocol should make that impossible short of disk damage).
fn read_checkpoint(root: &Path, shard: usize) -> io::Result<Option<Vec<u8>>> {
    let bytes = match fs::read(ckpt_path(root, shard)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut r = ByteReader::new(&bytes);
    let (crc, len) = ckpt_preamble(&mut r)?;
    let body = r.take(len)?;
    if crc32(body) != crc {
        return Err(invalid("checkpoint CRC mismatch"));
    }
    Ok(Some(body.to_vec()))
}

/// Checks a checkpoint file's magic and version; returns its body's CRC
/// and length.
fn ckpt_preamble(r: &mut ByteReader<'_>) -> io::Result<(u32, usize)> {
    if r.u32()? != CKPT_MAGIC {
        return Err(invalid("bad checkpoint magic"));
    }
    if r.u32()? != CKPT_VERSION {
        return Err(invalid("bad checkpoint version"));
    }
    Ok((r.u32()?, r.u32()? as usize))
}

/// The header's `streamed` of the shard's published checkpoint (0 when it
/// has none), read without the body: the restore that follows reads the
/// whole checkpoint and checks its CRC.
fn checkpoint_streamed(root: &Path, shard: usize) -> io::Result<u64> {
    // The preamble, then the header's seq, epoch, edges and streamed.
    let mut head = [0u8; 16 + 28];
    match File::open(ckpt_path(root, shard)) {
        Ok(mut f) => f.read_exact(&mut head)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    }
    let mut r = ByteReader::new(&head);
    ckpt_preamble(&mut r)?;
    Ok(decode_header(&mut r)?.streamed)
}

/// The scalars a checkpoint body starts with.
struct CkptHeader {
    seq: u64,
    edges: u64,
    /// One past the highest stream index the shard had pulled.
    streamed: u64,
}

fn decode_header(r: &mut ByteReader<'_>) -> io::Result<CkptHeader> {
    let seq = r.u64()?;
    let _epoch = r.u32()?;
    let edges = r.u64()?;
    let streamed = r.u64()?;
    Ok(CkptHeader {
        seq,
        edges,
        streamed,
    })
}

/// Decodes a checkpoint body into its header and store; on a `cold` start
/// without forks or fork epochs.
fn decode_checkpoint<A: Algorithm>(body: &[u8], cold: bool) -> io::Result<(CkptHeader, Store<A>)> {
    let mut r = ByteReader::new(body);
    let header = decode_header(&mut r)?;
    let vertices = r.u64()?;
    // The header counts the records that follow; each takes more than a
    // byte, so the body's length bounds the allocation.
    let records = usize::try_from(vertices).unwrap_or(usize::MAX);
    let mut store = DenseStore::with_capacity(records.min(body.len()));
    for _ in 0..vertices {
        let v = r.u64()?;
        let forked_epoch = r.u32()?;
        let fired = r.u32()?;
        let live = A::decode_state(r.bytes()?);
        let prev = if r.u8()? == 1 {
            Some(A::decode_state(r.bytes()?))
        } else {
            None
        };
        let adj = get_adjacency(&mut r)?;
        let meta = VertexMeta {
            forked_epoch: if cold { 0 } else { forked_epoch },
            fired,
        };
        store.restore_record(v, live, prev.filter(|_| !cold), meta, adj);
    }
    Ok((header, store))
}

/// The stream index a re-opened engine numbers on from: one past the
/// highest any shard's checkpoint or WAL records it pulled (0 for a fresh
/// directory, or with durability off). Read before any shard starts, so
/// the first ingest call after [`crate::Engine::open`] cannot reuse an
/// index whose label is already in the recovered state. It reads each
/// checkpoint's header and each WAL's pull frames only: no state is
/// decoded, so no algorithm code runs outside a shard's supervision.
pub(crate) fn resume_index(config: &EngineConfig) -> Result<u64, String> {
    let Some(d) = &config.durability else {
        return Ok(0);
    };
    let shard_index = |shard: usize| -> io::Result<u64> {
        let ckpt = checkpoint_streamed(&d.dir, shard)?;
        frames(&wal_bytes(&d.dir, shard)?)
            .filter(|payload| payload.first() == Some(&TAG_TOPO))
            .try_fold(ckpt, |next, payload| {
                let mut r = ByteReader::new(payload);
                r.take(6)?; // the tag, the op and the epoch
                Ok(next.max(r.u64()? + 1))
            })
    };
    (0..config.num_shards).try_fold(0, |next, shard| {
        shard_index(shard).map(|n| next.max(n)).map_err(|e| {
            format!(
                "cannot read shard {shard}'s durable state under {}: {e}",
                d.dir.display()
            )
        })
    })
}

// ---- engine manifest -------------------------------------------------

/// The one MANIFEST check, made before any shard starts: reads
/// `<root>/MANIFEST`, refuses a directory an engine of another shape wrote
/// (vertex ownership is a function of the shard count — a different count
/// would silently misassign recovered vertices), and stamps this engine's
/// shape. `Ok` without touching the disk when durability is off; the
/// `Err` names the directory and, on a mismatch, both shapes.
pub(crate) fn claim_manifest(config: &EngineConfig) -> Result<(), String> {
    let Some(d) = &config.durability else {
        return Ok(());
    };
    let (dir, shards, undirected) = (d.dir.display(), config.num_shards, config.undirected);
    match read_manifest(&d.dir) {
        Ok(Some((s, u))) if (s, u) != (shards, undirected) => Err(format!(
            "{dir} holds state from a {s}-shard undirected={u} engine, \
             but the config asks for {shards} shards undirected={undirected}"
        )),
        Err(e) => Err(format!("cannot read MANIFEST under {dir}: {e}")),
        _ => fs::create_dir_all(&d.dir)
            .and_then(|()| {
                let body = format!("remo-manifest v1\nshards={shards}\nundirected={undirected}\n");
                fs::write(d.dir.join("MANIFEST"), body)
            })
            .map_err(|e| format!("cannot write MANIFEST under {dir}: {e}")),
    }
}

/// Reads `<root>/MANIFEST`: `Ok(None)` when absent (fresh directory).
fn read_manifest(root: &Path) -> io::Result<Option<(usize, bool)>> {
    let text = match fs::read_to_string(root.join("MANIFEST")) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut shards = None;
    let mut undirected = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("shards=") {
            shards = v.trim().parse::<usize>().ok();
        } else if let Some(v) = line.strip_prefix("undirected=") {
            undirected = v.trim().parse::<bool>().ok();
        }
    }
    match (shards, undirected) {
        (Some(s), Some(u)) => Ok(Some((s, u))),
        _ => Err(invalid("malformed MANIFEST")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::codec;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("remo-wal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// `u64` states with the little-endian codec.
    struct Level;
    impl Algorithm for Level {
        type State = u64;
        type Edge = ();
        fn encode_state(s: &u64, out: &mut Vec<u8>) {
            codec::put_u64(*s, out);
        }
        fn decode_state(b: &[u8]) -> u64 {
            codec::get_u64(b)
        }
    }

    /// Shard `shard`'s custody under `root`, opened.
    fn custody(root: &Path, shard: usize) -> Custody<Level> {
        let config = EngineConfig::directed(shard + 1)
            .with_durability(DurabilityConfig::new(root).fsync(false));
        let mut c = Custody::for_shard(&config, shard).unwrap();
        c.open();
        c
    }

    fn update(target: u64, epoch: Epoch, tag: u64) -> Envelope<u64> {
        Envelope {
            target,
            visitor: target + 10,
            value: 42,
            weight: 7,
            kind: EventKind::Update,
            epoch,
            tag,
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC32("123456789") is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The eight-byte steps and the bytewise tail agree with the plain
    /// bit-at-a-time definition at every length and offset.
    #[test]
    fn crc32_matches_the_bitwise_definition() {
        let bitwise = |bytes: &[u8]| {
            let mut c = !0u32;
            for &b in bytes {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        };
        let bytes: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for end in start..bytes.len() {
                assert_eq!(crc32(&bytes[start..end]), bitwise(&bytes[start..end]));
            }
        }
    }

    #[test]
    fn wal_roundtrip_and_reset() {
        let root = tmp_root("roundtrip");
        let mut m = ShardMetrics::default();
        let mut c = custody(&root, 0);
        assert!(!c.recovering(), "a fresh directory is no cold start");
        c.admit([update(10, 1, (99 << 8) | 2)], &mut m);
        let pull = TopoEvent {
            src: 1,
            dst: 2,
            weight: 9,
            op: TopoOp::Remove,
        };
        c.log_pulls([(pull, 17)].into_iter(), 4, &mut m);
        c.log_control(ControlKind::Flood, 0b101, &mut m);
        assert_eq!(m.wal_records_appended, 3);
        assert_eq!(m.wal_bytes, fs::metadata(wal_path(&root, 0)).unwrap().len());

        let recs = read_wal::<Level>(&root, 0, false).unwrap();
        assert_eq!(recs.len(), 3);
        let Replay::Envelope(e) = &recs[0] else {
            panic!("expected envelope record");
        };
        assert_eq!(
            (e.kind, e.epoch, e.target, e.visitor, e.weight, e.tag, e.value),
            (EventKind::Update, 1, 10, 20, 7, (99 << 8) | 2, 42)
        );
        let Replay::Topo(ev, 17, 4) = &recs[1] else {
            panic!("expected topo record of index 17 at epoch 4");
        };
        assert_eq!(
            (ev.src, ev.dst, ev.weight, ev.op),
            (1, 2, 9, TopoOp::Remove)
        );
        assert!(matches!(
            recs[2],
            Replay::Control(ControlKind::Flood, 0b101)
        ));
        // A cold read zeroes every epoch.
        let cold = read_wal::<Level>(&root, 0, true).unwrap();
        assert!(matches!(&cold[0], Replay::Envelope(e) if e.epoch == 0));
        assert!(matches!(cold[1], Replay::Topo(_, 17, 0)));

        // A checkpoint waits for the admitted envelope, then truncates the
        // WAL; restore reads its image back.
        assert!(!c.checkpoint_due(true), "an admitted envelope is custody");
        assert_eq!(c.take_admitted().map(|e| e.target), Some(10));
        assert!(c.checkpoint_due(true) && !c.checkpoint_due(false));
        let mut store: DenseStore<u64, ()> = DenseStore::with_capacity(0);
        let h = store.intern(7);
        *store.fork_and_parts(h, 0).1.live = 5;
        c.checkpoint(&store, (11, 0, 3, 18), &mut m);
        assert_eq!(m.checkpoints_written, 1);
        assert!(read_wal::<Level>(&root, 0, false).unwrap().is_empty());
        let (mut restored, mut seq, mut edges, mut streamed) =
            (DenseStore::with_capacity(0), 2, 0, 0);
        assert!(c
            .restore(&mut restored, &mut seq, &mut edges, &mut streamed)
            .is_empty());
        assert_eq!(
            (seq, edges, streamed, restored.num_vertices()),
            (11, 3, 18, 1)
        );
        assert_eq!(restored.get(7).map(|(s, _)| *s), Some(5));
        let _ = fs::remove_dir_all(&root);
    }

    /// A re-opened engine numbers on past every stream index a shard's
    /// checkpoint or WAL records.
    #[test]
    fn resume_index_is_past_every_durable_pull() {
        let root = tmp_root("resume");
        let config =
            EngineConfig::directed(2).with_durability(DurabilityConfig::new(&root).fsync(false));
        assert_eq!(resume_index(&EngineConfig::directed(2)), Ok(0));
        assert_eq!(resume_index(&config), Ok(0), "a fresh directory");
        let mut m = ShardMetrics::default();
        let pull = TopoEvent::new(1, 2);
        let mut c = custody(&root, 0);
        c.checkpoint(&DenseStore::with_capacity(0), (1, 0, 0, 40), &mut m);
        c.log_pulls([(pull, 7)].into_iter(), 0, &mut m);
        assert_eq!(resume_index(&config), Ok(40), "the checkpoint's");
        let mut c = custody(&root, 1);
        c.log_pulls([(pull, 52), (pull, 9)].into_iter(), 0, &mut m);
        assert_eq!(resume_index(&config), Ok(53), "shard 1's WAL");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let root = tmp_root("torn");
        let mut m = ShardMetrics::default();
        custody(&root, 1).admit([update(5, 0, 0)], &mut m);
        // Simulate a crash mid-append: garbage half-frame at the end.
        let path = wal_path(&root, 1);
        let mut bytes = fs::read(&path).unwrap();
        let good = bytes.len();
        bytes.extend_from_slice(&[0x55; 11]);
        fs::write(&path, &bytes).unwrap();

        let mut c = custody(&root, 1);
        assert!(c.recovering(), "a non-empty WAL is a cold start");
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            good as u64,
            "tail truncated"
        );
        assert_eq!(read_wal::<Level>(&root, 1, false).unwrap().len(), 1);
        // Appends after recovery land where the valid prefix ended.
        c.admit([update(7, 0, 0)], &mut m);
        assert_eq!(read_wal::<Level>(&root, 1, false).unwrap().len(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sweep_retires_held_envelopes_and_drops_uncommitted_frames() {
        let root = tmp_root("sweep");
        let mut m = ShardMetrics::default();
        let mut c = custody(&root, 0);
        c.admit([update(1, 0, 0), update(2, 1, 0), update(3, 1, 0)], &mut m);
        let first = c.take_admitted().unwrap();
        c.mark_in_process(Some(first.epoch));
        // A frame appended but never committed, as a panic mid-append
        // leaves it.
        let start = c.begin_frame(TAG_CONTROL);
        c.end_frame(start, &mut m);
        let (gate, held) = c.sweep();
        assert!(gate && c.recovering());
        assert_eq!(held, [0, 1, 1], "the half-processed one, then the inbox");
        assert!(c.take_admitted().is_none());
        assert_eq!(c.sweep(), (false, Vec::new()), "one gate per recovery");
        c.log_control(ControlKind::Clear, 1, &mut m);
        assert_eq!(read_wal::<Level>(&root, 0, false).unwrap().len(), 4);
        assert!(c.abandon() && !c.abandon());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn respawn_budget_is_three() {
        let root = tmp_root("budget");
        let mut c = custody(&root, 0);
        assert_eq!(
            (0..5).filter(|_| c.respawn()).count(),
            MAX_RESPAWNS as usize
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_staged_then_published_atomically() {
        let root = tmp_root("ckpt");
        assert_eq!(read_checkpoint(&root, 0).unwrap(), None);
        stage_checkpoint(&root, 0, b"hello-checkpoint").unwrap();
        // Staged but unpublished: recovery still sees nothing.
        assert_eq!(read_checkpoint(&root, 0).unwrap(), None);
        publish_checkpoint(&root, 0).unwrap();
        assert_eq!(
            read_checkpoint(&root, 0).unwrap().as_deref(),
            Some(&b"hello-checkpoint"[..])
        );
        // Re-stage overwrites cleanly.
        stage_checkpoint(&root, 0, b"v2").unwrap();
        publish_checkpoint(&root, 0).unwrap();
        assert_eq!(
            read_checkpoint(&root, 0).unwrap().as_deref(),
            Some(&b"v2"[..])
        );
        // A crash between stage and publish leaves a staged file nobody
        // reads; the next stage overwrites it and the publish moves it.
        stage_checkpoint(&root, 0, b"abandoned-after-staging").unwrap();
        assert_eq!(
            read_checkpoint(&root, 0).unwrap().as_deref(),
            Some(&b"v2"[..])
        );
        stage_checkpoint(&root, 0, b"v3").unwrap();
        publish_checkpoint(&root, 0).unwrap();
        assert_eq!(
            read_checkpoint(&root, 0).unwrap().as_deref(),
            Some(&b"v3"[..])
        );
        assert!(!ckpt_tmp_path(&root, 0).exists(), "nothing left staged");
        let _ = fs::remove_dir_all(&root);
    }

    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Encodings [`Fragile`] has left before its next one panics.
    static ENCODES_LEFT: AtomicU64 = AtomicU64::new(u64::MAX);

    /// `Level`, whose `encode_state` panics once `ENCODES_LEFT` runs out.
    struct Fragile;
    impl Algorithm for Fragile {
        type State = u64;
        type Edge = ();
        fn encode_state(s: &u64, out: &mut Vec<u8>) {
            let left = ENCODES_LEFT.fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1));
            assert!(left.is_ok(), "injected encode_state failure");
            Level::encode_state(s, out);
        }
        fn decode_state(b: &[u8]) -> u64 {
            Level::decode_state(b)
        }
    }

    /// A checkpoint that dies while it encodes the store publishes nothing
    /// and resets nothing: recovery still reads the previous checkpoint
    /// and the whole WAL, and the next checkpoint publishes.
    #[test]
    fn panic_while_checkpointing_keeps_previous_checkpoint_and_wal() {
        let root = tmp_root("ckpt-panic");
        let config =
            EngineConfig::directed(1).with_durability(DurabilityConfig::new(&root).fsync(false));
        let mut c = Custody::<Fragile>::for_shard(&config, 0).unwrap();
        c.open();
        let mut m = ShardMetrics::default();
        let mut store: DenseStore<u64, ()> = DenseStore::with_capacity(0);
        let h = store.intern(7);
        *store.fork_and_parts(h, 0).1.live = 5;
        c.checkpoint(&store, (1, 0, 0, 0), &mut m);

        c.admit([update(8, 0, 0)], &mut m);
        c.take_admitted();
        let h = store.intern(8);
        *store.fork_and_parts(h, 0).1.live = 42;
        ENCODES_LEFT.store(1, Relaxed);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.checkpoint(&store, (2, 0, 0, 0), &mut m);
        }));
        assert!(crashed.is_err(), "the second state's encoding panics");
        assert_eq!(m.checkpoints_written, 1);
        assert!(c.checkpoint_due(true), "the WAL still holds the admission");

        let (mut restored, mut seq, mut edges, mut streamed) =
            (DenseStore::with_capacity(0), 0, 0, 0);
        let replay = c.restore(&mut restored, &mut seq, &mut edges, &mut streamed);
        assert_eq!((seq, restored.num_vertices()), (1, 1), "the first image");
        assert!(
            matches!(&replay[..], [Replay::Envelope(e)] if e.target == 8),
            "the WAL was not reset"
        );

        ENCODES_LEFT.store(u64::MAX, Relaxed);
        c.checkpoint(&store, (3, 0, 0, 0), &mut m);
        assert_eq!(m.checkpoints_written, 2);
        let replay = c.restore(&mut restored, &mut seq, &mut edges, &mut streamed);
        assert!(replay.is_empty());
        assert_eq!((seq, restored.num_vertices()), (3, 2));
        assert_eq!(restored.get(8).map(|(s, _)| *s), Some(42));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_checkpoint_is_an_error() {
        let root = tmp_root("ckpt-corrupt");
        stage_checkpoint(&root, 2, b"payload").unwrap();
        publish_checkpoint(&root, 2).unwrap();
        let path = shard_dir(&root, 2).join("checkpoint.bin");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint(&root, 2).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_roundtrip() {
        let root = tmp_root("manifest");
        let durable =
            |shards| EngineConfig::undirected(shards).with_durability(DurabilityConfig::new(&root));
        assert_eq!(claim_manifest(&EngineConfig::undirected(4)), Ok(()));
        assert_eq!(read_manifest(&root).unwrap(), None);
        assert_eq!(claim_manifest(&durable(4)), Ok(()));
        assert_eq!(read_manifest(&root).unwrap(), Some((4, true)));
        assert_eq!(claim_manifest(&durable(4)), Ok(()));
        let err = claim_manifest(&durable(3)).unwrap_err();
        assert!(err.contains("4-shard undirected=true") && err.contains("3 shards"));
        assert_eq!(
            read_manifest(&root).unwrap(),
            Some((4, true)),
            "not overwritten"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
