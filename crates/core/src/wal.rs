//! Durability: the pull log a durable shard keeps ([`Log`]), and the
//! files of a durable directory — a CRC-framed write-ahead log of pulls,
//! checkpoints of a global cut, and the engine MANIFEST that names the
//! cut.
//!
//! Durability is opt-in ([`crate::EngineConfig::with_durability`]). Each
//! shard owns one directory (`<root>/shard-<id>/`) holding, for the cut
//! `g` the MANIFEST names:
//!
//! - `wal-<g>.log` — every pull the shard took since the cut: an edge, an
//!   `Init` or a control op, with its stream index. Nothing else is
//!   logged: the envelopes the pulls spawn are derived again when the
//!   pulls re-run, so each pull takes effect exactly once (DESIGN.md §14).
//! - `checkpoint-<g>.bin` — the shard's vertex store (states, fired
//!   bits, adjacency) at cut `g`, when every shard was quiescent. The
//!   controller takes a cut every `checkpoint_every` fed pulls: every
//!   shard stages its store (`.tmp`, fsync, rename); then the MANIFEST
//!   names `g`, written the same way. A set of checkpoints the MANIFEST
//!   does not name is ignored. The first pull run after a new cut starts
//!   its WAL and deletes the older cut's files, and a checkpoint deletes
//!   those of the cuts before the named one. A crash at any step leaves
//!   the files of one named cut whole.
//!
//! Recovery, a cold [`crate::Engine::open`] and a rollback after a panic
//! alike, restores every shard's checkpoint of the named cut and re-runs
//! its WAL through the pull path.
//!
//! WAL records are length-prefixed frames: `len: u32 | crc32: u32 |
//! payload`, CRC over the payload. A pull frame's payload is `tag | op:
//! u8 | index: u64 | src | dst | weight`, and its op byte says what was
//! pulled: 0 an edge add, 1 an edge removal, 2 an `Init` of `src`, and 3,
//! 4, 5 a Prime, Flood or Clear control op whose mask is `src`. Any other
//! tag or op byte, and a frame with bytes left over after its fields,
//! fail the read. A read stops at the first frame whose length or CRC
//! does not check out (a torn tail from a mid-write crash), and the next
//! append truncates it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::algorithm::Algorithm;
use crate::config::EngineConfig;
use crate::encoding::{decode_framed, get_frame, invalid, put_framed, take, Codec};
use crate::event::Pull;
use crate::metrics::ShardMetrics;
use crate::storage::DenseStore;
use remo_store::{Adjacency, EdgeData};

/// Runtime durability selection, carried by
/// [`EngineConfig`]. Constructed with
/// [`DurabilityConfig::new`] and customized through the builder methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory for the engine's durable state (one subdirectory
    /// per shard plus a `MANIFEST`). Created on first use.
    pub dir: PathBuf,
    /// Pulls fed between cuts. Smaller = shorter re-run after a crash,
    /// more checkpoint I/O and more quiescent pauses of ingest.
    pub checkpoint_every: u64,
    /// Fsync the WAL at each pull run's commit. Off trades crash
    /// durability (a `kill -9` may lose the un-synced tail) for speed;
    /// panic recovery within a live process is unaffected either way.
    pub fsync: bool,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with defaults: a cut every 4096 pulls,
    /// fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 4096,
            fsync: true,
        }
    }

    /// Sets the cut interval in fed pulls (minimum 1).
    pub fn checkpoint_every(mut self, pulls: u64) -> Self {
        self.checkpoint_every = pulls.max(1);
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

/// Appends one vertex's out-edges in the checkpoint format: the degree,
/// then `neighbour | weight` per edge. Every [`EdgeData`] payload writes
/// both words (a payload that stores no weight writes 1), so the format
/// does not depend on the algorithm's payload.
pub(crate) fn put_adjacency<E: EdgeData>(out: &mut Vec<u8>, adj: &Adjacency<E>) {
    (adj.degree() as u32).encode(out);
    for (nbr, e) in adj.iter() {
        nbr.encode(out);
        e.weight().encode(out);
    }
}

/// Reads back what [`put_adjacency`] wrote, rebuilding each entry with
/// [`EdgeData::new`] — the slab and its position index are rebuilt, not
/// copied.
pub(crate) fn get_adjacency<E: EdgeData>(r: &mut &[u8]) -> io::Result<Adjacency<E>> {
    let degree = u32::decode(r)?;
    let mut adj = Adjacency::new();
    for _ in 0..degree {
        let (nbr, weight) = (u64::decode(r)?, u64::decode(r)?);
        adj.insert(nbr, E::new(weight));
    }
    Ok(adj)
}

// ---- the pull log ----------------------------------------------------

/// One durable shard's log, whole: its WAL handle, the cut that WAL
/// belongs to, and the frames not yet committed.
pub(crate) struct Log {
    root: PathBuf,
    shard: usize,
    fsync: bool,
    /// `wal-<cut>.log` and its cut, positioned after its valid prefix;
    /// opened by the first pull run after a restore or a new cut, inside
    /// the supervised region, so an open failure is a shard panic.
    wal: Option<(u64, File)>,
    /// Frames appended since the last commit; nothing in here is visible
    /// to recovery yet.
    buf: Vec<u8>,
}

/// An algorithm's vertex store, as checkpoints write and restore it.
type Store<A> = DenseStore<<A as Algorithm>::State, <A as Algorithm>::Edge>;

/// Unwraps a durable-state IO result; a failure kills the shard with a
/// message naming the step.
fn or_die<T>(r: io::Result<T>, what: &str, shard: usize) -> T {
    r.unwrap_or_else(|e| panic!("durability: {what} failed on shard {shard}: {e}"))
}

impl Log {
    /// Shard `shard`'s log under `config`; `None` when durability is off.
    pub(crate) fn for_shard(config: &EngineConfig, shard: usize) -> Option<Self> {
        let d = config.durability.as_ref()?;
        Some(Log {
            root: d.dir.clone(),
            shard,
            fsync: d.fsync,
            wal: None,
            buf: Vec::new(),
        })
    }

    /// Logs a pull run, each pull with its stream index, in the WAL of
    /// `cut`, and commits it once, before the first envelope any of them
    /// spawns exists and before a control pull's sweep runs. The first run
    /// after a new cut opens its WAL and deletes the older cut's files.
    pub(crate) fn log_pulls(
        &mut self,
        cut: u64,
        run: impl Iterator<Item = (Pull, u64)>,
        m: &mut ShardMetrics,
    ) {
        let shard = self.shard;
        let file = match &mut self.wal {
            Some((open, file)) if *open == cut => file,
            wal => {
                &mut wal
                    .insert((
                        cut,
                        or_die(open_wal(&self.root, shard, cut), "WAL open", shard),
                    ))
                    .1
            }
        };
        for (pull, index) in run {
            self.buf.extend_from_slice(&[0u8; 8]);
            let start = self.buf.len();
            let (op, words) = pull.encode();
            self.buf.extend_from_slice(&[TAG_PULL, op]);
            index.encode(&mut self.buf);
            for w in words {
                w.encode(&mut self.buf);
            }
            let len = (self.buf.len() - start) as u32;
            let crc = crc32(&self.buf[start..]);
            self.buf[start - 8..start - 4].copy_from_slice(&len.to_le_bytes());
            self.buf[start - 4..start].copy_from_slice(&crc.to_le_bytes());
            m.wal_records_appended += 1;
        }
        let mut written = file.write_all(&self.buf);
        if self.fsync {
            written = written.and_then(|()| file.sync_data());
        }
        or_die(written, "WAL commit", shard);
        m.wal_bytes += self.buf.len() as u64;
        self.buf.clear();
    }

    /// Writes `store` as this shard's checkpoint of cut `cut`, headed by
    /// the cut, the stream index `next` the engine numbers on from, and
    /// the shard's `seq` and stored `edges`: staged, fsynced, renamed. Not
    /// part of any recovery until the MANIFEST names the cut. The files of
    /// cuts before `cut - 1`, the one the MANIFEST names now, go.
    #[cold]
    pub(crate) fn checkpoint<A: Algorithm>(
        &self,
        header: CkptHeader,
        store: &Store<A>,
        m: &mut ShardMetrics,
    ) {
        let mut body = Vec::with_capacity(64 + store.num_vertices() * 48);
        for w in [header.cut, header.next, header.seq, header.edges] {
            w.encode(&mut body);
        }
        (store.num_vertices() as u64).encode(&mut body);
        store.export_records(&mut |v, live, fired, adj| {
            (v, fired).encode(&mut body);
            put_framed(&mut body, live);
            put_adjacency(&mut body, adj);
        });
        let (root, shard, cut) = (&self.root, self.shard, header.cut);
        let path = ckpt_path(root, shard, cut);
        or_die(publish(&path, &ckpt_file(&body)), "checkpoint write", shard);
        m.checkpoints_written += 1;
        let retired = retire(root, shard, |n| n + 1 >= cut);
        or_die(retired, "checkpoint retire", shard);
    }

    /// Recovery, inside the supervised region: replaces `store` with the
    /// checkpoint of cut `cut` (an empty store at cut 0), and returns its
    /// header (zeros at cut 0) and the pulls of that cut's WAL, to re-run.
    /// Frames not committed are dropped; the next pull run reopens the WAL
    /// and truncates any torn tail.
    #[cold]
    pub(crate) fn restore<A: Algorithm>(
        &mut self,
        cut: u64,
        store: &mut Store<A>,
    ) -> (CkptHeader, Vec<(Pull, u64)>) {
        let shard = self.shard;
        (self.wal, *store) = (None, DenseStore::with_capacity(0));
        self.buf.clear();
        let mut header = CkptHeader::default();
        if cut > 0 {
            let image = read_checkpoint(&self.root, shard, cut)
                .and_then(|b| decode_checkpoint::<A>(&b, cut));
            (header, *store) = or_die(image, "checkpoint read", shard);
        }
        (
            header,
            or_die(read_wal(&self.root, shard, cut), "WAL read", shard),
        )
    }
}

// ---- WAL records -----------------------------------------------------

/// Tag 1 was an envelope frame, logged by the envelope-custody layout
/// (checkpoint version 4 and before); tag 2 an edge pull without a stream
/// index, and tag 3 a claimed control sweep.
const TAG_ENVELOPE: u8 = 1;
/// A pull with its stream index.
const TAG_PULL: u8 = 4;

/// `<root>/shard-<id>/`.
fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

fn wal_path(root: &Path, shard: usize, cut: u64) -> PathBuf {
    shard_dir(root, shard).join(format!("wal-{cut}.log"))
}

/// The payloads of the valid frames at the front of `bytes`, in order,
/// stopping at the first torn or corrupt one.
fn frames(mut bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (len, crc) = (u32::decode(&mut bytes).ok()?, u32::decode(&mut bytes).ok()?);
        let payload = take(&mut bytes, len as usize).ok()?;
        (crc32(payload) == crc).then_some(payload)
    })
}

/// A file's bytes; empty when it does not exist.
fn read_or_empty(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// Deletes every WAL and checkpoint file in a shard's directory whose cut
/// `keep` refuses.
fn retire(root: &Path, shard: usize, keep: impl Fn(u64) -> bool) -> io::Result<()> {
    let dir = shard_dir(root, shard);
    for entry in fs::read_dir(&dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        let of_cut = |stem: &str| {
            let (n, _) = name.strip_prefix(stem)?.split_once('.')?;
            n.parse::<u64>().ok()
        };
        if of_cut("wal-")
            .or_else(|| of_cut("checkpoint-"))
            .is_some_and(|n| !keep(n))
        {
            fs::remove_file(dir.join(&*name))?;
        }
    }
    Ok(())
}

/// Opens (creating if needed) a shard's WAL of cut `cut` for appending,
/// truncated to its valid prefix, and deletes every file of another cut
/// in the shard's directory.
fn open_wal(root: &Path, shard: usize, cut: u64) -> io::Result<File> {
    fs::create_dir_all(shard_dir(root, shard))?;
    retire(root, shard, |n| n == cut)?;
    let path = wal_path(root, shard, cut);
    let keep: u64 = frames(&read_or_empty(&path)?)
        .map(|p| 8 + p.len() as u64)
        .sum();
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(&path)?;
    file.set_len(keep)?;
    file.seek(SeekFrom::Start(keep))?;
    Ok(file)
}

/// Parses one frame's payload. Every field must be there and nothing after
/// them: a frame of another layout (one written before the pull frame lost
/// its 4-byte epoch, say) fails here instead of being misread.
fn parse_frame(mut payload: &[u8]) -> io::Result<(Pull, u64)> {
    let r = &mut payload;
    match u8::decode(r)? {
        TAG_PULL => {}
        TAG_ENVELOPE => {
            return Err(invalid(
                "WAL frame tag 1 is an envelope frame of the custody layout; \
                 this layout logs pull frames only (tag 4)",
            ))
        }
        t => return Err(invalid(&format!("unknown WAL record tag {t}"))),
    }
    let (op, index) = (u8::decode(r)?, u64::decode(r)?);
    let words = [u64::decode(r)?, u64::decode(r)?, u64::decode(r)?];
    let pull = Pull::decode(op, words).ok_or_else(|| invalid(&format!("unknown pull op {op}")))?;
    if !r.is_empty() {
        return Err(invalid("a WAL frame has bytes left over"));
    }
    Ok((pull, index))
}

/// Reads every valid pull in a shard's WAL of cut `cut` (bounded by the
/// cut interval, so an in-memory `Vec` is fine). Stops cleanly at a torn
/// tail.
fn read_wal(root: &Path, shard: usize, cut: u64) -> io::Result<Vec<(Pull, u64)>> {
    frames(&read_or_empty(&wal_path(root, shard, cut))?)
        .map(parse_frame)
        .collect()
}

// ---- checkpoints -----------------------------------------------------

const CKPT_MAGIC: u32 = 0x524D_4350; // "RMCP"
/// Version 2 added the header's stream index; version 3 dropped the
/// header's and every record's snapshot epoch and the record's fork;
/// version 4 dropped the neighbour-cache word of every edge; version 5
/// heads the body with the cut and names the file after it.
const CKPT_VERSION: u32 = 5;

fn ckpt_path(root: &Path, shard: usize, cut: u64) -> PathBuf {
    shard_dir(root, shard).join(format!("checkpoint-{cut}.bin"))
}

/// A checkpoint file: magic, version, the body's CRC and length, the
/// body.
fn ckpt_file(body: &[u8]) -> Vec<u8> {
    let mut file = Vec::with_capacity(16 + body.len());
    for w in [CKPT_MAGIC, CKPT_VERSION, crc32(body), body.len() as u32] {
        w.encode(&mut file);
    }
    file.extend_from_slice(body);
    file
}

/// Writes `bytes` to `path` atomically: to `<path>.tmp`, fsync, rename,
/// fsync the directory. A crash at any point leaves the old file or the
/// new one, never a torn one.
fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new("."));
    fs::create_dir_all(dir)?;
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    fs::rename(&tmp, path)?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads a shard's checkpoint body of cut `cut`, checking its preamble
/// and CRC. A cut the MANIFEST names has one on every shard: a missing one
/// is an error.
fn read_checkpoint(root: &Path, shard: usize, cut: u64) -> io::Result<Vec<u8>> {
    let bytes = fs::read(ckpt_path(root, shard, cut))?;
    let mut r = &bytes[..];
    let (crc, len) = ckpt_preamble(&mut r)?;
    let body = take(&mut r, len)?;
    if crc32(body) != crc {
        return Err(invalid("checkpoint CRC mismatch"));
    }
    Ok(body.to_vec())
}

/// Checks a checkpoint file's magic and version; returns its body's CRC
/// and length.
fn ckpt_preamble(r: &mut &[u8]) -> io::Result<(u32, usize)> {
    if u32::decode(r)? != CKPT_MAGIC {
        return Err(invalid("bad checkpoint magic"));
    }
    let version = u32::decode(r)?;
    if version != CKPT_VERSION {
        return Err(invalid(&format!(
            "bad checkpoint version {version}, expected {CKPT_VERSION}"
        )));
    }
    Ok((u32::decode(r)?, u32::decode(r)? as usize))
}

/// The scalars a checkpoint body starts with.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CkptHeader {
    /// The cut this checkpoint belongs to.
    pub(crate) cut: u64,
    /// The stream index the engine numbered on from at the cut.
    pub(crate) next: u64,
    /// The shard's trigger sequence number.
    pub(crate) seq: u64,
    /// Directed edges stored on the shard.
    pub(crate) edges: u64,
}

fn decode_header(r: &mut &[u8], cut: u64) -> io::Result<CkptHeader> {
    let [c, next, seq, edges] = [
        u64::decode(r)?,
        u64::decode(r)?,
        u64::decode(r)?,
        u64::decode(r)?,
    ];
    let header = CkptHeader {
        cut: c,
        next,
        seq,
        edges,
    };
    if header.cut != cut {
        return Err(invalid(&format!(
            "checkpoint of cut {} under cut {cut}",
            header.cut
        )));
    }
    Ok(header)
}

/// Decodes a checkpoint body of cut `cut` into its header and store.
fn decode_checkpoint<A: Algorithm>(body: &[u8], cut: u64) -> io::Result<(CkptHeader, Store<A>)> {
    let mut r = body;
    let header = decode_header(&mut r, cut)?;
    let vertices = u64::decode(&mut r)?;
    // The header counts the records that follow; each takes more than a
    // byte, so the body's length bounds the allocation.
    let records = usize::try_from(vertices).unwrap_or(usize::MAX);
    let mut store = DenseStore::with_capacity(records.min(body.len()));
    for _ in 0..vertices {
        let (v, fired) = (u64::decode(&mut r)?, u32::decode(&mut r)?);
        let live = decode_framed(get_frame(&mut r)?)?;
        let adj = get_adjacency(&mut r)?;
        store.restore_record(v, live, fired, adj);
    }
    Ok((header, store))
}

/// The stream index a re-opened engine numbers on from: the named cut's
/// `next`, or one past the highest index a WAL of that cut records,
/// whichever is later (0 for a fresh directory). Read before any shard
/// starts: it reads each checkpoint's header and parses each WAL frame, no
/// state is decoded, and a file that does not parse fails the open.
pub(crate) fn resume_index(config: &EngineConfig, cut: u64) -> Result<u64, String> {
    let Some(d) = &config.durability else {
        return Ok(0);
    };
    let shard_index = |shard: usize| -> io::Result<u64> {
        let mut next = 0;
        if cut > 0 {
            // The preamble, then the header.
            let mut head = [0u8; 16 + 32];
            File::open(ckpt_path(&d.dir, shard, cut))?.read_exact(&mut head)?;
            let mut r = &head[..];
            ckpt_preamble(&mut r)?;
            next = decode_header(&mut r, cut)?.next;
        }
        Ok(read_wal(&d.dir, shard, cut)?
            .into_iter()
            .fold(next, |next, (_, index)| next.max(index + 1)))
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

/// The MANIFEST's first line. Layout v1 had no `cut=` line.
const MANIFEST_V2: &str = "remo-manifest v2";

/// The one MANIFEST check, made before any shard starts: reads
/// `<root>/MANIFEST`, refuses a directory an engine of another shape wrote
/// (vertex ownership is a function of the shard count — a different count
/// would silently misassign recovered vertices) or an older layout, and
/// stamps this engine's shape at cut 0 into a fresh directory. Returns the
/// cut the MANIFEST names; `Ok(0)` without touching the disk when
/// durability is off. The `Err` names the directory and, on a mismatch,
/// both shapes or both layouts.
pub(crate) fn claim_manifest(config: &EngineConfig) -> Result<u64, String> {
    let Some(d) = &config.durability else {
        return Ok(0);
    };
    let (dir, shards, undirected) = (d.dir.display(), config.num_shards, config.undirected);
    match read_manifest(&d.dir) {
        Ok(Some((s, u, _))) if (s, u) != (shards, undirected) => Err(format!(
            "{dir} holds state from a {s}-shard undirected={u} engine, \
             but the config asks for {shards} shards undirected={undirected}"
        )),
        Ok(Some((_, _, cut))) => Ok(cut),
        Err(e) => Err(format!("cannot read MANIFEST under {dir}: {e}")),
        Ok(None) => write_manifest(config, 0)
            .map(|()| 0)
            .map_err(|e| format!("cannot write MANIFEST under {dir}: {e}")),
    }
}

/// Names cut `cut` in the MANIFEST of `config`'s directory, atomically.
pub(crate) fn write_manifest(config: &EngineConfig, cut: u64) -> io::Result<()> {
    let Some(d) = &config.durability else {
        return Ok(());
    };
    let (shards, undirected) = (config.num_shards, config.undirected);
    let body = format!("{MANIFEST_V2}\nshards={shards}\nundirected={undirected}\ncut={cut}\n");
    publish(&d.dir.join("MANIFEST"), body.as_bytes())
}

/// Reads `<root>/MANIFEST` as `(shards, undirected, cut)`: `Ok(None)` when
/// absent (fresh directory).
fn read_manifest(root: &Path) -> io::Result<Option<(usize, bool, u64)>> {
    let text = match fs::read_to_string(root.join("MANIFEST")) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let layout = text.lines().next().unwrap_or_default();
    if layout != MANIFEST_V2 {
        return Err(invalid(&format!(
            "MANIFEST layout {layout:?}, expected {MANIFEST_V2:?}"
        )));
    }
    let field = |key: &str| {
        let prefix = format!("{key}=");
        text.lines()
            .find_map(|l| l.strip_prefix(&prefix).map(str::trim))
    };
    let shards = field("shards").and_then(|v| v.parse().ok());
    let undirected = field("undirected").and_then(|v| v.parse().ok());
    let cut = field("cut").and_then(|v| v.parse().ok());
    match (shards, undirected, cut) {
        (Some(s), Some(u), Some(c)) => Ok(Some((s, u, c))),
        _ => Err(invalid("malformed MANIFEST")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ControlKind, ControlOp, TopoEvent, TopoOp};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("remo-wal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// `u64` states.
    struct Level;
    impl Algorithm for Level {
        type State = u64;
        type Edge = ();
    }

    fn config(root: &Path, shards: usize) -> EngineConfig {
        EngineConfig::directed(shards).with_durability(DurabilityConfig::new(root).fsync(false))
    }

    /// Shard `shard`'s log under `root`.
    fn log(root: &Path, shard: usize) -> Log {
        Log::for_shard(&config(root, shard + 1), shard).unwrap()
    }

    fn header(cut: u64, next: u64) -> CkptHeader {
        CkptHeader {
            cut,
            next,
            seq: 11,
            edges: 3,
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

    /// Pulls log one frame each and read back as logged; a checkpoint of
    /// the next cut restores its store and header, and the first pull run
    /// of that cut starts an empty WAL and deletes the older cut's files.
    #[test]
    fn wal_roundtrip_and_reset() {
        let root = tmp_root("roundtrip");
        let mut m = ShardMetrics::default();
        let mut c = log(&root, 0);
        let removal = Pull::Topo(TopoEvent {
            src: 1,
            dst: 2,
            weight: 9,
            op: TopoOp::Remove,
        });
        let flood = Pull::Control(ControlOp {
            kind: ControlKind::Flood,
            mask: 0b101,
        });
        let pulls = [(removal, 17), (Pull::Init(6), 18), (flood, 19)];
        c.log_pulls(0, pulls.into_iter(), &mut m);
        assert_eq!(m.wal_records_appended, 3);
        assert_eq!(
            m.wal_bytes,
            fs::metadata(wal_path(&root, 0, 0)).unwrap().len()
        );
        assert_eq!(read_wal(&root, 0, 0).unwrap(), pulls);

        let mut store: DenseStore<u64, ()> = DenseStore::with_capacity(0);
        let h = store.intern(7);
        *store.parts(h).live = 5;
        c.checkpoint::<Level>(header(1, 20), &store, &mut m);
        assert_eq!(m.checkpoints_written, 1);
        let mut restored = DenseStore::with_capacity(0);
        let (head, replay) = c.restore::<Level>(1, &mut restored);
        assert_eq!(head, header(1, 20));
        assert!(replay.is_empty(), "cut 1 has no WAL yet");
        assert_eq!(restored.get(7).map(|(s, _)| *s), Some(5));
        let (_, replay) = c.restore::<Level>(0, &mut restored);
        assert_eq!((replay.len(), restored.num_vertices()), (3, 0), "cut 0");

        c.log_pulls(1, [(Pull::Init(8), 20)].into_iter(), &mut m);
        assert_eq!(read_wal(&root, 0, 1).unwrap(), [(Pull::Init(8), 20)]);
        assert!(!wal_path(&root, 0, 0).exists(), "cut 0's WAL is gone");
        assert!(ckpt_path(&root, 0, 1).exists());
        // A shard that pulls nothing more keeps at most the named cut's
        // files and the new one's: a checkpoint of cut 3 retires cut 1's.
        c.checkpoint::<Level>(header(2, 20), &store, &mut m);
        assert!(ckpt_path(&root, 0, 1).exists() && wal_path(&root, 0, 1).exists());
        c.checkpoint::<Level>(header(3, 20), &store, &mut m);
        let left: Vec<_> = fs::read_dir(shard_dir(&root, 0)).unwrap().collect();
        assert_eq!(left.len(), 2, "checkpoint-2.bin and checkpoint-3.bin");
        assert!(ckpt_path(&root, 0, 2).exists() && ckpt_path(&root, 0, 3).exists());
        let _ = fs::remove_dir_all(&root);
    }

    /// A re-opened engine numbers on past the named cut's stream index and
    /// every stream index a WAL of that cut records.
    #[test]
    fn resume_index_is_past_every_durable_pull() {
        let root = tmp_root("resume");
        let config = config(&root, 2);
        assert_eq!(resume_index(&EngineConfig::directed(2), 0), Ok(0));
        assert_eq!(resume_index(&config, 0), Ok(0), "a fresh directory");
        let mut m = ShardMetrics::default();
        let pull = Pull::Init(1);
        let store = DenseStore::with_capacity(0);
        for shard in 0..2 {
            log(&root, shard).checkpoint::<Level>(header(1, 40), &store, &mut m);
        }
        log(&root, 0).log_pulls(1, [(pull, 7)].into_iter(), &mut m);
        assert_eq!(resume_index(&config, 1), Ok(40), "the cut's");
        log(&root, 1).log_pulls(1, [(pull, 52), (pull, 9)].into_iter(), &mut m);
        assert_eq!(resume_index(&config, 1), Ok(53), "shard 1's WAL");
        let _ = fs::remove_dir_all(&root);
    }

    /// The panic message of shard 0's restore of cut `cut` under `root`,
    /// which must fail.
    fn restore_failure(root: &Path, cut: u64) -> String {
        let mut c = log(root, 0);
        let mut store = DenseStore::with_capacity(0);
        let restored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.restore::<Level>(cut, &mut store)
        }));
        let Err(err) = restored else {
            panic!("the restore must fail");
        };
        crate::supervision::panic_payload_string(err)
    }

    /// A pull frame whose CRC checks out but whose op byte names no pull
    /// is corrupt: restore fails rather than re-run it as some other pull.
    #[test]
    fn unknown_pull_op_fails_the_restore() {
        let root = tmp_root("pull-op");
        let mut m = ShardMetrics::default();
        log(&root, 0).log_pulls(0, [(Pull::Init(3), 0)].into_iter(), &mut m);
        let path = wal_path(&root, 0, 0);
        let mut bytes = fs::read(&path).unwrap();
        // The op byte follows the frame header and the tag; re-seal the CRC.
        bytes[9] = 6;
        let crc = crc32(&bytes[8..]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let message = restore_failure(&root, 0);
        assert!(message.contains("unknown pull op 6"), "{message}");
        let _ = fs::remove_dir_all(&root);
    }

    /// `payload` as one WAL frame whose length and CRC check out.
    fn seal(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        (payload.len() as u32, crc32(payload)).encode(&mut frame);
        frame.extend_from_slice(payload);
        frame
    }

    /// A checkpoint record whose CRC checks out but whose state bytes are
    /// short, or have bytes left over, fails the restore with a decode
    /// error that names the shard under one `durability:` prefix, instead
    /// of restoring a misread state.
    #[test]
    fn state_bytes_of_the_wrong_length_fail_the_restore() {
        for (len, what) in [(4u32, "truncated payload"), (12, "state bytes left over")] {
            let root = tmp_root("state-len");
            let mut body = Vec::new();
            for w in [1u64, 0, 0, 0, 1, 7] {
                w.encode(&mut body); // the header, one vertex: 7
            }
            0u32.encode(&mut body); // its fired bits
            len.encode(&mut body);
            body.resize(body.len() + len as usize, 7);
            0u32.encode(&mut body); // its degree
            publish(&ckpt_path(&root, 0, 1), &ckpt_file(&body)).unwrap();
            let message = restore_failure(&root, 1);
            assert!(
                message.contains("checkpoint read failed on shard 0") && message.contains(what),
                "{message}"
            );
            assert_eq!(message.matches("durability:").count(), 1, "{message}");
            let _ = fs::remove_dir_all(&root);
        }
    }

    /// A WAL of an older layout fails the read, and so does the open,
    /// instead of re-running a misread pull: a pull frame of checkpoint
    /// version 2 and before (a 4-byte epoch between the op byte and the
    /// stream index has four bytes left over), and an envelope frame of
    /// the custody layout (tag 1, version 4 and before).
    #[test]
    fn an_old_layout_pull_frame_fails_the_read_and_the_open() {
        let (op, words) = Pull::Init(3).encode();
        let mut epoch_pull = vec![TAG_PULL, op];
        0u32.encode(&mut epoch_pull); // the epoch
        5u64.encode(&mut epoch_pull);
        for w in words {
            w.encode(&mut epoch_pull);
        }
        let mut envelope = vec![TAG_ENVELOPE, 3];
        for w in [1u64, 2, 3, 0] {
            w.encode(&mut envelope); // target, visitor, weight, trace tag
        }
        put_framed(&mut envelope, &42u64);
        let cases = [
            (epoch_pull, "left over"),
            (envelope, "tag 1 is an envelope frame of the custody layout"),
        ];
        for (payload, want) in cases {
            let root = tmp_root("old-frame");
            let frame = seal(&payload);
            fs::create_dir_all(shard_dir(&root, 0)).unwrap();
            fs::write(wal_path(&root, 0, 0), &frame).unwrap();
            assert_eq!(frames(&frame).count(), 1, "an intact frame");
            let err = read_wal(&root, 0, 0).expect_err("the read fails");
            assert!(err.to_string().contains(want), "{err}");
            match crate::Engine::open(Level, config(&root, 1)) {
                Err(crate::EngineError::DurabilityMismatch { message }) => {
                    assert!(message.contains(want), "{message}")
                }
                Err(other) => panic!("the open failed for another reason: {other:?}"),
                Ok(_) => panic!("the open must refuse the WAL"),
            }
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let root = tmp_root("torn");
        let mut m = ShardMetrics::default();
        log(&root, 1).log_pulls(0, [(Pull::Init(5), 0)].into_iter(), &mut m);
        // Simulate a crash mid-append: garbage half-frame at the end.
        let path = wal_path(&root, 1, 0);
        let mut bytes = fs::read(&path).unwrap();
        let good = bytes.len();
        bytes.extend_from_slice(&[0x55; 11]);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_wal(&root, 1, 0).unwrap().len(), 1, "the read stops");

        // The next append truncates the tail and lands after the prefix.
        let mut c = log(&root, 1);
        c.log_pulls(0, [(Pull::Init(7), 1)].into_iter(), &mut m);
        assert_eq!(fs::metadata(&path).unwrap().len(), 2 * good as u64);
        assert_eq!(read_wal(&root, 1, 0).unwrap().len(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_staged_then_published_atomically() {
        let root = tmp_root("ckpt");
        let path = ckpt_path(&root, 0, 1);
        let read = || read_checkpoint(&root, 0, 1).ok();
        assert_eq!(read(), None);
        publish(&path, &ckpt_file(b"hello-checkpoint")).unwrap();
        assert_eq!(read().as_deref(), Some(&b"hello-checkpoint"[..]));
        // Re-publishing replaces the file whole.
        publish(&path, &ckpt_file(b"v2")).unwrap();
        assert_eq!(read().as_deref(), Some(&b"v2"[..]));
        // A crash between staging and the rename leaves a staged file
        // nobody reads; the next publish overwrites and moves it.
        fs::write(path.with_extension("tmp"), b"abandoned-after-staging").unwrap();
        assert_eq!(read().as_deref(), Some(&b"v2"[..]));
        publish(&path, &ckpt_file(b"v3")).unwrap();
        assert_eq!(read().as_deref(), Some(&b"v3"[..]));
        assert!(!path.with_extension("tmp").exists(), "nothing left staged");
        let _ = fs::remove_dir_all(&root);
    }

    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Encodings [`Fragile`] has left before its next one panics.
    static ENCODES_LEFT: AtomicU64 = AtomicU64::new(u64::MAX);

    /// A `u64` whose encoding panics once `ENCODES_LEFT` runs out.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Fragile(u64);

    impl Codec for Fragile {
        fn encode(&self, out: &mut Vec<u8>) {
            let left = ENCODES_LEFT.fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1));
            assert!(left.is_ok(), "injected encode failure");
            self.0.encode(out);
        }
        fn decode(bytes: &mut &[u8]) -> io::Result<Self> {
            u64::decode(bytes).map(Fragile)
        }
    }

    /// `Level` over [`Fragile`] states.
    struct FragileLevel;
    impl Algorithm for FragileLevel {
        type State = Fragile;
        type Edge = ();
    }

    /// A checkpoint that dies while it encodes the store writes nothing:
    /// the previous cut's checkpoint and WAL still restore, and the next
    /// attempt at the cut writes it.
    #[test]
    fn panic_while_checkpointing_keeps_previous_checkpoint_and_wal() {
        let root = tmp_root("ckpt-panic");
        let mut c = log(&root, 0);
        let mut m = ShardMetrics::default();
        let mut store: DenseStore<Fragile, ()> = DenseStore::with_capacity(0);
        let h = store.intern(7);
        *store.parts(h).live = Fragile(5);
        c.checkpoint::<FragileLevel>(header(1, 0), &store, &mut m);
        c.log_pulls(1, [(Pull::Init(8), 0)].into_iter(), &mut m);

        let h = store.intern(8);
        *store.parts(h).live = Fragile(42);
        ENCODES_LEFT.store(1, Relaxed);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.checkpoint::<FragileLevel>(header(2, 0), &store, &mut m);
        }));
        assert!(crashed.is_err(), "the second state's encoding panics");
        assert_eq!(m.checkpoints_written, 1);
        assert!(!ckpt_path(&root, 0, 2).exists());

        let mut restored = DenseStore::with_capacity(0);
        let (_, replay) = c.restore::<FragileLevel>(1, &mut restored);
        assert_eq!(restored.num_vertices(), 1, "the first image");
        assert_eq!(replay, [(Pull::Init(8), 0)], "and its WAL");

        ENCODES_LEFT.store(u64::MAX, Relaxed);
        c.checkpoint::<FragileLevel>(header(2, 0), &store, &mut m);
        assert_eq!(m.checkpoints_written, 2);
        let (_, replay) = c.restore::<FragileLevel>(2, &mut restored);
        assert!(replay.is_empty());
        assert_eq!(restored.get(8).map(|(s, _)| *s), Some(Fragile(42)));
        let _ = fs::remove_dir_all(&root);
    }

    /// A checkpoint of the version before this one, and a MANIFEST of the
    /// layout before this one, are refused before anything is decoded: the
    /// read names the version or layout found and the one expected, and
    /// the open fails with it.
    #[test]
    fn an_old_version_checkpoint_fails_the_read_and_the_open() {
        let refusal = |root: &Path| match crate::Engine::open(Level, config(root, 1)) {
            Err(crate::EngineError::DurabilityMismatch { message }) => message,
            Err(other) => panic!("the open failed for another reason: {other:?}"),
            Ok(_) => panic!("the open must refuse the directory"),
        };
        let root = tmp_root("ckpt-v4");
        write_manifest(&config(&root, 1), 1).unwrap();
        let mut body = Vec::new();
        for w in [1u64, 7, 1, 0, 0] {
            w.encode(&mut body); // cut, next, seq, edges, vertices
        }
        let mut file = ckpt_file(&body);
        file[4..8].copy_from_slice(&4u32.to_le_bytes());
        fs::create_dir_all(shard_dir(&root, 0)).unwrap();
        fs::write(ckpt_path(&root, 0, 1), &file).unwrap();
        let want = format!("bad checkpoint version 4, expected {CKPT_VERSION}");
        let err = read_checkpoint(&root, 0, 1).unwrap_err();
        assert_eq!(err.to_string(), want);
        let message = refusal(&root);
        assert!(message.contains(&want), "{message}");

        let v1 = "remo-manifest v1\nshards=1\nundirected=false\n";
        fs::write(root.join("MANIFEST"), v1).unwrap();
        let want = r#"MANIFEST layout "remo-manifest v1", expected "remo-manifest v2""#;
        assert_eq!(read_manifest(&root).unwrap_err().to_string(), want);
        let message = refusal(&root);
        assert!(message.contains(want), "{message}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_checkpoint_is_an_error() {
        let root = tmp_root("ckpt-corrupt");
        let path = ckpt_path(&root, 2, 3);
        publish(&path, &ckpt_file(b"payload")).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint(&root, 2, 3).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_roundtrip() {
        let root = tmp_root("manifest");
        let durable =
            |shards| EngineConfig::undirected(shards).with_durability(DurabilityConfig::new(&root));
        assert_eq!(claim_manifest(&EngineConfig::undirected(4)), Ok(0));
        assert_eq!(read_manifest(&root).unwrap(), None);
        assert_eq!(claim_manifest(&durable(4)), Ok(0));
        assert_eq!(read_manifest(&root).unwrap(), Some((4, true, 0)));
        write_manifest(&durable(4), 6).unwrap();
        assert_eq!(
            claim_manifest(&durable(4)),
            Ok(6),
            "the claim keeps the cut"
        );
        let err = claim_manifest(&durable(3)).unwrap_err();
        assert!(err.contains("4-shard undirected=true") && err.contains("3 shards"));
        assert_eq!(
            read_manifest(&root).unwrap(),
            Some((4, true, 6)),
            "not overwritten"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
