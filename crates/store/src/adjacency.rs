//! Degree-aware adjacency storage: inline edges, then indexed flat lists.
//!
//! DegAwareRHH (§III-B) is "degree aware, and uses a separate, compact data
//! structure for low-degree vertices" while high-degree vertices get hashed
//! duplicate detection. Scale-free graphs make the split pay off: the
//! overwhelming majority of vertices have a handful of edges (insertion is
//! an append, lookup is a short scan of their ids), while the few heavy
//! hitters need O(1) duplicate detection and neighbour lookup.
//!
//! Every vertex keeps its edges the same way — its neighbour ids in one
//! dense run in insertion order, and the payloads in a second run of the
//! same order behind it — and the degree decides where the two runs live
//! and what sits beside them. The 24-byte header holds the first 16 bytes
//! of entries itself, so a vertex of degree ≤ 4 on an unweighted graph (≤ 3
//! on a weighted one whose weights fit in a byte) owns no heap block at
//! all; past that the runs move to a heap *slab*; past
//! [`PROMOTE_BYTES`] (1 KiB) of ids a *position index* joins it, an
//! open-addressing table of slots each naming a position in the slab
//! (RisGraph's "indexed adjacency lists"). A slot is 2 bytes in an index of
//! at most 2^14 slots — every hub below 12 288 edges — and 4 bytes above.
//! The index holds no keys and no values, so a hub costs one entry per edge
//! plus about 2.7–5.3 bytes of index (5.3–10.7 past the switch), and a
//! neighbour scan is a walk of two slices at every degree.
//!
//! | where the entries live | degree, `()` / [`Weight`] byte / [`Weight`] narrow | extra bytes per entry |
//! |---|---|---|
//! | the header | ≤ 4 / ≤ 3 / ≤ 2 | none |
//! | a slab | ≤ 256 / ≤ 256 / ≤ 256 | the slab's unused tail: past 64 entries, at most an eighth of one |
//! | a slab and an index | > 256 / > 256 / > 256 | 2.7–5.3 B of index, plus the tail |
//!
//! Without an index the duplicate check, [`Adjacency::get`] and
//! [`Adjacency::remove`] read the run of ids alone, 16 ids a step with no
//! exit inside a step, which the compiler turns into vector compares on
//! plain x86-64 for narrow ids (wide ones stay scalar, without branches);
//! a weight is read only at the position found. (DESIGN.md
//! §11 "Adjacency layout" has the measurements against the per-hub Robin
//! Hood table this layout replaced and against 4-byte slots at every
//! size, "Low-degree vertices" those of the inline entries, "Index
//! threshold in bytes" those of the threshold and "Id scan" those of the
//! split runs.)
//!
//! An entry has one of three widths ([`EntryWidth`]), chosen per vertex by
//! its contents:
//!
//! | width | a [`Weight`] vertex keeps it while | `()` entry | [`Weight`] entry |
//! |---|---|---|---|
//! | *byte* | every id fits in a `u32` and every weight in a `u8` | — | 5 B: `u32` id, `u8` weight |
//! | *narrow* | every id and weight fits in a `u32` | 4 B: `u32` id | 8 B: `u32` id, `u32` weight |
//! | *wide* | always | 8 B: `u64` id | 16 B: `u64` id, `u64` weight |
//!
//! A `Weight` vertex starts with byte entries and a `()` one with narrow
//! ones. The first weight past `u8::MAX` rewrites a vertex's byte entries
//! narrow, and the first id or weight past `u32::MAX` rewrites its entries
//! wide, each in order and in place; the vertex keeps the wider width
//! until a clone re-derives the width from its entries. The position index
//! names positions, not ids, so it serves every width unchanged. (DESIGN.md
//! §11 "Narrow entries" and "Byte entries" have the measurements.)
//!
//! The header's two layouts share its last 16 bytes through a union, and
//! the slab and index are raw allocations, so this module is where the
//! store's `unsafe` lives; it runs under Miri in CI.
//!
//! What an entry keeps beside the neighbour id is an [`EdgeData`] payload,
//! chosen by the algorithm that owns the store: nothing (`()`) or the edge
//! [`Weight`]. The paper's per-edge copy of the neighbour's last value
//! (`nbrs.set(...)` in Algorithm 3) is not kept: measured against plain BFS
//! it cost more than the updates it suppressed (DESIGN.md §3).

use crate::hash::mix64;
use crate::{VertexId, Weight};
use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, realloc, Layout};
use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr::{self, NonNull};

/// Bytes of neighbour ids past which a vertex gains a position index,
/// counted at the width its ids have: past 256 narrow entries and 128 wide
/// ones, whatever the payload. The count is in bytes of ids because the
/// ids are what a duplicate check scans: up to 16 cache lines of them the
/// scan's O(d) check costs less than an index costs memory (DESIGN.md §11
/// "Index threshold in bytes" has the measurements).
pub const PROMOTE_BYTES: usize = 1024;

/// Slab capacity from which growth is by an eighth instead of doubling.
const GENTLE_GROWTH_FROM: usize = 64;

/// Ids an unindexed scan compares per step.
const SCAN_BLOCK: usize = 16;

/// Bits of [`Adjacency`]'s `cap` word that hold the slab capacity; the five
/// above them hold log2 of the index's slot count, and the top two are
/// [`WORDS`] and [`WIDE`]. A slab of at most 2^25 - 1 entries needs an
/// index of at most 2^26 slots, so the shift fits.
const CAP_BITS: u32 = 25;
const CAP_MASK: u32 = (1 << CAP_BITS) - 1;
const SHIFT_MASK: u32 = 31 << CAP_BITS;

/// The `cap` bit that is set once a weight past a byte has made the
/// vertex's entries narrow. A payload with no byte width never sets it.
const WORDS: u32 = 1 << 30;

/// The `cap` bit that is set once the vertex's entries are wide.
const WIDE: u32 = 1 << 31;

/// Alignment of every slab, whichever width its entries have: a slab is
/// resized in place when its entries widen, and a resize keeps the
/// alignment the block was allocated with.
const SLAB_ALIGN: usize = 8;

/// Slots of the largest index whose slots are `u16`. Its positions take at
/// most 14 bits, which leaves at least two for the tag; a larger index has
/// `u32` slots.
const NARROW_SLOTS: usize = 1 << 14;

/// True when an index of `slots` slots keeps them as `u16`. The width is a
/// function of the slot count alone, so every path that touches an index —
/// probe, growth, `Drop`, `heap_bytes` — derives it from `cap` the same way.
#[inline]
fn is_narrow(slots: usize) -> bool {
    slots <= NARROW_SLOTS
}

/// An index slot, `u16` or `u32`, read and written as a `u32` of which the
/// slot keeps the low [`Slot::ONES`] bits.
trait Slot: Copy {
    /// True for `u16`, the width of an index of at most [`NARROW_SLOTS`].
    const NARROW: bool;

    /// All ones over the slot's width.
    const ONES: u32;

    /// The slot's bits.
    fn get(self) -> u32;

    /// A slot holding `bits`, which fit its width.
    fn new(bits: u32) -> Self;
}

impl Slot for u16 {
    const NARROW: bool = true;
    const ONES: u32 = u16::MAX as u32;

    #[inline]
    fn get(self) -> u32 {
        u32::from(self)
    }

    #[inline]
    fn new(bits: u32) -> Self {
        debug_assert!(bits <= Self::ONES);
        bits as u16
    }
}

impl Slot for u32 {
    const NARROW: bool = false;
    const ONES: u32 = u32::MAX;

    #[inline]
    fn get(self) -> u32 {
        self
    }

    #[inline]
    fn new(bits: u32) -> Self {
        bits
    }
}

/// Where `nbr`'s probe starts in an index of `mask + 1` slots of width `S`,
/// and the tag its slot carries: the low and the high half of one hash, the
/// tag cut to the bits `S` keeps above the position.
#[inline]
fn home_and_tag<S: Slot>(nbr: VertexId, mask: u32) -> (u32, u32) {
    let hash = mix64(nbr);
    (hash as u32 & mask, (hash >> 32) as u32 & !mask & S::ONES)
}

/// Position of `key` in `ids`, compared [`SCAN_BLOCK`] ids a step. A step
/// folds its compares into one flag, with no branch inside it, so the
/// compiler compares a block of `u32` ids in four vector registers (SSE2 on
/// plain x86-64) without intrinsics; only a block that holds `key` is
/// searched again, by [`first_in_block`], for the position. Ids past the
/// last whole block are compared one by one.
#[inline]
fn scan<I: Copy + Eq>(ids: &[I], key: I) -> Option<usize> {
    let (blocks, tail) = ids.as_chunks::<SCAN_BLOCK>();
    for (b, block) in blocks.iter().enumerate() {
        if block.iter().fold(false, |hit, &id| hit | (id == key)) {
            return Some(b * SCAN_BLOCK + first_in_block(block, key));
        }
    }
    let done = blocks.len() * SCAN_BLOCK;
    tail.iter().position(|&id| id == key).map(|i| done + i)
}

/// Position of `key` in a block known to hold it. Kept out of line: inlined,
/// the compiler merges this search into [`scan`]'s compares and leaves most
/// of them scalar.
#[inline(never)]
fn first_in_block<I: Copy + Eq>(block: &[I; SCAN_BLOCK], key: I) -> usize {
    block
        .iter()
        .position(|&id| id == key)
        .expect("the block holds the key")
}

mod sealed {
    /// How a payload sits in a narrow entry, as 32-bit words, which hold it
    /// only while its weight fits in a `u32`, and, for a payload that has
    /// a byte width, in a byte entry, which holds it only while its weight
    /// fits in a `u8`.
    pub trait Narrows: Sized {
        /// True when entries of the payload have a byte width.
        const BYTE: bool;

        /// The payload's words, half the payload's size and aligned to at
        /// most 4, as a `u32` id is.
        type Words: Copy;

        /// The payload's byte, an eighth of the payload's size.
        type Byte: Copy;

        /// The words of `self`, or `None` when its weight needs more than
        /// 32 bits.
        fn narrow(self) -> Option<Self::Words>;

        /// The payload `words` hold.
        fn widen(words: Self::Words) -> Self;

        /// The byte of `self`, or `None` when its weight needs more than 8
        /// bits.
        fn to_byte(self) -> Option<Self::Byte>;

        /// The payload `byte` holds.
        fn from_byte(byte: Self::Byte) -> Self;
    }
}

/// What an adjacency entry stores beside its neighbour id, in an entry
/// that is narrow while the vertex's ids and weights fit in a `u32` and
/// wide after; a [`Weight`] entry is a byte entry, narrower still, while
/// the vertex's ids fit in a `u32` and its weights in a `u8`:
///
/// | payload | entry, byte / narrow / wide | inline in the header, byte / narrow / wide | weight reads |
/// |---|---|---|---|
/// | `()` | — / 4 / 8 B | — / 4 / 2 | 1 |
/// | [`Weight`] | 5 / 8 / 16 B | 3 / 2 / 1 | the weight |
///
/// The trait is sealed: these two are its payloads.
pub trait EdgeData:
    sealed::Narrows + Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static
{
    /// The payload of an edge of `weight`, dropping it where none is kept.
    fn new(weight: Weight) -> Self;

    /// Edge weight (1 where none is stored).
    fn weight(&self) -> Weight;
}

impl sealed::Narrows for () {
    const BYTE: bool = false;
    type Words = ();
    type Byte = ();

    #[inline]
    fn narrow(self) -> Option<()> {
        Some(())
    }

    #[inline]
    fn widen(_words: ()) -> Self {}

    #[inline]
    fn to_byte(self) -> Option<()> {
        Some(())
    }

    #[inline]
    fn from_byte(_byte: ()) -> Self {}
}

impl EdgeData for () {
    #[inline]
    fn new(_weight: Weight) -> Self {}

    #[inline]
    fn weight(&self) -> Weight {
        1
    }
}

impl sealed::Narrows for Weight {
    const BYTE: bool = true;
    type Words = u32;
    type Byte = u8;

    #[inline]
    fn narrow(self) -> Option<u32> {
        u32::try_from(self).ok()
    }

    #[inline]
    fn widen(words: u32) -> Self {
        u64::from(words)
    }

    #[inline]
    fn to_byte(self) -> Option<u8> {
        u8::try_from(self).ok()
    }

    #[inline]
    fn from_byte(byte: u8) -> Self {
        u64::from(byte)
    }
}

impl EdgeData for Weight {
    #[inline]
    fn new(weight: Weight) -> Self {
        weight
    }

    #[inline]
    fn weight(&self) -> Weight {
        *self
    }
}

/// The width a vertex's entries have (see [`EdgeData`]'s table), ordered
/// narrowest first. Only a [`Weight`] vertex has byte entries.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum EntryWidth {
    /// A `u32` id and the weight in a `u8`.
    Byte,
    /// A `u32` id and the payload's 32-bit words.
    Narrow,
    /// A `u64` id and the payload itself.
    Wide,
}

/// One of the widths at which a vertex keeps entries of payload `E`:
/// [`Byte`], [`Narrow`] or [`Wide`]. Storage of capacity `cap` at a width
/// holds `cap` ids of [`Width::Id`], then `cap` payload words of
/// [`Width::Word`]. Every slab operation is generic over it and picks the
/// width once per call from the header's bits, as it picks the index's
/// slot width.
trait Width<E: EdgeData> {
    /// The [`EntryWidth`] this is.
    const WIDTH: EntryWidth;

    /// The header's width bits while the entries are at this width.
    const BITS: u32;

    /// A neighbour id at this width.
    type Id: Copy + Eq;

    /// A payload at this width.
    type Word: Copy;

    /// Entries the header's 16 bytes hold.
    const INLINE: usize;

    /// `nbr` at this width, or `None` when it needs more bits.
    fn id(nbr: VertexId) -> Option<Self::Id>;

    /// `data` at this width, or `None` when its weight needs more bits.
    fn word(data: E) -> Option<Self::Word>;

    /// The neighbour `id` names.
    fn nbr(id: Self::Id) -> VertexId;

    /// The payload `word` holds.
    fn data(word: Self::Word) -> E;
}

/// Entries with ids of `I` and words of `W` the header's 16 bytes hold,
/// checked (where the constant is evaluated, i.e. wherever entries of the
/// width are compiled) to accept the header's alignment of 8 and to keep
/// the words aligned behind the ids at every capacity.
const fn inline_entries<I, W>() -> usize {
    assert!(
        align_of::<I>() <= 8 && align_of::<W>() <= align_of::<I>(),
        "an adjacency id must not need more alignment than the header's 8, nor a word more than an id"
    );
    16 / (size_of::<I>() + size_of::<W>())
}

/// Bytes of an entry of `E` at the width the [`WORDS`] and [`WIDE`] bits of
/// `cap` name: a `u32` id and an eighth of the payload (its byte) while
/// neither is set, a `u32` id and half the payload (its 32-bit words) once
/// `WORDS` is, a `u64` id and the payload once `WIDE` is. A payload with no
/// byte width is empty, so its entries take the narrow 4 bytes with or
/// without `WORDS`. The size depends on `E`'s alone, so `Drop` frees a slab
/// of any width with no `EdgeData` bound; each width's `INLINE` checks it.
const fn entry_bytes<E>(cap: u32) -> usize {
    if cap & WIDE != 0 {
        8 + size_of::<E>()
    } else if cap & WORDS != 0 {
        4 + size_of::<E>() / 2
    } else {
        4 + size_of::<E>() / 8
    }
}

/// Entries whose neighbour ids fit in a `u32` and whose weights fit in a
/// `u8`: `u32` ids and the payload's byte. Only [`Weight`] has them.
enum Byte {}

/// Entries whose neighbour ids and weights fit in a `u32`: `u32` ids and
/// the payload's 32-bit words.
enum Narrow {}

/// Entries of any id and weight: `u64` ids and the payload itself.
enum Wide {}

impl<E: EdgeData> Width<E> for Byte {
    const WIDTH: EntryWidth = EntryWidth::Byte;
    const BITS: u32 = 0;
    type Id = u32;
    type Word = E::Byte;
    const INLINE: usize = {
        assert!(
            4 + size_of::<E::Byte>() == entry_bytes::<E>(0),
            "a byte entry is a u32 id and an eighth of the payload"
        );
        inline_entries::<u32, E::Byte>()
    };

    #[inline]
    fn id(nbr: VertexId) -> Option<u32> {
        u32::try_from(nbr).ok()
    }

    #[inline]
    fn word(data: E) -> Option<E::Byte> {
        data.to_byte()
    }

    #[inline]
    fn nbr(id: u32) -> VertexId {
        VertexId::from(id)
    }

    #[inline]
    fn data(word: E::Byte) -> E {
        E::from_byte(word)
    }
}

impl<E: EdgeData> Width<E> for Narrow {
    const WIDTH: EntryWidth = EntryWidth::Narrow;
    const BITS: u32 = WORDS;
    type Id = u32;
    type Word = E::Words;
    const INLINE: usize = {
        assert!(
            4 + size_of::<E::Words>() == entry_bytes::<E>(WORDS),
            "a narrow entry is a u32 id and half the payload"
        );
        assert!(
            E::BYTE || entry_bytes::<E>(0) == entry_bytes::<E>(WORDS),
            "a payload with no byte width keeps narrow entries without WORDS"
        );
        inline_entries::<u32, E::Words>()
    };

    #[inline]
    fn id(nbr: VertexId) -> Option<u32> {
        u32::try_from(nbr).ok()
    }

    #[inline]
    fn word(data: E) -> Option<E::Words> {
        data.narrow()
    }

    #[inline]
    fn nbr(id: u32) -> VertexId {
        VertexId::from(id)
    }

    #[inline]
    fn data(word: E::Words) -> E {
        E::widen(word)
    }
}

impl<E: EdgeData> Width<E> for Wide {
    const WIDTH: EntryWidth = EntryWidth::Wide;
    const BITS: u32 = WIDE;
    type Id = VertexId;
    type Word = E;
    const INLINE: usize = {
        assert!(
            8 + size_of::<E>() == entry_bytes::<E>(WIDE),
            "a wide entry is a u64 id and the payload"
        );
        inline_entries::<VertexId, E>()
    };

    #[inline]
    fn id(nbr: VertexId) -> Option<VertexId> {
        Some(nbr)
    }

    #[inline]
    fn word(data: E) -> Option<E> {
        Some(data)
    }

    #[inline]
    fn nbr(id: VertexId) -> VertexId {
        id
    }

    #[inline]
    fn data(word: E) -> E {
        word
    }
}

/// Bytes an entry of `E` takes at width `W`: its id and its word.
const fn entry_size<E: EdgeData, W: Width<E>>() -> usize {
    size_of::<W::Id>() + size_of::<W::Word>()
}

/// Adjacency list of a single vertex: its edges in insertion order and,
/// past [`PROMOTE_BYTES`] of ids, a hash index of positions into them.
///
/// The header is 24 bytes for every payload: the degree, a capacity word,
/// and two words that are either the entries themselves or two pointers.
/// While the entries fit in 16 bytes they live in those two words and the
/// vertex owns no heap block. The first entry that does not fit moves them
/// all to a heap slab, which is then kept for good, as the index is. In
/// the header and in a slab alike the ids come first and the payload words
/// follow, each run as long as the capacity. A [`Weight`] vertex's entries
/// are byte entries until the first weight past `u8::MAX` makes them
/// narrow, and any vertex's are narrow until the first id or weight past
/// `u32::MAX` widens them, each kept for good too (see the module docs).
///
/// The index is a power-of-two linear-probing table kept at a load of at
/// most 3/4, of `u16` slots up to 2^14 of them and `u32` slots past that
/// (about 2.7–5.3 bytes per entry, then 5.3–10.7). A slot is `0` when
/// empty; otherwise its low `log2(len)` bits hold `position + 1` and the
/// bits above them a tag cut from the key's hash (at least two bits in a
/// `u16` slot), so a probe that passes over another key's slot — every step
/// of an absent-key probe — is decided without reading the slab unless the
/// tags happen to collide. The width changes only when the index grows,
/// which rebuilds every slot; removals never shrink an index, so a drained
/// hub keeps its width until it is cloned.
pub struct Adjacency<E = Weight> {
    /// Live entries.
    len: u32,
    /// The slab's capacity in entries in the low [`CAP_BITS`] bits (0
    /// while the entries are inline), log2 of the index's slot count in
    /// the five bits above them (0 while there is no index), then
    /// [`WORDS`] and [`WIDE`].
    cap: u32,
    body: Body,
    entries: PhantomData<E>,
}

/// The header's last 16 bytes: the inline entries, or the two heap blocks.
union Body {
    inline: [MaybeUninit<u64>; 2],
    heap: Heap,
}

/// A slab of `cap & CAP_MASK` entries of the width [`WORDS`] and [`WIDE`]
/// name — that many ids, then that many payload words, the first `len` of
/// each initialised — and an index of `1 << shift` initialised slots, `u16`
/// or `u32` as [`is_narrow`] says (dangling while there is none).
#[derive(Clone, Copy)]
struct Heap {
    slab: NonNull<u8>,
    index: NonNull<u8>,
}

// SAFETY: `len` and `cap` are plain integers, and `body` holds either
// entries by value or the only pointers to two heap blocks this
// `Adjacency` owns outright, so it crosses threads exactly as its entries
// do.
unsafe impl<E: Send> Send for Adjacency<E> {}
unsafe impl<E: Sync> Sync for Adjacency<E> {}

impl<E> Default for Adjacency<E> {
    fn default() -> Self {
        Adjacency {
            len: 0,
            cap: 0,
            body: Body {
                inline: [MaybeUninit::uninit(); 2],
            },
            entries: PhantomData,
        }
    }
}

impl<E> Drop for Adjacency<E> {
    fn drop(&mut self) {
        let slab_cap = self.slab_cap();
        if slab_cap == 0 {
            return;
        }
        // SAFETY: a slab capacity means `heap` is the live field, and each
        // block is freed with the layout it was allocated with.
        unsafe {
            let heap = self.body.heap;
            dealloc(heap.slab.as_ptr(), self.slab_layout());
            if self.index_slots() != 0 {
                dealloc(heap.index.as_ptr(), index_layout(self.index_slots()));
            }
        }
    }
}

impl<E: EdgeData> Clone for Adjacency<E> {
    /// The same entries in the same order, in storage sized for the
    /// current degree (so a drained hub's copy may have no index) at the
    /// width the entries need (so a copy narrows once no entry is wide, and
    /// keeps byte entries once no weight is past a byte).
    fn clone(&self) -> Self {
        let mut copy = Self::new();
        for (nbr, data) in self.iter() {
            copy.insert(nbr, data);
        }
        copy
    }
}

impl<E: EdgeData> std::fmt::Debug for Adjacency<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Adjacency")
            .field("entries", &self.iter().collect::<Vec<_>>())
            .field("width", &self.entry_width())
            .field("index_slots", &self.index_slots())
            .finish()
    }
}

/// Layout of a slab of `bytes`.
fn slab_bytes_layout(bytes: usize) -> Layout {
    Layout::from_size_align(bytes, SLAB_ALIGN).expect("adjacency slab size overflows")
}

/// Layout of an index of `slots` slots, each as wide as [`is_narrow`] says.
fn index_layout(slots: usize) -> Layout {
    if is_narrow(slots) {
        Layout::array::<u16>(slots)
    } else {
        Layout::array::<u32>(slots)
    }
    .expect("adjacency index size overflows")
}

/// Allocates a block of `layout`, zeroed when `zeroed`, and aborts as `Vec`
/// does when the allocator fails.
fn alloc_block(layout: Layout, zeroed: bool) -> NonNull<u8> {
    // SAFETY: every caller asks for at least one element of a type that is
    // not zero-sized, so `layout` has a nonzero size.
    let raw = unsafe {
        if zeroed {
            alloc_zeroed(layout)
        } else {
            alloc(layout)
        }
    };
    NonNull::new(raw).unwrap_or_else(|| handle_alloc_error(layout))
}

/// Resizes the slab at `slab`, allocated as `old`, to `new_size` bytes,
/// aborting as `Vec` does when the allocator fails.
///
/// # Safety
/// `slab` must be a live block allocated with `old`, and `new_size` nonzero.
unsafe fn realloc_slab(slab: NonNull<u8>, old: Layout, new_size: usize) -> NonNull<u8> {
    // SAFETY: as the caller promises.
    let raw = unsafe { realloc(slab.as_ptr(), old, new_size) };
    NonNull::new(raw).unwrap_or_else(|| handle_alloc_error(slab_bytes_layout(new_size)))
}

impl<E> Adjacency<E> {
    /// Slab capacity in entries (0 while the entries are inline).
    #[inline]
    fn slab_cap(&self) -> usize {
        (self.cap & CAP_MASK) as usize
    }

    /// Slots of the index (0 while there is none).
    #[inline]
    fn index_slots(&self) -> usize {
        match (self.cap & SHIFT_MASK) >> CAP_BITS {
            0 => 0,
            shift => 1 << shift,
        }
    }

    /// Layout of the slab at the entries' width (size 0 while they are
    /// inline).
    fn slab_layout(&self) -> Layout {
        slab_bytes_layout(self.slab_cap() * entry_bytes::<E>(self.cap))
    }
}

impl<E: EdgeData> Adjacency<E> {
    /// Creates an empty adjacency list (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of out-edges.
    pub fn degree(&self) -> usize {
        self.len as usize
    }

    /// True when this vertex has no out-edges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The width of the entries, from two bits of the header: a payload
    /// with no byte width is narrow until it is wide.
    /// Exposed for tests and benches.
    #[inline]
    pub fn entry_width(&self) -> EntryWidth {
        if self.cap & WIDE != 0 {
            EntryWidth::Wide
        } else if E::BYTE && self.cap & WORDS == 0 {
            EntryWidth::Byte
        } else {
            EntryWidth::Narrow
        }
    }

    /// True when the position index exists, i.e. an insert has left more
    /// than [`PROMOTE_BYTES`] of ids at some point (removals never drop
    /// the index).
    /// Exposed for tests and benches.
    pub fn is_promoted(&self) -> bool {
        self.index_slots() != 0
    }

    /// Inserts the edge `-> nbr` with `data`. Returns `true` when the edge
    /// is new, `false` when it already existed (its payload is then
    /// replaced in place, matching the paper's attribute-update semantics).
    pub fn insert(&mut self, nbr: VertexId, data: E) -> bool {
        self.upsert(nbr, data, |_| data)
    }

    /// Inserts the edge `-> nbr`; a re-add keeps the **minimum** of the
    /// stored and the new weight (where a weight is stored). Returns
    /// `true` when the edge is new.
    ///
    /// This is the engine's topology-maintenance entry point: §II-B only
    /// supports edge updates "limited to reducing edge weight", and making
    /// the surviving weight the min of everything ever added keeps the
    /// final topology deterministic when the two orientations of an
    /// undirected edge carry different weights and race in from different
    /// shards' streams (plain last-wins [`Adjacency::insert`] would leave
    /// whichever arrived last — an arrival-order artifact).
    pub fn insert_weight_min(&mut self, nbr: VertexId, data: E) -> bool {
        self.upsert(nbr, data, |old| E::new(old.weight().min(data.weight())))
    }

    /// Removes the edge `-> nbr`, returning its payload if it existed. The
    /// last entry takes the removed one's position.
    /// (Used by the decremental extension; the core paper is add-only.)
    pub fn remove(&mut self, nbr: VertexId) -> Option<E> {
        match self.entry_width() {
            EntryWidth::Byte => self.remove_as::<Byte>(nbr),
            EntryWidth::Narrow => self.remove_as::<Narrow>(nbr),
            EntryWidth::Wide => self.remove_as::<Wide>(nbr),
        }
    }

    /// Payload of the edge `-> nbr`, if present.
    pub fn get(&self, nbr: VertexId) -> Option<E> {
        match self.entry_width() {
            EntryWidth::Byte => self.get_as::<Byte>(nbr),
            EntryWidth::Narrow => self.get_as::<Narrow>(nbr),
            EntryWidth::Wide => self.get_as::<Wide>(nbr),
        }
    }

    /// Iterates `(neighbour, payload)` in insertion order (a removal moves
    /// the then-last edge into the removed one's place), by value at
    /// any width.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (VertexId, E)> + '_ {
        match self.entry_width() {
            EntryWidth::Byte => {
                let (ids, words) = self.runs::<Byte>();
                Iter::Byte(ids.iter().zip(words))
            }
            EntryWidth::Narrow => {
                let (ids, words) = self.runs::<Narrow>();
                Iter::Narrow(ids.iter().zip(words))
            }
            EntryWidth::Wide => {
                let (ids, words) = self.runs::<Wide>();
                Iter::Wide(ids.iter().zip(words))
            }
        }
    }

    /// Heap footprint in bytes: the slab plus the index, exactly as
    /// allocated (0 while the entries are inline).
    pub fn heap_bytes(&self) -> usize {
        self.slab_layout().size() + index_layout(self.index_slots()).size()
    }

    /// [`Self::heap_bytes`] in three parts: the live entries in the slab,
    /// the slab's unused tail, and the index (all 0 while the entries are
    /// inline). Exposed for benches.
    pub fn heap_split(&self) -> (usize, usize, usize) {
        let slab = self.slab_layout().size();
        let entries = match self.slab_cap() {
            0 => 0,
            cap => slab / cap * self.degree(),
        };
        (
            entries,
            slab - entries,
            index_layout(self.index_slots()).size(),
        )
    }

    /// Entries at width `W` the vertex holds before its storage must grow.
    #[inline]
    fn capacity<W: Width<E>>(&self) -> usize {
        match self.slab_cap() {
            0 => W::INLINE,
            cap => cap,
        }
    }

    /// Where the storage of entries at width `W` starts, the header's
    /// inline words or the slab, and the byte offset of its words.
    #[inline]
    fn storage<W: Width<E>>(&self) -> (*const u8, usize) {
        assert!(W::WIDTH == self.entry_width(), "entry width");
        let base: *const u8 = if self.slab_cap() == 0 {
            debug_assert!(self.degree() <= W::INLINE);
            (&raw const self.body.inline).cast()
        } else {
            // SAFETY: a slab capacity means `heap` is the live field.
            unsafe { self.body.heap.slab.as_ptr() }
        };
        (base, self.capacity::<W>() * size_of::<W::Id>())
    }

    /// [`Self::storage`] for writing.
    #[inline]
    fn storage_mut<W: Width<E>>(&mut self) -> (*mut u8, usize) {
        assert!(W::WIDTH == self.entry_width(), "entry width");
        let base: *mut u8 = if self.slab_cap() == 0 {
            (&raw mut self.body.inline).cast()
        } else {
            // SAFETY: a slab capacity means `heap` is the live field.
            unsafe { self.body.heap.slab.as_ptr() }
        };
        (base, self.capacity::<W>() * size_of::<W::Id>())
    }

    /// The live ids and the live words, in insertion order, which must be
    /// at width `W`.
    #[inline]
    fn runs<W: Width<E>>(&self) -> (&[W::Id], &[W::Word]) {
        let (base, words) = self.storage::<W>();
        let len = self.degree();
        // SAFETY: the storage holds `capacity` ids then `capacity` words at
        // the width `WIDE` names, the first `len` of each initialised.
        // Inline ones fit the header (`len <= INLINE` while there is no
        // slab), whose alignment of 8 `INLINE` has checked the id accepts;
        // a slab is aligned to 8, and the words, which need no more
        // alignment than an id, start at a whole number of ids.
        unsafe {
            (
                std::slice::from_raw_parts(base.cast(), len),
                std::slice::from_raw_parts(base.add(words).cast(), len),
            )
        }
    }

    /// The live ids and words mutably, which must be at width `W`.
    #[inline]
    fn runs_mut<W: Width<E>>(&mut self) -> (&mut [W::Id], &mut [W::Word]) {
        let len = self.degree();
        let (base, words) = self.storage_mut::<W>();
        // SAFETY: as in `runs`; the two runs never overlap, since the ids
        // end at `len` ids and the words start at `capacity >= len`.
        unsafe {
            (
                std::slice::from_raw_parts_mut(base.cast(), len),
                std::slice::from_raw_parts_mut(base.add(words).cast(), len),
            )
        }
    }

    /// Slots of the index, checked to exist and to be `S` wide.
    #[inline]
    fn slots_as<S: Slot>(&self) -> usize {
        let slots = self.index_slots();
        assert!(slots != 0 && S::NARROW == is_narrow(slots), "index width");
        slots
    }

    /// The index's slots, which must exist and be `S`.
    #[inline]
    fn index<S: Slot>(&self) -> &[S] {
        let slots = self.slots_as::<S>();
        // SAFETY: an index exists only beside a slab, so `heap` is the live
        // field; it was allocated as `slots` zeroed slots of the width
        // `is_narrow` names, which `slots_as` has checked is `S`.
        unsafe { std::slice::from_raw_parts(self.body.heap.index.as_ptr().cast(), slots) }
    }

    /// The index's slots mutably, which must exist and be `S`.
    #[inline]
    fn index_mut<S: Slot>(&mut self) -> &mut [S] {
        let slots = self.slots_as::<S>();
        // SAFETY: as in `index`.
        unsafe { std::slice::from_raw_parts_mut(self.body.heap.index.as_ptr().cast(), slots) }
    }

    /// The live ids, which must be at width `W`, and the index, which must
    /// exist and be `S`, the index borrowed mutably beside them.
    #[inline]
    fn ids_and_index_mut<S: Slot, W: Width<E>>(&mut self) -> (&[W::Id], &mut [S]) {
        let slots = self.slots_as::<S>();
        let ids: *const [W::Id] = self.runs::<W>().0;
        // SAFETY: as in `runs` and `index`. The two never overlap: an index
        // is its own block beside the slab.
        unsafe {
            (
                &*ids,
                std::slice::from_raw_parts_mut(self.body.heap.index.as_ptr().cast(), slots),
            )
        }
    }

    /// Finds `nbr` among entries at width `W`: `Ok(position)`, or
    /// `Err((slot, tag))` — the empty index slot that ended the probe and
    /// the tag to write there (both meaningless while there is no index).
    /// The ids are all it reads.
    #[inline]
    fn locate<W: Width<E>>(&self, id: W::Id) -> Result<usize, (usize, u32)> {
        match self.index_slots() {
            0 => scan(self.runs::<W>().0, id).ok_or((0, 0)),
            slots if is_narrow(slots) => self.probe::<u16, W>(id),
            _ => self.probe::<u32, W>(id),
        }
    }

    /// [`Self::locate`] through an index of `S` slots.
    #[inline]
    fn probe<S: Slot, W: Width<E>>(&self, id: W::Id) -> Result<usize, (usize, u32)> {
        let (ids, index) = (self.runs::<W>().0, self.index::<S>());
        let mask = index.len() as u32 - 1;
        let (mut i, tag) = home_and_tag::<S>(W::nbr(id), mask);
        // Load stays at or below 3/4, so an empty slot ends every probe.
        loop {
            let slot = index[i as usize].get();
            if slot == 0 {
                return Err((i as usize, tag));
            }
            if slot & !mask == tag {
                let pos = (slot & mask) as usize - 1;
                if ids[pos] == id {
                    return Ok(pos);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Position of the edge `-> nbr`, if present, at any width.
    #[cfg(test)]
    fn position(&self, nbr: VertexId) -> Option<usize> {
        fn at<E: EdgeData, W: Width<E>>(a: &Adjacency<E>, nbr: VertexId) -> Option<usize> {
            a.locate::<W>(W::id(nbr)?).ok()
        }
        match self.entry_width() {
            EntryWidth::Byte => at::<E, Byte>(self, nbr),
            EntryWidth::Narrow => at::<E, Narrow>(self, nbr),
            EntryWidth::Wide => at::<E, Wide>(self, nbr),
        }
    }

    /// [`Self::get`] among entries at width `W`.
    #[inline]
    fn get_as<W: Width<E>>(&self, nbr: VertexId) -> Option<E> {
        let pos = self.locate::<W>(W::id(nbr)?).ok()?;
        Some(W::data(self.runs::<W>().1[pos]))
    }

    /// [`Self::remove`] among entries at width `W`.
    fn remove_as<W: Width<E>>(&mut self, nbr: VertexId) -> Option<E> {
        let pos = self.locate::<W>(W::id(nbr)?).ok()?;
        let last = self.degree() - 1;
        Some(match self.index_slots() {
            0 => self.swap_remove::<W>(pos, last),
            slots if is_narrow(slots) => self.remove_indexed::<u16, W>(pos, last),
            _ => self.remove_indexed::<u32, W>(pos, last),
        })
    }

    /// Removes the entry at `pos`, moving the one at `last` into its place.
    fn swap_remove<W: Width<E>>(&mut self, pos: usize, last: usize) -> E {
        let (ids, words) = self.runs_mut::<W>();
        let data = W::data(words[pos]);
        ids[pos] = ids[last];
        words[pos] = words[last];
        self.len -= 1;
        data
    }

    /// Adds the edge `-> nbr` with `data` if absent (`true`), else replaces
    /// the payload it already has with `merge` of it (`false`). A vertex of
    /// byte entries handed a weight past `u8::MAX` is made narrow first, and
    /// a narrow one handed an id or weight past `u32::MAX` is widened.
    #[inline]
    fn upsert(&mut self, nbr: VertexId, data: E, merge: impl FnOnce(E) -> E) -> bool {
        if self.entry_width() == EntryWidth::Byte {
            if let (Some(id), Some(word)) =
                (<Byte as Width<E>>::id(nbr), <Byte as Width<E>>::word(data))
            {
                return self.upsert_as::<Byte>(id, word, merge);
            }
            self.widen::<Byte, Narrow>();
        }
        if self.entry_width() == EntryWidth::Narrow {
            if let (Some(id), Some(word)) = (
                <Narrow as Width<E>>::id(nbr),
                <Narrow as Width<E>>::word(data),
            ) {
                return self.upsert_as::<Narrow>(id, word, merge);
            }
            self.widen::<Narrow, Wide>();
        }
        self.upsert_as::<Wide>(nbr, data, merge)
    }

    /// [`Self::upsert`] of the entry `(id, word)` at width `W`.
    #[inline]
    fn upsert_as<W: Width<E>>(
        &mut self,
        id: W::Id,
        word: W::Word,
        merge: impl FnOnce(E) -> E,
    ) -> bool {
        match self.locate::<W>(id) {
            Ok(pos) => {
                // Every merge keeps or lowers the weight of an entry that
                // fits, or writes the one `upsert` has checked.
                let old = &mut self.runs_mut::<W>().1[pos];
                *old = W::word(merge(W::data(*old))).expect("a merged payload fits its entry");
                false
            }
            Err(vacancy) => {
                self.push::<W>(id, word, vacancy);
                true
            }
        }
    }

    /// Rewrites the entries from width `F` at the wider `T`, in order, and
    /// records `T`. Inline entries are re-pushed at `T`, so those the
    /// header cannot hold at `T` move to a slab of twice its inline entries
    /// (at least four); a slab is resized in place to the same capacity at
    /// `T` and rewritten from the back, words first, then ids. Entry `i`'s
    /// word and id start no earlier at `T` than at `F`, and every entry
    /// before it ends no later at `F` than `i` starts at `T`, so no entry
    /// is overwritten before it is read, and no word at `T` reaches the ids
    /// at `F`. The index names positions, not ids, so it stays as it is.
    #[cold]
    fn widen<F: Width<E>, T: Width<E>>(&mut self) {
        const {
            assert!(
                size_of::<T::Id>() >= size_of::<F::Id>()
                    && size_of::<T::Word>() >= size_of::<F::Word>(),
                "entries widen, never narrow"
            );
        }
        // Neither conversion can fail: `T` holds every id and word `F` does.
        let id = |id: F::Id| T::id(F::nbr(id)).expect("a wider id holds a narrower one");
        let word =
            |word: F::Word| T::word(F::data(word)).expect("a wider word holds a narrower one");
        let (len, cap) = (self.degree(), self.slab_cap());
        if cap == 0 {
            let from = std::mem::take(self);
            self.cap = T::BITS;
            let (ids, words) = from.runs::<F>();
            for (&i, &w) in ids.iter().zip(words) {
                self.push::<T>(id(i), word(w), (0, 0));
            }
            return;
        }
        // SAFETY: a slab capacity means `heap` is the live field; the slab
        // was allocated as `cap` entries at `F`, aligned to 8, and is
        // resized to `cap` at `T` and recorded so before any entry moves, so
        // `Drop` frees it with the layout it has. Ids at `T` start at byte
        // 0 and words at `T` at `cap` ids at `T`, a whole number of ids of
        // either width from the slab's start, so both are aligned. The
        // order of the two loops is the one the doc comment proves safe.
        unsafe {
            let slab = realloc_slab(
                self.body.heap.slab,
                self.slab_layout(),
                cap * entry_size::<E, T>(),
            );
            self.body.heap.slab = slab;
            self.cap = (self.cap & !(WORDS | WIDE)) | T::BITS;
            let base = slab.as_ptr();
            let from_ids = base.cast::<F::Id>();
            let from_words = base.add(cap * size_of::<F::Id>()).cast::<F::Word>();
            let to_ids = base.cast::<T::Id>();
            let to_words = base.add(cap * size_of::<T::Id>()).cast::<T::Word>();
            for i in (0..len).rev() {
                to_words.add(i).write(word(from_words.add(i).read()));
            }
            for i in (0..len).rev() {
                to_ids.add(i).write(id(from_ids.add(i).read()));
            }
        }
    }

    /// Position mask of a non-empty index; its complement selects the tag.
    #[inline]
    fn mask(&self) -> u32 {
        self.index_slots() as u32 - 1
    }

    /// Appends a new edge whose absence [`Self::locate`] just established,
    /// indexing it in the `vacancy` that probe ended on.
    #[inline]
    fn push<W: Width<E>>(&mut self, id: W::Id, word: W::Word, (slot, tag): (usize, u32)) {
        let len = self.degree();
        if len == self.capacity::<W>() {
            self.grow_slab::<W>();
        }
        let (base, words) = self.storage_mut::<W>();
        // SAFETY: `len < capacity` now, so both writes land in the inline
        // words or the slab, past the initialised ids and words.
        unsafe {
            base.cast::<W::Id>().add(len).write(id);
            base.add(words).cast::<W::Word>().add(len).write(word);
        }
        self.len += 1;
        let degree = len + 1;
        let slots = self.index_slots();
        if degree * 4 > slots * 3 {
            // An index fills past 3/4 only beyond the degree it was built
            // at, so past `PROMOTE_BYTES` too: ids never narrow.
            if degree * size_of::<W::Id>() > PROMOTE_BYTES {
                self.grow_index::<W>();
            }
        } else if is_narrow(slots) {
            self.index_mut::<u16>()[slot] = u16::new(tag | degree as u32);
        } else {
            self.index_mut::<u32>()[slot] = u32::new(tag | degree as u32);
        }
    }

    /// Makes room for one more entry at width `W`: inline entries move to a
    /// slab of twice as many (at least four), a slab doubles while small
    /// (8, 16, ... 64 entries), then grows by an eighth so a hub's unused
    /// tail stays under a ninth of it. The words move up behind the new
    /// capacity's ids.
    #[cold]
    fn grow_slab<W: Width<E>>(&mut self) {
        let (len, old) = (self.degree(), self.slab_cap());
        let cap = if old == 0 {
            (2 * W::INLINE).max(4)
        } else if old < GENTLE_GROWTH_FROM {
            2 * old
        } else {
            old + old / 8
        };
        assert!(
            cap <= CAP_MASK as usize,
            "adjacency slab overflows its capacity bits"
        );
        let (size, words) = (cap * entry_size::<E, W>(), cap * size_of::<W::Id>());
        if old == 0 {
            let slab = alloc_block(slab_bytes_layout(size), false);
            let (ids, old_words) = self.runs::<W>();
            // SAFETY: the fresh slab holds `cap > INLINE >= len` ids, then
            // as many words from byte `words` on.
            unsafe {
                ptr::copy_nonoverlapping(ids.as_ptr(), slab.as_ptr().cast(), len);
                ptr::copy_nonoverlapping(old_words.as_ptr(), slab.as_ptr().add(words).cast(), len);
            }
            self.body = Body {
                heap: Heap {
                    slab,
                    index: NonNull::dangling(),
                },
            };
        } else {
            // SAFETY: a slab capacity means `heap` is the live field, and the
            // slab is reallocated from the layout it was allocated with. The
            // resized slab keeps the old bytes, so the `len` words still sit
            // behind `old` ids; `copy` moves them, overlapping or not.
            unsafe {
                let slab = realloc_slab(self.body.heap.slab, self.slab_layout(), size);
                let base = slab.as_ptr();
                ptr::copy(
                    base.add(old * size_of::<W::Id>()).cast::<W::Word>(),
                    base.add(words).cast::<W::Word>(),
                    len,
                );
                self.body.heap.slab = slab;
            }
        }
        self.cap = (self.cap & !CAP_MASK) | cap as u32;
    }

    /// Replaces the index with the smallest power of two of slots that
    /// holds the degree at a load of at most 3/4 — twice the slots of an
    /// index that just passed 3/4 — re-deriving every slot from the ids at
    /// width `W`. This is the one place an index changes width: past
    /// [`NARROW_SLOTS`] the new one has `u32` slots.
    #[cold]
    fn grow_index<W: Width<E>>(&mut self) {
        let old = self.index_slots();
        let slots = (self.degree() * 4).div_ceil(3).next_power_of_two();
        let index = if is_narrow(slots) {
            self.build_index::<u16, W>(slots)
        } else {
            self.build_index::<u32, W>(slots)
        };
        // SAFETY: an index grows only past PROMOTE_BYTES of ids, which no
        // header holds inline, so `heap` is the live field; the old index
        // is freed with the layout it was allocated with.
        unsafe {
            if old != 0 {
                dealloc(self.body.heap.index.as_ptr(), index_layout(old));
            }
            self.body.heap.index = index;
        }
        self.cap = (self.cap & !SHIFT_MASK) | slots.trailing_zeros() << CAP_BITS;
    }

    /// A fresh index of `slots` slots, which must be `S`, naming every
    /// id at width `W`.
    fn build_index<S: Slot, W: Width<E>>(&self, slots: usize) -> NonNull<u8> {
        assert!(S::NARROW == is_narrow(slots), "index width");
        let index = alloc_block(index_layout(slots), true);
        // SAFETY: the block is fresh and zeroed, and `index_layout` sized it
        // as `slots` slots of the width `is_narrow` names, which is `S`.
        let fresh = unsafe { std::slice::from_raw_parts_mut(index.as_ptr().cast::<S>(), slots) };
        let mask = slots as u32 - 1;
        for (pos, &id) in self.runs::<W>().0.iter().enumerate() {
            let (mut i, tag) = home_and_tag::<S>(W::nbr(id), mask);
            while fresh[i as usize].get() != 0 {
                i = (i + 1) & mask;
            }
            fresh[i as usize] = S::new(tag | (pos as u32 + 1));
        }
        index
    }

    /// [`Self::remove`] of the entry at width `W` at `pos` from a vertex
    /// whose index has `S` slots: the entry at `last` takes its place, and
    /// its slot follows.
    fn remove_indexed<S: Slot, W: Width<E>>(&mut self, pos: usize, last: usize) -> E {
        let mask = self.mask();
        let hole = self.slot_of::<S, W>(pos);
        // Re-point the last entry's slot at its new position (a rewrite of
        // `hole` itself when the removed entry is the last).
        let moved = self.slot_of::<S, W>(last);
        let index = self.index_mut::<S>();
        index[moved] = S::new((index[moved].get() & !mask) | (pos as u32 + 1));
        let data = self.swap_remove::<W>(pos, last);
        self.close_hole::<S, W>(hole);
        data
    }

    /// Index slot that names the position `pos` of an id at width `W`.
    fn slot_of<S: Slot, W: Width<E>>(&self, pos: usize) -> usize {
        let (ids, index, mask) = (self.runs::<W>().0, self.index::<S>(), self.mask());
        let (mut i, _) = home_and_tag::<S>(W::nbr(ids[pos]), mask);
        while index[i as usize].get() & mask != pos as u32 + 1 {
            i = (i + 1) & mask;
        }
        i as usize
    }

    /// Empties index slot `hole` by backward-shift deletion: each later slot
    /// of the cluster whose probe path runs through the hole moves into it,
    /// so no tombstone is left and every remaining probe still ends at the
    /// first empty slot. The ids at width `W` must already be in their
    /// final state.
    fn close_hole<S: Slot, W: Width<E>>(&mut self, hole: usize) {
        let mask = self.mask();
        let (ids, index) = self.ids_and_index_mut::<S, W>();
        let mut hole = hole as u32;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = index[j as usize];
            if slot.get() == 0 {
                break;
            }
            let (home, _) = home_and_tag::<S>(W::nbr(ids[(slot.get() & mask) as usize - 1]), mask);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                index[hole as usize] = slot;
                hole = j;
            }
        }
        index[hole as usize] = S::new(0);
    }
}

/// [`Adjacency::iter`] at the width the vertex's entries have.
enum Iter<'a, E: EdgeData> {
    Byte(std::iter::Zip<std::slice::Iter<'a, u32>, std::slice::Iter<'a, E::Byte>>),
    Narrow(std::iter::Zip<std::slice::Iter<'a, u32>, std::slice::Iter<'a, E::Words>>),
    Wide(std::iter::Zip<std::slice::Iter<'a, VertexId>, std::slice::Iter<'a, E>>),
}

impl<E: EdgeData> Iterator for Iter<'_, E> {
    type Item = (VertexId, E);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, E)> {
        match self {
            Iter::Byte(entries) => entries
                .next()
                .map(|(&id, &byte)| (VertexId::from(id), E::from_byte(byte))),
            Iter::Narrow(entries) => entries
                .next()
                .map(|(&id, &words)| (VertexId::from(id), E::widen(words))),
            Iter::Wide(entries) => entries.next().map(|(&id, &data)| (id, data)),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Iter::Byte(entries) => entries.size_hint(),
            Iter::Narrow(entries) => entries.size_hint(),
            Iter::Wide(entries) => entries.size_hint(),
        }
    }
}

impl<E: EdgeData> ExactSizeIterator for Iter<'_, E> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_unindexed() {
        let a: Adjacency = Adjacency::new();
        assert_eq!(a.degree(), 0);
        assert!(a.is_empty());
        assert!(!a.is_promoted());
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn insert_dedupes_and_updates_meta() {
        let mut a = Adjacency::new();
        assert!(a.insert(7, 3));
        assert!(!a.insert(7, 9));
        assert_eq!(a.degree(), 1);
        assert_eq!(a.get(7), Some(9));
    }

    #[test]
    fn insert_weight_min_keeps_cheapest_weight() {
        let mut a = Adjacency::new();
        assert!(a.insert_weight_min(7, 5));
        assert!(!a.insert_weight_min(7, 9));
        assert_eq!(a.get(7), Some(5), "re-add must not raise");
        assert!(!a.insert_weight_min(7, 2));
        assert_eq!(a.get(7), Some(2), "reduction applies");
    }

    #[test]
    fn insert_weight_min_through_the_index() {
        let mut a = Adjacency::new();
        for n in 0..(PROMOTE_BYTES as u64 / 4 + 4) {
            a.insert_weight_min(n, n + 10);
        }
        assert!(a.is_promoted());
        assert!(!a.insert_weight_min(3, 1));
        assert_eq!(a.get(3), Some(1));
        assert!(!a.insert_weight_min(3, 100));
        assert_eq!(a.get(3), Some(1));
    }

    #[test]
    fn promotes_past_threshold_and_preserves_contents() {
        // Narrow ids are 4 bytes: 256 fill `PROMOTE_BYTES`, weights aside.
        let past = PROMOTE_BYTES as u64 / 4;
        let mut a = Adjacency::new();
        for i in 0..past {
            a.insert(i, i + 100);
        }
        assert!(!a.is_promoted());
        a.insert(past, past + 100);
        assert_eq!(a.index_slots(), 512);
        assert_eq!(a.degree(), past as usize + 1);
        for i in 0..=past {
            assert_eq!(a.get(i), Some(i + 100), "neighbour {i}");
        }
    }

    /// A vertex gains its index at the insert that takes its ids past
    /// `PROMOTE_BYTES` at the width they have, whatever the payload, and
    /// the first index is sized for that degree: 257 narrow entries take
    /// 512 slots, where the 64 of a fixed first size would fill up and
    /// never end a probe.
    #[test]
    fn promotes_past_a_kilobyte_of_entries() {
        fn fill<E: EdgeData>(a: &mut Adjacency<E>, ids: std::ops::Range<u64>) {
            for n in ids {
                assert!(a.insert(n * 3, E::new(n + 1)));
            }
        }
        fn all_found<E: EdgeData>(a: &Adjacency<E>, degree: u64) {
            assert_eq!(a.degree(), degree as usize);
            for n in 0..degree {
                assert_eq!(a.get(n * 3), Some(E::new(n + 1)), "neighbour {n}");
            }
            assert_eq!(a.get(1), None);
        }
        // Narrow `()`: 4 bytes an entry, so 256 of them fill 1 KiB.
        let mut unit: Adjacency<()> = Adjacency::new();
        fill(&mut unit, 0..256);
        assert!(!unit.is_promoted());
        fill(&mut unit, 256..257);
        assert_eq!(unit.index_slots(), 512);
        all_found(&unit, 257);
        // Narrow `Weight`: 8 bytes an entry, but still 4 of them an id.
        let mut weight: Adjacency<Weight> = Adjacency::new();
        fill(&mut weight, 0..256);
        assert!(!weight.is_promoted());
        fill(&mut weight, 256..257);
        assert_eq!(weight.index_slots(), 512);
        all_found(&weight, 257);
        // 200 narrow `Weight` entries hold 800 bytes of ids. A re-add with a
        // weight past `u32::MAX` widens them to 1 600 without adding one,
        // and the next insert builds the index.
        let mut widened: Adjacency<Weight> = Adjacency::new();
        fill(&mut widened, 0..200);
        assert!(!widened.insert(15, 1 << 40));
        assert_eq!(widened.entry_width(), EntryWidth::Wide);
        assert!(!widened.is_promoted());
        assert!(widened.insert(1, 7));
        assert_eq!(widened.index_slots(), 512);
        assert_eq!(widened.get(15), Some(1 << 40));
        assert_eq!(widened.get(1), Some(7));
        for n in (0..200).filter(|&n| n != 5) {
            assert_eq!(widened.get(n * 3), Some(n + 1), "neighbour {n}");
        }
    }

    /// Without an index, `locate`'s block scan finds what a walk of
    /// `iter()` finds: at every length from empty to three past two whole
    /// blocks, every position, a miss on each side, and, for each entry,
    /// the id that differs from it only in bit 32 — which a narrow vertex
    /// must not find through its `u32` ids, and a wide one must tell
    /// apart. Both payloads, narrow and wide.
    #[test]
    fn block_scan_agrees_with_a_walk_of_the_entries() {
        fn check<E: EdgeData>(base: VertexId) {
            for len in 0..=2 * SCAN_BLOCK as u64 + 3 {
                let mut a: Adjacency<E> = Adjacency::new();
                for n in 0..len {
                    assert!(a.insert(base + 3 * n + 1, E::new(n + 1)));
                }
                assert!(!a.is_promoted());
                let wide = len > 0 && base > u32::MAX as u64;
                assert_eq!(a.entry_width() == EntryWidth::Wide, wide);
                let ids: Vec<VertexId> = a.iter().map(|(n, _)| n).collect();
                let shadows = ids.iter().map(|&n| n ^ 1 << 32);
                let misses = [base, base + 3 * len + 1];
                for nbr in ids.iter().copied().chain(shadows).chain(misses) {
                    let want = a.iter().position(|(n, _)| n == nbr);
                    assert_eq!(a.position(nbr), want, "{len} entries from {base}: {nbr}");
                    assert_eq!(a.get(nbr), want.map(|i| E::new(i as u64 + 1)));
                }
            }
        }
        check::<()>(0);
        check::<()>(1 << 32);
        check::<Weight>(0);
        check::<Weight>(1 << 32);
    }

    #[test]
    fn dedupe_survives_promotion() {
        let mut a = Adjacency::new();
        for i in 0..300u64 {
            a.insert(i, 1);
        }
        assert!(a.is_promoted());
        for i in 0..300u64 {
            assert!(!a.insert(i, 1), "dup {i} accepted");
        }
        assert_eq!(a.degree(), 300);
    }

    #[test]
    fn iter_is_insertion_order() {
        let mut a = Adjacency::new();
        for i in (0..100u64).rev() {
            a.insert(i, i);
        }
        let seen: Vec<VertexId> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(seen, (0u64..100).rev().collect::<Vec<_>>());
    }

    #[test]
    fn indexed_remove_keeps_every_other_edge_reachable() {
        // Removing each edge in turn from an index at its 3/4 ceiling
        // (192 of 256 slots: wide ids are 8 bytes, so 129 of them promote)
        // runs the backward shift over clusters of every shape, wrap-around
        // included. Under Miri, one victim in seven.
        let n = 192u64;
        let id = |i: u64| (1 << 32) + i * 7919;
        for victim in (0..n).step_by(if cfg!(miri) { 7 } else { 1 }) {
            let mut a = Adjacency::new();
            for i in 0..n {
                a.insert(id(i), i);
            }
            assert_eq!(a.index_slots(), 256);
            assert_eq!(a.remove(id(victim)), Some(victim));
            assert_eq!(a.remove(id(victim)), None);
            for i in (0..n).filter(|&i| i != victim) {
                assert_eq!(a.get(id(i)), Some(i), "lost {i}");
            }
            assert_eq!(a.degree(), n as usize - 1);
        }
    }

    #[test]
    fn drains_below_threshold_and_regrows() {
        let mut a = Adjacency::new();
        for i in 0..500u64 {
            a.insert(i, i);
        }
        for i in 0..495u64 {
            assert_eq!(a.remove(i), Some(i));
        }
        assert_eq!(a.degree(), 5);
        assert!(a.is_promoted(), "the index is kept once built");
        for i in 0..2000u64 {
            let survivor = (495..500).contains(&i);
            assert_eq!(a.insert(i, i + 1), !survivor);
        }
        assert_eq!(a.degree(), 2000);
        for i in 0..2000u64 {
            assert_eq!(a.get(i), Some(i + 1));
        }
    }

    #[test]
    fn footprint_is_the_two_allocations() {
        /// `entry` bytes an entry, so the index comes at `promoted`
        /// entries, in a slab of `slab` (4, 8, ... 64, then by an eighth).
        fn check<E: EdgeData>(data: E, entry: usize, promoted: u64, slab: usize, slots: usize) {
            let mut a = Adjacency::new();
            assert_eq!(a.heap_bytes(), 0);
            for i in 0..promoted {
                a.insert(i, data);
            }
            // The index's slots are two bytes up to 2^14 of them.
            assert_eq!(a.heap_bytes(), slab * entry + slots * 2);
            // Past 64 entries the slab grows by an eighth, not by doubling.
            for i in 0..1000u64 {
                a.insert(i, data);
            }
            // (1000 edges: the index has doubled to 2048 slots.)
            let slab = a.heap_bytes() - 2048 * 2;
            assert!(slab <= 1000 * entry * 9 / 8, "slab {slab} B for 1000 edges");
        }
        // 64, 72, 81, 91, 102, 114, 128, 144, 162, 182, 204, 229, 257.
        check((), 4, 257, 257, 512);
        // Byte entries start at a slab of six: 6, 12, 24, 48, 96, then
        // 108, 121, 136, 153, 172, 193, 217, 244, 274.
        check::<Weight>(1, 5, 257, 274, 512);
        check::<Weight>(255, 5, 257, 274, 512);
        // A weight past a byte keeps narrow entries from the first insert.
        check::<Weight>(256, 8, 257, 257, 512);
    }

    /// The header holds 16 bytes of entries at their width; the next entry
    /// moves them all to a slab of twice as many (at least four), which
    /// stays when the degree falls back. Weights from `weight` on.
    #[test]
    fn low_degree_entries_live_in_the_header() {
        fn check<E: EdgeData>(weight: u64, inline: u64, first_slab: usize) {
            let mut a: Adjacency<E> = Adjacency::new();
            for n in 0..inline {
                assert!(a.insert(n + 10, E::new(weight + n)));
                assert_eq!(a.heap_bytes(), 0, "{inline} inline, edge {n}");
            }
            assert!(a.insert(99, E::new(weight + 7)));
            assert_eq!(a.heap_bytes(), first_slab, "the first slab");
            let want: Vec<VertexId> = (0..inline).map(|n| n + 10).chain([99]).collect();
            assert_eq!(a.iter().map(|(n, _)| n).collect::<Vec<_>>(), want);
            for n in 0..inline {
                assert_eq!(
                    a.get(n + 10).map(|e| e.weight()),
                    Some(E::new(weight + n).weight())
                );
            }
            assert_eq!(
                a.remove(99).map(|e| e.weight()),
                Some(E::new(weight + 7).weight())
            );
            assert_eq!(a.heap_bytes(), first_slab, "the slab is kept");
            assert_eq!(a.degree(), inline as usize);
        }
        check::<()>(1, 4, 8 * 4);
        // Byte entries: three 5-byte entries, then a slab of six.
        check::<Weight>(1, 3, 6 * 5);
        check::<Weight>(248, 3, 6 * 5);
        // Narrow entries: two 8-byte entries, then a slab of four.
        check::<Weight>(256, 2, 4 * 8);
    }

    #[test]
    fn inline_remove_swaps_in_the_last_entry() {
        let mut a: Adjacency<()> = Adjacency::new();
        a.insert(1, ());
        a.insert(2, ());
        assert_eq!(a.remove(1), Some(()));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(2, ())]);
        assert_eq!(a.remove(2), Some(()));
        assert!(a.is_empty());
        assert!(a.insert(3, ()));
        assert_eq!(a.get(3), Some(()));
        assert_eq!(a.heap_bytes(), 0);
    }

    #[test]
    fn clone_keeps_entries_and_order() {
        fn check<E: EdgeData>(degree: u64) {
            let mut a: Adjacency<E> = Adjacency::new();
            for n in 0..degree {
                a.insert(n * 3, E::new(n + 1));
            }
            let mut b = a.clone();
            assert!(b.iter().eq(a.iter()), "degree {degree}");
            assert_eq!(b.heap_bytes(), a.heap_bytes());
            assert_eq!(b.is_promoted(), a.is_promoted());
            // The copy owns its storage.
            assert!(b.insert(1, E::new(1)));
            assert_eq!(b.remove(0).is_some(), degree > 0);
            assert_eq!(a.degree(), degree as usize);
            assert!(a.get(1).is_none());
        }
        for degree in [0, 1, 2, 3, 40, 300] {
            check::<()>(degree);
            check::<Weight>(degree);
        }
    }

    /// One hub grown past the 2^14-slot index, where its slots widen from
    /// `u16` to `u32`, then drained: `get`, `insert_weight_min`, `remove`
    /// and `iter()` order agree with a mirror that `swap_remove`s at every
    /// checkpoint, and the bytes per slot are the width [`is_narrow`]
    /// promises on each side (a width chosen at the wrong size fails here,
    /// and one read at a width it was not written at fails the mirror).
    #[test]
    fn index_widens_past_narrow_slots_and_a_clone_narrows_again() {
        /// Scattered ids, so the index clusters as a real hub's does.
        fn id(n: u64) -> VertexId {
            mix64(n ^ 0xface)
        }
        /// The index's slots and the bytes each takes.
        fn index_shape(a: &Adjacency<Weight>) -> (usize, usize) {
            let slots = a.index_slots();
            (slots, (a.heap_bytes() - a.slab_layout().size()) / slots)
        }
        /// Checks `a` against `mirror` and exercises each operation once at
        /// the front, the middle and the back, keeping the mirror in step;
        /// new neighbours are `id(next)` onwards.
        fn checkpoint(
            a: &mut Adjacency<Weight>,
            mirror: &mut Vec<(VertexId, Weight)>,
            next: &mut u64,
        ) {
            assert!(a.iter().eq(mirror.iter().copied()), "iter() order");
            // Under Miri, which interprets every probe, one entry in 61.
            for &(n, w) in mirror.iter().step_by(if cfg!(miri) { 61 } else { 1 }) {
                assert_eq!(a.get(n), Some(w), "neighbour {n}");
            }
            for k in 0..64 {
                assert_eq!(a.get(id(1 << 40 | k)), None);
            }
            let last = mirror.len() - 1;
            for pos in [0, last / 2, last] {
                let (n, w) = mirror[pos];
                assert!(!a.insert_weight_min(n, w + 5), "re-add of {n}");
                assert_eq!(a.get(n), Some(w), "a re-add must not raise");
                assert!(!a.insert_weight_min(n, w - 1));
                mirror[pos].1 = w - 1;
                assert_eq!(a.get(n), Some(w - 1), "a reduction applies");
            }
            for pos in [last, last / 2, 0] {
                let (n, w) = mirror.swap_remove(pos);
                assert_eq!(a.remove(n), Some(w), "remove {n}");
                assert_eq!(a.get(n), None);
                assert_eq!(a.remove(n), None);
            }
            for w in 7..10 {
                let n = id(*next);
                *next += 1;
                assert!(a.insert_weight_min(n, w));
                mirror.push((n, w));
            }
            assert_eq!(a.degree(), mirror.len());
            assert!(a.iter().eq(mirror.iter().copied()), "iter() order after");
        }

        let full = NARROW_SLOTS * 3 / 4;
        let mut a: Adjacency<Weight> = Adjacency::new();
        let mut mirror = Vec::new();
        let mut next = 0u64;
        for (degree, slots, bytes) in [
            (full, NARROW_SLOTS, 2),
            (full + 1, 2 * NARROW_SLOTS, 4),
            (20_000, 2 * NARROW_SLOTS, 4),
        ] {
            while mirror.len() < degree {
                let (n, w) = (id(next), 100 + next % 1000);
                next += 1;
                assert!(a.insert(n, w));
                mirror.push((n, w));
            }
            assert_eq!(index_shape(&a), (slots, bytes), "{degree}");
            checkpoint(&mut a, &mut mirror, &mut next);
            assert_eq!(index_shape(&a), (slots, bytes), "{degree}");
        }

        // Removals never shrink an index, so the drained hub keeps `u32`.
        while mirror.len() > 12_000 {
            let (n, w) = mirror.swap_remove(0);
            assert_eq!(a.remove(n), Some(w));
        }
        checkpoint(&mut a, &mut mirror, &mut next);
        assert_eq!(index_shape(&a), (2 * NARROW_SLOTS, 4));

        // A clone is sized for the current degree: `u16` slots again.
        let mut b = a.clone();
        assert!(b.iter().eq(a.iter()));
        assert_eq!(index_shape(&b), (NARROW_SLOTS, 2));
        checkpoint(&mut b, &mut mirror, &mut next);
        assert_eq!(index_shape(&b), (NARROW_SLOTS, 2));
    }

    /// Vertices walked through every stage — inline, slab, `u16` index,
    /// `u32` index — each with its entries made wider at one stage by a
    /// weight of 256 (byte to narrow), a weight past `u32::MAX` or an id
    /// past it (either to wide), alone or two in a row, in both orders,
    /// then drained. Across each widening `iter()` order, payloads and
    /// `remove`'s swap order agree with a mirror, the slab keeps its
    /// capacity at the new entry's bytes and the index keeps its slots; the
    /// drained vertex keeps its width, and its clone, which holds no entry
    /// past a byte any more, has byte entries again, while a clone of one
    /// that holds a weight of 256 is narrow.
    #[test]
    fn entries_widen_at_every_stage_and_a_clone_narrows_again() {
        /// What arrives at the stage: a re-add of a live edge with a weight
        /// of 256 or of 2^32, or a new id past `u32::MAX` (weight 255).
        #[derive(Clone, Copy, Debug)]
        enum Event {
            Word,
            WideWeight,
            WideId,
        }
        /// Scattered ids below 2^32.
        fn id(n: u64) -> VertexId {
            mix64(n ^ 0xbeef) >> 32
        }
        /// Slab capacity, index slots and the entries' width.
        fn shape(a: &Adjacency<Weight>) -> (usize, usize, EntryWidth) {
            (a.slab_cap(), a.index_slots(), a.entry_width())
        }
        /// Bytes `a` should own: its slab at the entry width it records,
        /// plus its index.
        fn bytes(a: &Adjacency<Weight>) -> usize {
            let entry = match a.entry_width() {
                EntryWidth::Byte => 5,
                EntryWidth::Narrow => 8,
                EntryWidth::Wide => 16,
            };
            a.slab_cap() * entry + index_layout(a.index_slots()).size()
        }
        /// Entries the header holds at `width`.
        fn inline(width: EntryWidth) -> usize {
            match width {
                EntryWidth::Byte => 3,
                EntryWidth::Narrow => 2,
                EntryWidth::Wide => 1,
            }
        }
        /// Every live neighbour, sampled under Miri, has its payload.
        fn payloads_agree(a: &Adjacency<Weight>, mirror: &[(VertexId, Weight)]) {
            assert!(a.iter().eq(mirror.iter().copied()), "iter() order");
            for &(n, w) in mirror.iter().step_by(if cfg!(miri) { 61 } else { 1 }) {
                assert_eq!(a.get(n), Some(w), "neighbour {n}");
            }
        }

        use Event::*;
        let u32_index = NARROW_SLOTS * 3 / 4 + 1;
        // The degree at which the events arrive: inline (a `Weight` header
        // holds three byte entries), slab, `u16` index (past 256 narrow
        // ids), `u32` index. Under Miri only the first sequence reaches
        // the `u32` index.
        let stages = [2, 10, 300, u32_index];
        let sequences: [&[Event]; 7] = [
            &[WideId],
            &[Word],
            &[WideWeight],
            &[Word, WideId],
            &[Word, WideWeight],
            &[WideId, Word],
            &[WideWeight, Word],
        ];
        for (k, events) in sequences.iter().enumerate() {
            let reached = if cfg!(miri) && k > 0 { 3 } else { 4 };
            for (stage, &at) in stages[..reached].iter().enumerate() {
                let case = format!("{events:?} at stage {stage}");
                let mut a: Adjacency<Weight> = Adjacency::new();
                let mut mirror: Vec<(VertexId, Weight)> = Vec::new();
                let mut want = EntryWidth::Byte;
                for n in 0..u32_index as u64 + 8 {
                    if mirror.len() == at {
                        for (e, &event) in events.iter().enumerate() {
                            let before = shape(&a);
                            let (width, new) = match event {
                                Word => (EntryWidth::Narrow, None),
                                WideWeight => (EntryWidth::Wide, None),
                                WideId => (EntryWidth::Wide, Some((1 << 32 | n, 255))),
                            };
                            if let Some(entry) = new {
                                assert!(a.insert(entry.0, entry.1), "{case}");
                                mirror.push(entry);
                            } else {
                                // Re-add the edge the stage's first event
                                // reaches, at the event's weight.
                                let pos = e * mirror.len() / 2;
                                mirror[pos].1 = if width == EntryWidth::Narrow {
                                    256
                                } else {
                                    1 << 32
                                };
                                assert!(!a.insert(mirror[pos].0, mirror[pos].1), "{case}");
                            }
                            want = want.max(width);
                            let after = shape(&a);
                            assert_eq!(after.2, want, "{case}: event {e}");
                            if stage == 0 && before.0 == 0 {
                                // Past the header at the new width, the
                                // entries move to a slab of four.
                                let slab = if mirror.len() > inline(want) { 4 } else { 0 };
                                assert_eq!((after.0, after.1), (slab, 0), "{case}: event {e}");
                            } else {
                                assert_eq!((after.0, after.1), (before.0, before.1), "{case}");
                            }
                            assert_eq!(a.heap_bytes(), bytes(&a), "{case}");
                            payloads_agree(&a, &mirror);
                        }
                    }
                    let entry = (id(n), 1 + n % 255);
                    assert!(a.insert(entry.0, entry.1));
                    mirror.push(entry);
                }
                assert_eq!(shape(&a).2, want, "{case}");
                if reached == 4 {
                    assert_eq!(a.index_slots(), 2 * NARROW_SLOTS, "{case}");
                }
                assert_eq!(a.heap_bytes(), bytes(&a), "{case}");
                payloads_agree(&a, &mirror);

                // Drain: every entry past a byte first, then all but five
                // of the rest in a scattered order. Each removal moves the
                // last entry into the hole, as the mirror's `swap_remove`
                // does.
                while let Some(k) = mirror
                    .iter()
                    .position(|&(n, w)| n > u32::MAX as u64 || w > 255)
                {
                    let (n, w) = mirror.swap_remove(k);
                    assert_eq!(a.remove(n), Some(w), "remove {n}");
                }
                let mut k = 0;
                while mirror.len() > 5 {
                    let (n, w) = mirror.swap_remove(k);
                    assert_eq!(a.remove(n), Some(w), "remove {n}");
                    if mirror.len().is_multiple_of(4096) || mirror.len() < 8 {
                        assert!(a.iter().eq(mirror.iter().copied()), "swap order");
                    }
                    k = (k + 7919) % mirror.len();
                }
                payloads_agree(&a, &mirror);
                assert_eq!(a.entry_width(), want, "{case}: a removal never narrows");
                assert_eq!(a.heap_bytes(), bytes(&a));

                // Five byte entries: three in the header, then a slab of
                // six. A weight of 256 makes them narrow in place, and a
                // clone of that is narrow too: two in the header, then
                // four, then eight.
                let mut b = a.clone();
                payloads_agree(&b, &mirror);
                assert_eq!(
                    shape(&b),
                    (6, 0, EntryWidth::Byte),
                    "{case}: the clone narrows"
                );
                assert_eq!(b.heap_bytes(), 6 * 5);
                assert!(!b.insert(mirror[2].0, 256));
                mirror[2].1 = 256;
                assert_eq!(shape(&b), (6, 0, EntryWidth::Narrow), "{case}");
                assert_eq!(b.heap_bytes(), 6 * 8);
                let c = b.clone();
                payloads_agree(&c, &mirror);
                assert_eq!(shape(&c), (8, 0, EntryWidth::Narrow), "{case}");
                assert_eq!(c.heap_bytes(), 8 * 8);
            }
        }
    }

    /// A weight past `u32::MAX` widens the vertex as a wide id does.
    #[test]
    fn narrow_entries_widen_on_a_wide_weight() {
        let mut a: Adjacency<Weight> = Adjacency::new();
        for n in 0..6u64 {
            assert!(a.insert(n, n + 300));
        }
        assert_eq!(a.entry_width(), EntryWidth::Narrow);
        assert_eq!(a.heap_bytes(), 8 * 8);
        assert!(!a.insert_weight_min(4, 1 << 40));
        assert_eq!(
            a.entry_width(),
            EntryWidth::Wide,
            "a wide weight widens, even one min() drops"
        );
        assert_eq!(a.heap_bytes(), 8 * 16);
        assert_eq!(a.get(4), Some(304));
        assert!(!a.insert(5, 1 << 40));
        assert_eq!(a.get(5), Some(1 << 40));
        let want: Vec<u64> = (0..6).collect();
        assert_eq!(a.iter().map(|(n, _)| n).collect::<Vec<_>>(), want);
    }

    #[test]
    fn remove_below_and_above_threshold() {
        let mut a: Adjacency = Adjacency::new();
        a.insert(1, 5);
        assert_eq!(a.remove(1), Some(5));
        assert_eq!(a.remove(1), None);
        assert!(a.is_empty());

        for i in 0..300u64 {
            a.insert(i, 1);
        }
        assert!(a.is_promoted());
        assert!(a.remove(3).is_some());
        assert_eq!(a.degree(), 299);
        assert!(a.get(3).is_none());
    }
}
