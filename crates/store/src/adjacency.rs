//! Degree-aware adjacency storage: inline edges, then indexed flat lists.
//!
//! DegAwareRHH (§III-B) is "degree aware, and uses a separate, compact data
//! structure for low-degree vertices" while high-degree vertices get hashed
//! duplicate detection. Scale-free graphs make the split pay off: the
//! overwhelming majority of vertices have a handful of edges (insertion is
//! an append, lookup is a short linear scan within one or two cache lines),
//! while the few heavy hitters need O(1) duplicate detection and neighbour
//! lookup.
//!
//! Every vertex keeps its edges the same way — one dense run of
//! `(neighbour, payload)` entries in insertion order — and the degree
//! decides where that run lives and what sits beside it. The 24-byte
//! header holds the first 16 bytes of entries itself, so a vertex of
//! degree ≤ 4 on an unweighted graph owns no heap block at all; past that
//! the entries move to a heap *slab*; past [`PROMOTE_BYTES`] (1 KiB) of
//! entries a *position index* joins it, an open-addressing table of slots
//! each naming a position in the slab (RisGraph's "indexed adjacency
//! lists"). A slot is 2 bytes in an index of at most 2^14 slots — every
//! hub below 12 288 edges — and 4 bytes above. The index holds no keys
//! and no values, so a hub costs one entry per edge plus about 2.7–5.3
//! bytes of index (5.3–10.7 past the switch), and a neighbour scan is a
//! slice walk at every degree. (DESIGN.md §11 "Adjacency layout" has the
//! measurements against the per-hub Robin Hood table this layout replaced
//! and against 4-byte slots at every size, "Low-degree vertices" those of
//! the inline entries, and "Index threshold in bytes" those of the
//! threshold.)
//!
//! An entry has one of two widths, chosen per vertex by its contents. While
//! every neighbour id and every weight the vertex holds fits in a `u32`,
//! its entries are *narrow*: a `u32` id and the payload in 32-bit words.
//! The first id or weight past `u32::MAX` rewrites the vertex's entries
//! *wide*, `(VertexId, E)`, in order and in place, and the vertex stays
//! wide until a clone re-derives the width from its entries. The position
//! index names positions, not ids, so it serves both widths unchanged.
//! (DESIGN.md §11 "Narrow entries" has the measurements.)
//!
//! The header's two layouts share its last 16 bytes through a union, and
//! the slab and index are raw allocations, so this module is where the
//! store's `unsafe` lives; it runs under Miri in CI.
//!
//! What an entry keeps beside the neighbour id is an [`EdgeData`] payload,
//! chosen by the algorithm that owns the store: nothing (`()`, 4-byte
//! entries, 8 wide) or the edge [`Weight`] (8 bytes, 16 wide). The paper's
//! per-edge copy of the neighbour's last value (`nbrs.set(...)` in
//! Algorithm 3) is not kept: measured against plain BFS it cost more than
//! the updates it suppressed (DESIGN.md §3).

use crate::hash::mix64;
use crate::{VertexId, Weight};
use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, realloc, Layout};
use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr::{self, NonNull};

/// Bytes of entries past which a vertex gains a position index, counted at
/// the width its entries have: past 256 narrow `()` entries and 128
/// [`Weight`] ones (128 and 64 wide). The count is in bytes
/// because what a scan reads is bytes: up to 16 cache lines the scan's
/// O(d) duplicate check costs less than an index costs memory (DESIGN.md
/// §11 "Index threshold in bytes" has the measurements).
pub const PROMOTE_BYTES: usize = 1024;

/// Slab capacity from which growth is by half instead of doubling.
const GENTLE_GROWTH_FROM: usize = 64;

/// Bits of [`Adjacency`]'s `cap` word that hold the slab capacity; the five
/// above them hold log2 of the index's slot count, and the top bit is
/// [`WIDE`]. A slab of at most 2^26 - 1 entries needs an index of at most
/// 2^27 slots, so the shift fits.
const CAP_BITS: u32 = 26;
const CAP_MASK: u32 = (1 << CAP_BITS) - 1;
const SHIFT_MASK: u32 = 31 << CAP_BITS;

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

mod sealed {
    /// How a payload sits in a narrow entry: as 32-bit words, which hold it
    /// only while its weight fits in a `u32`.
    pub trait Narrows: Sized {
        /// The payload's words, aligned to at most 4 so that they pack
        /// against the entry's `u32` id.
        type Words: Copy;

        /// The words of `self`, or `None` when its weight needs more than
        /// 32 bits.
        fn narrow(self) -> Option<Self::Words>;

        /// The payload `words` hold.
        fn widen(words: Self::Words) -> Self;
    }
}

/// What an adjacency entry stores beside its neighbour id, in an entry
/// that is narrow while the vertex's ids and weights fit in a `u32` and
/// wide after:
///
/// | payload | entry, narrow / wide | inline in the header, narrow / wide | weight reads |
/// |---|---|---|---|
/// | `()` | 4 / 8 B | 4 / 2 | 1 |
/// | [`Weight`] | 8 / 16 B | 2 / 1 | the weight |
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
    type Words = ();

    #[inline]
    fn narrow(self) -> Option<()> {
        Some(())
    }

    #[inline]
    fn widen(_words: ()) -> Self {}
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
    type Words = u32;

    #[inline]
    fn narrow(self) -> Option<u32> {
        u32::try_from(self).ok()
    }

    #[inline]
    fn widen(words: u32) -> Self {
        u64::from(words)
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

/// A slab entry of payload `E` at one of the two widths: [`Narrow`] or the
/// wide `(VertexId, E)`. Every slab operation is generic over it and picks
/// the width once per call from the header's [`WIDE`] bit, as it picks the
/// index's slot width.
trait Entry<E>: Copy {
    /// True for `(VertexId, E)`.
    const WIDE: bool;

    /// Entries the header's 16 bytes hold.
    const INLINE: usize;

    /// The entry of the edge `-> nbr` with `data`, or `None` when either
    /// needs more bits than this width keeps.
    fn pack(nbr: VertexId, data: E) -> Option<Self>;

    /// The neighbour id.
    fn nbr(self) -> VertexId;

    /// The payload.
    fn data(self) -> E;
}

/// Entries of `T` the header's 16 bytes hold, checked (where the constant
/// is evaluated, i.e. wherever entries of `T` are compiled) to accept the
/// header's alignment of 8.
const fn inline_entries<T>() -> usize {
    assert!(
        align_of::<T>() <= 8,
        "an adjacency entry must not need more alignment than the header's 8"
    );
    16 / size_of::<T>()
}

impl<E: EdgeData> Entry<E> for (VertexId, E) {
    const WIDE: bool = true;
    const INLINE: usize = inline_entries::<Self>();

    #[inline]
    fn pack(nbr: VertexId, data: E) -> Option<Self> {
        Some((nbr, data))
    }

    #[inline]
    fn nbr(self) -> VertexId {
        self.0
    }

    #[inline]
    fn data(self) -> E {
        self.1
    }
}

/// An entry whose neighbour id and weight fit in a `u32`: 4 bytes of id
/// and the payload's words packed against it.
#[repr(C)]
#[derive(Clone, Copy)]
struct Narrow<E: EdgeData> {
    nbr: u32,
    words: E::Words,
}

/// Bytes of a narrow entry of `E`: the wide one less the id's high half
/// and, for a payload that keeps a weight (every payload but `()`), the
/// weight's. It depends on `E`'s size alone, so `Drop` frees a slab of
/// either width with no `EdgeData` bound; [`Narrow`]'s `INLINE` checks it.
const fn narrow_size<E>() -> usize {
    size_of::<(VertexId, E)>() - if size_of::<E>() == 0 { 4 } else { 8 }
}

impl<E: EdgeData> Entry<E> for Narrow<E> {
    const WIDE: bool = false;
    const INLINE: usize = {
        assert!(
            size_of::<Self>() == narrow_size::<E>(),
            "a narrow entry is the wide one less the high halves of id and weight"
        );
        inline_entries::<Self>()
    };

    #[inline]
    fn pack(nbr: VertexId, data: E) -> Option<Self> {
        Some(Narrow {
            nbr: u32::try_from(nbr).ok()?,
            words: data.narrow()?,
        })
    }

    #[inline]
    fn nbr(self) -> VertexId {
        VertexId::from(self.nbr)
    }

    #[inline]
    fn data(self) -> E {
        E::widen(self.words)
    }
}

/// Adjacency list of a single vertex: its edges in insertion order and,
/// past [`PROMOTE_BYTES`] of entries, a hash index of positions into them.
///
/// The header is 24 bytes for every payload: the degree, a capacity word,
/// and two words that are either the entries themselves or two pointers.
/// While the entries fit in 16 bytes they live in those two words and the
/// vertex owns no heap block. The first entry that does not fit moves them
/// all to a heap slab, which is then kept for good, as the index is. The
/// entries are narrow until the first id or weight past `u32::MAX` widens
/// them, which is kept for good too (see the module docs).
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
    /// the five bits above them (0 while there is no index), and [`WIDE`].
    cap: u32,
    body: Body,
    entries: PhantomData<E>,
}

/// The header's last 16 bytes: the inline entries, or the two heap blocks.
union Body {
    inline: [MaybeUninit<u64>; 2],
    heap: Heap,
}

/// A slab of `cap & CAP_MASK` entries of the width [`WIDE`] names, the
/// first `len` initialised, and an index of `1 << shift` initialised
/// slots, `u16` or `u32` as [`is_narrow`] says (dangling while there is
/// none).
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
    /// width the entries need (so a copy narrows once no entry is wide).
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
            .field("wide", &self.is_wide())
            .field("index_slots", &self.index_slots())
            .finish()
    }
}

/// Layout of a slab of `bytes`.
fn slab_bytes_layout(bytes: usize) -> Layout {
    Layout::from_size_align(bytes, SLAB_ALIGN).expect("adjacency slab size overflows")
}

/// Layout of a slab of `cap` entries of `T`.
fn slab_layout<T>(cap: usize) -> Layout {
    slab_bytes_layout(cap * size_of::<T>())
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

    /// True once the entries are `(VertexId, E)`.
    #[inline]
    fn is_wide(&self) -> bool {
        self.cap & WIDE != 0
    }

    /// Layout of the slab at the entries' width (size 0 while they are
    /// inline).
    fn slab_layout(&self) -> Layout {
        let entry = if self.is_wide() {
            size_of::<(VertexId, E)>()
        } else {
            narrow_size::<E>()
        };
        slab_bytes_layout(self.slab_cap() * entry)
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

    /// True when the position index exists, i.e. an insert has left more
    /// than [`PROMOTE_BYTES`] of entries at some point (removals never
    /// drop the index).
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
        if self.is_wide() {
            self.remove_as::<(VertexId, E)>(nbr)
        } else {
            self.remove_as::<Narrow<E>>(nbr)
        }
    }

    /// Payload of the edge `-> nbr`, if present.
    pub fn get(&self, nbr: VertexId) -> Option<E> {
        if self.is_wide() {
            self.get_as::<(VertexId, E)>(nbr)
        } else {
            self.get_as::<Narrow<E>>(nbr)
        }
    }

    /// Iterates `(neighbour, payload)` in insertion order (a removal moves
    /// the then-last edge into the removed one's place), by value at
    /// either width.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (VertexId, E)> + '_ {
        if self.is_wide() {
            Iter::Wide(self.entries::<(VertexId, E)>().iter())
        } else {
            Iter::Narrow(self.entries::<Narrow<E>>().iter())
        }
    }

    /// Heap footprint in bytes: the slab plus the index, exactly as
    /// allocated (0 while the entries are inline).
    pub fn heap_bytes(&self) -> usize {
        self.slab_layout().size() + index_layout(self.index_slots()).size()
    }

    /// Where the entries start: the header's inline words, or the slab.
    /// They must be `T`.
    #[inline]
    fn entries_ptr<T: Entry<E>>(&mut self) -> *mut T {
        assert!(T::WIDE == self.is_wide(), "entry width");
        if self.slab_cap() == 0 {
            (&raw mut self.body.inline).cast()
        } else {
            // SAFETY: a slab capacity means `heap` is the live field.
            unsafe { self.body.heap.slab.as_ptr().cast() }
        }
    }

    /// The live entries, in insertion order, which must be `T`.
    #[inline]
    fn entries<T: Entry<E>>(&self) -> &[T] {
        assert!(T::WIDE == self.is_wide(), "entry width");
        let ptr: *const T = if self.slab_cap() == 0 {
            debug_assert!(self.degree() <= T::INLINE);
            (&raw const self.body.inline).cast()
        } else {
            // SAFETY: a slab capacity means `heap` is the live field.
            unsafe { self.body.heap.slab.as_ptr().cast() }
        };
        // SAFETY: the first `len` entries at `ptr` are initialised `T`s,
        // the width `WIDE` names. Inline ones fit the header (`len <=
        // INLINE` while there is no slab), whose alignment of 8 `INLINE`
        // has checked the entry accepts; a slab is aligned to 8.
        unsafe { std::slice::from_raw_parts(ptr, self.degree()) }
    }

    /// The live entries mutably, which must be `T`.
    #[inline]
    fn entries_mut<T: Entry<E>>(&mut self) -> &mut [T] {
        let (len, entries) = (self.degree(), self.entries_ptr::<T>());
        // SAFETY: as in `entries`.
        unsafe { std::slice::from_raw_parts_mut(entries, len) }
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

    /// The live entries, which must be `T`, and the index, which must exist
    /// and be `S`, borrowed mutably side by side.
    #[inline]
    fn parts_mut<S: Slot, T: Entry<E>>(&mut self) -> (&mut [T], &mut [S]) {
        let (len, slots) = (self.degree(), self.slots_as::<S>());
        let entries = self.entries_ptr::<T>();
        // SAFETY: as in `entries` and `index`. The two never overlap: an
        // index is its own block beside the slab.
        unsafe {
            let index = std::slice::from_raw_parts_mut(self.body.heap.index.as_ptr().cast(), slots);
            (std::slice::from_raw_parts_mut(entries, len), index)
        }
    }

    /// Entries of `T` the vertex holds before its storage must grow.
    #[inline]
    fn capacity<T: Entry<E>>(&self) -> usize {
        match self.slab_cap() {
            0 => T::INLINE,
            cap => cap,
        }
    }

    /// [`Self::get`] among entries of `T`.
    #[inline]
    fn get_as<T: Entry<E>>(&self, nbr: VertexId) -> Option<E> {
        let pos = self.locate::<T>(nbr).ok()?;
        Some(self.entries::<T>()[pos].data())
    }

    /// Replaces the payload of the entry of `T` at `pos` with `f` of it,
    /// which must fit `T` (every caller keeps or lowers the weight of an
    /// entry that fits, or writes one it has checked).
    #[inline]
    fn rewrite<T: Entry<E>>(&mut self, pos: usize, f: impl FnOnce(E) -> E) {
        let entry = &mut self.entries_mut::<T>()[pos];
        *entry = T::pack(entry.nbr(), f(entry.data())).expect("a rewritten payload fits its entry");
    }

    /// [`Self::remove`] among entries of `T`.
    fn remove_as<T: Entry<E>>(&mut self, nbr: VertexId) -> Option<E> {
        let pos = self.locate::<T>(nbr).ok()?;
        let last = self.degree() - 1;
        Some(match self.index_slots() {
            0 => self.swap_remove::<T>(pos, last),
            slots if is_narrow(slots) => self.remove_indexed::<u16, T>(pos, last),
            _ => self.remove_indexed::<u32, T>(pos, last),
        })
    }

    /// Removes the entry at `pos`, moving the one at `last` into its place.
    fn swap_remove<T: Entry<E>>(&mut self, pos: usize, last: usize) -> E {
        let entries = self.entries_mut::<T>();
        let data = entries[pos].data();
        entries[pos] = entries[last];
        self.len -= 1;
        data
    }

    /// Adds the edge `-> nbr` with `data` if absent (`true`), else replaces
    /// the payload it already has with `merge` of it (`false`). A narrow
    /// vertex handed an id or weight past `u32::MAX` is widened first.
    #[inline]
    fn upsert(&mut self, nbr: VertexId, data: E, merge: impl FnOnce(E) -> E) -> bool {
        if !self.is_wide() {
            match Narrow::pack(nbr, data) {
                Some(entry) => return self.upsert_as(entry, merge),
                None => self.widen(),
            }
        }
        self.upsert_as((nbr, data), merge)
    }

    /// [`Self::upsert`] of `entry` among entries of `T`.
    #[inline]
    fn upsert_as<T: Entry<E>>(&mut self, entry: T, merge: impl FnOnce(E) -> E) -> bool {
        match self.locate::<T>(entry.nbr()) {
            Ok(pos) => {
                self.rewrite::<T>(pos, merge);
                false
            }
            Err(vacancy) => {
                self.push(entry, vacancy);
                true
            }
        }
    }

    /// Rewrites the entries wide, in order, and sets [`WIDE`]. Inline
    /// entries the header cannot hold wide move to a slab of four; a slab is
    /// resized in place to the same capacity of wide entries and rewritten
    /// from the back, so no narrow entry is overwritten before it is read.
    /// The index names positions, not ids, so it stays as it is.
    #[cold]
    fn widen(&mut self) {
        let len = self.degree();
        let cap = self.slab_cap();
        if cap == 0 {
            // SAFETY: no slab means `inline` is the live field.
            let words = unsafe { self.body.inline };
            // SAFETY: the copy is aligned to 8, which `Narrow::INLINE` has
            // checked the entry accepts, and holds `len` initialised narrow
            // entries.
            let narrow: &[Narrow<E>] =
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), len) };
            if len > <(VertexId, E)>::INLINE {
                let slab = alloc_block(slab_layout::<(VertexId, E)>(4), false);
                self.body = Body {
                    heap: Heap {
                        slab,
                        index: NonNull::dangling(),
                    },
                };
                self.cap = 4;
            }
            self.cap |= WIDE;
            let wide = self.entries_ptr::<(VertexId, E)>();
            for (i, entry) in narrow.iter().enumerate() {
                // SAFETY: the header or the fresh slab holds `len` wide
                // entries.
                unsafe { wide.add(i).write((entry.nbr(), entry.data())) };
            }
        } else {
            let new = slab_layout::<(VertexId, E)>(cap);
            // SAFETY: a slab capacity means `heap` is the live field; the
            // slab was allocated as `cap` narrow entries, aligned to 8.
            // Narrow entry `i` ends at or before wide entry `i` starts, so
            // writing wide entries from the back only overwrites narrow ones
            // already read.
            unsafe {
                let slab = realloc_slab(
                    self.body.heap.slab,
                    slab_layout::<Narrow<E>>(cap),
                    new.size(),
                );
                let (narrow, wide) = (
                    slab.as_ptr().cast::<Narrow<E>>(),
                    slab.as_ptr().cast::<(VertexId, E)>(),
                );
                for i in (0..len).rev() {
                    let entry = narrow.add(i).read();
                    wide.add(i).write((entry.nbr(), entry.data()));
                }
                self.body.heap.slab = slab;
            }
            self.cap |= WIDE;
        }
    }

    /// Position mask of a non-empty index; its complement selects the tag.
    #[inline]
    fn mask(&self) -> u32 {
        self.index_slots() as u32 - 1
    }

    /// Finds `nbr` among entries of `T`: `Ok(position in the entries)`, or
    /// `Err((slot, tag))` — the empty index slot that ended the probe and
    /// the tag to write there (both meaningless while there is no index).
    #[inline]
    fn locate<T: Entry<E>>(&self, nbr: VertexId) -> Result<usize, (usize, u32)> {
        match self.index_slots() {
            0 => self
                .entries::<T>()
                .iter()
                .position(|e| e.nbr() == nbr)
                .ok_or((0, 0)),
            slots if is_narrow(slots) => self.probe::<u16, T>(nbr),
            _ => self.probe::<u32, T>(nbr),
        }
    }

    /// [`Self::locate`] through an index of `S` slots.
    #[inline]
    fn probe<S: Slot, T: Entry<E>>(&self, nbr: VertexId) -> Result<usize, (usize, u32)> {
        let (entries, index) = (self.entries::<T>(), self.index::<S>());
        let mask = index.len() as u32 - 1;
        let (mut i, tag) = home_and_tag::<S>(nbr, mask);
        // Load stays at or below 3/4, so an empty slot ends every probe.
        loop {
            let slot = index[i as usize].get();
            if slot == 0 {
                return Err((i as usize, tag));
            }
            if slot & !mask == tag {
                let pos = (slot & mask) as usize - 1;
                if entries[pos].nbr() == nbr {
                    return Ok(pos);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Appends a new edge whose absence [`Self::locate`] just established,
    /// indexing it in the `vacancy` that probe ended on.
    #[inline]
    fn push<T: Entry<E>>(&mut self, entry: T, (slot, tag): (usize, u32)) {
        let len = self.degree();
        if len == self.capacity::<T>() {
            self.grow_slab::<T>();
        }
        // SAFETY: `len < capacity()` now, so the write lands in the inline
        // words or the slab, past the initialised entries.
        unsafe { self.entries_ptr::<T>().add(len).write(entry) };
        self.len += 1;
        let degree = len + 1;
        let slots = self.index_slots();
        if degree * 4 > slots * 3 {
            // An index fills past 3/4 only beyond the degree it was built
            // at, so past `PROMOTE_BYTES` too: entries never narrow.
            if degree * size_of::<T>() > PROMOTE_BYTES {
                self.grow_index::<T>();
            }
        } else if is_narrow(slots) {
            self.index_mut::<u16>()[slot] = u16::new(tag | degree as u32);
        } else {
            self.index_mut::<u32>()[slot] = u32::new(tag | degree as u32);
        }
    }

    /// The index's slots mutably, which must exist and be `S`.
    #[inline]
    fn index_mut<S: Slot>(&mut self) -> &mut [S] {
        let slots = self.slots_as::<S>();
        // SAFETY: as in `index`.
        unsafe { std::slice::from_raw_parts_mut(self.body.heap.index.as_ptr().cast(), slots) }
    }

    /// Makes room for one more entry of `T`: inline entries move to a slab
    /// of twice as many (at least four), a slab doubles while small (8, 16,
    /// ... 64 entries), then grows by half so a hub's unused tail stays
    /// under a third of it.
    #[cold]
    fn grow_slab<T: Entry<E>>(&mut self) {
        let old = self.slab_cap();
        let cap = if old == 0 {
            (2 * T::INLINE).max(4)
        } else if old < GENTLE_GROWTH_FROM {
            2 * old
        } else {
            old + old / 2
        };
        assert!(
            cap <= CAP_MASK as usize,
            "adjacency slab overflows its capacity bits"
        );
        let layout = slab_layout::<T>(cap);
        let heap = if old == 0 {
            let slab = alloc_block(layout, false);
            let entries = self.entries::<T>();
            // SAFETY: the fresh slab holds `cap > INLINE >= len` entries.
            unsafe {
                ptr::copy_nonoverlapping(entries.as_ptr(), slab.as_ptr().cast(), entries.len())
            };
            Heap {
                slab,
                index: NonNull::dangling(),
            }
        } else {
            // SAFETY: a slab capacity means `heap` is the live field, and the
            // slab is reallocated from the layout it was allocated with.
            unsafe {
                let heap = self.body.heap;
                Heap {
                    slab: realloc_slab(heap.slab, slab_layout::<T>(old), layout.size()),
                    index: heap.index,
                }
            }
        };
        self.body = Body { heap };
        self.cap = (self.cap & !CAP_MASK) | cap as u32;
    }

    /// Replaces the index with the smallest power of two of slots that
    /// holds the degree at a load of at most 3/4 — twice the slots of an
    /// index that just passed 3/4 — re-deriving every slot from the slab of
    /// `T`. This is the one place an index changes width: past
    /// [`NARROW_SLOTS`] the new one has `u32` slots.
    #[cold]
    fn grow_index<T: Entry<E>>(&mut self) {
        let old = self.index_slots();
        let slots = (self.degree() * 4).div_ceil(3).next_power_of_two();
        let index = if is_narrow(slots) {
            self.build_index::<u16, T>(slots)
        } else {
            self.build_index::<u32, T>(slots)
        };
        // SAFETY: an index grows only past PROMOTE_BYTES of entries, which
        // no header holds inline, so `heap` is the live field; the old index
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
    /// entry of `T`.
    fn build_index<S: Slot, T: Entry<E>>(&self, slots: usize) -> NonNull<u8> {
        assert!(S::NARROW == is_narrow(slots), "index width");
        let index = alloc_block(index_layout(slots), true);
        // SAFETY: the block is fresh and zeroed, and `index_layout` sized it
        // as `slots` slots of the width `is_narrow` names, which is `S`.
        let fresh = unsafe { std::slice::from_raw_parts_mut(index.as_ptr().cast::<S>(), slots) };
        let mask = slots as u32 - 1;
        for (pos, entry) in self.entries::<T>().iter().enumerate() {
            let (mut i, tag) = home_and_tag::<S>(entry.nbr(), mask);
            while fresh[i as usize].get() != 0 {
                i = (i + 1) & mask;
            }
            fresh[i as usize] = S::new(tag | (pos as u32 + 1));
        }
        index
    }

    /// [`Self::remove`] of the entry of `T` at `pos` from a vertex whose
    /// index has `S` slots: the entry at `last` takes its place, and its
    /// slot follows.
    fn remove_indexed<S: Slot, T: Entry<E>>(&mut self, pos: usize, last: usize) -> E {
        let mask = self.mask();
        let hole = self.slot_of::<S, T>(pos);
        // Re-point the last entry's slot at its new position (a rewrite of
        // `hole` itself when the removed entry is the last).
        let moved = self.slot_of::<S, T>(last);
        let index = self.index_mut::<S>();
        index[moved] = S::new((index[moved].get() & !mask) | (pos as u32 + 1));
        let data = self.swap_remove::<T>(pos, last);
        self.close_hole::<S, T>(hole);
        data
    }

    /// Index slot that names the position `pos` of an entry of `T`.
    fn slot_of<S: Slot, T: Entry<E>>(&self, pos: usize) -> usize {
        let (entries, index, mask) = (self.entries::<T>(), self.index::<S>(), self.mask());
        let (mut i, _) = home_and_tag::<S>(entries[pos].nbr(), mask);
        while index[i as usize].get() & mask != pos as u32 + 1 {
            i = (i + 1) & mask;
        }
        i as usize
    }

    /// Empties index slot `hole` by backward-shift deletion: each later slot
    /// of the cluster whose probe path runs through the hole moves into it,
    /// so no tombstone is left and every remaining probe still ends at the
    /// first empty slot. The entries of `T` must already be in their final
    /// state.
    fn close_hole<S: Slot, T: Entry<E>>(&mut self, hole: usize) {
        let mask = self.mask();
        let (entries, index) = self.parts_mut::<S, T>();
        let mut hole = hole as u32;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = index[j as usize];
            if slot.get() == 0 {
                break;
            }
            let (home, _) =
                home_and_tag::<S>(entries[(slot.get() & mask) as usize - 1].nbr(), mask);
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
    Narrow(std::slice::Iter<'a, Narrow<E>>),
    Wide(std::slice::Iter<'a, (VertexId, E)>),
}

impl<E: EdgeData> Iterator for Iter<'_, E> {
    type Item = (VertexId, E);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, E)> {
        match self {
            Iter::Narrow(entries) => entries.next().map(|e| (e.nbr(), e.data())),
            Iter::Wide(entries) => entries.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
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
        for n in 0..(PROMOTE_BYTES as u64 / 8 + 4) {
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
        // Narrow `Weight` entries are 8 bytes: 128 fill `PROMOTE_BYTES`.
        let past = PROMOTE_BYTES as u64 / 8;
        let mut a = Adjacency::new();
        for i in 0..past {
            a.insert(i, i + 100);
        }
        assert!(!a.is_promoted());
        a.insert(past, past + 100);
        assert_eq!(a.index_slots(), 256);
        assert_eq!(a.degree(), past as usize + 1);
        for i in 0..=past {
            assert_eq!(a.get(i), Some(i + 100), "neighbour {i}");
        }
    }

    /// A vertex gains its index at the insert that takes its entries past
    /// `PROMOTE_BYTES` at the width they have, and the first index is sized
    /// for that degree: 257 narrow `()` entries take 512 slots, where the
    /// 64 of a fixed first size would fill up and never end a probe.
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
        // Narrow `Weight`: 8 bytes an entry.
        let mut weight: Adjacency<Weight> = Adjacency::new();
        fill(&mut weight, 0..128);
        assert!(!weight.is_promoted());
        fill(&mut weight, 128..129);
        assert_eq!(weight.index_slots(), 256);
        all_found(&weight, 129);
        // 100 narrow `Weight` entries are 800 bytes. A re-add with a weight
        // past `u32::MAX` widens them to 1 600 without adding one, and the
        // next insert builds the index.
        let mut widened: Adjacency<Weight> = Adjacency::new();
        fill(&mut widened, 0..100);
        assert!(!widened.insert(15, 1 << 40));
        assert!(widened.is_wide() && !widened.is_promoted());
        assert!(widened.insert(1, 7));
        assert_eq!(widened.index_slots(), 256);
        assert_eq!(widened.get(15), Some(1 << 40));
        assert_eq!(widened.get(1), Some(7));
        for n in (0..100).filter(|&n| n != 5) {
            assert_eq!(widened.get(n * 3), Some(n + 1), "neighbour {n}");
        }
    }

    #[test]
    fn dedupe_survives_promotion() {
        let mut a = Adjacency::new();
        for i in 0..200u64 {
            a.insert(i, 1);
        }
        for i in 0..200u64 {
            assert!(!a.insert(i, 1), "dup {i} accepted");
        }
        assert_eq!(a.degree(), 200);
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
        // (96 of 128 slots: wide `Weight` entries are 16 bytes, so 65 of
        // them promote) runs the backward shift over clusters of every
        // shape, wrap-around included.
        let n = 96u64;
        let id = |i: u64| (1 << 32) + i * 7919;
        for victim in 0..n {
            let mut a = Adjacency::new();
            for i in 0..n {
                a.insert(id(i), i);
            }
            assert_eq!(a.index_slots(), 128);
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
        /// entries, in a slab of `slab` (4, 8, ... 64, then by half).
        fn check<E: EdgeData>(data: E, entry: usize, promoted: u64, slab: usize, slots: usize) {
            let mut a = Adjacency::new();
            assert_eq!(a.heap_bytes(), 0);
            for i in 0..promoted {
                a.insert(i, data);
            }
            // The index's slots are two bytes up to 2^14 of them.
            assert_eq!(a.heap_bytes(), slab * entry + slots * 2);
            // Past 64 entries the slab grows by half, not by doubling.
            for i in 0..1000u64 {
                a.insert(i, data);
            }
            // (1000 edges: the index has doubled to 2048 slots.)
            let slab = a.heap_bytes() - 2048 * 2;
            assert!(slab <= 1000 * entry * 3 / 2, "slab {slab} B for 1000 edges");
        }
        check((), 4, 257, 324, 512);
        check::<Weight>(1, 8, 129, 144, 256);
    }

    /// The header holds 16 bytes of narrow entries; the next entry moves
    /// them all to a slab of twice as many (at least four), which stays when
    /// the degree falls back.
    #[test]
    fn low_degree_entries_live_in_the_header() {
        fn check<E: EdgeData>(inline: u64, first_slab: usize) {
            let mut a: Adjacency<E> = Adjacency::new();
            for n in 0..inline {
                assert!(a.insert(n + 10, E::new(n + 1)));
                assert_eq!(a.heap_bytes(), 0, "{inline} inline, edge {n}");
            }
            assert!(a.insert(99, E::new(7)));
            assert_eq!(a.heap_bytes(), first_slab, "the first slab");
            let want: Vec<VertexId> = (0..inline).map(|n| n + 10).chain([99]).collect();
            assert_eq!(a.iter().map(|(n, _)| n).collect::<Vec<_>>(), want);
            for n in 0..inline {
                assert_eq!(
                    a.get(n + 10).map(|e| e.weight()),
                    Some(E::new(n + 1).weight())
                );
            }
            assert_eq!(a.remove(99).map(|e| e.weight()), Some(E::new(7).weight()));
            assert_eq!(a.heap_bytes(), first_slab, "the slab is kept");
            assert_eq!(a.degree(), inline as usize);
        }
        check::<()>(4, 8 * 4);
        check::<Weight>(2, 4 * 8);
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

    /// Four vertices, each walked through every stage — inline, slab,
    /// `u16` index, `u32` index — with its first wide id (past `u32::MAX`)
    /// arriving at a different one, then drained. Across the widening
    /// `iter()` order, payloads and `remove`'s swap order agree with a
    /// mirror, the slab keeps its capacity at the wide entry's bytes and the
    /// index keeps its slots; the drained vertex stays wide, and its clone,
    /// which holds no wide entry any more, is narrow again.
    #[test]
    fn entries_widen_at_every_stage_and_a_clone_narrows_again() {
        /// Scattered ids below 2^32.
        fn id(n: u64) -> VertexId {
            mix64(n ^ 0xbeef) >> 32
        }
        /// Slab capacity, index slots and whether the entries are wide.
        fn shape(a: &Adjacency<Weight>) -> (usize, usize, bool) {
            (a.slab_cap(), a.index_slots(), a.is_wide())
        }
        /// Bytes `a` should own: its slab at the entry width it records,
        /// plus its index.
        fn bytes(a: &Adjacency<Weight>) -> usize {
            let entry = if a.is_wide() { 16 } else { 8 };
            a.slab_cap() * entry + index_layout(a.index_slots()).size()
        }
        /// Every live neighbour, sampled under Miri, has its payload.
        fn payloads_agree(a: &Adjacency<Weight>, mirror: &[(VertexId, Weight)]) {
            assert!(a.iter().eq(mirror.iter().copied()), "iter() order");
            for &(n, w) in mirror.iter().step_by(if cfg!(miri) { 61 } else { 1 }) {
                assert_eq!(a.get(n), Some(w), "neighbour {n}");
            }
        }

        let u32_index = NARROW_SLOTS * 3 / 4 + 1;
        // The degree at which the wide id arrives: inline (a narrow
        // `Weight` header holds two), slab, `u16` index (past 128 narrow
        // entries), `u32` index.
        let stages = [1, 10, 200, u32_index];
        for (stage, &at) in stages.iter().enumerate() {
            let mut a: Adjacency<Weight> = Adjacency::new();
            let mut mirror = Vec::new();
            for n in 0..u32_index as u64 + 8 {
                if mirror.len() == at {
                    let before = shape(&a);
                    assert!(!before.2, "stage {stage}: narrow until now");
                    let wide = (1 << 32 | n, 1 + n % 100);
                    assert!(a.insert(wide.0, wide.1));
                    mirror.push(wide);
                    let after = shape(&a);
                    assert!(after.2, "stage {stage}: the wide id widens");
                    if stage == 0 {
                        // One wide entry fills the header; the second
                        // moves both to a slab of four.
                        assert_eq!(after, (4, 0, true));
                    } else {
                        assert_eq!((after.0, after.1), (before.0, before.1), "stage {stage}");
                    }
                    assert_eq!(a.heap_bytes(), bytes(&a));
                    payloads_agree(&a, &mirror);
                }
                let entry = (id(n), 1 + n % 100);
                assert!(a.insert(entry.0, entry.1));
                mirror.push(entry);
            }
            assert_eq!(shape(&a), (a.slab_cap(), 2 * NARROW_SLOTS, true));
            assert_eq!(a.heap_bytes(), bytes(&a));
            payloads_agree(&a, &mirror);

            // Drain: the wide entry first, then all but five of the rest in
            // a scattered order. Each removal moves the last entry into the
            // hole, as the mirror's `swap_remove` does.
            let mut k = mirror
                .iter()
                .position(|&(n, _)| n > u32::MAX as u64)
                .unwrap();
            while mirror.len() > 5 {
                let (n, w) = mirror.swap_remove(k);
                assert_eq!(a.remove(n), Some(w), "remove {n}");
                if mirror.len() % 4096 == 0 || mirror.len() < 8 {
                    assert!(a.iter().eq(mirror.iter().copied()), "swap order");
                }
                k = (k + 7919) % mirror.len();
            }
            payloads_agree(&a, &mirror);
            assert!(a.is_wide(), "a removal never narrows");
            assert_eq!(a.heap_bytes(), bytes(&a));

            let b = a.clone();
            payloads_agree(&b, &mirror);
            assert_eq!(shape(&b), (8, 0, false), "the clone is narrow");
            assert_eq!(b.heap_bytes(), 8 * 8);
        }
    }

    /// A weight past `u32::MAX` widens the vertex as a wide id does.
    #[test]
    fn narrow_entries_widen_on_a_wide_weight() {
        let mut a: Adjacency<Weight> = Adjacency::new();
        for n in 0..6u64 {
            assert!(a.insert(n, n + 1));
        }
        assert!(!a.is_wide());
        assert_eq!(a.heap_bytes(), 8 * 8);
        assert!(!a.insert_weight_min(4, 1 << 40));
        assert!(a.is_wide(), "a wide weight widens, even one min() drops");
        assert_eq!(a.heap_bytes(), 8 * 16);
        assert_eq!(a.get(4), Some(5));
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

        for i in 0..200u64 {
            a.insert(i, 1);
        }
        assert!(a.is_promoted());
        assert!(a.remove(3).is_some());
        assert_eq!(a.degree(), 199);
        assert!(a.get(3).is_none());
    }
}
