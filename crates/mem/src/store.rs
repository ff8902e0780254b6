//! Byte-accurate sparse backing store.
//!
//! The timing model alone cannot demonstrate *crash consistency* — for that
//! the simulator must track actual contents, crash at arbitrary points, and
//! verify that recovery produces a consistent image. `SparseStore` backs
//! each modeled memory region (DRAM, the NVM checkpoint regions, the
//! metadata backup region) with real bytes, allocated lazily page by page.
//!
//! Unwritten memory reads as zero, matching a freshly initialized device.
//!
//! # Hot-path structure
//!
//! Pages hang off a tree that an image shares with its clones. A page
//! number's high bits pick a *root*, one entry of a short list sorted by
//! those bits; a root spans 32 768 pages (128 MiB), so a 64 MiB image has
//! one root. A root is the top node of three levels: the root and the
//! level below it have 64 slots per node, each holding an `Arc` of a node
//! of the next level, and the leaves have 8 slots, each holding a page,
//! an `Arc<[u8; 4096]>`. The slot counts are constants, and each level is
//! its own type, so every walk is unrolled at compile time and no node
//! records its height.
//!
//! What each operation costs follows from the sharing:
//!
//! * `clone()` copies the roots: one node per root, whose children it
//!   shares. A capture of a 16 384-page image copies one root, not 16 384
//!   page pointers and their index.
//! * A write copies the nodes on its page's path that another image still
//!   holds (`Arc::make_mut`), at most one per level, and then the page
//!   itself if it is shared. An image and its clones therefore never
//!   observe each other's writes, and the copies an epoch makes follow the
//!   pages it wrote.
//! * Dropping an image frees only the nodes and pages no other image holds:
//!   dropping a superseded checkpoint frees the paths its successor copied.
//! * [`SparseStore::mac`] is memoized in the tree. Every node keeps, per
//!   slot, the keyed MAC sum of the subtree under that slot, tagged with
//!   its key, and a write clears its slot's memo on every node of its
//!   path. A walk therefore hashes only the pages written since a walk
//!   under the same key last passed them, and a clone inherits its
//!   source's memos. A walk stores sums only in nodes the image holds
//!   alone (`Arc::get_mut`); it sums a shared subtree whose memo is stale
//!   without storing anything in it. The memo is one `u64` per slot plus
//!   the key and a validity mask: about 0.5 KiB more per inner node and
//!   80 B more per leaf, copied along with the slots.
//! * [`SparseStore::fingerprint`] and [`SparseStore::iter_pages`] walk the
//!   roots and slots in order, which is address order, without a sort.
//!
//! The shape trades two costs. Every write takes each `Arc` on its path
//! with `Arc::make_mut`, one atomic read-modify-write per level, so each
//! level costs every store. Copying a node on a page's first write since
//! a clone raises the count of every child the node holds, and dropping
//! the superseded image lowers them again, so a node's width costs every
//! page an epoch writes, most of all at the leaves, whose children are
//! pages each in a cache line of their own. Hence three levels and narrow
//! leaves under wide inner nodes (DESIGN §9 item 12 has the measured
//! alternatives). No cache or other interior state speeds a lookup up,
//! so `&SparseStore` can be handed across threads (lint rule L9); `Arc`
//! rather than `Rc` keeps the store `Send + Sync` for the same reason.

use std::sync::Arc;

use thynvm_types::{HwAddr, PAGE_BYTES};

const PAGE: usize = PAGE_BYTES as usize;

/// One page's bytes.
type Page = [u8; PAGE];

/// Slots of a leaf node, one page each.
const LEAF_SLOTS: usize = 8;
/// Slots of every node above the leaves.
const INNER_SLOTS: usize = 64;

/// The lowest level of the tree: nodes whose slots hold pages.
type Leaf = Node<Page, LEAF_SLOTS>;
/// The tree under one root, three levels deep: the root node, one level
/// of inner nodes, the leaves. A root spans `1 << Top::BITS` pages.
type Top = Node<Node<Leaf, INNER_SLOTS>, INNER_SLOTS>;
const _: () = assert!(LEAF_SLOTS.is_power_of_two() && INNER_SLOTS.is_power_of_two());
// A memo's validity mask has one bit per slot.
const _: () = assert!(LEAF_SLOTS <= 64 && INNER_SLOTS <= 64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One node of the page tree: `N` slots, `N` a power of two, each empty
/// or holding a child (a page at the lowest level, a node of the level
/// below elsewhere) that clones of the image may share, and the MAC sum
/// each slot's subtree had when a walk last worked it out.
#[derive(Debug)]
struct Node<T, const N: usize> {
    slots: [Option<Arc<T>>; N],
    memo: Memo<N>,
}

impl<T, const N: usize> Default for Node<T, N> {
    fn default() -> Self {
        Self { slots: std::array::from_fn(|_| None), memo: Memo::default() }
    }
}

impl<T, const N: usize> Clone for Node<T, N> {
    /// Copies the slots, sharing every child, and the memo with them.
    fn clone(&self) -> Self {
        #[cfg(test)]
        tests::tally_copy();
        Self { slots: self.slots.clone(), memo: self.memo.clone() }
    }
}

impl<T, const N: usize> Node<T, N> {
    /// The occupied slots' numbers and children, in slot order.
    fn children(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| Some((i, s.as_deref()?)))
    }
}

/// A node's MAC memo: for each slot whose bit `valid` sets, `sums` holds
/// the wrapping sum of the keyed terms of the pages under that slot, all
/// under `key`.
#[derive(Debug, Clone)]
struct Memo<const N: usize> {
    key: u64,
    valid: u64,
    sums: [u64; N],
}

impl<const N: usize> Default for Memo<N> {
    fn default() -> Self {
        Self { key: 0, valid: 0, sums: [0; N] }
    }
}

impl<const N: usize> Memo<N> {
    /// Slot `i`'s sum under `key`, if it is current.
    #[inline]
    fn get(&self, key: u64, i: usize) -> Option<u64> {
        (self.key == key && self.valid >> i & 1 == 1).then(|| self.sums[i])
    }

    /// Records slot `i`'s sum under `key`, forgetting every sum taken
    /// under another key.
    #[inline]
    fn set(&mut self, key: u64, i: usize, sum: u64) {
        if self.key != key {
            self.key = key;
            self.valid = 0;
        }
        self.sums[i] = sum;
        self.valid |= 1 << i;
    }

    /// Forgets slot `i`'s sum: a write is about to change its subtree.
    #[inline]
    fn clear(&mut self, i: usize) {
        self.valid &= !(1 << i);
    }
}

/// The slot that page `page` takes in a node of `N` slots whose children
/// each resolve the `below` lowest bits of a page number.
#[inline]
fn slot<const N: usize>(page: u64, below: u32) -> usize {
    (page >> below) as usize & (N - 1)
}

/// What a slot holds, a page or a subtree of fixed height above the
/// pages, as the MAC walk sees it: its MAC sum under a key is the
/// wrapping sum of its pages' keyed terms.
///
/// A walk takes two passes, so that the pages no memo covers can be
/// hashed four at a time between them: [`Summed::stale`] lists those
/// pages, and [`Summed::sum`] then takes their terms in the same order.
trait Summed {
    /// Page-number bits the subtree resolves: 0 for a page.
    const BITS: u32;

    /// Appends the pages whose terms under `key` no memo holds, numbered
    /// from `base`, the number of the subtree's first page, in walk order.
    fn stale<'a>(&'a self, key: u64, base: u64, out: &mut Vec<(u64, &'a Page)>);

    /// The MAC sum under `key`, taking the terms of the pages
    /// [`Summed::stale`] listed from `terms`, in order. A node stores each
    /// sum it works out in its memo, and in the memo of every node below
    /// that this image holds alone; a page has no memo to store in.
    fn sum(&mut self, key: u64, terms: &mut impl Iterator<Item = u64>) -> u64 {
        self.sum_shared(key, terms)
    }

    /// [`Summed::sum`] of a subtree another image shares, which stores
    /// nothing.
    fn sum_shared(&self, key: u64, terms: &mut impl Iterator<Item = u64>) -> u64;
}

impl Summed for Page {
    const BITS: u32 = 0;

    fn stale<'a>(&'a self, _key: u64, base: u64, out: &mut Vec<(u64, &'a Page)>) {
        out.push((base, self));
    }

    fn sum_shared(&self, _key: u64, terms: &mut impl Iterator<Item = u64>) -> u64 {
        terms.next().expect("invariant: one term per page the walk listed")
    }
}

impl<T: Summed, const N: usize> Summed for Node<T, N> {
    const BITS: u32 = T::BITS + N.trailing_zeros();

    fn stale<'a>(&'a self, key: u64, base: u64, out: &mut Vec<(u64, &'a Page)>) {
        for (i, child) in self.children() {
            if self.memo.get(key, i).is_none() {
                child.stale(key, base | (i as u64) << T::BITS, out);
            }
        }
    }

    fn sum(&mut self, key: u64, terms: &mut impl Iterator<Item = u64>) -> u64 {
        let mut total = 0u64;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            let sum = match self.memo.get(key, i) {
                Some(sum) => sum,
                None => {
                    let sum = match Arc::get_mut(child) {
                        Some(alone) => alone.sum(key, terms),
                        None => child.sum_shared(key, terms),
                    };
                    self.memo.set(key, i, sum);
                    sum
                }
            };
            total = total.wrapping_add(sum);
        }
        total
    }

    fn sum_shared(&self, key: u64, terms: &mut impl Iterator<Item = u64>) -> u64 {
        self.children().fold(0, |total, (i, child)| {
            let sum = self.memo.get(key, i).unwrap_or_else(|| child.sum_shared(key, terms));
            total.wrapping_add(sum)
        })
    }
}

/// A subtree of fixed height: a leaf (`Node<Page, N>`) or a node of any
/// level above (`Node<T, N>` over a level `T`).
trait Level: Summed + Clone + Default {
    /// Page `page`, if this subtree holds it.
    fn get(&self, page: u64) -> Option<&Arc<Page>>;

    /// Page `page`'s slot, allocating missing nodes and copying shared
    /// ones on the way down, and clearing the slot's memo in every node
    /// it passes.
    fn slot_mut(&mut self, page: u64) -> &mut Option<Arc<Page>>;

    /// This subtree's pages in address order, numbered from `base`, the
    /// number of the subtree's first page.
    fn pages(&self, base: u64) -> impl Iterator<Item = (u64, &Arc<Page>)>;
}

impl<const N: usize> Level for Node<Page, N> {
    fn get(&self, page: u64) -> Option<&Arc<Page>> {
        self.slots[slot::<N>(page, 0)].as_ref()
    }

    fn slot_mut(&mut self, page: u64) -> &mut Option<Arc<Page>> {
        let i = slot::<N>(page, 0);
        self.memo.clear(i);
        &mut self.slots[i]
    }

    fn pages(&self, base: u64) -> impl Iterator<Item = (u64, &Arc<Page>)> {
        self.slots.iter().enumerate().filter_map(move |(i, s)| Some((base | i as u64, s.as_ref()?)))
    }
}

impl<T: Level, const N: usize> Level for Node<T, N> {
    fn get(&self, page: u64) -> Option<&Arc<Page>> {
        self.slots[slot::<N>(page, T::BITS)].as_deref()?.get(page)
    }

    fn slot_mut(&mut self, page: u64) -> &mut Option<Arc<Page>> {
        let i = slot::<N>(page, T::BITS);
        self.memo.clear(i);
        let child = self.slots[i].get_or_insert_with(Default::default);
        Arc::make_mut(child).slot_mut(page)
    }

    fn pages(&self, base: u64) -> impl Iterator<Item = (u64, &Arc<Page>)> {
        self.children().flat_map(move |(i, child)| child.pages(base | (i as u64) << T::BITS))
    }
}

/// A sparse, byte-addressable memory with lazy 4 KiB page allocation.
///
/// Equality is *content-based*: a page that was allocated and holds only
/// zeros compares equal to a page that was never allocated, exactly as
/// [`SparseStore::fingerprint`] treats them. (A derived `PartialEq` once
/// distinguished the two, so `a == b` and `a.fingerprint() ==
/// b.fingerprint()` could disagree on byte-identical stores.)
///
/// # Example
///
/// ```
/// use thynvm_mem::SparseStore;
/// use thynvm_types::HwAddr;
///
/// let mut m = SparseStore::new();
/// m.write(HwAddr::new(10), &[1, 2, 3]);
/// let mut buf = [0u8; 4];
/// m.read(HwAddr::new(9), &mut buf);
/// assert_eq!(buf, [0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseStore {
    /// One tree per span of `1 << Top::BITS` pages that holds a page, keyed
    /// by span number (`page >> Top::BITS`), in ascending order.
    roots: Vec<(u64, Top)>,
    /// Pages this image holds, whether or not it shares them with a clone.
    pages: usize,
}

impl SparseStore {
    /// Creates an empty store; all bytes read as zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of 4 KiB pages this image holds, whether or not it shares
    /// them with a clone.
    pub fn allocated_pages(&self) -> usize {
        self.pages
    }

    /// The tree of span `span`, if this image holds a page in it.
    fn root(&self, span: u64) -> Option<&Top> {
        let at = self.roots.binary_search_by_key(&span, |&(s, _)| s).ok()?;
        Some(&self.roots[at].1)
    }

    /// Page `page`, or `None` when it was never allocated.
    #[inline]
    fn page(&self, page: u64) -> Option<&Arc<Page>> {
        self.root(page >> Top::BITS)?.get(page)
    }

    /// Page `page` for writing: allocated zeroed on first touch, and copied
    /// first, with the nodes above it, if another image shares it.
    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut Page {
        let span = page >> Top::BITS;
        let at = self.roots.binary_search_by_key(&span, |&(s, _)| s).unwrap_or_else(|at| {
            self.roots.insert(at, (span, Top::default()));
            at
        });
        let slot = self.roots[at].1.slot_mut(page);
        if slot.is_none() {
            self.pages += 1;
        }
        Arc::make_mut(slot.get_or_insert_with(|| Arc::new([0; PAGE])))
    }

    /// Reads `buf.len()` bytes starting at `addr`. Unallocated ranges read
    /// as zero.
    pub fn read(&self, addr: HwAddr, buf: &mut [u8]) {
        let mut pos = addr.raw();
        let mut off = 0usize;
        while off < buf.len() {
            let page = pos / PAGE_BYTES;
            let in_page = (pos % PAGE_BYTES) as usize;
            let n = (PAGE - in_page).min(buf.len() - off);
            match self.page(page) {
                Some(data) => buf[off..off + n].copy_from_slice(&data[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            pos += n as u64;
            off += n;
        }
    }

    /// Writes `data` starting at `addr`, allocating pages as needed and
    /// copying any page still shared with a clone before changing it.
    pub fn write(&mut self, addr: HwAddr, data: &[u8]) {
        let mut pos = addr.raw();
        let mut off = 0usize;
        while off < data.len() {
            let page = pos / PAGE_BYTES;
            let in_page = (pos % PAGE_BYTES) as usize;
            let n = (PAGE - in_page).min(data.len() - off);
            self.page_mut(page)[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            pos += n as u64;
            off += n;
        }
    }

    /// Reads exactly one 64 B block starting at `addr`.
    pub fn read_block(&self, addr: HwAddr) -> [u8; 64] {
        let mut buf = [0u8; 64];
        self.read(addr, &mut buf);
        buf
    }

    /// Reads exactly one 4 KiB page starting at `addr`.
    pub fn read_page(&self, addr: HwAddr) -> Box<[u8; PAGE]> {
        let mut buf = Box::new([0u8; PAGE]);
        self.read(addr, &mut buf[..]);
        buf
    }

    /// Discards all contents — the volatile-device crash model.
    pub fn clear(&mut self) {
        self.roots.clear();
        self.pages = 0;
    }

    /// Iterates over `(page index, page data)` pairs of allocated pages, in
    /// address order.
    pub fn iter_pages(&self) -> impl Iterator<Item = (u64, &[u8; PAGE])> {
        self.roots
            .iter()
            .flat_map(|(span, top)| top.pages(span << Top::BITS))
            .map(|(idx, data)| (idx, &**data))
    }

    /// A content-based fingerprint of the store: an FNV-1a-style hash over
    /// the allocated pages in address order, word at a time, skipping
    /// all-zero pages so that an unallocated page and a page written full
    /// of zeros hash identically. Two stores with equal fingerprints hold
    /// (with overwhelming probability) byte-identical contents — a cheap
    /// stand-in for full image comparison in soak tests.
    pub fn fingerprint(&self) -> u64 {
        self.iter_pages()
            .filter(|(_, data)| !page_is_zero(data))
            .fold(FNV_OFFSET, |h, (idx, data)| fnv_page(h, idx, data))
    }

    /// The modeled checkpoint MAC under `key`: the wrapping sum of every
    /// page's keyed term, a keyed FNV hash of its number and contents, or
    /// 0 for an all-zero page, so an allocated zero page and an
    /// unallocated one stay indistinguishable. Two stores agree for a
    /// given key iff their contents agree (with overwhelming
    /// probability), and different keys give unrelated MACs for the same
    /// contents, so an attacker without the key cannot make forged bytes
    /// verify.
    ///
    /// The walk reads the sums the tree remembers and hashes only the
    /// pages written since a walk under `key` last passed them, four at a
    /// time; it then stores the sums it worked out in the nodes this image
    /// holds alone. Taking the MAC before a clone therefore leaves the
    /// clone's memos current too. It changes no byte, and its value always
    /// equals [`SparseStore::recomputed_mac`].
    pub fn mac(&mut self, key: u64) -> u64 {
        let mut stale = Vec::new();
        for (span, top) in &self.roots {
            top.stale(key, span << Top::BITS, &mut stale);
        }
        #[cfg(test)]
        tests::tally_hashes(stale.len());
        let mut terms = keyed_terms(key, &stale).into_iter();
        let mac = self
            .roots
            .iter_mut()
            .fold(0, |mac: u64, (_, top)| mac.wrapping_add(top.sum(key, &mut terms)));
        debug_assert!(terms.next().is_none(), "a term no page took");
        mac
    }

    /// [`SparseStore::mac`] worked out from scratch: every page hashed,
    /// no memo read or stored. The referee the memoized walk is checked
    /// against in debug builds and tests.
    pub fn recomputed_mac(&self, key: u64) -> u64 {
        let pages: Vec<(u64, &Page)> = self.iter_pages().collect();
        keyed_terms(key, &pages).into_iter().fold(0, u64::wrapping_add)
    }

    /// Page `page`'s term of [`SparseStore::mac`] under `key`, 0 for a
    /// page that is unallocated or all zero.
    #[cfg(test)]
    fn page_mac(&self, key: u64, page: u64) -> u64 {
        self.page(page).map_or(0, |data| keyed_page_term(key, page, data))
    }
}

/// Folds page `idx` and its contents, a word at a time, into FNV state `h`.
#[inline]
fn fnv_page(mut h: u64, idx: u64, data: &[u8; PAGE]) -> u64 {
    h = (h ^ idx).wrapping_mul(FNV_PRIME);
    for chunk in data.chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One page's keyed MAC term; zero pages contribute nothing.
#[inline]
fn keyed_page_term(key: u64, idx: u64, data: &[u8; PAGE]) -> u64 {
    if page_is_zero(data) {
        return 0;
    }
    fnv_page(keyed_offset(key), idx, data)
}

/// The FNV state a keyed page term starts from.
#[inline]
fn keyed_offset(key: u64) -> u64 {
    FNV_OFFSET ^ key.wrapping_mul(FNV_PRIME)
}

/// Four pages' keyed MAC terms, equal to four [`keyed_page_term`] calls.
/// Each FNV step waits on the multiply before it, so one page's chain
/// leaves the multiplier idle; four independent chains advanced word by
/// word in lockstep keep it busy. A page's term is zeroed afterwards if
/// the OR of its words shows it was all zero.
fn keyed_page_terms4(key: u64, pages: [(u64, &[u8; PAGE]); 4]) -> [u64; 4] {
    let offset = keyed_offset(key);
    let mut h = pages.map(|(idx, _)| (offset ^ idx).wrapping_mul(FNV_PRIME));
    let mut any = [0u64; 4];
    for at in (0..PAGE).step_by(8) {
        for lane in 0..4 {
            let word = u64::from_le_bytes(pages[lane].1[at..at + 8].try_into().expect("8-byte word"));
            any[lane] |= word;
            h[lane] = (h[lane] ^ word).wrapping_mul(FNV_PRIME);
        }
    }
    std::array::from_fn(|lane| if any[lane] == 0 { 0 } else { h[lane] })
}

/// The keyed MAC terms of `pages`, in order, hashed four at a time.
fn keyed_terms(key: u64, pages: &[(u64, &Page)]) -> Vec<u64> {
    let mut terms = Vec::with_capacity(pages.len());
    let mut fours = pages.chunks_exact(4);
    for four in &mut fours {
        terms.extend(keyed_page_terms4(key, [four[0], four[1], four[2], four[3]]));
    }
    terms.extend(fours.remainder().iter().map(|&(idx, data)| keyed_page_term(key, idx, data)));
    terms
}

/// Whether a page holds only zero bytes, checked a word at a time.
#[inline]
fn page_is_zero(data: &[u8; PAGE]) -> bool {
    data.chunks_exact(8)
        .all(|chunk| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) == 0)
}

impl PartialEq for SparseStore {
    /// Content-based equality, agreeing with [`SparseStore::fingerprint`]:
    /// allocated-but-all-zero pages are indistinguishable from unallocated
    /// ones.
    fn eq(&self, other: &Self) -> bool {
        let nonzero = |s: &Self| {
            s.iter_pages().filter(|(_, data)| !page_is_zero(data)).count()
        };
        if nonzero(self) != nonzero(other) {
            return false;
        }
        self.iter_pages().all(|(idx, data)| {
            if page_is_zero(data) {
                return true;
            }
            other.page(idx).is_some_and(|theirs| theirs[..] == data[..])
        })
    }
}

impl Eq for SparseStore {}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    thread_local! {
        /// Node copies and pages hashed by this thread's store calls since
        /// the last [`take_tally`].
        static TALLY: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    /// Counts one node copy: a clone's root or a write's path copy.
    pub(super) fn tally_copy() {
        TALLY.with(|t| t.set((t.get().0 + 1, t.get().1)));
    }

    /// Counts the `n` pages one MAC walk hashed.
    pub(super) fn tally_hashes(n: usize) {
        TALLY.with(|t| t.set((t.get().0, t.get().1 + n)));
    }

    /// The `(copies, hashed pages)` counted since the last call, and a
    /// reset.
    fn take_tally() -> (usize, usize) {
        TALLY.with(|t| t.replace((0, 0)))
    }

    #[test]
    fn fresh_store_reads_zero() {
        let m = SparseStore::new();
        let mut buf = [0xffu8; 16];
        m.read(HwAddr::new(12345), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.allocated_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = SparseStore::new();
        m.write(HwAddr::new(100), b"hello");
        let mut buf = [0u8; 5];
        m.read(HwAddr::new(100), &mut buf);
        assert_eq!(&buf, b"hello");
        assert_eq!(m.allocated_pages(), 1);
    }

    #[test]
    fn write_across_page_boundary() {
        let mut m = SparseStore::new();
        let addr = HwAddr::new(PAGE_BYTES - 2);
        m.write(addr, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.allocated_pages(), 2);
    }

    #[test]
    fn read_across_allocated_and_unallocated() {
        let mut m = SparseStore::new();
        m.write(HwAddr::new(PAGE_BYTES - 1), &[9]);
        let mut buf = [7u8; 3];
        m.read(HwAddr::new(PAGE_BYTES - 2), &mut buf);
        // Byte before the write is zero, the write, then zero from next page.
        assert_eq!(buf, [0, 9, 0]);
    }

    #[test]
    fn read_block_is_64_bytes() {
        let mut m = SparseStore::new();
        m.write(HwAddr::new(64), &[0xab; 64]);
        assert_eq!(m.read_block(HwAddr::new(64)), [0xab; 64]);
        assert_eq!(m.read_block(HwAddr::new(0)), [0u8; 64]);
    }

    #[test]
    fn read_page_is_4096_bytes() {
        let mut m = SparseStore::new();
        m.write(HwAddr::new(4096), &[3u8; 4096]);
        assert_eq!(m.read_page(HwAddr::new(4096))[..], [3u8; 4096][..]);
    }

    #[test]
    fn clear_models_volatility() {
        let mut m = SparseStore::new();
        m.write(HwAddr::new(0), &[1; 64]);
        m.clear();
        assert_eq!(m.read_block(HwAddr::new(0)), [0u8; 64]);
        assert_eq!(m.allocated_pages(), 0);
    }

    #[test]
    fn overwrite_replaces_bytes() {
        let mut m = SparseStore::new();
        m.write(HwAddr::new(0), &[1, 1, 1, 1]);
        m.write(HwAddr::new(1), &[2, 2]);
        let mut buf = [0u8; 4];
        m.read(HwAddr::new(0), &mut buf);
        assert_eq!(buf, [1, 2, 2, 1]);
    }

    #[test]
    fn iter_pages_visits_all() {
        let mut m = SparseStore::new();
        m.write(HwAddr::new(0), &[1]);
        m.write(HwAddr::new(3 * PAGE_BYTES), &[2]);
        m.write(HwAddr::new(PAGE_BYTES), &[3]);
        // Address order, without a sort.
        let idxs: Vec<u64> = m.iter_pages().map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![0, 1, 3]);
    }

    #[test]
    fn fingerprint_is_content_based() {
        let mut a = SparseStore::new();
        let mut b = SparseStore::new();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Writing zeros allocates a page but must not change the hash.
        a.write(HwAddr::new(0), &[0u8; 64]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.write(HwAddr::new(5), &[42]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.write(HwAddr::new(5), &[42]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Same byte at a different address hashes differently.
        let mut c = SparseStore::new();
        c.write(HwAddr::new(6), &[42]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Distinct pages with swapped contents differ too.
        let mut d = SparseStore::new();
        d.write(HwAddr::new(5 + 4096), &[42]);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn mac_separates_keys_and_tracks_contents() {
        let mut a = SparseStore::new();
        let mut b = SparseStore::new();
        a.write(HwAddr::new(5), &[42]);
        b.write(HwAddr::new(5), &[42]);
        // The empty image has nothing to sum.
        assert_eq!(SparseStore::new().mac(0x1234), 0);
        // Same contents, same key: same MAC.
        assert_eq!(a.mac(0x1234), b.mac(0x1234));
        // Same contents, different key: unrelated MACs.
        assert_ne!(a.mac(1), a.mac(2));
        // Forging one byte breaks the keyed MAC.
        b.write(HwAddr::new(5), &[43]);
        assert_ne!(a.mac(0x1234), b.mac(0x1234));
        // Zero pages contribute nothing, for every key.
        a.write(HwAddr::new(9000), &[0u8; 64]);
        assert_eq!(a.page_mac(7, 2), 0, "allocated zero page");
        assert_eq!(a.page_mac(7, 99), 0, "unallocated page");
        let mut c = SparseStore::new();
        c.write(HwAddr::new(5), &[42]);
        assert_eq!(a.mac(7), c.mac(7));
        // The MAC is the sum of the page terms.
        a.write(HwAddr::new(3 * PAGE_BYTES + 17), &[1, 2, 3]);
        a.write(HwAddr::new(PAGE_BYTES - 1), &[4, 5]);
        let sum = (0..8u64).fold(0u64, |s, p| s.wrapping_add(a.page_mac(7, p)));
        assert_eq!(sum, a.mac(7));
        // Swapping the contents of two pages changes the MAC: the page
        // number is part of each term.
        let mut d = SparseStore::new();
        let mut e = SparseStore::new();
        d.write(HwAddr::new(0), &[1]);
        d.write(HwAddr::new(PAGE_BYTES), &[2]);
        e.write(HwAddr::new(0), &[2]);
        e.write(HwAddr::new(PAGE_BYTES), &[1]);
        assert_ne!(d.mac(7), e.mac(7));
    }

    /// Page `idx` of `img`, which must hold it.
    fn page_of(img: &SparseStore, idx: u64) -> (u64, &[u8; PAGE]) {
        (idx, &**img.page(idx).expect("allocated page"))
    }

    #[test]
    fn mac_sums_page_terms_four_at_a_time() {
        let key = 0x5eed;
        for n in [1u64, 3, 4, 5, 7] {
            // No zero page, then one at each position of the first group
            // of four and one last.
            for zero_at in [None, Some(0), Some(1), Some(2), Some(3), Some(n - 1)] {
                let mut img = SparseStore::new();
                for p in 0..n {
                    let fill = if zero_at == Some(p) { 0 } else { p as u8 + 1 };
                    img.write(HwAddr::new(p * PAGE_BYTES + 8 * p), &[fill; 100]);
                }
                assert_eq!(img.allocated_pages() as u64, n);
                let sum = (0..n).fold(0u64, |s, p| s.wrapping_add(img.page_mac(key, p)));
                assert_eq!(img.recomputed_mac(key), sum, "{n} pages, zero page at {zero_at:?}");
                assert_eq!(img.mac(key), sum, "{n} pages, zero page at {zero_at:?}");
                // The same pages in page order, so the zero page sits where
                // `zero_at` puts it in the groups of four.
                let pages: Vec<_> = (0..n).map(|p| page_of(&img, p)).collect();
                let terms: Vec<u64> = (0..n).map(|p| img.page_mac(key, p)).collect();
                assert_eq!(keyed_terms(key, &pages), terms, "{n} pages, zero page at {zero_at:?}");
            }
        }
        // Each lane of a group equals its page's own term.
        let mut img = SparseStore::new();
        img.write(HwAddr::new(0), &[1; 64]);
        img.write(HwAddr::new(PAGE_BYTES), &[0; 64]);
        img.write(HwAddr::new(2 * PAGE_BYTES + 4088), &[2; 8]);
        img.write(HwAddr::new(3 * PAGE_BYTES), &[0; 64]);
        let four = [0, 1, 2, 3].map(|p| page_of(&img, p));
        let terms = [0, 1, 2, 3].map(|p| img.page_mac(key, p));
        assert_eq!(keyed_page_terms4(key, four), terms);
        assert_eq!((terms[1], terms[3]), (0, 0), "zero pages contribute nothing");
        assert!(terms[0] != 0 && terms[2] != 0);
    }

    #[test]
    fn clone_shares_pages_copy_on_write() {
        // Every way of changing an image leaves its clone untouched, in
        // both directions, and == / fingerprint() agree on the result.
        let mut src = SparseStore::new();
        src.write(HwAddr::new(0), &[1; 64]);
        src.write(HwAddr::new(PAGE_BYTES - 4), &[2; 8]);
        src.write(HwAddr::new(5 * PAGE_BYTES), &[3; 16]);
        let snapshot = src.clone();
        assert_eq!(src, snapshot);
        assert_eq!(src.fingerprint(), snapshot.fingerprint());

        // Source writes within one page and across a page boundary.
        let mut clone = src.clone();
        src.write(HwAddr::new(8), &[9; 4]);
        src.write(HwAddr::new(2 * PAGE_BYTES - 2), &[7; 4]);
        assert_eq!(clone, snapshot, "the clone must not see the source's writes");
        assert_eq!(clone.fingerprint(), snapshot.fingerprint());
        assert_ne!(src, clone);
        assert_ne!(src.fingerprint(), clone.fingerprint());

        // Clone writes within one page and across a page boundary.
        let before = src.clone();
        clone.write(HwAddr::new(5 * PAGE_BYTES + 1), &[8; 2]);
        clone.write(HwAddr::new(PAGE_BYTES - 1), &[6; 2]);
        assert_eq!(src, before, "the source must not see the clone's writes");
        assert_eq!(src.fingerprint(), before.fingerprint());
        assert_eq!(clone.read_block(HwAddr::new(PAGE_BYTES - 4))[..5], [2, 2, 2, 6, 6]);
        assert_eq!(src.read_block(HwAddr::new(PAGE_BYTES - 4))[..5], [2, 2, 2, 2, 2]);

        // Writes across a page boundary from a new page into a shared one,
        // and across two pages neither image holds.
        let mut into_shared = snapshot.clone();
        into_shared.write(HwAddr::new(5 * PAGE_BYTES - 32), &[1; 64]);
        assert_eq!(into_shared.read_block(HwAddr::new(5 * PAGE_BYTES - 32)), [1; 64]);
        assert_eq!(snapshot.read_block(HwAddr::new(5 * PAGE_BYTES - 64)), [0; 64]);
        assert_eq!(snapshot.read_block(HwAddr::new(5 * PAGE_BYTES))[..16], [3; 16]);
        let mut into_fresh = snapshot.clone();
        into_fresh.write(HwAddr::new(9 * PAGE_BYTES - 4), &[2; 8]);
        assert_eq!(snapshot.read_block(HwAddr::new(9 * PAGE_BYTES - 4)), [0; 64]);
        assert_eq!(into_fresh.read_block(HwAddr::new(9 * PAGE_BYTES - 4))[..8], [2; 8]);

        // clear on either side.
        let mut cleared = snapshot.clone();
        cleared.clear();
        assert_eq!(cleared.allocated_pages(), 0);
        assert_eq!(snapshot.read_block(HwAddr::new(0)), [1; 64], "clear is per image");
        let mut kept = snapshot.clone();
        let mut gone = kept.clone();
        gone.clear();
        kept.write(HwAddr::new(0), &[5; 4]);
        assert_eq!(kept.read_block(HwAddr::new(0))[..5], [5, 5, 5, 5, 1]);
        assert_eq!(gone.read_block(HwAddr::new(0)), [0; 64]);
        assert_eq!(snapshot.read_block(HwAddr::new(0)), [1; 64]);
    }

    #[test]
    fn allocated_pages_counts_shared_pages_in_every_image() {
        let mut a = SparseStore::new();
        a.write(HwAddr::new(0), &[1]);
        a.write(HwAddr::new(PAGE_BYTES), &[2]);
        let mut b = a.clone();
        assert_eq!((a.allocated_pages(), b.allocated_pages()), (2, 2));
        // Copying a shared page on write does not add a page to either
        // image; touching a new page adds one to the writer only.
        b.write(HwAddr::new(0), &[3]);
        b.write(HwAddr::new(7 * PAGE_BYTES), &[4]);
        assert_eq!((a.allocated_pages(), b.allocated_pages()), (2, 3));
        // The still-shared page has one term; the copied one has two.
        assert_eq!(a.page_mac(11, 1), b.page_mac(11, 1));
        assert_ne!(a.page_mac(11, 0), b.page_mac(11, 0));
    }

    #[test]
    fn equality_compares_contents() {
        let mut a = SparseStore::new();
        let mut b = SparseStore::new();
        a.write(HwAddr::new(5), &[42]);
        assert_ne!(a, b);
        b.write(HwAddr::new(5), &[42]);
        assert_eq!(a, b);
    }

    #[test]
    fn equality_agrees_with_fingerprint_on_zero_pages() {
        // Regression: the derived PartialEq distinguished an allocated
        // all-zero page from an unallocated one, while fingerprint() did
        // not — the two observers disagreed on byte-identical stores.
        let mut a = SparseStore::new();
        let b = SparseStore::new();
        a.write(HwAddr::new(0), &[0u8; 64]);
        assert_eq!(a.allocated_pages(), 1);
        assert_eq!(b.allocated_pages(), 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b, "equality must agree with the fingerprint");
        assert_eq!(b, a, "content equality is symmetric");
        // Overwriting a real byte back to zero re-merges the stores too.
        let mut c = SparseStore::new();
        c.write(HwAddr::new(9), &[7]);
        assert_ne!(c, b);
        c.write(HwAddr::new(9), &[0]);
        assert_eq!(c, b);
        // And a nonzero page still separates them.
        c.write(HwAddr::new(9), &[7]);
        assert_ne!(c, b);
    }

    #[test]
    fn equality_mixed_zero_and_nonzero_pages() {
        let mut a = SparseStore::new();
        let mut b = SparseStore::new();
        a.write(HwAddr::new(0), &[0u8; PAGE]); // zero page, allocated
        a.write(HwAddr::new(2 * PAGE_BYTES), &[1, 2, 3]);
        b.write(HwAddr::new(2 * PAGE_BYTES), &[1, 2, 3]);
        assert_eq!(a, b);
        // Different nonzero page sets differ.
        b.write(HwAddr::new(PAGE_BYTES), &[9]);
        assert_ne!(a, b);
    }

    #[test]
    fn interleaved_access_across_pages_is_exact() {
        // Interleave reads and writes across pages; contents must be exact.
        let mut m = SparseStore::new();
        for i in 0..4u64 {
            m.write(HwAddr::new(i * PAGE_BYTES + 7), &[i as u8 + 1]);
        }
        for round in 0..3u64 {
            for i in (0..4u64).rev() {
                let mut buf = [0u8; 1];
                m.read(HwAddr::new(i * PAGE_BYTES + 7), &mut buf);
                assert_eq!(buf[0], i as u8 + 1, "round {round} page {i}");
            }
        }
        m.clear();
        let mut buf = [9u8; 1];
        m.read(HwAddr::new(7), &mut buf);
        assert_eq!(buf[0], 0, "no page outlives clear()");
    }

    /// One image's contents as the model holds them: every page it holds,
    /// by page number.
    type Model = BTreeMap<u64, Box<[u8; PAGE]>>;

    /// The model's bytes at `[addr, addr + buf.len())`: zero where it holds
    /// no page.
    fn model_read(model: &Model, addr: u64, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            let at = addr + i as u64;
            *b = model.get(&(at / PAGE_BYTES)).map_or(0, |page| page[(at % PAGE_BYTES) as usize]);
        }
    }

    /// Writes `data` at `addr` into the model, adding zeroed pages.
    fn model_write(model: &mut Model, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let at = addr + i as u64;
            let page = model.entry(at / PAGE_BYTES).or_insert_with(|| Box::new([0; PAGE]));
            page[(at % PAGE_BYTES) as usize] = b;
        }
    }

    /// Whether two models hold the same bytes, all-zero pages aside.
    fn model_eq(a: &Model, b: &Model) -> bool {
        let nonzero = |m: &Model| -> Vec<(u64, [u8; PAGE])> {
            m.iter().filter(|(_, p)| !page_is_zero(p)).map(|(&i, p)| (i, **p)).collect()
        };
        nonzero(a) == nonzero(b)
    }

    /// One step of [`store_matches_a_page_map_model`] on image `img`
    /// (taken modulo the live images).
    #[derive(Debug, Clone)]
    enum Step {
        Write { img: usize, addr: u64, len: usize, fill: u8 },
        /// One byte flipped in a kept clone, the way a tamper forges a
        /// checkpoint image; `img` is taken modulo the clones.
        Forge { img: usize, addr: u64 },
        Read { img: usize, addr: u64, len: usize },
        Clone { img: usize },
        Clear { img: usize },
        Drop { img: usize },
    }

    /// Addresses near zero, around the first root's end (page 2^15), and
    /// sparse ones above 2^40 and far beyond.
    fn address() -> impl Strategy<Value = u64> {
        let bases = [0, (1 << 27) - 3 * PAGE_BYTES, 1 << 40, 0x0123_4567_8000_0000];
        (0usize..4, 0u64..6 * PAGE_BYTES).prop_map(move |(b, off)| bases[b] + off)
    }

    /// Lengths of up to a block, and ones that may span up to four pages.
    fn length() -> impl Strategy<Value = usize> {
        prop_oneof![1usize..65, 1usize..2 * PAGE + 200]
    }

    fn step() -> impl Strategy<Value = Step> {
        let img = 0usize..8;
        prop_oneof![
            4 => (img.clone(), address(), length(), prop_oneof![Just(0u8), any::<u8>()])
                .prop_map(|(img, addr, len, fill)| Step::Write { img, addr, len, fill }),
            1 => (img.clone(), address()).prop_map(|(img, addr)| Step::Forge { img, addr }),
            2 => (img.clone(), address(), length())
                .prop_map(|(img, addr, len)| Step::Read { img, addr, len }),
            2 => img.clone().prop_map(|img| Step::Clone { img }),
            1 => img.clone().prop_map(|img| Step::Clear { img }),
            1 => img.prop_map(|img| Step::Drop { img }),
        ]
    }

    /// The keys the model test's MAC walks take turns with, three steps
    /// each, so walks both reuse memos and meet memos of the other key.
    const KEYS: [u64; 2] = [0x5eed, 0xf00d];

    /// Checks every live image against its model: its bytes, page count,
    /// fingerprint, its MAC under `key` both memoized and from scratch,
    /// and `==` between every two.
    fn check_images(images: &mut [(SparseStore, Model)], key: u64) -> proptest::TestCaseResult {
        for (i, (img, model)) in images.iter_mut().enumerate() {
            let terms = model.iter().map(|(&idx, p)| keyed_page_term(key, idx, p));
            let mac = terms.fold(0u64, u64::wrapping_add);
            prop_assert_eq!(img.recomputed_mac(key), mac, "image {}", i);
            prop_assert_eq!(img.mac(key), mac, "image {}, memoized", i);
        }
        for (i, (img, model)) in images.iter().enumerate() {
            prop_assert_eq!(img.allocated_pages(), model.len(), "image {}", i);
            let pages: Vec<u64> = img.iter_pages().map(|(idx, _)| idx).collect();
            let held: Vec<u64> = model.keys().copied().collect();
            prop_assert_eq!(&pages, &held, "image {} in address order", i);
            for ((idx, data), page) in img.iter_pages().zip(model.values()) {
                prop_assert!(data[..] == page[..], "image {} page {}", i, idx);
                prop_assert!(img.read_page(HwAddr::new(idx * PAGE_BYTES))[..] == page[..]);
            }
            let fingerprint = model
                .iter()
                .filter(|(_, p)| !page_is_zero(p))
                .fold(FNV_OFFSET, |h, (&idx, p)| fnv_page(h, idx, p));
            prop_assert_eq!(img.fingerprint(), fingerprint, "image {}", i);
            for (j, (other, other_model)) in images.iter().enumerate() {
                let same = model_eq(model, other_model);
                prop_assert_eq!(img == other, same, "images {} and {}", i, j);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The store against a naive per-image page map, through writes
        /// within and across pages and at sparse addresses, one-byte
        /// forgeries, reads, clones kept alive as snapshots, clears and
        /// drops.
        #[test]
        fn store_matches_a_page_map_model(steps in proptest::collection::vec(step(), 1..40)) {
            let mut images = vec![(SparseStore::new(), Model::new())];
            for (n, step) in steps.into_iter().enumerate() {
                let live = images.len();
                match step {
                    Step::Write { img, addr, len, fill } => {
                        let byte = |k: usize| if fill == 0 { 0 } else { fill.wrapping_add(k as u8) };
                        let data: Vec<u8> = (0..len).map(byte).collect();
                        let (store, model) = &mut images[img % live];
                        store.write(HwAddr::new(addr), &data);
                        model_write(model, addr, &data);
                    }
                    // Images past the first were each pushed as a clone.
                    Step::Forge { img, addr } if live > 1 => {
                        let (store, model) = &mut images[1 + img % (live - 1)];
                        let mut b = [0u8];
                        store.read(HwAddr::new(addr), &mut b);
                        b[0] ^= 0xA5;
                        store.write(HwAddr::new(addr), &b);
                        model_write(model, addr, &b);
                    }
                    Step::Forge { .. } => {}
                    Step::Read { img, addr, len } => {
                        let (store, model) = &images[img % live];
                        let (mut got, mut want) = (vec![0xa5; len], vec![0; len]);
                        store.read(HwAddr::new(addr), &mut got);
                        model_read(model, addr, &mut want);
                        prop_assert!(got == want, "read of {} bytes at {:#x}", len, addr);
                    }
                    Step::Clone { img } if live < 6 => {
                        let snapshot = images[img % live].clone();
                        images.push(snapshot);
                    }
                    Step::Clone { .. } => {}
                    Step::Clear { img } => {
                        let (store, model) = &mut images[img % live];
                        store.clear();
                        model.clear();
                    }
                    Step::Drop { img } if live > 1 => {
                        images.remove(img % live);
                    }
                    Step::Drop { .. } => {}
                }
                check_images(&mut images, KEYS[n / 3 % 2])?;
            }
        }
    }

    /// The pages `img`'s MAC walk hashes under `key`, after checking the
    /// walk's value against the from-scratch MAC.
    fn hashed(img: &mut SparseStore, key: u64) -> usize {
        take_tally();
        let mac = img.mac(key);
        let (copies, hashed) = take_tally();
        assert_eq!(copies, 0, "a MAC walk copies no node");
        assert_eq!(mac, img.recomputed_mac(key), "memoized MAC");
        hashed
    }

    /// A capture, a commit's writes and a MAC cost what changed, not the
    /// image: on a 16 384-page image, as on a 16-page one, a clone copies
    /// its one root, a one-page write then copies one node per level below
    /// it (and a second write to the page none), and a MAC walk hashes the
    /// pages written since the last walk and no other, in the image that
    /// took the walk and in its clones.
    #[test]
    fn clone_write_and_diff_cost_one_path_at_any_footprint() {
        let key = 0x5eed;
        let mut costs = Vec::new();
        for pages in [16u64, 16_384] {
            let mut base = SparseStore::new();
            for page in 0..pages {
                base.write(HwAddr::new(page * PAGE_BYTES + 8), &[page as u8 | 1]);
            }
            assert_eq!(base.allocated_pages() as u64, pages);
            assert_eq!(hashed(&mut base, key) as u64, pages, "the first walk hashes every page");
            take_tally();
            let mut next = base.clone();
            let (clone_copies, _) = take_tally();
            // Current memos: the image and its clone hash nothing.
            let current = [hashed(&mut base, key), hashed(&mut next, key)];
            next.write(HwAddr::new(7 * PAGE_BYTES + 100), &[42; 8]);
            let (write_copies, _) = take_tally();
            // The path is this image's own now: writing it again copies
            // nothing.
            next.write(HwAddr::new(7 * PAGE_BYTES + 200), &[43; 8]);
            assert_eq!(take_tally(), (0, 0), "{pages} pages: a second write copied");
            let one_page = hashed(&mut next, key);
            for page in [3, 8, 15] {
                next.write(HwAddr::new(page * PAGE_BYTES), &[9]);
            }
            let three_pages = hashed(&mut next, key);
            // One byte forged into a clone, the way a tamper forges a
            // checkpoint image: the clone re-hashes that page alone, and
            // its source and the image behind it nothing.
            let mut kept = next.clone();
            kept.write(HwAddr::new(5 * PAGE_BYTES + 64), &[0xA5]);
            let forged = [hashed(&mut kept, key), hashed(&mut next, key), hashed(&mut base, key)];
            costs.push((clone_copies, write_copies, current, one_page, three_pages, forged));
        }
        // One root node, then the inner node and the leaf on the written
        // page's path, one per level below the root of `Top`.
        assert_eq!(costs[0], (1, 2, [0, 0], 1, 3, [1, 0, 0]), "16 pages");
        assert_eq!(costs[1], costs[0], "16 384 pages cost as 16 do");
    }
}
