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
//! Page payloads live in a `Vec` arena; a deterministic-hash index maps
//! page number to arena slot. Splitting storage from the index enables a
//! one-entry *last-page cache* (a plain `(page, slot)` field): consecutive
//! small accesses to the same 4 KiB page — the common case for the 64 B
//! block traffic the controller generates — skip the hash lookup entirely.
//! The cache is purely an index shortcut; it never affects contents. Only
//! `&mut self` paths update it (shared-borrow reads consult it read-only),
//! keeping the store free of interior mutability so a future sharded
//! front-end can hand out `&SparseStore` across threads (lint rule L9).
//!
//! Pages are shared copy-on-write. Each arena slot holds an
//! `Arc<[u8; 4096]>`: `clone()` copies the index and the page pointers,
//! not the bytes, and the first write to a page that another image still
//! holds copies that one page (`Arc::make_mut`) before changing it. An
//! image and its clones therefore never observe each other's writes, and
//! a checkpoint that keeps the superseded image pays only for the pages
//! the next commit rewrites. `Arc` rather than `Rc` keeps the store
//! `Send + Sync`, for the same sharded front-end.

use std::sync::Arc;

use thynvm_types::{FxHashMap, HwAddr, PAGE_BYTES};

const PAGE: usize = PAGE_BYTES as usize;

/// Sentinel page number for an empty last-page cache. No reachable page
/// uses it: page numbers are `addr / 4096 <= u64::MAX / 4096`.
const NO_PAGE: u64 = u64::MAX;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

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
    /// Page number → slot in `arena`.
    index: FxHashMap<u64, u32>,
    /// Page payloads, shared copy-on-write with this image's clones; slots
    /// are never freed individually (only [`clear`] drops them), so cached
    /// slot numbers stay valid.
    ///
    /// [`clear`]: SparseStore::clear
    arena: Vec<Arc<[u8; PAGE]>>,
    /// Last `(page number, arena slot)` resolved on a `&mut` path, to
    /// short-circuit the index lookup on consecutive accesses to one page.
    last: (u64, u32),
}

impl SparseStore {
    /// Creates an empty store; all bytes read as zero.
    pub fn new() -> Self {
        Self { index: FxHashMap::default(), arena: Vec::new(), last: (NO_PAGE, 0) }
    }

    /// Number of 4 KiB pages this image holds, whether or not it shares
    /// them with a clone.
    pub fn allocated_pages(&self) -> usize {
        self.arena.len()
    }

    /// Resolves a page number to its arena slot through the one-entry
    /// cache, or `None` when the page was never allocated.
    #[inline]
    fn slot_of(&self, page: u64) -> Option<u32> {
        let (cached_page, cached_slot) = self.last;
        if cached_page == page {
            return Some(cached_slot);
        }
        self.index.get(&page).copied()
    }

    /// Resolves a page number to its arena slot, allocating a zeroed page
    /// on first touch. The exclusive borrow is what lets this path refresh
    /// the last-page cache.
    #[inline]
    fn slot_of_mut(&mut self, page: u64) -> u32 {
        if let Some(slot) = self.slot_of(page) {
            self.last = (page, slot);
            return slot;
        }
        let slot = u32::try_from(self.arena.len()).expect("fewer than 2^32 allocated pages");
        self.arena.push(Arc::new([0u8; PAGE]));
        self.index.insert(page, slot);
        self.last = (page, slot);
        slot
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
            match self.slot_of(page) {
                Some(slot) => {
                    let data = &self.arena[slot as usize];
                    buf[off..off + n].copy_from_slice(&data[in_page..in_page + n]);
                }
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
            let slot = self.slot_of_mut(page);
            Arc::make_mut(&mut self.arena[slot as usize])[in_page..in_page + n]
                .copy_from_slice(&data[off..off + n]);
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
        self.index.clear();
        self.arena.clear();
        self.last = (NO_PAGE, 0);
    }

    /// Iterates over `(page index, page data)` pairs of allocated pages, in
    /// unspecified order.
    pub fn iter_pages(&self) -> impl Iterator<Item = (u64, &[u8; PAGE])> {
        self.index.iter().map(|(&idx, &slot)| (idx, &*self.arena[slot as usize]))
    }

    /// Page indices of this image whose page it does not share with
    /// `base`, in unspecified order. For an image cloned from `base`,
    /// these are the pages written or allocated since the clone. A page
    /// only `base` holds is not listed.
    fn pages_not_shared_with<'a>(&'a self, base: &'a Self) -> impl Iterator<Item = u64> + 'a {
        self.index.iter().filter_map(move |(&idx, &slot)| {
            let page = &self.arena[slot as usize];
            let shared =
                base.slot_of(idx).is_some_and(|b| Arc::ptr_eq(page, &base.arena[b as usize]));
            (!shared).then_some(idx)
        })
    }

    /// A content-based fingerprint of the store: an FNV-1a-style hash over
    /// the allocated pages in address order, word at a time, skipping
    /// all-zero pages so that an unallocated page and a page written full
    /// of zeros hash identically. Two stores with equal fingerprints hold
    /// (with overwhelming probability) byte-identical contents — a cheap
    /// stand-in for full image comparison in soak tests.
    pub fn fingerprint(&self) -> u64 {
        let mut pages: Vec<(u64, &[u8; PAGE])> =
            self.iter_pages().filter(|(_, data)| !page_is_zero(data)).collect();
        pages.sort_unstable_by_key(|&(idx, _)| idx);
        pages.into_iter().fold(FNV_OFFSET, |h, (idx, data)| fnv_page(h, idx, data))
    }

    /// The modeled checkpoint MAC under `key`: the wrapping sum of every
    /// page's [`SparseStore::page_mac`] term. Two stores agree for a given
    /// key iff their contents agree (with overwhelming probability), and
    /// different keys give unrelated MACs for the same contents, so an
    /// attacker without the key cannot make forged bytes verify. Because
    /// it is a sum, a commit that rewrites a few pages updates the MAC by
    /// subtracting their old terms and adding their new ones.
    pub fn mac(&self, key: u64) -> u64 {
        let pages: Vec<(u64, &[u8; PAGE])> = self.iter_pages().collect();
        keyed_terms_sum(key, &pages)
    }

    /// [`SparseStore::mac`] under `key`, from `base`'s MAC `base_mac`:
    /// the terms of the pages this image does not share with `base` come
    /// out and their new terms go in. For an image cloned from `base`,
    /// that hashes only the pages written since the clone. Every page
    /// `base` holds must be a page of this image too, shared or not, as it
    /// is for such a clone: only [`SparseStore::clear`] drops pages.
    pub fn mac_from(&self, base: &Self, base_mac: u64, key: u64) -> u64 {
        let changed: Vec<u64> = self.pages_not_shared_with(base).collect();
        let terms = |img: &Self| -> u64 {
            let pages: Vec<(u64, &[u8; PAGE])> = changed
                .iter()
                .filter_map(|&idx| img.slot_of(idx).map(|slot| (idx, &*img.arena[slot as usize])))
                .collect();
            keyed_terms_sum(key, &pages)
        };
        base_mac.wrapping_sub(terms(base)).wrapping_add(terms(self))
    }

    /// Page `page`'s term of [`SparseStore::mac`] under `key`: a keyed FNV
    /// hash of its number and contents, or 0 for a page that is
    /// unallocated or all zero, so the two stay indistinguishable.
    pub fn page_mac(&self, key: u64, page: u64) -> u64 {
        self.slot_of(page).map_or(0, |slot| keyed_page_term(key, page, &self.arena[slot as usize]))
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

/// The wrapping sum of the keyed MAC terms of `pages`, four at a time.
fn keyed_terms_sum(key: u64, pages: &[(u64, &[u8; PAGE])]) -> u64 {
    let mut fours = pages.chunks_exact(4);
    let mut sum = 0u64;
    for four in &mut fours {
        let terms = keyed_page_terms4(key, [four[0], four[1], four[2], four[3]]);
        sum = terms.into_iter().fold(sum, u64::wrapping_add);
    }
    fours.remainder().iter().fold(sum, |s, &(idx, data)| s.wrapping_add(keyed_page_term(key, idx, data)))
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
            match other.slot_of(idx) {
                Some(slot) => other.arena[slot as usize][..] == data[..],
                None => false,
            }
        })
    }
}

impl Eq for SparseStore {}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut idxs: Vec<u64> = m.iter_pages().map(|(i, _)| i).collect();
        idxs.sort_unstable();
        assert_eq!(idxs, vec![0, 3]);
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
        (idx, &*img.arena[img.slot_of(idx).expect("allocated page") as usize])
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
                assert_eq!(img.mac(key), sum, "{n} pages, zero page at {zero_at:?}");
                // The same pages in page order, so the zero page sits where
                // `zero_at` puts it in the groups of four.
                let pages: Vec<_> = (0..n).map(|p| page_of(&img, p)).collect();
                assert_eq!(keyed_terms_sum(key, &pages), sum, "{n} pages, zero page at {zero_at:?}");
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
    fn mac_from_matches_the_full_mac() {
        let key = 0x5eed;
        let mut base = SparseStore::new();
        for page in 0..6 {
            base.write(HwAddr::new(page * PAGE_BYTES), &[page as u8 + 1; 64]);
        }
        let base_mac = base.mac(key);
        let check = |img: &SparseStore, what: &str| {
            assert_eq!(img.mac_from(&base, base_mac, key), img.mac(key), "{what}");
        };
        let mut next = base.clone();
        check(&next, "a fresh clone");
        next.write(HwAddr::new(PAGE_BYTES + 8), &[9; 4]);
        next.write(HwAddr::new(3 * PAGE_BYTES - 2), &[8; 4]);
        check(&next, "writes within and across pages");
        next.write(HwAddr::new(11 * PAGE_BYTES), &[7; 4]);
        next.write(HwAddr::new(12 * PAGE_BYTES), &[0; 4]);
        check(&next, "fresh allocations");
        next.write(HwAddr::new(4 * PAGE_BYTES), &[0; 64]);
        assert_eq!(next.page_mac(key, 4), 0);
        check(&next, "a page rewritten to zero");
        // Built apart from `base`: the same page numbers and one more, no
        // page shared, some with `base`'s contents and some without.
        let mut apart = SparseStore::new();
        for page in 0..7 {
            apart.write(HwAddr::new(page * PAGE_BYTES), &[(page % 3) as u8 + 1; 64]);
        }
        assert_eq!(apart.pages_not_shared_with(&base).count(), 7);
        check(&apart, "an image that shares no page");
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
    fn pages_not_shared_with_lists_the_pages_written_since_the_clone() {
        let listed = |img: &SparseStore, base: &SparseStore| {
            let mut pages: Vec<u64> = img.pages_not_shared_with(base).collect();
            pages.sort_unstable();
            pages
        };
        let mut base = SparseStore::new();
        for page in 0..4 {
            base.write(HwAddr::new(page * PAGE_BYTES), &[page as u8 + 1; 64]);
        }
        let mut next = base.clone();
        assert_eq!(listed(&next, &base), [] as [u64; 0], "a fresh clone shares every page");
        // A write inside one page, one across a page boundary, and one
        // into a page `base` never held.
        next.write(HwAddr::new(PAGE_BYTES + 8), &[9; 4]);
        next.write(HwAddr::new(3 * PAGE_BYTES - 2), &[8; 4]);
        next.write(HwAddr::new(7 * PAGE_BYTES), &[7; 4]);
        let pages = listed(&next, &base);
        assert_eq!(pages, [1, 2, 3, 7]);
        // The listed pages carry the whole MAC difference.
        let key = 0x5eed;
        let mac = pages.iter().fold(base.mac(key), |m, &p| {
            m.wrapping_sub(base.page_mac(key, p)).wrapping_add(next.page_mac(key, p))
        });
        assert_eq!(mac, next.mac(key));
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
    fn last_page_cache_survives_interleaved_access() {
        // Interleave reads/writes across pages so the one-entry cache is
        // repeatedly invalidated and repopulated; contents must be exact.
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
        assert_eq!(buf[0], 0, "cache must not outlive clear()");
    }
}
