//! Per-page state and the page-level chunk allocation protocol.
//!
//! Each page serves chunks of one size, fixed at the page's first use
//! (paper §2.3: "Each page can be split into equally sized chunks, this
//! chunk size is set at the first allocation from a page"). Free chunks are
//! tracked in a 32-bit usage field; pages holding more than 32 chunks add a
//! second hierarchy level *on the page itself*, "allowing for a maximum of
//! 1024 chunks per page".
//!
//! Side metadata per page (kept outside the manageable region, like the
//! original's page usage table): the chunk size, the allocated-chunk count,
//! and the first-level 32-bit usage/fullness word.

use gpumem_core::sync::{AtomicU32, Ordering};

use gpumem_core::util::Divisor;
use gpumem_core::DeviceHeap;

use crate::PAGE_SIZE;

/// Chunk-size metadata sentinel: page is free / unclaimed.
pub const CS_FREE: u32 = 0;
/// Claimed, still being initialised (setup flag OR'd onto the chunk size).
pub const CS_SETUP: u32 = 0x8000_0000;
/// First page of a multi-page allocation.
pub const CS_MULTI_HEAD: u32 = 0xFFFF_FFFF;
/// Continuation page of a multi-page allocation.
pub const CS_MULTI_BODY: u32 = 0xFFFF_FFFE;
/// Count metadata sentinel: page is locked for reset.
pub const COUNT_LOCK: u32 = 0x4000_0000;

/// Hard limit from the paper: at most 1024 chunks per page.
pub const MAX_CHUNKS: u32 = 1024;

/// Geometry of a page once a chunk size is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageLayout {
    /// Chunk size in bytes (multiple of 16).
    pub chunk_size: u32,
    /// Number of chunks the page holds.
    pub chunks: u32,
    /// Bytes reserved at the page start for the on-page second-level bit
    /// field (0 when the first-level word suffices), rounded to 16 so
    /// payloads stay 16-byte aligned.
    pub table_bytes: u32,
    /// `chunk_size`, for turning a payload offset into a chunk index.
    pub(crate) size_div: Divisor,
    /// What the in-page hash picks its start from: `chunks` on a
    /// single-level page, `groups()` on a two-level one.
    pub(crate) start_div: Divisor,
}

/// The layout of every chunk size a page of [`PAGE_SIZE`] serves, 16 B
/// apart: built at compile time, so an operation looks its layout up
/// instead of dividing.
static LAYOUTS: [PageLayout; (PAGE_SIZE / 16) as usize] = {
    let mut layouts = [PageLayout::new(16, PAGE_SIZE); (PAGE_SIZE / 16) as usize];
    let mut i = 1;
    while i < layouts.len() {
        layouts[i] = PageLayout::new((i as u32 + 1) * 16, PAGE_SIZE);
        i += 1;
    }
    layouts
};

impl PageLayout {
    /// Computes the layout for `chunk_size` on a page of `page_size` bytes.
    pub const fn new(chunk_size: u32, page_size: u32) -> Self {
        debug_assert!(chunk_size.is_multiple_of(16) && chunk_size > 0);
        debug_assert!(chunk_size <= page_size);
        let naive = min(page_size / chunk_size, MAX_CHUNKS);
        let (chunks, table_bytes, starts) = if naive <= 32 {
            (naive, 0, naive)
        } else {
            // Second hierarchy level on the page: one u32 per group of 32.
            let groups = naive.div_ceil(32);
            let table_bytes = (groups * 4).div_ceil(16) * 16;
            let chunks = min((page_size - table_bytes) / chunk_size, MAX_CHUNKS);
            (chunks, table_bytes, chunks.div_ceil(32))
        };
        PageLayout {
            chunk_size,
            chunks,
            table_bytes,
            size_div: Divisor::new(chunk_size as u64),
            start_div: Divisor::new(starts as u64),
        }
    }

    /// The layout of `chunk_size` (a multiple of 16, at most 4 KiB)
    /// on a ScatterAlloc page.
    #[inline]
    pub fn of(chunk_size: u32) -> Self {
        LAYOUTS[(chunk_size / 16) as usize - 1]
    }

    /// Number of second-level groups (0 when the page is single-level).
    pub fn groups(&self) -> u32 {
        if self.table_bytes == 0 {
            0
        } else {
            self.chunks.div_ceil(32)
        }
    }

    /// Valid-bit mask for group `g` (all groups full except a partial tail).
    pub fn group_mask(&self, g: u32) -> u32 {
        let remaining = self.chunks - g * 32;
        if remaining >= 32 {
            u32::MAX
        } else {
            (1u32 << remaining) - 1
        }
    }

    /// Byte offset of chunk `idx` within its page.
    pub fn chunk_offset(&self, idx: u32) -> u64 {
        self.table_bytes as u64 + idx as u64 * self.chunk_size as u64
    }
}

const fn min(a: u32, b: u32) -> u32 {
    if a < b {
        a
    } else {
        b
    }
}

/// Side metadata arrays, one entry per page of the manageable memory.
pub struct PageMeta {
    /// Chunk size serving this page (`CS_*` sentinels above).
    pub chunk_size: Box<[AtomicU32]>,
    /// Allocated chunks on the page (or multi-page length for a
    /// `CS_MULTI_HEAD` page; `COUNT_LOCK` while resetting).
    pub count: Box<[AtomicU32]>,
    /// First level of the usage hierarchy: chunk bits (≤ 32 chunks) or
    /// group-full bits (> 32 chunks).
    pub usage: Box<[AtomicU32]>,
}

impl PageMeta {
    pub fn new(total_pages: usize) -> Self {
        let mk = || (0..total_pages).map(|_| AtomicU32::new(0)).collect();
        PageMeta { chunk_size: mk(), count: mk(), usage: mk() }
    }
}

/// Contention tally of one page-level operation, fed into the
/// contention-observability layer by the caller.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageStats {
    /// Lost CAS attempts: chunk-size claims, count reservations and usage
    /// bit claims that another thread won first.
    pub cas_retries: u64,
    /// Bit-search steps: usage-word loads and group probes.
    pub probe_steps: u64,
}

/// Outcome of a page-level allocation attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum PageAlloc {
    /// Allocated chunk `idx`; `made_full` reports whether this allocation
    /// filled the page (for region bookkeeping).
    Success { chunk_idx: u32, made_full: bool },
    /// Page serves a different chunk size (or is mid-setup / multi-page).
    Mismatch,
    /// Page full (or lost every race).
    Full,
}

/// Attempts to allocate one chunk of `layout.chunk_size` from `page_idx`.
///
/// `hash` seeds the start position of the bit search (ScatterAlloc scatters
/// within the page as well as across pages). `page_base` is the page's byte
/// offset in the heap, needed for the on-page second-level table.
pub fn try_alloc_on_page(
    heap: &DeviceHeap,
    meta: &PageMeta,
    page_idx: usize,
    page_base: u64,
    layout: PageLayout,
    hash: u64,
) -> PageAlloc {
    let mut stats = PageStats::default();
    try_alloc_on_page_with(heap, meta, page_idx, page_base, layout, hash, &mut stats)
}

/// [`try_alloc_on_page`] that also tallies lost CAS attempts and bit-search
/// steps into `stats`.
pub fn try_alloc_on_page_with(
    heap: &DeviceHeap,
    meta: &PageMeta,
    page_idx: usize,
    page_base: u64,
    layout: PageLayout,
    hash: u64,
    stats: &mut PageStats,
) -> PageAlloc {
    // Claim-or-match the chunk size.
    let cs_meta = &meta.chunk_size[page_idx];
    let current = cs_meta.load(Ordering::Acquire);
    if current == CS_FREE {
        match cs_meta.compare_exchange(
            CS_FREE,
            layout.chunk_size | CS_SETUP,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                // We own setup: initialise usage words, then publish.
                init_page(heap, meta, page_idx, page_base, layout);
                cs_meta.store(layout.chunk_size, Ordering::Release);
            }
            Err(actual) => {
                stats.cas_retries += 1;
                if actual != layout.chunk_size {
                    return PageAlloc::Mismatch;
                }
            }
        }
    } else if current != layout.chunk_size {
        return PageAlloc::Mismatch;
    }

    // Reserve a slot in the count.
    let count = &meta.count[page_idx];
    let mut c = count.load(Ordering::Acquire);
    loop {
        if c >= layout.chunks {
            // Full, locked for reset, or mid-reset: all mean "not here".
            return PageAlloc::Full;
        }
        match count.compare_exchange_weak(c, c + 1, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => break,
            Err(actual) => {
                stats.cas_retries += 1;
                c = actual;
            }
        }
    }
    let made_full = c + 1 == layout.chunks;

    // Post-reservation validation: between the chunk-size match and the
    // count reservation the page may have been reset and re-claimed for a
    // different chunk size. The reservation blocks further resets (they
    // CAS the count from zero), so a matching size here is stable.
    if cs_meta.load(Ordering::Acquire) != layout.chunk_size {
        count.fetch_sub(1, Ordering::AcqRel);
        return PageAlloc::Mismatch;
    }

    // Find and set a free bit.
    let found = if layout.table_bytes == 0 {
        find_bit_single(&meta.usage[page_idx], layout, hash, stats)
    } else {
        find_bit_hierarchical(heap, &meta.usage[page_idx], page_base, layout, hash, stats)
    };
    match found {
        Some(idx) => PageAlloc::Success { chunk_idx: idx, made_full },
        None => {
            // Raced out of every candidate bit: give the reservation back.
            count.fetch_sub(1, Ordering::AcqRel);
            PageAlloc::Full
        }
    }
}

fn init_page(
    heap: &DeviceHeap,
    meta: &PageMeta,
    page_idx: usize,
    page_base: u64,
    layout: PageLayout,
) {
    if layout.table_bytes == 0 {
        // Invalid trailing bits pre-set so the free mask is just `!usage`.
        let valid = layout.group_mask(0);
        meta.usage[page_idx].store(!valid, Ordering::Release);
    } else {
        meta.usage[page_idx].store(0, Ordering::Release);
        for g in 0..layout.groups() {
            let valid = layout.group_mask(g);
            heap.atomic_u32(page_base + g as u64 * 4).store(!valid, Ordering::Release);
        }
    }
}

/// Bit search in the single first-level word (≤ 32 chunks).
fn find_bit_single(
    usage: &AtomicU32,
    layout: PageLayout,
    hash: u64,
    stats: &mut PageStats,
) -> Option<u32> {
    let start = layout.start_div.rem(hash) as u32;
    // First attempt is blind at the hashed spot, as in ScatterAlloc's
    // published kernel: atomicOr first, then inspect the returned mask.
    // A hash collision with any earlier allocation is a lost claim.
    stats.probe_steps += 1;
    if usage.fetch_or(1 << start, Ordering::AcqRel) & (1 << start) == 0 {
        return Some(start);
    }
    stats.cas_retries += 1;
    for _ in 0..64 {
        stats.probe_steps += 1;
        let w = usage.load(Ordering::Acquire);
        let free = !w;
        if free == 0 {
            return None;
        }
        let bit = pick_bit(free, start);
        if usage.fetch_or(1 << bit, Ordering::AcqRel) & (1 << bit) == 0 {
            return Some(bit);
        }
        stats.cas_retries += 1;
    }
    None
}

/// Bit search over the on-page second-level words, guided by the
/// first-level group-full bits (> 32 chunks).
fn find_bit_hierarchical(
    heap: &DeviceHeap,
    first_level: &AtomicU32,
    page_base: u64,
    layout: PageLayout,
    hash: u64,
    stats: &mut PageStats,
) -> Option<u32> {
    let groups = layout.groups();
    let mut g = layout.start_div.rem(hash) as u32;
    for probe in 0..groups * 2 {
        if probe > 0 {
            g = if g + 1 == groups { 0 } else { g + 1 };
        }
        stats.probe_steps += 1;
        if first_level.load(Ordering::Acquire) & (1 << g) != 0 {
            continue; // group marked full
        }
        let word = heap.atomic_u32(page_base + g as u64 * 4);
        // Blind attempt at the hashed in-word spot (invalid trailing bits
        // are pre-set, so a stray spot simply loses).
        let spot = (hash >> 5) as u32 % 32;
        stats.probe_steps += 1;
        let prev = word.fetch_or(1 << spot, Ordering::AcqRel);
        if prev & (1 << spot) == 0 {
            if (prev | (1 << spot)) == u32::MAX {
                first_level.fetch_or(1 << g, Ordering::AcqRel);
            }
            return Some(g * 32 + spot);
        }
        stats.cas_retries += 1;
        for _ in 0..32 {
            stats.probe_steps += 1;
            let w = word.load(Ordering::Acquire);
            let free = !w;
            if free == 0 {
                // Mark the group full so later searches skip it.
                first_level.fetch_or(1 << g, Ordering::AcqRel);
                break;
            }
            let bit = pick_bit(free, (hash >> 5) as u32 % 32);
            if word.fetch_or(1 << bit, Ordering::AcqRel) & (1 << bit) == 0 {
                if (w | (1 << bit)) == u32::MAX {
                    first_level.fetch_or(1 << g, Ordering::AcqRel);
                }
                return Some(g * 32 + bit);
            }
            stats.cas_retries += 1;
        }
    }
    None
}

/// Picks a set bit of `free`, preferring the first set bit at or after
/// `start` (wrap-around otherwise) — the local-clustering behaviour of
/// ScatterAlloc's in-page hashing.
#[inline]
fn pick_bit(free: u32, start: u32) -> u32 {
    let start = start % 32;
    let rotated = free.rotate_right(start);
    (rotated.trailing_zeros() + start) % 32
}

/// Frees chunk `chunk_idx` on `page_idx`. Returns the page's new count.
/// `Err(())` flags a double free; the caller maps it onto its own error type.
#[allow(clippy::result_unit_err)]
pub fn free_on_page(
    heap: &DeviceHeap,
    meta: &PageMeta,
    page_idx: usize,
    page_base: u64,
    layout: PageLayout,
    chunk_idx: u32,
) -> Result<FreeOutcome, ()> {
    // Clear the bit first, then drop the count (mirror of alloc order).
    if layout.table_bytes == 0 {
        let prev = meta.usage[page_idx].fetch_and(!(1 << chunk_idx), Ordering::AcqRel);
        if prev & (1 << chunk_idx) == 0 {
            return Err(()); // double free
        }
    } else {
        let g = chunk_idx / 32;
        let bit = chunk_idx % 32;
        let word = heap.atomic_u32(page_base + g as u64 * 4);
        let prev = word.fetch_and(!(1 << bit), Ordering::AcqRel);
        if prev & (1 << bit) == 0 {
            return Err(());
        }
        // Group can no longer be full.
        meta.usage[page_idx].fetch_and(!(1 << g), Ordering::AcqRel);
    }
    let prev_count = meta.count[page_idx].fetch_sub(1, Ordering::AcqRel);
    Ok(FreeOutcome { was_full: prev_count == layout.chunks, now_empty: prev_count == 1 })
}

/// What a page-level free did, for region/SB bookkeeping.
#[derive(Debug, PartialEq, Eq)]
pub struct FreeOutcome {
    /// The page was full before this free (region fullness must drop).
    pub was_full: bool,
    /// The page holds no chunks anymore (candidate for reset).
    pub now_empty: bool,
}

/// Attempts to return an empty page to the free state so it can serve a new
/// chunk size (paper: "Pages are reusable once all chunks on it have been
/// freed again"). Returns whether the reset won.
pub fn try_reset_page(meta: &PageMeta, page_idx: usize) -> bool {
    let count = &meta.count[page_idx];
    if count.compare_exchange(0, COUNT_LOCK, Ordering::AcqRel, Ordering::Acquire).is_err() {
        return false;
    }
    // The count lock only blocks *reservations*; storing `CS_FREE` instantly
    // re-opens the page to a claim-or-match CAS, whose winner re-initialises
    // `usage` (pre-setting the invalid trailing bits). So `usage` must be
    // cleared BEFORE the chunk size is republished — the original order
    // (`CS_FREE` first, `usage` second) let this reset clobber the new
    // claimant's init, marking out-of-range chunk bits free and handing out
    // chunk indices past the page capacity. Model-checked in `loom_tests::
    // reset_vs_claim_never_corrupts_usage`.
    meta.usage[page_idx].store(0, Ordering::Release);
    meta.chunk_size[page_idx].store(CS_FREE, Ordering::Release);
    count.store(0, Ordering::Release);
    true
}

/// Model-checked interleaving suites (built with `RUSTFLAGS="--cfg loom"`).
///
/// Each test explores every schedule of a 2-thread protocol interaction at a
/// preemption bound; invariants are asserted after all threads join.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use gpumem_core::sync::{model, thread};
    use std::sync::Arc;

    const PAGE: u32 = 4096;

    /// Regression for the `try_reset_page` ordering bug: a reset racing a
    /// re-claim (different chunk size) must never clobber the claimant's
    /// usage initialisation. With the original store order (`CS_FREE`
    /// published before `usage` cleared) the claimant's pre-set invalid
    /// trailing bits get wiped, so the typed page ends up with out-of-range
    /// chunk bits marked free — this model finds that within two
    /// preemptions.
    #[test]
    fn reset_vs_claim_never_corrupts_usage() {
        model(|| {
            let heap = Arc::new(gpumem_core::DeviceHeap::new(PAGE as u64));
            let meta = Arc::new(PageMeta::new(1));
            let l_old = PageLayout::new(1024, PAGE); // 4 chunks
            let l_new = PageLayout::new(512, PAGE); // 8 chunks
                                                    // Page typed at 1024B, one chunk allocated and freed again:
                                                    // empty-but-typed, the precondition for a reset.
            let PageAlloc::Success { chunk_idx, .. } =
                try_alloc_on_page(&heap, &meta, 0, 0, l_old, 0)
            else {
                panic!("seed alloc failed");
            };
            free_on_page(&heap, &meta, 0, 0, l_old, chunk_idx).unwrap();

            let resetter = {
                let meta = meta.clone();
                thread::spawn(move || try_reset_page(&meta, 0))
            };
            let claimer = {
                let (heap, meta) = (heap.clone(), meta.clone());
                thread::spawn(move || try_alloc_on_page(&heap, &meta, 0, 0, l_new, 1))
            };
            let _reset_won = resetter.join().unwrap();
            let claim = claimer.join().unwrap();

            let cs = meta.chunk_size[0].load(Ordering::Acquire);
            let usage = meta.usage[0].load(Ordering::Acquire);
            if cs == l_new.chunk_size {
                // The claimant re-typed the page: its invalid-trailing-bit
                // guard must have survived the concurrent reset.
                let invalid = !l_new.group_mask(0);
                assert_eq!(
                    usage & invalid,
                    invalid,
                    "reset clobbered the claimant's usage init (usage={usage:#010x})"
                );
            }
            if let PageAlloc::Success { chunk_idx, .. } = claim {
                assert!(chunk_idx < l_new.chunks, "chunk index past page capacity");
            }
        });
    }

    /// Two threads race to type a free page with *different* chunk sizes:
    /// exactly one size wins, the loser observes `Mismatch`, and the final
    /// usage word is consistent with the winner's layout.
    #[test]
    fn concurrent_claims_agree_on_one_size() {
        model(|| {
            let heap = Arc::new(gpumem_core::DeviceHeap::new(PAGE as u64));
            let meta = Arc::new(PageMeta::new(1));
            let l_a = PageLayout::new(512, PAGE);
            let l_b = PageLayout::new(1024, PAGE);
            let spawn_claim = |l: PageLayout| {
                let (heap, meta) = (heap.clone(), meta.clone());
                thread::spawn(move || try_alloc_on_page(&heap, &meta, 0, 0, l, 0))
            };
            let ha = spawn_claim(l_a);
            let hb = spawn_claim(l_b);
            let ra = ha.join().unwrap();
            let rb = hb.join().unwrap();

            let cs = meta.chunk_size[0].load(Ordering::Acquire);
            assert!(
                cs == l_a.chunk_size || cs == l_b.chunk_size,
                "page typed with neither size: {cs:#x}"
            );
            let (winner, loser) = if cs == l_a.chunk_size { (&ra, &rb) } else { (&rb, &ra) };
            assert!(
                matches!(winner, PageAlloc::Success { chunk_idx, .. } if *chunk_idx < MAX_CHUNKS),
                "size winner must allocate: {winner:?}"
            );
            assert_eq!(*loser, PageAlloc::Mismatch, "size loser must see Mismatch");
            let winner_layout = if cs == l_a.chunk_size { l_a } else { l_b };
            let invalid = !winner_layout.group_mask(0);
            let usage = meta.usage[0].load(Ordering::Acquire);
            assert_eq!(usage & invalid, invalid, "invalid bits must stay set");
        });
    }

    /// Concurrent allocations on an already-typed page claim distinct bits
    /// (CAS-claim vs. CAS-claim), and a concurrent free of a third chunk
    /// never disturbs them (CAS-claim vs. free overlap).
    #[test]
    fn bit_claims_exclusive_under_concurrent_free() {
        model(|| {
            let heap = Arc::new(gpumem_core::DeviceHeap::new(PAGE as u64));
            let meta = Arc::new(PageMeta::new(1));
            let l = PageLayout::new(512, PAGE); // 8 chunks, single level
                                                // Type the page and pre-allocate one chunk to free concurrently.
            let PageAlloc::Success { chunk_idx: pre, .. } =
                try_alloc_on_page(&heap, &meta, 0, 0, l, 7)
            else {
                panic!("seed alloc failed");
            };
            let freeer = {
                let (heap, meta) = (heap.clone(), meta.clone());
                thread::spawn(move || free_on_page(&heap, &meta, 0, 0, l, pre).unwrap())
            };
            let alloc_a = {
                let (heap, meta) = (heap.clone(), meta.clone());
                thread::spawn(move || try_alloc_on_page(&heap, &meta, 0, 0, l, 2))
            };
            let alloc_b = {
                let (heap, meta) = (heap.clone(), meta.clone());
                thread::spawn(move || try_alloc_on_page(&heap, &meta, 0, 0, l, 2))
            };
            freeer.join().unwrap();
            let ra = alloc_a.join().unwrap();
            let rb = alloc_b.join().unwrap();
            if let (
                PageAlloc::Success { chunk_idx: a, .. },
                PageAlloc::Success { chunk_idx: b, .. },
            ) = (&ra, &rb)
            {
                assert_ne!(a, b, "two allocations handed out the same chunk");
            }
            for r in [&ra, &rb] {
                if let PageAlloc::Success { chunk_idx, .. } = r {
                    assert!(*chunk_idx < l.chunks);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u32 = 4096;

    #[test]
    fn layout_small_chunks_use_hierarchy() {
        let l = PageLayout::new(16, PAGE);
        assert!(l.table_bytes > 0);
        assert!(l.chunks > 32);
        assert!(l.chunks <= 256);
        // Payload region must fit.
        assert!(l.table_bytes as u64 + l.chunks as u64 * 16 <= PAGE as u64);
    }

    #[test]
    fn layout_large_chunks_single_level() {
        let l = PageLayout::new(256, PAGE);
        assert_eq!(l.table_bytes, 0);
        assert_eq!(l.chunks, 16);
        assert_eq!(l.groups(), 0);
        let l = PageLayout::new(4096, PAGE);
        assert_eq!(l.chunks, 1);
    }

    /// Every chunk size a page serves, 16 B to 4 KiB: the compile-time
    /// table holds what `PageLayout::new` computed per operation, and its
    /// reciprocals give what the divisions they replace gave — every
    /// payload offset's chunk index and remainder, and the in-page hash's
    /// start.
    #[test]
    fn layout_table_and_reciprocals_equal_the_divisions_they_replace() {
        let mut rng = gpumem_core::util::DeviceRng::new(11);
        let mut hashes = vec![0, 1, u64::from(u32::MAX), u64::MAX];
        hashes.extend((0..256).map(|_| rng.next_u64()));
        for cs in (16..=PAGE).step_by(16) {
            let l = PageLayout::of(cs);
            assert_eq!(l, PageLayout::new(cs, PAGE));
            let naive = (PAGE / cs).min(MAX_CHUNKS);
            let (chunks, table_bytes) = if naive <= 32 {
                (naive, 0)
            } else {
                let table_bytes = (naive.div_ceil(32) * 4).div_ceil(16) * 16;
                (((PAGE - table_bytes) / cs).min(MAX_CHUNKS), table_bytes)
            };
            assert_eq!((l.chunk_size, l.chunks, l.table_bytes), (cs, chunks, table_bytes));
            for delta in 0..u64::from(PAGE) {
                assert_eq!(l.size_div.div(delta), delta / u64::from(cs), "{delta} / {cs}");
                assert_eq!(l.size_div.rem(delta), delta % u64::from(cs), "{delta} % {cs}");
            }
            let starts = u64::from(if table_bytes == 0 { chunks } else { l.groups() });
            for &hash in &hashes {
                assert_eq!(l.start_div.rem(hash), hash % starts, "{hash:#x} % {starts}");
            }
        }
    }

    #[test]
    fn layout_caps_at_1024_chunks() {
        let l = PageLayout::new(16, 64 * 1024);
        assert!(l.chunks <= MAX_CHUNKS);
    }

    #[test]
    fn group_masks_handle_partial_tail() {
        let l = PageLayout::new(16, PAGE);
        let g_last = l.groups() - 1;
        let tail = l.chunks % 32;
        if tail != 0 {
            assert_eq!(l.group_mask(g_last), (1 << tail) - 1);
        }
        assert_eq!(l.group_mask(0), u32::MAX);
    }

    #[test]
    fn pick_bit_prefers_start() {
        assert_eq!(pick_bit(0b1111, 2), 2);
        assert_eq!(pick_bit(0b0011, 2), 0, "wraps past start");
        assert_eq!(pick_bit(1 << 31, 0), 31);
    }

    fn setup(pages: usize) -> (DeviceHeap, PageMeta) {
        (DeviceHeap::new(pages as u64 * PAGE as u64), PageMeta::new(pages))
    }

    #[test]
    fn alloc_free_roundtrip_single_level() {
        let (heap, meta) = setup(2);
        let l = PageLayout::new(512, PAGE);
        let r = try_alloc_on_page(&heap, &meta, 0, 0, l, 3);
        let PageAlloc::Success { chunk_idx, made_full } = r else { panic!("{r:?}") };
        assert!(!made_full);
        assert_eq!(chunk_idx, 3, "hash seeds the bit position");
        let out = free_on_page(&heap, &meta, 0, 0, l, chunk_idx).unwrap();
        assert!(out.now_empty);
        assert!(!out.was_full);
    }

    #[test]
    fn page_fills_exactly_to_capacity() {
        let (heap, meta) = setup(1);
        let l = PageLayout::new(1024, PAGE); // 4 chunks
        let mut got = Vec::new();
        for i in 0..4 {
            match try_alloc_on_page(&heap, &meta, 0, 0, l, i) {
                PageAlloc::Success { chunk_idx, made_full } => {
                    got.push(chunk_idx);
                    assert_eq!(made_full, i == 3);
                }
                other => panic!("alloc {i}: {other:?}"),
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(try_alloc_on_page(&heap, &meta, 0, 0, l, 0), PageAlloc::Full);
    }

    #[test]
    fn mismatched_chunk_size_rejected() {
        let (heap, meta) = setup(1);
        let l1 = PageLayout::new(256, PAGE);
        let l2 = PageLayout::new(512, PAGE);
        assert!(matches!(try_alloc_on_page(&heap, &meta, 0, 0, l1, 0), PageAlloc::Success { .. }));
        assert_eq!(try_alloc_on_page(&heap, &meta, 0, 0, l2, 0), PageAlloc::Mismatch);
    }

    #[test]
    fn hierarchical_page_serves_all_chunks() {
        let (heap, meta) = setup(1);
        let l = PageLayout::new(16, PAGE);
        let mut seen = std::collections::HashSet::new();
        for i in 0..l.chunks {
            match try_alloc_on_page(&heap, &meta, 0, 0, l, (i * 7) as u64) {
                PageAlloc::Success { chunk_idx, .. } => {
                    assert!(seen.insert(chunk_idx), "duplicate chunk {chunk_idx}");
                }
                other => panic!("alloc {i}: {other:?}"),
            }
        }
        assert_eq!(try_alloc_on_page(&heap, &meta, 0, 0, l, 0), PageAlloc::Full);
    }

    #[test]
    fn hierarchical_free_reopens_group() {
        let (heap, meta) = setup(1);
        let l = PageLayout::new(16, PAGE);
        for i in 0..l.chunks {
            assert!(matches!(
                try_alloc_on_page(&heap, &meta, 0, 0, l, i as u64),
                PageAlloc::Success { .. }
            ));
        }
        let out = free_on_page(&heap, &meta, 0, 0, l, 40).unwrap();
        assert!(out.was_full);
        match try_alloc_on_page(&heap, &meta, 0, 0, l, 0) {
            PageAlloc::Success { chunk_idx, made_full } => {
                assert_eq!(chunk_idx, 40);
                assert!(made_full);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn double_free_detected_on_page() {
        let (heap, meta) = setup(1);
        let l = PageLayout::new(512, PAGE);
        let PageAlloc::Success { chunk_idx, .. } = try_alloc_on_page(&heap, &meta, 0, 0, l, 0)
        else {
            panic!()
        };
        free_on_page(&heap, &meta, 0, 0, l, chunk_idx).unwrap();
        assert!(free_on_page(&heap, &meta, 0, 0, l, chunk_idx).is_err());
    }

    #[test]
    fn reset_returns_page_to_free_state() {
        let (heap, meta) = setup(1);
        let l = PageLayout::new(256, PAGE);
        let PageAlloc::Success { chunk_idx, .. } = try_alloc_on_page(&heap, &meta, 0, 0, l, 5)
        else {
            panic!()
        };
        assert!(!try_reset_page(&meta, 0), "live page must not reset");
        free_on_page(&heap, &meta, 0, 0, l, chunk_idx).unwrap();
        assert!(try_reset_page(&meta, 0));
        // The page now accepts a different chunk size.
        let l2 = PageLayout::new(1024, PAGE);
        assert!(matches!(try_alloc_on_page(&heap, &meta, 0, 0, l2, 0), PageAlloc::Success { .. }));
    }

    #[test]
    fn concurrent_page_allocs_are_unique() {
        let (heap, meta) = setup(1);
        let heap = std::sync::Arc::new(heap);
        let meta = std::sync::Arc::new(meta);
        let l = PageLayout::new(16, PAGE);
        let mut handles = Vec::new();
        for t in 0..4 {
            let heap = heap.clone();
            let meta = meta.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for i in 0..(l.chunks / 4) {
                    if let PageAlloc::Success { chunk_idx, .. } =
                        try_alloc_on_page(&heap, &meta, 0, 0, l, (t * 31 + i) as u64)
                    {
                        got.push(chunk_idx);
                    }
                }
                got
            }));
        }
        let mut all: Vec<u32> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate chunk indices under contention");
    }
}
