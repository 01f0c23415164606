//! The Memoryblock heap: XMalloc's bottom allocation layer.
//!
//! Paper §2.2 / Figure 1: "Large allocations (as well as Superblocks) are
//! served from a heap, which is segmented into free and allocated
//! Memoryblocks. These blocks form a linked-list, which allows for merging
//! of neighboring blocks. This type of allocation is relatively slow, as the
//! list of memory blocks has to be traversed in search of a free
//! Memoryblock."
//!
//! The port keeps the list, the one lock, the split on allocation and the
//! merge with both physical neighbours on free (`prev_size` backlinks make
//! the list effectively doubly-linked, as in the original), and it keeps the
//! answer: address-ordered first fit. What it does not keep is the walk from
//! the list head over every block that cannot fit. The lock holds one list
//! position per **size bin** (a power of two times 16 linear sub-bins, about
//! 16·log₂(len) entries), kept under three invariants:
//!
//! 1. every entry is a block start, or the end of the list;
//! 2. no free block at least as large as a bin's floor starts below the
//!    bin's entry;
//! 3. entries are non-decreasing in the bin index.
//!
//! A request's bin rounds *down*, so its floor is at most the block size
//! needed and by (2) nothing below the entry can fit: the walk that starts
//! there returns the block the walk from the head returns. An allocation
//! raises the entries from its bin upward to the first free block of at least
//! the bin's floor it stepped over (else to where it stopped); a free lowers
//! to the merged block every entry above it that the block's size reaches or
//! that points at a header the merge absorbed. (3) makes both a contiguous
//! run of the array.

use std::sync::Mutex;

use gpumem_core::DeviceHeap;

/// Block header size; payload starts `HDR` bytes into a block.
pub const HDR: u64 = 32;

const MAGIC_FREE: u32 = 0x4D42_0000;
const MAGIC_ALLOC: u32 = 0x4D42_0001;

/// First-fit Memoryblock heap over `[base, base+len)` of a shared heap.
pub struct MBlockHeap {
    base: u64,
    len: u64,
    /// The list lock, holding the walk's start per size bin (module doc).
    hints: Mutex<Vec<u64>>,
}

/// Size bin of a block size (at least [`HDR`]), rounded down, and the bin's
/// floor: the smallest size that maps to it.
fn bin(size: u64) -> (usize, u64) {
    let shift = size.ilog2() - 4;
    let top = size >> shift; // 16..=31: the leading one and four sub-bin bits
    ((shift as usize - 1) * 16 + (top as usize - 16), top << shift)
}

// Header accessors (all through the heap's atomic views; the lock makes the
// plain ordering sufficient, the atomics keep the reads defined even if a
// buggy caller races).
fn magic(heap: &DeviceHeap, block: u64) -> u32 {
    heap.load_u32(block)
}
fn set_magic(heap: &DeviceHeap, block: u64, m: u32) {
    heap.store_u32(block, m);
}
fn size(heap: &DeviceHeap, block: u64) -> u64 {
    heap.load_u64(block + 8)
}
fn set_size(heap: &DeviceHeap, block: u64, s: u64) {
    heap.store_u64(block + 8, s);
}
fn prev_size(heap: &DeviceHeap, block: u64) -> u64 {
    heap.load_u64(block + 16)
}
fn set_prev_size(heap: &DeviceHeap, block: u64, s: u64) {
    heap.store_u64(block + 16, s);
}

impl MBlockHeap {
    /// Initialises the segment list: one all-covering free Memoryblock.
    pub fn new(heap: &DeviceHeap, base: u64, len: u64) -> Self {
        assert!(base.is_multiple_of(16) && len.is_multiple_of(16) && len > HDR);
        assert!(base + len <= heap.len());
        set_magic(heap, base, MAGIC_FREE);
        set_size(heap, base, len);
        set_prev_size(heap, base, 0);
        MBlockHeap { base, len, hints: Mutex::new(vec![base; bin(len).0 + 1]) }
    }

    /// Allocates `payload` bytes; returns the payload offset (16-aligned).
    pub fn alloc(&self, heap: &DeviceHeap, payload: u64) -> Option<u64> {
        let mut hops = 0;
        self.alloc_with(heap, payload, &mut hops)
    }

    /// [`MBlockHeap::alloc`] that also counts first-fit traversal hops —
    /// one per Memoryblock visited — into `hops` (the `list_hops` source of
    /// the contention-observability layer).
    pub fn alloc_with(&self, heap: &DeviceHeap, payload: u64, hops: &mut u64) -> Option<u64> {
        // Checked: a wrapped `need` would split a zero-sized block off the
        // first free one. A block larger than the list has no bin either.
        let need = payload.checked_next_multiple_of(16)?.checked_add(HDR)?;
        if need > self.len {
            return None;
        }
        let (bin, floor) = bin(need);
        let mut hints = self.hints.lock().unwrap();
        let end = self.base + self.len;
        let mut block = hints[bin];
        // First free block of at least `floor` bytes the walk steps over.
        let mut skipped = None;
        let mut granted = None;
        while block < end {
            *hops += 1;
            let bsize = size(heap, block);
            debug_assert!(bsize >= HDR && block + bsize <= end, "corrupt memoryblock list");
            if magic(heap, block) == MAGIC_FREE {
                if bsize >= need {
                    let mut taken = bsize;
                    if bsize - need >= HDR + 16 {
                        // Split: trailing remainder stays free.
                        let rest = block + need;
                        set_magic(heap, rest, MAGIC_FREE);
                        set_size(heap, rest, bsize - need);
                        set_prev_size(heap, rest, need);
                        set_size(heap, block, need);
                        let after = rest + (bsize - need);
                        if after < end {
                            set_prev_size(heap, after, bsize - need);
                        }
                        taken = need;
                    } // else: hand out the whole block (internal fragmentation).
                    set_magic(heap, block, MAGIC_ALLOC);
                    granted = Some(block + HDR);
                    block += taken;
                    break;
                }
                if bsize >= floor && skipped.is_none() {
                    skipped = Some(block);
                }
            }
            block += bsize;
        }
        // `block` is the remainder, the block after a whole grant, or `end`:
        // nothing free below it reaches `floor` except what was stepped over.
        let bound = skipped.unwrap_or(block);
        for hint in hints[bin..].iter_mut().take_while(|h| **h < bound) {
            *hint = bound;
        }
        granted
    }

    /// Frees a payload offset previously returned by [`MBlockHeap::alloc`],
    /// merging with free physical neighbours. `Err(())` flags an invalid or
    /// doubly freed offset; the caller maps it onto its own error type.
    #[allow(clippy::result_unit_err)]
    pub fn free(&self, heap: &DeviceHeap, payload: u64) -> Result<(), ()> {
        if payload < self.base + HDR || payload >= self.base + self.len {
            return Err(());
        }
        let mut block = payload - HDR;
        let mut hints = self.hints.lock().unwrap();
        if magic(heap, block) != MAGIC_ALLOC {
            return Err(());
        }
        let end = self.base + self.len;
        let mut bsize = size(heap, block);
        set_magic(heap, block, MAGIC_FREE);
        // Merge forward.
        let next = block + bsize;
        if next < end && magic(heap, next) == MAGIC_FREE {
            bsize += size(heap, next);
            set_size(heap, block, bsize);
        }
        // Merge backward.
        let psize = prev_size(heap, block);
        if psize != 0 {
            let prev = block - psize;
            if magic(heap, prev) == MAGIC_FREE {
                bsize += size(heap, prev);
                block = prev;
                set_size(heap, block, bsize);
            }
        }
        // Fix the backlink of whatever follows the merged block.
        let after = block + bsize;
        if after < end {
            set_prev_size(heap, after, bsize);
        }
        // Lower to the merged block every hint above it that its size
        // reaches or that was left on a header the merge absorbed.
        let reach = bin(bsize).0;
        let above = hints.partition_point(|&h| h <= block);
        for (i, hint) in hints.iter_mut().enumerate().skip(above) {
            if i > reach && *hint >= after {
                break;
            }
            *hint = block;
        }
        Ok(())
    }

    /// Number of blocks in the list and number of free blocks (diagnostics).
    pub fn census(&self, heap: &DeviceHeap) -> (u64, u64) {
        let _g = self.hints.lock().unwrap();
        let end = self.base + self.len;
        let (mut total, mut free) = (0u64, 0u64);
        let mut block = self.base;
        while block < end {
            total += 1;
            if magic(heap, block) == MAGIC_FREE {
                free += 1;
            }
            block += size(heap, block);
        }
        (total, free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup(len: u64) -> (DeviceHeap, MBlockHeap) {
        let heap = DeviceHeap::new(len);
        let mb = MBlockHeap::new(&heap, 0, len);
        (heap, mb)
    }

    /// The three hint invariants of the module doc, read off the headers.
    fn assert_hints(heap: &DeviceHeap, mb: &MBlockHeap) {
        let hints = mb.hints.lock().unwrap();
        let end = mb.base + mb.len;
        let mut starts = Vec::new();
        let mut block = mb.base;
        while block < end {
            starts.push(block);
            let bsize = size(heap, block);
            if magic(heap, block) == MAGIC_FREE {
                // Its own bin's entry bounds every lower bin's (monotone).
                let (bin, floor) = bin(bsize);
                assert!(hints[bin] <= block, "free {bsize} B at {block}: bin {floor} starts above");
            }
            block += bsize;
        }
        starts.push(end);
        assert!(hints.windows(2).all(|w| w[0] <= w[1]), "not monotone: {hints:?}");
        for hint in hints.iter() {
            assert!(starts.binary_search(hint).is_ok(), "hint {hint} is not a block start");
        }
    }

    /// The payload a first-fit walk from the list head grants.
    fn from_head_fit(heap: &DeviceHeap, mb: &MBlockHeap, payload: u64) -> Option<u64> {
        let need = payload.next_multiple_of(16) + HDR;
        let end = mb.base + mb.len;
        let mut block = mb.base;
        while block < end {
            if magic(heap, block) == MAGIC_FREE && size(heap, block) >= need {
                return Some(block + HDR);
            }
            block += size(heap, block);
        }
        None
    }

    #[derive(Clone, Debug)]
    enum Op {
        Alloc(u64),
        Free(usize),
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, max_shrink_iters: 200 })]
        #[test]
        fn hinted_walk_grants_what_the_walk_from_the_head_grants(
            ops in proptest::collection::vec(
                prop_oneof![
                    1 => (1u64..=64).prop_map(Op::Alloc),
                    1 => (1u64..=5_000).prop_map(Op::Alloc),
                    1 => (2_000u64..=4_200).prop_map(Op::Alloc),
                    1 => (1u64..=40_000).prop_map(Op::Alloc),
                    3 => (0usize..64).prop_map(Op::Free),
                ],
                1..400,
            )
        ) {
            let (heap, mb) = setup(256 << 10);
            let mut live = Vec::new();
            for op in &ops {
                match *op {
                    Op::Alloc(payload) => {
                        let expected = from_head_fit(&heap, &mb, payload);
                        prop_assert_eq!(mb.alloc(&heap, payload), expected, "payload {}", payload);
                        live.extend(expected);
                    }
                    Op::Free(i) if !live.is_empty() => {
                        let i = i % live.len();
                        mb.free(&heap, live.swap_remove(i)).unwrap();
                    }
                    Op::Free(_) => {}
                }
                assert_hints(&heap, &mb);
            }
            for p in live {
                mb.free(&heap, p).unwrap();
                assert_hints(&heap, &mb);
            }
            prop_assert_eq!(mb.census(&heap), (1, 1));
        }
    }

    #[test]
    fn free_takes_hints_off_the_header_it_absorbs() {
        let (heap, mb) = setup(16 << 10);
        let hint_of = |block_size: u64| mb.hints.lock().unwrap()[bin(block_size).0];
        let y = mb.alloc(&heap, 2016).unwrap(); // [0, 2048)
        let p = mb.alloc(&heap, 64).unwrap(); // [2048, 2144)
        let x = mb.alloc(&heap, 512).unwrap(); // [2144, 2688)
        let _c = mb.alloc(&heap, 64).unwrap(); // [2688, 2784)
        mb.free(&heap, x).unwrap();
        // Freeing and re-granting `y` leaves every bin below its own at 0.
        mb.free(&heap, y).unwrap();
        assert_eq!(mb.alloc(&heap, 2016), Some(y));
        // 560 B shares x's bin (floor 544) and does not fit x: the walk steps
        // over x and raises every bin from there to y's onto it.
        mb.alloc(&heap, 528).unwrap();
        assert_eq!(hint_of(2048), x - HDR, "a hint on x in a bin x cannot serve");
        assert_hints(&heap, &mb);
        // p merges forward over x into 640 B, short of the 1 KiB and 2 KiB bins.
        mb.free(&heap, p).unwrap();
        assert_eq!(hint_of(2048), p - HDR);
        assert_hints(&heap, &mb);
        let expected = from_head_fit(&heap, &mb, 1000);
        assert_eq!(mb.alloc(&heap, 1000), expected);
        assert_hints(&heap, &mb);
    }

    #[test]
    fn single_free_block_at_start() {
        let (heap, mb) = setup(4096);
        assert_eq!(mb.census(&heap), (1, 1));
    }

    #[test]
    fn alloc_splits_and_free_merges() {
        let (heap, mb) = setup(4096);
        let a = mb.alloc(&heap, 100).unwrap();
        assert_eq!(a % 16, 0);
        assert_eq!(mb.census(&heap), (2, 1));
        mb.free(&heap, a).unwrap();
        assert_eq!(mb.census(&heap), (1, 1), "free must merge back to one block");
    }

    #[test]
    fn first_fit_reuses_earliest_hole() {
        let (heap, mb) = setup(8192);
        let a = mb.alloc(&heap, 512).unwrap();
        let _b = mb.alloc(&heap, 512).unwrap();
        mb.free(&heap, a).unwrap();
        let c = mb.alloc(&heap, 256).unwrap();
        assert_eq!(c, a, "first fit grants the lowest hole that fits");
    }

    #[test]
    fn backward_merge_via_prev_size() {
        let (heap, mb) = setup(8192);
        let a = mb.alloc(&heap, 512).unwrap();
        let b = mb.alloc(&heap, 512).unwrap();
        let _c = mb.alloc(&heap, 512).unwrap();
        mb.free(&heap, a).unwrap();
        mb.free(&heap, b).unwrap(); // must merge backward into a's block
        assert_eq!(mb.census(&heap), (3, 2)); // [a+b free][c][tail free]
        let d = mb.alloc(&heap, 1024).unwrap();
        assert_eq!(d, a, "merged hole fits the bigger request");
    }

    #[test]
    fn exhaustion_returns_none() {
        let (heap, mb) = setup(1024);
        assert!(mb.alloc(&heap, 2048).is_none());
        let a = mb.alloc(&heap, 900).unwrap();
        assert!(mb.alloc(&heap, 900).is_none());
        mb.free(&heap, a).unwrap();
        assert!(mb.alloc(&heap, 900).is_some());
    }

    #[test]
    fn invalid_frees_rejected() {
        let (heap, mb) = setup(4096);
        assert!(mb.free(&heap, 8).is_err(), "below first payload");
        assert!(mb.free(&heap, 5000).is_err(), "out of range");
        let a = mb.alloc(&heap, 64).unwrap();
        mb.free(&heap, a).unwrap();
        assert!(mb.free(&heap, a).is_err(), "double free");
    }

    #[test]
    fn many_blocks_roundtrip() {
        let (heap, mb) = setup(1 << 16);
        let ptrs: Vec<u64> = (0..40).map(|_| mb.alloc(&heap, 1000).unwrap()).collect();
        // Free every other block, then the rest; everything merges.
        for p in ptrs.iter().step_by(2) {
            mb.free(&heap, *p).unwrap();
        }
        for p in ptrs.iter().skip(1).step_by(2) {
            mb.free(&heap, *p).unwrap();
        }
        assert_eq!(mb.census(&heap), (1, 1));
    }
}
