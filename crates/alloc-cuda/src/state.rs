//! Locked internal state of the CUDA-Allocator model.

use super::{HEADER, MIN_CLASS, SMALL_LIMIT, UNIT};

/// Power-of-two classes 16 B .. 2048 B.
pub const NUM_CLASSES: usize =
    (SMALL_LIMIT.trailing_zeros() - MIN_CLASS.trailing_zeros() + 1) as usize;

/// Everything behind the model's global lock. The host `Vec`s stand in for
/// the real allocator's in-heap free lists and boundary tags: their growth
/// is modelling substrate, and the walks over them are metered as list hops.
pub struct State {
    /// Frontier of the small-unit area (grows up from the region base).
    pub small_bump: u64,
    /// Frontier of the large area (grows down from the region end).
    pub large_top: u64,
    /// LIFO free stacks of small block *header* offsets, one per class.
    class_free: [Vec<u64>; NUM_CLASSES],
    /// Sorted free list of large regions `(header_offset, total_len)`.
    large_free: Vec<(u64, u64)>,
    /// Registry of carved unit base offsets. Every small-path allocation
    /// performs a consistency walk over it — the model's knob for the two
    /// observed behaviours it stands in for: "performance continuously
    /// [degrades] with the amount of allocations" (§5) and the size
    /// staircase (larger classes carve more units per allocation, so the
    /// registry grows faster and each walk costs more).
    units: Vec<u64>,
}

/// Bound of the per-carve duplicate check (cheap; the per-allocation
/// consistency walk in [`State::validate_units`] is unbounded by design).
const UNIT_SCAN_WINDOW: usize = 4096;

impl State {
    pub fn new(base: u64, len: u64) -> Self {
        State {
            small_bump: base,
            large_top: base + len,
            class_free: std::array::from_fn(|_| Vec::new()),
            large_free: Vec::new(),
            units: Vec::new(),
        }
    }

    /// Pops a free block header for `class_idx`, if any.
    pub fn pop_class(&mut self, class_idx: usize) -> Option<u64> {
        self.class_free[class_idx].pop()
    }

    /// Pushes a block header back onto its class stack.
    pub fn push_class(&mut self, class_idx: usize, header: u64) {
        self.class_free[class_idx].push(header);
    }

    /// Scans up to `window` most-recent entries of a class stack for
    /// `header` (double-free validation; deliberately linear — see crate
    /// docs on modelled deallocation weight).
    pub fn class_contains(&self, class_idx: usize, header: u64, window: usize) -> bool {
        let stack = &self.class_free[class_idx];
        let start = stack.len().saturating_sub(window);
        stack[start..].contains(&header)
    }

    /// Carves a fresh 4 KiB unit into blocks of `class_bytes` and fills the
    /// class stack. Returns `None` when the two frontiers would collide.
    pub fn carve_unit(&mut self, class_idx: usize, class_bytes: u64) -> Option<()> {
        let unit = UNIT.max(class_bytes + HEADER);
        if self.small_bump + unit > self.large_top {
            return None;
        }
        // Units come from *both ends* of the region alternately — the
        // survey observes that the CUDA-Allocator "always reports back the
        // maximum possible range, which might suggest that it starts
        // allocating from both ends of its memory region" (§4.3.1).
        let base = if self.units.len().is_multiple_of(2) {
            let b = self.small_bump;
            self.small_bump += unit;
            b
        } else {
            self.large_top -= unit;
            self.large_top
        };
        let start = self.units.len().saturating_sub(UNIT_SCAN_WINDOW);
        debug_assert!(!self.units[start..].contains(&base), "carve produced a duplicate unit base");
        let _ = start;
        self.units.push(base);
        let footprint = class_bytes + HEADER;
        let n = (unit / footprint).max(1);
        // Push in reverse so the unit is handed out low-to-high (LIFO pop).
        for i in (0..n).rev() {
            self.class_free[class_idx].push(base + i * footprint);
        }
        Some(())
    }

    /// Allocates `need` bytes (header included) from the large area:
    /// first-fit over the sorted free list, else bump the top frontier down.
    pub fn alloc_large(&mut self, need: u64) -> Option<u64> {
        // First-fit walk of the free list (linear on purpose: cost grows
        // with allocation history, one of the modelled behaviours).
        for i in 0..self.large_free.len() {
            let (off, len) = self.large_free[i];
            if len >= need {
                if len - need >= UNIT {
                    // Split, keeping the remainder in place.
                    // Cannot wrap: need <= len (checked above), and off + len never
                    // exceeds the region top.
                    self.large_free[i] = (off + need, len - need);
                } else {
                    self.large_free.remove(i);
                }
                return Some(off);
            }
        }
        let new_top = self.large_top.checked_sub(need)?;
        if new_top < self.small_bump {
            return None;
        }
        self.large_top = new_top;
        Some(new_top)
    }

    /// Returns a large region to the free list, coalescing neighbours and
    /// folding into the top frontier when adjacent.
    pub fn free_large(&mut self, header: u64, len: u64) {
        let idx = self.large_free.partition_point(|&(off, _)| off < header);
        self.large_free.insert(idx, (header, len));
        // Coalesce with successor.
        if idx + 1 < self.large_free.len() {
            let (off, l) = self.large_free[idx];
            let (noff, nl) = self.large_free[idx + 1];
            // off + l is the block's end, bounded by the region top like every
            // free-list entry's.
            if off + l == noff {
                self.large_free[idx] = (off, l + nl);
                self.large_free.remove(idx + 1);
            }
        }
        // Coalesce with predecessor.
        if idx > 0 {
            let (poff, pl) = self.large_free[idx - 1];
            let (off, l) = self.large_free[idx];
            if poff + pl == off {
                self.large_free[idx - 1] = (poff, pl + l);
                self.large_free.remove(idx);
            }
        }
        // Fold a block that reaches the frontier back into it.
        if let Some(&(off, l)) = self.large_free.last() {
            if off == self.large_top {
                // off == large_top, and off + l <= region end by the free-list invariant.
                self.large_top = off + l;
                self.large_free.pop();
                // The frontier moved up; nothing else can touch it (the list
                // is sorted and coalesced).
            }
        }
    }

    /// Per-allocation consistency walk over the unit registry (see the
    /// `units` field docs). Returns a checksum so the optimiser cannot
    /// remove the walk.
    #[inline(never)]
    pub fn validate_units(&self) -> u64 {
        let mut acc = 0u64;
        for &u in &self.units {
            acc = acc.wrapping_add(u ^ (acc >> 7));
        }
        acc
    }

    /// Number of distinct free large regions (test hook and the upper bound
    /// on the first-fit walk length — the model's `list_hops` source).
    pub fn large_free_len(&self) -> usize {
        self.large_free.len()
    }

    /// Number of carved units — the length of every [`State::validate_units`]
    /// walk (the model's `probe_steps` source).
    pub fn units_len(&self) -> usize {
        self.units.len()
    }

    /// Depth of one class free stack — bounds the double-free scan in
    /// [`State::class_contains`].
    pub fn class_depth(&self, class_idx: usize) -> usize {
        self.class_free[class_idx].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carve_fills_class_stack() {
        let mut st = State::new(0, 1 << 20);
        st.carve_unit(0, 16).unwrap();
        // 4096 / (16+16) = 128 blocks.
        let mut count = 0;
        while st.pop_class(0).is_some() {
            count += 1;
        }
        assert_eq!(count, 128);
        assert_eq!(st.small_bump, 4096);
    }

    #[test]
    fn carve_hands_out_low_to_high() {
        let mut st = State::new(0, 1 << 20);
        st.carve_unit(1, 32).unwrap();
        let a = st.pop_class(1).unwrap();
        let b = st.pop_class(1).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 48);
    }

    #[test]
    fn carve_fails_when_frontiers_collide() {
        let mut st = State::new(0, 8192);
        assert!(st.carve_unit(0, 16).is_some());
        assert!(st.carve_unit(0, 16).is_some());
        assert!(st.carve_unit(0, 16).is_none(), "8 KiB = exactly two units");
    }

    #[test]
    fn large_bump_comes_down_from_top() {
        let mut st = State::new(0, 1 << 20);
        let a = st.alloc_large(4096).unwrap();
        let b = st.alloc_large(4096).unwrap();
        assert_eq!(a, (1 << 20) - 4096);
        assert_eq!(b, (1 << 20) - 8192);
    }

    #[test]
    fn large_free_coalesces_neighbours() {
        let mut st = State::new(0, 1 << 20);
        let a = st.alloc_large(4096).unwrap();
        let b = st.alloc_large(4096).unwrap();
        let c = st.alloc_large(4096).unwrap();
        // Free middle, then its neighbours; blocks merge and fold back into
        // the frontier.
        st.free_large(b, 4096);
        assert_eq!(st.large_free_len(), 1);
        st.free_large(a, 4096);
        assert_eq!(st.large_free_len(), 1, "a+b coalesce");
        st.free_large(c, 4096);
        assert_eq!(st.large_free_len(), 0, "all folded into the frontier");
        assert_eq!(st.large_top, 1 << 20);
    }

    #[test]
    fn large_first_fit_splits_big_blocks() {
        let mut st = State::new(0, 1 << 20);
        let a = st.alloc_large(64 * 1024).unwrap();
        let _b = st.alloc_large(4096).unwrap(); // pin the frontier
        st.free_large(a, 64 * 1024);
        let c = st.alloc_large(8192).unwrap();
        assert_eq!(c, a, "first fit reuses the freed block's start");
        assert_eq!(st.large_free_len(), 1, "remainder stays on the list");
        let d = st.alloc_large(8192).unwrap();
        assert_eq!(d, a + 8192);
    }

    #[test]
    fn double_free_scan_window() {
        let mut st = State::new(0, 1 << 20);
        st.push_class(0, 64);
        assert!(st.class_contains(0, 64, 16));
        assert!(!st.class_contains(0, 128, 16));
        // Outside the window the scan cannot see it.
        for i in 0..100 {
            st.push_class(0, 1000 + i);
        }
        assert!(!st.class_contains(0, 64, 16));
        assert!(st.class_contains(0, 64, 2048));
    }
}
