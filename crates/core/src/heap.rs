//! The simulated slab of GPU global memory.
//!
//! Every manager in the survey is "instantiated on the host with a
//! configurable size of the manageable memory" (paper §3) and then serves all
//! requests out of that one region. [`DeviceHeap`] is that region: a single
//! zero-initialised host mapping addressed by byte offsets ([`DevicePtr`]).
//!
//! Two access families are offered:
//!
//! * **Atomic views** ([`DeviceHeap::atomic_u32`], [`DeviceHeap::atomic_u64`])
//!   give shared references to atomics living *inside* the heap. The original
//!   allocators keep headers, bit fields and queue storage in device memory
//!   and manipulate them with `atomicCAS`/`atomicAdd`; the Rust ports do
//!   exactly the same through these views, so the heap layouts in the paper's
//!   figures are preserved byte-for-byte where they are specified.
//! * **Payload access** ([`DeviceHeap::fill`], [`DeviceHeap::read_u8`],
//!   [`DeviceHeap::write_bytes`], …) used by benchmarks that write to the
//!   memory they allocated (the Fig. 11e access test, the graph test cases).
//!
//! # Backends
//!
//! The bytes live in one mapping (see [`crate::backend`]): a hugepage-advised
//! one committed up front (`ram`), or an mmap `MAP_NORESERVE` reservation
//! that runs the paper's full 8 GiB heap on any host (`mmap`).
//! [`DeviceHeap::try_new`] selects by [`HeapSpec`] and surfaces OS refusal
//! as a typed [`HeapError`]; [`DeviceHeap::new`] is the thin panicking
//! wrapper tests use. The base pointer and length are plain fields, so the
//! hot paths read no more than they would of a slice.
//!
//! # Safety model
//!
//! The heap hands out `&AtomicU32`/`&AtomicU64` freely: aliasing atomics is
//! sound. Non-atomic payload access is only performed by benchmark kernels on
//! regions the allocator under test returned, and the allocator invariant
//! "live allocations never overlap" (property-tested for every manager) makes
//! those accesses race-free. Payload reads/writes deliberately go through
//! volatile-style raw-pointer ops rather than slices so that a *buggy*
//! allocator under test produces torn data, not Rust UB on references.

use crate::backend::{HeapBackendKind, HeapError, HeapSpec, Map, Pretouch, MAPPED};
use crate::sync::{AtomicU32, AtomicU64, Ordering};

use crate::ptr::DevicePtr;

/// One contiguous region of simulated device memory.
pub struct DeviceHeap {
    /// `map.base()`, read by every heap access.
    base: *mut u8,
    /// `map.len()`.
    len: u64,
    kind: HeapBackendKind,
    /// The spec's policy, resolved for `kind`.
    pretouch: Pretouch,
    /// Owns the mapping; dropping it releases the memory.
    map: Map,
}

// SAFETY: all shared mutation of heap contents goes through atomics or
// through non-overlapping payload regions (see module docs).
unsafe impl Send for DeviceHeap {}
// SAFETY: see the Send impl — concurrent access is mediated by the in-heap
// atomic views; plain reads/writes require caller-side exclusivity.
unsafe impl Sync for DeviceHeap {}

impl DeviceHeap {
    /// Alignment of the heap base — matches the 128-byte memory-transaction
    /// segment size of the GPUs in the survey, so segment math on offsets is
    /// also valid segment math on simulated physical addresses.
    pub const BASE_ALIGN: usize = 128;

    /// Allocates a zeroed heap of `len` bytes over the default backend
    /// (RAM, or whatever `GMS_HEAP_BACKEND` selects) — the thin panicking
    /// wrapper over [`DeviceHeap::try_new`] that tests and examples use.
    ///
    /// # Panics
    /// Panics if `len` is zero, not a multiple of 128, or the reservation
    /// fails.
    pub fn new(len: u64) -> Self {
        Self::try_new(HeapSpec::new(len)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Constructs a heap as described by `spec`: validates it, refuses a
    /// backend this platform lacks, maps it and, under `Full` pre-touch,
    /// commits every page before returning. Failure (zero or unrounded
    /// size, OS refusing the reservation or the commit, backend unavailable)
    /// is a typed [`HeapError`].
    pub fn try_new(spec: HeapSpec) -> Result<Self, HeapError> {
        spec.validate()?;
        let kind = spec.backend;
        if !kind.available() {
            let reason = "the mmap backend requires the Linux mmap surface";
            return Err(HeapError::Unavailable { backend: kind, reason });
        }
        let refused = HeapError::ReserveFailed { len: spec.len, backend: kind };
        let map = usize::try_from(spec.len)
            .ok()
            .and_then(|len| Map::reserve(len, kind == HeapBackendKind::Mmap))
            .ok_or_else(|| refused.clone())?;
        let pretouch = spec.pretouch.resolve(kind);
        if pretouch == Pretouch::Full {
            map.commit(0, spec.len).map_err(|_| refused)?;
        }
        Ok(DeviceHeap { base: map.base(), len: map.len() as u64, kind, pretouch, map })
    }

    /// Which backend family backs this heap (for provenance stamps).
    #[inline]
    pub fn backend_kind(&self) -> HeapBackendKind {
        self.kind
    }

    /// One-line placement description for provenance stamps:
    /// `ram(mapped) hugepage=advised pretouch=full`,
    /// `mmap(noreserve) pretouch=lazy`. `hugepage` says whether the kernel
    /// took the advice, `ram(slab)` that there was no mapping to advise.
    pub fn describe(&self) -> String {
        let pretouch = self.pretouch;
        if self.kind == HeapBackendKind::Mmap {
            return format!("mmap(noreserve) pretouch={pretouch}");
        }
        let form = if MAPPED { "mapped" } else { "slab" };
        let hugepage = if self.map.hugepage() { "advised" } else { "refused" };
        format!("ram({form}) hugepage={hugepage} pretouch={pretouch}")
    }

    /// Commits every page that holds a byte of `[offset, offset + len)`
    /// (clamped to the heap) — warm-up for timing-sensitive runs on lazily
    /// committed heaps. The bytes keep their values.
    pub fn commit(&self, offset: u64, len: u64) {
        // A warm-up, not a reservation: pages the kernel cannot back now
        // fail where they would have without this call, at first use.
        let _ = self.map.commit(offset, len);
    }

    /// Size of the manageable memory in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the heap is empty (never true: construction requires > 0).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, offset: u64, bytes: u64, align: u64) {
        assert!(
            offset.checked_add(bytes).is_some_and(|end| end <= self.len),
            "heap access out of bounds: offset {offset} + {bytes} > len {}",
            self.len
        );
        assert_eq!(offset % align, 0, "heap access misaligned: offset {offset}, align {align}");
    }

    /// A shared view of the 4 bytes at `offset` as an [`AtomicU32`].
    ///
    /// # Panics
    /// Panics if `offset` is out of bounds or not 4-byte aligned.
    #[inline]
    pub fn atomic_u32(&self, offset: u64) -> &AtomicU32 {
        self.check(offset, 4, 4);
        // SAFETY: in-bounds, aligned; AtomicU32 has no invalid bit patterns,
        // and the backing memory outlives `&self`.
        unsafe { &*(self.base.add(offset as usize) as *const AtomicU32) }
    }

    /// A shared view of the 8 bytes at `offset` as an [`AtomicU64`].
    ///
    /// # Panics
    /// Panics if `offset` is out of bounds or not 8-byte aligned.
    #[inline]
    pub fn atomic_u64(&self, offset: u64) -> &AtomicU64 {
        self.check(offset, 8, 8);
        // SAFETY: as in `atomic_u32`.
        unsafe { &*(self.base.add(offset as usize) as *const AtomicU64) }
    }

    /// Relaxed load of the `u32` at `offset` (convenience over
    /// [`DeviceHeap::atomic_u32`]).
    #[inline]
    pub fn load_u32(&self, offset: u64) -> u32 {
        self.atomic_u32(offset).load(Ordering::Relaxed)
    }

    /// Relaxed store of the `u32` at `offset`.
    #[inline]
    pub fn store_u32(&self, offset: u64, v: u32) {
        self.atomic_u32(offset).store(v, Ordering::Relaxed);
    }

    /// Relaxed load of the `u64` at `offset`.
    #[inline]
    pub fn load_u64(&self, offset: u64) -> u64 {
        self.atomic_u64(offset).load(Ordering::Relaxed)
    }

    /// Relaxed store of the `u64` at `offset`.
    #[inline]
    pub fn store_u64(&self, offset: u64, v: u64) {
        self.atomic_u64(offset).store(v, Ordering::Relaxed);
    }

    /// Fills `[ptr, ptr+len)` with `val` — the benchmark "write to my
    /// allocation" kernel body.
    ///
    /// # Panics
    /// Panics on null pointers or out-of-bounds ranges.
    pub fn fill(&self, ptr: DevicePtr, len: u64, val: u8) {
        let offset = ptr.offset();
        self.check(offset, len, 1);
        // SAFETY: in-bounds; region is an allocation owned by the caller's
        // thread (allocator non-overlap invariant), so no data race.
        unsafe {
            std::ptr::write_bytes(self.base.add(offset as usize), val, len as usize);
        }
    }

    /// Reads one byte (used by tests to verify fills landed).
    pub fn read_u8(&self, ptr: DevicePtr, at: u64) -> u8 {
        // checked: `offset + at` wrapping in release would land the read back
        // inside the heap and sail past `check`.
        let offset = ptr
            .offset()
            .checked_add(at)
            .unwrap_or_else(|| panic!("heap read offset overflow: {} + {at}", ptr.offset()));
        self.check(offset, 1, 1);
        // SAFETY: in-bounds read of initialised (zeroed-or-written) memory.
        unsafe { self.base.add(offset as usize).read_volatile() }
    }

    /// Copies `data` into the heap at `ptr` (graph adjacency uploads).
    pub fn write_bytes(&self, ptr: DevicePtr, data: &[u8]) {
        let offset = ptr.offset();
        self.check(offset, data.len() as u64, 1);
        // SAFETY: in-bounds, non-overlapping with `data` (heap memory is
        // never handed out as a slice), race-free per allocator invariant.
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                self.base.add(offset as usize),
                data.len(),
            );
        }
    }

    /// Copies `out.len()` bytes from the heap at `ptr` into `out`.
    pub fn read_bytes(&self, ptr: DevicePtr, out: &mut [u8]) {
        let offset = ptr.offset();
        self.check(offset, out.len() as u64, 1);
        // SAFETY: symmetric to `write_bytes`.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.base.add(offset as usize),
                out.as_mut_ptr(),
                out.len(),
            );
        }
    }

    /// Device-to-device copy of `len` bytes; `src` and `dst` must not
    /// overlap. Used by the dynamic-graph test case when an adjacency grows
    /// over a power-of-two boundary and moves to a new allocation.
    pub fn copy(&self, src: DevicePtr, dst: DevicePtr, len: u64) {
        let s = src.offset();
        let d = dst.offset();
        self.check(s, len, 1);
        self.check(d, len, 1);
        assert!(
            s + len <= d || d + len <= s,
            "DeviceHeap::copy regions overlap: src={s}, dst={d}, len={len}"
        );
        // SAFETY: in-bounds and non-overlapping (asserted).
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.base.add(s as usize),
                self.base.add(d as usize),
                len as usize,
            );
        }
    }
}

impl std::fmt::Debug for DeviceHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceHeap").field("len", &self.len).field("backend", &self.kind).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Ordering;

    #[test]
    fn zero_initialised() {
        let h = DeviceHeap::new(4096);
        assert_eq!(h.len(), 4096);
        assert_eq!(h.load_u64(0), 0);
        assert_eq!(h.load_u32(4092), 0);
        assert_eq!(h.read_u8(DevicePtr::new(0), 17), 0);
    }

    #[test]
    fn atomic_views_mutate_heap() {
        let h = DeviceHeap::new(1024);
        h.atomic_u32(128).store(0xdead_beef, Ordering::SeqCst);
        assert_eq!(h.load_u32(128), 0xdead_beef);
        let prev = h.atomic_u64(256).fetch_add(40, Ordering::SeqCst);
        assert_eq!(prev, 0);
        assert_eq!(h.load_u64(256), 40);
    }

    #[test]
    fn atomic_cas_through_view() {
        let h = DeviceHeap::new(256);
        let a = h.atomic_u32(0);
        assert!(a.compare_exchange(0, 7, Ordering::SeqCst, Ordering::SeqCst).is_ok());
        assert!(a.compare_exchange(0, 9, Ordering::SeqCst, Ordering::SeqCst).is_err());
        assert_eq!(h.load_u32(0), 7);
    }

    #[test]
    fn fill_and_read_roundtrip() {
        let h = DeviceHeap::new(1024);
        let p = DevicePtr::new(100);
        h.fill(p, 64, 0xab);
        assert_eq!(h.read_u8(p, 0), 0xab);
        assert_eq!(h.read_u8(p, 63), 0xab);
        assert_eq!(h.read_u8(DevicePtr::new(0), 99), 0);
        assert_eq!(h.read_u8(DevicePtr::new(164), 0), 0);
    }

    #[test]
    fn write_read_bytes_roundtrip() {
        let h = DeviceHeap::new(1024);
        let p = DevicePtr::new(512);
        let data: Vec<u8> = (0..32).collect();
        h.write_bytes(p, &data);
        let mut out = vec![0u8; 32];
        h.read_bytes(p, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn device_copy_moves_payload() {
        let h = DeviceHeap::new(1024);
        h.write_bytes(DevicePtr::new(0), &[1, 2, 3, 4]);
        h.copy(DevicePtr::new(0), DevicePtr::new(500), 4);
        let mut out = [0u8; 4];
        h.read_bytes(DevicePtr::new(500), &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_copy_panics() {
        let h = DeviceHeap::new(1024);
        h.copy(DevicePtr::new(0), DevicePtr::new(2), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_access_panics() {
        let h = DeviceHeap::new(256);
        h.load_u32(256);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_atomic_panics() {
        let h = DeviceHeap::new(256);
        h.load_u64(4);
    }

    #[test]
    #[should_panic(expected = "multiple of 128")]
    fn unrounded_heap_size_panics() {
        let _ = DeviceHeap::new(100);
    }

    #[test]
    fn try_new_surfaces_typed_errors() {
        assert!(matches!(
            DeviceHeap::try_new(HeapSpec::ram(0)),
            Err(HeapError::InvalidLen { len: 0, .. })
        ));
        assert!(matches!(
            DeviceHeap::try_new(HeapSpec::ram(100)),
            Err(HeapError::InvalidLen { len: 100, .. })
        ));
        // An absurd RAM demand must come back as an error, not an abort.
        // (1 << 60 bytes = 1 EiB; no allocator grants this.)
        assert!(matches!(
            DeviceHeap::try_new(HeapSpec::ram(1 << 60)),
            Err(HeapError::ReserveFailed { .. })
        ));
    }

    #[test]
    fn each_backend_describes_its_placement() {
        let form = if MAPPED { "mapped" } else { "slab" };
        for (pretouch, word) in [(Pretouch::Auto, "full"), (Pretouch::Lazy, "lazy")] {
            let spec = HeapSpec::ram(4096).with_pretouch(pretouch);
            let d = DeviceHeap::try_new(spec).unwrap().describe();
            // Whether the kernel takes the huge-page advice is the host's call.
            let described =
                ["advised", "refused"].map(|h| format!("ram({form}) hugepage={h} pretouch={word}"));
            assert!(described.contains(&d), "{d}");
        }
        if HeapBackendKind::Mmap.available() {
            let h = DeviceHeap::try_new(HeapSpec::mmap(4096)).unwrap();
            assert_eq!(h.describe(), "mmap(noreserve) pretouch=lazy");
            assert_eq!(h.backend_kind(), HeapBackendKind::Mmap);
        }
        assert!(format!("{:?}", DeviceHeap::new(4096)).contains("backend"));
    }

    #[test]
    fn every_available_backend_yields_an_equivalent_heap() {
        for kind in HeapBackendKind::ALL {
            if !kind.available() {
                continue;
            }
            let h = DeviceHeap::try_new(HeapSpec::new(1 << 20).with_backend(kind))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(h.backend_kind(), kind);
            assert_eq!(h.len(), 1 << 20);
            assert_eq!(h.load_u64(0), 0, "{kind}: not zeroed");
            assert_eq!(h.read_u8(DevicePtr::new(0), (1 << 20) - 1), 0, "{kind}");
            h.atomic_u32(256).store(0x5eed_cafe, Ordering::SeqCst);
            assert_eq!(h.load_u32(256), 0x5eed_cafe, "{kind}");
            h.commit(0, 1 << 20); // idempotent on already-committed pages
            let p = DevicePtr::new(4096);
            h.fill(p, 512, 0x7f);
            assert_eq!(h.read_u8(p, 511), 0x7f, "{kind}");
        }
    }

    #[test]
    fn commit_is_clamped_to_the_heap() {
        let h = DeviceHeap::try_new(HeapSpec::ram(4096).with_pretouch(Pretouch::Lazy)).unwrap();
        h.store_u32(4092, 7);
        h.commit(0, u64::MAX); // must not walk past the end
        h.commit(8192, 4096); // fully out of range: no-op
        assert_eq!(h.load_u32(4092), 7);
    }

    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn mmap_reserves_beyond_plausible_ram_lazily() {
        // 64 GiB of address space: MAP_NORESERVE makes this instant and
        // RSS-free; only the pages the test touches ever commit. Hosts
        // running strict overcommit (vm.overcommit_memory=2) may refuse —
        // that is the typed error path, not a failure of this test.
        let h = match DeviceHeap::try_new(HeapSpec::mmap(64 << 30)) {
            Ok(h) => h,
            Err(HeapError::ReserveFailed { .. }) => return,
            Err(e) => panic!("unexpected error: {e}"),
        };
        h.store_u32(0, 1);
        h.store_u32(32 << 30, 2);
        h.store_u32((64 << 30) - 4, 3);
        assert_eq!(h.load_u32(32 << 30), 2);
    }

    #[test]
    fn concurrent_fetch_add_sums() {
        let h = std::sync::Arc::new(DeviceHeap::new(128));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    h.atomic_u64(0).fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(h.load_u64(0), 40_000);
    }
}
