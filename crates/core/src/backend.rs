//! Heap backing: where the simulated device memory physically lives.
//!
//! The paper instantiates every manager over the full 8 GiB device heap of a
//! TITAN V. Committing 8 GiB of RAM per benchmark cell is not something most
//! hosts can do, and scaled-down heaps bias any experiment that sweeps heap
//! size. So a [`crate::DeviceHeap`] is one `Map` — an anonymous private
//! mapping the kernel hands over zeroed, which is also where the trace ring
//! lives — committed as its [`Pretouch`] policy says:
//!
//! * `Full` — sized to fit memory, so it asks for transparent huge pages
//!   (`MADV_HUGEPAGE`) and is committed in full up front. Default.
//! * `Lazy` — the same mapping with `MAP_NORESERVE` and no advice:
//!   address space without physical pages, so the paper's 8 GiB heap (and
//!   larger) constructs instantly on any host and only touched 4 KiB pages
//!   ever commit. Huge pages would commit 2 MiB per touched byte of a
//!   sparse heap, which is why the advice belongs to `Full` alone.
//!
//! Both are zero-filled anonymous mappings; only residency and page size
//! differ, and no manager can see either. Off Linux and under miri there is
//! no mapping to make: a heap of either policy is a zeroed slab.
//!
//! # Pre-touch policy
//!
//! GPU V-RAM is physically backed; host demand-paging is not. A simulated
//! kernel that takes the first-touch page faults *inside* its timed region
//! would charge the allocator under test for the host OS's lazy commit —
//! biasing results against designs that scatter allocations across the heap
//! (scattering is free on a real device). So `Full` is the default, and it
//! is one `madvise(MADV_POPULATE_WRITE)`: the kernel commits the range
//! without a fault per page. `Lazy` is the one deliberate exception: it is
//! what makes over-RAM-size reservations possible at all, and
//! timing-sensitive runs at such sizes should either warm the heap first
//! ([`crate::DeviceHeap::commit`]) or accept the documented first-touch
//! cost. DESIGN.md §11 spells this out.
//!
//! [`crate::DeviceHeap::try_new`] constructs a [`HeapSpec`], surfacing OS
//! refusal as a typed [`HeapError`] instead of an abort.

use crate::sync::{AtomicU8, Ordering};
use std::fmt;

/// When the backing pages are physically committed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Pretouch {
    /// A hugepage-advised mapping, every page committed before the
    /// constructor returns.
    #[default]
    Full,
    /// A `MAP_NORESERVE` mapping; pages commit on first access (demand
    /// paging).
    Lazy,
}

impl Pretouch {
    /// The provenance token (`full`, `lazy`).
    pub fn name(&self) -> &'static str {
        match self {
            Pretouch::Full => "full",
            Pretouch::Lazy => "lazy",
        }
    }
}

impl fmt::Display for Pretouch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything needed to construct a heap: size and commit policy. The
/// single construction currency from `ManagerBuilder` down to
/// [`crate::DeviceHeap::try_new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapSpec {
    /// Size of the manageable memory in bytes (non-zero, multiple of 128).
    pub len: u64,
    /// Page-commit policy.
    pub pretouch: Pretouch,
}

impl HeapSpec {
    /// A spec of `len` bytes, committed in full.
    pub fn ram(len: u64) -> Self {
        HeapSpec { len, pretouch: Pretouch::Full }
    }

    /// Replaces the pre-touch policy.
    pub fn with_pretouch(mut self, pretouch: Pretouch) -> Self {
        self.pretouch = pretouch;
        self
    }

    /// Validates the size constraints of every heap.
    pub fn validate(&self) -> Result<(), HeapError> {
        if self.len == 0 {
            return Err(HeapError::InvalidLen {
                len: self.len,
                reason: "heap size must be non-zero",
            });
        }
        if !self.len.is_multiple_of(128) {
            return Err(HeapError::InvalidLen {
                len: self.len,
                reason: "heap size must be a multiple of 128 bytes",
            });
        }
        Ok(())
    }
}

/// Why a heap could not be constructed. Surfaces OS refusal of huge
/// reservations as a typed error through `repro` instead of an abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeapError {
    /// The requested size is zero or not a multiple of 128 bytes.
    InvalidLen { len: u64, reason: &'static str },
    /// The OS refused the reservation, or could not commit a `Full` one.
    ReserveFailed { len: u64 },
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::InvalidLen { len, reason } => {
                write!(f, "invalid heap size {len}: {reason}")
            }
            HeapError::ReserveFailed { len } => {
                write!(f, "heap reservation of {len} bytes failed")
            }
        }
    }
}

impl std::error::Error for HeapError {}

/// Host page size assumed by the commit paths. A stale constant only costs
/// extra touches (64 KiB pages are touched 16×), never correctness.
pub const PAGE_SIZE: usize = 4096;

/// Transparent-huge-page size: mappings at least this long start on a
/// multiple of it, so the kernel can back all of them with huge pages.
const HUGE_PAGE: usize = 2 << 20;

/// `[offset, offset + len)` clamped to a region of `region` bytes, its start
/// rounded down to [`PAGE_SIZE`]: `start <= end <= region`.
fn clamp_span(offset: u64, len: u64, region: u64) -> (usize, usize) {
    let end = offset.saturating_add(len).min(region);
    ((offset.min(end) & !(PAGE_SIZE as u64 - 1)) as usize, end as usize)
}

/// The portable commit: writes one byte per page of `base[start..end)`,
/// and the last byte for a `base` that is not page-aligned. The write is a
/// compare-exchange of the byte with itself, so it keeps what is there even
/// against a concurrent writer.
///
/// # Safety
/// `base[start..end)` must lie inside a live allocation.
unsafe fn touch_pages(base: *mut u8, start: usize, end: usize) {
    let last = end.checked_sub(1).filter(|&last| last >= start);
    for at in (start..end).step_by(PAGE_SIZE).chain(last) {
        // SAFETY: `at < end`, in bounds by the caller's contract; `AtomicU8`
        // has the layout of `u8` and any byte is a valid value.
        let byte = unsafe { &*(base.add(at) as *const AtomicU8) };
        let seen = byte.load(Ordering::Relaxed);
        // Acquire/Release only because no weaker read-modify-write is worth
        // a waiver here; a failed exchange means someone else just wrote.
        let _ = byte.compare_exchange(seen, seen, Ordering::AcqRel, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The mapping every heap and the trace ring are made of.
// ---------------------------------------------------------------------------

/// Minimal raw bindings to the always-linked C library. The workspace is
/// dependency-free by policy (no `libc` crate), and these three calls are
/// the entire surface [`Map`] needs. Constants are the x86-64/aarch64 Linux
/// values.
#[cfg(all(target_os = "linux", not(miri)))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    /// Reserve address space without charging it against overcommit limits;
    /// the load-bearing flag of a `Lazy` heap.
    pub const MAP_NORESERVE: i32 = 0x4000;
    pub const MADV_HUGEPAGE: i32 = 14;
    /// Linux 5.14: fault the range in writable, as if every page were
    /// written, without a trap per page. Older kernels answer `EINVAL`.
    pub const MADV_POPULATE_WRITE: i32 = 23;
    pub const EINVAL: i32 = 22;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    pub fn map_failed(p: *mut c_void) -> bool {
        p as isize == -1
    }
}

/// Where the device heap and the trace ring get their zeroed memory: an
/// anonymous private mapping, zero because the kernel hands it over that way
/// and unmapped on drop. (Not the only large zeroed memory in the workspace:
/// Ouroboros' `StandardQueue` takes its up to 2 × 2²² entries from
/// `vec![0; n]`, transmuted to atomics.) Its base is page-aligned, and [`HUGE_PAGE`]-aligned
/// for a mapping at least that long (the slack that buys the alignment is
/// address space, never touched). Off Linux and under miri it is an
/// `alloc_zeroed` slab, 128-aligned, instead.
pub(crate) struct Map {
    base: *mut u8,
    len: usize,
    /// The reservation `drop` returns: `base[..len]` and its alignment slack.
    raw: *mut u8,
    raw_len: usize,
}

// SAFETY: `Map` owns its memory and only hands out the base pointer;
// mutation through it is mediated by the heap discipline (atomic views,
// non-overlapping payload regions) or the trace ring's slot protocol.
unsafe impl Send for Map {}
// SAFETY: see Send.
unsafe impl Sync for Map {}

impl Map {
    /// Maps `len` zeroed bytes, `None` when the OS refuses. A `sparse`
    /// mapping is `MAP_NORESERVE` and gets 4 KiB pages as they are touched;
    /// any other is sized to fit memory and asks for huge pages.
    #[cfg(all(target_os = "linux", not(miri)))]
    pub(crate) fn reserve(len: usize, sparse: bool) -> Option<Map> {
        let raw_len = if len >= HUGE_PAGE { len.checked_add(HUGE_PAGE)? } else { len };
        let noreserve = if sparse { sys::MAP_NORESERVE } else { 0 };
        // SAFETY: plain anonymous reservation; no aliasing, fd unused (-1).
        let raw = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                raw_len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | noreserve,
                -1,
                0,
            )
        };
        if sys::map_failed(raw) || raw.is_null() {
            return None;
        }
        let raw = raw as *mut u8;
        let slack = if raw_len > len { (raw as usize).wrapping_neg() % HUGE_PAGE } else { 0 };
        // SAFETY: `slack < HUGE_PAGE == raw_len - len`, so `base[..len]`
        // lies inside the reservation.
        let base = unsafe { raw.add(slack) };
        if !sparse {
            // SAFETY: advice over pages of the mapping just created. A
            // refusal (a kernel built without THP) only costs page size.
            unsafe { sys::madvise(base.cast(), len, sys::MADV_HUGEPAGE) };
        }
        Some(Map { base, len, raw, raw_len })
    }

    /// The slab stand-in: `sparse` has no meaning without demand paging.
    #[cfg(any(miri, not(target_os = "linux")))]
    pub(crate) fn reserve(len: usize, _sparse: bool) -> Option<Map> {
        let layout = Self::slab_layout(len).filter(|l| l.size() > 0)?;
        // SAFETY: `layout` has a non-zero size.
        let base = unsafe { std::alloc::alloc_zeroed(layout) };
        (!base.is_null()).then_some(Map { base, len, raw: base, raw_len: len })
    }

    #[cfg(any(miri, not(target_os = "linux")))]
    fn slab_layout(len: usize) -> Option<std::alloc::Layout> {
        std::alloc::Layout::from_size_align(len, crate::heap::DeviceHeap::BASE_ALIGN).ok()
    }

    pub(crate) fn base(&self) -> *mut u8 {
        self.base
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Commits every page that holds a byte of `[offset, offset + len)`
    /// (clamped to the mapping), keeping their contents: one
    /// `madvise(MADV_POPULATE_WRITE)`, or [`touch_pages`] where the kernel
    /// does not know it. An error is the kernel saying it cannot back the
    /// range (`ENOMEM`) — here, not as a `SIGBUS` at first use.
    pub(crate) fn commit(&self, offset: u64, len: u64) -> std::io::Result<()> {
        let (start, end) = clamp_span(offset, len, self.len as u64);
        #[cfg(all(target_os = "linux", not(miri)))]
        if start < end {
            let pages = end.next_multiple_of(PAGE_SIZE) - start;
            // SAFETY: `base` is page-aligned and the kernel rounded the
            // mapping up to whole pages, so these are pages of the live
            // mapping; populating writes nothing into them.
            let populated = unsafe {
                sys::madvise(self.base.add(start).cast(), pages, sys::MADV_POPULATE_WRITE)
            };
            if populated == 0 {
                return Ok(());
            }
            let refusal = std::io::Error::last_os_error();
            if refusal.raw_os_error() != Some(sys::EINVAL) {
                return Err(refusal);
            }
        }
        // SAFETY: `start <= end <= len`, inside the mapping.
        unsafe { touch_pages(self.base, start, end) };
        Ok(())
    }
}

impl Drop for Map {
    fn drop(&mut self) {
        // SAFETY: exactly the reservation `reserve` made, which nothing
        // borrows past the `Map`.
        #[cfg(all(target_os = "linux", not(miri)))]
        unsafe {
            sys::munmap(self.raw.cast(), self.raw_len);
        }
        // SAFETY: `raw` was allocated in `reserve` with exactly this layout.
        #[cfg(any(miri, not(target_os = "linux")))]
        unsafe {
            let layout = Self::slab_layout(self.raw_len).expect("the layout reserve allocated");
            std::alloc::dealloc(self.raw, layout);
        }
    }
}

/// What `/proc/self` says about an address range, for the tests here and of
/// the trace ring.
#[cfg(all(test, target_os = "linux", not(miri)))]
pub(crate) mod probe {
    /// Whether `addr` lies inside a mapping of this process.
    pub(crate) fn is_mapped(addr: usize) -> bool {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        maps.lines().any(|line| {
            let (lo, hi) = line.split_whitespace().next().unwrap().split_once('-').unwrap();
            let hex = |s| usize::from_str_radix(s, 16).unwrap();
            (hex(lo)..hex(hi)).contains(&addr)
        })
    }

    /// Bytes of the pages of `[addr, addr + len)` that are in memory: bit 63
    /// of each page's `/proc/self/pagemap` entry. Only the trace ring's
    /// tests read it, and they do not run under loom.
    #[cfg(not(loom))]
    pub(crate) fn resident_bytes(addr: usize, len: usize) -> usize {
        use std::io::{Read, Seek, SeekFrom};
        let pages = (addr + len).div_ceil(super::PAGE_SIZE) - addr / super::PAGE_SIZE;
        let mut entries = vec![0u8; pages * 8];
        let mut pagemap = std::fs::File::open("/proc/self/pagemap").unwrap();
        pagemap.seek(SeekFrom::Start((addr / super::PAGE_SIZE * 8) as u64)).unwrap();
        pagemap.read_exact(&mut entries).unwrap();
        entries.chunks_exact(8).filter(|e| e[7] >> 7 == 1).count() * super::PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_to_full() {
        assert_eq!(HeapSpec::ram(4096).pretouch, Pretouch::Full);
        assert_eq!(HeapSpec::ram(4096).with_pretouch(Pretouch::Lazy).pretouch, Pretouch::Lazy);
        assert_eq!(Pretouch::Lazy.to_string(), "lazy");
    }

    #[test]
    fn spec_validation_rejects_bad_sizes() {
        assert!(HeapSpec::ram(0).validate().is_err());
        assert!(HeapSpec::ram(100).validate().is_err());
        assert!(HeapSpec::ram(4096).validate().is_ok());
        let e = HeapSpec::ram(100).validate().unwrap_err();
        assert!(e.to_string().contains("multiple of 128"), "{e}");
    }

    #[test]
    fn maps_are_aligned_and_zero_on_every_page() {
        for len in [128, 4096 + 128, HUGE_PAGE - 128, HUGE_PAGE, (64 << 20) + 128] {
            for sparse in [false, true] {
                let m = Map::reserve(len, sparse).unwrap();
                assert_eq!(m.len(), len);
                let mapped = cfg!(all(target_os = "linux", not(miri)));
                let align = if len >= HUGE_PAGE && mapped { HUGE_PAGE } else { 128 };
                assert_eq!(m.base() as usize % align, 0, "len {len} sparse {sparse}");
                for at in (0..len).step_by(PAGE_SIZE).chain([len - 1]) {
                    // SAFETY: `at < len`, inside the mapping.
                    assert_eq!(unsafe { m.base().add(at).read() }, 0, "len {len} at {at}");
                }
                // Writable to the last byte.
                // SAFETY: as above.
                unsafe { m.base().add(len - 1).write(0xee) };
            }
        }
    }

    #[test]
    fn a_mapping_nobody_can_grant_is_none_not_an_abort() {
        assert!(Map::reserve(0, false).is_none());
        assert!(Map::reserve(usize::MAX, false).is_none());
        assert!(Map::reserve(1 << 55, true).is_none());
    }

    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn dropping_a_map_unmaps_it() {
        use probe::is_mapped;
        // Another test thread may map the hole the instant it opens, so one
        // sighting of the address unmapped is the proof; a `drop` that leaked
        // would leave every attempt mapped.
        let unmapped = (0..8).any(|_| {
            let m = Map::reserve(HUGE_PAGE + 128, false).unwrap();
            m.commit(0, m.len() as u64).unwrap();
            let base = m.base() as usize;
            assert!(is_mapped(base));
            drop(m);
            !is_mapped(base)
        });
        assert!(unmapped);
    }

    #[test]
    fn commit_keeps_contents_and_covers_an_unaligned_range() {
        // The portable path, on a base that is only 8-aligned: every page of
        // the range is written to (observed as the byte surviving), nothing
        // outside the clamp is.
        let mut slab = vec![0x5au8; 3 * PAGE_SIZE];
        // SAFETY: the span is clamped to the slab.
        unsafe { touch_pages(slab.as_mut_ptr(), 0, slab.len()) };
        assert!(slab.iter().all(|&b| b == 0x5a));
        assert_eq!(clamp_span(4000, 200, 1 << 20), (0, 4200));
        assert_eq!(clamp_span(4096, 1, 1 << 20), (4096, 4097));
        assert_eq!(clamp_span(0, u64::MAX, 4096), (0, 4096));
        assert_eq!(clamp_span(u64::MAX, 1, 4096), (4096, 4096));
        assert_eq!(clamp_span(8192, 4096, 4096), (4096, 4096));
        // SAFETY: an empty span touches nothing.
        unsafe { touch_pages(slab.as_mut_ptr(), 4096, 4096) };
    }

    #[test]
    fn error_display_names_the_failure() {
        let e = HeapError::ReserveFailed { len: 8 << 30 };
        assert!(e.to_string().contains("8589934592 bytes failed"), "{e}");
    }
}
