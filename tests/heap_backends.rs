//! Heap battery: the heap substrate contract under both commit policies,
//! [`Pretouch::Full`] (hugepage-advised, committed up front, the default)
//! and [`Pretouch::Lazy`] (`MAP_NORESERVE`, committed on first touch). The
//! allocator-facing conformance suite (`tests/conformance.rs`) runs over the
//! default; this file pins what makes the sparse form interchangeable:
//!
//! * either policy hands out zero-initialised, 128-aligned memory with
//!   working in-heap atomics,
//! * every manager constructs and serves a workload, sanitizer-clean, over
//!   a `Lazy` heap,
//! * `commit` makes exactly the asked pages resident and keeps their bytes,
//!   `Lazy` commits nothing and `Full` everything, and reserve/drop cycles
//!   hand their memory back (Linux: read from `/proc/self`), and
//! * (gated on `HUGE_HEAP=1`) the paper's full 8 GiB heap actually opens
//!   and serves allocations as a `Lazy` heap, staying sparse.

use std::sync::Arc;

use gpumemsurvey::bench::registry::{ManagerKind, ALL_KINDS};
use gpumemsurvey::core::sanitize::Sanitized;
use gpumemsurvey::prelude::*;

const HEAP: u64 = 64 << 20;

const POLICIES: [Pretouch; 2] = [Pretouch::Full, Pretouch::Lazy];

fn lazy(len: u64) -> HeapSpec {
    HeapSpec::ram(len).with_pretouch(Pretouch::Lazy)
}

fn heap_on(pretouch: Pretouch, len: u64) -> Arc<DeviceHeap> {
    let spec = HeapSpec::ram(len).with_pretouch(pretouch);
    Arc::new(DeviceHeap::try_new(spec).unwrap_or_else(|e| panic!("{pretouch}: {e}")))
}

/// The heap's base address, read through its first atomic view.
#[cfg(all(target_os = "linux", not(miri)))]
fn base_of(heap: &DeviceHeap) -> usize {
    heap.atomic_u32(0) as *const _ as usize
}

#[test]
fn every_backend_meets_the_heap_contract() {
    for pretouch in POLICIES {
        let heap = heap_on(pretouch, HEAP);
        assert_eq!(heap.len(), HEAP, "{pretouch}");

        // Zero-initialised, including far past the first page.
        for off in [0u64, 4096, HEAP / 2, HEAP - 1] {
            assert_eq!(heap.read_u8(DevicePtr::new(off), 0), 0, "{pretouch} @{off}");
        }
        // Writable and readable across the whole range.
        heap.fill(DevicePtr::new(HEAP - 256), 256, 0xA5);
        assert_eq!(heap.read_u8(DevicePtr::new(HEAP - 1), 0), 0xA5, "{pretouch}");
        // In-heap atomics work wherever allocator headers may live.
        let a = heap.atomic_u32(HEAP / 2);
        a.store(7, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(a.load(std::sync::atomic::Ordering::SeqCst), 7, "{pretouch}");
        // Explicit commit is idempotent and preserves committed data.
        heap.commit(HEAP - 4096, 4096);
        assert_eq!(heap.read_u8(DevicePtr::new(HEAP - 1), 0), 0xA5, "{pretouch}");
    }
}

#[test]
fn every_manager_serves_every_backend() {
    let ctx = ThreadCtx::host();
    for kind in ALL_KINDS {
        let alloc = kind.builder().heap_spec(lazy(HEAP)).sms(80).build();
        let mut ptrs = Vec::new();
        for i in 0..64u64 {
            let size = 16 + (i % 8) * 96;
            let p = alloc.malloc(&ctx, size).unwrap_or_else(|e| panic!("{kind}: {e}"));
            alloc.heap().fill(p, size, (i % 251) as u8 | 1);
            assert_eq!(alloc.heap().read_u8(p, size - 1), (i % 251) as u8 | 1, "{kind}");
            ptrs.push(p);
        }
        if alloc.info().supports_free {
            for p in ptrs {
                alloc.free(&ctx, p).unwrap_or_else(|e| panic!("{kind}: {e}"));
            }
        }
    }
}

#[test]
fn sanitizer_battery_is_clean_on_every_backend() {
    let ctx = ThreadCtx::host();
    for kind in ALL_KINDS {
        let san = Sanitized::new(kind.builder().heap_spec(lazy(HEAP)).sms(80).build());
        let info = san.info();
        let ptrs: Vec<DevicePtr> =
            (0..96u64).map(|i| san.malloc(&ctx, 16 + (i % 24) * 40).unwrap()).collect();
        let w = WarpCtx { warp: 1, block: 0, sm: 2 };
        let mut warp_out = [DevicePtr::NULL; 8];
        san.malloc_warp(&w, &[96; 8], &mut warp_out).unwrap();
        if info.supports_free {
            san.free_warp(&w, &warp_out).unwrap();
            for p in ptrs {
                san.free(&ctx, p).unwrap();
            }
        }
        let report = san.take_report();
        assert!(report.is_clean(), "{kind}: {report}");
    }
}

/// What `/proc/self` says about this process's memory.
#[cfg(all(target_os = "linux", not(miri)))]
mod procfs {
    use std::io::{Read, Seek, SeekFrom};

    /// KiB of `[addr, addr + len)` in memory: bit 63 of each 4 KiB page's
    /// `/proc/self/pagemap` entry. Exact for the range, whatever mappings of
    /// other test threads the kernel has merged into the same VMA.
    pub fn resident_kib(addr: usize, len: u64) -> u64 {
        let pages = (addr + len as usize).div_ceil(4096) - addr / 4096;
        let mut entries = vec![0u8; pages * 8];
        let mut pagemap = std::fs::File::open("/proc/self/pagemap").unwrap();
        pagemap.seek(SeekFrom::Start((addr / 4096 * 8) as u64)).unwrap();
        pagemap.read_exact(&mut entries).unwrap();
        entries.chunks_exact(8).filter(|e| e[7] >> 7 == 1).count() as u64 * 4
    }

    /// `field` (KiB) of the `/proc/self/smaps` entry that holds `addr`. A
    /// hugepage-advised range is a VMA of its own: nothing else has its
    /// flags, and its neighbours are its own unadvised alignment slack. An
    /// unadvised one may share its VMA with other unadvised mappings.
    pub fn vma_kib(addr: usize, field: &str) -> Option<u64> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let holds = |line: &str| {
            let range = line.split_whitespace().next().and_then(|r| r.split_once('-'));
            let hex = |s| usize::from_str_radix(s, 16).ok();
            range.and_then(|(lo, hi)| Some((hex(lo)?..hex(hi)?).contains(&addr))) == Some(true)
        };
        let mut lines = smaps.lines().skip_while(|l| !holds(l));
        lines.next()?;
        let value = lines.find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    }

    /// `VmSize` of this process, KiB.
    pub fn vm_size_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find_map(|l| l.strip_prefix("VmSize:")).unwrap();
        line.trim().strip_suffix("kB").unwrap().trim().parse().unwrap()
    }
}

#[test]
fn commit_keeps_the_bytes_it_commits() {
    // A heap a manager has already written to: committing it (a warm-up
    // between epochs, say) used to store a zero at the head of every page.
    const LEN: u64 = 1 << 20;
    for pretouch in POLICIES {
        let heap = heap_on(pretouch, LEN);
        heap.fill(DevicePtr::new(0), LEN, 0x5A);
        heap.commit(0, LEN);
        let mut image = vec![0u8; LEN as usize];
        heap.read_bytes(DevicePtr::new(0), &mut image);
        let clobbered = image.iter().filter(|&&b| b != 0x5A).count();
        assert_eq!(clobbered, 0, "{pretouch}: commit changed {clobbered} bytes");
    }
}

#[cfg(all(target_os = "linux", not(miri)))]
#[test]
fn commit_covers_every_page_of_an_unaligned_range() {
    // 200 bytes from offset 4000: 96 of them on page 0, 104 on page 1.
    let heap = DeviceHeap::try_new(lazy(1 << 20)).unwrap();
    let base = base_of(&heap);
    assert_eq!(procfs::resident_kib(base, 1 << 20), 0, "lazy");
    heap.commit(4000, 200);
    assert_eq!(procfs::resident_kib(base, 4096), 4, "page 0");
    assert_eq!(procfs::resident_kib(base + 4096, 4096), 4, "page 1");
    assert_eq!(procfs::resident_kib(base, 1 << 20), 8, "and nothing else");
}

#[cfg(all(target_os = "linux", not(miri)))]
#[test]
fn lazy_is_lazy_and_full_is_full_on_ram() {
    // Only a `Full` heap asks for huge pages. Under THP `[always]` the
    // kernel may give a `Lazy` heap some too, and under `[never]` (or
    // without THP) neither gets any.
    let thp =
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").unwrap_or_default();
    let huge_kib = |heap: &DeviceHeap| {
        let huge = procfs::vma_kib(base_of(heap), "AnonHugePages");
        println!("AnonHugePages {huge:?} kB, THP {}", thp.trim());
        huge
    };

    let sparse = DeviceHeap::try_new(lazy(HEAP)).unwrap();
    let base = base_of(&sparse);
    assert!(procfs::resident_kib(base, HEAP) < 1024, "a lazy reserve commits nothing");
    assert_eq!(base % (2 << 20), 0, "a heap of 2 MiB or more starts on a huge page");
    sparse.commit(0, HEAP);
    assert_eq!(procfs::resident_kib(base, HEAP), HEAP >> 10);
    let huge = huge_kib(&sparse);
    if thp.contains("[madvise]") {
        assert_eq!(huge, Some(0), "an unadvised heap sits on 4 KiB pages");
    }
    drop(sparse);

    let full = DeviceHeap::try_new(HeapSpec::ram(HEAP)).unwrap();
    assert_eq!(procfs::resident_kib(base_of(&full), HEAP), HEAP >> 10);
    let huge = huge_kib(&full);
    if thp.contains("[madvise]") || thp.contains("[always]") {
        assert_eq!(huge, Some(HEAP >> 10), "an advised heap sits on huge pages");
    }
}

#[cfg(all(target_os = "linux", not(miri)))]
#[test]
fn reserve_drop_cycles_hand_their_memory_back() {
    // 4 GiB in all. Other tests' heaps come and go meanwhile (well under
    // 1 GiB of them alive at once), so the bound is loose; a drop that kept
    // its mapping would blow through it four times over.
    let before = procfs::vm_size_kib();
    for cycle in 0..64 {
        let spec = HeapSpec::ram(HEAP).with_pretouch(Pretouch::Full);
        let heap = DeviceHeap::try_new(spec).unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        assert_eq!(heap.load_u64(HEAP - 8), 0);
        heap.store_u64(HEAP - 8, u64::MAX);
    }
    let grown = procfs::vm_size_kib().saturating_sub(before);
    assert!(grown < 1 << 20, "VmSize grew by {grown} kB over 64 reserve/drop cycles");
}

#[test]
fn huge_heap_smoke_mmap_8gib() {
    // The paper's actual configuration: an 8 GiB device heap. Gated behind
    // HUGE_HEAP=1 because it reserves (not commits) 8 GiB of address space
    // and touches a sparse subset — cheap, but not something every `cargo
    // test` should do. `scripts/check.sh` runs it.
    if std::env::var("HUGE_HEAP").map(|v| v == "1") != Ok(true) {
        return;
    }
    const EIGHT_GIB: u64 = 8 << 30;
    let ctx = ThreadCtx::host();
    let alloc = ManagerKind::ScatterAlloc.builder().heap_spec(lazy(EIGHT_GIB)).sms(80).build();
    assert_eq!(alloc.heap().len(), EIGHT_GIB);
    // Allocations land, are writable, and read back across the heap.
    for i in 0..512u64 {
        let size = 256 + (i % 16) * 1024;
        let p = alloc.malloc(&ctx, size).unwrap_or_else(|e| panic!("step {i}: {e}"));
        alloc.heap().fill(p, size, (i % 251) as u8 | 1);
        assert_eq!(alloc.heap().read_u8(p, size - 1), (i % 251) as u8 | 1);
    }
    // And the far end of the reservation is live too.
    alloc.heap().fill(DevicePtr::new(EIGHT_GIB - 4096), 4096, 0x5A);
    assert_eq!(alloc.heap().read_u8(DevicePtr::new(EIGHT_GIB - 1), 0), 0x5A);
    // Sparse: a `Lazy` heap is never hugepage-advised, so what is resident
    // is what was touched, not 2 MiB around each touch.
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        let resident = procfs::resident_kib(base_of(alloc.heap()), EIGHT_GIB);
        assert!(resident < 512 << 10, "8 GiB heap has {resident} kB resident");
    }
}

#[test]
fn builder_surfaces_typed_heap_errors() {
    // A bad size, and a reservation past the address space, fail as typed
    // errors, not aborts, under either policy.
    for pretouch in POLICIES {
        for len in [100u64, 0, 1 << 55] {
            let spec = HeapSpec::ram(len).with_pretouch(pretouch);
            let err = match ManagerKind::Atomic.builder().heap_spec(spec).try_build() {
                Err(e) => e,
                Ok(_) => panic!("{pretouch}: len {len} must be rejected"),
            };
            if len == 1 << 55 {
                assert_eq!(err, HeapError::ReserveFailed { len }, "{pretouch}");
            } else {
                assert!(matches!(err, HeapError::InvalidLen { .. }), "{pretouch}: {err}");
            }
        }
    }
}
