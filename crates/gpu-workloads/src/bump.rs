//! The crate's one test double: a bump allocator with stride padding and
//! chosen capabilities, counting the frees it is asked for.

use gpumem_core::sync::{AtomicU64, Ordering};
use gpumem_core::util::align_up;
use gpumem_core::{
    AllocError, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, RegisterFootprint, ThreadCtx,
    WarpCtx,
};

pub(crate) struct Bump {
    heap: DeviceHeap,
    top: AtomicU64,
    /// Bytes added to every grant, to fabricate poorly coalesced layouts.
    pad: u64,
    info: ManagerInfo,
    /// `free` calls received.
    pub frees: AtomicU64,
    /// `free_warp_all` calls received.
    pub warp_frees: AtomicU64,
}

impl Bump {
    /// A manager without free over a `len`-byte heap, like `alloc-atomic`.
    pub fn new(len: u64, pad: u64) -> Self {
        Self::with_info(len, pad, ManagerInfo::builder("Bump").supports_free(false).build())
    }

    /// A bump manager that claims the capabilities of `info`; its frees
    /// succeed when `info` says they exist and release nothing.
    pub fn with_info(len: u64, pad: u64, info: ManagerInfo) -> Self {
        Bump {
            heap: DeviceHeap::new(len),
            top: AtomicU64::new(0),
            pad,
            info,
            frees: AtomicU64::new(0),
            warp_frees: AtomicU64::new(0),
        }
    }
}

impl DeviceAllocator for Bump {
    fn info(&self) -> ManagerInfo {
        self.info.clone()
    }
    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }
    fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let sz = align_up(size.max(1), 16) + self.pad;
        let off = self.top.fetch_add(sz, Ordering::Relaxed);
        if off.checked_add(sz).is_none_or(|end| end > self.heap.len()) {
            return Err(AllocError::OutOfMemory(size));
        }
        Ok(DevicePtr::new(off))
    }
    fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
        self.frees.fetch_add(1, Ordering::Relaxed);
        if self.info.supports_free {
            Ok(())
        } else {
            Err(AllocError::Unsupported("free"))
        }
    }
    fn free_warp_all(&self, _warp: &WarpCtx) -> Result<u64, AllocError> {
        self.warp_frees.fetch_add(1, Ordering::Relaxed);
        if self.info.warp_level_only {
            Ok(0)
        } else {
            Err(AllocError::Unsupported("free_warp_all"))
        }
    }
    fn register_footprint(&self) -> RegisterFootprint {
        RegisterFootprint { malloc: 4, free: 0 }
    }
}
