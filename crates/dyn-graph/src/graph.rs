//! The device-resident dynamic graph.
//!
//! Adjacency arrays live in memory obtained from the manager under test;
//! every adjacency is sized to a power of two ("Each adjacency is aligned
//! to a power of two", §4.4.3) and re-allocated when an insertion crosses
//! the next power-of-two boundary (§4.4.4) — the churn pattern that makes
//! this the survey's concurrent-malloc/free stress test.

use gpumem_core::sync::{AtomicBool, AtomicU64, Ordering};
use std::cell::UnsafeCell;
use std::time::Duration;

use gpu_sim::Device;
use gpumem_core::util::next_pow2;
use gpumem_core::{AllocError, DeviceAllocator, DevicePtr, ThreadCtx};

use crate::gen::CsrGraph;

/// Per-vertex adjacency slot, guarded by a one-bit spin lock so concurrent
/// insertions to the same vertex serialise (matching the original
/// framework's per-adjacency locking).
struct Vertex {
    lock: AtomicBool,
    state: UnsafeCell<VertexState>,
}

// SAFETY: `state` is only accessed while `lock` is held (taken by an
// Acquire CAS, released by a Release store).
unsafe impl Sync for Vertex {}

#[derive(Clone, Copy)]
struct VertexState {
    ptr: DevicePtr,
    count: u32,
    capacity_bytes: u64,
}

/// A dynamic graph whose adjacencies live in manager-owned device memory.
pub struct DynGraph<'a> {
    alloc: &'a dyn DeviceAllocator,
    vertices: Vec<Vertex>,
    /// Edge-insertion failures (allocation errors), for reporting.
    failures: AtomicU64,
}

impl<'a> DynGraph<'a> {
    /// Initialises the graph from `csr`, allocating one power-of-two
    /// adjacency per vertex through `alloc` in a device launch. Returns the
    /// graph and the initialisation kernel time (the Figure 11f metric).
    pub fn init(
        alloc: &'a dyn DeviceAllocator,
        device: &Device,
        csr: &CsrGraph,
    ) -> (Self, Duration) {
        let n = csr.vertices();
        let vertices: Vec<Vertex> = (0..n)
            .map(|_| Vertex {
                lock: AtomicBool::new(false),
                state: UnsafeCell::new(VertexState {
                    ptr: DevicePtr::NULL,
                    count: 0,
                    capacity_bytes: 0,
                }),
            })
            .collect();
        let graph = DynGraph { alloc, vertices, failures: AtomicU64::new(0) };
        let heap = alloc.heap();
        let elapsed = device.launch(n, |ctx| {
            let v = ctx.thread_id;
            let adj = csr.neighbors(v);
            let bytes = next_pow2((adj.len().max(1) * 4) as u64);
            match alloc.malloc(ctx, bytes) {
                Ok(p) => {
                    if !adj.is_empty() {
                        let raw: Vec<u8> = adj.iter().flat_map(|t| t.to_le_bytes()).collect();
                        heap.write_bytes(p, &raw);
                    }
                    // Initialisation has exclusive access to each vertex.
                    let _guard = graph.lock_vertex(v);
                    // SAFETY: lock held.
                    unsafe {
                        *graph.vertices[v as usize].state.get() =
                            VertexState { ptr: p, count: adj.len() as u32, capacity_bytes: bytes };
                    }
                }
                Err(_) => {
                    graph.failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        (graph, elapsed)
    }

    fn lock_vertex(&self, v: u32) -> VertexGuard<'_> {
        let lock = &self.vertices[v as usize].lock;
        while lock.compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed).is_err()
        {
            gpumem_core::sync::hint::spin_loop();
        }
        VertexGuard { lock }
    }

    /// Inserts edge `v → u`; grows the adjacency over the next power-of-two
    /// boundary by allocate-copy-free, as the paper's update test case
    /// prescribes.
    pub fn insert_edge(&self, ctx: &ThreadCtx, v: u32, u: u32) -> Result<(), AllocError> {
        let heap = self.alloc.heap();
        let _guard = self.lock_vertex(v);
        // SAFETY: lock held.
        let st = unsafe { &mut *self.vertices[v as usize].state.get() };
        if st.ptr.is_null() {
            return Err(AllocError::InvalidPointer);
        }
        let needed = (st.count as u64 + 1) * 4;
        if needed > st.capacity_bytes {
            let new_cap = next_pow2(needed);
            let new_ptr = self.alloc.malloc(ctx, new_cap)?;
            if st.count > 0 {
                heap.copy(st.ptr, new_ptr, st.count as u64 * 4);
            }
            let old = st.ptr;
            st.ptr = new_ptr;
            st.capacity_bytes = new_cap;
            self.alloc.free(ctx, old)?;
        }
        heap.write_bytes(st.ptr.add(st.count as u64 * 4), &u.to_le_bytes());
        st.count += 1;
        Ok(())
    }

    /// Inserts a batch of edges with one device thread per edge (the
    /// Figure 11g launch); a failed insertion counts in
    /// [`DynGraph::failures`].
    pub fn insert_edges(&self, device: &Device, edges: &[(u32, u32)]) {
        device.launch(edges.len() as u32, |ctx| {
            let (v, u) = edges[ctx.thread_id as usize];
            if self.insert_edge(ctx, v, u).is_err() {
                self.failures.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Reads back the adjacency of `v` (validation).
    pub fn adjacency(&self, v: u32) -> Vec<u32> {
        let _guard = self.lock_vertex(v);
        // SAFETY: lock held.
        let st = unsafe { &*self.vertices[v as usize].state.get() };
        if st.ptr.is_null() || st.count == 0 {
            return Vec::new();
        }
        let mut raw = vec![0u8; st.count as usize * 4];
        self.alloc.heap().read_bytes(st.ptr, &mut raw);
        raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4"))).collect()
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        let _guard = self.lock_vertex(v);
        // SAFETY: lock held.
        unsafe { (*self.vertices[v as usize].state.get()).count }
    }

    /// Total edges currently stored.
    pub fn total_edges(&self) -> u64 {
        (0..self.vertices.len() as u32).map(|v| self.degree(v) as u64).sum()
    }

    /// Vertices in the graph.
    pub fn vertex_count(&self) -> u32 {
        self.vertices.len() as u32
    }

    /// Allocation failures observed so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Frees every adjacency in one launch (teardown).
    pub fn destroy(self, device: &Device) {
        let vertices = &self.vertices;
        let alloc = self.alloc;
        device.launch(vertices.len() as u32, |ctx| {
            // SAFETY: teardown launch is the sole accessor per vertex.
            let st = unsafe { &mut *vertices[ctx.thread_id as usize].state.get() };
            if !st.ptr.is_null() {
                let _ = alloc.free(ctx, st.ptr);
                st.ptr = DevicePtr::NULL;
            }
        });
    }
}

struct VertexGuard<'a> {
    lock: &'a AtomicBool,
}

impl Drop for VertexGuard<'_> {
    fn drop(&mut self) {
        self.lock.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use gpu_sim::DeviceSpec;
    use gpumem_core::util::align_up;
    use gpumem_core::{DeviceHeap, ManagerInfo, RegisterFootprint};
    use std::sync::Arc;

    /// Free-capable list allocator for tests (first-fit over a host map).
    struct TestAlloc {
        heap: Arc<DeviceHeap>,
        inner: std::sync::Mutex<TestAllocInner>,
    }

    struct TestAllocInner {
        top: u64,
        free: Vec<(u64, u64)>,
        live: std::collections::HashMap<u64, u64>,
    }

    impl TestAlloc {
        fn new(len: u64) -> Self {
            TestAlloc {
                heap: Arc::new(DeviceHeap::new(len)),
                inner: std::sync::Mutex::new(TestAllocInner {
                    top: 0,
                    free: Vec::new(),
                    live: std::collections::HashMap::new(),
                }),
            }
        }
    }

    impl DeviceAllocator for TestAlloc {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("TestAlloc").build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
            let sz = align_up(size.max(1), 16);
            let mut g = self.inner.lock().unwrap();
            if let Some(i) = g.free.iter().position(|&(_, l)| l >= sz) {
                let (off, _) = g.free.swap_remove(i);
                g.live.insert(off, sz);
                return Ok(DevicePtr::new(off));
            }
            let off = g.top;
            if off + sz > self.heap.len() {
                return Err(AllocError::OutOfMemory(size));
            }
            g.top += sz;
            g.live.insert(off, sz);
            Ok(DevicePtr::new(off))
        }
        fn free(&self, _ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
            let mut g = self.inner.lock().unwrap();
            match g.live.remove(&ptr.offset()) {
                Some(sz) => {
                    g.free.push((ptr.offset(), sz));
                    Ok(())
                }
                None => Err(AllocError::InvalidPointer),
            }
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 1, free: 1 }
        }
    }

    fn device() -> Device {
        Device::with_workers(DeviceSpec::titan_v(), 4)
    }

    #[test]
    fn init_preserves_adjacencies() {
        let a = TestAlloc::new(32 << 20);
        let csr = generate("fe_body", 64, 11);
        let (g, t) = DynGraph::init(&a, &device(), &csr);
        assert!(t.as_nanos() > 0);
        assert_eq!(g.failures(), 0);
        assert_eq!(g.vertex_count(), csr.vertices());
        for v in (0..csr.vertices()).step_by(53) {
            assert_eq!(g.adjacency(v), csr.neighbors(v), "vertex {v}");
        }
        assert_eq!(g.total_edges(), csr.edges());
    }

    #[test]
    fn insert_within_capacity_keeps_pointer() {
        let a = TestAlloc::new(1 << 20);
        let csr = generate("fe_body", 512, 1);
        let (g, _) = DynGraph::init(&a, &device(), &csr);
        // Vertex with degree d: capacity is next_pow2(4d); inserting up to
        // the boundary must not lose existing neighbours.
        let v = 0u32;
        let before = g.adjacency(v);
        let ctx = ThreadCtx::host();
        g.insert_edge(&ctx, v, 4242).unwrap();
        let after = g.adjacency(v);
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(&after[..before.len()], &before[..]);
        assert_eq!(*after.last().unwrap(), 4242);
    }

    #[test]
    fn growth_across_pow2_reallocates_and_preserves() {
        let a = TestAlloc::new(1 << 20);
        let csr = generate("fe_body", 512, 2);
        let (g, _) = DynGraph::init(&a, &device(), &csr);
        let ctx = ThreadCtx::host();
        let v = 1u32;
        // Push the degree well past several power-of-two boundaries.
        for i in 0..100u32 {
            g.insert_edge(&ctx, v, 1000 + i).unwrap();
        }
        let adj = g.adjacency(v);
        assert_eq!(adj.len(), csr.degree(v) as usize + 100);
        assert_eq!(&adj[..csr.degree(v) as usize], csr.neighbors(v));
        for i in 0..100u32 {
            assert_eq!(adj[csr.degree(v) as usize + i as usize], 1000 + i);
        }
    }

    #[test]
    fn concurrent_insertions_lose_nothing() {
        let a = TestAlloc::new(32 << 20);
        let csr = generate("fe_body", 64, 3);
        let (g, _) = DynGraph::init(&a, &device(), &csr);
        // 20 000 edges focused on few sources — maximum lock contention.
        let edges: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i % 16, i)).collect();
        g.insert_edges(&device(), &edges);
        assert_eq!(g.failures(), 0);
        assert_eq!(g.total_edges(), csr.edges() + 20_000);
        for v in 0..16u32 {
            assert_eq!(g.degree(v) as u64, csr.degree(v) + 20_000 / 16);
        }
    }

    #[test]
    fn destroy_frees_all_memory() {
        let a = TestAlloc::new(8 << 20);
        let csr = generate("fe_body", 128, 4);
        let (g, _) = DynGraph::init(&a, &device(), &csr);
        g.destroy(&device());
        assert!(a.inner.lock().unwrap().live.is_empty(), "leaked adjacencies");
    }

    #[test]
    fn failures_counted_when_heap_exhausted() {
        let a = TestAlloc::new(128 * 1024);
        let csr = generate("rgg_n_2_20_s0", 64, 5); // far too big for 128 KiB
        let (g, _) = DynGraph::init(&a, &device(), &csr);
        assert!(g.failures() > 0);
    }
}
