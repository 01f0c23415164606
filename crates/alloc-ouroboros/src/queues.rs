//! The three queue designs of Ouroboros (paper §2.10, Figure 7).
//!
//! * [`StandardQueue`] (`Ouro-S-*`): a fixed-capacity lock-free ring. "Fast
//!   and efficient", but "needs static space, which has to be large enough
//!   to hold the largest expected number of free pages/chunks."
//! * [`VirtArrayQueue`] (`Ouro-VA-*`): the *virtualized array-hierarchy
//!   queue* — a small chunk-pointer array references the chunks currently
//!   backing the queue; entries live in those chunks in device memory, and
//!   storage chunks are acquired/released from the chunk pool as the
//!   virtual front/back move.
//! * [`VirtLinkedQueue`] (`Ouro-VL-*`): the *virtualized linked-chunk
//!   queue* — no pointer array at all; storage chunks are linked through a
//!   header word, giving an unlimited virtual queue size.
//!
//! The standard queue is a Vyukov-style ticket ring (the lock-free design
//! the original uses). The two virtualized queues guard their multi-word
//! front/back/storage state with a tiny spin lock: the original synchronises
//! these transitions with a bespoke semaphore scheme; the lock preserves the
//! ordering behaviour and the *two-tier cost* (every operation touches
//! device memory, occasionally allocating or releasing a storage chunk),
//! which is what the survey's measurements expose.
//!
//! Besides enqueue and dequeue, every queue can peek its front entry and
//! remove it later by ticket ([`IndexQueue::peek_with`],
//! [`IndexQueue::pop_front`]): the chunk-based manager allocates from the
//! chunk at the front and removes it only once it is full or stale. On the
//! standard ring the peek is a dequeue without its ticket CAS; the
//! virtualized queues peek and pop under one lock hold each.

use gpumem_core::sync::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use gpumem_core::DeviceHeap;

use crate::pool::{ChunkPool, CHUNK_BYTES, CLASS_QUEUE};

/// Why an enqueue failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueError {
    /// Fixed-capacity storage exhausted (standard / array-hierarchy).
    Full,
    /// The chunk pool could not supply a storage chunk (virtualized).
    OutOfChunks,
}

/// A queue of `u32` indices (pages or chunks).
pub trait IndexQueue: Send + Sync {
    /// Creates a queue able to hold roughly `capacity_hint` entries (the
    /// standard queue sizes its static storage from this; the virtualized
    /// queues ignore it).
    fn create(capacity_hint: u64) -> Self
    where
        Self: Sized;

    /// Enqueues `v`.
    fn enqueue(&self, pool: &ChunkPool, heap: &DeviceHeap, v: u32) -> Result<(), QueueError> {
        let mut spins = 0;
        self.enqueue_with(pool, heap, v, &mut spins)
    }

    /// [`IndexQueue::enqueue`] that also counts retry iterations — lost
    /// ticket CASes (standard) or spin-lock busy turns (virtualized) — into
    /// `spins` (the `queue_spins` source of the contention-observability
    /// layer).
    fn enqueue_with(
        &self,
        pool: &ChunkPool,
        heap: &DeviceHeap,
        v: u32,
        spins: &mut u64,
    ) -> Result<(), QueueError>;

    /// Dequeues the oldest entry.
    fn dequeue(&self, pool: &ChunkPool, heap: &DeviceHeap) -> Option<u32> {
        let mut spins = 0;
        self.dequeue_with(pool, heap, &mut spins)
    }

    /// [`IndexQueue::dequeue`] with the same spin accounting as
    /// [`IndexQueue::enqueue_with`].
    fn dequeue_with(&self, pool: &ChunkPool, heap: &DeviceHeap, spins: &mut u64) -> Option<u32>;

    /// Reads the oldest entry without removing it, as `(ticket, value)`.
    /// The ticket names the entry's position in the queue's history (the
    /// count of entries removed before it), so it is never reused.
    ///
    /// On the standard queue a peek that races a full lap of the ring can
    /// return a later entry's value under the old ticket; the head has then
    /// moved, so [`IndexQueue::pop_front`] with that ticket fails. A caller
    /// must therefore validate what it peeked before it relies on it.
    fn peek_with(&self, pool: &ChunkPool, heap: &DeviceHeap, spins: &mut u64)
        -> Option<(u64, u32)>;

    /// Removes the oldest entry only if it is still the one `ticket` names:
    /// `false` if another operation removed it since the peek.
    fn pop_front(&self, pool: &ChunkPool, heap: &DeviceHeap, ticket: u64, spins: &mut u64) -> bool;

    /// Occupancy: exact when the queue is quiescent, approximate while
    /// operations are in flight.
    fn len(&self) -> usize;

    /// Whether the queue is (approximately) empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Variant tag used in manager labels: "S", "VA" or "VL".
    fn tag() -> &'static str
    where
        Self: Sized;
}

// ---------------------------------------------------------------- standard

/// Fixed-capacity lock-free MPMC ring (static storage).
///
/// Slot sequence numbers are stored *relative* to the slot index
/// (`stored = seq - i`), so the required initial state (`seq[i] = i`) is
/// all-zeroes — the storage comes straight from the zero page and
/// initialisation is O(1), matching the fast init of the original's static
/// queues (§4.1: standard Ouroboros initialises in ~6 ms).
pub struct StandardQueue {
    seq: Box<[AtomicU64]>,
    val: Box<[AtomicU32]>,
    head: AtomicU64,
    tail: AtomicU64,
    mask: u64,
}

/// Reinterprets a zeroed `Vec<u64>` (lazily-mapped calloc pages) as atomic
/// storage without touching every element.
fn zeroed_atomics_u64(n: usize) -> Box<[AtomicU64]> {
    let v = vec![0u64; n];
    // SAFETY: AtomicU64 has the same size, alignment and validity as u64,
    // in std and in the loom shim, whose atomics are `repr(transparent)` too.
    unsafe { std::mem::transmute::<Box<[u64]>, Box<[AtomicU64]>>(v.into_boxed_slice()) }
}

/// As [`zeroed_atomics_u64`], for `u32`.
fn zeroed_atomics_u32(n: usize) -> Box<[AtomicU32]> {
    let v = vec![0u32; n];
    // SAFETY: AtomicU32 has the same size, alignment and validity as u32,
    // in std and in the loom shim, whose atomics are `repr(transparent)` too.
    unsafe { std::mem::transmute::<Box<[u32]>, Box<[AtomicU32]>>(v.into_boxed_slice()) }
}

/// Cap on static queue storage: 2²² entries (16 MiB of indices) — large
/// heaps would otherwise demand absurd static allocations, which is exactly
/// the drawback (§2.10) that motivated virtualization.
pub const STANDARD_CAP_MAX: u64 = 1 << 22;

impl IndexQueue for StandardQueue {
    fn create(capacity_hint: u64) -> Self {
        let cap = capacity_hint.clamp(64, STANDARD_CAP_MAX).next_power_of_two() as usize;
        StandardQueue {
            seq: zeroed_atomics_u64(cap),
            val: zeroed_atomics_u32(cap),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            mask: cap as u64 - 1,
        }
    }

    fn enqueue_with(
        &self,
        _pool: &ChunkPool,
        _heap: &DeviceHeap,
        v: u32,
        spins: &mut u64,
    ) -> Result<(), QueueError> {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let idx = (tail & self.mask) as usize;
            // Stored sequences are relative to the slot index (see type
            // docs): the logical sequence is `stored + idx`.
            let seq = self.seq[idx].load(Ordering::Acquire) + idx as u64;
            if seq == tail {
                // Relaxed success: a Vyukov ticket ring, whose slot seq word carries
                // the Release/Acquire edge (model-checked in loom_tests).
                match self.tail.compare_exchange_weak(
                    tail,
                    tail + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.val[idx].store(v, Ordering::Relaxed);
                        self.seq[idx].store(tail + 1 - idx as u64, Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => {
                        *spins += 1;
                        tail = actual;
                    }
                }
            } else if seq < tail {
                return Err(QueueError::Full);
            } else {
                *spins += 1;
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    fn dequeue_with(&self, _pool: &ChunkPool, _heap: &DeviceHeap, spins: &mut u64) -> Option<u32> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let idx = (head & self.mask) as usize;
            let seq = self.seq[idx].load(Ordering::Acquire) + idx as u64;
            if seq == head + 1 {
                // Relaxed success: a ticket claim only. The seq Acquire load above
                // ordered the slot, and the seq Release below publishes it.
                match self.head.compare_exchange_weak(
                    head,
                    head + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let v = self.val[idx].load(Ordering::Relaxed);
                        self.seq[idx].store(head + self.mask + 1 - idx as u64, Ordering::Release);
                        return Some(v);
                    }
                    Err(actual) => {
                        *spins += 1;
                        head = actual;
                    }
                }
            } else if seq <= head {
                return None;
            } else {
                *spins += 1;
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// [`IndexQueue::dequeue_with`] without the ticket CAS: the slot is
    /// read, not claimed.
    fn peek_with(
        &self,
        _pool: &ChunkPool,
        _heap: &DeviceHeap,
        spins: &mut u64,
    ) -> Option<(u64, u32)> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let idx = (head & self.mask) as usize;
            let seq = self.seq[idx].load(Ordering::Acquire) + idx as u64;
            if seq == head + 1 {
                return Some((head, self.val[idx].load(Ordering::Relaxed)));
            } else if seq <= head {
                return None;
            }
            *spins += 1;
            head = self.head.load(Ordering::Relaxed);
        }
    }

    fn pop_front(
        &self,
        _pool: &ChunkPool,
        _heap: &DeviceHeap,
        ticket: u64,
        _spins: &mut u64,
    ) -> bool {
        // The head is still `ticket`, so slot `ticket` was published (the
        // peek saw its seq) and not yet claimed: the CAS claims it, and the
        // seq Release hands the slot to the enqueuer one lap on.
        if self
            .head
            .compare_exchange(ticket, ticket + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let idx = (ticket & self.mask) as usize;
        self.seq[idx].store(ticket + self.mask + 1 - idx as u64, Ordering::Release);
        true
    }

    fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        t.saturating_sub(h) as usize
    }

    fn tag() -> &'static str {
        "S"
    }
}

// -------------------------------------------------------------- spin guard

/// Minimal spin lock guarding the virtualized queues' multi-word state.
struct Spin {
    flag: AtomicBool,
}

impl Spin {
    const fn new() -> Self {
        Spin { flag: AtomicBool::new(false) }
    }

    /// Acquires the lock, counting busy turns into `spins`.
    fn lock_counted(&self, spins: &mut u64) -> SpinGuard<'_> {
        while self
            .flag
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            *spins += 1;
            gpumem_core::sync::hint::spin_loop();
        }
        SpinGuard { spin: self }
    }
}

struct SpinGuard<'a> {
    spin: &'a Spin,
}

impl Drop for SpinGuard<'_> {
    fn drop(&mut self) {
        self.spin.flag.store(false, Ordering::Release);
    }
}

// ----------------------------------------------------- virtualized (array)

/// Entries per storage chunk (plain `u32` payload, whole chunk).
pub const VA_ENTRIES_PER_CHUNK: u64 = CHUNK_BYTES / 4;
/// Slots in the chunk-pointer array.
pub const VA_SLOTS: usize = 512;

const NO_STORAGE: u32 = u32::MAX;

struct VaState {
    front: u64,
    back: u64,
    slots: [u32; VA_SLOTS],
}

/// Virtualized array-hierarchy queue: entries live in pool chunks referenced
/// by a small pointer array.
pub struct VirtArrayQueue {
    lock: Spin,
    state: std::cell::UnsafeCell<VaState>,
    /// `back - front`, stored (not added to) by each writer under `lock`,
    /// so a lock-free [`IndexQueue::len`] reads the last operation's value.
    approx_len: AtomicU64,
}

// SAFETY: `state` is only touched under `lock`.
unsafe impl Send for VirtArrayQueue {}
// SAFETY: as for Send — `lock` serialises all access to `state` (mutual
// exclusion model-checked in `loom_tests`).
unsafe impl Sync for VirtArrayQueue {}

impl VaState {
    /// The pointer-array slot holding virtual position `at`, and the heap
    /// offset of its entry.
    fn locate(&self, pool: &ChunkPool, at: u64) -> (usize, u64) {
        let pos = at % VirtArrayQueue::virtual_capacity();
        let slot = (pos / VA_ENTRIES_PER_CHUNK) as usize;
        debug_assert_ne!(self.slots[slot], NO_STORAGE);
        (slot, pool.chunk_base(self.slots[slot]) + (pos % VA_ENTRIES_PER_CHUNK) * 4)
    }
}

impl VirtArrayQueue {
    /// Virtual capacity: the pointer array times one chunk of entries.
    pub const fn virtual_capacity() -> u64 {
        VA_SLOTS as u64 * VA_ENTRIES_PER_CHUNK
    }

    /// Removes the front entry; the caller holds the lock.
    fn pop_locked(st: &mut VaState, pool: &ChunkPool, heap: &DeviceHeap) -> Option<u32> {
        if st.front == st.back {
            return None;
        }
        let (slot, off) = st.locate(pool, st.front);
        let v = heap.load_u32(off);
        st.front += 1;
        // Release the storage chunk once the front leaves it (and the back
        // is not still writing into it).
        let back_slot = ((st.back % Self::virtual_capacity()) / VA_ENTRIES_PER_CHUNK) as usize;
        if st.front.is_multiple_of(VA_ENTRIES_PER_CHUNK) && slot != back_slot {
            pool.release(st.slots[slot]);
            st.slots[slot] = NO_STORAGE;
        }
        Some(v)
    }
}

impl IndexQueue for VirtArrayQueue {
    fn create(_capacity_hint: u64) -> Self {
        VirtArrayQueue {
            lock: Spin::new(),
            state: std::cell::UnsafeCell::new(VaState {
                front: 0,
                back: 0,
                slots: [NO_STORAGE; VA_SLOTS],
            }),
            approx_len: AtomicU64::new(0),
        }
    }

    fn enqueue_with(
        &self,
        pool: &ChunkPool,
        heap: &DeviceHeap,
        v: u32,
        spins: &mut u64,
    ) -> Result<(), QueueError> {
        let _g = self.lock.lock_counted(spins);
        // SAFETY: lock held.
        let st = unsafe { &mut *self.state.get() };
        if st.back - st.front >= Self::virtual_capacity() {
            return Err(QueueError::Full);
        }
        let pos = st.back % Self::virtual_capacity();
        let slot = (pos / VA_ENTRIES_PER_CHUNK) as usize;
        if st.slots[slot] == NO_STORAGE {
            let c = pool.acquire(CLASS_QUEUE).ok_or(QueueError::OutOfChunks)?;
            st.slots[slot] = c;
        }
        let chunk = st.slots[slot];
        let off = pool.chunk_base(chunk) + (pos % VA_ENTRIES_PER_CHUNK) * 4;
        heap.store_u32(off, v);
        st.back += 1;
        self.approx_len.store(st.back - st.front, Ordering::Relaxed);
        Ok(())
    }

    fn dequeue_with(&self, pool: &ChunkPool, heap: &DeviceHeap, spins: &mut u64) -> Option<u32> {
        let _g = self.lock.lock_counted(spins);
        // SAFETY: lock held.
        let st = unsafe { &mut *self.state.get() };
        let v = Self::pop_locked(st, pool, heap)?;
        self.approx_len.store(st.back - st.front, Ordering::Relaxed);
        Some(v)
    }

    fn peek_with(
        &self,
        pool: &ChunkPool,
        heap: &DeviceHeap,
        spins: &mut u64,
    ) -> Option<(u64, u32)> {
        let _g = self.lock.lock_counted(spins);
        // SAFETY: lock held.
        let st = unsafe { &*self.state.get() };
        (st.front != st.back).then(|| (st.front, heap.load_u32(st.locate(pool, st.front).1)))
    }

    fn pop_front(&self, pool: &ChunkPool, heap: &DeviceHeap, ticket: u64, spins: &mut u64) -> bool {
        let _g = self.lock.lock_counted(spins);
        // SAFETY: lock held.
        let st = unsafe { &mut *self.state.get() };
        if st.front != ticket || Self::pop_locked(st, pool, heap).is_none() {
            return false;
        }
        self.approx_len.store(st.back - st.front, Ordering::Relaxed);
        true
    }

    fn len(&self) -> usize {
        self.approx_len.load(Ordering::Relaxed) as usize
    }

    fn tag() -> &'static str {
        "VA"
    }
}

// ---------------------------------------------------- virtualized (linked)

/// Entry capacity of one linked storage chunk (8-byte header: next, unused).
pub const VL_ENTRIES_PER_CHUNK: u64 = (CHUNK_BYTES - 8) / 4;

struct VlState {
    front_chunk: u32,
    front_idx: u64,
    back_chunk: u32,
    back_idx: u64,
    len: u64,
    /// Entries removed so far: the front entry's ticket.
    popped: u64,
}

/// Virtualized linked-chunk queue: unlimited virtual size, no pointer array.
pub struct VirtLinkedQueue {
    lock: Spin,
    state: std::cell::UnsafeCell<VlState>,
    /// `len`, stored by each writer under `lock` as in [`VirtArrayQueue`].
    approx_len: AtomicU64,
}

// SAFETY: `state` is only touched under `lock`.
unsafe impl Send for VirtLinkedQueue {}
// SAFETY: as for Send — `lock` serialises all access to `state` (mutual
// exclusion model-checked in `loom_tests`).
unsafe impl Sync for VirtLinkedQueue {}

impl VirtLinkedQueue {
    fn entry_off(pool: &ChunkPool, chunk: u32, idx: u64) -> u64 {
        pool.chunk_base(chunk) + 8 + idx * 4
    }

    /// Removes the front entry; the caller holds the lock.
    fn pop_locked(st: &mut VlState, pool: &ChunkPool, heap: &DeviceHeap) -> Option<u32> {
        if st.len == 0 {
            return None;
        }
        let v = heap.load_u32(Self::entry_off(pool, st.front_chunk, st.front_idx));
        st.front_idx += 1;
        st.len -= 1;
        st.popped += 1;
        // Front chunk exhausted: follow the link and release it.
        if st.front_idx == VL_ENTRIES_PER_CHUNK {
            let next = heap.load_u32(pool.chunk_base(st.front_chunk));
            pool.release(st.front_chunk);
            st.front_chunk = next;
            st.front_idx = 0;
            if next == NO_STORAGE {
                st.back_chunk = NO_STORAGE;
                st.back_idx = 0;
                debug_assert_eq!(st.len, 0);
            }
        } else if st.len == 0 {
            // Queue drained mid-chunk: keep the chunk, reset the cursors so
            // the chunk is reused from the top.
            st.back_idx = st.front_idx;
        }
        Some(v)
    }
}

impl IndexQueue for VirtLinkedQueue {
    fn create(_capacity_hint: u64) -> Self {
        VirtLinkedQueue {
            lock: Spin::new(),
            state: std::cell::UnsafeCell::new(VlState {
                front_chunk: NO_STORAGE,
                front_idx: 0,
                back_chunk: NO_STORAGE,
                back_idx: 0,
                len: 0,
                popped: 0,
            }),
            approx_len: AtomicU64::new(0),
        }
    }

    fn enqueue_with(
        &self,
        pool: &ChunkPool,
        heap: &DeviceHeap,
        v: u32,
        spins: &mut u64,
    ) -> Result<(), QueueError> {
        let _g = self.lock.lock_counted(spins);
        // SAFETY: lock held.
        let st = unsafe { &mut *self.state.get() };
        if st.back_chunk == NO_STORAGE || st.back_idx == VL_ENTRIES_PER_CHUNK {
            let c = pool.acquire(CLASS_QUEUE).ok_or(QueueError::OutOfChunks)?;
            heap.store_u32(pool.chunk_base(c), NO_STORAGE); // next link
            if st.back_chunk != NO_STORAGE {
                heap.store_u32(pool.chunk_base(st.back_chunk), c);
            } else {
                st.front_chunk = c;
                st.front_idx = 0;
            }
            st.back_chunk = c;
            st.back_idx = 0;
        }
        heap.store_u32(Self::entry_off(pool, st.back_chunk, st.back_idx), v);
        st.back_idx += 1;
        st.len += 1;
        self.approx_len.store(st.len, Ordering::Relaxed);
        Ok(())
    }

    fn dequeue_with(&self, pool: &ChunkPool, heap: &DeviceHeap, spins: &mut u64) -> Option<u32> {
        let _g = self.lock.lock_counted(spins);
        // SAFETY: lock held.
        let st = unsafe { &mut *self.state.get() };
        let v = Self::pop_locked(st, pool, heap)?;
        self.approx_len.store(st.len, Ordering::Relaxed);
        Some(v)
    }

    fn peek_with(
        &self,
        pool: &ChunkPool,
        heap: &DeviceHeap,
        spins: &mut u64,
    ) -> Option<(u64, u32)> {
        let _g = self.lock.lock_counted(spins);
        // SAFETY: lock held.
        let st = unsafe { &*self.state.get() };
        (st.len != 0).then(|| {
            (st.popped, heap.load_u32(Self::entry_off(pool, st.front_chunk, st.front_idx)))
        })
    }

    fn pop_front(&self, pool: &ChunkPool, heap: &DeviceHeap, ticket: u64, spins: &mut u64) -> bool {
        let _g = self.lock.lock_counted(spins);
        // SAFETY: lock held.
        let st = unsafe { &mut *self.state.get() };
        if st.popped != ticket || Self::pop_locked(st, pool, heap).is_none() {
            return false;
        }
        self.approx_len.store(st.len, Ordering::Relaxed);
        true
    }

    fn len(&self) -> usize {
        self.approx_len.load(Ordering::Relaxed) as usize
    }

    fn tag() -> &'static str {
        "VL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn env(chunks: u32) -> (Arc<DeviceHeap>, ChunkPool) {
        (Arc::new(DeviceHeap::new(chunks as u64 * CHUNK_BYTES)), ChunkPool::new(chunks))
    }

    fn fifo_roundtrip<Q: IndexQueue>() {
        let (heap, pool) = env(16);
        let q = Q::create(1024);
        assert!(q.is_empty());
        for v in 0..100 {
            q.enqueue(&pool, &heap, v).unwrap();
        }
        assert_eq!(q.len(), 100);
        for v in 0..100 {
            assert_eq!(q.dequeue(&pool, &heap), Some(v), "FIFO order");
        }
        assert_eq!(q.dequeue(&pool, &heap), None);
    }

    #[test]
    fn standard_fifo() {
        fifo_roundtrip::<StandardQueue>();
    }

    #[test]
    fn va_fifo() {
        fifo_roundtrip::<VirtArrayQueue>();
    }

    #[test]
    fn vl_fifo() {
        fifo_roundtrip::<VirtLinkedQueue>();
    }

    #[test]
    fn standard_full_reports() {
        let (heap, pool) = env(1);
        let q = StandardQueue::create(64);
        for v in 0..64 {
            q.enqueue(&pool, &heap, v).unwrap();
        }
        assert_eq!(q.enqueue(&pool, &heap, 999), Err(QueueError::Full));
    }

    fn virtualized_storage_cycles<Q: IndexQueue>() {
        let (heap, pool) = env(8);
        let q = Q::create(0);
        // Push/pop far more entries than one chunk holds; storage chunks
        // must be acquired and released along the way.
        let n = 3 * VA_ENTRIES_PER_CHUNK as u32;
        for round in 0..3 {
            for v in 0..n {
                q.enqueue(&pool, &heap, round * n + v).unwrap();
            }
            for v in 0..n {
                assert_eq!(q.dequeue(&pool, &heap), Some(round * n + v));
            }
        }
        // All storage must be back in the pool: we can still acquire
        // nearly all chunks (at most one may be parked by the queue).
        let mut got = 0;
        while pool.acquire(0).is_some() {
            got += 1;
        }
        assert!(got >= 7, "queue leaked storage chunks: only {got} reusable");
    }

    #[test]
    fn va_storage_cycles() {
        virtualized_storage_cycles::<VirtArrayQueue>();
    }

    #[test]
    fn vl_storage_cycles() {
        virtualized_storage_cycles::<VirtLinkedQueue>();
    }

    #[test]
    fn virtualized_out_of_chunks_surfaces() {
        let (heap, pool) = env(1);
        pool.acquire(0).unwrap(); // drain the pool
        let q = VirtLinkedQueue::create(0);
        assert_eq!(q.enqueue(&pool, &heap, 1), Err(QueueError::OutOfChunks));
    }

    fn concurrent_conservation<Q: IndexQueue + 'static>() {
        let (heap, pool) = env(32);
        let q = Arc::new(Q::create(1 << 16));
        let heap = Arc::new(heap);
        let pool = Arc::new(pool);
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let q = q.clone();
            let heap = Arc::clone(&heap);
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let mut popped = Vec::new();
                for i in 0..2000u32 {
                    let v = t * 10_000 + i + 1;
                    while q.enqueue(&pool, &heap, v).is_err() {
                        gpumem_core::sync::hint::spin_loop();
                    }
                    if i % 2 == 1 {
                        if let Some(v) = q.dequeue(&pool, &heap) {
                            popped.push(v);
                        }
                    }
                }
                popped
            }));
        }
        let mut all: Vec<u32> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        // Drain the rest.
        while let Some(v) = q.dequeue(&pool, &heap) {
            all.push(v);
        }
        assert_eq!(all.len(), 8000, "elements lost or duplicated");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8000);
    }

    #[test]
    fn standard_concurrent() {
        concurrent_conservation::<StandardQueue>();
    }

    #[test]
    fn va_concurrent() {
        concurrent_conservation::<VirtArrayQueue>();
    }

    #[test]
    fn vl_concurrent() {
        concurrent_conservation::<VirtLinkedQueue>();
    }

    #[test]
    fn tags() {
        assert_eq!(StandardQueue::tag(), "S");
        assert_eq!(VirtArrayQueue::tag(), "VA");
        assert_eq!(VirtLinkedQueue::tag(), "VL");
    }

    /// Entries a queue has taken in and let out, from its own counters.
    trait Traffic {
        fn traffic(&self) -> (u64, u64);
    }

    impl Traffic for StandardQueue {
        fn traffic(&self) -> (u64, u64) {
            (self.tail.load(Ordering::Relaxed), self.head.load(Ordering::Relaxed))
        }
    }

    impl Traffic for VirtArrayQueue {
        fn traffic(&self) -> (u64, u64) {
            let _g = self.lock.lock_counted(&mut 0);
            // SAFETY: lock held.
            let st = unsafe { &*self.state.get() };
            (st.back, st.front)
        }
    }

    impl Traffic for VirtLinkedQueue {
        fn traffic(&self) -> (u64, u64) {
            let _g = self.lock.lock_counted(&mut 0);
            // SAFETY: lock held.
            let st = unsafe { &*self.state.get() };
            (st.popped + st.len, st.popped)
        }
    }

    /// Chunk-based Ouroboros allocates from the chunk in its queue: filling
    /// a 16 B chunk's 512 pages costs the 16 B queue one enqueue (by the
    /// carve) and one removal (with the last page), not one dequeue and one
    /// enqueue per page. The 513th malloc carves the next chunk.
    fn a_chunk_costs_one_enqueue_and_one_pop<Q: IndexQueue + Traffic>() {
        use gpumem_core::{DeviceAllocator, ThreadCtx};
        let a = crate::Ouroboros::<Q, true>::with_capacity(4 << 20);
        let ctx = ThreadCtx::host();
        let chunk_of = |size| a.malloc(&ctx, size).unwrap().offset() / CHUNK_BYTES;
        let first = chunk_of(16);
        for _ in 1..512 {
            assert_eq!(chunk_of(16), first, "{}: the first chunk has 512 pages", Q::tag());
        }
        assert_eq!(a.queues[0].traffic(), (1, 1), "{}: (enqueued, removed)", Q::tag());
        assert_ne!(chunk_of(16), first, "{}: the 513th page is a new chunk's", Q::tag());
        assert_eq!(a.queues[0].traffic(), (2, 1), "{}: (enqueued, removed)", Q::tag());
    }

    #[test]
    fn standard_chunk_costs_one_enqueue_and_one_pop() {
        a_chunk_costs_one_enqueue_and_one_pop::<StandardQueue>();
    }

    #[test]
    fn va_chunk_costs_one_enqueue_and_one_pop() {
        a_chunk_costs_one_enqueue_and_one_pop::<VirtArrayQueue>();
    }

    #[test]
    fn vl_chunk_costs_one_enqueue_and_one_pop() {
        a_chunk_costs_one_enqueue_and_one_pop::<VirtLinkedQueue>();
    }
}

/// Model-checked interleaving suite (built with `RUSTFLAGS="--cfg loom"`).
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use gpumem_core::sync::model;
    use gpumem_core::sync::thread;
    use std::sync::Arc;

    fn fixture() -> (Arc<ChunkPool>, Arc<DeviceHeap>, Arc<StandardQueue>) {
        (
            Arc::new(ChunkPool::new(4)),
            Arc::new(DeviceHeap::new(4 * crate::pool::CHUNK_BYTES)),
            Arc::new(StandardQueue::create(64)),
        )
    }

    /// Two concurrent enqueues both land and dequeue returns each exactly
    /// once — the ticket CAS plus seq Release/Acquire pair conserves
    /// elements under every schedule.
    #[test]
    fn standard_queue_concurrent_enqueues_conserve() {
        model(|| {
            let (pool, heap, q) = fixture();
            let spawn_enq = |v: u32| {
                let (pool, heap, q) = (pool.clone(), heap.clone(), q.clone());
                thread::spawn(move || {
                    let mut spins = 0;
                    q.enqueue_with(&pool, &heap, v, &mut spins).unwrap();
                })
            };
            let h1 = spawn_enq(11);
            let h2 = spawn_enq(22);
            h1.join().unwrap();
            h2.join().unwrap();
            let mut spins = 0;
            let mut got = vec![
                q.dequeue_with(&pool, &heap, &mut spins).expect("first element"),
                q.dequeue_with(&pool, &heap, &mut spins).expect("second element"),
            ];
            got.sort_unstable();
            assert_eq!(got, vec![11, 22], "enqueued values lost or duplicated");
            assert_eq!(q.dequeue_with(&pool, &heap, &mut spins), None);
        });
    }

    /// Concurrent enqueue vs. dequeue: the dequeuer either sees the (whole)
    /// element or an empty queue — never a torn/stale slot value. This is
    /// the "dequeue index reads" audit target: the Relaxed val/ticket loads
    /// are safe only because the seq word carries the Release/Acquire edge.
    #[test]
    fn standard_queue_enqueue_vs_dequeue() {
        model(|| {
            let (pool, heap, q) = fixture();
            let enq = {
                let (pool, heap, q) = (pool.clone(), heap.clone(), q.clone());
                thread::spawn(move || {
                    let mut spins = 0;
                    q.enqueue_with(&pool, &heap, 77, &mut spins).unwrap();
                })
            };
            let deq = {
                let (pool, heap, q) = (pool.clone(), heap.clone(), q.clone());
                thread::spawn(move || {
                    let mut spins = 0;
                    q.dequeue_with(&pool, &heap, &mut spins)
                })
            };
            enq.join().unwrap();
            let got = deq.join().unwrap();
            if let Some(v) = got {
                assert_eq!(v, 77, "dequeue returned a value never enqueued");
            }
            // Whatever the racer saw, the element must be drainable now.
            let mut spins = 0;
            if got.is_none() {
                assert_eq!(q.dequeue_with(&pool, &heap, &mut spins), Some(77));
            }
            assert_eq!(q.dequeue_with(&pool, &heap, &mut spins), None);
        });
    }

    /// A fixture queue holding `[1, 2]`.
    fn holding_two() -> (Arc<ChunkPool>, Arc<DeviceHeap>, Arc<StandardQueue>) {
        let (pool, heap, q) = fixture();
        let mut spins = 0;
        for v in [1, 2] {
            q.enqueue_with(&pool, &heap, v, &mut spins).unwrap();
        }
        (pool, heap, q)
    }

    /// Peeks, then pops the peeked ticket: `(ticket, value, popped)`.
    fn peek_then_pop(pool: &ChunkPool, heap: &DeviceHeap, q: &StandardQueue) -> (u64, u32, bool) {
        let mut spins = 0;
        let (ticket, v) = q.peek_with(pool, heap, &mut spins).expect("the queue is not empty");
        (ticket, v, q.pop_front(pool, heap, ticket, &mut spins))
    }

    /// Peek-then-pop races a dequeue on `[1, 2]`: each value leaves exactly
    /// once, through the dequeue or through a successful pop of the value
    /// that was peeked, and a ticket that lost the race pops nothing.
    #[test]
    fn standard_queue_peek_pop_vs_dequeue() {
        model(|| {
            let (pool, heap, q) = holding_two();
            let popper = {
                let (pool, heap, q) = (pool.clone(), heap.clone(), q.clone());
                thread::spawn(move || peek_then_pop(&pool, &heap, &q))
            };
            let deq = {
                let (pool, heap, q) = (pool.clone(), heap.clone(), q.clone());
                thread::spawn(move || {
                    let mut spins = 0;
                    q.dequeue_with(&pool, &heap, &mut spins).expect("the queue holds two")
                })
            };
            let (ticket, peeked, popped) = popper.join().unwrap();
            let mut left = vec![deq.join().unwrap()];
            if popped {
                left.push(peeked);
            }
            let mut spins = 0;
            assert!(!q.pop_front(&pool, &heap, ticket, &mut spins), "a spent ticket popped");
            while let Some(v) = q.dequeue_with(&pool, &heap, &mut spins) {
                left.push(v);
            }
            left.sort_unstable();
            assert_eq!(left, vec![1, 2], "a value left twice or never");
        });
    }

    /// Peek-then-pop races an enqueue on `[1, 2]`: nothing else removes, so
    /// the pop succeeds with the front value and the enqueued value lands
    /// behind the rest.
    #[test]
    fn standard_queue_peek_pop_vs_enqueue() {
        model(|| {
            let (pool, heap, q) = holding_two();
            let popper = {
                let (pool, heap, q) = (pool.clone(), heap.clone(), q.clone());
                thread::spawn(move || peek_then_pop(&pool, &heap, &q))
            };
            let enq = {
                let (pool, heap, q) = (pool.clone(), heap.clone(), q.clone());
                thread::spawn(move || {
                    let mut spins = 0;
                    q.enqueue_with(&pool, &heap, 3, &mut spins).unwrap();
                })
            };
            let (_, peeked, popped) = popper.join().unwrap();
            enq.join().unwrap();
            assert_eq!((peeked, popped), (1, true), "the front entry must pop");
            let mut spins = 0;
            let mut left = Vec::new();
            while let Some(v) = q.dequeue_with(&pool, &heap, &mut spins) {
                left.push(v);
            }
            assert_eq!(left, vec![2, 3]);
        });
    }

    /// The spin lock guarding the virtualized queues' multi-word state is
    /// mutually exclusive: two locked increments of a plain counter never
    /// lose an update.
    #[test]
    fn spin_lock_is_mutually_exclusive() {
        model(|| {
            struct Guarded {
                lock: Spin,
                cell: std::cell::UnsafeCell<u32>,
            }
            // SAFETY: `cell` is only touched under `lock` (that exclusivity
            // is exactly what this model verifies).
            unsafe impl Sync for Guarded {}
            let g = Arc::new(Guarded { lock: Spin::new(), cell: std::cell::UnsafeCell::new(0) });
            let spawn_inc = || {
                let g = g.clone();
                thread::spawn(move || {
                    let mut spins = 0;
                    let _guard = g.lock.lock_counted(&mut spins);
                    // SAFETY: under the spin lock.
                    unsafe { *g.cell.get() += 1 };
                })
            };
            let h1 = spawn_inc();
            let h2 = spawn_inc();
            h1.join().unwrap();
            h2.join().unwrap();
            let mut spins = 0;
            let _guard = g.lock.lock_counted(&mut spins);
            // SAFETY: under the spin lock.
            assert_eq!(unsafe { *g.cell.get() }, 2, "lost update under the spin lock");
        });
    }
}
