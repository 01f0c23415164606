//! Fixed-capacity, lock-free FIFO — XMalloc's buffer structure.
//!
//! Paper §2.2: "Both buffers are fixed-capacity, lock-free FIFO arrays".
//! This is a bounded MPMC ring in the style of Vyukov's queue: every slot
//! carries a sequence number that encodes whether it is ready for the next
//! enqueue or dequeue, so producers and consumers synchronise per-slot with
//! a single CAS — the same wait-free-in-the-common-case behaviour the
//! original gets from its SIMD-coalesced FIFO arrays.

use gpumem_core::sync::{AtomicU64, Ordering};

/// A bounded, lock-free multi-producer multi-consumer FIFO of `u64` values.
pub struct FifoArray {
    seq: Box<[AtomicU64]>,
    val: Box<[AtomicU64]>,
    head: AtomicU64,
    tail: AtomicU64,
    mask: u64,
}

impl FifoArray {
    /// Creates a FIFO with capacity `cap` (rounded up to a power of two).
    pub fn new(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(2);
        let seq = (0..cap).map(|i| AtomicU64::new(i as u64)).collect();
        let val = (0..cap).map(|_| AtomicU64::new(0)).collect();
        FifoArray {
            seq,
            val,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            mask: cap as u64 - 1,
        }
    }

    /// Capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Attempts to enqueue; returns `false` when the buffer is full (the
    /// fixed-capacity property XMalloc's free path depends on — a full
    /// first-level buffer sends the block back to its Superblock instead).
    pub fn push(&self, value: u64) -> bool {
        let mut spins = 0;
        self.push_with(value, &mut spins)
    }

    /// [`FifoArray::push`] that also counts slot spins — every re-try after
    /// a lost ticket CAS or a stale slot observation — into `spins` (the
    /// `queue_spins` source of the contention-observability layer).
    pub fn push_with(&self, value: u64, spins: &mut u64) -> bool {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let idx = (tail & self.mask) as usize;
            let seq = self.seq[idx].load(Ordering::Acquire);
            if seq == tail {
                // Slot ready for this ticket: take the ticket.
                // Relaxed success: a Vyukov ticket ring, whose slot seq word carries
                // the Release/Acquire edge (model-checked in loom_tests).
                match self.tail.compare_exchange_weak(
                    tail,
                    tail + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.val[idx].store(value, Ordering::Relaxed);
                        self.seq[idx].store(tail + 1, Ordering::Release);
                        return true;
                    }
                    Err(actual) => {
                        *spins += 1;
                        tail = actual;
                    }
                }
            } else if seq < tail {
                // Slot still holds an element a consumer has not taken: full.
                return false;
            } else {
                *spins += 1;
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Attempts to dequeue; `None` when empty.
    pub fn pop(&self) -> Option<u64> {
        let mut spins = 0;
        self.pop_with(&mut spins)
    }

    /// [`FifoArray::pop`] that counts slot spins into `spins` (see
    /// [`FifoArray::push_with`]).
    pub fn pop_with(&self, spins: &mut u64) -> Option<u64> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let idx = (head & self.mask) as usize;
            let seq = self.seq[idx].load(Ordering::Acquire);
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
                        self.seq[idx].store(head + self.mask + 1, Ordering::Release);
                        return Some(v);
                    }
                    Err(actual) => {
                        *spins += 1;
                        head = actual;
                    }
                }
            } else if seq <= head {
                return None; // empty
            } else {
                *spins += 1;
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate number of queued elements (diagnostics only).
    pub fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        t.saturating_sub(h) as usize
    }

    /// Whether the FIFO is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_preserved() {
        let q = FifoArray::new(8);
        for v in 10..15 {
            assert!(q.push(v));
        }
        for v in 10..15 {
            assert_eq!(q.pop(), Some(v));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(FifoArray::new(5).capacity(), 8);
        assert_eq!(FifoArray::new(8).capacity(), 8);
        assert_eq!(FifoArray::new(1).capacity(), 2);
    }

    #[test]
    fn push_fails_when_full() {
        let q = FifoArray::new(4);
        for v in 0..4 {
            assert!(q.push(v));
        }
        assert!(!q.push(99), "full FIFO must reject");
        assert_eq!(q.pop(), Some(0));
        assert!(q.push(99), "one slot freed");
    }

    #[test]
    fn wraparound_many_times() {
        let q = FifoArray::new(4);
        for round in 0..100u64 {
            assert!(q.push(round));
            assert_eq!(q.pop(), Some(round));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_races_pop_at_capacity_boundary() {
        // The FIFO is held *at* capacity: producers keep hammering a full
        // ring while a consumer drains it, so every push decides between
        // "slot just vacated" and "still full" under contention. The
        // capacity bound must never be exceeded and no element lost.
        let q = Arc::new(FifoArray::new(4));
        let cap = q.capacity() as u64;
        for v in 1..=cap {
            assert!(q.push(v));
        }
        assert!(!q.push(0), "starts exactly full");
        const N: u64 = 5_000;
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut rejected = 0u64;
                let mut sum = 0u64;
                for i in 0..N {
                    let v = cap + 1 + i;
                    loop {
                        if q.push(v) {
                            sum += v;
                            break;
                        }
                        rejected += 1;
                        std::thread::yield_now();
                    }
                }
                (sum, rejected)
            })
        };
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut sum = 0u64;
                let mut got = 0u64;
                while got < N {
                    if let Some(v) = q.pop() {
                        sum += v;
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                sum
            })
        };
        let (pushed_sum, _rejected) = producer.join().unwrap();
        let popped_sum = consumer.join().unwrap();
        // Conservation: what the consumer saw is what the producer pushed
        // plus the initial prefill still queued at the end.
        let drained: u64 = std::iter::from_fn(|| q.pop()).sum();
        let prefill: u64 = (1..=cap).sum();
        assert_eq!(popped_sum + drained, pushed_sum + prefill);
        assert!(q.is_empty());
        assert!(q.len() <= q.capacity(), "len never exceeds capacity");
    }

    #[test]
    fn pop_races_push_at_empty_boundary() {
        // Mirror image: the ring is held at/near empty, so every pop decides
        // between "element just arrived" and "still empty" under contention.
        // Empty must report None (not block or tear a value).
        let q = Arc::new(FifoArray::new(4));
        const N: u64 = 5_000;
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut sum = 0u64;
                let mut got = 0u64;
                let mut empties = 0u64;
                while got < N {
                    match q.pop() {
                        Some(v) => {
                            assert!((1..=N).contains(&v), "torn value {v}");
                            sum += v;
                            got += 1;
                        }
                        None => {
                            empties += 1;
                            std::thread::yield_now();
                        }
                    }
                }
                (sum, empties)
            })
        };
        let mut pushed = 0u64;
        for v in 1..=N {
            while !q.push(v) {
                std::thread::yield_now();
            }
            pushed += v;
        }
        let (popped, _empties) = consumer.join().unwrap();
        assert_eq!(popped, pushed);
        assert_eq!(q.pop(), None, "drained ring reports empty");
    }

    #[test]
    fn concurrent_producers_consumers_conserve_elements() {
        let q = Arc::new(FifoArray::new(64));
        let produced = Arc::new(AtomicU64::new(0));
        let consumed = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let q = q.clone();
            let produced = produced.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    let v = t * 1_000_000 + i + 1;
                    while !q.push(v) {
                        gpumem_core::sync::hint::spin_loop();
                    }
                    produced.fetch_add(v, Ordering::Relaxed);
                }
            }));
        }
        for _ in 0..2 {
            let q = q.clone();
            let consumed = consumed.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = 0u64;
                while got < 10_000 {
                    if let Some(v) = q.pop() {
                        consumed.fetch_add(v, Ordering::Relaxed);
                        got += 1;
                    } else {
                        gpumem_core::sync::hint::spin_loop();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(produced.load(Ordering::Relaxed), consumed.load(Ordering::Relaxed));
        assert!(q.is_empty());
    }
}

/// Model-checked interleaving suite (built with `RUSTFLAGS="--cfg loom"`).
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use gpumem_core::sync::{model, thread};
    use std::sync::Arc;

    /// Two racing pushes both land and drain back out exactly once — the
    /// ticket ring conserves elements under every schedule.
    #[test]
    fn concurrent_pushes_conserve() {
        model(|| {
            let q = Arc::new(FifoArray::new(4));
            let spawn_push = |v: u64| {
                let q = q.clone();
                thread::spawn(move || assert!(q.push(v), "ring has capacity"))
            };
            let h1 = spawn_push(5);
            let h2 = spawn_push(9);
            h1.join().unwrap();
            h2.join().unwrap();
            let mut got = vec![q.pop().expect("first"), q.pop().expect("second")];
            got.sort_unstable();
            assert_eq!(got, vec![5, 9], "pushed values lost or duplicated");
            assert_eq!(q.pop(), None);
        });
    }

    /// Push racing pop: the popper sees either the whole element or an
    /// empty ring — never a torn slot — and the element survives.
    #[test]
    fn push_vs_pop_never_tears() {
        model(|| {
            let q = Arc::new(FifoArray::new(4));
            let pusher = {
                let q = q.clone();
                thread::spawn(move || assert!(q.push(41)))
            };
            let popper = {
                let q = q.clone();
                thread::spawn(move || q.pop())
            };
            pusher.join().unwrap();
            let got = popper.join().unwrap();
            match got {
                Some(v) => assert_eq!(v, 41, "pop returned a value never pushed"),
                None => assert_eq!(q.pop(), Some(41), "element vanished"),
            }
            assert_eq!(q.pop(), None);
        });
    }
}
