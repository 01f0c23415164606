//! Model-based property tests: every Ouroboros queue implementation must
//! behave exactly like `VecDeque` under arbitrary operation sequences
//! (modulo capacity limits, which only cause clean `Full`/`OutOfChunks`
//! rejections). A peek returns the model's front; a pop with the last
//! peeked ticket succeeds exactly when nothing was removed since that peek.

use std::collections::VecDeque;
use std::sync::Arc;

use proptest::prelude::*;

use alloc_ouroboros::pool::{ChunkPool, CHUNK_BYTES};
use alloc_ouroboros::queues::{
    IndexQueue, QueueError, StandardQueue, VirtArrayQueue, VirtLinkedQueue,
};
use gpumem_core::DeviceHeap;

#[derive(Clone, Debug)]
enum Op {
    Enqueue(u32),
    Dequeue,
    Peek,
    /// Pops with the ticket of the last successful peek, stale or not.
    PopFront,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0u32..1_000_000).prop_map(Op::Enqueue),
            2 => Just(Op::Dequeue),
            1 => Just(Op::Peek),
            1 => Just(Op::PopFront),
        ],
        1..400,
    )
}

fn run_against_model<Q: IndexQueue>(ops: &[Op]) -> Result<(), TestCaseError> {
    let heap = Arc::new(DeviceHeap::new(32 * CHUNK_BYTES));
    let pool = ChunkPool::new(32);
    let q = Q::create(256);
    let mut model: VecDeque<u32> = VecDeque::new();
    // Removals so far, and the last peek's ticket with the removal count
    // it was taken at.
    let mut removed = 0u64;
    let mut peeked: Option<(u64, u64)> = None;
    let mut spins = 0;
    for op in ops {
        match op {
            Op::Enqueue(v) => match q.enqueue(&pool, &heap, *v) {
                Ok(()) => model.push_back(*v),
                Err(QueueError::Full) | Err(QueueError::OutOfChunks) => {
                    // Capacity rejection must not corrupt order; just skip.
                }
            },
            Op::Dequeue => {
                let got = q.dequeue(&pool, &heap);
                prop_assert_eq!(got, model.pop_front());
                removed += u64::from(got.is_some());
            }
            Op::Peek => {
                let got = q.peek_with(&pool, &heap, &mut spins);
                prop_assert_eq!(got.map(|(_, v)| v), model.front().copied());
                if let Some((ticket, _)) = got {
                    peeked = Some((ticket, removed));
                }
            }
            Op::PopFront => {
                if let Some((ticket, at)) = peeked {
                    let fresh = at == removed;
                    prop_assert_eq!(q.pop_front(&pool, &heap, ticket, &mut spins), fresh);
                    if fresh {
                        model.pop_front();
                        removed += 1;
                    }
                }
            }
        }
        prop_assert_eq!(q.len(), model.len());
    }
    // Drain completely.
    while let Some(expected) = model.pop_front() {
        prop_assert_eq!(q.dequeue(&pool, &heap), Some(expected));
    }
    prop_assert_eq!(q.dequeue(&pool, &heap), None);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn standard_queue_matches_vecdeque(ops in ops()) {
        run_against_model::<StandardQueue>(&ops)?;
    }

    #[test]
    fn virt_array_queue_matches_vecdeque(ops in ops()) {
        run_against_model::<VirtArrayQueue>(&ops)?;
    }

    #[test]
    fn virt_linked_queue_matches_vecdeque(ops in ops()) {
        run_against_model::<VirtLinkedQueue>(&ops)?;
    }

    /// Whatever the op sequence, the virtualized queues must return all
    /// borrowed storage chunks once drained (at most one parked chunk).
    #[test]
    fn virtualized_queues_return_storage(ops in ops()) {
        let heap = Arc::new(DeviceHeap::new(16 * CHUNK_BYTES));
        let pool = ChunkPool::new(16);
        let q = VirtLinkedQueue::create(0);
        for op in &ops {
            match op {
                Op::Enqueue(v) => { let _ = q.enqueue(&pool, &heap, *v); }
                Op::Dequeue => { let _ = q.dequeue(&pool, &heap); }
                Op::Peek => {}
                Op::PopFront => {
                    let mut spins = 0;
                    if let Some((ticket, _)) = q.peek_with(&pool, &heap, &mut spins) {
                        prop_assert!(q.pop_front(&pool, &heap, ticket, &mut spins));
                    }
                }
            }
        }
        while q.dequeue(&pool, &heap).is_some() {}
        let mut reclaimable = 0;
        while pool.acquire(0).is_some() {
            reclaimable += 1;
        }
        prop_assert!(reclaimable >= 15, "storage leak: only {reclaimable}/16 chunks free");
    }
}
