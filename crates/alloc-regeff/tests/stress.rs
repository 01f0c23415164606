//! Four OS threads of mixed-size alloc / hold / free on one small heap, every
//! payload byte written and read back before its block is freed.
//!
//! The heap is 16 MiB for at most 4 × 32 live blocks of ≤ 4 KiB: any
//! `OutOfMemory` or `Contention` is the list walk giving up on a nearly empty
//! heap, not exhaustion. A quarter of the blocks are zero-filled — the
//! payload that reads as a free header with a valid link, should a stale
//! cursor ever land in it. 20 000 ops per thread in a debug run, 200 000 in
//! the release run of `scripts/check.sh`.

use alloc_regeff::{RegEffC, RegEffCF, RegEffCFM, RegEffCM};
use gpumem_core::util::DeviceRng;
use gpumem_core::{AllocError, DeviceAllocator, DevicePtr, ThreadCtx};

const HEAP: u64 = 16 << 20;
const SMS: u32 = 8;
const THREADS: u32 = 4;
const OPS: u32 = if cfg!(debug_assertions) { 20_000 } else { 200_000 };
const HELD: usize = 32;

/// What went wrong, summed over the threads; all zero on a clean run.
#[derive(Debug, Default, PartialEq)]
struct Tally {
    contention: u32,
    oom: u32,
    other_errors: u32,
    mismatched_blocks: u32,
    failed_frees: u32,
}

struct Block {
    ptr: DevicePtr,
    size: u64,
    tag: u8,
}

fn verify_and_free(alloc: &dyn DeviceAllocator, ctx: &ThreadCtx, b: Block, tally: &mut Tally) {
    let mut payload = vec![!b.tag; b.size as usize];
    alloc.heap().read_bytes(b.ptr, &mut payload);
    tally.mismatched_blocks += u32::from(payload.iter().any(|&byte| byte != b.tag));
    tally.failed_frees += u32::from(alloc.free(ctx, b.ptr).is_err());
}

fn worker(alloc: &dyn DeviceAllocator, t: u32) -> Tally {
    // One block, hence one SM and one roving offset, per OS thread.
    let ctx = ThreadCtx::from_linear(t * 256, 256, SMS);
    let mut rng = DeviceRng::new(0x5eed ^ u64::from(t));
    let mut held: Vec<Block> = Vec::with_capacity(HELD + 1);
    let mut tally = Tally::default();
    for op in 0..OPS {
        let size = rng.range_u64(4, 4096);
        let tag = if op % 4 == 0 { 0 } else { (op % 255) as u8 + 1 };
        match alloc.malloc(&ctx, size) {
            Ok(ptr) => {
                alloc.heap().fill(ptr, size, tag);
                held.push(Block { ptr, size, tag });
            }
            Err(AllocError::Contention(_)) => tally.contention += 1,
            Err(AllocError::OutOfMemory(_)) => tally.oom += 1,
            Err(_) => tally.other_errors += 1,
        }
        if held.len() > HELD {
            let victim = held.swap_remove(rng.range_u64(0, HELD as u64) as usize);
            verify_and_free(alloc, &ctx, victim, &mut tally);
        }
    }
    for b in held {
        verify_and_free(alloc, &ctx, b, &mut tally);
    }
    tally
}

fn stress(alloc: impl DeviceAllocator) {
    let alloc: &dyn DeviceAllocator = &alloc;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS).map(|t| s.spawn(move || worker(alloc, t))).collect();
        for (t, w) in workers.into_iter().enumerate() {
            let tally = w.join().expect("worker panicked");
            assert_eq!(tally, Tally::default(), "thread {t} of {THREADS}, {OPS} ops each");
        }
    });
}

#[test]
fn regeff_c_every_byte_survives_four_threads() {
    stress(RegEffC::with_capacity(HEAP, SMS));
}

#[test]
fn regeff_cf_every_byte_survives_four_threads() {
    stress(RegEffCF::with_capacity(HEAP, SMS));
}

#[test]
fn regeff_cm_every_byte_survives_four_threads() {
    stress(RegEffCM::with_capacity(HEAP, SMS));
}

#[test]
fn regeff_cfm_every_byte_survives_four_threads() {
    stress(RegEffCFM::with_capacity(HEAP, SMS));
}
