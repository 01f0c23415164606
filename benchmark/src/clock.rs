//! The two clocks of the benchmark.
//!
//! Gated samples are taken on the calling thread's CPU clock: the inline
//! device runs the whole kernel on that thread, so its CPU time is the work
//! and excludes what the host steals from a 2-vCPU sandbox. Wall time is
//! recorded beside every sample so the results show how much was stolen.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

#[inline]
fn read(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on the
    // 64-bit Linux targets the repo supports) and both clock ids exist on
    // every Linux kernel since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Nanoseconds of CPU time the calling thread has consumed.
#[inline]
pub fn thread_cpu_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// Nanoseconds of monotonic wall time.
#[inline]
pub fn wall_ns() -> u64 {
    read(CLOCK_MONOTONIC)
}

/// Name of the clock gated samples are taken on, for the results file.
pub const GATED_CLOCK: &str = "CLOCK_THREAD_CPUTIME_ID";

/// A (cpu, wall) reading.
#[derive(Clone, Copy)]
pub struct Stamp {
    pub cpu: u64,
    pub wall: u64,
}

impl Stamp {
    #[inline]
    pub fn now() -> Stamp {
        Stamp { wall: wall_ns(), cpu: thread_cpu_ns() }
    }

    /// (cpu, wall) nanoseconds since `self`.
    #[inline]
    pub fn elapsed(&self) -> (u64, u64) {
        let cpu = thread_cpu_ns();
        let wall = wall_ns();
        (cpu - self.cpu, wall - self.wall)
    }
}
