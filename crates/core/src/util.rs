//! Small shared helpers: alignment math, mixing hashes, a deterministic
//! per-thread RNG (GPU threads have no `rand`; the originals use hand-rolled
//! LCGs/xorshifts, and determinism keeps every benchmark reproducible).

/// Rounds `v` up to the next multiple of `align` (power of two).
#[inline]
pub const fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

/// Rounds `v` down to a multiple of `align` (power of two).
#[inline]
pub const fn align_down(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    v & !(align - 1)
}

/// Next power of two ≥ `v` (with `next_pow2(0) == 1`).
///
/// Values above `1 << 63` have no representable next power of two; use
/// [`checked_next_pow2`] where the input is demand-derived and can reach
/// that range (matrix-scale allocation counts multiplied by sizes).
#[inline]
pub const fn next_pow2(v: u64) -> u64 {
    if v <= 1 {
        1
    } else {
        1u64 << (64 - (v - 1).leading_zeros())
    }
}

/// Next power of two ≥ `v`, or `None` when `v > 1 << 63` (the shift in
/// [`next_pow2`] would overflow — debug-panic or silently wrap to 0 in
/// release, under-provisioning whatever heap was being sized).
#[inline]
pub const fn checked_next_pow2(v: u64) -> Option<u64> {
    if v > 1u64 << 63 {
        None
    } else {
        Some(next_pow2(v))
    }
}

/// SplitMix64 finalizer — a cheap, high-quality 64-bit mixer. Used wherever
/// an allocator hashes ids or sizes into table positions.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Division and remainder by a divisor fixed once, with multiplications
/// instead of a `div` instruction. The divisor's reciprocal
/// `m = ⌈2¹²⁸ / d⌉` makes both exact for every `u64` numerator (Lemire,
/// Kaser and Kurz, "Faster remainder by direct computation", 2019: exact
/// whenever the fraction has as many bits as numerator and divisor
/// together). A dependent 64-bit `div` costs ~8 ns on an x86_64 host; this
/// is four multiplications.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// `⌈2¹²⁸ / d⌉`, which wraps to 0 for `d = 1`.
    m: u128,
}

impl Divisor {
    /// The reciprocal of `d`.
    ///
    /// # Panics
    ///
    /// When `d` is 0.
    pub const fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        Divisor { d, m: (u128::MAX / d as u128).wrapping_add(1) }
    }

    /// `n / d`.
    #[inline]
    pub const fn div(self, n: u64) -> u64 {
        if self.m == 0 {
            n // d = 1, whose reciprocal is 2¹²⁸
        } else {
            mul_hi(self.m, n)
        }
    }

    /// `n % d`: the fraction `m · n mod 2¹²⁸`, scaled back up by `d`.
    #[inline]
    pub const fn rem(self, n: u64) -> u64 {
        mul_hi(self.m.wrapping_mul(n as u128), self.d)
    }
}

/// `⌊x · y / 2¹²⁸⌋`, from two 64 × 64-bit products.
#[inline]
const fn mul_hi(x: u128, y: u64) -> u64 {
    let low = (x as u64 as u128 * y as u128) >> 64;
    let high = (x >> 64) * y as u128;
    ((high + low) >> 64) as u64
}

/// A tiny xorshift64* PRNG: the per-device-thread random source.
///
/// Seeded from the thread id, it gives every simulated thread its own
/// reproducible stream — this is how the mixed-allocation (Fig. 9h) and
/// work-generation (Fig. 11c/d) test cases pick per-thread sizes.
#[derive(Clone, Debug)]
pub struct DeviceRng {
    state: u64,
}

impl DeviceRng {
    /// Creates an RNG whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point and decorrelate adjacent seeds.
        DeviceRng { state: mix64(seed).max(1) }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[lo, hi]` (inclusive). `lo <= hi` required.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo + 1;
        lo + self.next_u64() % span
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_cases() {
        assert_eq!(align_up(0, 16), 0);
        assert_eq!(align_up(1, 16), 16);
        assert_eq!(align_up(16, 16), 16);
        assert_eq!(align_up(17, 16), 32);
    }

    #[test]
    fn align_down_cases() {
        assert_eq!(align_down(0, 16), 0);
        assert_eq!(align_down(15, 16), 0);
        assert_eq!(align_down(16, 16), 16);
        assert_eq!(align_down(31, 16), 16);
    }

    #[test]
    fn next_pow2_cases() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4), 4);
        assert_eq!(next_pow2(4097), 8192);
        assert_eq!(next_pow2(1 << 40), 1 << 40);
    }

    #[test]
    fn checked_next_pow2_boundaries() {
        assert_eq!(checked_next_pow2(0), Some(1));
        assert_eq!(checked_next_pow2(1 << 63), Some(1 << 63));
        assert_eq!(checked_next_pow2((1 << 63) + 1), None);
        assert_eq!(checked_next_pow2(u64::MAX), None);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = DeviceRng::new(42);
        let mut b = DeviceRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_streams_differ_between_seeds() {
        let mut a = DeviceRng::new(1);
        let mut b = DeviceRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn rng_range_inclusive_bounds() {
        let mut r = DeviceRng::new(7);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range_u64(4, 8);
            assert!((4..=8).contains(&v));
            seen_lo |= v == 4;
            seen_hi |= v == 8;
        }
        assert!(seen_lo && seen_hi, "range must reach both bounds");
    }

    #[test]
    fn rng_f64_in_unit_interval() {
        let mut r = DeviceRng::new(9);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn mix64_spreads_small_inputs() {
        // Adjacent inputs should differ in many bits (avalanche sanity check).
        let d = (mix64(1) ^ mix64(2)).count_ones();
        assert!(d > 16, "poor avalanche: {d} differing bits");
    }

    #[test]
    fn divisor_matches_hardware_division() {
        let mut r = DeviceRng::new(3);
        let mut divisors = vec![1, 2, 3, 7, 16, 24, 341, 4096, 1 << 32, u64::MAX - 1, u64::MAX];
        divisors.extend((0..64).map(|_| r.next_u64() >> (r.next_u64() % 64)).filter(|&d| d > 0));
        for d in divisors {
            let div = Divisor::new(d);
            let mut numerators = vec![0, 1, d - 1, d, d.saturating_add(1), u64::MAX - 1, u64::MAX];
            numerators.extend((0..256).map(|_| r.next_u64()));
            numerators.extend((0..64).map(|k| d.wrapping_mul(k).wrapping_add(k % 2)));
            for n in numerators {
                assert_eq!(div.div(n), n / d, "{n} / {d}");
                assert_eq!(div.rem(n), n % d, "{n} % {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divisor_rejects_zero() {
        let _ = Divisor::new(0);
    }
}
