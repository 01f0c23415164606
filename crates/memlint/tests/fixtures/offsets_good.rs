//! Known-good fixture for `unchecked-offset-arithmetic`: the checked,
//! untainted, float-cast and reason-waived shapes must all stay silent.

pub fn carve(offset: u64, size: u64) -> Option<u64> {
    offset.checked_add(size)
}

pub fn scale(nbytes: u64) -> u64 {
    nbytes.saturating_mul(2)
}

pub fn page_base(page_idx: u64) -> Option<u64> {
    page_idx.checked_shl(12).map(|b| b)
}

pub fn untainted(a: u64, b: u64) -> u64 {
    a + b
}

pub fn fraction(size: u64) -> f64 {
    size as f64 / 2.0
}

pub fn bounded(off: u64, len: u64) -> u64 {
    // memlint: allow(unchecked-offset-arithmetic) — list invariant keeps off + len at or below the region top
    off + len
}
