//! Known-bad fixture for `unchecked-offset-arithmetic`: raw `+`/`*`/`<<` on
//! offset-tainted identifiers, exactly the shapes that wrap silently in
//! release builds.

pub fn carve(offset: u64, size: u64) -> u64 {
    offset + size
}

pub fn scale(nbytes: u64) -> u64 {
    nbytes * 2
}

pub fn page_base(page_idx: u64) -> u64 {
    page_idx << 12
}

pub fn guard(size: u64, len: u64) -> bool {
    size + 16 > len
}
