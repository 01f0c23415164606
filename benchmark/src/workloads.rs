//! The five workloads, their cells, and the `--seconds` → rounds table.
//!
//! A workload is a panel of *cells*; a cell is one manager kind at one size
//! parameter over its own heap. Work is fixed, not deadline-terminated:
//! `--seconds` picks a round count from [`ROUND_TABLE`], so at a given
//! `--seconds` and `--seed` the size streams, the pointer streams and every
//! count are exactly repeatable.

use crate::sut::{self, Kind};

/// Who calls the allocator in one launch.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `n` threads, each one `malloc` / one `free`.
    Threads { n: u32 },
    /// `warps` warps, each one `malloc_warp` / one `free_warp` of 32 lanes.
    Warps { warps: u32 },
}

impl Shape {
    /// `n` threads; one block of them under `--selftest`.
    pub fn threads(n: u32, scale: Scale) -> Shape {
        Shape::Threads { n: if scale == Scale::Full { n } else { 256 } }
    }

    /// Allocations one launch makes.
    pub fn ops(self) -> u32 {
        match self {
            Shape::Threads { n } => n,
            Shape::Warps { warps } => warps * sut::WARP,
        }
    }

    /// Calls one launch makes (a warp call serves 32 lanes).
    pub fn calls(self) -> u32 {
        match self {
            Shape::Threads { n } => n,
            Shape::Warps { warps } => warps,
        }
    }
}

/// What each lane asks for.
#[derive(Clone, Copy, Debug)]
pub enum Sizes {
    Fixed(u64),
    /// `sizes::thread_size(seed ^ round, tid, lo, hi)`.
    Mixed {
        lo: u64,
        hi: u64,
    },
}

impl Sizes {
    pub fn max(self) -> u64 {
        match self {
            Sizes::Fixed(s) => s,
            Sizes::Mixed { hi, .. } => hi,
        }
    }

    fn tag(self) -> String {
        match self {
            Sizes::Fixed(s) => format!("s{s}"),
            Sizes::Mixed { lo, hi } => format!("m{lo}-{hi}"),
        }
    }
}

/// The decorators a workload's managers are built with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decor {
    /// Undecorated registry handle.
    Plain,
    /// `.cached(true)`, one untimed warm-up round per epoch.
    Cached,
    /// `.trace_capacity(..).telemetry(&sink)` under a running sampler.
    Observed,
}

/// One (kind, parameter) pair.
#[derive(Clone, Debug)]
pub struct Cell {
    pub kind: Kind,
    pub shape: Shape,
    pub sizes: Sizes,
    pub decor: Decor,
    pub heap_bytes: u64,
    /// Rounds a manager lives before it is rebuilt over the same heap.
    pub epoch: u32,
    /// Events per SM of the trace ring of an `observed` manager.
    pub trace_capacity: usize,
    /// Timed rounds, in halves of what [`rounds_for`] gives.
    pub round_halves: u32,
    pub role: Role,
}

/// What a cell's samples feed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Role {
    /// A cell of the workload's panel: end-to-end and per-layer metrics.
    #[default]
    Panel,
    /// A 16 B probe of a crate the panel lacks: that crate's per-layer
    /// metrics only.
    CrateProbe,
    /// One half of the `mixed_plain` / `mixed_cached` pair behind the
    /// `cache.*` metrics, when the panel is not that half itself.
    CachePlain,
    CacheCached,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Panel => "panel",
            Role::CrateProbe => "crate-probe",
            Role::CachePlain => "cache-pair-plain",
            Role::CacheCached => "cache-pair-cached",
        }
    }
}

/// Longest life of a manager, in rounds.
pub const MAX_EPOCH: u32 = 50;

/// Fewest epochs a cell's timed rounds are split into.
pub const MIN_EPOCHS: u32 = 8;

/// Untimed rounds at the start of every epoch. A rebuilt manager's first
/// round runs on cold metadata and its second is the first to reuse freed
/// blocks (Reg-Eff-CM: 43, then 223, then 27 ns per malloc); with eight
/// epochs those two would be a twelfth of a cell's samples, right where p90
/// looks. The warm-up rounds use seeds no timed round uses, so under
/// `Cached` the magazines pay off by class, not by size identity.
pub const WARMUP_ROUNDS: u32 = 2;

/// Rounds the trace ring of an `observed` manager holds: the warm-up
/// rounds, the timed rounds of an epoch, and the round that rechecks the
/// manager after the last epoch. A timed round never meets a full ring; the
/// runner asserts it. (A ring is 6 MiB per round it holds, initialised at
/// every rebuild: `--selftest` keeps it to six rounds.)
const OBSERVED_RING_ROUNDS: u32 = 16;
const OBSERVED_RING_ROUNDS_TINY: u32 = 6;

impl Cell {
    pub fn new(kind: Kind, shape: Shape, sizes: Sizes, decor: Decor, scale: Scale) -> Cell {
        // The repo's own sizing; twice that for changing size mixes, where
        // Reg-Eff's chunk lists otherwise start refusing after ~50 rounds.
        // (`--selftest` reserves a quarter of the sizing's 64 MiB floor:
        // with less than 2 x 32 MiB Halloc runs out of slabs for the mix.)
        let base = match scale {
            Scale::Full => sut::heap_for(shape.ops(), sizes.max()),
            Scale::Tiny => 16 << 20,
        };
        let mixed = matches!(sizes, Sizes::Mixed { .. });
        let heap_bytes = match (mixed, scale) {
            (false, _) => base,
            (true, Scale::Full) => 2 * base,
            (true, Scale::Tiny) => 4 * base,
        };
        let survives = if kind.is_atomic() {
            // No free: the bump pointer may use half the heap for timed
            // rounds (the warm-up rounds fit in the other half), then the
            // manager is rebuilt.
            (heap_bytes / (u64::from(shape.ops()) * sizes.max().max(16)) / 2).max(1) as u32
        } else {
            MAX_EPOCH
        };
        let ring_rounds = match scale {
            Scale::Full => OBSERVED_RING_ROUNDS,
            Scale::Tiny => OBSERVED_RING_ROUNDS_TINY,
        };
        let ring =
            if decor == Decor::Observed { ring_rounds - WARMUP_ROUNDS - 1 } else { MAX_EPOCH };
        let epoch = survives.min(ring).min(MAX_EPOCH);
        let trace_capacity = ring_rounds as usize * sut::TRACE_EVENTS_PER_ROUND;
        // A cell has to last long enough that a burst of host interference
        // (tens of milliseconds on the sandbox) stays under the tenth of its
        // rounds that p90 looks at. Warp rounds are short and mixed rounds
        // shorter: they get more of them. CUDA-Allocator's list walks make
        // its round ten to thirty times longer than any other kind's: it
        // gets half, which at `run_seconds` still leaves p90 its ten samples.
        let workload_halves = match (shape, mixed) {
            (Shape::Threads { .. }, false) => 2,
            (Shape::Warps { .. }, _) => 3,
            (Shape::Threads { .. }, true) => 4,
        };
        let round_halves = if kind.is_cuda() { workload_halves / 2 } else { workload_halves };
        Cell {
            kind,
            shape,
            sizes,
            decor,
            heap_bytes,
            epoch,
            trace_capacity,
            round_halves,
            role: Role::Panel,
        }
    }

    /// The same cell as a probe: it feeds `role`'s per-layer metrics only,
    /// which are medians of a few dozen rounds, so it runs half the table's
    /// rounds whatever its shape.
    pub fn with_role(mut self, role: Role) -> Cell {
        self.role = role;
        self.round_halves = 1;
        self
    }

    /// The cell's share of `table_rounds` (what [`rounds_for`] gives).
    pub fn rounds(&self, table_rounds: u32) -> u32 {
        (table_rounds * self.round_halves / 2).max(1)
    }

    /// Rounds per epoch when the phase has `rounds`: a cell's rounds come in
    /// at least [`MIN_EPOCHS`] stretches, so that no stretch is more than an
    /// eighth of its samples.
    pub fn epoch_len(&self, rounds: u32) -> u32 {
        self.epoch.min(rounds.div_ceil(MIN_EPOCHS)).max(1)
    }

    /// `Ouro-S-P/s16`, `Halloc/m4-4096`, …
    pub fn name(&self) -> String {
        format!("{}/{}", self.kind.label(), self.sizes.tag())
    }
}

/// How large the panel's launches are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The gated sizes.
    Full,
    /// `--selftest`: tiny launches, every check on.
    Tiny,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub decor: Decor,
    pub cells: Vec<Cell>,
}

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] =
    ["thread_fixed", "warp_fixed", "mixed_plain", "mixed_cached", "observed"];

/// Lowest and highest size of the mixed workloads (Fig. 9h's widest cached
/// range: everything up to `core::cache`'s largest class).
pub const MIXED: Sizes = Sizes::Mixed { lo: 4, hi: 4096 };

impl Workload {
    pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
        let full = scale == Scale::Full;
        let threads = |n| Shape::threads(n, scale);
        let panel = |kinds: Vec<Kind>, shape: Shape, sizes: &[Sizes], decor: Decor| {
            sizes
                .iter()
                .flat_map(|&s| kinds.iter().map(move |&k| Cell::new(k, shape, s, decor, scale)))
                .collect::<Vec<_>>()
        };
        let without_atomic =
            || sut::default_kinds().into_iter().filter(|k| !k.is_atomic()).collect::<Vec<_>>();
        let (why, decor, cells) = match name {
            "thread_fixed" => (
                "Fig. 9a-f: 15 kinds x {16, 512} B, one malloc and one free per thread, no \
                 decorator; the allocator crates do nearly all the work",
                Decor::Plain,
                panel(
                    sut::default_kinds(),
                    threads(8192),
                    &[Sizes::Fixed(16), Sizes::Fixed(512)],
                    Decor::Plain,
                ),
            ),
            "warp_fixed" => (
                "Fig. 9g: all 16 kinds through malloc_warp/free_warp, 32 lanes x 64 B; the \
                 collective entry points and their coalescing overrides",
                Decor::Plain,
                panel(
                    sut::all_kinds(),
                    Shape::Warps { warps: if full { 512 } else { 8 } },
                    &[Sizes::Fixed(64)],
                    Decor::Plain,
                ),
            ),
            "mixed_plain" => (
                "Fig. 9h: per-thread sizes 4-4096 B that change every round; class switching, \
                 large-block paths, fragmentation across rounds; bypasses core::cache",
                Decor::Plain,
                panel(sut::default_kinds(), threads(2048), &[MIXED], Decor::Plain),
            ),
            "mixed_cached" => (
                "the mixed_plain cells behind Cached magazines: core::cache serves the hits, \
                 the manager sees only misses",
                Decor::Cached,
                panel(without_atomic(), threads(2048), &[MIXED], Decor::Cached),
            ),
            "observed" => (
                "15 kinds at 16 B with trace ring, counters and a 100 Hz telemetry sampler: \
                 the observability layers do most of the work",
                Decor::Observed,
                panel(sut::default_kinds(), threads(4096), &[Sizes::Fixed(16)], Decor::Observed),
            ),
            _ => return None,
        };
        let name = NAMES.iter().find(|n| **n == name).expect("matched above");
        Some(Workload { name, why, decor, cells })
    }

    /// Crates none of the workload's cells exercise; their per-layer numbers
    /// come from 16 B probe cells.
    pub fn missing_crates(&self) -> Vec<&'static str> {
        sut::CRATES
            .iter()
            .copied()
            .filter(|c| !self.cells.iter().any(|cell| cell.kind.crate_name() == *c))
            .collect()
    }
}

/// `--seconds` → timed rounds per cell: the last row whose first column is
/// at most `--seconds`. 25 rounds a second was calibrated on the sandbox so
/// that `thread_fixed`, the longest workload, measures for about `--seconds`;
/// from 8 s on p90 has its ten samples beyond it twice over.
pub const ROUND_TABLE: [(u32, u32); 12] = [
    (1, 25),
    (2, 50),
    (3, 75),
    (4, 100),
    (6, 150),
    (8, 200),
    (12, 300),
    (16, 400),
    (24, 600),
    (32, 800),
    (48, 1200),
    (60, 1500),
];

pub fn rounds_for(seconds: u32) -> u32 {
    ROUND_TABLE
        .iter()
        .rev()
        .find(|(s, _)| *s <= seconds)
        .map(|(_, rounds)| *rounds)
        .unwrap_or(ROUND_TABLE[0].1)
}

/// SplitMix64: the benchmark's own generator for the cell shuffle (the size
/// streams come from the repo's `sizes::thread_size`).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates order of `n` items for `seed`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_map_to_rounds_by_the_table() {
        assert_eq!(rounds_for(0), 25);
        assert_eq!(rounds_for(1), 25);
        assert_eq!(rounds_for(5), 100);
        assert_eq!(rounds_for(8), 200);
        assert_eq!(rounds_for(10), 200);
        assert_eq!(rounds_for(12), 300);
        assert_eq!(rounds_for(60), 1500);
        assert_eq!(rounds_for(1000), 1500);
        assert!(ROUND_TABLE.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
    }

    #[test]
    fn short_rounds_get_more_of_them_and_cuda_half() {
        let rounds = |workload, label: &str| {
            let w = Workload::by_name(workload, Scale::Full).unwrap();
            w.cells.iter().find(|c| c.kind.label() == label).unwrap().rounds(rounds_for(8))
        };
        assert_eq!(rounds("thread_fixed", "Halloc"), 200);
        assert_eq!(rounds("thread_fixed", "CUDA-Allocator"), 100);
        assert_eq!(rounds("warp_fixed", "FDGMalloc"), 300);
        assert_eq!(rounds("warp_fixed", "CUDA-Allocator"), 100);
        assert_eq!(rounds("mixed_cached", "XMalloc"), 400);
        assert_eq!(rounds("observed", "Atomic"), 200);
        // p90 keeps its ten samples beyond it everywhere at `run_seconds`.
        for name in NAMES {
            for cell in Workload::by_name(name, Scale::Full).unwrap().cells {
                assert!(crate::stats::supports_percentile(cell.rounds(200) as usize, 0.90));
            }
        }
    }

    #[test]
    fn panels_have_the_cells_the_issue_names() {
        let count = |name| Workload::by_name(name, Scale::Full).unwrap().cells.len();
        assert_eq!(count("thread_fixed"), 30);
        assert_eq!(count("warp_fixed"), 16);
        assert_eq!(count("mixed_plain"), 15);
        assert_eq!(count("mixed_cached"), 14);
        assert_eq!(count("observed"), 15);
        assert!(Workload::by_name("dyn_graph", Scale::Full).is_none());
        for name in NAMES {
            let w = Workload::by_name(name, Scale::Full).unwrap();
            assert_eq!(w.name, name);
            assert!(w.why.len() <= 200, "{name}: why is one line of at most 200 characters");
            let names: std::collections::BTreeSet<_> = w.cells.iter().map(Cell::name).collect();
            assert_eq!(names.len(), w.cells.len(), "{name}: cell names are unique");
        }
    }

    #[test]
    fn crates_a_workload_lacks_get_probe_cells() {
        let w = |name| Workload::by_name(name, Scale::Full).unwrap();
        assert_eq!(w("thread_fixed").missing_crates(), ["alloc-fdg"]);
        assert!(w("warp_fixed").missing_crates().is_empty());
        assert_eq!(w("mixed_cached").missing_crates(), ["alloc-atomic", "alloc-fdg"]);
    }

    #[test]
    fn epochs_respect_what_a_manager_survives() {
        let w = Workload::by_name("observed", Scale::Full).unwrap();
        for cell in &w.cells {
            let rounds_in_ring = cell.trace_capacity / sut::TRACE_EVENTS_PER_ROUND;
            assert!((cell.epoch as usize) < rounds_in_ring, "{}", cell.name());
            assert_eq!(cell.epoch, 13, "{}", cell.name());
        }
        // Atomic cannot free: 8192 x 512 B is 4 MiB a round of a 64 MiB heap.
        let w = Workload::by_name("thread_fixed", Scale::Full).unwrap();
        let atomic = w.cells.iter().filter(|c| c.kind.is_atomic()).map(|c| c.epoch);
        assert_eq!(atomic.collect::<Vec<_>>(), [50, 8]);
        let w = Workload::by_name("mixed_plain", Scale::Full).unwrap();
        assert!(w.cells.iter().all(|c| c.epoch <= MAX_EPOCH));
        // Mixed sizes get twice the repo's sizing.
        assert_eq!(w.cells[0].heap_bytes, 2 * sut::heap_for(2048, 4096));
    }

    #[test]
    fn shuffle_is_a_permutation_fixed_by_the_seed() {
        let a = shuffled(30, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
        assert_eq!(a, shuffled(30, 7));
        assert_ne!(a, shuffled(30, 8));
        assert_eq!(shuffled(1, 3), [0]);
        assert!(shuffled(0, 3).is_empty());
    }
}
