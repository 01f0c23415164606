//! Runs one cell: set-up repetitions, the sanitized round, epochs of timed
//! rounds, and every output check in between.
//!
//! A *round* is one malloc launch then one free launch. The sample is the
//! time around one launch call divided by the allocations in it, so executor
//! overhead is inside the number; the clock is the calling thread's CPU
//! clock, with wall time beside it. Everything else — verification, manager
//! rebuilds, warm-up rounds — happens between the timed sections.

use crate::clock::{self, Stamp};
use crate::slots::Slots;
use crate::spans::Recorder;
use crate::stats::LogLinear;
use crate::sut::{self, BuildOpts, Counts, Dev, Handle, Heap, Ptr, Sampler, ThreadCtx, WarpCtx};
use crate::workloads::{mix, Cell, Decor, Role, Shape, Sizes, WARMUP_ROUNDS};

/// How many rounds of each sort a cell runs.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub setup_reps: u32,
    /// Timed rounds without per-call clocks, the end-to-end samples, as the
    /// `--seconds` table gives them; a cell runs [`Cell::rounds`] of them.
    pub rounds: u32,
    /// Likewise with per-call clock pairs (`--trace 1`).
    pub traced_rounds: u32,
    /// Untimed rounds on a counters-on replica (`--trace 1`).
    pub count_rounds: u32,
}

/// The samples of one phase (untraced or traced) of a cell.
#[derive(Clone, Default)]
pub struct Phase {
    /// CPU ns per allocation, one sample per round.
    pub malloc: Vec<f64>,
    /// CPU ns per deallocation, one sample per round; empty if the kind
    /// cannot free.
    pub free: Vec<f64>,
    /// CPU ns of the whole round (malloc launch + free launch).
    pub round: Vec<f64>,
    pub cpu_ns: u64,
    pub wall_ns: u64,
}

/// Per-call spans of the traced phase, folded.
#[derive(Clone, Default)]
pub struct OpSpans {
    pub malloc: LogLinear,
    pub free: LogLinear,
    /// Lanes the calls served (a warp call serves 32).
    pub malloc_lanes: u64,
    pub free_lanes: u64,
}

#[derive(Clone, Default)]
pub struct CellResult {
    pub name: String,
    pub kind: &'static str,
    pub crate_name: &'static str,
    pub role: Role,
    pub heap_bytes: u64,
    pub ops_per_launch: u32,
    pub can_free: bool,
    /// CPU seconds of each set-up repetition (reserve + pre-touch + build).
    pub setup_s: Vec<f64>,
    /// CPU milliseconds of the build alone in each repetition.
    pub init_ms: Vec<f64>,
    pub untraced: Phase,
    pub traced: Phase,
    pub ops: OpSpans,
    /// Counter deltas of the counting rounds.
    pub counts: Counts,
    pub epochs: u32,
    /// Highest returned offset + size.
    pub span_end: u64,
    /// Most bytes live at once.
    pub peak_live: u64,
    /// Hash of every pointer the timed rounds returned, in order.
    pub ptr_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub sanitizer_violations: u64,
    pub trace_recorded: u64,
    pub trace_dropped: u64,
    pub verify_ns: u64,
    /// What the output checks found wrong (capped).
    pub violations: Vec<String>,
}

impl CellResult {
    pub fn heap_span_ratio(&self) -> f64 {
        self.span_end as f64 / self.peak_live.max(1) as f64
    }

    fn violation(&mut self, what: String) {
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }
}

/// The calls one launch made, and the lanes each served.
#[derive(Clone, Copy)]
struct Calls {
    count: u32,
    lanes: u32,
}

impl Calls {
    fn of(shape: Shape) -> Calls {
        Calls { count: shape.calls(), lanes: shape.ops() / shape.calls() }
    }
}

/// Bytes of the head and of the tail of a block that carry the pattern.
const PATTERN: u64 = 8;

pub struct CellRunner<'a> {
    dev: &'a Dev,
    cell: &'a Cell,
    seed: u64,
    plan: Plan,
    sampler: Option<&'a Sampler>,
    ptrs: Slots<Ptr>,
    clocks: Slots<(u64, u64)>,
    /// (offset, size) scratch of the overlap check.
    extents: Vec<(u64, u64)>,
    live: u64,
    /// The cell's span, resumed for every epoch.
    span: usize,
    /// Timed rounds done in the untraced and in the traced phase.
    done: [u32; 2],
    out: CellResult,
}

/// The heaps the cells of a run share, by size: every cell of a panel has
/// the same heap size, and a manager is rebuilt at the start of every epoch
/// anyway, so one heap serves them all in turn.
#[derive(Default)]
pub struct HeapPool(Vec<Heap>);

impl HeapPool {
    fn get(&self, bytes: u64) -> &Heap {
        self.0.iter().find(|h| sut::heap_len(h) == bytes).expect("prepare() pooled this size")
    }

    fn offer(&mut self, heap: Heap) {
        if !self.0.iter().any(|h| sut::heap_len(h) == sut::heap_len(&heap)) {
            self.0.push(heap);
        }
    }
}

impl<'a> CellRunner<'a> {
    pub fn new(
        dev: &'a Dev,
        cell: &'a Cell,
        seed: u64,
        plan: Plan,
        sampler: Option<&'a Sampler>,
    ) -> Self {
        let ops = cell.shape.ops() as usize;
        CellRunner {
            dev,
            cell,
            seed,
            plan,
            sampler,
            ptrs: Slots::new(ops, sut::NULL),
            clocks: Slots::new(cell.shape.calls() as usize, (0, 0)),
            extents: Vec::with_capacity(ops),
            live: 0,
            span: 0,
            done: [0; 2],
            out: CellResult {
                name: cell.name(),
                kind: cell.kind.label(),
                crate_name: cell.kind.crate_name(),
                role: cell.role,
                heap_bytes: cell.heap_bytes,
                ops_per_launch: cell.shape.ops(),
                ..CellResult::default()
            },
        }
    }

    fn opts(&self) -> BuildOpts {
        match self.cell.decor {
            Decor::Plain => BuildOpts::default(),
            Decor::Cached => BuildOpts { cached: true, ..BuildOpts::default() },
            Decor::Observed => BuildOpts {
                trace_capacity: Some(self.cell.trace_capacity),
                sink: self.sampler.map(|s| s.sink().clone()),
                ..BuildOpts::default()
            },
        }
    }

    /// The decorators that change which pointers come back, and no others:
    /// what the sanitized and the counting replicas are built with.
    fn replica_opts(&self, metrics: bool) -> BuildOpts {
        BuildOpts { cached: self.cell.decor == Decor::Cached, metrics, ..BuildOpts::default() }
    }

    /// Set-up repetitions and the sanitized round. The last repetition's
    /// heap goes to the pool if the pool has none of its size yet.
    pub fn prepare(&mut self, rec: &mut Recorder, pool: &mut HeapPool) -> Result<(), String> {
        self.span = rec.open("cell", &self.out.name, clock::wall_ns());
        let (heap, first) = self.setup(rec)?;
        self.out.can_free = first.can_free();
        drop(first);
        self.sanitized_round(&heap)?;
        pool.offer(heap);
        rec.close(clock::wall_ns());
        Ok(())
    }

    /// The samples and everything else the cell found.
    pub fn finish(self) -> CellResult {
        self.out
    }

    /// `setup_reps` repetitions of heap reserve + pre-touch + build.
    fn setup(&mut self, rec: &mut Recorder) -> Result<(Heap, Handle), String> {
        let opts = self.opts();
        let mut kept = None;
        for rep in 0..self.plan.setup_reps.max(1) {
            // Every repetition starts as a fresh process would: the previous
            // heap and manager dropped and their memory back with the OS.
            // Under the sampler a dropped manager's trace rings are let go
            // by the sampler thread, at some point in its next 10 ms; cutting
            // a window waits for that.
            drop(kept.take());
            if let Some(sampler) = self.sampler {
                sampler.settle();
            }
            sut::release_freed_memory();
            let start = Stamp::now();
            rec.open("setup", rep, start.wall);
            let heap = sut::reserve_heap(self.cell.heap_bytes, true)?;
            let reserved = clock::thread_cpu_ns();
            let handle = sut::build(self.cell.kind, &heap, &opts)?;
            let (cpu, wall) = start.elapsed();
            rec.close(start.wall + wall);
            self.out.setup_s.push(cpu as f64 / 1e9);
            self.out.init_ms.push((start.cpu + cpu - reserved) as f64 / 1e6);
            kept = Some((heap, handle));
        }
        Ok(kept.expect("at least one repetition"))
    }

    /// One untimed round through `Sanitized`; it must report nothing.
    fn sanitized_round(&mut self, heap: &Heap) -> Result<(), String> {
        let inner = sut::build(self.cell.kind, heap, &self.replica_opts(false))?;
        let sanitized = inner.sanitized();
        let handle = sanitized.handle();
        let round_seed = self.seed ^ 0x5a17_12ed;
        self.untimed_round(&handle, round_seed);
        let violations = sanitized.violations();
        self.out.sanitizer_violations += violations;
        if violations > 0 {
            let what = format!("{}: sanitizer: {}", self.out.name, sanitized.describe());
            self.out.violation(what);
        }
        self.live = 0;
        Ok(())
    }

    /// Untimed rounds on a replica built with counters on (`--trace 1`).
    /// The inline device makes the replica's pointer stream the timed one's,
    /// so the counts are those of the first timed rounds, exactly, without
    /// the counters' cost in any timed sample.
    pub fn count(&mut self, pool: &HeapPool) -> Result<(), String> {
        let heap = pool.get(self.cell.heap_bytes);
        let handle = sut::build(self.cell.kind, heap, &self.replica_opts(true))?;
        self.live = 0;
        for warm in 0..WARMUP_ROUNDS {
            let warm_seed = self.seed ^ !u64::from(warm);
            self.untimed_round(&handle, warm_seed);
        }
        let before = handle.counts();
        for r in 0..self.plan.count_rounds.min(self.cell.epoch) {
            let round_seed = self.seed ^ u64::from(r);
            self.untimed_round(&handle, round_seed);
        }
        self.out.counts = handle.counts().since(&before);
        Ok(())
    }

    /// The next epoch of the untraced (`TRACED == false`) or traced phase: a
    /// manager rebuilt, untimed, over the pooled heap, then its timed
    /// rounds. Returns whether the phase had rounds left to run.
    ///
    /// The caller runs one epoch of every cell in turn, so a cell's samples
    /// come from stretches of the run far apart in time: a second of host
    /// interference then touches a few epochs of many cells and moves no
    /// cell's median, where it would move everything about the one cell
    /// that ran through it.
    pub fn epoch<const TRACED: bool>(
        &mut self,
        rec: &mut Recorder,
        pool: &HeapPool,
    ) -> Result<bool, String> {
        let table = if TRACED { self.plan.traced_rounds } else { self.plan.rounds };
        let rounds = if table == 0 { 0 } else { self.cell.rounds(table) };
        let done = self.done[usize::from(TRACED)];
        if done >= rounds {
            return Ok(false);
        }
        let epoch_len = self.cell.epoch_len(rounds);
        let epoch = done / epoch_len;
        let handle = sut::build(self.cell.kind, pool.get(self.cell.heap_bytes), &self.opts())?;
        self.live = 0;
        if TRACED {
            rec.resume(self.span, clock::wall_ns());
            rec.open("epoch", epoch, clock::wall_ns());
        }
        for warm in 0..WARMUP_ROUNDS {
            let warm_seed = self.seed ^ !u64::from(epoch * WARMUP_ROUNDS + warm);
            self.untimed_round(&handle, warm_seed);
        }
        for round in done..(done + epoch_len).min(rounds) {
            let round_seed = self.seed ^ u64::from(round);
            if TRACED {
                rec.open("round", round, clock::wall_ns());
            }
            self.round::<TRACED>(&handle, round_seed, true, rec);
            if TRACED {
                rec.close(clock::wall_ns());
            }
        }
        let done = (done + epoch_len).min(rounds);
        self.done[usize::from(TRACED)] = done;
        if let Some((recorded, dropped)) = handle.trace_events() {
            self.out.trace_recorded += recorded;
            self.out.trace_dropped += dropped;
            if dropped > 0 {
                let what = format!(
                    "{}: the trace ring dropped {dropped} events in timed rounds of epoch {epoch}",
                    self.out.name
                );
                self.out.violation(what);
            }
        }
        if done == rounds && self.out.can_free {
            // A full round succeeds again after everything was freed.
            self.untimed_round(&handle, self.seed ^ 0xfeed);
        }
        if TRACED {
            rec.close(clock::wall_ns());
            rec.close(clock::wall_ns());
        }
        self.out.epochs += 1;
        Ok(true)
    }

    #[inline]
    fn size_of(&self, round_seed: u64, lane: u32) -> u64 {
        match self.cell.sizes {
            Sizes::Fixed(s) => s,
            Sizes::Mixed { lo, hi } => sut::thread_size(round_seed, lane, lo, hi),
        }
    }

    /// A round that is verified and counted in `attempted`/`failed` but adds
    /// no sample and no span: warm-up, recheck, sanitized, counting.
    fn untimed_round(&mut self, h: &Handle, round_seed: u64) {
        self.round::<false>(h, round_seed, false, &mut Recorder::new(false, 0));
    }

    /// One round: malloc launch, checks, free launch. A `timed` round adds
    /// its samples to the phase `TRACED` names; an untimed one (warm-up,
    /// recheck, sanitized, counting) is still verified and still counted in
    /// `attempted`/`failed`.
    fn round<const TRACED: bool>(
        &mut self,
        h: &Handle,
        round_seed: u64,
        timed: bool,
        rec: &mut Recorder,
    ) {
        let ops = self.cell.shape.ops();

        // --- malloc launch (timed) -------------------------------------
        let start = Stamp::now();
        let calls = self.launch_malloc::<TRACED>(h, round_seed);
        let (m_cpu, m_wall) = start.elapsed();
        if TRACED {
            rec.open("launch.malloc", "", start.wall);
            self.fold_clocks(rec, "op.malloc", calls);
            rec.close(start.wall + m_wall);
        }

        // --- output checks (untimed) -----------------------------------
        let verify = clock::wall_ns();
        self.out.attempted += u64::from(ops);
        let round_bytes = self.check_and_tag(h, round_seed, timed);
        self.live += round_bytes;
        self.out.peak_live = self.out.peak_live.max(self.live);
        self.check_tags(h, round_seed);
        self.out.verify_ns += clock::wall_ns() - verify;

        // --- free launch (timed) ---------------------------------------
        let freeable = h.can_free();
        let (mut f_cpu, mut f_wall) = (0, 0);
        if freeable {
            self.out.attempted += u64::from(ops);
            let start = Stamp::now();
            let (calls, refused) = self.launch_free::<TRACED>(h);
            (f_cpu, f_wall) = start.elapsed();
            if TRACED {
                rec.open("launch.free", "", start.wall);
                self.fold_clocks(rec, "op.free", calls);
                rec.close(start.wall + f_wall);
            }
            self.out.failed += refused;
            self.live -= round_bytes;
        }

        if timed {
            let phase = if TRACED { &mut self.out.traced } else { &mut self.out.untraced };
            phase.malloc.push(m_cpu as f64 / f64::from(ops));
            if freeable {
                phase.free.push(f_cpu as f64 / f64::from(ops));
            }
            phase.round.push((m_cpu + f_cpu) as f64);
            phase.cpu_ns += m_cpu + f_cpu;
            phase.wall_ns += m_wall + f_wall;
        }
    }

    fn launch_malloc<const TRACED: bool>(&self, h: &Handle, round_seed: u64) -> Calls {
        let (ptrs, clocks) = (&self.ptrs, &self.clocks);
        match (self.cell.shape, self.cell.sizes) {
            (Shape::Threads { n }, Sizes::Fixed(size)) => self.dev.threads(n, |ctx: &ThreadCtx| {
                let i = ctx.thread_id as usize;
                let p = spanned::<TRACED, _>(clocks, i, || h.malloc(ctx, size));
                ptrs.set(i, p.unwrap_or(sut::NULL));
            }),
            (Shape::Threads { n }, Sizes::Mixed { lo, hi }) => {
                self.dev.threads(n, |ctx: &ThreadCtx| {
                    let i = ctx.thread_id as usize;
                    // Size generation is inside the timed launch, as in the
                    // repo's own mixed runner, but outside the per-call span.
                    let size = sut::thread_size(round_seed, ctx.thread_id, lo, hi);
                    let p = spanned::<TRACED, _>(clocks, i, || h.malloc(ctx, size));
                    ptrs.set(i, p.unwrap_or(sut::NULL));
                })
            }
            (Shape::Warps { warps }, sizes) => {
                let lanes = sut::WARP as usize;
                let sizes = [sizes.max(); sut::WARP as usize];
                self.dev.warps(warps, |w: &WarpCtx| {
                    let i = w.warp as usize;
                    let out = ptrs.range_mut(i * lanes, lanes);
                    // A failed collective call nulls every lane itself.
                    spanned::<TRACED, _>(clocks, i, || h.malloc_warp(w, &sizes, out));
                })
            }
        }
        Calls::of(self.cell.shape)
    }

    /// Returns the calls made and how many lanes' frees were refused.
    fn launch_free<const TRACED: bool>(&self, h: &Handle) -> (Calls, u64) {
        let (ptrs, clocks) = (&self.ptrs, &self.clocks);
        let refused = std::sync::atomic::AtomicU64::new(0);
        let note = |ok: bool, lanes: u64| {
            if !ok {
                refused.fetch_add(lanes, std::sync::atomic::Ordering::Relaxed);
            }
        };
        let lanes = sut::WARP as usize;
        let mut calls = Calls::of(self.cell.shape);
        match self.cell.shape {
            Shape::Threads { n } if h.warp_level_only() => {
                // FDGMalloc releases a warp's allocations wholesale; the
                // call counts its 32 lanes.
                calls = Calls { count: n.div_ceil(sut::WARP), lanes: sut::WARP };
                self.dev.warps(calls.count, |w: &WarpCtx| {
                    let ok = spanned::<TRACED, _>(clocks, w.warp as usize, || h.free_warp_all(w));
                    note(ok, lanes as u64);
                })
            }
            Shape::Threads { n } => self.dev.threads(n, |ctx: &ThreadCtx| {
                let i = ctx.thread_id as usize;
                let p = ptrs.get(i);
                if !p.is_null() {
                    note(spanned::<TRACED, _>(clocks, i, || h.free(ctx, p)), 1);
                }
            }),
            Shape::Warps { warps } if h.warp_level_only() => {
                self.dev.warps(warps, |w: &WarpCtx| {
                    let ok = spanned::<TRACED, _>(clocks, w.warp as usize, || h.free_warp_all(w));
                    note(ok, lanes as u64);
                })
            }
            Shape::Warps { warps } => self.dev.warps(warps, |w: &WarpCtx| {
                let i = w.warp as usize;
                let mine = ptrs.range_mut(i * lanes, lanes);
                note(spanned::<TRACED, _>(clocks, i, || h.free_warp(w, mine)), lanes as u64);
            }),
        }
        (calls, refused.into_inner())
    }

    /// Folds the launch's per-call clock pairs into one aggregate span and
    /// the cell's histogram.
    fn fold_clocks(&mut self, rec: &mut Recorder, name: &'static str, calls: Calls) {
        let (mut busy, mut first, mut last, mut count) = (0u64, u64::MAX, 0u64, 0u64);
        let ops = &mut self.out.ops;
        let (hist, lanes) = if name == "op.malloc" {
            (&mut ops.malloc, &mut ops.malloc_lanes)
        } else {
            (&mut ops.free, &mut ops.free_lanes)
        };
        for i in 0..calls.count as usize {
            let (t0, t1) = self.clocks.get(i);
            if t1 == 0 {
                continue; // the call was skipped (null pointer)
            }
            let d = t1 - t0;
            hist.record(d);
            busy += d;
            first = first.min(t0);
            last = last.max(t1);
            count += 1;
            self.clocks.set(i, (0, 0));
        }
        *lanes += count * u64::from(calls.lanes);
        if count > 0 {
            rec.leaves(name, count, busy, first, last);
        }
    }

    /// After the malloc launch: every pointer non-null, in bounds, aligned,
    /// disjoint from every other of the round; then the pattern goes into
    /// every block. Returns the bytes the round holds live.
    fn check_and_tag(&mut self, h: &Handle, round_seed: u64, hashed: bool) -> u64 {
        let ops = self.cell.shape.ops();
        let (heap_len, align) = (h.heap_len(), h.alignment());
        let mut bytes = 0u64;
        self.extents.clear();
        for lane in 0..ops {
            let p = self.ptrs.get(lane as usize);
            if hashed {
                self.out.ptr_hash = mix(self.out.ptr_hash ^ p.raw());
            }
            if p.is_null() {
                self.out.failed += 1;
                continue;
            }
            let (off, size) = (p.offset(), self.size_of(round_seed, lane));
            let end = off.saturating_add(size);
            if end > heap_len {
                let what = format!("{}: lane {lane}: {off}+{size} beyond heap", self.out.name);
                self.out.violation(what);
                self.ptrs.set(lane as usize, sut::NULL);
                self.out.failed += 1;
                continue;
            }
            if off % align != 0 {
                let what = format!("{}: lane {lane}: {off} not aligned to {align}", self.out.name);
                self.out.violation(what);
            }
            self.out.span_end = self.out.span_end.max(end);
            bytes += size;
            self.extents.push((off, size));
            let tag = tag_of(round_seed, lane);
            let k = size.min(PATTERN);
            h.fill(p, k, tag);
            h.fill(p.add(size - k), k, tag);
        }
        self.extents.sort_unstable();
        for pair in self.extents.windows(2) {
            if pair[0].0 + pair[0].1 > pair[1].0 {
                let what =
                    format!("{}: blocks {:?} and {:?} overlap", self.out.name, pair[0], pair[1]);
                self.out.violation(what);
                break;
            }
        }
        bytes
    }

    /// Before the free launch: every block still holds its pattern.
    fn check_tags(&mut self, h: &Handle, round_seed: u64) {
        for lane in 0..self.cell.shape.ops() {
            let p = self.ptrs.get(lane as usize);
            if p.is_null() {
                continue;
            }
            let (size, tag) = (self.size_of(round_seed, lane), tag_of(round_seed, lane));
            if h.read_u8(p, 0) != tag || h.read_u8(p, size - 1) != tag {
                let what = format!("{}: lane {lane}: pattern lost in {p:?}+{size}", self.out.name);
                self.out.violation(what);
                break;
            }
        }
    }
}

/// The byte a lane writes into its block this round (never 0, the value a
/// fresh heap holds).
#[inline]
fn tag_of(round_seed: u64, lane: u32) -> u8 {
    (mix(round_seed ^ (u64::from(lane) << 32)) as u8) | 1
}

/// Runs `f`; when `TRACED`, between two wall-clock reads that go into the
/// caller's own slot.
#[inline(always)]
fn spanned<const TRACED: bool, R>(
    clocks: &Slots<(u64, u64)>,
    slot: usize,
    f: impl FnOnce() -> R,
) -> R {
    if TRACED {
        let t0 = clock::wall_ns();
        let r = f();
        clocks.set(slot, (t0, clock::wall_ns()));
        r
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Scale, Workload};

    const PLAN: Plan = Plan { setup_reps: 1, rounds: 6, traced_rounds: 2, count_rounds: 2 };

    fn run_cell(workload: &str, index: usize, seed: u64) -> CellResult {
        let dev = Dev::inline();
        let w = Workload::by_name(workload, Scale::Tiny).unwrap();
        let mut rec = Recorder::new(true, clock::wall_ns());
        let mut pool = HeapPool::default();
        let mut runner = CellRunner::new(&dev, &w.cells[index], seed, PLAN, None);
        runner.prepare(&mut rec, &mut pool).unwrap();
        while runner.epoch::<false>(&mut rec, &pool).unwrap() {}
        while runner.epoch::<true>(&mut rec, &pool).unwrap() {}
        runner.count(&pool).unwrap();
        runner.finish()
    }

    #[test]
    fn same_seed_same_size_stream_and_pointer_hash() {
        let sizes = |seed| (0..64).map(|t| sut::thread_size(seed, t, 4, 4096)).collect::<Vec<_>>();
        assert_eq!(sizes(11), sizes(11));
        assert_ne!(sizes(11), sizes(12));
        assert!(sizes(11).iter().all(|s| (4..=4096).contains(s)));

        let (a, b, c) = (
            run_cell("mixed_plain", 0, 11),
            run_cell("mixed_plain", 0, 11),
            run_cell("mixed_plain", 0, 12),
        );
        assert_eq!(a.ptr_hash, b.ptr_hash);
        assert_eq!(a.heap_span_ratio(), b.heap_span_ratio());
        assert_eq!(a.counts, b.counts);
        assert_ne!(a.ptr_hash, c.ptr_hash, "another seed asks for other sizes");
        assert_ne!(a.ptr_hash, 0);
    }

    #[test]
    fn a_cell_passes_its_own_checks() {
        for (workload, index) in [("thread_fixed", 8), ("warp_fixed", 14), ("mixed_cached", 3)] {
            let r = run_cell(workload, index, 5);
            assert!(r.violations.is_empty(), "{}: {:?}", r.name, r.violations);
            assert_eq!(r.failed, 0, "{}", r.name);
            assert_eq!(r.sanitizer_violations, 0, "{}", r.name);
            let cell = &Workload::by_name(workload, Scale::Tiny).unwrap().cells[index];
            assert_eq!(r.untraced.malloc.len(), cell.rounds(6) as usize, "{}", r.name);
            assert_eq!(r.traced.malloc.len(), cell.rounds(2) as usize, "{}", r.name);
            assert!(r.can_free && r.untraced.free.len() == r.untraced.malloc.len(), "{}", r.name);
            assert!(r.ops.malloc.count() > 0 && r.ops.free.count() > 0, "{}", r.name);
            assert!(r.heap_span_ratio() >= 1.0, "{}", r.name);
            assert!(r.counts.malloc_calls > 0, "{}: counting rounds ran with counters on", r.name);
        }
    }

    #[test]
    fn an_overlap_and_a_lost_pattern_are_reported() {
        let dev = Dev::inline();
        let w = Workload::by_name("thread_fixed", Scale::Tiny).unwrap();
        let cell = &w.cells[0];
        let mut runner = CellRunner::new(&dev, cell, 1, PLAN, None);
        let heap = sut::reserve_heap(cell.heap_bytes, false).unwrap();
        let h = sut::build(cell.kind, &heap, &BuildOpts::default()).unwrap();
        runner.launch_malloc::<false>(&h, 1);
        // Hand lane 1 the block of lane 0.
        runner.ptrs.set(1, runner.ptrs.get(0));
        runner.check_and_tag(&h, 1, false);
        assert!(
            runner.out.violations.iter().any(|v| v.contains("overlap")),
            "{:?}",
            runner.out.violations
        );
        runner.check_tags(&h, 1);
        assert!(runner.out.violations.iter().any(|v| v.contains("pattern lost")));
    }
}
