//! Cooperative-scheduling model-checker runtime.
//!
//! One OS thread per model thread, exactly one runnable at a time via a
//! mutex/condvar baton. Scheduling decisions form a path; [`model`] explores
//! the path space depth-first with deterministic replay of shared prefixes.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

const DEFAULT_MAX_PREEMPTIONS: usize = 2;
const DEFAULT_MAX_STEPS: usize = 40_000;
const DEFAULT_MAX_ITERATIONS: usize = 1_000_000;

/// Panic payload used to unwind model threads when the execution aborts
/// (another thread hit a bug, or the step cap tripped). The thread wrapper
/// recognises and swallows it; only the *original* failure propagates.
struct AbortToken;

fn env_limit(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Runnable,
    /// Blocked joining the thread with this id.
    Joining(usize),
    Finished,
}

/// One recorded scheduling decision.
struct Choice {
    /// Threads that were eligible at this point, in exploration order.
    candidates: Vec<usize>,
    /// Index into `candidates` currently being explored.
    selected: usize,
    /// The thread that was running *and still runnable* when the decision
    /// was taken (`None` for voluntary handoffs: yields, blocks, exits).
    /// Selecting a different thread than this one costs a preemption.
    current: Option<usize>,
}

struct State {
    threads: Vec<Run>,
    active: usize,
    finished: usize,
    path: Vec<Choice>,
    cursor: usize,
    preemptions: usize,
    steps: usize,
    abort: Option<Box<dyn Any + Send>>,
    max_preemptions: usize,
    max_steps: usize,
}

struct Scheduler {
    state: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

fn current_ctx() -> Option<(Arc<Scheduler>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

impl Scheduler {
    fn new(path: Vec<Choice>, max_preemptions: usize, max_steps: usize) -> Self {
        Scheduler {
            state: Mutex::new(State {
                threads: vec![Run::Runnable],
                active: 0,
                finished: 0,
                path,
                cursor: 0,
                preemptions: 0,
                steps: 0,
                abort: None,
                max_preemptions,
                max_steps,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A poisoned scheduler mutex means a panic escaped the runtime's own
        // bookkeeping (model panics are caught before reaching it); the
        // state is still coherent enough to keep unwinding.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Abort the execution with `payload` (first abort wins).
    fn set_abort(&self, payload: Box<dyn Any + Send>) {
        let mut st = self.lock();
        if st.abort.is_none() {
            st.abort = Some(payload);
        }
        self.cv.notify_all();
    }

    /// Pick the next thread at a scheduling point and hand the baton over.
    ///
    /// `me` is the deciding thread; `runnable_me` says whether it remains
    /// eligible (false for blocks/exits), `yield_point` steps it aside when
    /// a peer is runnable. Returns without blocking when `me` keeps running.
    fn schedule(
        &self,
        mut st: MutexGuard<'_, State>,
        me: usize,
        runnable_me: bool,
        yield_point: bool,
    ) {
        if st.abort.is_some() {
            drop(st);
            abort_unwind();
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let msg = format!(
                "loom: execution exceeded {} scheduling steps (LOOM_MAX_STEPS) — \
                 likely livelock or unmodelled blocking under this schedule",
                st.max_steps
            );
            st.abort = Some(Box::new(msg));
            self.cv.notify_all();
            drop(st);
            abort_unwind();
        }
        debug_assert_eq!(st.active, me, "only the active thread may reach a scheduling point");

        let next = if st.cursor < st.path.len() {
            // Replay: preserve the recorded decision; recompute preemption
            // accounting so bound checks stay consistent past the prefix.
            let c = &st.path[st.cursor];
            let next = c.candidates[c.selected];
            if let Some(cur) = c.current {
                if next != cur {
                    st.preemptions += 1;
                }
            }
            next
        } else {
            // Fresh decision: enumerate candidates in exploration order.
            let mut candidates: Vec<usize> = Vec::new();
            if runnable_me && !yield_point {
                // Depth-first bias: "keep running" is explored first, so the
                // zero-preemption schedule is the first full execution.
                candidates.push(me);
            }
            // Peers in round-robin order starting after `me` — NOT ascending
            // thread id. With three or more threads, ascending order lets two
            // spinners yield to each other forever (0→1, 1→0) while the
            // thread that would unblock them starves; rotation makes every
            // all-fresh suffix a fair schedule, so spin loops always make
            // global progress on the first execution of each backtrack.
            for off in 1..st.threads.len() {
                let t = (me + off) % st.threads.len();
                if st.threads[t] == Run::Runnable && t != me {
                    candidates.push(t);
                }
            }
            if candidates.is_empty() {
                if runnable_me {
                    // Yield point with no peer: keep spinning alone.
                    candidates.push(me);
                } else if st.finished == st.threads.len() {
                    // Execution complete; wake the orchestrator.
                    self.cv.notify_all();
                    return;
                } else {
                    let blocked: Vec<String> = st
                        .threads
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| matches!(r, Run::Joining(_)))
                        .map(|(t, r)| format!("thread {t} {r:?}"))
                        .collect();
                    let msg =
                        format!("loom: deadlock — no runnable thread ({})", blocked.join(", "));
                    st.abort = Some(Box::new(msg));
                    self.cv.notify_all();
                    return;
                }
            }
            let current = if runnable_me && !yield_point { Some(me) } else { None };
            // Preemption bound: once spent, an involuntarily-switchable
            // thread must keep running.
            let bounded = current.is_some() && st.preemptions >= st.max_preemptions;
            if bounded {
                candidates = vec![me];
            } else if yield_point && candidates.len() > 1 {
                // Yields are voluntary, so they sit outside the preemption
                // bound — branching on *which* peer runs would make every
                // spin iteration a fork and blow the path space up
                // exponentially (CHESS keeps non-preemptive points
                // deterministic for the same reason). The fair rotation
                // above decides; interleaving diversity comes from the
                // preemption-bounded branching at atomic-op points.
                candidates.truncate(1);
            }
            let next = candidates[0];
            if let Some(cur) = current {
                if next != cur {
                    st.preemptions += 1;
                }
            }
            st.path.push(Choice { candidates, selected: 0, current });
            next
        };
        st.cursor += 1;
        st.active = next;
        if next != me {
            self.cv.notify_all();
            if runnable_me {
                self.wait_for_turn(st, me);
            }
        }
    }

    /// Block until `me` holds the baton (or the execution aborts).
    fn wait_for_turn(&self, mut st: MutexGuard<'_, State>, me: usize) {
        loop {
            if st.abort.is_some() {
                drop(st);
                abort_unwind();
            }
            if st.active == me && st.threads[me] == Run::Runnable {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Mark `me` finished, wake joiners, hand the baton onward.
    fn finish_thread(&self, me: usize) {
        let mut st = self.lock();
        st.threads[me] = Run::Finished;
        st.finished += 1;
        for r in st.threads.iter_mut() {
            if *r == Run::Joining(me) {
                *r = Run::Runnable;
            }
        }
        if st.abort.is_some() {
            self.cv.notify_all();
            return;
        }
        if st.active == me {
            // The handoff can itself abort (step cap, deadlock); this thread
            // is already past its catch_unwind, so swallow the AbortToken
            // here — the orchestrator propagates the recorded failure.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| self.schedule(st, me, false, false)));
        }
    }
}

fn abort_unwind() -> ! {
    if std::thread::panicking() {
        // Already unwinding (e.g. a Drop impl hit a scheduling point while
        // an AbortToken panic is in flight); don't double-panic.
        // Unreachable in practice because callers check `panicking` first,
        // but keep the runtime abort-safe.
        std::process::abort();
    }
    panic::panic_any(AbortToken);
}

/// Scheduling point for an atomic operation or fence. No-op outside a model.
pub(crate) fn op_point() {
    if std::thread::panicking() {
        // Drop impls running during an abort unwind may touch atomics;
        // perform the operation directly rather than re-entering the
        // scheduler mid-panic.
        return;
    }
    if let Some((sched, me)) = current_ctx() {
        let st = sched.lock();
        sched.schedule(st, me, true, false);
    }
}

/// Yield-flavoured scheduling point (spin hints, `yield_now`): prefers to
/// run a peer so the condition being spun on can change.
pub(crate) fn yield_point() {
    if std::thread::panicking() {
        return;
    }
    if let Some((sched, me)) = current_ctx() {
        let st = sched.lock();
        sched.schedule(st, me, true, true);
    }
}

/// `loom::thread::yield_now`.
pub fn yield_now() {
    if current_ctx().is_some() {
        yield_point();
    } else {
        std::thread::yield_now();
    }
}

/// Handle to a model (or, outside a model, plain `std`) spawned thread.
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<Option<T>>,
    /// Model thread id; `None` when spawned outside a model.
    id: Option<usize>,
}

impl<T> JoinHandle<T> {
    /// Joins the thread, blocking (as a scheduling point) until it exits.
    pub fn join(self) -> std::thread::Result<T> {
        if let (Some(target), Some((sched, me))) = (self.id, current_ctx()) {
            loop {
                let mut st = sched.lock();
                if st.abort.is_some() {
                    drop(st);
                    abort_unwind();
                }
                if st.threads[target] == Run::Finished {
                    break;
                }
                st.threads[me] = Run::Joining(target);
                sched.schedule(st, me, false, false);
                let st2 = sched.lock();
                sched.wait_for_turn(st2, me);
            }
        }
        match self.inner.join() {
            Ok(Some(v)) => Ok(v),
            // The child unwound via AbortToken; the original failure is
            // propagated by the orchestrator, so unwind quietly here too.
            Ok(None) => abort_unwind(),
            Err(e) => Err(e),
        }
    }
}

/// `loom::thread::spawn`. Inside a model the child becomes a scheduled model
/// thread; outside it degrades to `std::thread::spawn`.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match current_ctx() {
        None => {
            let inner = std::thread::spawn(move || Some(f()));
            JoinHandle { inner, id: None }
        }
        Some((sched, me)) => {
            let id = {
                let mut st = sched.lock();
                st.threads.push(Run::Runnable);
                st.threads.len() - 1
            };
            let child_sched = sched.clone();
            let inner = std::thread::spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((child_sched.clone(), id)));
                {
                    let st = child_sched.lock();
                    // Wait to be scheduled for the first time. AbortToken
                    // unwinds land in the catch below.
                    let r = panic::catch_unwind(AssertUnwindSafe(|| {
                        child_sched.wait_for_turn(st, id);
                    }));
                    if r.is_err() {
                        child_sched.finish_thread(id);
                        return None;
                    }
                }
                let out = panic::catch_unwind(AssertUnwindSafe(f));
                match out {
                    Ok(v) => {
                        child_sched.finish_thread(id);
                        Some(v)
                    }
                    Err(payload) => {
                        if !payload.is::<AbortToken>() {
                            child_sched.set_abort(payload);
                        }
                        child_sched.finish_thread(id);
                        None
                    }
                }
            });
            // The spawn itself is a scheduling point: the child may run
            // before the parent's next step.
            let st = sched.lock();
            sched.schedule(st, me, true, false);
            JoinHandle { inner, id: Some(id) }
        }
    }
}

/// Run `f` under the model checker, exploring every schedule within the
/// preemption bound. Panics (with the original payload) if any explored
/// schedule makes `f` panic; prints the counterexample iteration first.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let f = Arc::new(f);
    let max_preemptions = env_limit("LOOM_MAX_PREEMPTIONS", DEFAULT_MAX_PREEMPTIONS);
    let max_steps = env_limit("LOOM_MAX_STEPS", DEFAULT_MAX_STEPS);
    let max_iterations = env_limit("LOOM_MAX_ITERATIONS", DEFAULT_MAX_ITERATIONS);
    let log = std::env::var("LOOM_LOG").is_ok();

    let mut path: Vec<Choice> = Vec::new();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        if iterations > max_iterations {
            panic!(
                "loom: schedule space not exhausted after {max_iterations} executions \
                 (LOOM_MAX_ITERATIONS) — shrink the model or raise the limit"
            );
        }
        let sched = Arc::new(Scheduler::new(std::mem::take(&mut path), max_preemptions, max_steps));
        let root_sched = sched.clone();
        let root_f = f.clone();
        let root = std::thread::spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((root_sched.clone(), 0)));
            let out = panic::catch_unwind(AssertUnwindSafe(|| root_f()));
            if let Err(payload) = out {
                if !payload.is::<AbortToken>() {
                    root_sched.set_abort(payload);
                }
            }
            root_sched.finish_thread(0);
        });

        // Wait until every model thread has exited, aborted or not. The
        // abort payload stays in place until then: a thread still parked
        // (the root joining the thread that panicked) unwinds only when it
        // sees it, and would wait forever for the baton if it were taken.
        let abort = {
            let mut st = sched.lock();
            while st.finished < st.threads.len() {
                st = sched.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.abort.take()
        };
        let _ = root.join();

        if let Some(payload) = abort {
            eprintln!(
                "loom: counterexample found on iteration {iterations} \
                 (max_preemptions={max_preemptions})"
            );
            // Runtime-generated aborts (step cap, deadlock) are recorded
            // without panicking, and `resume_unwind` bypasses the panic
            // hook — print the message here or it is lost.
            if let Some(msg) = payload.downcast_ref::<String>() {
                eprintln!("{msg}");
            }
            panic::resume_unwind(payload);
        }

        // Reclaim the recorded path and backtrack to the deepest decision
        // with an unexplored alternative.
        path = std::mem::take(&mut sched.lock().path);
        loop {
            match path.last_mut() {
                None => {
                    if log {
                        eprintln!(
                            "loom: explored {iterations} executions \
                             (max_preemptions={max_preemptions})"
                        );
                    }
                    return;
                }
                Some(c) => {
                    if c.selected + 1 < c.candidates.len() {
                        c.selected += 1;
                        break;
                    }
                    path.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::sync::atomic::{AtomicU32, Ordering};
    use crate::sync::Arc;

    /// Two CAS-incrementing threads: correct under every schedule.
    #[test]
    fn cas_counter_is_race_free() {
        super::model(|| {
            let n = Arc::new(AtomicU32::new(0));
            let h: Vec<_> = (0..2)
                .map(|_| {
                    let n = n.clone();
                    super::spawn(move || loop {
                        let v = n.load(Ordering::Acquire);
                        if n.compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Relaxed).is_ok()
                        {
                            break;
                        }
                        crate::hint::spin_loop();
                    })
                })
                .collect();
            for h in h {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::Acquire), 2);
        });
    }

    /// Load-then-store increment: the checker must find the lost update.
    #[test]
    fn finds_lost_update() {
        let found = std::panic::catch_unwind(|| {
            super::model(|| {
                let n = Arc::new(AtomicU32::new(0));
                let h: Vec<_> = (0..2)
                    .map(|_| {
                        let n = n.clone();
                        super::spawn(move || {
                            let v = n.load(Ordering::SeqCst);
                            n.store(v + 1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in h {
                    h.join().unwrap();
                }
                assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
            });
        });
        assert!(found.is_err(), "model checker must catch the lost update");
    }

    /// A correct spin-lock-protected counter: the checker must terminate on
    /// a model with spin loops (yield points step the spinner aside) and
    /// verify it under every schedule.
    #[test]
    fn spin_lock_counter_terminates_and_passes() {
        let found = std::panic::catch_unwind(|| {
            super::model(|| {
                let lock = Arc::new(AtomicU32::new(0));
                let data = Arc::new(AtomicU32::new(0));
                let h: Vec<_> = (0..2)
                    .map(|_| {
                        let lock = lock.clone();
                        let data = data.clone();
                        super::spawn(move || {
                            while lock
                                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                                .is_err()
                            {
                                crate::hint::spin_loop();
                            }
                            let v = data.load(Ordering::Relaxed);
                            data.store(v + 1, Ordering::Relaxed);
                            lock.store(0, Ordering::Release);
                        })
                    })
                    .collect();
                for h in h {
                    h.join().unwrap();
                }
                assert_eq!(data.load(Ordering::SeqCst), 2);
            });
        });
        assert!(found.is_ok(), "spin-lock counter model must pass and terminate");
    }

    /// A spin-lock with a broken release (store of the *wrong* value leaves
    /// the lock held... modelled as unlocking before the protected store):
    /// the checker must find the torn critical section.
    #[test]
    fn finds_broken_critical_section() {
        let found = std::panic::catch_unwind(|| {
            super::model(|| {
                let lock = Arc::new(AtomicU32::new(0));
                let data = Arc::new(AtomicU32::new(0));
                let h: Vec<_> = (0..2)
                    .map(|_| {
                        let lock = lock.clone();
                        let data = data.clone();
                        super::spawn(move || {
                            while lock
                                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                                .is_err()
                            {
                                crate::hint::spin_loop();
                            }
                            let v = data.load(Ordering::Relaxed);
                            // BUG: release the lock before the write-back —
                            // the other thread can read the same `v`.
                            lock.store(0, Ordering::Release);
                            data.store(v + 1, Ordering::Relaxed);
                        })
                    })
                    .collect();
                for h in h {
                    h.join().unwrap();
                }
                assert_eq!(data.load(Ordering::SeqCst), 2, "lost update in critical section");
            });
        });
        assert!(found.is_err(), "model checker must catch the torn critical section");
    }

    /// Deadlock detection: self-join-style circular wait via two locks.
    #[test]
    fn detects_deadlock() {
        let found = std::panic::catch_unwind(|| {
            super::model(|| {
                let a = Arc::new(AtomicU32::new(0));
                let b = Arc::new(AtomicU32::new(0));
                let mk = |first: Arc<AtomicU32>, second: Arc<AtomicU32>| {
                    super::spawn(move || {
                        while first
                            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                            .is_err()
                        {
                            crate::hint::spin_loop();
                        }
                        while second
                            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                            .is_err()
                        {
                            crate::hint::spin_loop();
                        }
                        second.store(0, Ordering::Release);
                        first.store(0, Ordering::Release);
                    })
                };
                let h1 = mk(a.clone(), b.clone());
                let h2 = mk(b.clone(), a.clone());
                h1.join().unwrap();
                h2.join().unwrap();
            });
        });
        // AB/BA lock order: some schedule livelocks both spinners; the step
        // cap must flag it instead of hanging.
        assert!(found.is_err(), "model checker must catch the AB/BA deadlock");
    }

    /// A panic in a spawned thread fails the model, and every model thread
    /// exits: none stays parked waiting for a baton nobody hands over (the
    /// root joining the failed thread, or a peer never scheduled). Each
    /// peer holds a sender of `alive`, which disconnects once all have
    /// exited. Whether a parked thread wakes before the orchestrator acts
    /// on the abort is an OS race; 64 peers make losing it certain in
    /// practice. The model runs on a helper thread, left detached if it
    /// hangs, so a hang fails this test rather than the run.
    #[test]
    fn spawned_panic_fails_the_model_and_every_thread_exits() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        use std::time::Duration;

        let (result, outcome) = channel();
        let (alive, exits) = channel::<()>();
        std::thread::spawn(move || {
            let found = std::panic::catch_unwind(move || {
                super::model(move || {
                    let failing = super::spawn(|| panic!("spawned model thread failed"));
                    let peers: Vec<_> = (0..64)
                        .map(|_| {
                            let alive = alive.clone();
                            super::spawn(move || drop(alive))
                        })
                        .collect();
                    let _ = failing.join();
                    for p in peers {
                        let _ = p.join();
                    }
                });
            });
            let _ = result.send(found.is_err());
        });
        let found = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("model hung after a spawned thread panicked");
        assert!(found, "the spawned thread's panic must fail the model");
        assert_eq!(
            exits.recv_timeout(Duration::from_secs(30)),
            Err(RecvTimeoutError::Disconnected),
            "a model thread never exited"
        );
    }

    /// Outside `model`, atomics and spawn degrade to plain std behaviour.
    #[test]
    fn fallback_outside_model() {
        let n = Arc::new(AtomicU32::new(0));
        let n2 = n.clone();
        let h = super::spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        h.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 1);
    }
}
