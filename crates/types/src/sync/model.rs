//! Deterministic interleaving explorer ("mini-loom") for the atomics
//! facade — compiled only under the `fgcache_model` feature.
//!
//! [`explore`] runs a *scenario* (a closure that builds some shared
//! state and spawns 2–4 virtual threads) under every schedule a
//! depth-first search over scheduling decisions can produce, subject to
//! a preemption bound. Each virtual thread is a real OS thread driven
//! in lockstep: exactly one thread runs at a time, and control changes
//! hands only at *instrumented operations* — facade atomic ops and
//! [`ModelMutex`] lock/unlock — so an execution is a pure function of
//! the recorded choice sequence and can be replayed exactly.
//!
//! # Shadow memory and memory orderings
//!
//! Every facade atomic registers a *location*. A location keeps its
//! full store history: each store records the storing thread's vector
//! clock (`hb`) and, for `Release` stores, a synchronization clock
//! (`sync`). A load does **not** simply return the newest value — it
//! may read any store that per-location coherence and happens-before
//! allow:
//!
//! * it can never read a store older than one this thread already read
//!   or wrote (coherence floor), and
//! * it can never read a store older than the newest store that
//!   *happened-before* the load (a `Release` store becomes
//!   happens-before once the reader `Acquire`-loads it, or via a
//!   [`ModelMutex`] edge).
//!
//! Everything else — in particular stores published without a
//! synchronizing edge — is *stale but readable*, and the explorer
//! branches over every readable store. This is what makes a missing
//! `Release`/`Acquire` pair observable: demote a publication store to
//! `Relaxed` and some schedule will read the old value, which is
//! exactly how the relaxed-flag litmus test below proves the checker
//! has teeth.
//!
//! An `Acquire` load that reads a `Release` store joins the store's
//! `sync` clock into the reader's clock. RMWs (`fetch_add`, CAS) read
//! the newest store in modification order, as real coherent hardware
//! does.
//!
//! # Exploration strategy
//!
//! Depth-first search over choice points (which thread runs next;
//! which readable store a load returns), replaying a recorded prefix
//! and extending it — the classic stateless-replay DFS. Two bounds
//! keep it finite and fast:
//!
//! * **Bounded preemption** ([`ModelOptions::max_preemptions`]):
//!   switching away from a thread that could still run costs one
//!   preemption; once spent, the scheduler runs each thread to its
//!   next blocking point. Context switches at blocks/finishes are
//!   free.
//! * **State hashing** ([`ModelOptions::state_hashing`]): at each
//!   scheduling point in fresh territory the full shadow state
//!   (store histories, clocks, floors, statuses, mutexes) is hashed;
//!   a state seen before is not branched again — its futures were
//!   explored from its first visit. Sound up to hash collisions
//!   (64-bit FNV-1a over the serialized state).
//!
//! # What the explorer cannot prove
//!
//! See DESIGN.md §14 for the full limitation list: no `SeqCst` total
//! order (treated as `AcqRel`; the workspace bans `SeqCst` anyway), no
//! release *sequences* (a `Release` store followed by RMWs from other
//! threads does not transfer the release clock through the RMW chain),
//! `compare_exchange_weak` never fails spuriously, and scenarios
//! beyond the preemption bound are unexplored.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Maximum number of virtual threads per scenario.
pub const MAX_THREADS: usize = 4;
/// Vector-clock width: the virtual threads plus the controller.
const CLOCK_SIZE: usize = MAX_THREADS + 1;
/// The controller's clock component.
const CTRL: usize = MAX_THREADS;

type VClock = [u32; CLOCK_SIZE];

fn clock_le(a: &VClock, b: &VClock) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

fn clock_join(into: &mut VClock, other: &VClock) {
    for (x, y) in into.iter_mut().zip(other.iter()) {
        *x = (*x).max(*y);
    }
}

/// One store in a location's history.
#[derive(Debug, Clone, Copy)]
struct StoreEvent {
    value: u64,
    /// The storing actor's clock at store time: decides visibility
    /// ("a newer store that happened-before the reader hides me").
    hb: VClock,
    /// For `Release` stores: the clock an `Acquire` reader joins.
    sync: Option<VClock>,
}

#[derive(Debug, Default)]
struct Location {
    stores: Vec<StoreEvent>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Executing user code (or about to); the scheduler waits for it
    /// to park or finish before making any decision.
    Running,
    /// Parked at an instrumented operation, waiting for a grant.
    Waiting,
    /// Parked on a held [`ModelMutex`]; not schedulable until released.
    Blocked(usize),
    /// Body returned (or panicked — the failure is recorded).
    Finished,
}

#[derive(Debug)]
struct ThreadRt {
    clock: VClock,
    floors: Vec<usize>,
    status: Status,
}

#[derive(Debug)]
struct MutexRt {
    held_by: Option<usize>,
    clock: VClock,
}

/// One recorded decision: which alternative was taken, out of how many.
#[derive(Debug, Clone, Copy)]
struct Choice {
    chosen: u32,
    alts: u32,
}

struct ExecState {
    locations: Vec<Location>,
    /// First-touch registry mapping an atomic's address to its shadow
    /// location, resolved *inside* each operation so an access is one
    /// scheduling point and no lock is held across a park.
    loc_by_addr: std::collections::HashMap<usize, usize>,
    threads: Vec<ThreadRt>,
    ctrl_clock: VClock,
    ctrl_floors: Vec<usize>,
    mutexes: Vec<MutexRt>,
    /// Thread currently granted one operation (consumed on wake).
    current: Option<usize>,
    script: Vec<Choice>,
    trail: Vec<Choice>,
    pos: usize,
    preemptions_left: usize,
    last_ran: Option<usize>,
    state_hashing: bool,
    seen: HashSet<u64>,
    pruned: u64,
    failure: Option<String>,
    aborted: bool,
}

struct ExecHandle {
    state: Mutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<ExecHandle>>> = const { RefCell::new(None) };
    static TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Locks the execution state, recovering from poison: a panicking
/// virtual thread must not take the whole explorer down with a
/// poisoned-mutex cascade — the recorded failure already carries the
/// diagnosis.
fn lock_state(handle: &ExecHandle) -> MutexGuard<'_, ExecState> {
    match handle.state.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn current_handle() -> Option<Arc<ExecHandle>> {
    CURRENT.with(|c| c.borrow().clone())
}

impl ExecState {
    /// Looks up (or first-touch registers) the shadow location for the
    /// atomic at `addr`, whose current value is `initial`.
    fn resolve(&mut self, actor: usize, addr: usize, initial: u64) -> usize {
        if let Some(&loc) = self.loc_by_addr.get(&addr) {
            return loc;
        }
        let loc = self.locations.len();
        let clock = *self.clock_of(actor);
        self.locations.push(Location {
            stores: vec![StoreEvent {
                value: initial,
                hb: clock,
                sync: None,
            }],
        });
        self.loc_by_addr.insert(addr, loc);
        loc
    }

    fn clock_of(&mut self, actor: usize) -> &mut VClock {
        if actor == CTRL {
            &mut self.ctrl_clock
        } else {
            &mut self.threads[actor].clock
        }
    }

    fn floor_of(&mut self, actor: usize, loc: usize) -> &mut usize {
        let floors = if actor == CTRL {
            &mut self.ctrl_floors
        } else {
            &mut self.threads[actor].floors
        };
        if floors.len() <= loc {
            floors.resize(loc + 1, 0);
        }
        &mut floors[loc]
    }

    fn tick(&mut self, actor: usize) {
        self.clock_of(actor)[actor] += 1;
    }

    /// Consumes one choice with `alts` alternatives; scripted positions
    /// replay the recorded decision verbatim (including its recorded
    /// alternative count, so backtracking stays aligned).
    fn choose(&mut self, alts: u32) -> u32 {
        if self.aborted {
            return 0;
        }
        let choice = if self.pos < self.script.len() {
            self.script[self.pos]
        } else {
            Choice { chosen: 0, alts }
        };
        debug_assert!(choice.chosen < choice.alts.max(1));
        self.trail.push(choice);
        self.pos += 1;
        choice.chosen
    }

    /// Indices of stores the actor may read at `loc`: everything from
    /// `max(coherence floor, newest happened-before store)` onward.
    fn readable_floor(&mut self, actor: usize, loc: usize) -> usize {
        let clock = *self.clock_of(actor);
        let stores = &self.locations[loc].stores;
        let mut hb_floor = 0;
        for (i, s) in stores.iter().enumerate().rev() {
            if clock_le(&s.hb, &clock) {
                hb_floor = i;
                break;
            }
        }
        (*self.floor_of(actor, loc)).max(hb_floor)
    }

    fn apply_read(&mut self, actor: usize, loc: usize, index: usize, order: Ordering) -> u64 {
        *self.floor_of(actor, loc) = index;
        let store = self.locations[loc].stores[index];
        if is_acquire(order) {
            if let Some(sync) = store.sync {
                clock_join(self.clock_of(actor), &sync);
            }
        }
        store.value
    }

    fn apply_write(&mut self, actor: usize, loc: usize, value: u64, order: Ordering) {
        let clock = *self.clock_of(actor);
        let index = self.locations[loc].stores.len();
        *self.floor_of(actor, loc) = index;
        self.locations[loc].stores.push(StoreEvent {
            value,
            hb: clock,
            sync: is_release(order).then_some(clock),
        });
    }

    /// FNV-1a over the full shadow state; used to prune scheduling
    /// points whose state was already explored.
    fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut put = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for loc in &self.locations {
            put(0x10c0);
            for s in &loc.stores {
                put(s.value);
                for c in s.hb {
                    put(c as u64);
                }
                match s.sync {
                    None => put(0),
                    Some(sc) => {
                        put(1);
                        for c in sc {
                            put(c as u64);
                        }
                    }
                }
            }
        }
        for t in &self.threads {
            put(0x7123);
            for c in t.clock {
                put(c as u64);
            }
            for &f in &t.floors {
                put(f as u64);
            }
            put(match t.status {
                Status::Running => 1,
                Status::Waiting => 2,
                Status::Blocked(m) => 0x100 + m as u64,
                Status::Finished => 3,
            });
        }
        for m in &self.mutexes {
            put(0x3u64);
            put(m.held_by.map_or(u64::MAX, |t| t as u64));
            for c in m.clock {
                put(c as u64);
            }
        }
        put(self.preemptions_left as u64);
        put(self.last_ran.map_or(u64::MAX, |t| t as u64));
        h
    }
}

fn is_acquire(order: Ordering) -> bool {
    !matches!(order, Ordering::Relaxed | Ordering::Release)
}

fn is_release(order: Ordering) -> bool {
    !matches!(order, Ordering::Relaxed | Ordering::Acquire)
}

/// Runs `f` against the execution state as one instrumented operation:
/// the controller applies it directly; a virtual thread parks and waits
/// until the scheduler grants it the next operation.
fn op<R>(f: impl FnOnce(&mut ExecState, usize) -> R) -> Option<R> {
    let handle = current_handle()?;
    let tid = TID.with(|t| t.get());
    let mut st = lock_state(&handle);
    match tid {
        None => {
            let r = f(&mut st, CTRL);
            Some(r)
        }
        Some(t) => {
            if std::env::var_os("FGCACHE_MODEL_TRACE").is_some() {
                eprintln!("[op] t{t} parks");
            }
            st.threads[t].status = Status::Waiting;
            handle.cv.notify_all();
            while st.current != Some(t) {
                st = match handle.cv.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
            st.current = None;
            st.threads[t].status = Status::Running;
            let r = f(&mut st, t);
            handle.cv.notify_all();
            Some(r)
        }
    }
}

/// Instrumented load: branches over every readable store. `addr` names
/// the atomic (first touch registers it with value `initial`).
pub(crate) fn atomic_load(addr: usize, initial: u64, order: Ordering) -> Option<u64> {
    op(|st, actor| {
        let loc = st.resolve(actor, addr, initial);
        st.tick(actor);
        let lo = st.readable_floor(actor, loc);
        let newest = st.locations[loc].stores.len() - 1;
        let alts = (newest - lo + 1) as u32;
        let k = if alts > 1 { st.choose(alts) } else { 0 };
        // Choice 0 is the newest store (the SC-like execution first).
        st.apply_read(actor, loc, newest - k as usize, order)
    })
}

/// Instrumented store.
pub(crate) fn atomic_store(addr: usize, initial: u64, value: u64, order: Ordering) -> Option<()> {
    op(|st, actor| {
        let loc = st.resolve(actor, addr, initial);
        st.tick(actor);
        st.apply_write(actor, loc, value, order);
    })
}

/// Instrumented read-modify-write (`fetch_add`, `swap`, …): reads the
/// newest store in modification order, writes `f(old)`.
pub(crate) fn atomic_rmw(
    addr: usize,
    initial: u64,
    order: Ordering,
    f: impl FnOnce(u64) -> u64,
) -> Option<u64> {
    op(|st, actor| {
        let loc = st.resolve(actor, addr, initial);
        st.tick(actor);
        let newest = st.locations[loc].stores.len() - 1;
        let old = st.apply_read(actor, loc, newest, order);
        st.apply_write(actor, loc, f(old), order);
        old
    })
}

/// Instrumented compare-exchange (strong semantics: never spuriously
/// fails — see the module docs for why that is a modeled restriction).
pub(crate) fn atomic_cas(
    addr: usize,
    initial: u64,
    current: u64,
    new: u64,
    success: Ordering,
    failure: Ordering,
) -> Option<Result<u64, u64>> {
    op(|st, actor| {
        let loc = st.resolve(actor, addr, initial);
        st.tick(actor);
        let newest = st.locations[loc].stores.len() - 1;
        let old = st.locations[loc].stores[newest].value;
        if old == current {
            let read = st.apply_read(actor, loc, newest, success);
            st.apply_write(actor, loc, new, success);
            Ok(read)
        } else {
            Err(st.apply_read(actor, loc, newest, failure))
        }
    })
}

/// Exploration bounds and switches.
#[derive(Debug, Clone)]
pub struct ModelOptions {
    /// Budget of scheduler switches away from a still-runnable thread.
    pub max_preemptions: usize,
    /// Hard cap on explored schedules; [`explore`] panics when the DFS
    /// would exceed it, so "exhaustive within a bounded schedule
    /// count" is an enforced claim rather than a hope.
    pub max_schedules: u64,
    /// Prune scheduling points whose full shadow state was already
    /// visited (sound up to 64-bit hash collisions).
    pub state_hashing: bool,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            max_preemptions: 2,
            max_schedules: 100_000,
            state_hashing: true,
        }
    }
}

/// What an [`explore`] run did.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Schedules executed to completion.
    pub schedules: u64,
    /// Scheduling points skipped by state-hash pruning.
    pub pruned: u64,
}

/// Handle passed to a scenario; spawns and drives the virtual threads.
pub struct Scope {
    handle: Arc<ExecHandle>,
}

impl Scope {
    /// Runs `bodies` as virtual threads under the model scheduler and
    /// returns when all of them have finished. May be called more than
    /// once per scenario (phased scenarios). Panics — reporting the
    /// failing schedule — if any thread body panics or the threads
    /// deadlock on model mutexes.
    pub fn threads(&self, bodies: &[&(dyn Fn() + Sync)]) {
        assert!(
            bodies.len() <= MAX_THREADS,
            "at most {MAX_THREADS} virtual threads"
        );
        {
            let mut st = lock_state(&self.handle);
            let clock = st.ctrl_clock;
            let floors = st.ctrl_floors.clone();
            st.threads = bodies
                .iter()
                .map(|_| ThreadRt {
                    clock,
                    floors: floors.clone(),
                    status: Status::Running,
                })
                .collect();
            st.current = None;
            st.last_ran = None;
        }
        std::thread::scope(|s| {
            for (t, body) in bodies.iter().enumerate() {
                let handle = Arc::clone(&self.handle);
                let body: &(dyn Fn() + Sync) = *body;
                s.spawn(move || {
                    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&handle)));
                    TID.with(|cell| cell.set(Some(t)));
                    if std::env::var_os("FGCACHE_MODEL_TRACE").is_some() {
                        eprintln!("[thread] t{t} starts");
                    }
                    let result = catch_unwind(AssertUnwindSafe(body));
                    let mut st = lock_state(&handle);
                    if let Err(payload) = result {
                        if st.failure.is_none() {
                            st.failure = Some(panic_message(payload.as_ref()));
                        }
                        st.aborted = true;
                    }
                    st.threads[t].status = Status::Finished;
                    handle.cv.notify_all();
                });
            }
            self.schedule();
        });
        let mut st = lock_state(&self.handle);
        for t in 0..st.threads.len() {
            let clock = st.threads[t].clock;
            clock_join(&mut st.ctrl_clock, &clock);
            for loc in 0..st.threads[t].floors.len() {
                let f = st.threads[t].floors[loc];
                let ctrl = st.floor_of(CTRL, loc);
                *ctrl = (*ctrl).max(f);
            }
        }
        st.threads.clear();
        if let Some(failure) = st.failure.take() {
            let trail = render_trail(&st.trail);
            drop(st);
            panic!("model: schedule failed [{trail}]: {failure}");
        }
    }

    /// The lockstep scheduler: waits for quiescence (no thread running
    /// user code), then grants exactly one parked thread its next
    /// operation, choosing per the DFS script.
    fn schedule(&self) {
        let mut st = lock_state(&self.handle);
        loop {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                return;
            }
            if st.current.is_some() || st.threads.iter().any(|t| t.status == Status::Running) {
                st = match self.handle.cv.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                continue;
            }
            let pickable: Vec<usize> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == Status::Waiting)
                .map(|(i, _)| i)
                .collect();
            if std::env::var_os("FGCACHE_MODEL_TRACE").is_some() {
                eprintln!(
                    "[sched] pos={} statuses={:?} pickable={pickable:?}",
                    st.pos,
                    st.threads.iter().map(|t| t.status).collect::<Vec<_>>()
                );
            }
            if pickable.is_empty() {
                // Every unfinished thread is blocked on a mutex.
                if st.failure.is_none() {
                    st.failure = Some("deadlock: all threads blocked on model mutexes".into());
                }
                st.aborted = true;
                for t in &mut st.threads {
                    if matches!(t.status, Status::Blocked(_)) {
                        t.status = Status::Waiting;
                    }
                }
                continue;
            }
            let forced = match st.last_ran {
                Some(l) if st.preemptions_left == 0 && pickable.contains(&l) => Some(l),
                _ => None,
            };
            let pick = if let Some(l) = forced {
                st.trail.push(Choice { chosen: 0, alts: 1 });
                st.pos += 1;
                l
            } else {
                let mut alts = pickable.len() as u32;
                if alts > 1 && st.state_hashing && !st.aborted && st.pos >= st.script.len() {
                    let h = st.state_hash();
                    if !st.seen.insert(h) {
                        st.pruned += 1;
                        alts = 1;
                    }
                }
                let c = st.choose(alts);
                pickable[c as usize]
            };
            if let Some(l) = st.last_ran {
                if l != pick && pickable.contains(&l) {
                    st.preemptions_left -= 1;
                }
            }
            st.last_ran = Some(pick);
            st.current = Some(pick);
            self.handle.cv.notify_all();
            while st.current.is_some() {
                st = match self.handle.cv.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

fn render_trail(trail: &[Choice]) -> String {
    let mut out = String::new();
    for (i, c) in trail.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&format!("{}/{}", c.chosen, c.alts));
    }
    out
}

/// Explores every bounded schedule of `scenario` and panics on the
/// first failing one (assertion failure in a virtual thread, deadlock,
/// or schedule-budget exhaustion), reporting the choice trail that
/// reproduces it. Returns exploration statistics on success.
///
/// The scenario closure runs once per schedule: create the shared
/// state *inside* it (so every execution starts fresh), spawn virtual
/// threads with [`Scope::threads`], and assert the post-conditions
/// after `threads` returns — at that point the controller has joined
/// every thread's clock, so loads observe the final state exactly.
pub fn explore(opts: &ModelOptions, scenario: impl Fn(&Scope)) -> Report {
    let mut script: Vec<Choice> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut schedules = 0u64;
    let mut pruned = 0u64;
    loop {
        schedules += 1;
        if std::env::var_os("FGCACHE_MODEL_TRACE").is_some() {
            eprintln!("[explore] run #{schedules} script_len={}", script.len());
        }
        assert!(
            schedules <= opts.max_schedules,
            "model: exceeded the schedule budget ({} schedules)",
            opts.max_schedules
        );
        let handle = Arc::new(ExecHandle {
            state: Mutex::new(ExecState {
                locations: Vec::new(),
                loc_by_addr: std::collections::HashMap::new(),
                threads: Vec::new(),
                ctrl_clock: [0; CLOCK_SIZE],
                ctrl_floors: Vec::new(),
                mutexes: Vec::new(),
                current: None,
                script: script.clone(),
                trail: Vec::new(),
                pos: 0,
                preemptions_left: opts.max_preemptions,
                last_ran: None,
                state_hashing: opts.state_hashing,
                seen: std::mem::take(&mut seen),
                pruned: 0,
                failure: None,
                aborted: false,
            }),
            cv: Condvar::new(),
        });
        let scope = Scope {
            handle: Arc::clone(&handle),
        };
        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&handle)));
        TID.with(|cell| cell.set(None));
        let result = catch_unwind(AssertUnwindSafe(|| scenario(&scope)));
        CURRENT.with(|c| *c.borrow_mut() = None);
        let mut st = lock_state(&handle);
        seen = std::mem::take(&mut st.seen);
        pruned += st.pruned;
        if let Err(payload) = result {
            eprintln!(
                "model: failing schedule #{schedules} [trail {}]",
                render_trail(&st.trail)
            );
            drop(st);
            resume_unwind(payload);
        }
        let trail = std::mem::take(&mut st.trail);
        drop(st);
        match trail.iter().rposition(|c| c.chosen + 1 < c.alts) {
            Some(i) => {
                script.clear();
                script.extend_from_slice(&trail[..i]);
                script.push(Choice {
                    chosen: trail[i].chosen + 1,
                    alts: trail[i].alts,
                });
            }
            None => break,
        }
    }
    Report { schedules, pruned }
}

/// A mutex whose lock/unlock operations are model scheduling points
/// and happens-before edges — the stand-in for a shard's
/// `std::sync::Mutex` inside model scenarios.
///
/// Construct only inside a scenario (it registers with the active
/// execution). Mutual exclusion is enforced by the model scheduler;
/// the embedded real mutex exists so the data access itself is safe
/// Rust.
#[derive(Debug)]
pub struct ModelMutex<T> {
    inner: Mutex<T>,
    mid: usize,
}

impl<T> ModelMutex<T> {
    /// Creates a model mutex around `value`, registering it with the
    /// active execution.
    ///
    /// # Panics
    ///
    /// Panics if no model execution is active on this thread.
    pub fn new(value: T) -> Self {
        let mid = op(|st, actor| {
            let clock = *st.clock_of(actor);
            st.mutexes.push(MutexRt {
                held_by: None,
                clock,
            });
            st.mutexes.len() - 1
        })
        .expect("ModelMutex::new outside a model execution");
        ModelMutex {
            inner: Mutex::new(value),
            mid,
        }
    }

    /// Acquires the mutex, blocking (in model time) while it is held;
    /// acquisition joins the releaser's clock into the acquirer's —
    /// the lock-based happens-before edge.
    pub fn lock(&self) -> ModelMutexGuard<'_, T> {
        mutex_lock(self.mid);
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        ModelMutexGuard {
            owner: self,
            inner: Some(guard),
        }
    }
}

/// The model half of a mutex acquisition. A virtual thread that finds
/// the mutex held parks as [`Status::Blocked`] *inside* the grant
/// handshake — the release path flips it back to `Waiting` — so the
/// scheduler never burns grants (or, worse, force-grants under an
/// exhausted preemption budget) on a thread that cannot progress.
fn mutex_lock(mid: usize) {
    let handle = current_handle().expect("ModelMutex::lock outside a model execution");
    let tid = TID.with(|t| t.get());
    let mut st = lock_state(&handle);
    let Some(t) = tid else {
        // Controller: threads are quiescent, the mutex must be free.
        assert!(
            st.mutexes[mid].held_by.is_none(),
            "model: controller locking a held mutex"
        );
        st.tick(CTRL);
        st.mutexes[mid].held_by = Some(CTRL);
        let clock = st.mutexes[mid].clock;
        clock_join(st.clock_of(CTRL), &clock);
        return;
    };
    st.threads[t].status = Status::Waiting;
    loop {
        handle.cv.notify_all();
        while st.current != Some(t) {
            st = match handle.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        st.current = None;
        st.threads[t].status = Status::Running;
        st.tick(t);
        if st.aborted {
            handle.cv.notify_all();
            drop(st);
            panic!("model: execution aborted");
        }
        if st.mutexes[mid].held_by.is_none() {
            st.mutexes[mid].held_by = Some(t);
            let clock = st.mutexes[mid].clock;
            clock_join(st.clock_of(t), &clock);
            handle.cv.notify_all();
            return;
        }
        assert_ne!(
            st.mutexes[mid].held_by,
            Some(t),
            "model: re-entrant ModelMutex lock"
        );
        st.threads[t].status = Status::Blocked(mid);
    }
}

/// RAII guard for [`ModelMutex`]; releasing is a model operation that
/// publishes the holder's clock to the next acquirer.
#[derive(Debug)]
pub struct ModelMutexGuard<'a, T> {
    owner: &'a ModelMutex<T>,
    inner: Option<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for ModelMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> std::ops::DerefMut for ModelMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T> Drop for ModelMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        let mid = self.owner.mid;
        op(|st, actor| {
            st.tick(actor);
            debug_assert_eq!(st.mutexes[mid].held_by, Some(actor));
            st.mutexes[mid].held_by = None;
            let clock = *st.clock_of(actor);
            clock_join(&mut st.mutexes[mid].clock, &clock);
            for t in &mut st.threads {
                if t.status == Status::Blocked(mid) {
                    t.status = Status::Waiting;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicU64;
    use std::sync::Mutex as StdMutex;

    fn opts() -> ModelOptions {
        ModelOptions::default()
    }

    /// Message passing with Release/Acquire: once the reader acquires
    /// the flag, it must observe the data — no schedule may read stale.
    #[test]
    fn litmus_message_passing_release_acquire_is_safe() {
        let report = explore(&opts(), |scope| {
            let data = AtomicU64::new(0);
            let flag = AtomicU64::new(0);
            let writer = || {
                data.store(42, Ordering::Release);
                flag.store(1, Ordering::Release);
            };
            let reader = || {
                if flag.load(Ordering::Acquire) == 1 {
                    assert_eq!(
                        data.load(Ordering::Acquire),
                        42,
                        "acquire of the flag must publish the data"
                    );
                }
            };
            scope.threads(&[&writer, &reader]);
        });
        assert!(report.schedules >= 2, "must explore > 1 schedule");
    }

    /// The same litmus with a Relaxed flag: the explorer must find the
    /// stale read — the proof that a demoted publication is observable.
    #[test]
    fn litmus_message_passing_relaxed_flag_reads_stale() {
        let stale = StdMutex::new(false);
        explore(&opts(), |scope| {
            let data = AtomicU64::new(0);
            let flag = AtomicU64::new(0);
            let writer = || {
                data.store(42, Ordering::Release);
                flag.store(1, Ordering::Relaxed); // seeded ordering bug
            };
            let reader = || {
                if flag.load(Ordering::Acquire) == 1 && data.load(Ordering::Acquire) == 0 {
                    *match stale.lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    } = true;
                }
            };
            scope.threads(&[&writer, &reader]);
        });
        assert!(
            *stale.lock().expect("stale flag poisoned"),
            "a Relaxed publication must expose a stale data read in some schedule"
        );
    }

    /// Store buffering: both threads may read the other's location as
    /// still zero — the model is weaker than naive interleaving.
    #[test]
    fn litmus_store_buffering_observes_both_zero() {
        let outcomes = StdMutex::new(std::collections::HashSet::new());
        explore(&opts(), |scope| {
            let x = AtomicU64::new(0);
            let y = AtomicU64::new(0);
            let r = (AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX));
            let t1 = || {
                x.store(1, Ordering::Release);
                r.0.store(y.load(Ordering::Acquire), Ordering::Release);
            };
            let t2 = || {
                y.store(1, Ordering::Release);
                r.1.store(x.load(Ordering::Acquire), Ordering::Release);
            };
            scope.threads(&[&t1, &t2]);
            let pair = (r.0.load(Ordering::Acquire), r.1.load(Ordering::Acquire));
            match outcomes.lock() {
                Ok(mut g) => {
                    g.insert(pair);
                }
                Err(p) => {
                    p.into_inner().insert(pair);
                }
            }
        });
        let seen = outcomes.lock().expect("outcomes poisoned");
        assert!(
            seen.contains(&(0, 0)),
            "store buffering (both read 0) must be observable, got {seen:?}"
        );
        assert!(!seen.contains(&(u64::MAX, u64::MAX)), "threads must run");
    }

    /// Per-location coherence: having read the new value, a thread can
    /// never go back to the old one, even fully Relaxed.
    #[test]
    fn litmus_read_read_coherence() {
        explore(&opts(), |scope| {
            let x = AtomicU64::new(0);
            let writer = || x.store(1, Ordering::Release);
            let reader = || {
                let a = x.load(Ordering::Acquire);
                let b = x.load(Ordering::Acquire);
                assert!(b >= a, "coherence violated: read {a} then {b}");
            };
            scope.threads(&[&writer, &reader]);
        });
    }

    /// RMWs read the newest store in modification order: concurrent
    /// increments never lose an update.
    #[test]
    fn litmus_rmw_never_loses_updates() {
        explore(&opts(), |scope| {
            let x = AtomicU64::new(0);
            let bump = || {
                x.fetch_add(1, Ordering::Relaxed);
                x.fetch_add(1, Ordering::Relaxed);
            };
            scope.threads(&[&bump, &bump]);
            assert_eq!(x.load(Ordering::Acquire), 4);
        });
    }

    /// The mutex is a happens-before edge: data written under the lock
    /// is visible to the next holder even with Relaxed atomics.
    #[test]
    fn model_mutex_is_exclusive_and_synchronizing() {
        explore(&opts(), |scope| {
            let m = ModelMutex::new(0u64);
            let shadow = AtomicU64::new(0);
            let t1 = || {
                let mut g = m.lock();
                *g += 1;
                shadow.store(*g, Ordering::Relaxed);
            };
            let t2 = || {
                let mut g = m.lock();
                // Lock edge: the Relaxed shadow store is visible here.
                if *g == 1 {
                    assert_eq!(shadow.load(Ordering::Relaxed), 1);
                }
                *g += 10;
            };
            scope.threads(&[&t1, &t2]);
            assert_eq!(*m.lock(), 11);
        });
    }

    /// CAS: strong semantics, and a failed CAS reports the current
    /// value so a claim loop always terminates.
    #[test]
    fn cas_claims_are_exclusive() {
        explore(&opts(), |scope| {
            let slot = AtomicU64::new(0);
            let winners = AtomicU64::new(0);
            let claim = |me: u64| {
                let (slot, winners) = (&slot, &winners);
                move || {
                    if slot
                        .compare_exchange(0, me, Ordering::Release, Ordering::Acquire)
                        .is_ok()
                    {
                        winners.fetch_add(1, Ordering::Relaxed);
                    }
                }
            };
            let a = claim(1);
            let b = claim(2);
            scope.threads(&[&a, &b]);
            assert_eq!(winners.load(Ordering::Acquire), 1, "exactly one winner");
            assert_ne!(slot.load(Ordering::Acquire), 0);
        });
    }

    /// State hashing prunes real work without changing the verdict.
    #[test]
    fn state_hashing_prunes_but_preserves_outcomes() {
        // Convergent states need identical shadow memory, last-ran
        // thread and preemption budget: two single-load threads that
        // finish in either order (finish switches are free) then a
        // branchable pick between the two remaining threads is such a
        // diamond — the pick-point state after A,B,C equals the one
        // after B,A,C. Pure loads keep the store histories identical.
        let run = |hashing: bool| {
            explore(
                &ModelOptions {
                    state_hashing: hashing,
                    ..opts()
                },
                |scope| {
                    let x = AtomicU64::new(7);
                    let once = || {
                        assert_eq!(x.load(Ordering::Relaxed), 7);
                    };
                    let twice = || {
                        assert_eq!(x.load(Ordering::Relaxed), 7);
                        assert_eq!(x.load(Ordering::Relaxed), 7);
                    };
                    scope.threads(&[&once, &once, &twice, &twice]);
                },
            )
        };
        let pruned = run(true);
        let full = run(false);
        assert!(pruned.schedules <= full.schedules);
        assert!(pruned.pruned > 0, "pruning must fire on symmetric threads");
    }

    /// The schedule budget is enforced, not advisory.
    #[test]
    #[should_panic(expected = "schedule budget")]
    fn schedule_budget_is_enforced() {
        explore(
            &ModelOptions {
                max_schedules: 2,
                max_preemptions: 8,
                state_hashing: false,
            },
            |scope| {
                let x = AtomicU64::new(0);
                let t = || {
                    x.fetch_add(1, Ordering::Relaxed);
                    x.fetch_add(1, Ordering::Relaxed);
                };
                scope.threads(&[&t, &t]);
            },
        );
    }

    /// Outside any execution the facade falls back to the real atomic.
    #[test]
    fn fallback_outside_executions() {
        let x = AtomicU64::new(7);
        assert_eq!(x.load(Ordering::Acquire), 7);
        x.store(9, Ordering::Release);
        assert_eq!(x.fetch_add(1, Ordering::Relaxed), 9);
        assert_eq!(x.load(Ordering::Acquire), 10);
    }
}
