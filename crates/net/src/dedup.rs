//! The exactly-once layer: idempotency by request id, in one place.
//!
//! A retry of a request whose *reply* was lost must not re-execute the
//! fetch — the first execution already mutated cache residency and
//! statistics. [`ReplyCache`] therefore remembers recent replies keyed by
//! request id and re-delivers them verbatim. The window is bounded FIFO:
//! once a reply is older than `capacity` newer requests, a retry is
//! assumed impossible (the client's retry policy gives up long before
//! then) and the entry is evicted.
//!
//! [`ExactlyOnce`] is the form a serving process shares between its
//! workers, and its only exactly-once mechanism whatever the backend: the
//! first arrival of an id *claims* it and executes with **no lock held**;
//! a retry racing it — on another connection, another worker — parks
//! until the claim completes and then receives the remembered reply.
//! Because nothing is held across execution, an execution may block on
//! another server (a cluster proxy) without deadlocking two servers
//! against each other. A thread that must never park — the server's
//! readiness loop — claims with [`ExactlyOnce::try_serve`] instead, and
//! hands a request it cannot finish to one that may. The simulated
//! transports embed a plain [`ReplyCache`]: they are single-threaded, so
//! nothing can race.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::transport::GroupReply;

/// Default number of replies a server remembers for retry deduplication.
pub const DEFAULT_REPLY_CACHE_CAPACITY: usize = 1024;

/// A bounded FIFO cache of recent [`GroupReply`]s keyed by request id.
#[derive(Debug)]
pub struct ReplyCache {
    capacity: usize,
    replies: HashMap<u64, GroupReply>,
    order: VecDeque<u64>,
    hits: u64,
}

impl ReplyCache {
    /// Creates a cache remembering at most `capacity` replies. A zero
    /// capacity disables deduplication entirely.
    pub fn new(capacity: usize) -> Self {
        let prealloc = capacity.min(DEFAULT_REPLY_CACHE_CAPACITY);
        ReplyCache {
            capacity,
            replies: HashMap::with_capacity(prealloc),
            order: VecDeque::with_capacity(prealloc),
            hits: 0,
        }
    }

    /// Looks up the remembered reply for `request_id`, if still in the
    /// window, counting the hit (see [`ReplyCache::hits`]).
    pub fn get(&mut self, request_id: u64) -> Option<&GroupReply> {
        let found = self.replies.get(&request_id);
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Number of lookups answered from the window so far — the
    /// server-side reply-cache hit counter exported as
    /// [`WireStats::reply_cache_hits`](crate::WireStats::reply_cache_hits).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Remembers `reply` under its request id, evicting the oldest entry
    /// when the window is full. Re-inserting an id refreshes its value
    /// but not its eviction position.
    pub fn insert(&mut self, reply: GroupReply) {
        if self.capacity == 0 {
            return;
        }
        let id = reply.request_id;
        if self.replies.insert(id, reply).is_some() {
            return; // refreshed in place; FIFO position unchanged
        }
        if self.order.len() == self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.replies.remove(&evicted);
            }
        }
        self.order.push_back(id);
    }

    /// Number of replies currently remembered.
    pub fn len(&self) -> usize {
        self.replies.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.replies.is_empty()
    }
}

/// Ids a server can have in flight before the set's storage grows: one
/// per worker, and the default pool is a quarter of this.
const IN_FLIGHT_PREALLOC: usize = 16;

/// A [`ReplyCache`] shared by a server's workers, plus the ids currently
/// executing. See the [module docs](self) for the rule.
#[derive(Debug)]
pub struct ExactlyOnce {
    state: Mutex<InFlight>,
    finished: Condvar,
    /// False for a zero-capacity window: nothing is remembered, so
    /// nothing is tracked either and a retry re-executes.
    enabled: bool,
}

#[derive(Debug)]
struct InFlight {
    cache: ReplyCache,
    /// Claimed ids, at most one per worker: a linear scan beats hashing.
    executing: Vec<u64>,
    /// Retries parked on `finished`. Completion notifies only when this
    /// is non-zero — a futex wake is a syscall even with nobody parked.
    parked: usize,
}

impl ExactlyOnce {
    /// Shares `cache` under the in-flight rule.
    pub fn new(cache: ReplyCache) -> Self {
        ExactlyOnce {
            enabled: cache.capacity > 0,
            state: Mutex::new(InFlight {
                cache,
                executing: Vec::with_capacity(IN_FLIGHT_PREALLOC),
                parked: 0,
            }),
            finished: Condvar::new(),
        }
    }

    /// Serves `request_id`: the remembered reply if there is one,
    /// otherwise `execute()` — run at most once per id within the window,
    /// with no lock held — whose reply is remembered for retries.
    pub fn serve(&self, request_id: u64, execute: impl FnOnce() -> GroupReply) -> GroupReply {
        if !self.enabled {
            return execute();
        }
        let mut state = self.lock();
        loop {
            if let Some(remembered) = state.cache.get(request_id) {
                return remembered.clone();
            }
            if !state.executing.contains(&request_id) {
                // Also where a parked retry lands if the window moved past
                // its reply before it woke: expired, like any late retry.
                break;
            }
            state.parked += 1;
            state = self
                .finished
                .wait(state)
                .expect("a worker panicked while holding the reply cache");
            state.parked -= 1;
        }
        state.executing.push(request_id);
        drop(state);
        let reply = execute();
        self.finish(request_id, Some(&reply));
        reply
    }

    /// [`serve`](Self::serve) for a thread that must never park (the
    /// server's readiness loop): the remembered reply if there is one;
    /// `None` at once if the id is executing elsewhere; otherwise the id
    /// is claimed and `execute()` runs. An execution that declines
    /// (`None`) releases the claim and wakes any retry parked on it, so
    /// the caller can hand the request to [`serve`](Self::serve) on a
    /// thread that may block.
    pub fn try_serve(
        &self,
        request_id: u64,
        execute: impl FnOnce() -> Option<GroupReply>,
    ) -> Option<GroupReply> {
        if !self.enabled {
            return execute();
        }
        let mut state = self.lock();
        if let Some(remembered) = state.cache.get(request_id) {
            return Some(remembered.clone());
        }
        if state.executing.contains(&request_id) {
            return None;
        }
        state.executing.push(request_id);
        drop(state);
        let reply = execute();
        self.finish(request_id, reply.as_ref());
        reply
    }

    /// Releases the claim on `request_id`, remembering its reply if it
    /// executed, and wakes the retries parked on it.
    fn finish(&self, request_id: u64, reply: Option<&GroupReply>) {
        let mut state = self.lock();
        state.executing.retain(|&id| id != request_id);
        if let Some(reply) = reply {
            state.cache.insert(reply.clone());
        }
        let wake = state.parked > 0;
        drop(state);
        if wake {
            self.finished.notify_all();
        }
    }

    /// Retries answered from the window so far (see [`ReplyCache::hits`]).
    pub fn hits(&self) -> u64 {
        self.lock().cache.hits()
    }

    fn lock(&self) -> MutexGuard<'_, InFlight> {
        self.state
            .lock()
            .expect("a worker panicked while holding the reply cache")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(id: u64) -> GroupReply {
        GroupReply {
            request_id: id,
            files: Vec::new(),
        }
    }

    #[test]
    fn remembers_and_returns_replies() {
        let mut c = ReplyCache::new(4);
        assert!(c.is_empty());
        c.insert(reply(7));
        assert_eq!(c.get(7).map(|r| r.request_id), Some(7));
        assert!(c.get(8).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.hits(), 1, "only the answered lookup counts as a hit");
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let mut c = ReplyCache::new(2);
        c.insert(reply(1));
        c.insert(reply(2));
        c.insert(reply(3));
        assert!(c.get(1).is_none(), "oldest entry must be evicted");
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let mut c = ReplyCache::new(2);
        c.insert(reply(1));
        c.insert(reply(1));
        c.insert(reply(2));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_some());
    }

    #[test]
    fn zero_capacity_disables_dedup() {
        let mut c = ReplyCache::new(0);
        c.insert(reply(1));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn racing_retry_parks_and_the_claim_executes_once_with_no_lock_held() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::mpsc::channel;

        let (once, runs) = (&ExactlyOnce::new(ReplyCache::new(4)), &AtomicU64::new(0));
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                once.serve(7, || {
                    runs.fetch_add(1, Ordering::Relaxed);
                    entered_tx.send(()).expect("driver alive");
                    release_rx.recv().expect("driver alive");
                    reply(7)
                })
            });
            entered_rx.recv().expect("first claim executing");
            let retry = scope.spawn(move || {
                once.serve(7, || {
                    runs.fetch_add(1, Ordering::Relaxed);
                    reply(7)
                })
            });
            while once.lock().parked == 0 {
                std::thread::yield_now();
            }
            // Id 7 is mid-execution with a retry parked behind it, and a
            // different id still runs: nothing is held across execution.
            assert_eq!(once.serve(8, || reply(8)).request_id, 8);
            release_tx.send(()).expect("first claim alive");
            let first = first.join().expect("first claim");
            assert_eq!(first, retry.join().expect("parked retry"));
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "the retry never executed");
        assert_eq!(once.hits(), 1, "the retry was answered from the window");
        assert!(once.lock().executing.is_empty());
    }

    #[test]
    fn try_claim_answers_a_remembered_id_without_executing() {
        let once = ExactlyOnce::new(ReplyCache::new(4));
        once.serve(7, || reply(7));
        let answered = once.try_serve(7, || panic!("a remembered id must not execute"));
        assert_eq!(answered, Some(reply(7)));
        assert_eq!(once.hits(), 1);
    }

    #[test]
    fn try_claim_of_an_id_executing_elsewhere_returns_at_once() {
        use std::sync::mpsc::channel;

        let once = &ExactlyOnce::new(ReplyCache::new(4));
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                once.serve(7, || {
                    entered_tx.send(()).expect("driver alive");
                    release_rx.recv().expect("driver alive");
                    reply(7)
                })
            });
            entered_rx.recv().expect("first claim executing");
            // Neither executes nor parks: this thread would hang otherwise.
            let declined = once.try_serve(7, || panic!("the id is claimed elsewhere"));
            assert_eq!(declined, None);
            assert_eq!(once.lock().parked, 0);
            release_tx.send(()).expect("first claim alive");
            first.join().expect("first claim");
        });
        assert_eq!(once.hits(), 0, "a declined try-claim is not a hit");
    }

    #[test]
    fn declined_execution_releases_the_claim_and_wakes_a_parked_retry() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let (once, runs) = (&ExactlyOnce::new(ReplyCache::new(4)), &AtomicU64::new(0));
        // Declined with nobody waiting: the id is left unclaimed, and a
        // later `serve` executes it.
        assert_eq!(once.try_serve(5, || None), None);
        assert!(once.lock().executing.is_empty());
        once.serve(5, || {
            runs.fetch_add(1, Ordering::Relaxed);
            reply(5)
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);

        // Declined with a retry parked behind the claim: the retry wakes,
        // claims the id itself and executes it.
        std::thread::scope(|scope| {
            let mut retry = None;
            let declined = once.try_serve(9, || {
                retry = Some(scope.spawn(move || {
                    once.serve(9, || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        reply(9)
                    })
                }));
                while once.lock().parked == 0 {
                    std::thread::yield_now();
                }
                None
            });
            assert_eq!(declined, None);
            let retry = retry.expect("spawned").join().expect("woken retry");
            assert_eq!(retry, reply(9));
        });
        assert_eq!(runs.load(Ordering::Relaxed), 2, "the retry executed");
        assert_eq!(once.hits(), 0);
        assert!(once.lock().executing.is_empty());
    }

    #[test]
    fn zero_capacity_window_tracks_nothing_and_re_executes() {
        let once = ExactlyOnce::new(ReplyCache::new(0));
        let mut runs = 0;
        for _ in 0..2 {
            once.serve(1, || {
                runs += 1;
                reply(1)
            });
        }
        assert_eq!(runs, 2);
        assert_eq!(once.hits(), 0);
    }
}
