//! Kernel readiness for the event loop: `poll(2)` and a self-wake.
//!
//! `std` exposes no readiness API, but on unix it already links libc, so
//! `poll(2)` is one `extern "C"` declaration away: no new crate, and the
//! workspace's only `unsafe` block is the call in [`wait`] (`xtask lint`
//! pins both facts). On other targets [`wait`] sleeps a millisecond and
//! reports every entry as maybe-ready, so the server still has one loop.
//!
//! [`Waker`] lets a worker (or `ServerHandle::stop`) interrupt a blocked
//! [`wait`]: a byte on a socket pair the loop polls, behind a flag that
//! coalesces wakes to one byte per loop wake-up. The flag goes through
//! the `fgcache_types::sync` facade, so the interleaving explorer checks
//! the protocol (the model tests below).

use std::time::Duration;

use fgcache_types::sync::{AtomicU64, Ordering};

/// Interest in (and, after [`wait`], readiness for) reading: `POLLIN`.
pub(crate) const READ: i16 = 0x001;
/// Interest in writing: `POLLOUT`.
pub(crate) const WRITE: i16 = 0x004;

/// One entry of a [`wait`] set, laid out as C's `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry asking about `events` ([`READ`] and/or [`WRITE`]) on `source`.
    #[cfg(unix)]
    pub(crate) fn new(source: &impl std::os::fd::AsRawFd, events: i16) -> Self {
        PollFd {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// An entry asking about `events` ([`READ`] and/or [`WRITE`]) on `source`.
    #[cfg(not(unix))]
    pub(crate) fn new<T>(_source: &T, events: i16) -> Self {
        PollFd {
            fd: -1,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything for this entry. Hang-up
    /// and error bits count: the owner's next `read` or `write` is what
    /// discovers which it was.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[cfg(any(
    target_vendor = "apple",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
))]
type Nfds = std::os::raw::c_uint;
#[cfg(all(
    unix,
    not(any(
        target_vendor = "apple",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd",
        target_os = "dragonfly"
    ))
))]
type Nfds = std::os::raw::c_ulong;

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout_ms` passes, and
/// returns how many entries are ready (0 on a time-out, and on `EINTR`,
/// which is a wake with nothing ready rather than an error).
#[cfg(unix)]
#[allow(unsafe_code)]
pub(crate) fn wait(fds: &mut [PollFd], timeout_ms: i32) -> usize {
    // SAFETY: the pointer and length describe exactly the exclusively
    // borrowed slice `fds`, whose elements are `#[repr(C)]` with the
    // field order and types of `struct pollfd`; `poll` writes only the
    // `revents` fields inside that slice and keeps nothing once it returns.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
    match usize::try_from(ready) {
        Ok(ready) => ready,
        Err(_) if std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted => 0,
        // Out of kernel memory, or more entries than RLIMIT_NOFILE: keep
        // serving by attempting I/O, as a target without `poll` does.
        Err(_) => assume_ready(fds),
    }
}

/// Without `poll(2)`: a short sleep, then every entry counts as ready.
#[cfg(not(unix))]
pub(crate) fn wait(fds: &mut [PollFd], _timeout_ms: i32) -> usize {
    assume_ready(fds)
}

/// Readiness by attempting I/O: nothing is known, so everything is tried,
/// paced by a sleep short enough not to show as latency.
fn assume_ready(fds: &mut [PollFd]) -> usize {
    std::thread::sleep(Duration::from_millis(1));
    for fd in fds.iter_mut() {
        fd.revents = fd.events;
    }
    fds.len()
}

/// The byte channel under a [`Waker`]. A trait so the model tests can run
/// the real wake protocol over a counter instead of a socket.
pub(crate) trait Pipe {
    /// Makes the channel readable (one byte).
    fn put(&self);
    /// Consumes every byte put so far.
    fn drain(&self);
}

/// A nonblocking socket pair: `put` writes to one end, the loop polls and
/// drains the other.
#[cfg(unix)]
pub(crate) struct SocketPair {
    rx: std::os::unix::net::UnixStream,
    tx: std::os::unix::net::UnixStream,
}

/// Nothing to poll on this target: [`wait`] never blocks for long.
#[cfg(not(unix))]
pub(crate) struct SocketPair;

#[cfg(unix)]
impl SocketPair {
    fn new() -> std::io::Result<Self> {
        let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(SocketPair { rx, tx })
    }

    fn poll_fd(&self) -> PollFd {
        PollFd::new(&self.rx, READ)
    }
}

#[cfg(unix)]
impl Pipe for SocketPair {
    fn put(&self) {
        use std::io::Write as _;
        // A full pipe already wakes the loop; any other failure cannot be
        // reported from here and costs one tick of latency at worst.
        let _ = (&self.tx).write(&[1]);
    }

    fn drain(&self) {
        use std::io::Read as _;
        let mut sink = [0u8; 64];
        // Wakes are coalesced, so one short read is the common case.
        while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
    }
}

#[cfg(not(unix))]
impl SocketPair {
    fn new() -> std::io::Result<Self> {
        Ok(SocketPair)
    }

    fn poll_fd(&self) -> PollFd {
        PollFd::new(self, READ)
    }
}

#[cfg(not(unix))]
impl Pipe for SocketPair {
    fn put(&self) {}
    fn drain(&self) {}
}

/// Wakes a loop blocked in [`wait`] from another thread.
///
/// Protocol: `notified` is 1 from the first [`wake`](Self::wake) after a
/// [`reset`](Self::reset) until that loop's next `reset`, and only the
/// `wake` that flips it writes a byte — so at most one byte per reset,
/// however many completions arrive. `reset` drains *before* it clears the
/// flag: while the flag is 1 the byte that set it is still pending or
/// about to be written, so a `wake` that finds the flag set may skip the
/// write. The loop collects its queues after `reset` and before blocking,
/// which covers a `wake` that lands between the drain and the clear.
pub(crate) struct Waker<P: Pipe = SocketPair> {
    notified: AtomicU64,
    pipe: P,
}

impl Waker {
    /// A waker over a fresh nonblocking socket pair (over nothing, on a
    /// target whose [`wait`] never blocks).
    ///
    /// # Errors
    ///
    /// Propagates the failure to create or configure the pair.
    pub(crate) fn new() -> std::io::Result<Self> {
        Ok(Waker {
            notified: AtomicU64::new(0),
            pipe: SocketPair::new()?,
        })
    }

    /// The entry that makes [`wait`] return when [`wake`](Self::wake) is called.
    pub(crate) fn poll_fd(&self) -> PollFd {
        self.pipe.poll_fd()
    }
}

impl<P: Pipe> Waker<P> {
    /// Makes the loop's current or next [`wait`] return. Call *after*
    /// queueing whatever the loop should find.
    pub(crate) fn wake(&self) {
        if self.notified.swap(1, Ordering::AcqRel) == 0 {
            self.pipe.put();
        }
    }

    /// Re-arms the waker. The loop calls this when [`wait`] reports the
    /// waker's entry ready, before collecting its queues.
    pub(crate) fn reset(&self) {
        self.pipe.drain();
        self.notified.swap(0, Ordering::AcqRel);
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn wait_times_out_on_a_quiet_waker_and_returns_at_once_after_wake() {
        let waker = Waker::new().expect("socket pair");
        let mut fds = [waker.poll_fd()];
        assert_eq!(wait(&mut fds, 0), 0);
        assert!(!fds[0].ready());

        waker.wake();
        waker.wake(); // coalesced: no second byte
        let mut fds = [waker.poll_fd()];
        assert_eq!(wait(&mut fds, 10_000), 1);
        assert!(fds[0].ready());

        waker.reset();
        let mut fds = [waker.poll_fd()];
        assert_eq!(wait(&mut fds, 0), 0, "one reset consumes every wake");
    }

    #[test]
    fn wait_reports_write_interest_and_hang_up() {
        let (a, b) = std::os::unix::net::UnixStream::pair().expect("socket pair");
        let mut fds = [PollFd::new(&a, WRITE), PollFd::new(&a, READ)];
        assert_eq!(wait(&mut fds, 0), 1, "an empty send buffer is writable");
        assert!(fds[0].ready() && !fds[1].ready());

        drop(b);
        let mut fds = [PollFd::new(&a, READ)];
        assert_eq!(wait(&mut fds, 10_000), 1, "a hang-up is reported as ready");
    }
}

/// The wake protocol under the interleaving explorer (`fgcache_types::
/// sync::model`, DESIGN.md §14): the real [`Waker::wake`] and
/// [`Waker::reset`] over a counter in place of the socket pair.
#[cfg(all(test, feature = "fgcache_model"))]
mod model_tests {
    use super::*;
    use fgcache_types::sync::model::{explore, ModelMutex, ModelOptions, Scope};

    /// The socket pair as a counter of pending bytes; `puts` totals every
    /// byte ever written (a plain counter: it is read after the join).
    struct CounterPipe {
        pending: AtomicU64,
        puts: std::sync::atomic::AtomicU64,
    }

    impl Pipe for CounterPipe {
        fn put(&self) {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.pending.fetch_add(1, Ordering::AcqRel);
        }
        fn drain(&self) {
            self.pending.swap(0, Ordering::AcqRel);
        }
    }

    impl Waker<CounterPipe> {
        fn model() -> Self {
            Waker {
                notified: AtomicU64::new(0),
                pipe: CounterPipe {
                    pending: AtomicU64::new(0),
                    puts: std::sync::atomic::AtomicU64::new(0),
                },
            }
        }

        /// Whether a `wait` on this waker would return at once.
        fn readable(&self) -> bool {
            self.pipe.pending.load(Ordering::Acquire) > 0
        }
    }

    type Protocol = dyn Fn(&Waker<CounterPipe>) + Sync;

    /// Two workers (`push_done` → `wake`) against a loop making two
    /// passes (`reset` if the waker is readable → `drain_done`), then
    /// quiescence: the loop keeps waking while a byte is pending and
    /// finally blocks. `wake` and `reset` are parameters so the seeded
    /// mutations below can swap in wrong ones.
    fn scenario(scope: &Scope, wake: &Protocol, reset: &Protocol) {
        let waker = Waker::model();
        let done = ModelMutex::new(0u32);
        let resets = std::sync::atomic::AtomicU64::new(0);
        let pass = || {
            if waker.readable() {
                reset(&waker);
                resets.fetch_add(1, Ordering::Relaxed);
            }
            *done.lock() = 0;
        };
        let worker = || {
            *done.lock() += 1;
            wake(&waker);
        };
        let event_loop = || {
            pass();
            pass();
        };
        scope.threads(&[&worker, &worker, &event_loop]);
        while waker.readable() {
            pass();
        }
        // Blocked, no byte pending, and nobody left to write one.
        assert_eq!(
            *done.lock(),
            0,
            "a completion is queued while the loop is blocked with no byte pending"
        );
        // The flag must not be left set without its byte: the next wake
        // has to reach the blocked loop.
        wake(&waker);
        assert!(
            waker.readable(),
            "a wake after quiescence did not reach the blocked loop"
        );
        // Three wakes in all, and only a reset lets the next one write.
        let puts = waker.pipe.puts.load(Ordering::Relaxed);
        assert!(
            puts <= resets.load(Ordering::Relaxed) + 1,
            "more than one byte per loop wake-up"
        );
    }

    #[test]
    fn model_wake_never_strands_a_completion_and_coalesces_bytes() {
        let report = explore(&ModelOptions::default(), |scope: &Scope| {
            scenario(scope, &|waker| waker.wake(), &|waker| waker.reset());
        });
        assert!(report.schedules > 100, "scenario must actually interleave");
    }

    /// Mutation: clearing the flag *before* draining lets a wake land in
    /// between, write its byte, and have it drained with the flag left
    /// set — every later wake is then skipped. The explorer must find it.
    #[test]
    #[should_panic(expected = "a wake after quiescence did not reach the blocked loop")]
    fn model_mutation_clear_before_drain_is_caught() {
        explore(&ModelOptions::default(), |scope: &Scope| {
            scenario(scope, &|waker| waker.wake(), &|waker| {
                waker.notified.swap(0, Ordering::AcqRel);
                waker.pipe.drain();
            });
        });
    }

    /// Mutation: a wake that always writes is safe but not coalesced —
    /// the byte bound is what notices.
    #[test]
    #[should_panic(expected = "more than one byte per loop wake-up")]
    fn model_mutation_uncoalesced_wake_is_caught() {
        explore(&ModelOptions::default(), |scope: &Scope| {
            scenario(
                scope,
                &|waker| {
                    waker.notified.swap(1, Ordering::AcqRel);
                    waker.pipe.put();
                },
                &|waker| waker.reset(),
            );
        });
    }
}
