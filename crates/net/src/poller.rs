//! Kernel readiness for the event loop: `poll(2)` and a self-wake.
//!
//! `std` exposes no readiness API, but on unix it already links libc, so
//! `poll(2)` is one `extern "C"` declaration away: no new crate, and the
//! workspace's only `unsafe` block is the call in [`wait`] (`xtask lint`
//! pins both facts). On other targets [`wait`] sleeps a millisecond and
//! reports every entry as maybe-ready, so the server still has one loop.
//!
//! [`Waker`] lets a worker (or `ServerHandle::stop`) interrupt a blocked
//! [`wait`]: a byte on a socket pair the loop polls.

use std::time::Duration;

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

/// Wakes a loop blocked in [`wait`] from another thread: a byte on a
/// nonblocking socket pair the loop polls.
///
/// Every [`wake`](Self::wake) writes one byte, and [`reset`](Self::reset)
/// drains them all. The loop collects its queues after `reset` and before
/// blocking, so a wake is never lost: one that lands before the drain
/// leaves its work for that collection, and one that lands after leaves
/// its byte pending, so the next [`wait`] returns at once.
#[cfg(unix)]
pub(crate) struct Waker {
    rx: std::os::unix::net::UnixStream,
    tx: std::os::unix::net::UnixStream,
}

/// Nothing to poll on this target: [`wait`] never blocks for long.
#[cfg(not(unix))]
pub(crate) struct Waker;

#[cfg(unix)]
impl Waker {
    /// A waker over a fresh nonblocking socket pair.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create or configure the pair.
    pub(crate) fn new() -> std::io::Result<Self> {
        let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// The entry that makes [`wait`] return when [`wake`](Self::wake) is called.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(&self.rx, READ)
    }

    /// Makes the loop's current or next [`wait`] return. Call *after*
    /// queueing whatever the loop should find.
    pub(crate) fn wake(&self) {
        use std::io::Write as _;
        // A full pair (`EAGAIN`) already has a byte pending, so the loop
        // is already woken; any other failure cannot be reported from
        // here and costs one tick of latency at worst.
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every pending wake. The loop calls this when [`wait`]
    /// reports the waker's entry ready, before collecting its queues.
    pub(crate) fn reset(&self) {
        use std::io::Read as _;
        // A full pair holds a few hundred one-byte writes (278 on Linux
        // with default socket buffers), so one read usually drains it.
        let mut sink = [0u8; 512];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
    }
}

#[cfg(not(unix))]
impl Waker {
    /// A waker over nothing: [`wait`] never blocks on this target.
    ///
    /// # Errors
    ///
    /// Never fails; the signature matches the unix one.
    pub(crate) fn new() -> std::io::Result<Self> {
        Ok(Waker)
    }

    /// A placeholder entry; [`wait`] reports every entry ready here.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(self, READ)
    }

    /// Nothing to do: the loop never blocks for long.
    pub(crate) fn wake(&self) {}

    /// Nothing to drain.
    pub(crate) fn reset(&self) {}
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
        let mut fds = [waker.poll_fd()];
        assert_eq!(wait(&mut fds, 10_000), 1);
        assert!(fds[0].ready());

        waker.reset();
        let mut fds = [waker.poll_fd()];
        assert_eq!(wait(&mut fds, 0), 0, "a reset consumes the wake");
    }

    #[test]
    fn wakes_past_a_full_pair_never_block_and_one_reset_drains_them() {
        // The pair fills after a few hundred one-byte writes; the rest
        // meet `EAGAIN`. A blocking write would hang the thread, so the
        // wakes run on one and must finish well inside the time-out.
        let waker = Waker::new().expect("socket pair");
        let (tx, rx) = std::sync::mpsc::channel();
        let waking = std::thread::spawn(move || {
            for _ in 0..1_000 {
                waker.wake();
            }
            let _ = tx.send(waker);
        });
        let waker = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("1 000 wakes without a reset blocked or panicked");
        waking.join().expect("the waking thread panicked");

        let mut fds = [waker.poll_fd()];
        assert_eq!(wait(&mut fds, 0), 1, "a full pair reports the waker ready");
        assert!(fds[0].ready());

        waker.reset();
        let mut fds = [waker.poll_fd()];
        assert_eq!(wait(&mut fds, 0), 0, "one reset drains a full pair");
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
