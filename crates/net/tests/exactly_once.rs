//! The racing-retry contract of [`fgcache_net::dedup`], over real TCP: a
//! [`ServeBackend`] that blocks inside `serve_group` until the test
//! releases it holds one request id mid-execution while retries of that
//! id, and fetches of other ids, arrive on other connections — served by
//! workers, or, for a backend that serves fetches on the loop, beside it.
//!
//! Every wait is on something the backend observed (a condvar), never a
//! sleep. What the server's workers do between popping a job and parking
//! is not observable from outside, so the assertions are the ones that
//! hold on either side of that gap; the parked interleaving itself is
//! forced in `dedup`'s unit tests.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use fgcache_core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::{
    BoundServer, GroupReply, GroupRequest, NetClient, ServeBackend, ServerHandle, Transport,
    WireStats,
};
use fgcache_types::FileId;

/// A group led by this file blocks in the backend until released.
const GATED: FileId = FileId(1);
/// Led by this file, a group passes straight through; the test uses it
/// to learn that every job dispatched before it has reached a worker.
const PROBE: FileId = FileId(2);
const ORIGINAL_ID: u64 = 70;

#[derive(Default)]
struct Observed {
    /// Demand files of the groups that entered `serve_group`, in order.
    entered: Vec<FileId>,
    released: bool,
}

/// A sharded cache whose [`GATED`] groups park inside `serve_group`.
struct GatedBackend {
    cache: ShardedAggregatingCache,
    observed: Mutex<Observed>,
    changed: Condvar,
}

impl Observed {
    fn entries(&self, file: FileId) -> usize {
        self.entered.iter().filter(|&&f| f == file).count()
    }
}

impl GatedBackend {
    fn entries(&self, file: FileId) -> usize {
        self.observed.lock().expect("observed").entries(file)
    }

    /// Blocks until `count` groups led by `file` have entered the backend.
    fn wait_entered(&self, file: FileId, count: usize) {
        let mut observed = self.observed.lock().expect("observed");
        while observed.entries(file) < count {
            observed = self.changed.wait(observed).expect("observed");
        }
    }

    fn release(&self) {
        self.observed.lock().expect("observed").released = true;
        self.changed.notify_all();
    }
}

impl ServeBackend for GatedBackend {
    fn serve_group(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        let demand = files[0];
        let mut observed = self.observed.lock().expect("observed");
        observed.entered.push(demand);
        self.changed.notify_all();
        while demand == GATED && !observed.released {
            observed = self.changed.wait(observed).expect("observed");
        }
        drop(observed);
        self.cache.serve_group(request_id, files)
    }

    fn wire_stats(&self) -> WireStats {
        self.cache.wire_stats()
    }
}

/// The same backend, served on the server's loop for every group but a
/// [`GATED`] one.
struct InlineUnlessGated(Arc<GatedBackend>);

impl ServeBackend for InlineUnlessGated {
    fn serve_group(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        self.0.serve_group(request_id, files)
    }

    fn serve_inline(&self, request_id: u64, files: &[FileId], _owned: bool) -> Option<GroupReply> {
        (files[0] != GATED).then(|| self.0.serve_group(request_id, files))
    }

    fn wire_stats(&self) -> WireStats {
        self.0.wire_stats()
    }
}

fn gated_backend() -> Arc<GatedBackend> {
    Arc::new(GatedBackend {
        cache: ShardedAggregatingCacheBuilder::new(40)
            .shards(2)
            .group_size(1)
            .build()
            .expect("valid build"),
        observed: Mutex::default(),
        changed: Condvar::new(),
    })
}

/// A gated backend and a server bound (not yet running) over it. The
/// backend keeps `serve_inline`'s default, so every fetch goes to a
/// worker.
fn gated_server() -> (BoundServer, Arc<GatedBackend>) {
    let backend = gated_backend();
    let bound =
        BoundServer::bind_backend("127.0.0.1:0", Arc::clone(&backend)).expect("ephemeral bind");
    (bound, backend)
}

/// A client on its own connection that outwaits a closed gate.
fn patient_client(handle: &ServerHandle) -> NetClient {
    NetClient::connect(handle.addr())
        .expect("connect")
        .with_timeout(Duration::from_secs(60))
}

fn req(id: u64, demand: FileId) -> GroupRequest {
    GroupRequest::new(id, vec![demand])
}

/// Sends the original [`GATED`] request on one connection and, once it is
/// inside the backend, a pipelined `[retry, probe]` on a second. Jobs
/// leave the server's queue in order, so when the probe has entered the
/// backend the retry — same id as the original, still executing — is in
/// a worker's hands. (Over [`InlineUnlessGated`] the probe is served on
/// the loop instead, after the retry was handed to the pool.) Returns
/// the two pending exchanges.
fn original_and_retry(
    handle: &ServerHandle,
    backend: &Arc<GatedBackend>,
) -> (
    thread::JoinHandle<GroupReply>,
    thread::JoinHandle<GroupReply>,
) {
    let mut first = patient_client(handle);
    let original = thread::spawn(move || {
        first
            .fetch_group(&req(ORIGINAL_ID, GATED))
            .expect("original")
    });
    backend.wait_entered(GATED, 1);
    let mut second = patient_client(handle);
    let retry = thread::spawn(move || {
        let mut replies = second.fetch_batch(&[req(ORIGINAL_ID, GATED), req(71, PROBE)]);
        replies.swap_remove(0).expect("retry")
    });
    backend.wait_entered(PROBE, 1);
    (original, retry)
}

#[test]
fn racing_retry_waits_for_its_original_and_is_answered_from_the_window() {
    let (bound, backend) = gated_server();
    let handle = bound.spawn();
    let (original, retry) = original_and_retry(&handle, &backend);
    assert_eq!(backend.entries(GATED), 1, "the retry must not execute");
    backend.release();
    let original = original.join().expect("original thread");
    let retry = retry.join().expect("retry thread");
    assert_eq!(
        original, retry,
        "byte-identical replies, provenance included"
    );
    assert_eq!(
        backend.entries(GATED),
        1,
        "the backend executed the id once"
    );
    assert_eq!(
        backend.cache.stats().accesses,
        2,
        "gated file + probe, once each"
    );
    let stats = patient_client(&handle).server_stats().expect("stats reply");
    assert_eq!(stats.reply_cache_hits, 1, "exactly the retry");
    handle.stop();
}

/// Pins "no lock held across execution": were `serve_group` run under a
/// server-wide reply-cache lock, the second fetch could not start until
/// the first returned, and would time out here instead.
#[test]
fn other_ids_complete_while_one_id_is_parked_in_the_backend() {
    let (bound, backend) = gated_server();
    let handle = bound.spawn();
    let mut first = patient_client(&handle);
    let parked = thread::spawn(move || first.fetch_group(&req(ORIGINAL_ID, GATED)).expect("gated"));
    backend.wait_entered(GATED, 1);
    let mut other = NetClient::connect(handle.addr())
        .expect("connect")
        .with_timeout(Duration::from_secs(5));
    let reply = other
        .fetch_group(&req(80, FileId(9)))
        .expect("no lock is held across the parked execution");
    assert_eq!(reply.files[0].file, FileId(9));
    assert_eq!(backend.entries(GATED), 1);
    assert!(!parked.is_finished(), "the gated fetch is still executing");
    backend.release();
    parked.join().expect("gated thread");
    handle.stop();
}

/// The loop never waits on a backend or on a claim. The original of a
/// gated id is parked in the backend on a worker, and its retry — found
/// executing by the loop's try-claim — went to the pool rather than
/// parking the loop: the probe pipelined behind it was served on the
/// loop, and so is a fetch on a third connection.
#[test]
fn the_loop_serves_inline_while_a_claim_and_its_retry_wait_on_workers() {
    let backend = gated_backend();
    let handle = BoundServer::bind_backend(
        "127.0.0.1:0",
        Arc::new(InlineUnlessGated(Arc::clone(&backend))),
    )
    .expect("ephemeral bind")
    .spawn();
    let (original, retry) = original_and_retry(&handle, &backend);
    let mut third = NetClient::connect(handle.addr())
        .expect("connect")
        .with_timeout(Duration::from_secs(5));
    let reply = third
        .fetch_group(&req(80, FileId(9)))
        .expect("served on the loop while the gated id waits");
    assert_eq!(reply.files[0].file, FileId(9));
    assert!(!original.is_finished() && !retry.is_finished());
    backend.release();
    let original = original.join().expect("original thread");
    assert_eq!(original, retry.join().expect("retry thread"));
    assert_eq!(
        backend.entries(GATED),
        1,
        "the backend executed the id once"
    );
    let stats = patient_client(&handle).server_stats().expect("stats reply");
    assert_eq!(
        stats.reply_cache_hits, 1,
        "the retry got the remembered reply"
    );
    handle.stop();
}

#[test]
fn zero_window_parks_nothing_and_executes_every_copy() {
    let (bound, backend) = gated_server();
    let handle = bound.with_dedup_capacity(0).spawn();
    let (original, retry) = original_and_retry(&handle, &backend);
    // No window, no in-flight tracking: the retry enters the backend
    // beside its original instead of waiting for it.
    backend.wait_entered(GATED, 2);
    backend.release();
    original.join().expect("original thread");
    retry.join().expect("retry thread");
    assert_eq!(
        backend.cache.stats().accesses,
        3,
        "both copies and the probe"
    );
    let stats = patient_client(&handle).server_stats().expect("stats reply");
    assert_eq!(stats.reply_cache_hits, 0, "no window, no hits");
    handle.stop();
}

#[test]
fn stop_releases_a_parked_retry_with_its_reply() {
    let (bound, backend) = gated_server();
    let stop_requested = bound.shutdown_flag();
    let handle = bound.spawn();
    let (original, retry) = original_and_retry(&handle, &backend);
    // Stop while the original executes and the retry waits on it. Both
    // were dispatched before the stop, so the drain owes both a reply.
    stop_requested.store(true, Ordering::Release);
    backend.release();
    let original = original.join().expect("original thread");
    assert_eq!(original, retry.join().expect("retry thread"));
    assert_eq!(backend.entries(GATED), 1);
    // Joins the workers: returning at all shows none stayed parked.
    handle.stop();
}
