//! Event-loop integration tests: backpressure, slow clients, the
//! connection cap, and frames arriving one byte at a time — the failure
//! modes a readiness loop owns that a thread-per-connection server never
//! saw — and what the loop costs while it waits, asserted on its pass and
//! time-out counters rather than on the clock.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fgcache_core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::server::LoopCounters;
use fgcache_net::wire::{read_frame, write_frame};
use fgcache_net::{BoundServer, GroupRequest, Message, NetClient, ServerHandle, Transport};
use fgcache_types::FileId;

fn cache(capacity: usize) -> Arc<ShardedAggregatingCache> {
    Arc::new(
        ShardedAggregatingCacheBuilder::new(capacity)
            .shards(2)
            .group_size(2)
            .build()
            .expect("valid build"),
    )
}

fn bound(capacity: usize) -> BoundServer {
    BoundServer::bind("127.0.0.1:0", cache(capacity)).expect("ephemeral bind")
}

fn req(id: u64, files: &[u64]) -> GroupRequest {
    GroupRequest::new(id, files.iter().map(|&f| FileId(f)).collect())
}

fn fetch_frame(id: u64, files: &[u64]) -> Vec<u8> {
    Message::Fetch {
        request_id: id,
        files: files.iter().map(|&f| FileId(f)).collect(),
    }
    .encode()
}

/// The loop's documented tick: how often it looks up with nothing ready.
const TICK: Duration = Duration::from_millis(50);

/// Blocks until the loop has next slept through a whole tick with nothing
/// to do — "idle", in a form no host speed changes — and returns the
/// time-out count. (The deadline only turns a hang into a failure.)
fn wait_for_idle_tick(counters: &LoopCounters) -> u64 {
    let before = counters.poll_timeouts();
    let deadline = Instant::now() + Duration::from_secs(20);
    while counters.poll_timeouts() == before {
        assert!(
            Instant::now() < deadline,
            "the loop never sat out a tick: it is spinning, or it does not tick"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    counters.poll_timeouts()
}

/// Passes made since `(passes, time-outs)` was sampled that no tick
/// accounts for.
fn unforced_passes(counters: &LoopCounters, since: (u64, u64)) -> u64 {
    let passes = counters.passes() - since.0;
    let ticks = counters.poll_timeouts() - since.1;
    passes.saturating_sub(ticks)
}

#[test]
fn silent_connections_cost_one_pass_per_tick_and_wake_in_constant_passes() {
    let handle = bound(100).spawn();
    let counters = handle.loop_counters();
    let mut clients: Vec<NetClient> = (0..8)
        .map(|_| NetClient::connect(handle.addr()).expect("connect"))
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        client.fetch_group(&req(i as u64, &[1])).expect("warm-up");
    }

    // Silence: the only passes are the ones the tick forces, and ticks
    // cannot come faster than the clock allows. (The loop this replaced
    // made ~700 passes here, and no time-outs at all.)
    wait_for_idle_tick(&counters);
    let start = (counters.passes(), counters.poll_timeouts());
    let began = Instant::now();
    std::thread::sleep(Duration::from_millis(400));
    let ticks = counters.poll_timeouts() - start.1;
    let most_ticks = (began.elapsed().as_millis() / TICK.as_millis()) as u64 + 1;
    assert!(ticks >= 1 && ticks <= most_ticks, "{ticks} ticks");
    assert!(
        unforced_passes(&counters, start) <= 1,
        "an idle loop passed {} times in {ticks} ticks",
        counters.passes() - start.0
    );

    // The first fetch on each long-quiet connection costs a handful of
    // passes (read + dispatch, completion + write, and a look around
    // before each block), not a scan period.
    for (i, client) in clients.iter_mut().enumerate() {
        let before = (counters.passes(), counters.poll_timeouts());
        client
            .fetch_group(&req(100 + i as u64, &[2]))
            .expect("first fetch after silence");
        let added = unforced_passes(&counters, before);
        assert!(added <= 8, "one fetch cost {added} passes");
    }
    handle.stop();
}

#[test]
fn a_pipelined_burst_costs_a_few_passes_not_one_per_frame() {
    // 64 fetches in one write: the loop takes them with one read, serves
    // them on the loop, and sends the 64 replies in one write. Handing
    // each frame to a worker and waking for its completion cost up to 47
    // passes a round.
    const BURST: u64 = 64;
    let handle = bound(400).spawn();
    let counters = handle.loop_counters();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // Accepted, served once, and back asleep before the first round.
    write_frame(&mut stream, &Message::StatsRequest { request_id: 0 }).expect("warm-up");
    read_frame(&mut stream).expect("warm-up reply");
    wait_for_idle_tick(&counters);

    let mut worst = 0;
    for round in 0..20u64 {
        let ids = round * BURST + 1..(round + 1) * BURST + 1;
        let burst: Vec<u8> = ids
            .clone()
            .flat_map(|id| fetch_frame(id, &[id % 23]))
            .collect();
        let before = (counters.passes(), counters.poll_timeouts());
        stream.write_all(&burst).expect("one write");
        for id in ids {
            match read_frame(&mut stream).expect("reply") {
                Message::FetchReply { request_id, files } => {
                    assert_eq!(request_id, id, "in-order replies");
                    assert_eq!(files[0].file, FileId(id % 23));
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        worst = worst.max(unforced_passes(&counters, before));
    }
    assert!(worst <= 4, "a {BURST}-frame burst cost {worst} passes");
    handle.stop();
}

#[test]
fn stop_wakes_the_loop_and_a_bare_flag_store_is_seen_within_a_tick() {
    // stop() on an idle server: the loop is woken, so it exits without a
    // further time-out. A tick can still land between the sample and the
    // stop, so up to three servers are tried; a loop that had to wait for
    // its tick would show a time-out every time.
    let woken = (0..3).any(|_| {
        let handle = bound(50).spawn();
        let counters = handle.loop_counters();
        let before = wait_for_idle_tick(&counters);
        handle.stop();
        counters.poll_timeouts() == before
    });
    assert!(
        woken,
        "stop() waited for the tick instead of waking the loop"
    );

    // A store to the flag alone, with nobody waking the loop: it exits at
    // its next tick. A silent connection sees the server go (EOF) without
    // this test touching the handle.
    let server = bound(50);
    let flag = server.shutdown_flag();
    let handle = server.spawn();
    let counters = handle.loop_counters();
    let mut witness = TcpStream::connect(handle.addr()).expect("connect");
    witness
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    wait_for_idle_tick(&counters);
    flag.store(true, Ordering::Release);
    let before = counters.poll_timeouts();
    let mut rest = Vec::new();
    witness
        .read_to_end(&mut rest)
        .expect("the server closes once it sees the flag");
    assert!(rest.is_empty());
    handle.stop();
    assert!(
        counters.poll_timeouts() <= before + 1,
        "the flag was not seen at the first tick after it was stored"
    );
}

#[test]
fn backpressured_connection_with_a_full_send_buffer_does_not_spin_the_loop() {
    // The stall of `slow_reader_backpressure_…`, made certain: a client
    // that writes requests until the kernel refuses more and never reads.
    // The server's reply buffer is over its cap and its socket will take
    // no more, so it reads nothing either — and must then *wait*: the
    // connection is out of the read set, and a full send buffer is not
    // write-ready.
    let handle = bound(400).with_queue_limits(16, 2 * 1024).spawn();
    let counters = handle.loop_counters();
    let mut brisk = NetClient::connect(handle.addr()).expect("brisk connect");
    let slow = TcpStream::connect(handle.addr()).expect("slow connect");
    slow.set_nonblocking(true).expect("nonblocking");
    let files: Vec<u64> = (0..100).collect();
    let frame = fetch_frame(7, &files);
    // Writes until refused; a torn last frame is fine, it is never read.
    let fill = || loop {
        match (&slow).write(&frame) {
            Ok(_) => {}
            Err(err) if err.kind() == ErrorKind::WouldBlock => break,
            Err(err) => panic!("pipelining failed: {err}"),
        }
    };

    // The kernel squeezes a little more room out of full buffers for a
    // while, so a stall is judged after the fact: three ticks across
    // which the server executed nothing and the client could write
    // nothing. Over those, only the ticks may have cost passes (a flush
    // into freed buffer space that stops short of un-stalling the reads
    // may add a wake or two).
    let stalled = (0..200).find_map(|_| {
        fill();
        let executed = brisk.server_stats().expect("stats").accesses;
        wait_for_idle_tick(&counters);
        let start = (counters.passes(), counters.poll_timeouts());
        while counters.poll_timeouts() < start.1 + 3 {
            wait_for_idle_tick(&counters);
        }
        let unforced = unforced_passes(&counters, start);
        let refused =
            matches!((&slow).write(&frame), Err(err) if err.kind() == ErrorKind::WouldBlock);
        (refused && brisk.server_stats().expect("stats").accesses == executed).then_some(unforced)
    });
    let unforced = stalled.expect("the connection never stalled");
    assert!(unforced <= 4, "a stalled connection cost {unforced} passes");

    // Other connections are served in a handful of passes each, as ever.
    let before = (counters.passes(), counters.poll_timeouts());
    brisk.fetch_group(&req(2, &[4])).expect("brisk fetch");
    assert!(unforced_passes(&counters, before) <= 8);

    // The stalled peer hangs up with replies still queued for it: the
    // loop drops the connection and goes back to sleep.
    drop(slow);
    wait_for_idle_tick(&counters);
    brisk
        .fetch_group(&req(3, &[5]))
        .expect("healthy after the hang-up");
    handle.stop();
}

#[test]
fn pipelined_batch_larger_than_the_pending_cap_replies_in_order() {
    // 100 requests pipelined on one connection against a server that
    // allows only 8 in flight: reading pauses at the cap and resumes as
    // workers drain, and the reorder buffer still releases every reply
    // in request order (the batched client matches replies by position).
    let handle: ServerHandle = bound(300).with_queue_limits(8, 4 * 1024).spawn();
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    let batch: Vec<GroupRequest> = (0..100u64).map(|i| req(i, &[i % 17, i % 5])).collect();
    let replies = client.fetch_batch(&batch);
    assert_eq!(replies.len(), 100);
    for (result, request) in replies.iter().zip(&batch) {
        let reply = result.as_ref().expect("pipelined fetch");
        assert_eq!(reply.request_id, request.request_id, "in-order release");
        assert_eq!(reply.files.len(), request.files.len());
    }
    handle.stop();
}

#[test]
fn connection_cap_defers_accepts_until_a_slot_frees() {
    // max_conns = 1: the second client's connection sits in the kernel
    // backlog (established, unaccepted) and is served — never refused,
    // never panicking — once the first client disconnects.
    let handle = bound(100).with_max_conns(1).spawn();
    let addr = handle.addr().to_string();

    let mut first = NetClient::connect(&addr).expect("first connect");
    first.fetch_group(&req(0, &[1])).expect("first fetch");

    let second_addr = addr.clone();
    let second = std::thread::spawn(move || {
        let mut client = NetClient::connect(&second_addr)
            .expect("backlogged connect")
            .with_timeout(Duration::from_secs(10));
        client.fetch_group(&req(1, &[2])).expect("deferred fetch")
    });

    // Give the second client time to be genuinely waiting, then free the
    // only slot.
    std::thread::sleep(Duration::from_millis(200));
    drop(first);

    let reply = second.join().expect("second client thread");
    assert_eq!(reply.request_id, 1);
    assert_eq!(reply.files[0].file, FileId(2));
    handle.stop();
}

#[test]
fn slow_reader_backpressure_leaves_other_connections_unaffected() {
    // A client that pipelines 300 requests and reads nothing: its
    // outbound queue fills past the (tiny) cap, the server stops reading
    // its socket, and a well-behaved client on another connection keeps
    // round-tripping normally. When the slow reader finally drains, every
    // reply arrives, in order — nothing was dropped under pressure.
    let handle = bound(400).with_queue_limits(16, 2 * 1024).spawn();

    let mut slow = TcpStream::connect(handle.addr()).expect("slow connect");
    slow.set_nodelay(true).expect("nodelay");
    slow.set_write_timeout(Some(Duration::from_secs(10)))
        .expect("write timeout");
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let files: Vec<u64> = (0..100).collect();
    for id in 0..300u64 {
        slow.write_all(&fetch_frame(id, &files)).expect("pipeline");
    }

    // The slow reader is now saturated (16 in flight, ~2 KiB of replies
    // queued, the rest parked in kernel buffers). The other connection
    // must not notice.
    let mut brisk = NetClient::connect(handle.addr()).expect("brisk connect");
    for i in 0..50u64 {
        let reply = brisk
            .fetch_group(&req(1_000_000 + i, &[i % 7]))
            .expect("brisk fetch while the slow reader is stalled");
        assert_eq!(reply.files.len(), 1);
    }

    // Now drain: all 300 replies, in request order.
    for id in 0..300u64 {
        match read_frame(&mut slow).expect("drained reply") {
            Message::FetchReply { request_id, files } => {
                assert_eq!(request_id, id, "in-order release under pressure");
                assert_eq!(files.len(), 100);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    handle.stop();
}

#[test]
fn frame_split_across_single_byte_writes_is_reassembled() {
    let handle = bound(50).spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    let frame = fetch_frame(42, &[7, 8]);
    for &byte in &frame {
        stream.write_all(&[byte]).expect("one byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    match read_frame(&mut stream).expect("reassembled") {
        Message::FetchReply { request_id, files } => {
            assert_eq!(request_id, 42);
            assert_eq!(files.len(), 2);
            assert_eq!(files[0].file, FileId(7));
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // The connection stays usable for a normally-written frame.
    write_frame(
        &mut stream,
        &Message::Fetch {
            request_id: 43,
            files: vec![FileId(9)],
        },
    )
    .expect("write");
    match read_frame(&mut stream).expect("second reply") {
        Message::FetchReply { request_id, .. } => assert_eq!(request_id, 43),
        other => panic!("unexpected reply {other:?}"),
    }
    handle.stop();
}

#[test]
fn half_close_still_flushes_every_owed_reply() {
    // A client that pipelines requests and closes its write side is owed
    // every reply before the server parts with the connection.
    let handle = bound(100).spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    for id in 0..10u64 {
        stream.write_all(&fetch_frame(id, &[id])).expect("pipeline");
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    for id in 0..10u64 {
        match read_frame(&mut stream).expect("owed reply") {
            Message::FetchReply { request_id, .. } => assert_eq!(request_id, id),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    // After the last owed reply the server closes; EOF, not garbage.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());
    handle.stop();
}

#[test]
fn malformed_frame_hangs_up_without_poisoning_the_server() {
    let handle = bound(50).spawn();

    // Garbage with a plausible length prefix: the server must hang up on
    // that connection only.
    let mut bad = TcpStream::connect(handle.addr()).expect("connect");
    bad.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    bad.write_all(&5u32.to_le_bytes()).expect("length");
    bad.write_all(&[99, 99, 99, 99, 99]).expect("garbage");
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).expect("hangup");
    assert!(rest.is_empty(), "no reply to garbage, just a close");

    // The server is still healthy for everyone else.
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    client.fetch_group(&req(0, &[3])).expect("healthy fetch");
    handle.stop();
}
