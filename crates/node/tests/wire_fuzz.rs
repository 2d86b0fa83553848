//! Failure injection against the TCP front-end, from the raw socket up.
//!
//! Every attack in this suite drives hostile bytes at a live
//! [`NodeServer`] and asserts the server's failure contract: the
//! violation is answered with a **typed** [`Reply::Error`] (best
//! effort) on seq 0, only the offending connection is torn down, and a
//! healthy client opened *before* the attack keeps scoring
//! bit-identically afterwards. The hostile-length attack additionally
//! relies on the reader's before-allocation bound: a 4 GiB declared
//! length must be refused from the 12-byte header alone. Two tests turn
//! the roles around: a raw peer that closes its sending side, or that
//! answers with a corrupt reply frame, must make a [`NodeClient`]'s
//! in-flight and later requests fail, not wait forever.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use sdc_core::model::ModelConfig;
use sdc_core::score::contrast_scores_shared;
use sdc_core::ContrastiveModel;
use sdc_data::Sample;
use sdc_nn::models::EncoderConfig;
use sdc_node::wire::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, write_frame, Reply,
    Request, FLAG_TRACE, FRAME_MAGIC, MAX_FRAME,
};
use sdc_node::{NodeClient, NodeError, NodeServer};
use sdc_obs::{SpanId, TraceContext, TraceId};
use sdc_serve::{ReplicaSet, ServeConfig};
use sdc_tensor::Tensor;

fn tiny_model(seed: u64) -> ContrastiveModel {
    ContrastiveModel::new(&ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 8,
        projection_dim: 4,
        seed,
    })
}

fn samples(n: usize, seed: u64) -> Vec<Sample> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    (0..n).map(|i| Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, i as u64)).collect()
}

/// A live server, a reference copy of its model, and a healthy client
/// opened before any attack runs.
struct Fixture {
    server: NodeServer,
    reference: ContrastiveModel,
    healthy: NodeClient,
}

impl Fixture {
    fn start(seed: u64) -> Self {
        let model = tiny_model(seed);
        let reference = model.clone();
        let replicas = Arc::new(ReplicaSet::start(
            model,
            ServeConfig { replicas: 2, ..ServeConfig::default() },
        ));
        let server = NodeServer::start(replicas).expect("start server");
        let healthy = NodeClient::connect(server.addr()).expect("connect healthy client");
        Self { server, reference, healthy }
    }

    /// A raw attacker socket with a read timeout so a server that
    /// wrongly hangs fails the test instead of wedging it.
    fn raw_socket(&self) -> TcpStream {
        let socket = TcpStream::connect(self.server.addr()).expect("connect raw socket");
        socket.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
        socket
    }

    /// The healthy client — opened before the attack — still scores
    /// bit-identically to direct in-process scoring.
    fn assert_still_serving(&self, seed: u64) {
        let pool = samples(3, seed);
        let remote = self.healthy.score(seed, pool.clone()).expect("healthy client score");
        assert_eq!(
            remote,
            contrast_scores_shared(&self.reference, &pool).expect("direct score"),
            "server stopped scoring correctly after an attack"
        );
    }
}

/// Sends `bytes` on a fresh connection, half-closes the write side, and
/// returns the server's replies until the connection ends.
fn attack(fixture: &Fixture, bytes: &[u8]) -> Vec<Reply> {
    let mut socket = fixture.raw_socket();
    socket.write_all(bytes).expect("write attack bytes");
    socket.flush().expect("flush attack bytes");
    socket.shutdown(Shutdown::Write).expect("half-close write side");
    drain_replies(&mut socket)
}

fn drain_replies(socket: &mut TcpStream) -> Vec<Reply> {
    let mut replies = Vec::new();
    // Clean close, reset, or timeout-after-shutdown ends the drain:
    // the connection is over either way.
    while let Ok(Some((payload, _))) = read_frame(socket) {
        replies.push(decode_reply(&payload).expect("server sent an undecodable reply"));
    }
    replies
}

fn assert_typed_frame_error(replies: &[Reply]) {
    assert_eq!(replies.len(), 1, "expected exactly one typed error, got {replies:?}");
    match &replies[0] {
        Reply::Error { seq, .. } => {
            assert_eq!(*seq, 0, "frame-level errors must carry seq 0: {replies:?}");
        }
        other => panic!("expected a typed Error reply, got {other:?}"),
    }
}

fn score_request_frame(seq: u64, stream: u64, seed: u64) -> Vec<u8> {
    let payload = encode_request(&Request::Score {
        seq,
        stream,
        droppable: false,
        samples: samples(2, seed),
    });
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload, None).expect("frame request");
    frame
}

#[test]
fn garbage_magic_gets_typed_error_and_teardown() {
    let fixture = Fixture::start(31);
    fixture.assert_still_serving(100);
    let replies = attack(&fixture, b"NOPE\x00\x00\x00\x00\x00\x00\x00\x00");
    assert_typed_frame_error(&replies);
    fixture.assert_still_serving(101);
}

#[test]
fn every_flipped_frame_byte_gets_typed_error_and_teardown() {
    let fixture = Fixture::start(37);
    let frame = score_request_frame(1, 0, 500);
    // Flip one byte at a time: every header byte (magic, length, CRC)
    // plus a stride through the payload — each flip must land in a
    // typed rejection, whichever check it trips (bad magic, oversized
    // or truncated after a length flip, CRC mismatch for the rest).
    // `read_frame`'s own unit suite covers *every* byte exhaustively;
    // here each flip costs a live connection, so the payload is strided.
    let positions = (0..12).chain((12..frame.len()).step_by(13));
    for i in positions {
        let mut corrupted = frame.clone();
        corrupted[i] ^= 0x20;
        let replies = attack(&fixture, &corrupted);
        assert!(
            matches!(replies.first(), Some(Reply::Error { seq: 0, .. })),
            "flip at byte {i}: expected a typed seq-0 error first, got {replies:?}"
        );
    }
    fixture.assert_still_serving(102);
}

#[test]
fn truncated_frame_gets_typed_error_and_teardown() {
    let fixture = Fixture::start(41);
    let frame = score_request_frame(1, 0, 501);
    // Cut mid-header and mid-payload; the half-close turns the missing
    // bytes into an observable truncation server-side.
    for cut in [4, 11, frame.len() - 1] {
        let replies = attack(&fixture, &frame[..cut]);
        assert_typed_frame_error(&replies);
    }
    fixture.assert_still_serving(103);
}

#[test]
fn hostile_length_is_rejected_from_the_header_alone() {
    let fixture = Fixture::start(43);
    // A header declaring the largest length the word holds (2^28 - 1
    // payload bytes, no flags), then nothing. The server must reject
    // from the 12 header bytes without waiting for (or allocating) the
    // declared 256 MiB — a prompt typed error is the observable proof.
    let mut header = Vec::new();
    header.extend_from_slice(FRAME_MAGIC);
    header.extend_from_slice(&0x0FFF_FFFFu32.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    let mut socket = fixture.raw_socket();
    socket.write_all(&header).expect("write hostile header");
    socket.flush().expect("flush hostile header");
    // No half-close: the rejection must not depend on EOF.
    let replies = drain_replies(&mut socket);
    assert_typed_frame_error(&replies);

    // One past the cap is refused the same way.
    let mut header = Vec::new();
    header.extend_from_slice(FRAME_MAGIC);
    header.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    let mut socket = fixture.raw_socket();
    socket.write_all(&header).expect("write hostile header");
    socket.flush().expect("flush hostile header");
    let replies = drain_replies(&mut socket);
    assert_typed_frame_error(&replies);
    fixture.assert_still_serving(104);
}

#[test]
fn malformed_message_in_valid_frame_gets_typed_error_and_teardown() {
    let fixture = Fixture::start(47);
    // The frame itself is pristine — magic, length, CRC all valid — but
    // the payload is an unknown request tag. The rejection happens at
    // the message layer and still follows the same contract.
    let mut frame = Vec::new();
    write_frame(&mut frame, &[99u8, 0, 0, 0], None).expect("frame garbage payload");
    let replies = attack(&fixture, &frame);
    assert_typed_frame_error(&replies);
    fixture.assert_still_serving(105);
}

#[test]
fn interleaved_partial_writes_still_assemble_into_scored_replies() {
    let fixture = Fixture::start(53);
    // Two pipelined requests dribbled out three bytes at a time with
    // pauses — maximally unaligned with frame boundaries. The reader
    // must assemble both frames and answer both requests correctly.
    let pool_a = samples(2, 600);
    let pool_b = samples(3, 601);
    let mut bytes = Vec::new();
    for (seq, pool) in [(1u64, &pool_a), (2u64, &pool_b)] {
        let payload = encode_request(&Request::Score {
            seq,
            stream: seq,
            droppable: false,
            samples: pool.clone(),
        });
        write_frame(&mut bytes, &payload, None).expect("frame request");
    }
    let mut socket = fixture.raw_socket();
    for chunk in bytes.chunks(3) {
        socket.write_all(chunk).expect("write partial chunk");
        socket.flush().expect("flush partial chunk");
        std::thread::sleep(Duration::from_millis(1));
    }
    socket.shutdown(Shutdown::Write).expect("half-close write side");
    let mut replies = drain_replies(&mut socket);
    replies.sort_by_key(Reply::seq);
    assert_eq!(replies.len(), 2, "expected two scored replies, got {replies:?}");
    for (reply, (seq, pool)) in replies.iter().zip([(1u64, &pool_a), (2u64, &pool_b)]) {
        match reply {
            Reply::Scored { seq: got, scores } => {
                assert_eq!(*got, seq);
                assert_eq!(
                    scores,
                    &contrast_scores_shared(&fixture.reference, pool).expect("direct score"),
                    "partial-write request scored differently"
                );
            }
            other => panic!("expected Scored for seq {seq}, got {other:?}"),
        }
    }
    fixture.assert_still_serving(106);
}

#[test]
fn unknown_flag_bits_get_typed_error_and_teardown() {
    let fixture = Fixture::start(61);
    // Flag bits this server does not know — with and without the
    // trace bit — each on a frame whose length, CRC, and payload are
    // otherwise pristine. The server must reject typed before touching
    // the payload and keep serving everyone else.
    for bad_nibble in [0x2u32, 0x8, 0x3, 0xA] {
        let payload = encode_request(&Request::Score {
            seq: 1,
            stream: 0,
            droppable: false,
            samples: samples(2, 700),
        });
        let crc = {
            // Mirror the frame CRC so only the flag nibble is hostile.
            let mut plain = Vec::new();
            write_frame(&mut plain, &payload, None).expect("frame request");
            u32::from_le_bytes(plain[8..12].try_into().unwrap())
        };
        let mut frame = Vec::new();
        frame.extend_from_slice(FRAME_MAGIC);
        frame.extend_from_slice(&((bad_nibble << 28) | payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&payload);
        let replies = attack(&fixture, &frame);
        assert_typed_frame_error(&replies);
    }
    fixture.assert_still_serving(107);
}

#[test]
fn traced_frames_are_served_and_corrupt_trace_blocks_rejected() {
    let fixture = Fixture::start(67);
    let pool = samples(2, 701);
    let payload = encode_request(&Request::Score {
        seq: 1,
        stream: 3,
        droppable: false,
        samples: pool.clone(),
    });
    let ctx = TraceContext { trace: TraceId(0x1111), parent: SpanId(0x2222) };
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload, Some(ctx)).expect("frame traced request");
    assert_eq!(
        u32::from_le_bytes(frame[4..8].try_into().unwrap()) & FLAG_TRACE,
        FLAG_TRACE,
        "traced frame must carry the trace flag"
    );

    // A well-formed traced frame is scored bit-identically.
    let replies = attack(&fixture, &frame);
    match replies.as_slice() {
        [Reply::Scored { seq: 1, scores }] => assert_eq!(
            scores,
            &contrast_scores_shared(&fixture.reference, &pool).expect("direct score")
        ),
        other => panic!("expected one Scored reply for the traced frame, got {other:?}"),
    }

    // The same frame with one bit flipped inside the 16-byte trace
    // block fails the frame CRC: trace context is integrity-protected.
    let mut corrupted = frame.clone();
    corrupted[15] ^= 0x08;
    let replies = attack(&fixture, &corrupted);
    assert_typed_frame_error(&replies);
    fixture.assert_still_serving(108);
}

#[test]
fn untraced_frames_are_served() {
    let fixture = Fixture::start(71);
    // A frame with a zero flag nibble and no trace block is served
    // like any other.
    let pool = samples(3, 702);
    let payload = encode_request(&Request::Score {
        seq: 9,
        stream: 1,
        droppable: false,
        samples: pool.clone(),
    });
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload, None).expect("frame untraced request");
    let replies = attack(&fixture, &frame);
    match replies.as_slice() {
        [Reply::Scored { seq: 9, scores }] => assert_eq!(
            scores,
            &contrast_scores_shared(&fixture.reference, &pool).expect("direct score")
        ),
        other => panic!("expected one Scored reply for the untraced frame, got {other:?}"),
    }
    fixture.assert_still_serving(109);
}

#[test]
fn stats_requests_are_served_over_a_raw_socket() {
    let fixture = Fixture::start(73);
    // Prime some traffic so the scrape has something to show.
    fixture.assert_still_serving(110);
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_request(&Request::Stats { seq: 4 }), None)
        .expect("frame stats");
    let replies = attack(&fixture, &frame);
    match replies.as_slice() {
        [Reply::Stats { seq: 4, json }] => {
            assert!(json.starts_with('{') && json.ends_with('}'), "not a JSON object: {json}");
            assert!(json.contains("\"metrics\""), "scrape missing metrics: {json}");
            assert!(json.contains("\"replicas\""), "scrape missing replicas: {json}");
            assert!(json.contains("\"counters\""), "metrics snapshot missing counters: {json}");
        }
        other => panic!("expected one Stats reply, got {other:?}"),
    }
    fixture.assert_still_serving(111);
}

#[test]
fn attacks_do_not_disturb_a_concurrent_healthy_stream_of_requests() {
    let fixture = Fixture::start(59);
    // Interleave attacks with healthy traffic request-for-request: the
    // kill switch for "teardown leaks into other connections".
    let attacks: [&[u8]; 3] = [b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00", b"SDCF", b"SDC"];
    for (round, bytes) in attacks.iter().enumerate() {
        let replies = attack(&fixture, bytes);
        // Whatever each malformed prefix looked like, nothing but a
        // typed seq-0 error may come back on the attacking connection.
        for reply in &replies {
            assert!(
                matches!(reply, Reply::Error { seq: 0, .. }),
                "attack round {round} leaked a non-error reply: {reply:?}"
            );
        }
        fixture.assert_still_serving(200 + round as u64);
    }
}

/// Runs `f` on its own thread and returns its result, or `None` if it
/// has not finished within `timeout` (the thread is then left behind).
fn within<R: Send + 'static>(
    timeout: Duration,
    f: impl FnOnce() -> R + Send + 'static,
) -> Option<R> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let got = rx.recv_timeout(timeout).ok()?;
    worker.join().expect("worker thread");
    Some(got)
}

/// A peer that closes its sending side but keeps reading (as a server
/// lingering after a framing violation does): the client's reader sees
/// the end of stream, so a later request must resolve as `Disconnected`
/// instead of waiting for a reply nothing will send.
#[test]
fn requests_after_the_peer_closed_its_side_fail_instead_of_waiting() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind peer");
    let addr = listener.local_addr().expect("peer addr");
    let peer = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().expect("accept");
        socket.shutdown(Shutdown::Write).expect("close the peer's sending side");
        let _ = std::io::copy(&mut socket, &mut std::io::sink());
    });
    let client = NodeClient::connect(addr).expect("connect");
    // Give the client's reader time to see the end of stream; the
    // request must fail whether it is submitted before or after that.
    std::thread::sleep(Duration::from_millis(200));
    let outcome = within(Duration::from_secs(2), move || {
        client.submit(0, samples(1, 1)).and_then(|t| t.wait_outcome())
    })
    .expect("request unresolved after 2 s");
    assert!(matches!(outcome, Err(NodeError::Disconnected)), "{outcome:?}");
    peer.join().expect("peer thread");
}

/// A peer that answers the first request with a reply frame whose CRC
/// has one flipped byte, then keeps the connection open: the client's
/// reader must reject the frame, resolve the in-flight ticket as
/// `Disconnected`, and make a later submit fail the same way rather
/// than wait.
#[test]
fn corrupt_reply_frame_disconnects_the_client_instead_of_hanging() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind peer");
    let addr = listener.local_addr().expect("peer addr");
    let peer = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().expect("accept");
        let (payload, _) = read_frame(&mut socket).expect("read request").expect("a request");
        let seq = match decode_request(&payload).expect("decode request") {
            Request::Score { seq, .. } => seq,
            other => panic!("expected a score request, got {other:?}"),
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_reply(&Reply::Scored { seq, scores: vec![0.5] }), None)
            .expect("frame reply");
        frame[9] ^= 0x01; // one byte of the header's CRC word (bytes 8..12)
        socket.write_all(&frame).expect("write corrupt reply");
        socket.flush().expect("flush corrupt reply");
        // Hold the connection open until the client drops it, so only
        // the checksum can end the client's read.
        let _ = std::io::copy(&mut socket, &mut std::io::sink());
    });
    let client = Arc::new(NodeClient::connect(addr).expect("connect"));
    let ticket = client.submit(0, samples(1, 2)).expect("submit the first request");
    let outcome = within(Duration::from_secs(2), move || ticket.wait_outcome())
        .expect("in-flight request unresolved after 2 s");
    assert!(matches!(outcome, Err(NodeError::Disconnected)), "{outcome:?}");
    let later = Arc::clone(&client);
    let outcome = within(Duration::from_secs(2), move || {
        later.submit(0, samples(1, 3)).and_then(|t| t.wait_outcome())
    })
    .expect("later request unresolved after 2 s");
    assert!(matches!(outcome, Err(NodeError::Disconnected)), "{outcome:?}");
    drop(client);
    peer.join().expect("peer thread");
}
