//! The serving node's TCP front-end.
//!
//! A [`NodeServer`] listens on a loopback-or-LAN socket and serves the
//! wire protocol of [`wire`](crate::wire) over a shared
//! [`ReplicaSet`]: remote clients submit scoring requests (guaranteed
//! or droppable) and ship snapshots into the node's **standby store**.
//!
//! ## Threading
//!
//! One accept thread; per connection, a **handler** thread and a
//! **reply pump** thread. The handler reads frames and never blocks on
//! scoring — it either resolves a request immediately (ships, stats
//! scrapes, errors) or enqueues the service's [`ScoreTicket`] (a
//! queue-full shed's ticket already holds its reply) onto the pump's
//! bounded channel. The pump awaits tickets strictly in arrival order
//! and writes reply frames, so replies for a connection go out in FIFO
//! request order even though the protocol is pipelined (the `seq` echo
//! lets clients not rely on that).
//!
//! ## Failure injection contract
//!
//! A framing violation (bad magic, oversized length, unknown flag
//! bits, CRC mismatch, mid-frame truncation, malformed message) tears
//! down **that connection only**: the server answers with a
//! best-effort typed [`Reply::Error`], shuts its sending side down,
//! discards what the peer still sends for at most one second (so the
//! close does not reset the connection under the unread reply), and
//! keeps serving every other client — `tests/wire_fuzz.rs` is the
//! enforcement.
//!
//! ## Observability
//!
//! The handler reads frames through
//! [`read_frame_ext`](crate::wire::read_frame_ext), so a traced peer's
//! [`TraceContext`] crosses the wire: each scoring request gets a
//! `node.server.request` span parented to the remote client's span,
//! and the replica batcher's phase spans nest under it — one connected
//! trace across the TCP boundary. A [`Request::Stats`] frame is
//! answered inline with the live process-global
//! [`MetricsSnapshot`](sdc_obs::MetricsSnapshot) plus every replica's
//! [`ServeStats`](sdc_serve::ServeStats) — request, batch and shed
//! counters and the per-stream latency breakdown — as one JSON object:
//! a scrape endpoint that never quiesces the batchers.
//!
//! [`ScoreTicket`]: sdc_serve::ScoreTicket

use std::collections::BTreeMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdc_obs::TraceContext;
use sdc_persist::{apply_delta, Snapshot};
use sdc_runtime::channel::{bounded, Sender};
use sdc_serve::{NodeSnapshot, ReplicaSet, ScoreOutcome, SubmitOpts};

use crate::error::NodeError;
use crate::wire::{
    decode_request, encode_reply, read_frame_ext, write_frame, Reply, Request, Ship,
};

/// What the standby store holds after a ship: the last verified
/// snapshot plus the opaque application state shipped alongside it
/// (stream cursors, typically).
#[derive(Debug, Clone)]
pub struct StandbyState {
    /// The last shipped (and fully verified) node snapshot.
    pub snapshot: NodeSnapshot,
    /// The opaque aux bytes shipped with it.
    pub aux: Vec<u8>,
}

#[derive(Debug)]
struct Shared {
    replicas: Arc<ReplicaSet>,
    standby: Mutex<Option<StandbyState>>,
    /// A clone of each live connection's socket, keyed by accept order,
    /// for `Drop` to shut down; a handler removes its own as it exits.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    /// Handler threads not yet joined; each accept joins the finished.
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Verifies and installs shipped state, returning the installed
    /// container's section count.
    fn apply_ship(&self, ship: Ship) -> Result<u64, NodeError> {
        let mut guard = self.standby.lock().expect("standby lock");
        let (snapshot, aux) = match ship {
            Ship::Full { snapshot, aux } => {
                sdc_obs::counter!("node.ship.full").inc();
                (NodeSnapshot::from_bytes(snapshot)?, aux)
            }
            Ship::Delta { delta, aux } => {
                sdc_obs::counter!("node.ship.delta").inc();
                let base = guard.as_ref().ok_or_else(|| {
                    NodeError::Persist(sdc_persist::PersistError::StateMismatch {
                        message: "delta shipped before any full snapshot".into(),
                    })
                })?;
                let parsed = Snapshot::from_bytes(base.snapshot.as_bytes())?;
                let bytes = apply_delta(&parsed, &delta)?;
                (NodeSnapshot::from_bytes(bytes)?, aux)
            }
        };
        let sections = Snapshot::from_bytes(snapshot.as_bytes())?.section_order().len() as u64;
        *guard = Some(StandbyState { snapshot, aux });
        Ok(sections)
    }
}

/// What the reply pump processes, strictly in arrival order.
#[derive(Debug)]
enum Pending {
    /// A scoring request at the service (possibly already shed); the
    /// pump awaits it.
    Ticket { seq: u64, ticket: sdc_serve::ScoreTicket },
    /// An already-resolved reply (ships, stats, typed errors).
    Ready(Reply),
}

/// A TCP front-end over a shared [`ReplicaSet`].
///
/// Binds `127.0.0.1:0` (the OS picks the port; see
/// [`NodeServer::addr`]). A closed connection gives back its socket as
/// its handler exits, and the handler thread is joined at the next
/// accept, so open fds and threads track live connections rather than
/// every connection ever accepted. Dropping the server stops
/// accepting, shuts down every live connection, and joins all threads.
#[derive(Debug)]
pub struct NodeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl NodeServer {
    /// Binds a loopback listener and starts serving `replicas`.
    ///
    /// # Errors
    ///
    /// Propagates socket failures as [`NodeError::Io`].
    pub fn start(replicas: Arc<ReplicaSet>) -> Result<Self, NodeError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|source| NodeError::Io { context: "bind listener", source })?;
        let addr = listener
            .local_addr()
            .map_err(|source| NodeError::Io { context: "read listener addr", source })?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            replicas,
            standby: Mutex::new(None),
            conns: Mutex::new(BTreeMap::new()),
            handlers: Mutex::new(Vec::new()),
        });
        let accept = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &stop, &shared))
        };
        Ok(Self { addr, stop, accept: Some(accept), shared })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replica set this server scores through.
    pub fn replicas(&self) -> &Arc<ReplicaSet> {
        &self.shared.replicas
    }

    /// A clone of the standby store's current contents (the last
    /// verified ship), if any.
    pub fn standby_state(&self) -> Option<StandbyState> {
        self.shared.standby.lock().expect("standby lock").clone()
    }

    /// Takes the standby store's contents for failover takeover,
    /// leaving the store empty.
    pub fn take_standby(&self) -> Option<StandbyState> {
        self.shared.standby.lock().expect("standby lock").take()
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for conn in self.shared.conns.lock().expect("conns lock").values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let handlers: Vec<_> =
            std::mem::take(&mut *self.shared.handlers.lock().expect("handlers lock"));
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, shared: &Arc<Shared>) {
    for (id, conn) in (0u64..).zip(listener.incoming()) {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Reply frames are small; without NODELAY, Nagle + delayed ACK
        // stalls every request/reply round trip.
        let _ = stream.set_nodelay(true);
        sdc_obs::counter!("node.accept").inc();
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").insert(id, clone);
        }
        let shared_conn = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            handle_connection(&shared_conn, stream);
            shared_conn.conns.lock().expect("conns lock").remove(&id);
        });
        let mut handlers = shared.handlers.lock().expect("handlers lock");
        for handler in std::mem::take(&mut *handlers) {
            if handler.is_finished() {
                let _ = handler.join();
            } else {
                handlers.push(handler);
            }
        }
        handlers.push(handle);
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(mut reader) = stream.try_clone() else { return };
    let Ok(mut writer) = stream.try_clone() else { return };

    // The pump owns reply ordering: tickets and ready replies go out in
    // exactly the order requests arrived, each as one frame.
    let (tx, rx) = bounded::<Pending>(256);
    let pump = std::thread::spawn(move || {
        for pending in rx.iter() {
            let reply = match pending {
                Pending::Ready(reply) => reply,
                Pending::Ticket { seq, ticket } => match ticket.wait_outcome() {
                    Ok(ScoreOutcome::Scored(scores)) => Reply::Scored { seq, scores },
                    Ok(ScoreOutcome::Shed(cause)) => Reply::Shed { seq, cause },
                    Err(e) => Reply::Error { seq, message: e.to_string() },
                },
            };
            if write_frame(&mut writer, &encode_reply(&reply)).is_err() {
                // Client gone mid-write: abandon the rest; dropped
                // tickets are counted by the service, not leaked.
                break;
            }
            sdc_obs::counter!("node.frame.tx").inc();
        }
    });

    let outcome: Result<(), NodeError> = loop {
        match read_frame_ext(&mut reader) {
            Ok(None) => break Ok(()),
            Ok(Some((payload, trace))) => {
                sdc_obs::counter!("node.frame.rx").inc();
                match decode_request(&payload) {
                    Ok(request) => {
                        if handle_request(shared, &tx, request, trace).is_err() {
                            break Ok(()); // pump gone; nothing left to answer through
                        }
                    }
                    Err(e) => break Err(e),
                }
            }
            Err(e) => break Err(e),
        }
    };

    if let Err(e) = outcome {
        // A framing violation: answer with a typed error (best effort —
        // the peer may already be gone), then tear this connection down.
        sdc_obs::counter!("node.frame.rejected").inc();
        let _ = tx.send(Pending::Ready(Reply::Error { seq: 0, message: e.to_string() }));
    }
    drop(tx); // pump drains the queue and exits
    let _ = pump.join();
    let _ = stream.shutdown(Shutdown::Write);
    linger(&mut reader);
}

/// How long a closing connection keeps discarding what its peer still
/// sends.
const LINGER: Duration = Duration::from_secs(1);

/// Reads and discards until the peer's end of stream, an error, or
/// [`LINGER`] has passed. Closing a socket with unread input answers
/// the peer with a reset, which can destroy a typed error reply before
/// the peer reads it; after a framing violation the peer may still be
/// sending the rest of its frame.
fn linger(reader: &mut TcpStream) {
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || reader.set_read_timeout(Some(left)).is_err() {
            return;
        }
        if matches!(reader.read(&mut sink), Ok(0) | Err(_)) {
            return;
        }
    }
}

/// Routes one decoded request; `Err` means the pump is gone and the
/// connection is being torn down.
fn handle_request(
    shared: &Shared,
    tx: &Sender<Pending>,
    request: Request,
    trace: Option<TraceContext>,
) -> Result<(), ()> {
    let send = |p: Pending| tx.send(p).map_err(|_| ());
    match request {
        Request::Score { seq, stream, droppable, samples } => {
            // The server span covers decode → enqueue; joined to the
            // remote client's span when the frame carried its context,
            // rooting a fresh trace otherwise. The replica's request
            // span becomes this span's child, so the whole batcher
            // phase tree hangs off one cross-process trace.
            let span = match trace {
                Some(ctx) => sdc_obs::Span::child("node.server.request", ctx),
                None => sdc_obs::Span::root("node.server.request"),
            };
            let client = shared.replicas.replica_of(stream).client(stream);
            match client.submit(samples, SubmitOpts { droppable, trace: span.context() }) {
                Ok(ticket) => send(Pending::Ticket { seq, ticket }),
                Err(e) => send(Pending::Ready(Reply::Error { seq, message: e.to_string() })),
            }
        }
        Request::Ship { seq, ship } => {
            let reply = match shared.apply_ship(ship) {
                Ok(sections) => Reply::ShipApplied { seq, sections },
                Err(e) => Reply::Error { seq, message: e.to_string() },
            };
            send(Pending::Ready(reply))
        }
        Request::Stats { seq } => {
            let json = stats_json(shared);
            sdc_obs::counter!("node.stats.requests").inc();
            sdc_obs::counter!("node.stats.bytes").add(json.len() as u64);
            send(Pending::Ready(Reply::Stats { seq, json }))
        }
    }
}

/// Builds the scrape payload: the live process-global metrics snapshot
/// plus each replica's stats, as one JSON object — read lock-free from
/// the running batchers.
fn stats_json(shared: &Shared) -> String {
    let metrics = sdc_obs::global().snapshot().to_json();
    let mut out = String::with_capacity(metrics.len() + 128);
    out.push_str("{\"metrics\": ");
    out.push_str(metrics.trim_end());
    out.push_str(", \"replicas\": [");
    for i in 0..shared.replicas.len() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&shared.replicas.replica(i).stats_snapshot().to_json());
    }
    out.push_str("]}");
    out
}
