//! The remote scoring client and the snapshot shipper.
//!
//! [`NodeClient`] speaks the pipelined wire protocol: every request
//! carries a client-assigned `seq`, a background reader thread matches
//! replies back to their [`RemoteTicket`]s, so many requests can be in
//! flight on one connection (the open-loop driver depends on it).
//!
//! [`SnapshotShipper`] implements the delta side of hot standby: it
//! remembers the last container it shipped and sends each subsequent
//! snapshot as a section delta (`sdc_persist::encode_delta`), so
//! unchanged sections — shards that took no replacements, idle stream
//! cursors — cross the wire as a 4-byte CRC instead of their payload.
//!
//! ## Tracing
//!
//! While tracing is enabled (`SDC_TRACE`), every scoring submission
//! opens a `node.client.request` root span and ships its
//! [`TraceContext`](sdc_obs::TraceContext) in the frame's trace
//! extension, so the server's span and the replica batcher's phase
//! spans all become descendants of this client-side span — one trace
//! across the TCP boundary. The span closes when the reply arrives
//! (the ticket carries it), so its duration is the remote round trip.

use std::collections::BTreeMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use sdc_data::{Sample, StreamId};
use sdc_persist::Snapshot;
use sdc_runtime::channel::{bounded, Receiver, Sender};
use sdc_serve::{NodeSnapshot, ScoreTarget};

use crate::error::NodeError;
use crate::wire::{
    decode_reply, encode_request, read_frame, write_frame_ext, Reply, Request, Ship,
};
use crate::RemoteOutcome;

/// Reply senders by request `seq`; `None` once the reader has exited.
type Waiters = Option<BTreeMap<u64, Sender<Reply>>>;

/// An in-flight remote request. Dropping the ticket abandons the reply
/// (the reader thread discards it on arrival) and closes the request's
/// client-side span, if tracing opened one.
#[derive(Debug)]
pub struct RemoteTicket {
    rx: Receiver<Reply>,
    /// The `node.client.request` span: held so it spans submit →
    /// reply; recorded when the ticket resolves (or is abandoned).
    _span: Option<sdc_obs::Span>,
}

impl RemoteTicket {
    /// Blocks until the server answers, returning the typed outcome.
    ///
    /// # Errors
    ///
    /// [`NodeError::Remote`] for a typed server-side failure,
    /// [`NodeError::Disconnected`] if the connection died first.
    pub fn wait_outcome(self) -> Result<RemoteOutcome, NodeError> {
        match self.rx.recv().map_err(|_| NodeError::Disconnected)? {
            Reply::Scored { scores, .. } => Ok(RemoteOutcome::Scored(scores)),
            Reply::Shed { cause, .. } => Ok(RemoteOutcome::Shed(cause)),
            Reply::Error { message, .. } => Err(NodeError::Remote { message }),
            Reply::ShipApplied { .. } | Reply::Stats { .. } => Err(NodeError::Remote {
                message: "non-score reply answered a score request".into(),
            }),
        }
    }

    /// Blocks until the server answers, returning the scores; a shed
    /// reply surfaces as [`NodeError::Remote`].
    ///
    /// # Errors
    ///
    /// As [`RemoteTicket::wait_outcome`], plus sheds.
    pub fn wait(self) -> Result<Vec<f32>, NodeError> {
        match self.wait_outcome()? {
            RemoteOutcome::Scored(scores) => Ok(scores),
            RemoteOutcome::Shed(cause) => {
                Err(NodeError::Remote { message: format!("request shed ({cause:?})") })
            }
        }
    }
}

/// A connection to a [`NodeServer`](crate::NodeServer).
///
/// Thread-compatible: submissions serialize on an internal writer lock,
/// replies are dispatched by `seq`. Dropping the client closes the
/// connection and joins the reader thread.
#[derive(Debug)]
pub struct NodeClient {
    socket: TcpStream,
    writer: Mutex<TcpStream>,
    next_seq: AtomicU64,
    pending: Arc<Mutex<Waiters>>,
    reader: Option<JoinHandle<()>>,
}

impl NodeClient {
    /// Connects to a serving node.
    ///
    /// # Errors
    ///
    /// Propagates socket failures as [`NodeError::Io`].
    pub fn connect(addr: SocketAddr) -> Result<Self, NodeError> {
        let socket = TcpStream::connect(addr)
            .map_err(|source| NodeError::Io { context: "connect", source })?;
        // Request/reply frames are small; Nagle + delayed ACK would
        // stall every round trip by tens of milliseconds.
        socket
            .set_nodelay(true)
            .map_err(|source| NodeError::Io { context: "set nodelay", source })?;
        let writer = socket
            .try_clone()
            .map_err(|source| NodeError::Io { context: "clone socket", source })?;
        let mut read_half = socket
            .try_clone()
            .map_err(|source| NodeError::Io { context: "clone socket", source })?;
        let pending: Arc<Mutex<Waiters>> = Arc::new(Mutex::new(Some(BTreeMap::new())));
        let reader = {
            let pending = Arc::clone(&pending);
            std::thread::spawn(move || {
                // Clean close or any framing failure stops dispatch;
                // an undecodable reply does too. Pending waiters learn
                // below either way.
                while let Ok(Some(payload)) = read_frame(&mut read_half) {
                    let Ok(reply) = decode_reply(&payload) else { break };
                    let waiter = pending
                        .lock()
                        .expect("pending lock")
                        .as_mut()
                        .and_then(|w| w.remove(&reply.seq()));
                    if let Some(tx) = waiter {
                        let _ = tx.send(reply);
                    }
                }
                // Dropping the senders wakes every remaining waiter
                // with a disconnect instead of a hang; later submits
                // see `None` and fail instead of waiting forever.
                *pending.lock().expect("pending lock") = None;
            })
        };
        Ok(Self {
            socket,
            writer: Mutex::new(writer),
            next_seq: AtomicU64::new(0),
            pending,
            reader: Some(reader),
        })
    }

    fn submit_request(
        &self,
        traced: bool,
        build: impl FnOnce(u64) -> Request,
    ) -> Result<RemoteTicket, NodeError> {
        // Scoring requests root a client-side span and ship its
        // context in the frame's trace extension; control requests
        // (ships, stats scrapes) stay revision-1 frames. The span is
        // inert (and the frame unflagged) while tracing is off.
        let span = if traced {
            sdc_obs::Span::root("node.client.request")
        } else {
            sdc_obs::Span::inert()
        };
        // Sequence numbers start at 1: the server reserves 0 for
        // frame-level errors that precede any request parse.
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let (tx, rx) = bounded(1);
        match self.pending.lock().expect("pending lock").as_mut() {
            Some(waiters) => waiters.insert(seq, tx),
            None => return Err(NodeError::Disconnected),
        };
        let payload = encode_request(&build(seq));
        let result = {
            let mut w = self.writer.lock().expect("writer lock");
            write_frame_ext(&mut *w, &payload, span.context())
        };
        if let Err(e) = result {
            if let Some(waiters) = self.pending.lock().expect("pending lock").as_mut() {
                waiters.remove(&seq);
            }
            return Err(e);
        }
        Ok(RemoteTicket { rx, _span: Some(span) })
    }

    /// Submits a **guaranteed** scoring request without waiting for the
    /// reply (the remote `submit` path).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn submit(
        &self,
        stream: StreamId,
        samples: Vec<Sample>,
    ) -> Result<RemoteTicket, NodeError> {
        self.submit_request(true, |seq| Request::Score { seq, stream, droppable: false, samples })
    }

    /// Submits a **droppable** scoring request: the server may answer
    /// with a typed shed ([`RemoteOutcome::Shed`]) under overload
    /// instead of buffering unboundedly (the remote `try_submit` path).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn try_submit(
        &self,
        stream: StreamId,
        samples: Vec<Sample>,
    ) -> Result<RemoteTicket, NodeError> {
        self.submit_request(true, |seq| Request::Score { seq, stream, droppable: true, samples })
    }

    /// Scores `samples` for `stream`, blocking for the reply.
    ///
    /// # Errors
    ///
    /// Propagates connection failures and typed server-side errors.
    pub fn score(&self, stream: StreamId, samples: Vec<Sample>) -> Result<Vec<f32>, NodeError> {
        self.submit(stream, samples)?.wait()
    }

    /// Ships snapshot state to the server's standby store, blocking
    /// until it is verified and installed. Returns the installed
    /// container's section count.
    ///
    /// Most callers want [`SnapshotShipper`], which picks full vs delta
    /// automatically.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; server-side rejections (corrupt
    /// container, base drift) surface as [`NodeError::Remote`].
    pub fn ship(&self, ship: Ship) -> Result<u64, NodeError> {
        let ticket = self.submit_request(false, |seq| Request::Ship { seq, ship })?;
        match ticket.rx.recv().map_err(|_| NodeError::Disconnected)? {
            Reply::ShipApplied { sections, .. } => Ok(sections),
            Reply::Error { message, .. } => Err(NodeError::Remote { message }),
            _ => Err(NodeError::Remote { message: "score reply answered a ship request".into() }),
        }
    }

    /// Scrapes the server's live stats: one JSON object holding the
    /// node's process-global metrics snapshot (`"metrics"`) and every
    /// replica's per-stream latency breakdown (`"replicas"`), read
    /// without quiescing the batchers.
    ///
    /// # Errors
    ///
    /// Propagates connection failures and typed server-side errors.
    pub fn stats(&self) -> Result<String, NodeError> {
        let ticket = self.submit_request(false, |seq| Request::Stats { seq })?;
        match ticket.rx.recv().map_err(|_| NodeError::Disconnected)? {
            Reply::Stats { json, .. } => Ok(json),
            Reply::Error { message, .. } => Err(NodeError::Remote { message }),
            _ => Err(NodeError::Remote { message: "score reply answered a stats request".into() }),
        }
    }
}

impl Drop for NodeClient {
    fn drop(&mut self) {
        let _ = self.socket.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl ScoreTarget for NodeClient {
    type Ticket = RemoteTicket;
    type Error = NodeError;

    fn submit_droppable(
        &self,
        stream: StreamId,
        samples: Vec<Sample>,
    ) -> Result<RemoteTicket, NodeError> {
        self.try_submit(stream, samples)
    }

    fn outcome(ticket: RemoteTicket) -> Result<RemoteOutcome, NodeError> {
        ticket.wait_outcome()
    }
}

/// What one [`SnapshotShipper::ship`] call sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipReport {
    /// Sections in the shipped snapshot.
    pub sections: usize,
    /// Sections that crossed the wire as a bare CRC (0 for a full
    /// ship).
    pub reused: usize,
    /// Whether a full container was sent (first ship, or after
    /// [`SnapshotShipper::reset`]).
    pub full: bool,
    /// Serialized bytes handed to the wire layer (delta or full
    /// container; framing overhead excluded).
    pub wire_bytes: usize,
}

/// Ships a node's snapshots to a standby, sending deltas against the
/// previously shipped container whenever one exists.
#[derive(Debug, Default)]
pub struct SnapshotShipper {
    base: Option<Vec<u8>>,
}

impl SnapshotShipper {
    /// A shipper with no base: the first ship sends a full container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the base; the next ship sends a full container (e.g.
    /// after reconnecting to a fresh standby whose store is empty).
    pub fn reset(&mut self) {
        self.base = None;
    }

    /// Ships `snapshot` (+ opaque `aux` state) through `client`,
    /// choosing delta or full automatically, and advances the base.
    ///
    /// # Errors
    ///
    /// Propagates connection failures and server-side rejections; on
    /// error the base is left unchanged (the standby did not install
    /// anything).
    pub fn ship(
        &mut self,
        client: &NodeClient,
        snapshot: &NodeSnapshot,
        aux: &[u8],
    ) -> Result<ShipReport, NodeError> {
        let target_bytes = snapshot.as_bytes();
        let report = match &self.base {
            None => {
                let sections = client
                    .ship(Ship::Full { snapshot: target_bytes.to_vec(), aux: aux.to_vec() })?;
                ShipReport {
                    sections: sections as usize,
                    reused: 0,
                    full: true,
                    wire_bytes: target_bytes.len(),
                }
            }
            Some(base_bytes) => {
                let base = Snapshot::from_bytes(base_bytes)?;
                let target = Snapshot::from_bytes(target_bytes)?;
                let (delta, stats) = sdc_persist::encode_delta(&base, &target);
                let wire_bytes = delta.len();
                client.ship(Ship::Delta { delta, aux: aux.to_vec() })?;
                sdc_obs::counter!("node.ship.sections_reused").add(stats.reused as u64);
                ShipReport {
                    sections: stats.sections,
                    reused: stats.reused,
                    full: false,
                    wire_bytes,
                }
            }
        };
        self.base = Some(target_bytes.to_vec());
        Ok(report)
    }
}
