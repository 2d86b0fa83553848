//! Bounded channels for pipeline stages.
//!
//! A thin wrapper over `std::sync::mpsc::sync_channel` giving the
//! stack one vocabulary for bounded hand-off queues (the data layer's
//! prefetching stream produces into one of these while training
//! consumes), plus explicit disconnect reporting.

use std::sync::mpsc;

/// Sending half of a bounded channel. Cloning creates another producer
/// feeding the same queue (e.g. many serving clients, one batcher).
#[derive(Debug)]
pub struct Sender<T> {
    inner: mpsc::SyncSender<T>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Self { inner: self.inner.clone() }
    }
}

/// Receiving half of a bounded channel.
#[derive(Debug)]
pub struct Receiver<T> {
    inner: mpsc::Receiver<T>,
}

/// Error returned when the other half of a channel is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel disconnected")
    }
}

impl std::error::Error for Disconnected {}

/// Why a [`Sender::try_send`] did not enqueue its value. Carries the
/// value back so callers can retry or shed it explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity; enqueueing would have blocked.
    Full(T),
    /// The receiver is gone.
    Disconnected(T),
}

/// Creates a bounded channel with space for `capacity` in-flight items.
///
/// A `capacity` of 1 gives classic double buffering: the producer works
/// on item `k + 1` while the consumer holds item `k`.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    (Sender { inner: tx }, Receiver { inner: rx })
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while the channel is full.
    ///
    /// # Errors
    ///
    /// Returns the value back if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), T> {
        self.inner.send(value).map_err(|e| e.0)
    }

    /// Sends `value` only if the channel has free capacity, never
    /// blocking. This is the admission-control primitive: a producer
    /// that must not buffer unboundedly sheds the value on
    /// [`TrySendError::Full`] instead of queueing behind a slow
    /// consumer.
    ///
    /// # Errors
    ///
    /// Returns the value back inside [`TrySendError::Full`] when the
    /// channel is at capacity, or [`TrySendError::Disconnected`] when
    /// the receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.inner.try_send(value).map_err(|e| match e {
            mpsc::TrySendError::Full(v) => TrySendError::Full(v),
            mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
        })
    }
}

impl<T> Receiver<T> {
    /// Receives the next value, blocking while the channel is empty.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] if the sender is gone and the channel
    /// is drained.
    pub fn recv(&self) -> Result<T, Disconnected> {
        self.inner.recv().map_err(|_| Disconnected)
    }

    /// Receives the next value if one is already queued, without
    /// blocking.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] whether the channel is merely empty or
    /// the sender is gone. The stack's only non-blocking consumer, the
    /// serve-layer batcher, treats both the same: it scores what is
    /// pending, then blocks on [`Receiver::recv`].
    pub fn try_recv(&self) -> Result<T, Disconnected> {
        self.inner.try_recv().map_err(|_| Disconnected)
    }

    /// A blocking iterator over incoming values: each `next` waits like
    /// [`Receiver::recv`] and the iterator ends when every sender is
    /// gone and the queue is drained. The natural shape for a pump
    /// thread that processes a channel to completion (e.g. the serving
    /// node's per-connection reply writer).
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_arrive_in_order() {
        let (tx, rx) = bounded(2);
        std::thread::spawn(move || {
            for i in 0..10 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_receiver_reports_to_sender() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn cloned_senders_feed_one_queue() {
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(Disconnected));
    }

    #[test]
    fn try_recv_drains_without_blocking() {
        let (tx, rx) = bounded(2);
        assert_eq!(rx.try_recv(), Err(Disconnected));
        tx.send(5).unwrap();
        assert_eq!(rx.try_recv(), Ok(5));
        assert_eq!(rx.try_recv(), Err(Disconnected));
    }

    #[test]
    fn try_send_sheds_on_a_full_channel() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        // Capacity exhausted: the value comes back instead of blocking.
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn iter_drains_in_order_and_ends_on_disconnect() {
        let (tx, rx) = bounded(4);
        std::thread::spawn(move || {
            for i in 0..6 {
                tx.send(i).unwrap();
            }
        });
        assert_eq!(rx.iter().collect::<Vec<i32>>(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_sender_reports_to_receiver() {
        let (tx, rx) = bounded::<i32>(1);
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(Disconnected));
    }
}
