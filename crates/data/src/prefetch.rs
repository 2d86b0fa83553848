//! Background stream prefetching.
//!
//! Synthesis (and any per-segment transform, e.g. augmentation) is the
//! data layer's contribution to step latency. [`PrefetchStream`] moves
//! that work onto a dedicated producer thread feeding a bounded
//! `sdc-runtime` channel, so segment `k + 1` is synthesized while the
//! trainer consumes segment `k` — classic double buffering.
//!
//! The producer emits segments strictly in stream order through an
//! in-order channel, so a prefetched stream yields **exactly** the
//! sample sequence of the wrapped stream; prefetching changes when work
//! happens, never what is produced.

use sdc_runtime::channel::{bounded, Receiver};
use sdc_tensor::{Result, TensorError};
use std::collections::VecDeque;
use std::thread::JoinHandle;

use crate::sample::Sample;
use crate::stream::TemporalStream;

/// Identifier of one logical stream within a multi-stream deployment.
///
/// The serve layer (`sdc-serve`) keys buffer shards and scoring-request
/// routing on this id; standalone streams default to `0`.
pub type StreamId = u64;

/// Anything that yields stream segments — the interface the trainer
/// consumes, implemented by [`TemporalStream`] and by
/// [`PrefetchStream`] itself (so prefetching is a drop-in wrapper).
pub trait SegmentSource {
    /// Produces the next `n` stream items.
    ///
    /// # Errors
    ///
    /// Propagates generator errors.
    fn next_segment(&mut self, n: usize) -> Result<Vec<Sample>>;

    /// Stable identifier of this stream within a multi-stream
    /// deployment. Standalone streams report `0`; wrap a stream in
    /// [`WithStreamId`] to assign a distinct id.
    fn stream_id(&self) -> StreamId {
        0
    }
}

/// A [`SegmentSource`] adapter tagging a wrapped stream with a
/// [`StreamId`], so serving layers can route its scoring requests and
/// shard its buffer without the concrete stream types knowing about
/// multi-stream deployments.
#[derive(Debug)]
pub struct WithStreamId<S> {
    inner: S,
    id: StreamId,
}

impl<S: SegmentSource> WithStreamId<S> {
    /// Tags `inner` with `id`.
    pub fn new(inner: S, id: StreamId) -> Self {
        Self { inner, id }
    }

    /// The wrapped stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: SegmentSource> SegmentSource for WithStreamId<S> {
    fn next_segment(&mut self, n: usize) -> Result<Vec<Sample>> {
        self.inner.next_segment(n)
    }

    fn stream_id(&self) -> StreamId {
        self.id
    }
}

impl SegmentSource for TemporalStream {
    fn next_segment(&mut self, n: usize) -> Result<Vec<Sample>> {
        TemporalStream::next_segment(self, n)
    }
}

/// A [`SegmentSource`] that runs its wrapped stream on a background
/// producer thread behind a bounded channel.
///
/// ```
/// use sdc_data::stream::TemporalStream;
/// use sdc_data::synth::{SynthConfig, SynthDataset};
/// use sdc_data::{PrefetchStream, SegmentSource};
///
/// let make = || TemporalStream::new(SynthDataset::new(SynthConfig::default()), 4, 7);
/// let direct: Vec<u64> =
///     make().next_segment(8)?.iter().map(|s| s.id).collect();
/// let mut prefetched = PrefetchStream::new(make(), 8, 2);
/// let ids: Vec<u64> = prefetched.next_segment(8)?.iter().map(|s| s.id).collect();
/// assert_eq!(ids, direct);
/// # Ok::<(), sdc_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct PrefetchStream {
    rx: Option<Receiver<Result<Vec<Sample>>>>,
    producer: Option<JoinHandle<()>>,
    pending: VecDeque<Sample>,
    failed: bool,
    stream_id: StreamId,
}

impl PrefetchStream {
    /// Wraps `stream`, producing `segment_len`-sample segments on a
    /// background thread, with at most `depth` finished segments
    /// buffered ahead of the consumer (`depth = 1` double-buffers).
    pub fn new<S>(stream: S, segment_len: usize, depth: usize) -> Self
    where
        S: SegmentSource + Send + 'static,
    {
        Self::with_transform(stream, segment_len, depth, |segment| segment)
    }

    /// Like [`PrefetchStream::new`], additionally applying `transform`
    /// (e.g. an augmentation pipeline) to each segment on the producer
    /// thread, overlapping it with training.
    pub fn with_transform<S, F>(
        mut stream: S,
        segment_len: usize,
        depth: usize,
        mut transform: F,
    ) -> Self
    where
        S: SegmentSource + Send + 'static,
        F: FnMut(Vec<Sample>) -> Vec<Sample> + Send + 'static,
    {
        let segment_len = segment_len.max(1);
        let stream_id = stream.stream_id();
        let (tx, rx) = bounded::<Result<Vec<Sample>>>(depth.max(1));
        let producer = std::thread::Builder::new()
            .name("sdc-prefetch".into())
            .spawn(move || loop {
                let item = stream.next_segment(segment_len).map(&mut transform);
                let failed = item.is_err();
                if tx.send(item).is_err() || failed {
                    // Consumer gone, or the stream errored (the error was
                    // delivered; producing further segments would skip it).
                    return;
                }
            })
            .expect("spawn prefetch producer");
        Self {
            rx: Some(rx),
            producer: Some(producer),
            pending: VecDeque::new(),
            failed: false,
            stream_id,
        }
    }

    fn refill(&mut self) -> Result<()> {
        let rx = self.rx.as_ref().expect("receiver lives until drop");
        match rx.recv() {
            Ok(Ok(segment)) => {
                self.pending.extend(segment);
                Ok(())
            }
            Ok(Err(e)) => {
                self.failed = true;
                Err(e)
            }
            Err(_) => {
                self.failed = true;
                Err(TensorError::InvalidArgument {
                    op: "prefetch_stream",
                    message: "producer thread terminated".into(),
                })
            }
        }
    }
}

impl SegmentSource for PrefetchStream {
    /// Produces the next `n` stream items, in the wrapped stream's
    /// order. `n` need not match the producer's `segment_len`; leftover
    /// samples stay buffered for the next call.
    fn next_segment(&mut self, n: usize) -> Result<Vec<Sample>> {
        if self.failed {
            return Err(TensorError::InvalidArgument {
                op: "prefetch_stream",
                message: "stream failed previously".into(),
            });
        }
        while self.pending.len() < n {
            self.refill()?;
        }
        Ok(self.pending.drain(..n).collect())
    }

    /// The wrapped stream's id, captured at construction.
    fn stream_id(&self) -> StreamId {
        self.stream_id
    }
}

impl Drop for PrefetchStream {
    fn drop(&mut self) {
        // Closing the receiver makes the producer's next send fail, so
        // it exits; then reap the thread.
        drop(self.rx.take());
        if let Some(handle) = self.producer.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthConfig, SynthDataset};

    fn stream(stc: usize, seed: u64) -> TemporalStream {
        let ds = SynthDataset::new(SynthConfig {
            classes: 4,
            height: 6,
            width: 6,
            ..SynthConfig::default()
        });
        TemporalStream::new(ds, stc, seed)
    }

    #[test]
    fn prefetched_sequence_matches_direct_sequence() {
        let direct: Vec<Sample> = stream(3, 11).next_segment(40).unwrap();
        let mut pf = PrefetchStream::new(stream(3, 11), 8, 2);
        let got = pf.next_segment(40).unwrap();
        assert_eq!(got, direct);
    }

    #[test]
    fn segment_size_mismatch_is_buffered() {
        let direct: Vec<Sample> = stream(2, 5).next_segment(30).unwrap();
        // Producer makes 7-sample segments; consumer asks for 10s.
        let mut pf = PrefetchStream::new(stream(2, 5), 7, 1);
        let mut got = Vec::new();
        for _ in 0..3 {
            got.extend(pf.next_segment(10).unwrap());
        }
        assert_eq!(got, direct);
    }

    #[test]
    fn transform_runs_on_producer() {
        let mut pf = PrefetchStream::with_transform(stream(2, 9), 4, 1, |mut seg| {
            for s in &mut seg {
                s.label = 99;
            }
            seg
        });
        let seg = pf.next_segment(8).unwrap();
        assert!(seg.iter().all(|s| s.label == 99));
    }

    #[test]
    fn stream_ids_propagate_through_wrappers() {
        assert_eq!(stream(2, 1).stream_id(), 0, "standalone streams default to id 0");
        let mut tagged = WithStreamId::new(stream(2, 1), 7);
        assert_eq!(tagged.stream_id(), 7);
        assert_eq!(tagged.next_segment(3).unwrap().len(), 3);
        let pf = PrefetchStream::new(WithStreamId::new(stream(2, 1), 9), 4, 1);
        assert_eq!(pf.stream_id(), 9, "prefetching must preserve the wrapped id");
    }

    #[test]
    fn drop_terminates_producer_promptly() {
        let pf = PrefetchStream::new(stream(2, 1), 4, 1);
        drop(pf); // Must not hang.
    }

    #[test]
    fn overlap_actually_runs_ahead() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // Count segments as the producer finishes them: without a
        // single consumer pull it must run ahead until the bounded
        // channel is full (depth in flight + one blocked in send).
        let produced = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&produced);
        let pf = PrefetchStream::with_transform(stream(2, 3), 4, 2, move |seg| {
            counter.fetch_add(1, Ordering::SeqCst);
            seg
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while produced.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(
            produced.load(Ordering::SeqCst) >= 3,
            "producer only finished {} segments without any consumer pull",
            produced.load(Ordering::SeqCst)
        );
        drop(pf);
    }
}
