//! Dispatch granularity of the direct conv forward and backward. Lives
//! in its own integration-test binary (own process) because it reads the
//! global `runtime.chunks` counter, which any other test running
//! alongside would also move; the two tests here take turns on a lock
//! for the same reason.

use std::sync::Mutex;

use sdc_runtime::Runtime;
use sdc_tensor::ops::conv::{conv2d_backward, conv2d_forward, TAP_BLOCK};
use sdc_tensor::Tensor;

/// Held by each test while it reads the counter.
static COUNTER: Mutex<()> = Mutex::new(());

fn chunks() -> u64 {
    sdc_obs::global().snapshot().counters.get("runtime.chunks").copied().unwrap_or(0)
}

/// The benchmark model's stage-0 conv (`[16, 16, 12, 12]`, 3×3 kernel,
/// stride 1, padding 1) goes out as one pool chunk per sample: at most
/// 16, whatever the thread count, and no nested dispatch for the padding
/// copy or the weight packing.
#[test]
fn one_forward_dispatches_at_most_one_chunk_per_sample() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    sdc_obs::set_enabled(true);
    let x = Tensor::ones([16, 16, 12, 12]);
    let w = Tensor::ones([16, 16, 3, 3]);
    for threads in [2, 7] {
        let rt = Runtime::new(threads);
        let before = chunks();
        let y = rt.install(|| conv2d_forward(&x, &w, 1, 1).unwrap());
        let added = chunks() - before;
        assert_eq!(y.shape().dims(), &[16, 16, 12, 12]);
        assert!(
            (1..=16).contains(&added),
            "threads={threads}: one conv forward added {added} runtime.chunks"
        );
    }
}

/// The same conv's backward makes two dispatches and nests none: one
/// chunk per sample lays out its phase planes and output gradient and
/// computes its input gradient (16), then one chunk per `TAP_BLOCK` taps
/// computes the weight gradient (`16·3² / 8 = 18`). So at most 34
/// chunks, whatever the thread count.
#[test]
fn one_backward_dispatches_at_most_one_chunk_per_sample_and_one_per_tap_block() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    sdc_obs::set_enabled(true);
    let x = Tensor::ones([16, 16, 12, 12]);
    let w = Tensor::ones([16, 16, 3, 3]);
    let gy = Tensor::ones([16, 16, 12, 12]);
    let bound = 16 + (16 * 3 * 3usize).div_ceil(TAP_BLOCK) as u64;
    assert_eq!(bound, 34);
    for threads in [2, 7] {
        let rt = Runtime::new(threads);
        let before = chunks();
        let (dx, dw) = rt.install(|| conv2d_backward(&x, &w, &gy, 1, 1, true).unwrap());
        let added = chunks() - before;
        assert_eq!(dx.expect("dx requested").shape(), x.shape());
        assert_eq!(dw.shape(), w.shape());
        assert!(
            (1..=bound).contains(&added),
            "threads={threads}: one conv backward added {added} runtime.chunks"
        );
    }
}
