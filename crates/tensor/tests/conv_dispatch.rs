//! Dispatch granularity of the direct conv forward. Lives in its own
//! integration-test binary (own process) because it reads the global
//! `runtime.chunks` counter, which any other test running alongside
//! would also move.

use sdc_runtime::Runtime;
use sdc_tensor::ops::conv::conv2d_forward;
use sdc_tensor::Tensor;

fn chunks() -> u64 {
    sdc_obs::global().snapshot().counters.get("runtime.chunks").copied().unwrap_or(0)
}

/// The benchmark model's stage-0 conv (`[16, 16, 12, 12]`, 3×3 kernel,
/// stride 1, padding 1) goes out as one pool chunk per sample: at most
/// 16, whatever the thread count, and no nested dispatch for the padding
/// copy or the weight packing.
#[test]
fn one_forward_dispatches_at_most_one_chunk_per_sample() {
    sdc_obs::set_enabled(true);
    let x = Tensor::ones([16, 16, 12, 12]);
    let w = Tensor::ones([16, 16, 3, 3]);
    for threads in [2, 7] {
        let rt = Runtime::new(threads);
        let before = chunks();
        let y = rt.install(|| conv2d_forward(&x, &w, None, 1, 1).unwrap());
        let added = chunks() - before;
        assert_eq!(y.shape().dims(), &[16, 16, 12, 12]);
        assert!(
            (1..=16).contains(&added),
            "threads={threads}: one conv forward added {added} runtime.chunks"
        );
    }
}
