//! Dispatch granularity of the packed conv unfold. Lives in its own
//! integration-test binary (own process) because it reads the global
//! `runtime.chunks` counter, which any other test running alongside
//! would also move.

use sdc_runtime::Runtime;
use sdc_tensor::ops::conv::im2col_packed;
use sdc_tensor::Tensor;

fn chunks() -> u64 {
    sdc_obs::global().snapshot().counters.get("runtime.chunks").copied().unwrap_or(0)
}

/// The benchmark model's stage-1 conv unfold (`[16, 16, 12, 12]`,
/// 3×3 kernel, stride 1, padding 1: 331,776 packed floats) must go out
/// in a few large chunks, not one per handful of packed rows.
#[test]
fn one_unfold_dispatches_at_most_a_hundred_chunks() {
    sdc_obs::set_enabled(true);
    let x = Tensor::ones([16, 16, 12, 12]);
    for threads in [2, 7] {
        let rt = Runtime::new(threads);
        let before = chunks();
        let panels = rt.install(|| im2col_packed(&x, 3, 1, 1).unwrap());
        let added = chunks() - before;
        assert_eq!((panels.k(), panels.m()), (144, 2304));
        assert!(
            (1..=100).contains(&added),
            "threads={threads}: one unfold added {added} runtime.chunks"
        );
    }
}
