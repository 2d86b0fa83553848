//! Recording cost of pool dispatch. Lives in its own integration-test
//! binary (own process) so no other test writes to the global registry
//! while the observation counts are compared.

use sdc_obs::MetricsSnapshot;
use sdc_runtime::{par_for, Runtime};

const CHUNKS: usize = 10_000;

fn observations(snapshot: &MetricsSnapshot) -> u64 {
    snapshot.histograms.values().map(|h| h.count).sum()
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn histogram_observations_per_dispatch_do_not_grow_with_chunk_count() {
    sdc_obs::set_enabled(true);
    for threads in [2, 7] {
        let before = sdc_obs::global().snapshot();
        {
            let rt = Runtime::new(threads);
            rt.install(|| {
                par_for(CHUNKS, 1, |r| {
                    std::hint::black_box(r);
                });
            });
            // Dropping the pool joins its workers, so every record they
            // make for this dispatch has landed before `after`.
        }
        let after = sdc_obs::global().snapshot();

        assert_eq!(counter(&after, "runtime.jobs") - counter(&before, "runtime.jobs"), 1);
        assert_eq!(
            counter(&after, "runtime.chunks") - counter(&before, "runtime.chunks"),
            CHUNKS as u64
        );
        let grown = observations(&after) - observations(&before);
        assert!(
            grown <= threads as u64 + 2,
            "threads={threads}: {grown} histogram observations for one dispatch of {CHUNKS} chunks"
        );
    }
}
