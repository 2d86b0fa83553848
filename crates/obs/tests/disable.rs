//! Recording gate behaviour. Lives in its own integration-test binary
//! (own process) because the enable flag is process-wide: unit tests
//! that assert recorded counts all force it on, so a test that turns
//! it off must not share their process.

use sdc_obs::{global, set_enabled, LatencyHistogram};

#[test]
fn disabling_gates_every_record_path() {
    set_enabled(false);
    let h = LatencyHistogram::new();
    h.record(5);
    let c = global().counter("disable.test.counter");
    c.inc();
    {
        let _t = sdc_obs::scope!("disable.test.scope");
    }
    assert_eq!(h.summary().count, 0, "disabled histogram must drop records");
    assert_eq!(c.get(), 0, "disabled counter must drop increments");
    assert_eq!(global().snapshot().histograms["disable.test.scope"].count, 0);

    set_enabled(true);
    h.record(7);
    c.inc();
    assert_eq!(h.summary().count, 1);
    assert_eq!(h.summary().min, 7);
    assert_eq!(c.get(), 1);
}
