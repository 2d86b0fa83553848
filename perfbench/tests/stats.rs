//! The benchmark's own statistics and output format.

use sdc_perfbench::result::{json_number, valid_name, valid_unit, Outcome, Stamp};
use sdc_perfbench::stats::{median, min_samples, percentile, rank, MIN_BEYOND};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|v| v as f64).collect()
}

#[test]
fn percentiles_need_ten_samples_beyond_their_rank() {
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(min_samples(0.5), 20);
    assert_eq!(min_samples(0.9), 100);
    assert_eq!(percentile(&ramp(99), 0.9), None, "p90 of 99 leaves only 9 beyond");
    assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
    assert_eq!(percentile(&ramp(19), 0.5), None);
    assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
    assert_eq!(percentile(&[], 0.5), None);
    for n in [20, 57, 100, 1000] {
        for q in [0.5, 0.9] {
            if percentile(&ramp(n), q).is_some() {
                assert!(n - rank(q, n) >= MIN_BEYOND, "n={n} q={q}");
            }
        }
    }
}

#[test]
fn percentile_is_nearest_rank_of_unsorted_input() {
    let mut values = ramp(200);
    values.reverse();
    assert_eq!(percentile(&values, 0.5), Some(100.0));
    assert_eq!(percentile(&values, 0.9), Some(180.0));
}

#[test]
fn median_of_small_sets() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn metric_names_and_units_follow_the_charset() {
    for ok in ["setup_s", "op_ms_p50", "core.score_us_per_sample.b64", "node.frame.rx", "9lives"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in ["", ".hidden", "_x", "has space", "quote\"", "slash/x", &"a".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
    assert!(valid_name(&"a".repeat(64)));
    for ok in ["ms", "s", "1/s", "%", "samples/s", "count", "frac", "MB"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "m s", "µs", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad}");
    }
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let mut out = Outcome { attempted: 12, ..Outcome::default() };
    out.push("op_ms_p50", "ms", 1.2034);
    out.push("setup_s", "s", 0.8127);
    assert!(out.correct());
    assert_eq!(
        out.to_json(),
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
         {\"op_ms_p50\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
         \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
    );
}

#[test]
fn failed_checks_and_bad_values_make_the_line_incorrect() {
    let mut out = Outcome { attempted: 3, ..Outcome::default() };
    out.push("op_ms_p50", "ms", 1.0);
    out.fail_check("scores differ");
    assert_eq!(out.failed, 1);
    assert!(out.to_json().starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));

    let mut nan = Outcome { attempted: 1, ..Outcome::default() };
    nan.push("op_ms_p50", "ms", f64::NAN);
    assert!(!nan.correct());
    assert!(nan.to_json().contains("{\"value\": 0, \"unit\": \"ms\"}"), "NaN is never emitted");

    let mut dup = Outcome { attempted: 1, ..Outcome::default() };
    dup.push("x", "ms", 1.0);
    dup.push("x", "ms", 2.0);
    assert!(!dup.correct(), "names are used once");

    assert!(!Outcome::default().correct(), "nothing attempted");
    assert!(Outcome::default().to_json().contains("\"attempted\": 1"), "attempted is at least 1");
}

#[test]
fn numbers_keep_every_digit() {
    assert_eq!(json_number(82.33761100000001), "82.33761100000001");
    assert_eq!(json_number(204.0), "204");
    assert_eq!(json_number(1e-7), "0.0000001");
}

#[test]
fn stamp_serializes_every_field() {
    let stamp = Stamp { nproc: 2, isa: "avx2".into(), threads: 2, rev: "tree-\"x".into() };
    assert_eq!(
        stamp.to_json(),
        "{\"nproc\": 2, \"isa\": \"avx2\", \"sdc_threads\": 2, \"rev\": \"tree-\\\"x\"}"
    );
}
