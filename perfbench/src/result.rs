//! The result line and the stamp every result carries.
//!
//! The last line a run prints is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`; each metric is
//! `{"value": <number>, "unit": "<unit>"}`. The stamp (host parallelism,
//! SIMD dispatch, `SDC_THREADS`, source revision) goes into the result
//! file next to it, and `run.py compare` refuses results whose stamps
//! differ.

use std::fmt::Write as _;

/// Longest metric name accepted.
pub const MAX_NAME: usize = 64;
/// Longest unit accepted.
pub const MAX_UNIT: usize = 16;

/// Whether `name` is a valid metric name: 1 to [`MAX_NAME`] characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= MAX_NAME
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to [`MAX_UNIT`] characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= MAX_UNIT
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// What one run produced: operation counts, the output-check verdict and
/// the metrics, in report order.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (steps, rounds or requests).
    pub attempted: u64,
    /// Operations that errored, were shed, or failed an output check.
    pub failed: u64,
    /// Output checks that failed (each also counts in `failed`).
    pub check_failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a failed output check: it counts as one failed operation.
    pub fn fail_check(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.check_failures.push(what.into());
    }

    /// Whether every output check passed, every value is finite, and
    /// every name and unit is valid and used once.
    pub fn correct(&self) -> bool {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        let unique = names.windows(2).all(|w| w[0] != w[1]);
        self.check_failures.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && unique
            && self
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && valid_name(m.name) && valid_unit(m.unit))
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. A non-finite value (never valid JSON) is written as 0
    /// and makes the line `correct: false`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form keeps (`1` stays `1`, never `1.0e0`).
pub fn json_number(v: f64) -> String {
    format!("{v}")
}

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Logical CPUs the host offers.
    pub nproc: usize,
    /// The SIMD instruction set the tensor kernels dispatch to.
    pub isa: String,
    /// Worker threads of the `sdc-runtime` pool (`SDC_THREADS`).
    pub threads: usize,
    /// Source revision: a git commit, or a hash of the source tree.
    pub rev: String,
}

impl Stamp {
    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"isa\": \"{}\", \"sdc_threads\": {}, \"rev\": \"{}\"}}",
            self.nproc,
            escape(&self.isa),
            self.threads,
            escape(&self.rev)
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}
