//! Drop-guard scope timing.

use std::time::Instant;

use crate::hist::LatencyHistogram;

/// Times the enclosing scope into a histogram on drop.
///
/// When recording is disabled, [`ScopeTimer::start`] skips reading the
/// clock entirely — the guard costs one branch on construction and one
/// on drop. Use the [`crate::scope!`] macro to also cache the
/// histogram lookup in a per-site static.
#[derive(Debug)]
#[must_use = "a scope timer measures until dropped; bind it with `let _t = ...`"]
pub struct ScopeTimer<'a> {
    hist: &'a LatencyHistogram,
    start: Option<Instant>,
}

impl<'a> ScopeTimer<'a> {
    /// Starts timing into `hist` (a no-op guard while disabled).
    #[inline]
    pub fn start(hist: &'a LatencyHistogram) -> Self {
        let start = crate::enabled().then(Instant::now);
        Self { hist, start }
    }
}

impl Drop for ScopeTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record_duration(start.elapsed());
        }
    }
}

/// Times the enclosing scope into the global histogram `$name`,
/// interning the handle once per call site:
///
/// ```
/// sdc_obs::set_enabled(true);
/// {
///     let _t = sdc_obs::scope!("docs.scope_macro");
/// }
/// assert!(sdc_obs::global().snapshot().histograms["docs.scope_macro"].count >= 1);
/// ```
#[macro_export]
macro_rules! scope {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::LatencyHistogram> =
            ::std::sync::OnceLock::new();
        $crate::ScopeTimer::start(SITE.get_or_init(|| $crate::global().histogram($name)))
    }};
}

/// The global counter `$name`, interned once per call site — use on
/// hot paths where taking the registry lock per event would show up.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// The global histogram `$name`, interned once per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::LatencyHistogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_records_on_drop() {
        crate::set_enabled(true);
        let h = LatencyHistogram::new();
        {
            let _t = ScopeTimer::start(&h);
            std::hint::black_box(());
        }
        assert_eq!(h.summary().count, 1);
    }

    #[test]
    fn scope_macro_uses_the_global_registry() {
        crate::set_enabled(true);
        for _ in 0..3 {
            let _t = crate::scope!("obs.test.macro_scope");
        }
        let snap = crate::global().snapshot();
        assert!(snap.histograms["obs.test.macro_scope"].count >= 3);
    }
}
