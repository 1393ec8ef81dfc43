//! Named metric registries. A [`Registry`] owns the name → metric maps;
//! handles returned by [`Registry::counter`] & co. are cheap clones sharing
//! the underlying atomics, so hot code fetches a handle once (one mutex
//! acquisition) and then increments lock-free.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::Snapshot;

/// A collection of named counters, gauges, and histograms plus an enabled
/// flag gating the more expensive instrumentation (spans read the clock
/// only when enabled).
///
/// Scoped registries (from [`Registry::new`]) start enabled — they exist
/// because someone wants numbers. The [`global`] registry starts disabled
/// unless the `FBOX_TELEMETRY` environment variable is set to a non-empty
/// value other than `0`.
#[derive(Debug, Default)]
pub struct Registry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// Creates a scoped registry, enabled from the start.
    pub fn new() -> Self {
        let r = Self::default();
        r.enabled.store(true, Ordering::Release);
        r
    }

    /// Whether instrumentation gated on this registry should run.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Turns gated instrumentation on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Returns the counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_insert(&self.counters, name, Counter::new)
    }

    /// Returns the gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_insert(&self.gauges, name, Gauge::new)
    }

    /// Returns the histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_insert(&self.histograms, name, Histogram::new)
    }

    /// Takes a point-in-time copy of every registered metric, sorted by
    /// name. The copy is not atomic across metrics (concurrent writers may
    /// land between reads), which is fine for reporting.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(
            &self.counters.lock().expect("telemetry counters poisoned"),
            &self.gauges.lock().expect("telemetry gauges poisoned"),
            &self.histograms.lock().expect("telemetry histograms poisoned"),
        )
    }

    /// Zeroes every registered metric. Registrations (and handles held by
    /// instrumented code) stay valid.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("telemetry counters poisoned").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("telemetry gauges poisoned").values() {
            g.reset();
        }
        for h in self.histograms.lock().expect("telemetry histograms poisoned").values() {
            h.reset();
        }
    }
}

fn get_or_insert<M: Clone>(map: &Mutex<BTreeMap<String, M>>, name: &str, new: fn() -> M) -> M {
    let mut map = map.lock().expect("telemetry registry poisoned");
    if let Some(m) = map.get(name) {
        return m.clone();
    }
    let m = new();
    map.insert(name.to_owned(), m.clone());
    m
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry fed by [`span`](crate::span())
/// and the pipeline instrumentation.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| {
        let r = Registry::default();
        let on =
            std::env::var("FBOX_TELEMETRY").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
        r.set_enabled(on);
        r
    })
}

/// Enables or disables the [`global`] registry's gated instrumentation.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(r.counter("x").get(), 3);
    }

    #[test]
    fn reset_keeps_registrations_live() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(5);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.snapshot().counter("x"), Some(1));
    }
}
