//! RAII wall-clock spans. A [`SpanGuard`] times its region into the
//! histogram of the same name (so `count` is the per-span call count) and
//! is inert on a disabled registry. [`span()`] pairs one with a
//! `fbox-trace` span: the pipeline's one guard for both sinks.

use std::time::Instant;

use crate::metrics::Histogram;
use crate::registry::{global, Registry};

/// Histogram-only guard: records its lifetime's duration on drop.
#[must_use = "a span measures the time until the guard is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(Histogram, Instant)>,
}

impl SpanGuard {
    /// Opens a span named `name` on `registry`. Inert if the registry is
    /// disabled.
    #[must_use = "a span measures the time until the guard is dropped"]
    pub fn enter(registry: &Registry, name: &str) -> SpanGuard {
        let active = registry.enabled().then(|| (registry.histogram(name), Instant::now()));
        SpanGuard { active }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((histogram, start)) = self.active.take() {
            histogram.record(start.elapsed());
        }
    }
}

/// One span feeding both sinks: the causal trace and the duration
/// histogram of the same name. Returned by [`span()`] / [`span_args`].
#[must_use = "the span closes when this guard drops"]
pub struct Span {
    // Fields drop in declaration order: the histogram records before the
    // trace span's End event is pushed, so trace bookkeeping stays out of
    // the measured duration.
    _timing: SpanGuard,
    _trace: fbox_trace::SpanGuard,
}

/// Opens a pipeline span named `name`; it closes when the guard drops.
#[must_use = "the span closes when this guard drops"]
pub fn span(name: &'static str) -> Span {
    span_args(name, |_| {})
}

/// [`span`] with key-value trace args; `fill` runs only when tracing is
/// on. The histogram is keyed by `name` alone.
#[must_use = "the span closes when this guard drops"]
pub fn span_args(name: &'static str, fill: impl FnOnce(&mut fbox_trace::Args)) -> Span {
    let trace = fbox_trace::span_args(name, fill);
    Span { _timing: SpanGuard::enter(global(), name), _trace: trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_is_recorded_when_unwinding_through_a_live_span() {
        let r = Registry::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = SpanGuard::enter(&r, "doomed");
            panic!("unwind through a live span");
        }));
        assert!(caught.is_err());
        assert_eq!(r.snapshot().histogram("doomed").map(|h| h.count), Some(1));
    }
}
