//! Integration coverage for the telemetry crate: concurrency, spans,
//! histogram bucketing, and snapshot serialization — exercised through
//! the public API only.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fbox_telemetry::{Registry, Report, Snapshot, SpanGuard, HISTOGRAM_BUCKETS};

#[test]
fn concurrent_counter_increments_from_multiple_threads() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;

    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                // Each thread fetches its own handle, as the hot loops do.
                let counter = registry.counter("shared.hits");
                let gauge = registry.gauge("shared.level");
                for _ in 0..PER_THREAD {
                    counter.inc();
                    gauge.add(1);
                    gauge.add(-1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("shared.hits"),
        Some(THREADS as u64 * PER_THREAD),
        "no increments lost under contention"
    );
    assert_eq!(snapshot.gauge("shared.level"), Some(0), "balanced adds cancel");
}

#[test]
fn concurrent_histogram_records_keep_count_and_sum() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 1_000;

    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let hist = registry.histogram("shared.latency");
                for i in 0..PER_THREAD {
                    hist.record_ns(t as u64 * PER_THREAD + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    let snapshot = registry.snapshot();
    let hist = snapshot.histogram("shared.latency").expect("recorded");
    let n = THREADS as u64 * PER_THREAD;
    assert_eq!(hist.count, n);
    assert_eq!(hist.sum_ns, n * (n - 1) / 2, "sum of 0..n");
    assert_eq!(hist.min_ns, 0);
    assert_eq!(hist.max_ns, n - 1);
    let bucket_total: u64 = hist.buckets.iter().map(|b| b.count).sum();
    assert_eq!(bucket_total, n, "every record landed in exactly one bucket");
}

#[test]
fn nested_spans_each_record_one_duration() {
    let registry = Registry::new();
    {
        let _outer = SpanGuard::enter(&registry, "outer");
        let _mid = SpanGuard::enter(&registry, "mid");
        let inner = SpanGuard::enter(&registry, "inner");
        thread::sleep(Duration::from_millis(1));
        drop(inner);
    }
    let snapshot = registry.snapshot();
    for name in ["outer", "mid", "inner"] {
        let hist = snapshot.histogram(name).unwrap_or_else(|| panic!("span {name} recorded"));
        assert_eq!(hist.count, 1, "span {name} recorded once");
        assert!(hist.sum_ns >= 1_000_000, "span {name} covers the sleep");
    }
}

#[test]
fn disabled_registry_records_nothing_and_spans_stay_inert() {
    let registry = Registry::new();
    registry.set_enabled(false);
    registry.counter("quiet.counter").add(7);
    drop(SpanGuard::enter(&registry, "quiet.span"));
    // Counter handles still work (callers may cache them across toggles)…
    assert_eq!(registry.snapshot().counter("quiet.counter"), Some(7));
    // …but no span histogram was materialized.
    assert!(registry.snapshot().histogram("quiet.span").is_none());
}

/// The only test here that touches the process-wide registry and tracer.
#[test]
fn pipeline_span_feeds_the_sink_that_is_on() {
    let global = fbox_telemetry::global();
    let traced_begins = |trace: &fbox_trace::Trace, name: &str| {
        let begins = trace.events.iter().filter(|e| e.phase == fbox_trace::Phase::Begin);
        begins.filter(|e| e.name == name).count()
    };

    // Both off: no histogram, no trace event, the args closure never runs.
    global.set_enabled(false);
    drop(fbox_telemetry::span_args("both.off", |_| panic!("args built while tracing is off")));
    assert!(global.snapshot().histogram("both.off").is_none());

    // Metrics only.
    global.set_enabled(true);
    drop(fbox_telemetry::span("metrics.only"));
    global.set_enabled(false);
    assert_eq!(global.snapshot().histogram("metrics.only").map(|h| h.count), Some(1));

    // Trace only: the span carries its args, and no histogram appears.
    fbox_trace::start(fbox_trace::Clock::Logical);
    drop(fbox_telemetry::span_args("trace.only", |a| a.u64("n", 3)));
    let trace = fbox_trace::finish();
    assert_eq!(traced_begins(&trace, "trace.only"), 1);
    assert_eq!(trace.events[0].args, vec![("n", fbox_trace::TraceValue::U64(3))]);
    assert!(global.snapshot().histogram("trace.only").is_none());

    // Both on: one Begin event and one histogram count per span.
    global.set_enabled(true);
    fbox_trace::start(fbox_trace::Clock::Logical);
    for _ in 0..3 {
        let _span = fbox_telemetry::span("both.on");
    }
    let trace = fbox_trace::finish();
    global.set_enabled(false);
    assert_eq!(traced_begins(&trace, "both.on"), 3);
    assert_eq!(global.snapshot().histogram("both.on").map(|h| h.count), Some(3));
}

#[test]
fn histogram_bucket_boundaries_are_powers_of_two() {
    let registry = Registry::new();
    let hist = registry.histogram("edges");
    // One record on each side of every power-of-two boundary.
    for shift in 1..12u32 {
        let edge = 1u64 << shift;
        hist.record_ns(edge - 1);
        hist.record_ns(edge);
    }
    let snapshot = registry.snapshot();
    let edges = snapshot.histogram("edges").expect("recorded");
    for bucket in &edges.buckets {
        assert!(
            bucket.lower_ns == 0 || bucket.lower_ns.is_power_of_two(),
            "bucket lower bound {} is a power of two",
            bucket.lower_ns
        );
    }
    // 2^shift - 1 and 2^shift land in adjacent buckets: each bucket
    // [2^i, 2^(i+1)) got exactly two records (one from below, one from
    // above) except the first and last edge buckets.
    let total: u64 = edges.buckets.iter().map(|b| b.count).sum();
    assert_eq!(total, 22);
    assert!(edges.buckets.len() <= HISTOGRAM_BUCKETS);
}

#[test]
fn snapshot_json_snapshot_round_trip_is_identity() {
    let registry = Registry::new();
    registry.counter("ta.sorted_accesses").add(42);
    registry.counter("ta.random_accesses").add(7);
    registry.gauge("queue.depth").set(-3);
    let hist = registry.histogram("algo.ta");
    hist.record(Duration::from_micros(150));
    hist.record(Duration::from_millis(2));

    let snapshot = registry.snapshot();
    let json = snapshot.to_json();
    let back = Snapshot::from_json(&json).expect("round-trip parses");
    assert_eq!(back, snapshot);
    assert!(Report::diff(&snapshot, &back).is_zero());
}

#[test]
fn report_diff_surfaces_only_changes() {
    let registry = Registry::new();
    registry.counter("stable").add(5);
    registry.counter("moving").add(5);
    let before = registry.snapshot();
    registry.counter("moving").add(3);
    registry.counter("fresh").inc();
    let after = registry.snapshot();

    let report = Report::diff(&before, &after);
    assert!(!report.is_zero());
    let changed: Vec<_> = report.changed().map(|d| (d.name.as_str(), d.delta())).collect();
    assert_eq!(changed, vec![("fresh", 1), ("moving", 3)]);
}
