//! # fbox-trace — causal structured tracing for the F-Box pipeline
//!
//! Zero-dependency tracing with per-thread lock-free buffers: recording
//! an event is one acquire load plus a thread-local `Vec` push;
//! buffers are drained only at [`finish`] (or spilled when a worker
//! thread exits). Spans nest via a per-thread frame stack, and
//! [`Fork`] carries the caller's span context across `fbox-par`
//! fan-outs so a worker's cell span parents to the cube-build span that
//! spawned it — on any thread, at any `FBOX_THREADS`.
//!
//! Two clocks:
//! - [`Clock::Logical`] — deterministic ticks assigned by a canonical
//!   DFS at flush; trace bytes are identical at any thread count
//!   (this is what the determinism tests assert).
//! - [`Clock::Wall`] — real timestamps for profiling; the only other
//!   sanctioned `Instant::now()` reader besides `fbox-telemetry`
//!   (see `Lint.toml`).
//!
//! Pipeline code opens spans through `fbox_telemetry::span`, which wraps
//! [`span`] and also feeds the duration histogram of the same name.
//!
//! Two exports: [`Trace::to_chrome_json`] (Perfetto /
//! `chrome://tracing`) and [`Trace::to_folded`] (collapsed stacks for
//! flamegraph renderers).
//!
//! ```
//! use fbox_trace as trace;
//!
//! trace::start(trace::Clock::Logical);
//! {
//!     let _build = trace::span("cube.build");
//!     let fork = trace::Fork::capture(2);
//!     for slot in 0..2 {
//!         let _task = fork.branch(slot); // normally on a worker thread
//!         trace::instant_args("cell.done", |a| a.u64("slot", slot as u64));
//!     }
//! }
//! let t = trace::finish();
//! assert!(t.to_chrome_json().contains("cube.build"));
//! ```

mod collector;
mod event;
mod export;

pub use collector::{enabled, finish, flush_thread, instant, instant_args, span, span_args, start};
pub use collector::{Clock, Fork, SpanGuard};
pub use event::{derive_span_id, Args, Event, Phase, TraceValue, TRACE_ID};
pub use export::Trace;

/// The environment variable naming a Chrome-JSON output path; read once
/// and cached (the read itself is sanctioned for this crate in
/// `Lint.toml` — the snapshot keeps later `set_var` games from
/// introducing nondeterminism).
pub const TRACE_ENV: &str = "FBOX_TRACE";

/// Path from `FBOX_TRACE`, if set and non-empty. First call snapshots
/// the environment; later calls return the cached value.
#[must_use]
pub fn env_trace_path() -> Option<String> {
    static PATH: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    PATH.get_or_init(|| std::env::var(TRACE_ENV).ok().filter(|p| !p.is_empty())).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The collector is process-global; tests that start/finish
    /// sessions must not interleave.
    static SESSION_LOCK: Mutex<()> = Mutex::new(());

    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        SESSION_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _guard = serialized();
        assert!(!enabled());
        let _span = span("ignored");
        instant("also ignored");
        let trace = finish();
        assert!(trace.is_empty());
    }

    #[test]
    fn spans_nest_and_instants_attach() {
        let _guard = serialized();
        start(Clock::Logical);
        {
            let _outer = span("outer");
            instant_args("mark", |a| {
                a.u64("n", 7);
                a.str("what", "threshold");
            });
            let _inner = span_args("inner", |a| a.bool("deep", true));
        }
        let trace = finish();
        let shape: Vec<_> = trace.events.iter().map(|e| (e.name, e.phase)).collect();
        assert_eq!(
            shape,
            vec![
                ("outer", Phase::Begin),
                ("mark", Phase::Instant),
                ("inner", Phase::Begin),
                ("inner", Phase::End),
                ("outer", Phase::End),
            ]
        );
        let outer_id = trace.events[0].span_id;
        assert_eq!(trace.events[1].parent_id, outer_id, "instant attaches to outer");
        assert_eq!(trace.events[2].parent_id, outer_id, "inner parents to outer");
        assert!(trace.events.iter().all(|e| e.trace_id == TRACE_ID));
        assert!(trace.events.iter().all(|e| e.thread_id == 0), "logical mode folds tids");
    }

    #[test]
    fn fork_branches_parent_to_captured_span() {
        let _guard = serialized();
        start(Clock::Logical);
        {
            let _root = span("fanout");
            let fork = Fork::capture(3);
            // Worker threads each enter one positional branch.
            std::thread::scope(|scope| {
                for slot in 0..3 {
                    scope.spawn(move || {
                        {
                            let _task = fork.branch(slot);
                            instant("work");
                        }
                        flush_thread();
                    });
                }
            });
        }
        let trace = finish();
        let root = trace.events.iter().find(|e| e.name == "fanout").expect("root span");
        let tasks: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.name == "par.task" && e.phase == Phase::Begin)
            .collect();
        assert_eq!(tasks.len(), 3);
        for task in &tasks {
            assert_eq!(task.parent_id, root.span_id, "branch parents to captured span");
        }
        // Branches appear in slot order regardless of scheduling.
        let slots: Vec<u64> = tasks
            .iter()
            .map(|t| match t.args.first() {
                Some(&("slot", TraceValue::U64(s))) => s,
                other => panic!("missing slot arg: {other:?}"),
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }

    #[test]
    fn serial_and_threaded_branches_produce_identical_traces() {
        let _guard = serialized();
        let run = |threaded: bool| {
            start(Clock::Logical);
            {
                let _root = span("fanout");
                let fork = Fork::capture(4);
                if threaded {
                    std::thread::scope(|scope| {
                        for slot in 0..4 {
                            scope.spawn(move || {
                                {
                                    let _task = fork.branch(slot);
                                    let _cell = span("cell");
                                    instant_args("done", |a| a.u64("slot", slot as u64));
                                }
                                flush_thread();
                            });
                        }
                    });
                } else {
                    for slot in 0..4 {
                        let _task = fork.branch(slot);
                        let _cell = span("cell");
                        instant_args("done", |a| a.u64("slot", slot as u64));
                    }
                }
            }
            finish().to_chrome_json()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn wall_clock_timestamps_are_monotone_per_thread() {
        let _guard = serialized();
        start(Clock::Wall);
        {
            let _a = span("a");
            instant("tick");
        }
        let trace = finish();
        assert_eq!(trace.clock, Clock::Wall);
        let ts: Vec<u64> = trace.events.iter().map(|e| e.ts_ns).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "single-thread wall timestamps are ordered");
    }
}
