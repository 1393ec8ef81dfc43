//! # fbox-par — deterministic scoped data-parallelism over `std::thread`
//!
//! The unfairness-cube build, the index build, and the two crawls are
//! embarrassingly parallel: every `(q, l)` cell (and every posting list)
//! is computed independently. The build environment is offline — no rayon
//! — so this crate hand-rolls the small slice of a work-stealing pool the
//! workspace actually needs:
//!
//! - [`scope`]: scoped threads (workers may borrow from the caller's
//!   stack);
//! - [`par_map`]: map a slice through a function on all workers, with a
//!   **guaranteed deterministic merge order** — the output is element `i`
//!   of the input mapped to slot `i`, regardless of which worker computed
//!   it or when it finished, so parallel output is byte-identical to the
//!   serial `items.iter().map(f).collect()`;
//! - [`par_chunks`]: the same over contiguous chunks, for work too fine
//!   to schedule per element.
//!
//! ## Worker count
//!
//! [`max_threads`] resolves, in order: a scoped [`with_threads`] override
//! (used by tests and benchmarks so they never mutate the process
//! environment), the `FBOX_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. A resolved count of 1 runs the
//! closure inline on the caller's thread — no spawn, no channel, nothing
//! to deschedule.
//!
//! ## Scheduling
//!
//! Workers pull the next unclaimed element index from a shared atomic
//! counter, so a slow cell (a large result page, a dense histogram) does
//! not stall a statically assigned partition. Each worker accumulates
//! `(index, result)` pairs privately; the caller's thread merges them by
//! index after the scope joins. Worker panics are re-raised on the caller
//! via [`std::panic::resume_unwind`] after all workers have stopped.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Scoped worker-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count parallel operations on this thread will use:
/// a [`with_threads`] override if one is active, else `FBOX_THREADS`,
/// else the machine's available parallelism (1 if unknown).
pub fn max_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Some(n) = threads_from_env(std::env::var("FBOX_THREADS").ok().as_deref()) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Parses an `FBOX_THREADS` value; `None` for unset, empty, zero, or
/// non-numeric input (which all fall back to auto-detection).
fn threads_from_env(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n >= 1)
}

/// Runs `f` with the worker count pinned to `n` on this thread (nested
/// parallel calls included), restoring the previous setting afterwards —
/// also on unwind. This is how tests compare `FBOX_THREADS ∈ {1, 2, 8}`
/// without racing on the process environment.
#[must_use = "with_threads returns the closure's result"]
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Scoped threads: workers spawned on `s` may borrow from the enclosing
/// stack frame and are all joined before `scope` returns. Thin, deliberate
/// wrapper over [`std::thread::scope`] so call sites stay within this
/// crate's API (and its determinism conventions).
///
/// Trace context does **not** cross `scope` automatically — only
/// [`par_map`]/[`par_chunks`] do that. Hand-rolled fan-outs should
/// capture a [`fbox_trace::Fork`] before spawning, call
/// `fork.branch(slot)` with a deterministic slot on each worker, and
/// finish each worker with [`fbox_trace::flush_thread`] (worker TLS
/// destructors are not guaranteed to have run when `scope` returns).
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> T,
{
    std::thread::scope(f)
}

/// Maps every element of `items` through `f` on up to [`max_threads`]
/// workers and returns the results **in input order** — byte-identical to
/// `items.iter().map(f).collect()` for any pure `f`, at any worker count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Captured before the serial/parallel split: branch slot `i` is the
    // item index in both paths, so the recorded span tree is identical
    // at any worker count.
    let fork = fbox_trace::Fork::capture(items.len());
    let workers = max_threads().min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let _task = fork.branch(i);
                f(item)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let run = |out: &mut Vec<(usize, R)>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let _task = fork.branch(i);
        out.push((i, f(item)));
    };
    let parts: Vec<Vec<(usize, R)>> = scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    run(&mut out);
                    fbox_trace::flush_thread();
                    out
                })
            })
            .collect();
        handles.into_iter().map(join_propagating).collect()
    });
    merge_indexed(parts, items.len())
}

/// Maps contiguous chunks of `items` (each at most `chunk_size` long)
/// through `f`, one result per chunk, returned in chunk order. Use when
/// per-element work is too small to schedule individually.
///
/// # Panics
///
/// Panics if `chunk_size` is 0.
pub fn par_chunks<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be at least 1");
    let n_chunks = items.len().div_ceil(chunk_size);
    // Branch slot = chunk index in both paths (see `par_map`).
    let fork = fbox_trace::Fork::capture(n_chunks);
    let workers = max_threads().min(n_chunks);
    if workers <= 1 {
        return items
            .chunks(chunk_size)
            .enumerate()
            .map(|(c, chunk)| {
                let _task = fork.branch(c);
                f(chunk)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let lo = c * chunk_size;
                        let hi = usize::min(lo + chunk_size, items.len());
                        let _task = fork.branch(c);
                        out.push((c, f(&items[lo..hi])));
                    }
                    fbox_trace::flush_thread();
                    out
                })
            })
            .collect();
        handles.into_iter().map(join_propagating).collect()
    });
    merge_indexed(parts, n_chunks)
}

/// Joins a scoped worker, re-raising its panic payload on the caller.
fn join_propagating<R>(handle: std::thread::ScopedJoinHandle<'_, R>) -> R {
    match handle.join() {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Flattens per-worker `(index, result)` batches into index order — the
/// deterministic-merge step. `expected` is the total result count; every
/// index in `0..expected` must appear exactly once (guaranteed by the
/// atomic counter handing each index to exactly one worker).
fn merge_indexed<R>(parts: Vec<Vec<(usize, R)>>, expected: usize) -> Vec<R> {
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(expected);
    for part in parts {
        indexed.extend(part);
    }
    indexed.sort_by_key(|&(i, _)| i);
    debug_assert!(indexed.iter().enumerate().all(|(slot, &(i, _))| slot == i));
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let parallel = with_threads(threads, || par_map(&items, |&x| x * x));
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(with_threads(4, || par_map(&[7u32], |&x| x + 1)), vec![8]);
    }

    #[test]
    fn par_map_runs_every_element_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = with_threads(4, || {
            par_map(&items, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x
            })
        });
        assert_eq!(out.len(), 257);
        assert_eq!(calls.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn par_chunks_matches_serial_chunking() {
        let items: Vec<u64> = (0..103).collect();
        let serial: Vec<u64> = items.chunks(10).map(|c| c.iter().sum()).collect();
        for threads in [1, 2, 8] {
            let parallel =
                with_threads(threads, || par_chunks(&items, 10, |c| c.iter().sum::<u64>()));
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk_size must be at least 1")]
    fn par_chunks_rejects_zero_chunk() {
        par_chunks(&[1u8, 2, 3], 0, |c| c.len());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate_to_caller() {
        let items: Vec<u32> = (0..64).collect();
        let _ = with_threads(4, || {
            par_map(&items, |&x| {
                assert!(x != 13, "worker boom");
                x
            })
        });
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = max_threads();
        let inner = with_threads(3, || {
            assert_eq!(max_threads(), 3);
            assert_eq!(with_threads(5, max_threads), 5);
            max_threads()
        });
        assert_eq!(inner, 3);
        assert_eq!(max_threads(), outer);
    }

    #[test]
    fn with_threads_restores_on_unwind() {
        let before = max_threads();
        let caught = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(max_threads(), before);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        assert_eq!(with_threads(0, max_threads), 1);
    }

    #[test]
    fn env_parsing_rules() {
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("0")), None);
        assert_eq!(threads_from_env(Some("banana")), None);
        assert_eq!(threads_from_env(Some("4")), Some(4));
        assert_eq!(threads_from_env(Some(" 12 ")), Some(12));
    }

    /// The positive `usize` a trimmed `FBOX_THREADS` value spells, worked
    /// out digit by digit without `str::parse`: an optional `+`, then
    /// ASCII digits only, the value in `1..=usize::MAX`.
    fn positive_usize(raw: &str) -> Option<usize> {
        let s = raw.trim();
        let digits = s.strip_prefix('+').unwrap_or(s);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut n: usize = 0;
        for b in digits.bytes() {
            n = n.checked_mul(10)?.checked_add(usize::from(b - b'0'))?;
        }
        (n >= 1).then_some(n)
    }

    /// Arbitrary input never panics, and yields `Some(n >= 1)` exactly when
    /// the trimmed value is a positive `usize`. Parses strings only; no
    /// worker thread starts.
    #[test]
    fn env_parsing_survives_arbitrary_input() {
        let max = usize::MAX.to_string();
        let past_max = format!("{}0", usize::MAX);
        let mut inputs: Vec<String> = [
            "0",
            "00",
            "+0",
            "-0",
            "-1",
            "+4",
            "++4",
            "4+",
            " \t8\n",
            "0012",
            "1_000",
            "1e3",
            "3.0",
            "\u{a0}5\u{a0}",
            "\u{663}",
            "8 8",
            "",
            " ",
            "\0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        inputs.extend([max.clone(), format!(" {max} "), past_max, "9".repeat(64)]);
        let mut state = 0x5EED_F0B0_u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let alphabet: Vec<char> = "0123456789 \t\n+-_.x\u{e9}\u{663}\u{a0}".chars().collect();
        for _ in 0..2_000 {
            let len = next(24);
            inputs.push((0..len).map(|_| alphabet[next(alphabet.len() as u64) as usize]).collect());
            // Whitespace-padded numbers, most of them in range.
            let pad = |n: u64| " \t".repeat(n as usize % 3);
            inputs.push(format!("{}{}{}", pad(next(9)), next(1 << 20), pad(next(9))));
        }
        for raw in &inputs {
            let got = threads_from_env(Some(raw));
            assert_eq!(got, positive_usize(raw), "FBOX_THREADS={raw:?}");
            assert!(got.is_none_or(|n| n >= 1), "FBOX_THREADS={raw:?}");
        }
        assert_eq!(threads_from_env(Some(&max)), Some(usize::MAX));
    }

    #[test]
    fn scope_joins_borrowing_workers() {
        let data = [1u64, 2, 3, 4];
        let total = AtomicU64::new(0);
        scope(|s| {
            for chunk in data.chunks(2) {
                s.spawn(|| total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed));
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }
}
