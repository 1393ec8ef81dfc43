//! Static-analysis throughput (`fbox-lint` over this workspace, timed at
//! `FBOX_THREADS` 1 and [`THREADS`]; the engine is single-threaded, so
//! both timings run the same code), writing the `BENCH_lint.json`
//! trajectory file at the workspace root. The measurement itself lives in
//! [`fbox_bench::suites::lint_suite`] so the `fbox-bench --check` trend
//! gate reruns exactly this workload.

use std::path::Path;

use fbox_bench::suites::{lint_suite, ITERATIONS, THREADS};
use fbox_bench::write_snapshot;

fn main() {
    let outcome = lint_suite();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = write_snapshot(&root, "lint", &outcome.snapshot).expect("snapshot written");
    println!(
        "lint over {ITERATIONS} iterations: 1 worker {:.1} ms, {THREADS} workers {:.1} ms \
         ({:.2}x, {} findings), absint fixpoint {:.1} ms; wrote {}",
        outcome.serial_ms,
        outcome.parallel_ms,
        outcome.speedup,
        outcome.findings,
        outcome.absint_ms,
        path.display()
    );
    // The report must not depend on the worker count: the engine runs
    // on one thread whatever `FBOX_THREADS` says.
    let parity = outcome
        .snapshot
        .gauges
        .iter()
        .find(|g| g.name == "lint.parity")
        .map(|g| g.value)
        .unwrap_or(0);
    assert_eq!(parity, 1, "serial and parallel lint reports diverged");
}
