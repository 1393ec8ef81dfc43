//! The closed loop every workload runs under, and the simulator
//! inputs the workloads share.

use crate::metrics::Values;
use crate::stats::{self, Reservoir};
use crate::trace::Tracer;
use fbox_marketplace::{Marketplace, Population, ScoringModel};
use fbox_repro::calibrate;
use fbox_search::{ExtensionRunner, NoiseModel, SearchEngine, StudyDesign};
use std::path::Path;
use std::time::{Duration, Instant};

/// One benchmark workload: seeded inputs, a timed set-up, and a stream
/// of ops, each followed by an untimed correctness check.
pub trait Workload: Sized {
    /// Generated inputs. Making them is not part of `setup_s`.
    type Input;
    /// What one op needs; drawing it is not timed.
    type Request;
    /// What one op produced, handed to [`Workload::check`].
    type Output;

    /// Generates the inputs from `seed`. Files go under `dir`.
    fn prepare(seed: u64, dir: &Path) -> Self::Input;
    /// The work `setup_s` times.
    fn setup(input: Self::Input, tr: &mut Tracer) -> Self;
    /// Whether the set-up's own checks held.
    fn setup_ok(&self) -> bool {
        true
    }
    /// Draws op `i`'s request.
    fn request(&mut self, i: u64) -> Self::Request;
    /// One op: the only code an op latency sample covers.
    fn op(&mut self, req: &Self::Request, tr: &mut Tracer) -> Self::Output;
    /// Checks one op's output; `false` counts the op as failed.
    fn check(&mut self, req: &Self::Request, out: Self::Output) -> bool;
    /// Per-layer metrics from the spans of a traced run, plus any probe
    /// calls of the workload's own.
    fn layers(&mut self, tr: &mut Tracer, out: &mut Values);
}

/// Which ops of a run are traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    Off,
    /// Odd-numbered ops, so traced and untraced ops share conditions.
    Alternate,
    All,
}

/// Latency samples kept per run and kind (untraced, traced): enough for
/// a p99 with thousands of samples beyond it.
const SAMPLE_CAP: usize = 1 << 18;

/// Latency samples and op counts of one measured loop.
#[derive(Debug)]
pub struct Samples {
    pub untraced_ms: Reservoir,
    pub traced_ms: Reservoir,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs ops back to back (one closed-loop client) until `budget` has
/// passed, at least one op.
pub fn drive<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    budget: Duration,
    mode: TraceMode,
) -> Samples {
    let traced_cap = if mode == TraceMode::Off { 0 } else { SAMPLE_CAP };
    let mut s = Samples {
        untraced_ms: Reservoir::new(SAMPLE_CAP),
        traced_ms: Reservoir::new(traced_cap),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed() < budget {
        let req = w.request(i);
        let traced = match mode {
            TraceMode::Off => false,
            TraceMode::Alternate => i % 2 == 1,
            TraceMode::All => true,
        };
        tr.set_enabled(traced);
        tr.set_op(Some(i));
        let t = Instant::now();
        // The op's root span: layer spans nest under it, and its self time
        // is the op's time outside every layer call.
        let root = tr.begin("op");
        let out = w.op(&req, tr);
        tr.end(root);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.set_enabled(false);
        tr.set_op(None);
        if traced { &mut s.traced_ms } else { &mut s.untraced_ms }.push(ms);
        s.attempted += 1;
        if !w.check(&req, out) {
            s.failed += 1;
        }
        i += 1;
    }
    s
}

/// Puts the nearest-rank `p`-th percentile of the spans named `span`,
/// in µs, into `out` as `metric`.
pub fn put_percentile(tr: &Tracer, span: &str, p: f64, metric: &'static str, out: &mut Values) {
    if let Some(v) = stats::percentile(&tr.durations_us(span), p) {
        out.insert(metric, v);
    }
}

/// Puts the median duration of the spans named `span`, in ms.
pub fn put_median_ms(tr: &Tracer, span: &str, metric: &'static str, out: &mut Values) {
    if let Some(v) = stats::median(&tr.durations_us(span)) {
        out.insert(metric, v / 1e3);
    }
}

/// The calibrated TaskRabbit marketplace at simulator seed `seed`.
/// Every workload simulates the platforms at the repro seed
/// (`calibrate::SEED`), the instance the paper's tables come from; the
/// benchmark's `--seed` draws the op sequence.
pub fn marketplace(seed: u64) -> Marketplace {
    Marketplace::new(
        Population::paper(seed),
        ScoringModel::default(),
        calibrate::taskrabbit_bias(),
        seed,
    )
}

/// The calibrated Google study at the repro seed: engine, design and
/// runner.
pub fn study() -> (SearchEngine, StudyDesign, ExtensionRunner) {
    let seed = calibrate::SEED;
    let engine =
        SearchEngine::new(calibrate::google_personalization(), NoiseModel::default(), seed);
    (engine, StudyDesign { participants_per_group: 3, seed }, ExtensionRunner::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails the check of every third op.
    struct FailEveryThird;

    impl Workload for FailEveryThird {
        type Input = ();
        type Request = u64;
        type Output = u64;
        fn prepare(_: u64, _: &Path) {}
        fn setup((): (), _: &mut Tracer) -> Self {
            Self
        }
        fn request(&mut self, i: u64) -> u64 {
            i
        }
        fn op(&mut self, req: &u64, tr: &mut Tracer) -> u64 {
            tr.span("leaf", || std::hint::black_box(*req))
        }
        fn check(&mut self, req: &u64, out: u64) -> bool {
            out == *req && !req.is_multiple_of(3)
        }
        fn layers(&mut self, _: &mut Tracer, _: &mut Values) {}
    }

    #[test]
    fn a_failing_check_counts_as_a_failed_op() {
        let mut tr = Tracer::new(false);
        let mut w = FailEveryThird::setup((), &mut tr);
        let s = drive(&mut w, &mut tr, Duration::from_millis(20), TraceMode::Alternate);
        assert!(s.attempted >= 3);
        assert_eq!(s.failed, s.attempted.div_ceil(3));
        assert_eq!(s.untraced_ms.seen() + s.traced_ms.seen(), s.attempted);
        // Alternate mode traces exactly the odd ops: a root and a leaf each.
        assert_eq!(tr.spans().len() as u64, 2 * s.traced_ms.seen());
        assert!(tr.spans().iter().all(|sp| sp.op.is_some_and(|o| o % 2 == 1)));
        assert!(tr.spans().iter().all(|sp| (sp.name == "op") == sp.parent.is_none()));
    }
}
