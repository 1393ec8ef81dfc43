//! # fbox-resilience — deterministic fault injection and graceful degradation
//!
//! The F-Box pipeline reproduces a live-platform audit (EDBT 2020,
//! "Fairness in Online Jobs"), and live audits do not get clean data:
//! requests time out, platforms throttle, result pages arrive half
//! rendered or with mangled rank sequences. This crate gives the
//! ingestion layer (`fbox-marketplace`'s crawl and `fbox-search`'s
//! study runner) a way to *rehearse* those failures without sacrificing
//! the repository's core contract — byte-identical output at any
//! `FBOX_THREADS`, on any machine, at any interrupt/resume point.
//!
//! The trick that makes resilience and determinism compatible: every
//! failure is **plan-injected**, never observed. A [`FaultPlan`] is a pure
//! function of `(seed, cell key, attempt)`, so each cell's complete
//! retry/backoff/outcome trajectory — its [`CellPlan`] — is computable
//! *before* the expensive query runs. Order-sensitive machinery (the
//! per-city [`CircuitBreaker`]) is driven in canonical grid order during a
//! cheap planning pass; only admitted cells fan out to the worker pool,
//! whose completion order therefore cannot influence any decision.
//! Backoff advances a [`VirtualClock`] rather than sleeping, which keeps
//! tests fast, keeps `Instant::now()` out of library code (the
//! `instant-outside-telemetry` lint stays clean), and makes the
//! accumulated delay itself reproducible.
//!
//! Module map:
//!
//! - [`fault`]: [`FaultPlan`], [`FaultProfile`], [`FaultKind`] — what goes
//!   wrong, when, deterministically.
//! - [`retry`]: [`RetryPolicy`] — capped exponential backoff with
//!   deterministic equal jitter.
//! - [`breaker`]: [`CircuitBreaker`] — per-region trip/cooldown/probe.
//! - [`clock`]: [`VirtualClock`] — simulated backoff time.
//! - [`journal`]: [`Journal`] — append-only completion log enabling
//!   interrupt/resume with byte-identical results.
//! - [`storage`]: [`StoragePlan`], [`StorageProfile`],
//!   [`StorageFaultKind`] — the same discipline applied to the disk under
//!   the `fbox-store` segment log (torn writes, bit flips, short reads).
//! - [`hash`]: stable key derivation (FNV-1a + splitmix64), shared by the
//!   plan and the jitter.
//!
//! The whole bundle is configured by [`Resilience`], constructed either
//! explicitly or from the `FBOX_FAULTS=<seed>:<profile>` environment
//! variable (see [`Resilience::from_env`]). Unset, the layer is inert and
//! the pipeline behaves exactly as it did before this crate existed.

pub mod breaker;
pub mod clock;
pub mod fault;
pub mod hash;
pub mod journal;
pub mod retry;
pub mod storage;

pub use breaker::{BreakerConfig, CircuitBreaker};
pub use clock::VirtualClock;
pub use fault::{FaultKind, FaultPlan, FaultProfile};
pub use journal::Journal;
pub use retry::RetryPolicy;
pub use storage::{StorageFaultKind, StoragePlan, StorageProfile};

/// Environment variable selecting a fault plan: `FBOX_FAULTS=<seed>:<profile>`
/// where `<profile>` is one of `none`, `mild`, `heavy`, `bursty` (e.g.
/// `FBOX_FAULTS=42:mild`). A bare `<seed>` implies the `mild` profile.
pub const FAULTS_ENV: &str = "FBOX_FAULTS";

/// A payload-level fault: the page arrived, but damaged. Unlike
/// [`FaultKind::Transient`]/[`FaultKind::RateLimited`] (which the retry
/// loop consumes), payload faults survive to the ingestion layer, which
/// must degrade gracefully: truncate keeps the valid prefix, corrupt must
/// be detected by validation and quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadFault {
    /// Only the top half of the results rendered.
    Truncate,
    /// The rank sequence is mangled; validation must reject the page.
    Corrupt,
}

/// How a planned cell resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The cell's query runs (on its final attempt), optionally with a
    /// payload fault applied to the fetched page.
    Run(Option<PayloadFault>),
    /// Every attempt failed at the transport level; the retry budget is
    /// spent and the cell becomes a missing observation.
    Exhausted,
}

/// The precomputed trajectory of one cell: how many attempts it takes,
/// how much virtual time it backs off, and how it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPlan {
    /// Attempts consumed (1 for a clean first try).
    pub attempts: u32,
    /// Retries consumed (`attempts - 1`).
    pub retries: u32,
    /// Total virtual backoff accumulated across retries, in milliseconds.
    pub backoff_ms: u64,
    /// How the cell resolves.
    pub disposition: Disposition,
}

impl CellPlan {
    /// Whether the plan counts as a failure for circuit-breaker purposes.
    /// Exhausted budgets and corrupted payloads are failures (the region
    /// is misbehaving); clean, truncated, and not-offered responses are
    /// not.
    #[must_use]
    pub fn is_failure(&self) -> bool {
        matches!(
            self.disposition,
            Disposition::Exhausted | Disposition::Run(Some(PayloadFault::Corrupt))
        )
    }
}

/// The full resilience configuration for one ingestion run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resilience {
    /// What goes wrong, and when.
    pub plan: FaultPlan,
    /// Retry budget and backoff shape.
    pub policy: RetryPolicy,
    /// Per-region circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Stop executing new cells after this many (replayed journal entries
    /// do not count). Used by tests to interrupt a crawl at a
    /// deterministic point; `None` runs to completion.
    pub interrupt_after: Option<usize>,
}

impl Default for Resilience {
    fn default() -> Self {
        Self::none()
    }
}

impl Resilience {
    /// The inert configuration: no faults, so no retries, no backoff, no
    /// breaker activity. The pipeline behaves exactly as if the
    /// resilience layer did not exist.
    #[must_use]
    pub fn none() -> Self {
        Self {
            plan: FaultPlan::none(),
            policy: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            interrupt_after: None,
        }
    }

    /// A configuration injecting faults per `plan`, with default retry and
    /// breaker tuning.
    #[must_use]
    pub fn with_plan(plan: FaultPlan) -> Self {
        Self { plan, ..Self::none() }
    }

    /// Reads [`FAULTS_ENV`] (`FBOX_FAULTS=<seed>:<profile>`). Unset or
    /// unparseable values yield the inert configuration — a malformed
    /// flag must never change pipeline output.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(FAULTS_ENV) {
            Ok(spec) => Self::parse_spec(&spec).unwrap_or_else(Self::none),
            Err(_) => Self::none(),
        }
    }

    /// Parses a `<seed>:<profile>` spec (or a bare `<seed>`, implying
    /// `mild`). Returns `None` on any syntax error.
    #[must_use]
    pub fn parse_spec(spec: &str) -> Option<Self> {
        let spec = spec.trim();
        if spec.is_empty() {
            return None;
        }
        let (seed_str, profile) = match spec.split_once(':') {
            Some((s, p)) => (s, FaultProfile::by_name(p.trim())?),
            None => (spec, FaultProfile::mild()),
        };
        let seed: u64 = seed_str.trim().parse().ok()?;
        Some(Self::with_plan(FaultPlan::new(seed, profile)))
    }

    /// Whether this configuration can ever perturb the pipeline.
    #[must_use]
    pub fn enabled(&self) -> bool {
        !self.plan.is_inert() || self.interrupt_after.is_some()
    }

    /// Plays out the retry loop for cell `key` without running anything:
    /// transient and rate-limit faults consume attempts and accumulate
    /// virtual backoff; the first non-retryable outcome (clean page,
    /// payload fault) resolves the cell; spending the whole budget on
    /// retryable faults exhausts it. Pure in `(self, key)` — this is what
    /// lets the breaker run in a planning pass before any query executes.
    #[must_use]
    pub fn plan_cell(&self, key: u64) -> CellPlan {
        let mut clock = VirtualClock::new();
        let mut attempts = 0u32;
        loop {
            let attempt = attempts;
            attempts += 1;
            match self.plan.fault(key, attempt) {
                None => {
                    return CellPlan {
                        attempts,
                        retries: attempts - 1,
                        backoff_ms: clock.now_ms(),
                        disposition: Disposition::Run(None),
                    };
                }
                Some(FaultKind::Truncated) => {
                    return CellPlan {
                        attempts,
                        retries: attempts - 1,
                        backoff_ms: clock.now_ms(),
                        disposition: Disposition::Run(Some(PayloadFault::Truncate)),
                    };
                }
                Some(FaultKind::Corrupted) => {
                    return CellPlan {
                        attempts,
                        retries: attempts - 1,
                        backoff_ms: clock.now_ms(),
                        disposition: Disposition::Run(Some(PayloadFault::Corrupt)),
                    };
                }
                Some(kind @ (FaultKind::Transient | FaultKind::RateLimited)) => {
                    if attempts >= self.policy.max_attempts {
                        return CellPlan {
                            attempts,
                            retries: attempts - 1,
                            backoff_ms: clock.now_ms(),
                            disposition: Disposition::Exhausted,
                        };
                    }
                    clock.advance_ms(self.policy.backoff_ms(key, attempt));
                    if kind == FaultKind::RateLimited {
                        clock.advance_ms(self.policy.rate_limit_penalty_ms);
                    }
                }
            }
        }
    }

    /// [`Self::plan_cell`], additionally narrating the planned fault
    /// episode as trace instants under the caller's current span:
    /// `resilience.fault` per injected fault, `resilience.retry` per
    /// scheduled backoff (with its virtual delay), and
    /// `resilience.exhausted` when the budget is spent. A no-op without
    /// an active trace session; the returned plan is identical either
    /// way. Called from worker closures, so it must never panic.
    #[must_use]
    pub fn plan_cell_traced(&self, key: u64) -> CellPlan {
        let cell = self.plan_cell(key);
        if !fbox_trace::enabled() {
            return cell;
        }
        for attempt in 0..cell.attempts {
            let Some(kind) = self.plan.fault(key, attempt) else { continue };
            fbox_trace::instant_args("resilience.fault", |a| {
                a.u64("attempt", u64::from(attempt));
                a.str("kind", kind.label());
            });
            // A retryable fault schedules a backoff unless it was the
            // budget-spending final attempt.
            if matches!(kind, FaultKind::Transient | FaultKind::RateLimited)
                && attempt + 1 < cell.attempts
            {
                let mut backoff_ms = self.policy.backoff_ms(key, attempt);
                if kind == FaultKind::RateLimited {
                    backoff_ms += self.policy.rate_limit_penalty_ms;
                }
                fbox_trace::instant_args("resilience.retry", |a| {
                    a.u64("attempt", u64::from(attempt));
                    a.u64("backoff_ms", backoff_ms);
                });
            }
        }
        if cell.disposition == Disposition::Exhausted {
            fbox_trace::instant_args("resilience.exhausted", |a| {
                a.u64("attempts", u64::from(cell.attempts));
            });
        }
        cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_runs_every_cell_cleanly() {
        let r = Resilience::none();
        for key in 0..64u64 {
            let cell = r.plan_cell(key);
            assert_eq!(
                cell,
                CellPlan {
                    attempts: 1,
                    retries: 0,
                    backoff_ms: 0,
                    disposition: Disposition::Run(None)
                }
            );
        }
        assert!(!r.enabled());
    }

    #[test]
    fn plans_are_deterministic() {
        let r = Resilience::with_plan(FaultPlan::new(9, FaultProfile::heavy()));
        for key in 0..512u64 {
            assert_eq!(r.plan_cell(key), r.plan_cell(key));
        }
    }

    #[test]
    fn heavy_profile_produces_every_disposition() {
        let r = Resilience::with_plan(FaultPlan::new(1, FaultProfile::heavy()));
        let mut clean = 0u32;
        let mut truncated = 0u32;
        let mut corrupted = 0u32;
        let mut exhausted = 0u32;
        let mut retried = 0u32;
        for key in 0..4096u64 {
            let cell = r.plan_cell(key);
            assert!(cell.attempts >= 1 && cell.attempts <= r.policy.max_attempts);
            assert_eq!(cell.retries, cell.attempts - 1);
            if cell.retries > 0 {
                retried += 1;
                assert!(cell.backoff_ms > 0, "retries must cost virtual time");
            } else {
                assert_eq!(cell.backoff_ms, 0);
            }
            match cell.disposition {
                Disposition::Run(None) => clean += 1,
                Disposition::Run(Some(PayloadFault::Truncate)) => truncated += 1,
                Disposition::Run(Some(PayloadFault::Corrupt)) => corrupted += 1,
                Disposition::Exhausted => exhausted += 1,
            }
        }
        assert!(clean > 0, "heavy profile still mostly succeeds");
        assert!(truncated > 0);
        assert!(corrupted > 0);
        assert!(exhausted > 0, "budget of {} must exhaust sometimes", r.policy.max_attempts);
        assert!(retried > 0);
    }

    #[test]
    fn exhausted_cell_spends_the_whole_budget() {
        // All faults transient → every cell exhausts after max_attempts.
        let profile = FaultProfile {
            transient_pm: 1000,
            rate_limited_pm: 0,
            truncated_pm: 0,
            corrupted_pm: 0,
        };
        let r = Resilience::with_plan(FaultPlan::new(3, profile));
        let cell = r.plan_cell(17);
        assert_eq!(cell.disposition, Disposition::Exhausted);
        assert_eq!(cell.attempts, r.policy.max_attempts);
        assert!(cell.is_failure());
    }

    #[test]
    fn rate_limits_back_off_harder_than_transients() {
        let transient = FaultProfile {
            transient_pm: 1000,
            rate_limited_pm: 0,
            truncated_pm: 0,
            corrupted_pm: 0,
        };
        let limited = FaultProfile {
            transient_pm: 0,
            rate_limited_pm: 1000,
            truncated_pm: 0,
            corrupted_pm: 0,
        };
        let key = 11;
        let a = Resilience::with_plan(FaultPlan::new(5, transient)).plan_cell(key);
        let b = Resilience::with_plan(FaultPlan::new(5, limited)).plan_cell(key);
        assert_eq!(a.retries, b.retries);
        let penalty = RetryPolicy::default().rate_limit_penalty_ms;
        assert_eq!(b.backoff_ms, a.backoff_ms + u64::from(a.retries) * penalty);
    }

    #[test]
    fn failure_classification() {
        let run = |d| CellPlan { attempts: 1, retries: 0, backoff_ms: 0, disposition: d };
        assert!(run(Disposition::Exhausted).is_failure());
        assert!(run(Disposition::Run(Some(PayloadFault::Corrupt))).is_failure());
        assert!(!run(Disposition::Run(Some(PayloadFault::Truncate))).is_failure());
        assert!(!run(Disposition::Run(None)).is_failure());
    }

    #[test]
    fn spec_parsing() {
        let r = Resilience::parse_spec("42:mild").unwrap();
        assert_eq!(r.plan.seed(), 42);
        assert_eq!(*r.plan.profile(), FaultProfile::mild());

        let r = Resilience::parse_spec(" 7 : heavy ").unwrap();
        assert_eq!(r.plan.seed(), 7);
        assert_eq!(*r.plan.profile(), FaultProfile::heavy());

        // Bare seed implies mild.
        let r = Resilience::parse_spec("13").unwrap();
        assert_eq!(r.plan.seed(), 13);
        assert_eq!(*r.plan.profile(), FaultProfile::mild());

        assert!(Resilience::parse_spec("").is_none());
        assert!(Resilience::parse_spec("x:mild").is_none());
        assert!(Resilience::parse_spec("42:chaotic").is_none());
        assert!(Resilience::parse_spec("42:").is_none());
    }
}
