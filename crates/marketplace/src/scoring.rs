//! The marketplace's internal scoring function `f_q^l : W → [0, 1]`
//! (paper §3.3).
//!
//! Scores combine the merit signals the paper's related work identifies as
//! bias carriers (ratings and completed-job counts, Hannak et al. 2017)
//! with tenure and badges, minus the injected bias penalty, plus
//! deterministic per-(worker, query, city) noise so that rankings vary
//! across queries the way live crawls do.

use crate::bias::BiasProfile;
use crate::population::Worker;

/// Weights of the merit components. All components are normalized to
/// `[0, 1]` before weighting; the weighted merit is then mapped into
/// `[offset, offset + span]`.
///
/// The default compresses merit into `[0.35, 0.65]`: marketplaces place
/// most established workers in a fairly narrow quality band, and — for
/// measurement — a compressed merit spread keeps systematic bias (the
/// signal the F-Box quantifies) from being drowned out by which
/// individual high-merit workers a small demographic group happens to
/// contain in a given city.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoringModel {
    /// Weight of the normalized review rating.
    pub w_rating: f64,
    /// Weight of the normalized completed-job count.
    pub w_jobs: f64,
    /// Weight of the normalized tenure.
    pub w_tenure: f64,
    /// Weight of the elite badge.
    pub w_badge: f64,
    /// Lower end of the clean-score band.
    pub offset: f64,
    /// Width of the clean-score band (weights are normalized into it).
    pub span: f64,
    /// Standard deviation of the per-(worker, query, city) noise.
    pub noise_sd: f64,
}

impl Default for ScoringModel {
    fn default() -> Self {
        Self {
            w_rating: 0.4,
            w_jobs: 0.3,
            w_tenure: 0.2,
            w_badge: 0.1,
            offset: 0.35,
            span: 0.30,
            noise_sd: 0.03,
        }
    }
}

impl ScoringModel {
    /// The bias-free merit score of a worker, in
    /// `[offset, offset + span]`.
    pub fn clean_score(&self, w: &Worker) -> f64 {
        let rating = (w.rating - 3.0) / 2.0;
        let jobs = (w.jobs_completed as f64 / 500.0).min(1.0);
        let tenure = (w.tenure_days as f64 / 2000.0).min(1.0);
        let badge = if w.badge { 1.0 } else { 0.0 };
        // Clamped away from zero: weights are positive for every shipped
        // config, so the clamp never moves a real score by a single bit,
        // but an all-zero weight row degrades to merit 0 instead of NaN.
        let weight_sum = (self.w_rating + self.w_jobs + self.w_tenure + self.w_badge).max(1e-12);
        let merit = (self.w_rating * rating
            + self.w_jobs * jobs
            + self.w_tenure * tenure
            + self.w_badge * badge)
            / weight_sum;
        self.offset + self.span * merit
    }

    /// The platform score: clean score minus the bias penalty plus noise,
    /// clamped to `[0, 1]`.
    pub fn score(
        &self,
        worker: &Worker,
        bias: &BiasProfile,
        query: &str,
        category: &str,
        location: &str,
        noise_seed: u64,
    ) -> f64 {
        let penalty = bias.penalty(worker.demographic, query, category, location);
        self.score_with_penalty(worker, penalty, noise_seed)
    }

    /// [`score`](Self::score) with the worker's bias penalty already
    /// resolved — the form a ranking uses, since the penalty depends only
    /// on the worker's group within one query.
    pub fn score_with_penalty(&self, worker: &Worker, penalty: f64, noise_seed: u64) -> f64 {
        let clean = self.clean_score(worker);
        let noise = gaussian_noise(mix(noise_seed, worker.id)) * self.noise_sd;
        (clean - penalty + noise).clamp(0.0, 1.0)
    }
}

/// SplitMix64 — a tiny, high-quality mixer for deriving per-entity noise
/// streams from composite keys without carrying RNG state around.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a string into the noise-key space.
pub fn mix_str(seed: u64, s: &str) -> u64 {
    s.bytes().fold(seed, |acc, b| mix(acc, b as u64 + 1))
}

/// Standard normal sample derived deterministically from a key
/// (Box–Muller on two SplitMix64 streams).
fn gaussian_noise(key: u64) -> f64 {
    let u1 = (mix(key, 0x1234_5678) >> 11) as f64 / (1u64 << 53) as f64;
    let u2 = (mix(key, 0x8765_4321) >> 11) as f64 / (1u64 << 53) as f64;
    let u1 = u1.max(1e-12); // avoid ln(0)
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demographics::{Demographic, Ethnicity, Gender};

    fn worker(rating: f64, jobs: u32, tenure: u32, badge: bool) -> Worker {
        Worker {
            id: 1,
            demographic: Demographic { gender: Gender::Male, ethnicity: Ethnicity::White },
            city: 0,
            rating,
            jobs_completed: jobs,
            tenure_days: tenure,
            hourly_rate: 40.0,
            badge,
        }
    }

    #[test]
    fn clean_score_bounds() {
        let m = ScoringModel::default();
        assert!((m.clean_score(&worker(3.0, 0, 0, false)) - m.offset).abs() < 1e-12);
        let top = m.clean_score(&worker(5.0, 500, 2000, true));
        assert!((top - (m.offset + m.span)).abs() < 1e-12);
    }

    #[test]
    fn clean_score_monotone_in_merit() {
        let m = ScoringModel::default();
        let lo = m.clean_score(&worker(3.5, 50, 100, false));
        let hi = m.clean_score(&worker(4.8, 400, 1500, true));
        assert!(hi > lo);
    }

    #[test]
    fn bias_penalty_lowers_score() {
        let m = ScoringModel { noise_sd: 0.0, ..Default::default() };
        let w = worker(4.5, 200, 1000, false);
        let neutral = BiasProfile::neutral();
        let biased = BiasProfile::neutral().with_penalty(Gender::Male, Ethnicity::White, 0.2);
        let s0 = m.score(&w, &neutral, "q", "c", "l", 7);
        let s1 = m.score(&w, &biased, "q", "c", "l", 7);
        assert!((s0 - s1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let m = ScoringModel { noise_sd: 0.5, ..Default::default() };
        let w = worker(3.1, 5, 20, false);
        let biased = BiasProfile::neutral().with_penalty(Gender::Male, Ethnicity::White, 0.9);
        for seed in 0..200 {
            let s = m.score(&w, &biased, "q", "c", "l", seed);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn noise_is_deterministic_and_varies_by_key() {
        let m = ScoringModel::default();
        let w = worker(4.0, 100, 500, false);
        let b = BiasProfile::neutral();
        let s1 = m.score(&w, &b, "q", "c", "l", 42);
        let s2 = m.score(&w, &b, "q", "c", "l", 42);
        let s3 = m.score(&w, &b, "q", "c", "l", 43);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn gaussian_noise_is_roughly_standard() {
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|i| gaussian_noise(mix(99, i))).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn mix_str_differs_by_content() {
        assert_ne!(mix_str(1, "Lawn Mowing"), mix_str(1, "Leaf Raking"));
        assert_eq!(mix_str(1, "Lawn Mowing"), mix_str(1, "Lawn Mowing"));
    }
}
