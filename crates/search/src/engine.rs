//! The personalized search engine.
//!
//! A search scores the (query, location) posting pool as
//!
//! ```text
//! score(u, p) = base(p)                                   // shared ranking
//!             + strength(g(u), q, l) · affinity(g(u), p)  // group personalization
//!             + ε_user · affinity(u, p)                   // idiosyncratic taste
//!             + formulation perturbation                  // near-synonym terms
//!             + carry-over + A/B + geolocation noise      // §5.1.2 noise sources
//! ```
//!
//! and returns the top page. Every term is a pure function of the engine
//! seed and the request, so studies replay exactly.
//!
//! Each term is computed once, at the outermost scope where it is
//! constant: the engine folds the seed's key prefixes, a
//! [`SearchSession`] (one user × query × location) holds the pool and the
//! first three terms summed, [`TermScores`] add one formulation's
//! shift, and [`SearchSession::attempt`] adds only the noise. The sum is
//! still evaluated left to right, so every hoisted value is a prefix of
//! the same f64 expression and pages are bit-identical to scoring each
//! request from scratch.

use fbox_core::measures::float::floor_units;

use crate::corpus::{PostingPool, RESULT_SIZE};
use crate::hash::{mix, mix_str, signed};
use crate::noise::{NoiseModel, RequestContext};
use crate::personalize::PersonalizationProfile;
use crate::user::SearchUser;

/// Magnitude of the per-user idiosyncratic taste component. Small: users
/// in the same group see *similar but not identical* lists, as in real
/// personalization.
const USER_TASTE: f64 = 0.02;

/// Magnitude of the formulation perturbation: equivalent search terms
/// return similar, slightly reshuffled results (Table 6's "results are
/// similar to the original term").
const FORMULATION_SHIFT: f64 = 0.03;

/// The engine seed folded with each score term's label.
#[derive(Debug, Clone, Copy)]
struct TermKeys {
    group_affinity: u64,
    user_taste: u64,
    formulation: u64,
    carryover: u64,
    ab: u64,
    ab_direction: u64,
    geo: u64,
}

impl TermKeys {
    fn new(seed: u64) -> Self {
        Self {
            group_affinity: mix_str(seed, "group-affinity"),
            user_taste: mix_str(seed, "user-taste"),
            formulation: mix_str(seed, "formulation"),
            carryover: mix_str(seed, "carryover"),
            ab: mix_str(seed, "ab"),
            ab_direction: mix_str(seed, "ab-direction"),
            geo: mix_str(seed, "geo"),
        }
    }
}

/// A simulated job-search engine.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    personalization: PersonalizationProfile,
    noise: NoiseModel,
    seed: u64,
    keys: TermKeys,
}

impl SearchEngine {
    /// Assembles an engine.
    pub fn new(personalization: PersonalizationProfile, noise: NoiseModel, seed: u64) -> Self {
        Self { personalization, noise, seed, keys: TermKeys::new(seed) }
    }

    /// The personalization profile in force.
    pub fn personalization(&self) -> &PersonalizationProfile {
        &self.personalization
    }

    /// The noise model in force.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Opens a session: everything about `user`'s searches for `query`
    /// (in `category`) at `location` that no search term or request
    /// changes.
    pub fn session(
        &self,
        user: &SearchUser,
        query: &str,
        category: &str,
        location: &str,
    ) -> SearchSession<'_> {
        let pool = PostingPool::new(self.seed, query, location);
        let strength = self.personalization.strength(user.demographic, query, category, location);
        // Group affinity direction: shared by all members of the user's
        // full demographic group.
        let group_key = mix(
            self.keys.group_affinity,
            (user.demographic.gender.value_id().0 as u64) << 8
                | user.demographic.ethnicity.value_id().0 as u64,
        );
        let user_key = mix(self.keys.user_taste, user.id);
        let partial = (0..pool.len())
            .map(|i| {
                let id = pool.ids()[i];
                pool.base(i)
                    + strength * signed(mix(group_key, id))
                    + USER_TASTE * signed(mix(user_key, id))
            })
            .collect();
        SearchSession { engine: self, user_id: user.id, pool, partial }
    }

    /// Executes one search request and returns the ranked posting ids
    /// (best first, one page).
    ///
    /// - `query`: the canonical study query (keys the posting pool);
    /// - `formulation`: the concrete search term typed (a near-synonym);
    /// - `category`: the query's job category (personalization scoping);
    /// - `location`: the search location.
    pub fn search(
        &self,
        user: &SearchUser,
        query: &str,
        formulation: &str,
        category: &str,
        location: &str,
        ctx: &RequestContext,
    ) -> Vec<u64> {
        let session = self.session(user, query, category, location);
        let term = session.term(formulation);
        let previous = ctx.previous.as_ref().map(|(prev, t)| (session.carryover_key(prev), *t));
        session.attempt(&term, ctx.time_min, previous, ctx.proxied)
    }
}

/// One user's searches for one query at one location: the posting pool
/// and, per posting, `base + strength · group affinity + USER_TASTE ·
/// user affinity`.
#[derive(Debug, Clone)]
pub struct SearchSession<'e> {
    engine: &'e SearchEngine,
    user_id: u64,
    pool: PostingPool,
    partial: Vec<f64>,
}

/// One search term's scores within a session: the session's partial
/// sums plus the term's formulation shift.
#[derive(Debug, Clone)]
pub struct TermScores(Vec<f64>);

impl SearchSession<'_> {
    /// Adds the formulation shift of the search term `formulation`.
    pub fn term(&self, formulation: &str) -> TermScores {
        let formulation_key = mix_str(self.engine.keys.formulation, formulation);
        TermScores(
            self.partial
                .iter()
                .zip(self.pool.ids())
                .map(|(&s, &id)| s + FORMULATION_SHIFT * signed(mix(formulation_key, id)))
                .collect(),
        )
    }

    /// The key a previously run search term's carry-over perturbs later
    /// requests with ([`attempt`](Self::attempt)'s `previous`).
    pub fn carryover_key(&self, previous_term: &str) -> u64 {
        mix(mix_str(self.engine.keys.carryover, previous_term), self.user_id)
    }

    /// Runs `term` once at minute `time_min` and returns the page.
    /// `previous` is the carry-over key and minute of the request before
    /// it, if any; `proxied` pins the request's origin (no geolocation
    /// noise).
    ///
    /// # Panics
    ///
    /// Panics if the previous request is later than `time_min`.
    pub fn attempt(
        &self,
        term: &TermScores,
        time_min: f64,
        previous: Option<(u64, f64)>,
        proxied: bool,
    ) -> Vec<u64> {
        let mut scored = self.scores(term, time_min, previous, proxied);
        // Best first, ties by id: a total order over unique ids, so
        // selecting the page before sorting it yields the full sort's
        // prefix.
        let best_first = |a: &(u64, f64), b: &(u64, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if scored.len() > RESULT_SIZE {
            scored.select_nth_unstable_by(RESULT_SIZE, best_first);
            scored.truncate(RESULT_SIZE);
        }
        scored.sort_unstable_by(best_first);
        scored.into_iter().map(|(id, _)| id).collect()
    }

    /// Every pool posting's `(id, score)` for one request, in pool order:
    /// `term`'s scores plus the request's carry-over, A/B and
    /// geolocation noise. [`attempt`](Self::attempt) returns the top
    /// page of these; the same arguments and panics apply.
    pub fn scores(
        &self,
        term: &TermScores,
        time_min: f64,
        previous: Option<(u64, f64)>,
        proxied: bool,
    ) -> Vec<(u64, f64)> {
        let noise = &self.engine.noise;
        let keys = &self.engine.keys;
        let carry = previous.map(|(key, t)| {
            let dt = time_min - t;
            assert!(dt >= 0.0, "previous query cannot be in the future");
            (noise.carryover_at(dt), key)
        });
        // Session timestamps are finite and non-negative; the guards pin
        // that invariant where the time becomes integer hash material.
        let minute = if time_min.is_finite() && time_min >= 0.0 { time_min } else { 0.0 };
        let ab_bucket = if noise.ab_buckets > 1 {
            mix(keys.ab, self.user_id ^ floor_units(minute)) % noise.ab_buckets
        } else {
            0
        };
        let ab_key = mix(keys.ab_direction, ab_bucket);
        let geo_key = (!proxied).then(|| {
            let secs = time_min * 60.0;
            let secs = if secs.is_finite() && secs >= 0.0 { secs } else { 0.0 };
            mix(keys.geo, floor_units(secs) ^ self.user_id)
        });

        self.pool
            .ids()
            .iter()
            .zip(&term.0)
            .map(|(&id, &s)| {
                let mut s = s;
                if let Some((mag, key)) = carry {
                    s += mag * signed(mix(key, id));
                }
                if ab_bucket != 0 {
                    s += noise.ab_strength * signed(mix(ab_key, id));
                }
                if let Some(g) = geo_key {
                    s += noise.geo_strength * signed(mix(g, id));
                }
                (id, s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbox_marketplace::demographics::{Demographic, Ethnicity, Gender};

    fn user(id: u64, g: Gender, e: Ethnicity) -> SearchUser {
        SearchUser::new(id, Demographic { gender: g, ethnicity: e })
    }

    fn clean_engine(p: PersonalizationProfile) -> SearchEngine {
        SearchEngine::new(p, NoiseModel::none(), 42)
    }

    #[test]
    fn no_personalization_no_noise_same_group_lists_nearly_identical() {
        // With zero personalization, lists differ only by the tiny user
        // taste — top pages should overlap heavily.
        let e = clean_engine(PersonalizationProfile::none());
        let ctx = RequestContext::clean();
        let a = e.search(
            &user(1, Gender::Male, Ethnicity::White),
            "yard work",
            "yard work jobs",
            "Yard Work",
            "Boston, MA",
            &ctx,
        );
        let b = e.search(
            &user(2, Gender::Female, Ethnicity::Black),
            "yard work",
            "yard work jobs",
            "Yard Work",
            "Boston, MA",
            &ctx,
        );
        let overlap = a.iter().filter(|x| b.contains(x)).count();
        assert!(overlap >= 8, "expected heavy overlap, got {overlap}/10");
    }

    #[test]
    fn search_is_deterministic() {
        let e = clean_engine(PersonalizationProfile::uniform(0.1));
        let ctx = RequestContext::clean();
        let u = user(5, Gender::Female, Ethnicity::Asian);
        let a = e.search(&u, "q", "f", "c", "l", &ctx);
        let b = e.search(&u, "q", "f", "c", "l", &ctx);
        assert_eq!(a, b);
        assert_eq!(a.len(), RESULT_SIZE);
    }

    #[test]
    fn personalization_separates_groups() {
        // Strong group personalization must push different groups' lists
        // apart more than same-group users'.
        let e = clean_engine(PersonalizationProfile::uniform(0.3));
        let ctx = RequestContext::clean();
        let m1 = e.search(&user(1, Gender::Male, Ethnicity::White), "q", "f", "c", "l", &ctx);
        let m2 = e.search(&user(2, Gender::Male, Ethnicity::White), "q", "f", "c", "l", &ctx);
        let f1 = e.search(&user(3, Gender::Female, Ethnicity::Black), "q", "f", "c", "l", &ctx);
        let within = fbox_core::measures::jaccard::distance(&m1, &m2);
        let across = fbox_core::measures::jaccard::distance(&m1, &f1);
        assert!(
            across > within,
            "across-group distance {across} should exceed within-group {within}"
        );
    }

    #[test]
    fn formulations_return_similar_results() {
        let e = clean_engine(PersonalizationProfile::none());
        let ctx = RequestContext::clean();
        let u = user(1, Gender::Male, Ethnicity::White);
        let a = e.search(&u, "run errand", "run errand jobs near X", "Run Errands", "l", &ctx);
        let b = e.search(&u, "run errand", "errand service jobs near X", "Run Errands", "l", &ctx);
        // Similar (same pool, small shift) but usually not identical.
        let d = fbox_core::measures::jaccard::distance(&a, &b);
        assert!(d < 0.5, "formulations should stay similar, distance {d}");
    }

    #[test]
    fn carryover_perturbs_and_decays() {
        let e = SearchEngine::new(PersonalizationProfile::none(), NoiseModel::default(), 42);
        let u = user(1, Gender::Male, Ethnicity::White);
        let fresh = e.search(&u, "q", "f", "c", "l", &RequestContext::clean());
        let hot = RequestContext {
            time_min: 1.0,
            previous: Some(("other query".into(), 0.9)),
            proxied: true,
        };
        let cold = RequestContext {
            time_min: 20.0,
            previous: Some(("other query".into(), 0.0)),
            proxied: true,
        };
        let hot_list = e.search(&u, "q", "f", "c", "l", &hot);
        let cold_list = e.search(&u, "q", "f", "c", "l", &cold);
        let d_hot = fbox_core::measures::kendall::top_k_distance(&fresh, &hot_list, 0.5);
        let d_cold = fbox_core::measures::kendall::top_k_distance(&fresh, &cold_list, 0.5);
        assert!(
            d_cold <= d_hot,
            "carry-over should decay with spacing: hot {d_hot} vs cold {d_cold}"
        );
        // Hot carry-over actually moves things.
        assert!(d_hot > 0.0);
    }

    #[test]
    fn unproxied_requests_jitter() {
        let e = SearchEngine::new(PersonalizationProfile::none(), NoiseModel::default(), 42);
        let u = user(1, Gender::Male, Ethnicity::White);
        let a = e.search(
            &u,
            "q",
            "f",
            "c",
            "l",
            &RequestContext { time_min: 0.0, previous: None, proxied: false },
        );
        let b = e.search(
            &u,
            "q",
            "f",
            "c",
            "l",
            &RequestContext { time_min: 5.0, previous: None, proxied: false },
        );
        // Different origins at different times → some reshuffling.
        assert_ne!(a, b);
    }
}
