//! The Chrome-extension protocol (paper §5.1.2, Figure 9).
//!
//! The paper's extension executes the five equivalent search terms of each
//! query, re-running every term "at least twice to account for noise
//! caused by A/B testing", spacing runs "every 12 minutes to minimize
//! noise due to the carry-over effect", and pinning the browser's
//! location behind a proxy "so that all queries originate from the same
//! location". [`ExtensionRunner`] reproduces that protocol; the naive
//! single-shot runner exists so the benefit of each mitigation can be
//! measured (see the crate's tests and the noise-ablation bench).

use crate::engine::SearchEngine;
use crate::terms::{formulations, N_FORMULATIONS};
use crate::user::SearchUser;
use fbox_core::observations::UserList;
use std::collections::BTreeMap;

/// The study protocol configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtensionRunner {
    /// Minutes between consecutive requests (the paper: 12).
    pub spacing_min: f64,
    /// Executions per search term (the paper: at least 2).
    pub repeats: usize,
    /// Maximum extra tie-break executions when repeated runs disagree.
    pub max_extra_runs: usize,
    /// Whether requests go through the fixed proxy.
    pub proxied: bool,
}

impl Default for ExtensionRunner {
    fn default() -> Self {
        Self { spacing_min: 12.0, repeats: 2, max_extra_runs: 2, proxied: true }
    }
}

impl ExtensionRunner {
    /// A deliberately sloppy protocol: single un-proxied back-to-back
    /// runs. Used to demonstrate how much noise the paper's mitigations
    /// remove.
    pub fn naive() -> Self {
        Self { spacing_min: 0.5, repeats: 1, max_extra_runs: 0, proxied: false }
    }

    /// Runs one user's protocol for one query at one location, starting
    /// at `start_min`, and returns the merged result list plus the time
    /// the protocol finished.
    ///
    /// Per term: run `repeats` times; if runs disagree (A/B noise), run up
    /// to `max_extra_runs` more and keep the most frequent list. The five
    /// terms' resolved lists are then rank-merged (Borda) into the user's
    /// final list for the query.
    pub fn run_query(
        &self,
        engine: &SearchEngine,
        user: &SearchUser,
        query: &str,
        category: &str,
        location: &str,
        start_min: f64,
    ) -> (UserList, f64) {
        let session = engine.session(user, query, category, location);
        let mut time = start_min;
        // The previous request's carry-over key and minute.
        let mut previous: Option<(u64, f64)> = None;
        let mut resolved: Vec<Vec<u64>> = Vec::with_capacity(N_FORMULATIONS);

        for term in formulations(query, location) {
            let scores = session.term(&term);
            let carryover_key = session.carryover_key(&term);
            let mut runs: Vec<Vec<u64>> = Vec::with_capacity(self.repeats);
            let total_runs = self.repeats + self.max_extra_runs;
            for attempt in 0..total_runs {
                runs.push(session.attempt(&scores, time, previous, self.proxied));
                previous = Some((carryover_key, time));
                time += self.spacing_min;
                // Stop early once we have the mandated repeats and a
                // majority list.
                if attempt + 1 >= self.repeats && majority(&runs).is_some() {
                    break;
                }
            }
            let pick = majority(&runs).unwrap_or(0);
            resolved.push(runs.swap_remove(pick));
        }

        let merged = borda_merge(&resolved);
        (UserList { assignment: user.demographic.assignment(), results: merged }, time)
    }
}

/// The index of a list occurring strictly more often than any other, if
/// any. Counts by pairwise comparison: the protocol makes at most
/// `repeats + max_extra_runs` (here ≤ 4) runs per term.
fn majority(runs: &[Vec<u64>]) -> Option<usize> {
    let count = |i: usize| runs.iter().filter(|r| **r == runs[i]).count();
    let best = (0..runs.len()).max_by_key(|&i| count(i))?;
    let n = count(best);
    (0..runs.len()).all(|i| runs[i] == runs[best] || count(i) < n).then_some(best)
}

/// Borda rank-merge: each list awards `len − position` points to its
/// items; items are re-ranked by total points (ties by id) and the top
/// page is returned.
pub fn borda_merge(lists: &[Vec<u64>]) -> Vec<u64> {
    let mut points: BTreeMap<u64, usize> = BTreeMap::new();
    let mut page = 0usize;
    for list in lists {
        let n = list.len();
        page = page.max(n);
        for (pos, &id) in list.iter().enumerate() {
            // `pos < n` by construction, so the subtraction cannot wrap.
            *points.entry(id).or_default() += n.saturating_sub(pos);
        }
    }
    let mut items: Vec<(u64, usize)> = points.into_iter().collect();
    items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    items.truncate(page);
    items.into_iter().map(|(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;
    use crate::personalize::PersonalizationProfile;
    use fbox_marketplace::demographics::{Demographic, Ethnicity, Gender};

    fn user(id: u64) -> SearchUser {
        SearchUser::new(id, Demographic { gender: Gender::Male, ethnicity: Ethnicity::White })
    }

    #[test]
    fn borda_merge_consistent_lists() {
        let lists = vec![vec![1, 2, 3], vec![1, 2, 3]];
        assert_eq!(borda_merge(&lists), vec![1, 2, 3]);
    }

    #[test]
    fn borda_merge_resolves_disagreement() {
        // Two lists agree that 1 is on top; disagree on the rest.
        let lists = vec![vec![1, 2, 3], vec![1, 3, 2], vec![1, 2, 4]];
        let merged = borda_merge(&lists);
        assert_eq!(merged[0], 1);
        assert_eq!(merged.len(), 3);
        // 2 scores 2+1+2 = 5 vs 3 scores 1+2 = 3.
        assert_eq!(merged[1], 2);
    }

    /// The majority list itself, for readable assertions.
    fn majority_list(runs: &[Vec<u64>]) -> Option<&Vec<u64>> {
        majority(runs).map(|i| &runs[i])
    }

    #[test]
    fn majority_detection() {
        let a = vec![1u64, 2];
        let b = vec![2u64, 1];
        assert_eq!(majority_list(&[a.clone(), a.clone(), b.clone()]), Some(&a));
        assert_eq!(majority_list(&[b.clone(), a.clone(), a.clone()]), Some(&a));
        assert_eq!(majority_list(&[a.clone(), b.clone()]), None);
        assert_eq!(majority_list(&[]), None);
    }

    #[test]
    fn majority_two_two_tie_is_none() {
        let a = vec![1u64, 2];
        let b = vec![2u64, 1];
        assert_eq!(majority_list(&[a.clone(), b.clone(), b.clone(), a.clone()]), None);
    }

    #[test]
    fn majority_three_one_split_picks_the_three() {
        let a = vec![1u64, 2];
        let b = vec![2u64, 1];
        assert_eq!(majority_list(&[b.clone(), a.clone(), b.clone(), b.clone()]), Some(&b));
    }

    #[test]
    fn majority_single_run_returns_itself() {
        let a = vec![3u64, 1, 4];
        assert_eq!(majority(std::slice::from_ref(&a)), Some(0));
    }

    #[test]
    fn protocol_runs_and_reports_time() {
        let engine = SearchEngine::new(PersonalizationProfile::none(), NoiseModel::none(), 1);
        let runner = ExtensionRunner::default();
        let (list, end) =
            runner.run_query(&engine, &user(1), "yard work", "Yard Work", "Boston, MA", 0.0);
        assert_eq!(list.results.len(), crate::corpus::RESULT_SIZE);
        // 5 terms × 2 repeats × 12 min (no extra runs needed without noise).
        assert!((end - 120.0).abs() < 1e-9, "end {end}");
    }

    #[test]
    fn protocol_suppresses_noise() {
        // Under full noise, the paper's protocol must yield (nearly) the
        // same merged list as a noise-free engine, while the naive
        // protocol drifts further away.
        let seed = 9;
        let quiet = SearchEngine::new(PersonalizationProfile::none(), NoiseModel::none(), seed);
        let noisy = SearchEngine::new(PersonalizationProfile::none(), NoiseModel::default(), seed);
        let u = user(3);
        let runner = ExtensionRunner::default();
        let naive = ExtensionRunner::naive();

        let (reference, _) =
            runner.run_query(&quiet, &u, "run errand", "Run Errands", "London, UK", 0.0);
        let (clean, _) =
            runner.run_query(&noisy, &u, "run errand", "Run Errands", "London, UK", 0.0);
        let (sloppy, _) =
            naive.run_query(&noisy, &u, "run errand", "Run Errands", "London, UK", 0.0);

        let d_protocol =
            fbox_core::measures::kendall::top_k_distance(&reference.results, &clean.results, 0.5);
        let d_naive =
            fbox_core::measures::kendall::top_k_distance(&reference.results, &sloppy.results, 0.5);
        assert!(
            d_protocol <= d_naive,
            "protocol should suppress noise: protocol {d_protocol} vs naive {d_naive}"
        );
    }

    #[test]
    fn assignment_flows_into_user_list() {
        let engine = SearchEngine::new(PersonalizationProfile::none(), NoiseModel::none(), 1);
        let runner = ExtensionRunner::default();
        let u =
            SearchUser::new(4, Demographic { gender: Gender::Female, ethnicity: Ethnicity::Asian });
        let (list, _) = runner.run_query(&engine, &u, "q", "c", "l", 0.0);
        assert_eq!(list.assignment, u.demographic.assignment());
    }
}
