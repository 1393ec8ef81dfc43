//! End-to-end labeling of a worker population: ground truth → noisy
//! per-labeler votes → majority labels → accuracy accounting.
//!
//! The labeled demographics are what the marketplace *crawler* observes
//! (via [`Marketplace::with_observed_labels`]); the platform itself still
//! ranks by true appearance. Label noise thus propagates into the
//! unfairness cube exactly the way AMT mislabels did in the paper.
//!
//! [`Marketplace::with_observed_labels`]: fbox_marketplace::Marketplace::with_observed_labels

use crate::labeler::Labeler;
use crate::majority::majority_vote;
use fbox_marketplace::demographics::Demographic;
use fbox_marketplace::population::Population;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Accuracy accounting for one labeling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelingStats {
    /// Workers labeled.
    pub n_workers: usize,
    /// Share of workers whose final gender label is correct.
    pub gender_accuracy: f64,
    /// Share of workers whose final ethnicity label is correct.
    pub ethnicity_accuracy: f64,
    /// Share of workers whose full label is correct.
    pub exact_accuracy: f64,
    /// Workers that needed a tie-break fallback.
    pub tie_breaks: usize,
    /// Total votes cast (3 per worker plus escalations).
    pub votes_cast: usize,
}

/// Labels every worker with a 3-voter panel drawn round-robin from
/// `labelers` (plus escalation voters on ties), and returns the final
/// labels in worker order together with accuracy statistics.
///
/// # Panics
///
/// Panics if `labelers` is empty.
pub fn label_population(
    population: &Population,
    labelers: &[Labeler],
    seed: u64,
) -> (Vec<Demographic>, LabelingStats) {
    assert!(!labelers.is_empty(), "need at least one labeler");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = Vec::with_capacity(population.len());
    let mut correct_gender = 0usize;
    let mut correct_eth = 0usize;
    let mut exact = 0usize;
    let mut tie_breaks = 0usize;
    let mut votes_cast = 0usize;

    for (wi, worker) in population.workers().iter().enumerate() {
        // A panel of up to 5 voters: 3 standard + 2 escalation.
        let panel: Vec<Demographic> = (0..5)
            .map(|v| labelers[(wi + v) % labelers.len()].label(worker.demographic, &mut rng))
            .collect();
        let vote = majority_vote(&panel);
        votes_cast += vote.voters;
        if vote.tie_broken {
            tie_breaks += 1;
        }
        if vote.label.gender == worker.demographic.gender {
            correct_gender += 1;
        }
        if vote.label.ethnicity == worker.demographic.ethnicity {
            correct_eth += 1;
        }
        if vote.label == worker.demographic {
            exact += 1;
        }
        labels.push(vote.label);
    }

    let n = population.len().max(1) as f64;
    let stats = LabelingStats {
        n_workers: population.len(),
        gender_accuracy: correct_gender as f64 / n,
        ethnicity_accuracy: correct_eth as f64 / n,
        exact_accuracy: exact as f64 / n,
        tie_breaks,
        votes_cast,
    };
    (labels, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> Population {
        Population::paper(21)
    }

    #[test]
    fn oracle_panel_is_exact() {
        let p = population();
        let labelers = vec![Labeler::oracle(0), Labeler::oracle(1), Labeler::oracle(2)];
        let (labels, stats) = label_population(&p, &labelers, 5);
        assert_eq!(labels.len(), p.len());
        assert_eq!(stats.exact_accuracy, 1.0);
        assert_eq!(stats.tie_breaks, 0);
        // Exactly 3 votes per worker (majority reached immediately).
        assert_eq!(stats.votes_cast, 3 * p.len());
    }

    #[test]
    fn majority_beats_individual_accuracy() {
        // Three 80 %-accurate voters give ≈ 0.8³+3·0.8²·0.2 ≈ 0.896 per
        // attribute.
        let p = population();
        let labelers: Vec<Labeler> = (0..3).map(|i| Labeler::with_accuracy(i, 0.8)).collect();
        let (_, stats) = label_population(&p, &labelers, 5);
        assert!(stats.gender_accuracy > 0.85, "got {}", stats.gender_accuracy);
        assert!(stats.ethnicity_accuracy > 0.85, "got {}", stats.ethnicity_accuracy);
    }

    #[test]
    fn labeling_is_deterministic() {
        let p = population();
        let labelers: Vec<Labeler> = (0..4).map(|i| Labeler::with_accuracy(i, 0.9)).collect();
        let (a, _) = label_population(&p, &labelers, 7);
        let (b, _) = label_population(&p, &labelers, 7);
        assert_eq!(a, b);
        let (c, _) = label_population(&p, &labelers, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn noisy_labels_disagree_sometimes() {
        let p = population();
        let labelers: Vec<Labeler> = (0..3).map(|i| Labeler::with_accuracy(i, 0.7)).collect();
        let (labels, stats) = label_population(&p, &labelers, 9);
        let wrong = labels.iter().zip(p.workers()).filter(|(l, w)| **l != w.demographic).count();
        assert!(wrong > 0, "70 % labelers must produce some mislabels");
        assert!(stats.exact_accuracy < 1.0);
    }
}
