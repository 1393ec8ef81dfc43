//! Simulated AMT labelers with per-attribute confusion matrices.
//!
//! The paper inferred tasker demographics by showing profile pictures to
//! Amazon Mechanical Turk workers (§5.1.1). Labelers are imperfect; each
//! simulated labeler draws the label from a confusion distribution
//! conditioned on the ground truth.

use fbox_marketplace::demographics::{Demographic, Ethnicity, Gender};
use rand::Rng;

/// One crowd labeler.
///
/// `gender_confusion[truth][label]` and `ethnicity_confusion[truth][label]`
/// are row-stochastic matrices over the [`Gender::ALL`] /
/// [`Ethnicity::ALL`] orders.
#[derive(Debug, Clone, PartialEq)]
pub struct Labeler {
    /// Labeler id (stable across a study).
    pub id: u64,
    gender_confusion: [[f64; 2]; 2],
    ethnicity_confusion: [[f64; 3]; 3],
}

impl Labeler {
    /// A labeler with explicit confusion matrices.
    ///
    /// # Panics
    ///
    /// Panics if any row does not sum to 1 (±1e-9) or has negative
    /// entries.
    pub fn new(
        id: u64,
        gender_confusion: [[f64; 2]; 2],
        ethnicity_confusion: [[f64; 3]; 3],
    ) -> Self {
        for row in &gender_confusion {
            validate_row(row);
        }
        for row in &ethnicity_confusion {
            validate_row(row);
        }
        Self { id, gender_confusion, ethnicity_confusion }
    }

    /// A labeler that answers correctly with probability `accuracy` and
    /// spreads the remaining mass uniformly over the wrong labels.
    pub fn with_accuracy(id: u64, accuracy: f64) -> Self {
        assert!((0.0..=1.0).contains(&accuracy), "accuracy must be in [0,1]");
        let g_off = (1.0 - accuracy) / 1.0;
        let e_off = (1.0 - accuracy) / 2.0;
        let mut gc = [[g_off; 2]; 2];
        let mut ec = [[e_off; 3]; 3];
        for (i, row) in gc.iter_mut().enumerate() {
            row[i] = accuracy;
        }
        for (i, row) in ec.iter_mut().enumerate() {
            row[i] = accuracy;
        }
        Self::new(id, gc, ec)
    }

    /// A perfect labeler.
    pub fn oracle(id: u64) -> Self {
        Self::with_accuracy(id, 1.0)
    }

    /// Labels one profile picture.
    pub fn label(&self, truth: Demographic, rng: &mut impl Rng) -> Demographic {
        let g_row = self.gender_confusion[truth.gender.value_id().0 as usize];
        let e_row = self.ethnicity_confusion[truth.ethnicity.value_id().0 as usize];
        let gender = Gender::ALL[sample_row(&g_row, rng)];
        let ethnicity = Ethnicity::ALL[sample_row(&e_row, rng)];
        Demographic { gender, ethnicity }
    }
}

fn validate_row(row: &[f64]) {
    for &p in row {
        assert!(p >= 0.0, "confusion probabilities must be non-negative");
    }
    let sum: f64 = row.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9, "confusion row must sum to 1, got {sum}");
}

fn sample_row(row: &[f64], rng: &mut impl Rng) -> usize {
    let n = row.len();
    assert!(n > 0, "confusion row cannot be empty");
    let r: f64 = rng.random_range(0.0..1.0);
    let mut acc = 0.0;
    for (i, &p) in row.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    n - 1 // floating-point slack lands in the last bucket
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truth() -> Demographic {
        Demographic { gender: Gender::Female, ethnicity: Ethnicity::Black }
    }

    #[test]
    fn oracle_is_always_right() {
        let l = Labeler::oracle(1);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(l.label(truth(), &mut rng), truth());
        }
    }

    #[test]
    fn accuracy_is_respected_empirically() {
        let l = Labeler::with_accuracy(1, 0.8);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mut correct_gender = 0;
        let mut correct_eth = 0;
        for _ in 0..n {
            let lab = l.label(truth(), &mut rng);
            if lab.gender == truth().gender {
                correct_gender += 1;
            }
            if lab.ethnicity == truth().ethnicity {
                correct_eth += 1;
            }
        }
        assert!((correct_gender as f64 / n as f64 - 0.8).abs() < 0.02);
        assert!((correct_eth as f64 / n as f64 - 0.8).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn invalid_rows_rejected() {
        Labeler::new(1, [[0.5, 0.4], [0.0, 1.0]], [[1.0, 0.0, 0.0]; 3]);
    }

    #[test]
    fn zero_accuracy_never_right() {
        let l = Labeler::with_accuracy(1, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let lab = l.label(truth(), &mut rng);
            assert_ne!(lab.gender, truth().gender);
            assert_ne!(lab.ethnicity, truth().ethnicity);
        }
    }
}
