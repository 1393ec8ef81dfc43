//! Property tests pitting `measures/kendall.rs`'s fast paths against
//! naïve O(n²) pairwise oracles.
//!
//! The production code earns its speed with two shortcuts — merge-sort
//! inversion counting behind [`tau_distance`] and the four integer case
//! counts behind [`top_k_distance`] (including the case-4 within-one-list
//! term) — while [`tau_b`] leans on `total_cmp` for its tie handling. Each
//! oracle below re-derives the same statistic straight from its textbook
//! definition, one explicit pair at a time, so any disagreement is a bug
//! in the shortcut, not in the spec.

use fbox_core::measures::kendall::{tau_b, tau_distance, top_k_distance};
use proptest::prelude::*;
use proptest::sample::subsequence;
use proptest::Just;
use std::collections::HashMap;

/// Oracle for [`tau_distance`]: count discordant pairs by brute force.
fn naive_tau_distance(a: &[u32], b: &[u32]) -> f64 {
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let pos_b: HashMap<u32, usize> = b.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    let mut discordant = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            // a ranks a[i] ahead of a[j]; discordant iff b disagrees.
            if pos_b[&a[i]] > pos_b[&a[j]] {
                discordant += 1;
            }
        }
    }
    discordant as f64 / (n * (n - 1) / 2) as f64
}

/// Oracle for [`tau_b`]: the textbook (concordant − discordant) /
/// √((n₀ − n₁)(n₀ − n₂)) with every pair classified explicitly.
fn naive_tau_b(x: &[f64], y: &[f64]) -> Option<f64> {
    let n = x.len();
    if n < 2 {
        return None;
    }
    let (mut concordant, mut discordant) = (0i64, 0i64);
    let (mut tied_x, mut tied_y) = (0i64, 0i64);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i].total_cmp(&x[j]);
            let dy = y[i].total_cmp(&y[j]);
            if dx.is_eq() {
                tied_x += 1;
            }
            if dy.is_eq() {
                tied_y += 1;
            }
            if dx.is_eq() || dy.is_eq() {
                continue;
            }
            if dx == dy {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - tied_x) as f64) * ((n0 - tied_y) as f64)).sqrt();
    if denom <= 1e-9 {
        return None;
    }
    Some((concordant - discordant) as f64 / denom)
}

/// Oracle for [`top_k_distance`]: walk every unordered pair of the union
/// and apply Fagin–Kumar–Sivakumar's four cases verbatim.
fn naive_top_k_distance(a: &[u32], b: &[u32], p: f64) -> f64 {
    let pos_a: HashMap<u32, usize> = a.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    let pos_b: HashMap<u32, usize> = b.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    let mut universe: Vec<u32> = a.to_vec();
    universe.extend(b.iter().copied().filter(|x| !pos_a.contains_key(x)));

    let mut penalty = 0.0f64;
    for i in 0..universe.len() {
        for j in (i + 1)..universe.len() {
            let (x, y) = (universe[i], universe[j]);
            let in_a = (pos_a.get(&x), pos_a.get(&y));
            let in_b = (pos_b.get(&x), pos_b.get(&y));
            penalty += match (in_a, in_b) {
                // Case 1: both items in both lists — 1 iff the lists
                // order them differently.
                ((Some(xa), Some(ya)), (Some(xb), Some(yb))) => {
                    if (xa < ya) == (xb < yb) {
                        0.0
                    } else {
                        1.0
                    }
                }
                // Case 2: both in one list, exactly one in the other —
                // the one-item list implies its item is ranked first, so
                // disagreement iff the two-item list ranks it second.
                ((Some(xa), Some(ya)), (Some(_), None)) => f64::from(u8::from(ya < xa)),
                ((Some(xa), Some(ya)), (None, Some(_))) => f64::from(u8::from(xa < ya)),
                ((Some(_), None), (Some(xb), Some(yb))) => f64::from(u8::from(yb < xb)),
                ((None, Some(_)), (Some(xb), Some(yb))) => f64::from(u8::from(xb < yb)),
                // Case 3: one item exclusive to each list.
                ((Some(_), None), (None, Some(_))) | ((None, Some(_)), (Some(_), None)) => 1.0,
                // Case 4: both items exclusive to the same list.
                ((Some(_), Some(_)), (None, None)) | ((None, None), (Some(_), Some(_))) => p,
                _ => unreachable!("union items appear in at least one list"),
            };
        }
    }
    // Normalizer: the penalty of two fully disjoint lists.
    let max = (a.len() * b.len()) as f64
        + p * ((a.len() * a.len().saturating_sub(1)) / 2
            + (b.len() * b.len().saturating_sub(1)) / 2) as f64;
    if max <= 1e-9 {
        0.0
    } else {
        (penalty / max).clamp(0.0, 1.0)
    }
}

/// Strategy: two independently shuffled permutations of the same `0..n`
/// item set, for a sampled `n`.
fn permutation_pair(max_n: usize) -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (2usize..max_n).prop_flat_map(|n| {
        let items: Vec<u32> = (0..n as u32).collect();
        (Just(items.clone()).prop_shuffle(), Just(items).prop_shuffle())
    })
}

/// Strategy: two equal-length score vectors over a 5-value domain, so
/// duplicate keys (ties) occur in nearly every draw.
fn tied_score_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (2usize..30).prop_flat_map(|n| {
        (proptest::collection::vec(0u32..5, n), proptest::collection::vec(0u32..5, n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tau_distance_matches_pairwise_oracle(pair in permutation_pair(40)) {
        let (a, b) = pair;
        let fast = tau_distance(&a, &b);
        let naive = naive_tau_distance(&a, &b);
        prop_assert!((fast - naive).abs() < 1e-12, "fast {fast} vs oracle {naive}");
    }

    #[test]
    fn tau_b_matches_pairwise_oracle_under_heavy_ties(pair in tied_score_pair()) {
        // Scores drawn from a 5-value domain: duplicate keys everywhere,
        // so the tie-correction terms carry real weight.
        let (x, y) = pair;
        let xf: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
        let yf: Vec<f64> = y.iter().map(|&v| f64::from(v)).collect();
        match (tau_b(&xf, &yf), naive_tau_b(&xf, &yf)) {
            (Some(fast), Some(naive)) => {
                prop_assert!((fast - naive).abs() < 1e-12, "fast {fast} vs oracle {naive}");
                prop_assert!((-1.0..=1.0).contains(&fast));
            }
            (fast, naive) => prop_assert_eq!(fast, naive, "definedness must agree"),
        }
    }

    #[test]
    fn top_k_distance_matches_case_analysis_oracle(
        a in subsequence((0u32..25).collect::<Vec<u32>>(), 1..12).prop_shuffle(),
        b in subsequence((0u32..25).collect::<Vec<u32>>(), 1..12).prop_shuffle(),
        p_millis in 0u32..=1000,
    ) {
        // Overlapping draws from a small universe: every penalty case —
        // including the case-4 within-one-list term — occurs routinely.
        let p = f64::from(p_millis) / 1000.0;
        let fast = top_k_distance(&a, &b, p);
        let naive = naive_top_k_distance(&a, &b, p);
        prop_assert!((fast - naive).abs() < 1e-12, "fast {fast} vs oracle {naive} at p={p}");
    }

    #[test]
    fn top_k_distance_is_bit_exact_at_the_penalties_in_use(
        a in subsequence((0u32..25).collect::<Vec<u32>>(), 0..12).prop_shuffle(),
        b in subsequence((0u32..25).collect::<Vec<u32>>(), 0..12).prop_shuffle(),
    ) {
        // At p ∈ {0, ½, 1} every partial sum of the oracle's union-order
        // loop is exact, so counting the cases cannot move a single bit:
        // this is why cube values and repro output are unchanged by it.
        for p in [0.0, 0.5, 1.0] {
            let fast = top_k_distance(&a, &b, p);
            let naive = naive_top_k_distance(&a, &b, p);
            prop_assert_eq!(fast.to_bits(), naive.to_bits(), "fast {fast} vs oracle {naive} at p={p}");
        }
    }
}
