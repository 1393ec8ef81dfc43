//! FA\*IR re-ranking (Zehlike et al., *FA\*IR: A Fair Top-k Ranking
//! Algorithm*, CIKM 2017).
//!
//! A ranking satisfies *ranked group fairness* at protected proportion `p`
//! and significance `α` when every prefix of length `k` contains at least
//! [`min_protected`]`(k, p, α)` protected items — the largest minimum that
//! a fair Bernoulli(p) lottery over ranks would still violate with
//! probability at most `α`. The greedy re-ranker walks the positions
//! top-down, placing the best remaining protected candidate whenever the
//! table demands one and the best remaining candidate overall otherwise;
//! Zehlike et al. prove this is utility-optimal among rankings satisfying
//! the constraint.
//!
//! The binomial inverse-CDF table is computed in place: at worst a few
//! dozen multiply-adds per prefix length, so no external statistics crate
//! (and no caching) is warranted.

use crate::Candidate;

/// The minimum number of protected items any fair ranking must place in a
/// prefix of length `k`, given protected proportion `p` and significance
/// `α`: the smallest `m` with `BinomialCDF(m; k, p) > α`.
///
/// Degenerate proportions short-circuit: `p ≤ 0` never requires protected
/// items, `p ≥ 1` requires the whole prefix.
#[must_use]
pub fn min_protected(k: usize, p: f64, alpha: f64) -> usize {
    if p <= 0.0 || k == 0 {
        return 0;
    }
    // `1 − p ≤ 0` exactly when `p ≥ 1`, and the divisor below needs `q`.
    let q = 1.0 - p;
    if q <= 0.0 {
        return k;
    }
    // pmf(0) = q^k, then pmf(m+1) = pmf(m) · (k−m)/(m+1) · p/q.
    // k is a list prefix (tens), so q^k cannot underflow meaningfully.
    let mut pmf = q.powi(i32::try_from(k).expect("prefix lengths fit in i32"));
    let mut cdf = pmf;
    let mut m = 0usize;
    while cdf <= alpha && m < k {
        pmf *= (k - m) as f64 / (m + 1) as f64 * (p / q);
        cdf += pmf;
        m += 1;
    }
    m
}

/// FA\*IR greedy re-ranking. `protected[i]` flags candidate `i`; the
/// target proportion is the protected share of `cands` itself. Returns
/// the new order as indices into `cands`.
///
/// # Panics
///
/// Panics if `protected` is not aligned with `cands`.
#[must_use = "the permutation is the entire point of re-ranking"]
pub fn fair_rerank(cands: &[Candidate], protected: &[bool], alpha: f64) -> Vec<usize> {
    assert_eq!(protected.len(), cands.len(), "one protected flag per candidate");
    let n = cands.len();
    if n == 0 {
        return Vec::new();
    }
    let n_protected = protected.iter().filter(|&&f| f).count();
    let p = n_protected as f64 / n as f64;

    // Two queues, each best-first (relevance desc, original index asc).
    let mut by_flag: Vec<std::collections::VecDeque<usize>> = {
        let classed: Vec<Candidate> = cands
            .iter()
            .enumerate()
            .map(|(i, c)| Candidate {
                index: c.index,
                class: usize::from(protected[i]),
                relevance: c.relevance,
            })
            .collect();
        crate::class_queues(&classed, 2)
    };
    let mut non = std::mem::take(&mut by_flag[0]);
    let mut prot = std::mem::take(&mut by_flag[1]);

    let mut out = Vec::with_capacity(n);
    let mut placed_protected = 0usize;
    for k in 1..=n {
        let need = min_protected(k, p, alpha);
        let take_protected = match (prot.front(), non.front()) {
            (Some(_), None) => true,
            (None, _) => false,
            (Some(&hp), Some(&hn)) => {
                placed_protected < need
                    || cands[hp]
                        .relevance
                        .total_cmp(&cands[hn].relevance)
                        .then(cands[hn].index.cmp(&cands[hp].index))
                        .is_gt()
            }
        };
        let next = if take_protected {
            placed_protected += 1;
            prot.pop_front()
        } else {
            non.pop_front()
        };
        out.push(next.expect("one queue is non-empty while positions remain"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(index: usize, relevance: f64) -> Candidate {
        Candidate { index, class: 0, relevance }
    }

    #[test]
    fn binomial_table_matches_zehlike_p_half() {
        // Hand-computed for p = 0.5, α = 0.1 (FA*IR Table 1 column):
        //  k=1: F(0) = 0.5      > 0.1           → m = 0
        //  k=3: F(0) = 0.125    > 0.1           → m = 0
        //  k=4: F(0) = 0.0625, F(1) = 0.3125    → m = 1
        //  k=6: F(1) = 7/64 ≈ 0.109             → m = 1
        //  k=7: F(1) = 0.0625, F(2) = 0.2266    → m = 2
        //  k=9: F(2) ≈ 0.0898, F(3) ≈ 0.2539    → m = 3
        let table: Vec<usize> = (1..=10).map(|k| min_protected(k, 0.5, 0.1)).collect();
        assert_eq!(table, vec![0, 0, 0, 1, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn binomial_table_matches_hand_computed_low_p() {
        // p = 0.3, α = 0.1: F(0; 6, .3) = 0.7⁶ ≈ 0.1176 > 0.1 but
        // F(0; 7, .3) = 0.7⁷ ≈ 0.0824, F(1; 7, .3) ≈ 0.3294 → first 1 at k=7.
        assert_eq!(min_protected(6, 0.3, 0.1), 0);
        assert_eq!(min_protected(7, 0.3, 0.1), 1);
        // p = 0.1, α = 0.1: 0.9^21 ≈ 0.1094 > 0.1 ≥ 0.9^22 ≈ 0.0985.
        assert_eq!(min_protected(21, 0.1, 0.1), 0);
        assert_eq!(min_protected(22, 0.1, 0.1), 1);
    }

    #[test]
    fn binomial_table_degenerate_proportions() {
        assert_eq!(min_protected(10, 0.0, 0.1), 0);
        assert_eq!(min_protected(10, 1.0, 0.1), 10);
        assert_eq!(min_protected(0, 0.5, 0.1), 0);
    }

    #[test]
    fn table_is_monotone_in_k() {
        for &(p, alpha) in &[(0.3, 0.1), (0.5, 0.1), (0.5, 0.05), (0.7, 0.15)] {
            let mut prev = 0;
            for k in 1..=60 {
                let m = min_protected(k, p, alpha);
                assert!(m >= prev, "m(k) must not decrease: p={p} α={alpha} k={k}");
                assert!(m <= k);
                prev = m;
            }
        }
    }

    #[test]
    fn rerank_promotes_protected_into_demanded_prefixes() {
        // Six candidates, relevance strictly decreasing with index; the
        // last three are protected (p = 0.5). With α = 0.1 the table
        // demands the first protected item by k = 4 — without FA*IR the
        // prefix of 4 would hold only one (index 3).
        let cands: Vec<Candidate> = (0..6).map(|i| cand(i, 1.0 - i as f64 / 10.0)).collect();
        let protected = [false, false, false, true, true, true];
        let order = fair_rerank(&cands, &protected, 0.1);
        // Greedy: ranks 1–3 go to the best overall (0, 1, 2 — protected
        // not yet demanded: m(1..3) = 0... but m(4) = 1 arrives with
        // protected count 0 only if none placed; index 3 is the best
        // protected and the best remaining overall at k=4 anyway.
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);

        // Depress the protected candidates' relevance so merit alone
        // would bury them; the table must still pull them up.
        let weak: Vec<Candidate> =
            (0..6).map(|i| cand(i, if i < 3 { 1.0 - i as f64 / 10.0 } else { 0.1 })).collect();
        let order = fair_rerank(&weak, &protected, 0.1);
        for k in 1..=6 {
            let placed = order[..k].iter().filter(|&&i| protected[i]).count();
            let need = min_protected(k, 0.5, 0.1);
            assert!(placed >= need, "prefix {k} holds {placed} protected, needs {need}");
        }
        // Within each group, relative order is by relevance (stable).
        let prot_positions: Vec<usize> = order.iter().copied().filter(|&i| protected[i]).collect();
        assert_eq!(prot_positions, vec![3, 4, 5]);
        // The first protected item is forced into the top-4 prefix.
        assert!(order[..4].iter().any(|&i| protected[i]));
    }

    #[test]
    fn rerank_with_everyone_protected_is_identity_order() {
        let cands: Vec<Candidate> = (0..5).map(|i| cand(i, 1.0 - i as f64 / 10.0)).collect();
        let order = fair_rerank(&cands, &[true; 5], 0.1);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rerank_empty_is_empty() {
        assert!(fair_rerank(&[], &[], 0.1).is_empty());
    }
}
