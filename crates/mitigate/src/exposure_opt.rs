//! Exposure-optimal re-ranking (after Singh & Joachims, *Fairness of
//! Exposure in Rankings*, KDD 2018).
//!
//! The exposure measure (paper §3.3.2) calls a ranking unfair when a
//! group's share of position exposure deviates from its share of
//! relevance. This intervention inverts that definition: it *allocates*
//! positions so each class's exposure lands as close as possible to its
//! relevance-proportional target.
//!
//! Singh & Joachims solve a doubly-stochastic LP over position
//! probabilities and sample rankings from a Birkhoff–von-Neumann
//! decomposition. A deterministic framework wants a deterministic
//! ranking, so we solve the integral special case in two stages. Each
//! class `a` with `n_a` members and relevance mass `R_a` is owed total
//! exposure `T_a = E · R_a / R` (with `E` the whole pool's exposure),
//! i.e. a per-slot target `τ_a = T_a / n_a`.
//!
//! **Seed.** Assigning positions to classes to minimise
//! `Σ |exposure(pos) − τ_class(pos)|` is a transportation problem —
//! supplies are class sizes, demands one unit per position — solved
//! exactly by the min-cost-flow machinery already inside
//! [`fbox_core::measures::transport_plan`]. The seed is most of a call's
//! time: one shortest-path search per position, each stopped at the sink
//! (about 22 of 40 nodes settled on the market pages). Any minimal plan
//! is a valid seed, but the climb below starts from it, so the output
//! depends on which of several tied plans the solver picks; that choice
//! is pinned by the `repro-mitigate` golden and by the solver's
//! exposure-shaped oracle test.
//!
//! **Repair.** Per-slot deviation is a proxy: the fairness objective sums
//! *per class*, `Σ_a |E_a − T_a|` with `E_a` the class's total exposure,
//! and a class can hit its total exactly through slots that are
//! individually far from `τ_a`. So the transport seed (or the original
//! order, whichever already scores better) is refined by deterministic
//! best-swap hill climbing on the group objective: repeatedly apply the
//! cross-class position swap that most reduces `Σ_a |E_a − T_a|`, first
//! match in scan order on ties, until no swap improves. Within each
//! class, better candidates get the better of the class's positions, so
//! utility is maximal given the exposure allocation. The climb evaluates
//! O(n²) cross-class pairs per applied swap; the telemetry counter
//! `mitigate.exposure.swap_evals` sums them.

use crate::Candidate;
use fbox_core::measures::{transport_plan, DiscountModel};

/// Total-relevance floor below which the pool has no relevance mass to
/// apportion and the original order is kept.
const RELEVANCE_FLOOR: f64 = 1e-9;

/// Exposure-optimal re-ranking over `n_classes` demographic classes.
/// Returns the new order as indices into `cands`.
///
/// # Panics
///
/// Panics if a candidate's class is `≥ n_classes` or a relevance is
/// negative or non-finite.
#[must_use = "the permutation is the entire point of re-ranking"]
pub fn exposure_rerank(
    cands: &[Candidate],
    n_classes: usize,
    discount: DiscountModel,
) -> Vec<usize> {
    let n = cands.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(
        cands.iter().all(|c| c.relevance >= 0.0 && c.relevance.is_finite()),
        "exposure targets need non-negative finite relevance"
    );
    let queues = crate::class_queues(cands, n_classes);
    let exposures: Vec<f64> = (1..=n).map(|rank| discount.exposure(rank)).collect();
    let pool_exposure: f64 = exposures.iter().sum();
    let pool_relevance: f64 = cands.iter().map(|c| c.relevance).sum();
    if pool_relevance <= RELEVANCE_FLOOR {
        // No relevance mass to apportion: every allocation is equally
        // "fair", keep the original order.
        return (0..n).collect();
    }

    // Present classes only: empty classes have no slots to target (and a
    // τ of 0/0).
    let present: Vec<usize> = (0..n_classes).filter(|&a| !queues[a].is_empty()).collect();
    let supply: Vec<u64> = present.iter().map(|&a| queues[a].len() as u64).collect();
    let demand = vec![1u64; n];
    let per_slot_target: Vec<f64> = present
        .iter()
        .map(|&a| {
            // Present classes are non-empty by construction; the clamp
            // keeps the divisor visibly nonzero on every path.
            let n_a = queues[a].len().max(1);
            let class_relevance: f64 = queues[a].iter().map(|&i| cands[i].relevance).sum();
            pool_exposure * (class_relevance / pool_relevance) / n_a as f64
        })
        .collect();
    let flow =
        transport_plan(&supply, &demand, |src, pos| (exposures[pos] - per_slot_target[src]).abs());

    // Class totals, indexed like `present`.
    let targets: Vec<f64> = present
        .iter()
        .zip(&per_slot_target)
        .map(|(&a, &tau)| tau * queues[a].len() as f64)
        .collect();

    // Transport seed: position → present-class index.
    let mut seed = vec![usize::MAX; n];
    for (src, row) in flow.iter().enumerate() {
        for (pos, &f) in row.iter().enumerate() {
            if f > 0 {
                seed[pos] = src;
            }
        }
    }
    assert!(seed.iter().all(|&src| src != usize::MAX), "every position receives a class");
    // Original-order allocation: position `p` keeps candidate `p`'s class.
    let class_to_src: Vec<usize> = {
        let mut m = vec![usize::MAX; n_classes];
        for (src, &a) in present.iter().enumerate() {
            m[a] = src;
        }
        m
    };
    let original: Vec<usize> = cands.iter().map(|c| class_to_src[c.class]).collect();

    let objective = |alloc: &[usize]| -> f64 {
        let mut sums = vec![0.0f64; present.len()];
        for (pos, &src) in alloc.iter().enumerate() {
            sums[src] += exposures[pos];
        }
        sums.iter().zip(&targets).map(|(&e, &t)| (e - t).abs()).sum()
    };
    let mut alloc = if objective(&seed) <= objective(&original) { seed } else { original };

    // Best-swap hill climbing on Σ_a |E_a − T_a|. Each applied swap
    // strictly reduces the objective, so the loop terminates; the cap is
    // a safety net, not a tuning knob.
    let mut class_exposure = vec![0.0f64; present.len()];
    for (pos, &src) in alloc.iter().enumerate() {
        class_exposure[src] += exposures[pos];
    }
    let mut swap_evals = 0u64;
    for _ in 0..2 * n {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (alloc[i], alloc[j]);
                if a == b {
                    continue;
                }
                swap_evals += 1;
                let shift = exposures[i] - exposures[j];
                let old =
                    (class_exposure[a] - targets[a]).abs() + (class_exposure[b] - targets[b]).abs();
                let new = (class_exposure[a] - shift - targets[a]).abs()
                    + (class_exposure[b] + shift - targets[b]).abs();
                let delta = new - old;
                if delta < best.map_or(-1e-12, |(_, _, d)| d) {
                    best = Some((i, j, delta));
                }
            }
        }
        let Some((i, j, _)) = best else { break };
        let shift = exposures[i] - exposures[j];
        class_exposure[alloc[i]] -= shift;
        class_exposure[alloc[j]] += shift;
        alloc.swap(i, j);
    }
    let t = fbox_telemetry::global();
    if t.enabled() {
        t.counter("mitigate.exposure.swap_evals").add(swap_evals);
    }

    // Hand each class's positions (ascending = most exposed first) to its
    // members best-first: maximal within-class utility for the allocation.
    let mut out = vec![usize::MAX; n];
    let mut next = vec![0usize; present.len()];
    for (pos, &src) in alloc.iter().enumerate() {
        let a = present[src];
        out[pos] = queues[a][next[src]];
        next[src] += 1;
    }
    assert!(out.iter().all(|&i| i != usize::MAX), "every position receives a candidate");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(index: usize, class: usize, relevance: f64) -> Candidate {
        Candidate { index, class, relevance }
    }

    fn class_exposure(order: &[usize], cands: &[Candidate], class: usize) -> f64 {
        let m = DiscountModel::NaturalLog;
        order
            .iter()
            .enumerate()
            .filter(|&(_, &i)| cands[i].class == class)
            .map(|(pos, _)| m.exposure(pos + 1))
            .sum()
    }

    #[test]
    fn equal_relevance_classes_interleave() {
        // Two classes, identical relevance profiles, minority buried at
        // the bottom. Equal per-member relevance ⇒ equal per-slot targets
        // ⇒ the plan must spread both classes over comparable positions
        // rather than leaving class 1 in the cellar.
        let cands: Vec<Candidate> = vec![
            cand(0, 0, 0.8),
            cand(1, 0, 0.8),
            cand(2, 0, 0.8),
            cand(3, 1, 0.8),
            cand(4, 1, 0.8),
            cand(5, 1, 0.8),
        ];
        let order = exposure_rerank(&cands, 2, DiscountModel::NaturalLog);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        let e0 = class_exposure(&order, &cands, 0);
        let e1 = class_exposure(&order, &cands, 1);
        // Baseline order gives class 0 the top three slots:
        // 1/ln2 + 1/ln3 + 1/ln4 ≈ 3.07 vs 1/ln5 + 1/ln6 + 1/ln7 ≈ 1.69.
        // The optimal plan must cut that gap to the best integral split.
        assert!((e0 - e1).abs() < 0.5, "exposure split {e0:.3} vs {e1:.3} is not near-even");
    }

    #[test]
    fn zero_relevance_pool_keeps_original_order() {
        let cands: Vec<Candidate> = (0..4).map(|i| cand(i, i % 2, 0.0)).collect();
        assert_eq!(exposure_rerank(&cands, 2, DiscountModel::NaturalLog), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_class_keeps_merit_order() {
        let cands: Vec<Candidate> = (0..5).map(|i| cand(i, 0, 1.0 - i as f64 / 5.0)).collect();
        assert_eq!(exposure_rerank(&cands, 1, DiscountModel::NaturalLog), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn higher_relevance_class_gets_more_exposed_positions() {
        // Class 0 carries nearly all the relevance; it must keep the top
        // positions under any relevance-proportional allocation.
        let cands: Vec<Candidate> =
            vec![cand(0, 0, 0.9), cand(1, 0, 0.8), cand(2, 1, 0.05), cand(3, 1, 0.05)];
        let order = exposure_rerank(&cands, 2, DiscountModel::NaturalLog);
        assert_eq!(
            cands[order[0]].class, 0,
            "the relevance-heavy class keeps the top slot, got order {order:?}"
        );
        let e0 = class_exposure(&order, &cands, 0);
        let e1 = class_exposure(&order, &cands, 1);
        assert!(e0 > e1, "exposure must follow relevance: {e0:.3} vs {e1:.3}");
    }

    #[test]
    fn within_class_order_is_by_relevance() {
        let cands: Vec<Candidate> =
            vec![cand(0, 0, 0.2), cand(1, 0, 0.9), cand(2, 1, 0.3), cand(3, 1, 0.7)];
        let order = exposure_rerank(&cands, 2, DiscountModel::NaturalLog);
        let pos = |i: usize| order.iter().position(|&x| x == i).expect("is a permutation");
        assert!(pos(1) < pos(0), "class 0: relevance 0.9 ahead of 0.2");
        assert!(pos(3) < pos(2), "class 1: relevance 0.7 ahead of 0.3");
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(exposure_rerank(&[], 3, DiscountModel::NaturalLog).is_empty());
    }

    #[test]
    fn deterministic_across_repeated_runs() {
        let cands: Vec<Candidate> =
            (0..12).map(|i| cand(i, i % 3, ((i * 7) % 12) as f64 / 12.0)).collect();
        let first = exposure_rerank(&cands, 3, DiscountModel::NaturalLog);
        for _ in 0..3 {
            assert_eq!(exposure_rerank(&cands, 3, DiscountModel::NaturalLog), first);
        }
    }
}
