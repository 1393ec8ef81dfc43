//! Kendall Tau distances between ranked lists.
//!
//! The paper (§3.2) compares the personalized result lists of two users with
//! Kendall Tau, following Hannak et al.'s web-search personalization
//! methodology. Real result lists are *top-k lists*: they are truncated and
//! may contain different items, so the classic permutation statistic does
//! not directly apply. We provide:
//!
//! - [`tau_distance`]: the classic normalized Kendall Tau distance between
//!   two rankings of the *same* item set (fraction of discordant pairs),
//!   computed in O(n log n) by inversion counting;
//! - [`tau_b`]: the tie-aware Tau-b correlation between two score vectors;
//! - [`top_k_distance`]: Fagin–Kumar–Sivakumar's `K^(p)` distance between
//!   two top-k lists with penalty parameter `p` for pairs whose relative
//!   order is unknowable, normalized to `[0, 1]`.
//!
//! All distances are 0 for identical inputs and grow toward 1 as the lists
//! diverge — i.e. *higher = more unfair* under Eq. 1.

use std::collections::HashMap;
use std::hash::Hash;

use super::float::approx_zero;

/// Classic normalized Kendall Tau distance between two rankings of the same
/// item set: the fraction of item pairs the two rankings order differently.
///
/// `a` and `b` must be permutations of one another (same items, no
/// duplicates). Returns a value in `[0, 1]`: 0 iff the rankings are
/// identical, 1 iff one is the reverse of the other.
///
/// Runs in O(n log n) via merge-sort inversion counting.
///
/// # Panics
///
/// Panics if the lists differ in length, contain duplicates, or are not
/// permutations of the same items.
pub fn tau_distance<T: Eq + Hash + Clone>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len(), "tau_distance requires equal-length rankings");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let pos_b: HashMap<&T, usize> = b.iter().enumerate().map(|(i, x)| (x, i)).collect();
    assert_eq!(pos_b.len(), n, "tau_distance requires distinct items");
    // Map a's order into b's positions; inversions of this sequence are
    // exactly the discordant pairs.
    let mut seq: Vec<usize> = a
        .iter()
        .map(|x| *pos_b.get(x).expect("tau_distance requires identical item sets"))
        .collect();
    {
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "tau_distance requires distinct items in `a`");
    }
    let inversions = count_inversions(&mut seq);
    let pairs = n * (n - 1) / 2;
    inversions as f64 / pairs as f64
}

/// Counts inversions in `seq` (pairs `i < j` with `seq[i] > seq[j]`) using
/// bottom-up merge sort. `seq` is sorted in place as a side effect.
fn count_inversions(seq: &mut [usize]) -> u64 {
    let n = seq.len();
    let mut buf = vec![0usize; n];
    let mut count = 0u64;
    let mut width = 1;
    while width < n {
        let mut lo = 0;
        while lo + width < n {
            let mid = lo + width;
            let hi = usize::min(lo + 2 * width, n);
            count += merge_count(&seq[lo..mid], &seq[mid..hi], &mut buf[lo..hi]);
            seq[lo..hi].copy_from_slice(&buf[lo..hi]);
            lo += 2 * width;
        }
        width *= 2;
    }
    count
}

fn merge_count(left: &[usize], right: &[usize], out: &mut [usize]) -> u64 {
    let (mut i, mut j, mut k) = (0, 0, 0);
    let mut count = 0u64;
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            out[k] = left[i];
            i += 1;
        } else {
            out[k] = right[j];
            j += 1;
            // right[j] jumps ahead of everything left in `left`.
            count += left[i..].len() as u64;
        }
        k += 1;
    }
    while i < left.len() {
        out[k] = left[i];
        i += 1;
        k += 1;
    }
    while j < right.len() {
        out[k] = right[j];
        j += 1;
        k += 1;
    }
    count
}

/// Kendall Tau-b correlation between two paired score vectors, with tie
/// correction. Returns a value in `[-1, 1]`, or `None` when either vector
/// is constant (Tau-b is undefined then).
///
/// NaN scores are ordered by IEEE 754 total order (`f64::total_cmp`):
/// every NaN compares above every real score, so a list containing NaN
/// relevances degrades to treating them as maximal rather than panicking.
///
/// O(n²); intended for the short (≤ 50 item) lists this framework handles.
pub fn tau_b(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "tau_b requires paired vectors");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let (mut concordant, mut discordant) = (0i64, 0i64);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i].total_cmp(&x[j]);
            let dy = y[i].total_cmp(&y[j]);
            use std::cmp::Ordering::*;
            match (dx, dy) {
                (Equal, _) | (_, Equal) => {}
                (a, b) if a == b => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - tied_pairs(x)) as f64) * ((n0 - tied_pairs(y)) as f64)).sqrt();
    if approx_zero(denom) {
        return None;
    }
    Some((concordant - discordant) as f64 / denom)
}

/// Number of tied pairs within a single vector (the `n1`/`n2` term of the
/// Tau-b denominator).
fn tied_pairs(v: &[f64]) -> i64 {
    let mut sorted: Vec<f64> = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut total = 0i64;
    let mut run = 1i64;
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            run += 1;
        } else {
            total += run * (run - 1) / 2;
            run = 1;
        }
    }
    total + run * (run - 1) / 2
}

/// Fagin–Kumar–Sivakumar `K^(p)` distance between two top-k lists,
/// normalized to `[0, 1]`.
///
/// The two lists may have different lengths and different items. Every
/// unordered pair `{i, j}` of items appearing in either list contributes a
/// penalty:
///
/// 1. both items in both lists: 1 if the lists order them differently,
///    else 0;
/// 2. both in one list, one of them in the other: 1 if the shared item is
///    ranked *below* the non-shared item in the list containing both
///    (the other list implies the opposite order), else 0;
/// 3. one item only in the first list, the other only in the second: 1
///    (the lists necessarily disagree);
/// 4. both items in one list only: `p` (their order in the other list is
///    unknowable). `p = 0` is the optimistic variant, `p = 1/2` the
///    neutral one used by default in this crate.
///
/// Rather than visiting every pair of the union, each case is counted as
/// an integer from item positions: one hash lookup per item finds its
/// position in the other list, case 1 is an inversion count over the
/// shared items, case 2 a running count of exclusive items ranked above
/// each shared one, and cases 3–4 follow from the exclusive-item counts.
/// The penalty is `cases 1–3 + p · case 4`, so the cost is
/// O(|A| + |B| + s log s) for `s` shared items. The integer counts make
/// the result bitwise symmetric in its arguments, and for `p ∈ {0, ½, 1}`
/// bit-identical to summing the per-pair penalties in any order.
///
/// The total is divided by its value for two fully disjoint lists of the
/// same lengths (the maximum for `p ≤ 1`), giving 0 for identical lists
/// and 1 for disjoint ones.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or a list contains duplicates.
pub fn top_k_distance<T: Eq + Hash + Clone>(a: &[T], b: &[T], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "penalty p must be in [0, 1]");
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    // Slot of every item: `i` for position `i` of `a`, `a.len() + j` for
    // an item found only at position `j` of `b`.
    let mut slot: HashMap<&T, usize> = HashMap::with_capacity(a.len() + b.len());
    for (i, x) in a.iter().enumerate() {
        let fresh = slot.insert(x, i).is_none();
        assert!(fresh, "top_k_distance: duplicate item in first list");
    }
    // `b_pos[i]`: position in `b` of `a[i]`; `in_a[j]`: whether `b[j]` is in `a`.
    let mut b_pos: Vec<Option<usize>> = vec![None; a.len()];
    let mut in_a = vec![false; b.len()];
    for (j, y) in b.iter().enumerate() {
        let i = *slot.entry(y).or_insert(a.len() + j);
        if i < a.len() {
            assert!(b_pos[i].is_none(), "top_k_distance: duplicate item in second list");
            b_pos[i] = Some(j);
            in_a[j] = true;
        } else {
            assert_eq!(i, a.len() + j, "top_k_distance: duplicate item in second list");
        }
    }

    // Case 1: the `b` positions of the shared items, in `a`'s order, are
    // inverted exactly where the lists disagree.
    let mut shared: Vec<usize> = b_pos.iter().flatten().copied().collect();
    let discordant = count_inversions(&mut shared);
    // Case 2: an exclusive item ranked above a shared one, in either list.
    let (a_only, a_above) = exclusive_above_shared(b_pos.iter().map(Option::is_some));
    let (b_only, b_above) = exclusive_above_shared(in_a.iter().copied());
    // Case 3: one exclusive item from each list.
    let cases_1_3 = discordant + a_above + b_above + a_only * b_only;
    // Case 4: two exclusive items of the same list.
    let case_4 = a_only * a_only.saturating_sub(1) / 2 + b_only * b_only.saturating_sub(1) / 2;
    let penalty = cases_1_3 as f64 + p * case_4 as f64;

    let max = max_penalty(a.len(), b.len(), p);
    if approx_zero(max) {
        0.0
    } else {
        (penalty / max).clamp(0.0, 1.0)
    }
}

/// Walks one list top to bottom (`shared[i]`: whether its `i`-th item is
/// in the other list). Returns its number of exclusive items and the
/// number of pairs where an exclusive item sits above a shared one — the
/// case-2 disagreements of that list.
fn exclusive_above_shared(shared: impl Iterator<Item = bool>) -> (u64, u64) {
    let (mut exclusive, mut pairs) = (0u64, 0u64);
    for is_shared in shared {
        if is_shared {
            pairs += exclusive;
        } else {
            exclusive += 1;
        }
    }
    (exclusive, pairs)
}

/// `K^(p)` of two fully disjoint lists of lengths `ka` and `kb` — the
/// normalizing constant.
fn max_penalty(ka: usize, kb: usize, p: f64) -> f64 {
    let cross = (ka * kb) as f64; // case 3 pairs
    let within = (ka * ka.saturating_sub(1) / 2 + kb * kb.saturating_sub(1) / 2) as f64; // case 4
    cross + p * within
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_distance_identity_and_reverse() {
        let a = vec!["a", "b", "c", "d"];
        let mut r = a.clone();
        r.reverse();
        assert_eq!(tau_distance(&a, &a), 0.0);
        assert_eq!(tau_distance(&a, &r), 1.0);
    }

    #[test]
    fn tau_distance_single_swap() {
        // One adjacent swap = 1 discordant pair out of C(4,2)=6.
        let a = vec![1, 2, 3, 4];
        let b = vec![2, 1, 3, 4];
        assert!((tau_distance(&a, &b) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn tau_distance_symmetry() {
        let a = vec![3, 1, 4, 2, 5];
        let b = vec![5, 4, 3, 2, 1];
        assert!((tau_distance(&a, &b) - tau_distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn tau_distance_matches_bruteforce() {
        // Cross-check the O(n log n) inversion count against the O(n²)
        // definition on a fixed permutation.
        let a: Vec<u32> = (0..12).collect();
        let b = vec![7u32, 2, 9, 0, 4, 11, 1, 5, 10, 3, 8, 6];
        let mut discordant = 0;
        for i in 0..b.len() {
            for j in (i + 1)..b.len() {
                let pi = b.iter().position(|&x| x == a[i]).unwrap();
                let pj = b.iter().position(|&x| x == a[j]).unwrap();
                if pi > pj {
                    discordant += 1;
                }
            }
        }
        let expected = discordant as f64 / 66.0;
        assert!((tau_distance(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "identical item sets")]
    fn tau_distance_rejects_different_items() {
        tau_distance(&["a", "b"], &["a", "c"]);
    }

    #[test]
    fn tau_b_perfect_and_inverse() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y_up = vec![10.0, 20.0, 30.0, 40.0];
        let y_down = vec![4.0, 3.0, 2.0, 1.0];
        assert!((tau_b(&x, &y_up).unwrap() - 1.0).abs() < 1e-12);
        assert!((tau_b(&x, &y_down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn tau_b_undefined_for_constant_vector() {
        assert_eq!(tau_b(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(tau_b(&[1.0], &[2.0]), None);
    }

    #[test]
    fn tau_b_tolerates_nan_scores() {
        // Regression: the comparator used to be
        // `partial_cmp().expect("NaN score")`, so one NaN relevance
        // panicked the whole measure. Under total order NaN ranks as a
        // maximal score and the statistic stays defined and in range.
        let x = vec![1.0, f64::NAN, 2.0, 0.5];
        let y = vec![0.2, 0.9, f64::NAN, 0.1];
        let t = tau_b(&x, &y).expect("non-constant vectors have a tau-b");
        assert!((-1.0..=1.0).contains(&t));
        // An all-NaN vector yields no concordant or discordant pairs
        // (every comparison is Equal under total order) → correlation 0.
        assert_eq!(tau_b(&[f64::NAN, f64::NAN], &[1.0, 2.0]), Some(0.0));
    }

    #[test]
    fn tau_b_with_ties_stays_in_range() {
        let x = vec![1.0, 1.0, 2.0, 3.0, 3.0];
        let y = vec![2.0, 1.0, 1.0, 3.0, 2.0];
        let t = tau_b(&x, &y).unwrap();
        assert!((-1.0..=1.0).contains(&t));
    }

    #[test]
    fn top_k_identical_lists() {
        let a = vec!["x", "y", "z"];
        assert_eq!(top_k_distance(&a, &a, 0.5), 0.0);
    }

    #[test]
    fn top_k_disjoint_lists_are_maximal() {
        let a = vec![1, 2, 3];
        let b = vec![4, 5, 6];
        assert!((top_k_distance(&a, &b, 0.0) - 1.0).abs() < 1e-12);
        assert!((top_k_distance(&a, &b, 0.5) - 1.0).abs() < 1e-12);
        assert!((top_k_distance(&a, &b, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_same_items_reduces_to_tau() {
        // When the two lists hold the same items, K^(p) / k(k-1)... is the
        // plain discordant-pair count; normalization differs (max is the
        // disjoint value), so compare against the hand-computed penalty.
        let a = vec![1, 2, 3, 4];
        let b = vec![2, 1, 3, 4];
        // 1 discordant pair; max penalty for k=4,k=4,p=0.5: 16 + 0.5*12 = 22.
        assert!((top_k_distance(&a, &b, 0.5) - 1.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_symmetry() {
        let a = vec![1, 2, 3, 4, 5];
        let b = vec![4, 2, 9, 1];
        for &p in &[0.0, 0.3, 0.5, 1.0] {
            assert!((top_k_distance(&a, &b, p) - top_k_distance(&b, &a, p)).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn top_k_partial_overlap_monotone_in_divergence() {
        let a = vec![1, 2, 3, 4, 5];
        let near = vec![1, 2, 3, 4, 6];
        let far = vec![9, 8, 7, 6, 1];
        let d_near = top_k_distance(&a, &near, 0.5);
        let d_far = top_k_distance(&a, &far, 0.5);
        assert!(d_near < d_far);
        assert!(d_near > 0.0);
        assert!(d_far < 1.0);
    }

    #[test]
    fn top_k_empty_lists() {
        let e: Vec<u8> = vec![];
        assert_eq!(top_k_distance(&e, &e, 0.5), 0.0);
        let a = vec![1u8, 2];
        // One list empty: only case-4 pairs within `a` → penalty p each,
        // max = p * C(2,2 pairs) → distance 1 (or 0 if p = 0 avoided by max).
        assert!((top_k_distance(&a, &e, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_case2_detects_implied_disagreement() {
        // a = [x, y], b = [y] : b implies y ahead of x; a says x ahead of y.
        let a = vec!["x", "y"];
        let b = vec!["y"];
        let d = top_k_distance(&a, &b, 0.0);
        // Pairs: {x,y}: case 2 with shared item y ranked below x in a → 1.
        // max penalty: cross = 2*1 = 2, within = C(2,2)=1 * p=0 → 2.
        assert!((d - 0.5).abs() < 1e-12);
    }
}
