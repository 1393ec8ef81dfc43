//! Jaccard similarity and distance between result sets.
//!
//! The paper's search-engine unfairness (Eq. 1) can use the Jaccard Index
//! between the result lists of two users. Jaccard ignores order and looks
//! only at *which* results the two users saw — complementary to Kendall
//! Tau, which is order-sensitive.
//!
//! Within the F-Box, unfairness must grow when lists diverge, so the
//! drivers use [`distance`] (= 1 − index). Both directions are exposed.
//!
//! Each list becomes a sorted, deduplicated vector of item references
//! (`T: Ord`) and the intersection is counted by one merge walk, so no
//! hash order is ever iterated — this module sits inside the cube-build
//! cone checked by the `det-hash-iter` lint. The index is a ratio of two
//! integer counts, hence bitwise symmetric in its arguments.

/// Jaccard index `|A ∩ B| / |A ∪ B|` of the *sets* of items in the two
/// lists (duplicates are collapsed). Two empty lists have index 1
/// (identical) by convention.
pub fn index<T: Ord>(a: &[T], b: &[T]) -> f64 {
    let (sa, sb) = (sorted_set(a), sorted_set(b));
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter, mut union) = (0, 0, 0usize, 0usize);
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
        union += 1;
    }
    union += sa[i..].len() + sb[j..].len();
    // The early return leaves at least one item, so `union >= 1`.
    inter as f64 / union.max(1) as f64
}

/// The distinct items of `list`, in ascending order.
fn sorted_set<T: Ord>(list: &[T]) -> Vec<&T> {
    let mut set: Vec<&T> = list.iter().collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Jaccard distance `1 − index(a, b)` ∈ `[0, 1]`; 0 for identical sets,
/// 1 for disjoint ones. This is the orientation used in Eq. 1, where higher
/// values mean more divergent result sets and hence more unfairness.
pub fn distance<T: Ord>(a: &[T], b: &[T]) -> f64 {
    1.0 - index(a, b)
}

/// Jaccard index of the top-`k` prefixes of two ranked lists — the usual
/// way to compare truncated search-result pages at a fixed depth.
pub fn index_at_k<T: Ord>(a: &[T], b: &[T], k: usize) -> f64 {
    index(&a[..a.len().min(k)], &b[..b.len().min(k)])
}

/// Jaccard distance of the top-`k` prefixes.
pub fn distance_at_k<T: Ord>(a: &[T], b: &[T], k: usize) -> f64 {
    1.0 - index_at_k(a, b, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets() {
        let a = vec!["x", "y", "z"];
        assert_eq!(index(&a, &a), 1.0);
        assert_eq!(distance(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_sets() {
        let a = vec![1, 2];
        let b = vec![3, 4];
        assert_eq!(index(&a, &b), 0.0);
        assert_eq!(distance(&a, &b), 1.0);
    }

    #[test]
    fn partial_overlap() {
        // {a,b,c} vs {b,c,d}: |∩| = 2, |∪| = 4.
        let a = vec!["a", "b", "c"];
        let b = vec!["b", "c", "d"];
        assert!((index(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn order_is_ignored() {
        let a = vec![1, 2, 3];
        let b = vec![3, 2, 1];
        assert_eq!(index(&a, &b), 1.0);
    }

    #[test]
    fn duplicates_collapse() {
        let a = vec![1, 1, 2];
        let b = vec![1, 2, 2];
        assert_eq!(index(&a, &b), 1.0);
    }

    #[test]
    fn empty_conventions() {
        let e: Vec<u8> = vec![];
        assert_eq!(index(&e, &e), 1.0);
        assert_eq!(index(&e, &[1u8]), 0.0);
    }

    #[test]
    fn symmetry() {
        let a = vec![1, 2, 3, 4];
        let b = vec![3, 4, 5];
        assert_eq!(index(&a, &b), index(&b, &a));
    }

    #[test]
    fn at_k_truncates() {
        let a = vec![1, 2, 3, 4, 5];
        let b = vec![1, 2, 9, 9, 9];
        // Top-2 prefixes identical.
        assert_eq!(index_at_k(&a, &b, 2), 1.0);
        assert!(index_at_k(&a, &b, 5) < 1.0);
        // k beyond list length behaves like the full list.
        assert_eq!(index_at_k(&a, &b, 100), index(&a, &b));
        assert_eq!(distance_at_k(&a, &b, 2), 0.0);
    }
}
