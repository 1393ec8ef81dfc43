//! Property tests pitting `measures/jaccard.rs`'s merge count against a
//! set-based oracle.
//!
//! The production [`index`] sorts and deduplicates each list, then counts
//! the intersection in one merge walk. The oracle below builds the two
//! `BTreeSet`s and asks the standard library for the intersection and
//! union sizes. Both end in the same two integers, so they must agree to
//! the bit — duplicates, empty lists and unequal lengths included.

use fbox_core::measures::jaccard::{distance, index};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Oracle for [`index`]: `|A ∩ B| / |A ∪ B|` over `BTreeSet`s, with two
/// empty lists counting as identical.
fn set_index(a: &[u64], b: &[u64]) -> f64 {
    let sa: BTreeSet<&u64> = a.iter().collect();
    let sb: BTreeSet<&u64> = b.iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_matches_set_oracle_bit_for_bit(
        // A small item domain: duplicates inside a list and overlap
        // between lists occur in nearly every draw; lengths are drawn
        // independently, so empty and unequal-length pairs occur too.
        a in proptest::collection::vec(0u64..12, 0..16),
        b in proptest::collection::vec(0u64..12, 0..16),
    ) {
        let fast = index(&a, &b);
        let oracle = set_index(&a, &b);
        prop_assert_eq!(fast.to_bits(), oracle.to_bits(), "fast {fast} vs oracle {oracle}");
        let d = distance(&a, &b);
        prop_assert_eq!(d.to_bits(), (1.0 - oracle).to_bits(), "distance {d} vs oracle {oracle}");
    }
}

#[test]
fn empty_and_duplicate_edge_cases_match_the_oracle() {
    let cases: [(&[u64], &[u64]); 5] = [
        (&[], &[]),
        (&[], &[3, 3]),
        (&[5, 5, 5], &[5]),
        (&[1, 2, 2, 3], &[3, 3, 4]),
        (&[9, 8, 7, 6, 5, 4], &[4]),
    ];
    for (a, b) in cases {
        assert_eq!(index(a, b).to_bits(), set_index(a, b).to_bits(), "{a:?} vs {b:?}");
    }
}
