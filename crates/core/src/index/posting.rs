//! Inverted posting lists with sorted and random access — the two access
//! primitives Fagin-style threshold algorithms need (paper §4.2, Table 5).

use serde::{Deserialize, Serialize};

/// One inverted index: entities of a dimension sorted by descending
/// unfairness, plus an O(1) random-access side table.
///
/// Entities missing a value (missing cube cells) are absent from the list
/// and random access returns `None` for them.
///
/// Ties are broken by ascending entity id so that index construction — and
/// everything built on it — is deterministic.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct PostingList {
    /// `(entity, value)` sorted by value desc, then entity asc.
    entries: Vec<(u32, f64)>,
    /// Dense random-access table indexed by entity id.
    values: Vec<Option<f64>>,
}

impl PostingList {
    /// Builds a posting list from per-entity optional values; `values[e]`
    /// is entity `e`'s unfairness (or `None` if missing).
    ///
    /// # Panics
    ///
    /// Panics if any present value is NaN — NaN cannot be ordered.
    pub fn from_values(values: Vec<Option<f64>>) -> Self {
        let mut entries: Vec<(u32, f64)> =
            values.iter().enumerate().filter_map(|(e, v)| v.map(|v| (e as u32, v))).collect();
        assert!(entries.iter().all(|(_, v)| !v.is_nan()), "posting list values must not be NaN");
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Self { entries, values }
    }

    /// Sets entity `e`'s value to `new` (or clears it with `None`),
    /// keeping the sorted entries exact. Because ties break by ascending
    /// entity id, the list order is *total*: the updated list is
    /// bit-identical to [`Self::from_values`] over the updated value
    /// table, which is what lets the incremental store delta-update lists
    /// instead of rebuilding them (see `crates/store`).
    ///
    /// Cost is O(log n) to locate plus O(n) to shift — proportional to
    /// this one list, never to the whole cube.
    ///
    /// # Panics
    ///
    /// Panics if `new` is NaN — NaN cannot be ordered.
    pub fn update(&mut self, e: u32, new: Option<f64>) {
        if self.values.len() <= e as usize {
            self.values.resize(e as usize + 1, None);
        }
        let old = self.values[e as usize];
        if old.map(f64::to_bits) == new.map(f64::to_bits) {
            return;
        }
        // List order: value desc, then entity asc. A probe sorts before
        // the target when its value is larger, or equal with a smaller id.
        let slot = |entries: &[(u32, f64)], v: f64| {
            entries.binary_search_by(|probe| probe.1.total_cmp(&v).reverse().then(probe.0.cmp(&e)))
        };
        if let Some(v) = old {
            let pos = slot(&self.entries, v).expect("entry table and value table out of sync");
            self.entries.remove(pos);
        }
        if let Some(v) = new {
            assert!(!v.is_nan(), "posting list values must not be NaN");
            let pos = match slot(&self.entries, v) {
                Ok(pos) | Err(pos) => pos,
            };
            self.entries.insert(pos, (e, v));
        }
        self.values[e as usize] = new;
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every entity in `0..n_entities` has a value.
    pub fn is_complete(&self, n_entities: usize) -> bool {
        self.values.len() >= n_entities && self.values[..n_entities].iter().all(Option::is_some)
    }

    /// Sorted access in *descending* unfairness order: the entry at
    /// `cursor` (0-based), or `None` past the end.
    pub fn sorted_desc(&self, cursor: usize) -> Option<(u32, f64)> {
        self.entries.get(cursor).copied()
    }

    /// Sorted access in *ascending* unfairness order (for bottom-k /
    /// "least unfair" queries).
    pub fn sorted_asc(&self, cursor: usize) -> Option<(u32, f64)> {
        self.entries.iter().rev().nth(cursor).copied()
    }

    /// Random access: entity `e`'s value, `None` if missing.
    pub fn random_access(&self, e: u32) -> Option<f64> {
        self.values.get(e as usize).copied().flatten()
    }

    /// The raw sorted entries (descending).
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> PostingList {
        PostingList::from_values(vec![Some(0.3), None, Some(0.9), Some(0.3), Some(0.1)])
    }

    #[test]
    fn sorted_desc_orders_by_value_then_id() {
        let l = list();
        assert_eq!(l.len(), 4);
        assert_eq!(l.sorted_desc(0), Some((2, 0.9)));
        // Tie between entities 0 and 3 at 0.3 → id order.
        assert_eq!(l.sorted_desc(1), Some((0, 0.3)));
        assert_eq!(l.sorted_desc(2), Some((3, 0.3)));
        assert_eq!(l.sorted_desc(3), Some((4, 0.1)));
        assert_eq!(l.sorted_desc(4), None);
    }

    #[test]
    fn sorted_asc_is_reverse() {
        let l = list();
        assert_eq!(l.sorted_asc(0), Some((4, 0.1)));
        assert_eq!(l.sorted_asc(3), Some((2, 0.9)));
        assert_eq!(l.sorted_asc(4), None);
    }

    #[test]
    fn random_access_handles_missing() {
        let l = list();
        assert_eq!(l.random_access(2), Some(0.9));
        assert_eq!(l.random_access(1), None);
        assert_eq!(l.random_access(99), None);
    }

    #[test]
    fn completeness() {
        let l = list();
        assert!(!l.is_complete(5));
        let full = PostingList::from_values(vec![Some(0.1), Some(0.2)]);
        assert!(full.is_complete(2));
        assert!(!full.is_complete(3));
    }

    #[test]
    fn empty_list() {
        let l = PostingList::from_values(vec![]);
        assert!(l.is_empty());
        assert_eq!(l.sorted_desc(0), None);
        assert_eq!(l.sorted_asc(0), None);
    }

    #[test]
    fn update_matches_from_values_rebuild() {
        // Every single-entity transition (set, change, clear, no-op) must
        // leave the list bit-identical to a from-scratch build over the
        // same value table — the invariant the incremental store rests on.
        let starts = vec![
            vec![None, None, None, None],
            vec![Some(0.3), None, Some(0.9), Some(0.3)],
            vec![Some(0.5), Some(0.5), Some(0.5), Some(0.5)],
        ];
        let news = [None, Some(0.0), Some(0.3), Some(0.5), Some(0.9), Some(1.0)];
        for start in starts {
            for e in 0..start.len() as u32 {
                for new in news {
                    let mut values = start.clone();
                    let mut incremental = PostingList::from_values(values.clone());
                    incremental.update(e, new);
                    values[e as usize] = new;
                    let rebuilt = PostingList::from_values(values);
                    assert_eq!(incremental.entries(), rebuilt.entries());
                    for i in 0..start.len() as u32 {
                        assert_eq!(
                            incremental.random_access(i).map(f64::to_bits),
                            rebuilt.random_access(i).map(f64::to_bits)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn update_grows_the_value_table() {
        let mut l = PostingList::from_values(vec![Some(0.2)]);
        l.update(3, Some(0.7));
        assert_eq!(l.sorted_desc(0), Some((3, 0.7)));
        assert_eq!(l.random_access(3), Some(0.7));
        assert_eq!(l.random_access(2), None);
    }
}
