//! Inverted posting lists: the sorted-access primitive Fagin-style
//! threshold algorithms need (paper §4.2, Table 5). Random access is
//! served by the cube the [`IndexSet`](super::IndexSet) owns.

/// One inverted index: entities of a dimension sorted by descending
/// unfairness.
///
/// Entities missing a value (missing cube cells) are absent from the list.
///
/// Ties are broken by ascending entity id so that index construction — and
/// everything built on it — is deterministic.
#[derive(Debug, Clone, Default)]
pub struct PostingList {
    /// `(entity, value)` sorted by value desc, then entity asc.
    entries: Vec<(u32, f64)>,
}

impl PostingList {
    /// Builds a posting list from per-entity optional values; the `e`-th
    /// item is entity `e`'s unfairness (or `None` if missing).
    ///
    /// # Panics
    ///
    /// Panics if any present value is NaN — NaN cannot be ordered.
    pub fn from_values(values: impl IntoIterator<Item = Option<f64>>) -> Self {
        let mut entries: Vec<(u32, f64)> =
            (0u32..).zip(values).filter_map(|(e, v)| v.map(|v| (e, v))).collect();
        assert!(entries.iter().all(|(_, v)| !v.is_nan()), "posting list values must not be NaN");
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Self { entries }
    }

    /// Moves entity `e` from its `old` value to `new` (either may be
    /// `None`: absent from the list), keeping the sorted entries exact.
    /// `old` must be the value the list currently holds for `e`; the
    /// owning [`IndexSet`](super::IndexSet) reads it from its cube.
    /// Because ties break by ascending entity id, the list order is
    /// *total*: the updated list is bit-identical to
    /// [`Self::from_values`] over the updated values, which is what lets
    /// the incremental store delta-update lists instead of rebuilding
    /// them (see `crates/store`).
    ///
    /// Cost is O(log n) to locate plus O(n) to shift — proportional to
    /// this one list, never to the whole cube.
    ///
    /// # Panics
    ///
    /// Panics if `new` is NaN — NaN cannot be ordered.
    pub fn update(&mut self, e: u32, old: Option<f64>, new: Option<f64>) {
        if old.map(f64::to_bits) == new.map(f64::to_bits) {
            return;
        }
        // List order: value desc, then entity asc. A probe sorts before
        // the target when its value is larger, or equal with a smaller id.
        let slot = |entries: &[(u32, f64)], v: f64| {
            entries.binary_search_by(|probe| probe.1.total_cmp(&v).reverse().then(probe.0.cmp(&e)))
        };
        if let Some(v) = old {
            let found = slot(&self.entries, v);
            debug_assert!(found.is_ok(), "entity {e} has no entry at its old value {v}");
            if let Ok(pos) = found {
                self.entries.remove(pos);
            }
        }
        if let Some(v) = new {
            assert!(!v.is_nan(), "posting list values must not be NaN");
            let pos = match slot(&self.entries, v) {
                Ok(pos) | Err(pos) => pos,
            };
            self.entries.insert(pos, (e, v));
        }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
    fn missing_entities_are_absent() {
        let l = list();
        assert!(l.entries().iter().all(|&(e, _)| e != 1));
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
        // same values — the invariant the incremental store rests on.
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
                    incremental.update(e, values[e as usize], new);
                    values[e as usize] = new;
                    let rebuilt = PostingList::from_values(values);
                    assert_eq!(incremental.entries(), rebuilt.entries(), "e={e} new={new:?}");
                }
            }
        }
    }
}
