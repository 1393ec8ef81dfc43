//! The three index families of Table 5: group-based `I(q,l)`, query-based
//! `I(g,l)`, and location-based `I(g,q)` inverted indices, pre-computed
//! from the unfairness cube for fast top-k processing.

mod posting;

pub use posting::PostingList;

use crate::cube::UnfairnessCube;
use crate::model::{GroupId, LocationId, QueryId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One of the three dimensions of the unfairness cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dimension {
    /// Demographic groups.
    Group,
    /// Job-related queries.
    Query,
    /// Geographic locations.
    Location,
}

impl Dimension {
    /// The other two dimensions, in canonical (Group, Query, Location)
    /// order.
    pub fn others(self) -> (Dimension, Dimension) {
        match self {
            Dimension::Group => (Dimension::Query, Dimension::Location),
            Dimension::Query => (Dimension::Group, Dimension::Location),
            Dimension::Location => (Dimension::Group, Dimension::Query),
        }
    }
}

/// All three index families over one unfairness cube, and the cube itself.
///
/// For each pair of the *other* two dimensions there is one
/// [`PostingList`] ranking the indexed dimension's entities by descending
/// unfairness — the sorted access of Fagin-style top-k. Random access
/// reads the owned cube, so the set holds the cube once plus three sorted
/// copies. Building is O(cells · log) once; every subsequent top-k
/// query runs on the pre-sorted lists.
///
/// Each list sits behind an [`Arc`]: cloning a set copies the cube and
/// the list pointers, and [`Self::update_cell`] copies only the lists a
/// cell touches, so clones (the store's epochs) share every other list.
#[derive(Debug, Clone)]
pub struct IndexSet {
    cube: UnfairnessCube,
    /// `I(q,l)` — groups ranked; indexed by `q * n_locations + l`.
    group_lists: Vec<Arc<PostingList>>,
    /// `I(g,l)` — queries ranked; indexed by `g * n_locations + l`.
    query_lists: Vec<Arc<PostingList>>,
    /// `I(g,q)` — locations ranked; indexed by `g * n_queries + q`.
    location_lists: Vec<Arc<PostingList>>,
    /// Present `(g,q,l)` values, maintained incrementally by
    /// [`Self::update_cell`] so completeness stays O(1).
    n_present: usize,
    complete: bool,
}

/// Pairs `(a, b)` with `a < na`, `b < nb`, in `a`-major order — the slot
/// order of one posting-list family.
fn pair_grid(na: usize, nb: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::with_capacity(na * nb);
    debug_assert!(
        na <= u32::MAX as usize && nb <= u32::MAX as usize,
        "dimension sizes must fit the u32 id space"
    );
    for a in 0..na as u32 {
        for b in 0..nb as u32 {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Builds one posting-list family: the lists are chunked across
/// [`fbox_par`] workers and re-flattened in slot order, so the family is
/// identical to the serial build at any thread count. `list_for(a, b)`
/// builds the list of pair `(a, b)`.
fn build_family(
    family: &'static str,
    pairs: &[(u32, u32)],
    list_for: impl Fn(u32, u32) -> PostingList + Sync,
) -> Vec<Arc<PostingList>> {
    let _span = fbox_telemetry::span_args("index.family", |a| {
        a.str("family", family);
        a.u64("lists", pairs.len() as u64);
    });
    // ~64 lists per unit of work: one sort each, cheap enough to batch.
    let chunks = fbox_par::par_chunks(pairs, 64, |chunk| {
        chunk.iter().map(|&(a, b)| Arc::new(list_for(a, b))).collect::<Vec<_>>()
    });
    chunks.into_iter().flatten().collect()
}

/// [`Arc::make_mut`] on one list, adding 1 to `copied` when the list was
/// shared and had to be copied.
fn make_mut<'a>(list: &'a mut Arc<PostingList>, copied: &mut usize) -> &'a mut PostingList {
    let before = Arc::as_ptr(list);
    let list = Arc::make_mut(list);
    if !std::ptr::eq(before, list) {
        *copied += 1;
    }
    list
}

impl IndexSet {
    /// Builds all three families over a copy of `cube`. Each family's
    /// posting lists are built in parallel across `FBOX_THREADS` workers
    /// (deterministic: every list lands in its canonical slot regardless
    /// of thread count).
    pub fn build(cube: &UnfairnessCube) -> Self {
        Self::from_cube(cube.clone())
    }

    /// [`Self::build`] without the copy: the set takes ownership of `cube`.
    pub(crate) fn from_cube(cube: UnfairnessCube) -> Self {
        let _span = fbox_telemetry::span("index.build");
        let (ng, nq, nl) = (cube.n_groups(), cube.n_queries(), cube.n_locations());
        debug_assert!(
            ng <= u32::MAX as usize && nq <= u32::MAX as usize && nl <= u32::MAX as usize,
            "dimension sizes must fit the u32 id space"
        );
        let at = |g, q, l| cube.get(GroupId(g), QueryId(q), LocationId(l));
        let group_lists = build_family("group", &pair_grid(nq, nl), |q, l| {
            PostingList::from_values((0..ng as u32).map(|g| at(g, q, l)))
        });
        let query_lists = build_family("query", &pair_grid(ng, nl), |g, l| {
            PostingList::from_values((0..nq as u32).map(|q| at(g, q, l)))
        });
        let location_lists = build_family("location", &pair_grid(ng, nq), |g, q| {
            PostingList::from_values((0..nl as u32).map(|l| at(g, q, l)))
        });

        let t = fbox_telemetry::global();
        if t.enabled() {
            t.counter("index.builds").inc();
            t.counter("index.lists_built")
                .add((group_lists.len() + query_lists.len() + location_lists.len()) as u64);
        }

        let n_present = group_lists.iter().map(|list| list.len()).sum();
        Self {
            cube,
            group_lists,
            query_lists,
            location_lists,
            n_present,
            complete: n_present == ng * nq * nl,
        }
    }

    /// Writes cell `(q,l)`'s per-group `values` (group-id order) into the
    /// cube and delta-updates every index entry they move, leaving the set
    /// bit-identical to [`Self::build`] over the updated cube. One cell
    /// touches at most one group list (`I(q,l)`) plus, per changed group,
    /// entry `q` of `I(g,l)` and entry `l` of `I(g,q)` — cost proportional
    /// to the cell's fan-out, never to the cube. Returns how many of those
    /// lists were shared with a clone and had to be copied.
    ///
    /// Bit-equality holds because [`PostingList::update`] reproduces the
    /// total (value desc, id asc) order exactly, and because cube cells
    /// are independent: re-deriving one cell never moves entries owned by
    /// another.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold one value per group, or a value
    /// is outside `[0, 1]`.
    pub fn update_cell(&mut self, q: QueryId, l: LocationId, values: &[Option<f64>]) -> usize {
        let (ng, nq, nl) = (self.cube.n_groups(), self.cube.n_queries(), self.cube.n_locations());
        assert_eq!(values.len(), ng, "one value per group");
        let slot = q.0 as usize * nl + l.0 as usize;
        let before = self.group_lists[slot].len();
        let mut copied = 0;
        for (g, &new) in (0u32..).zip(values) {
            let old = self.cube.get(GroupId(g), q, l);
            if old.map(f64::to_bits) == new.map(f64::to_bits) {
                continue;
            }
            self.cube.set_opt(GroupId(g), q, l, new);
            make_mut(&mut self.group_lists[slot], &mut copied).update(g, old, new);
            let gi = g as usize;
            make_mut(&mut self.query_lists[gi * nl + l.0 as usize], &mut copied)
                .update(q.0, old, new);
            make_mut(&mut self.location_lists[gi * nq + q.0 as usize], &mut copied)
                .update(l.0, old, new);
        }
        let n = self.n_present + self.group_lists[slot].len();
        debug_assert!(before <= n, "posting list shrank below the entries it contributed");
        self.n_present = n - before;
        self.complete = self.n_present == ng * nq * nl;
        copied
    }

    /// The indexed cube.
    pub fn cube(&self) -> &UnfairnessCube {
        &self.cube
    }

    /// Whether the cube has every cell present. O(1): kept up to date by
    /// [`Self::update_cell`].
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Size of the indexed dimension.
    pub fn dim_len(&self, dim: Dimension) -> usize {
        match dim {
            Dimension::Group => self.cube.n_groups(),
            Dimension::Query => self.cube.n_queries(),
            Dimension::Location => self.cube.n_locations(),
        }
    }

    /// `I(q,l)`: groups ranked by unfairness for one query/location pair.
    pub fn group_list(&self, q: QueryId, l: LocationId) -> &PostingList {
        &self.group_lists[q.0 as usize * self.cube.n_locations() + l.0 as usize]
    }

    /// `I(g,l)`: queries ranked for one group/location pair.
    pub fn query_list(&self, g: GroupId, l: LocationId) -> &PostingList {
        &self.query_lists[g.0 as usize * self.cube.n_locations() + l.0 as usize]
    }

    /// `I(g,q)`: locations ranked for one group/query pair.
    pub fn location_list(&self, g: GroupId, q: QueryId) -> &PostingList {
        &self.location_lists[g.0 as usize * self.cube.n_queries() + q.0 as usize]
    }

    /// The posting list ranking dimension `dim` for one pair of entities of
    /// the other two dimensions, given in canonical (Group, Query,
    /// Location) order of the *remaining* dimensions:
    ///
    /// - `dim = Group` → `pair = (query, location)`
    /// - `dim = Query` → `pair = (group, location)`
    /// - `dim = Location` → `pair = (group, query)`
    pub fn list_for(&self, dim: Dimension, pair: (u32, u32)) -> &PostingList {
        match dim {
            Dimension::Group => self.group_list(QueryId(pair.0), LocationId(pair.1)),
            Dimension::Query => self.query_list(GroupId(pair.0), LocationId(pair.1)),
            Dimension::Location => self.location_list(GroupId(pair.0), QueryId(pair.1)),
        }
    }

    /// Random access on [`Self::list_for`]`(dim, pair)`: entity `e`'s
    /// value, `None` if missing — read from the cube.
    pub fn random_access(&self, dim: Dimension, pair: (u32, u32), e: u32) -> Option<f64> {
        let (g, q, l) = match dim {
            Dimension::Group => (e, pair.0, pair.1),
            Dimension::Query => (pair.0, e, pair.1),
            Dimension::Location => (pair.0, pair.1, e),
        };
        self.value(GroupId(g), QueryId(q), LocationId(l))
    }

    /// Direct cube lookup: `d⟨g,q,l⟩`.
    pub fn value(&self, g: GroupId, q: QueryId, l: LocationId) -> Option<f64> {
        self.cube.get(g, q, l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cube() -> UnfairnessCube {
        // 2 groups × 2 queries × 2 locations with distinct values.
        let mut c = UnfairnessCube::with_dims(2, 2, 2);
        let mut v = 0.0;
        for g in 0..2u32 {
            for q in 0..2u32 {
                for l in 0..2u32 {
                    v += 0.1;
                    c.set(GroupId(g), QueryId(q), LocationId(l), v);
                }
            }
        }
        c
    }

    #[test]
    fn three_families_agree_with_cube() {
        let cube = small_cube();
        let idx = IndexSet::build(&cube);
        assert!(idx.is_complete());
        for g in 0..2u32 {
            for q in 0..2u32 {
                for l in 0..2u32 {
                    let expected = cube.get(GroupId(g), QueryId(q), LocationId(l)).unwrap();
                    let has = |list: &PostingList, e: u32| list.entries().contains(&(e, expected));
                    assert!(has(idx.group_list(QueryId(q), LocationId(l)), g));
                    assert!(has(idx.query_list(GroupId(g), LocationId(l)), q));
                    assert!(has(idx.location_list(GroupId(g), QueryId(q)), l));
                    assert_eq!(idx.value(GroupId(g), QueryId(q), LocationId(l)), Some(expected));
                }
            }
        }
    }

    #[test]
    fn sorted_access_descends() {
        let cube = small_cube();
        let idx = IndexSet::build(&cube);
        for q in 0..2u32 {
            for l in 0..2u32 {
                let list = idx.group_list(QueryId(q), LocationId(l));
                let (_, top) = list.sorted_desc(0).unwrap();
                let (_, bottom) = list.sorted_desc(1).unwrap();
                assert!(top >= bottom);
            }
        }
    }

    #[test]
    fn incomplete_cube_flagged() {
        let mut c = UnfairnessCube::with_dims(1, 1, 2);
        c.set(GroupId(0), QueryId(0), LocationId(0), 0.5);
        let idx = IndexSet::build(&c);
        assert!(!idx.is_complete());
        assert_eq!(idx.group_list(QueryId(0), LocationId(1)).len(), 0);
    }

    fn assert_index_eq(a: &IndexSet, b: &IndexSet) {
        let bits = |c: &UnfairnessCube| -> Vec<Option<u64>> {
            c.raw_data().iter().map(|v| v.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(a.cube()), bits(b.cube()));
        assert_eq!(a.n_present, b.n_present);
        assert_eq!(a.complete, b.complete);
        for (fa, fb) in [
            (&a.group_lists, &b.group_lists),
            (&a.query_lists, &b.query_lists),
            (&a.location_lists, &b.location_lists),
        ] {
            assert_eq!(fa.len(), fb.len());
            for (la, lb) in fa.iter().zip(fb.iter()) {
                assert_eq!(la.entries(), lb.entries());
            }
        }
    }

    #[test]
    fn update_cell_matches_full_rebuild() {
        let mut cube = UnfairnessCube::with_dims(3, 2, 2);
        let mut idx = IndexSet::build(&cube);
        assert!(!idx.is_complete());

        // Stream cells in, delta-updating after each; the index must stay
        // bit-identical to a full rebuild at every step.
        let mut v = 0.0;
        for q in 0..2u32 {
            for l in 0..2u32 {
                let mut values = Vec::new();
                for g in 0..3u32 {
                    v += 0.05;
                    cube.set(GroupId(g), QueryId(q), LocationId(l), v);
                    values.push(Some(v));
                }
                idx.update_cell(QueryId(q), LocationId(l), &values);
                assert_index_eq(&idx, &IndexSet::build(&cube));
            }
        }
        assert!(idx.is_complete());

        // Re-deriving a cell with changed values (a later epoch revises
        // it), or clearing part of it, must also match.
        let (q, l) = (QueryId(0), LocationId(1));
        let mut values: Vec<_> = (0..3).map(|g| cube.get(GroupId(g), q, l)).collect();
        values[1] = Some(0.99);
        values[2] = None;
        cube.set(GroupId(1), q, l, 0.99);
        cube.set_opt(GroupId(2), q, l, None);
        idx.update_cell(q, l, &values);
        assert_index_eq(&idx, &IndexSet::build(&cube));
        assert!(!idx.is_complete());
    }

    #[test]
    fn update_cell_copies_only_the_lists_it_touches() {
        let cube = small_cube();
        let mut idx = IndexSet::build(&cube);
        let shared = idx.clone();
        let (q, l) = (QueryId(1), LocationId(0));
        let mut values: Vec<_> = (0..2).map(|g| cube.get(GroupId(g), q, l)).collect();

        // No value moves: nothing is copied.
        assert_eq!(idx.update_cell(q, l, &values), 0);
        // Group 1 moves: I(q,l), I(1,l), I(1,q) are copied, once each.
        values[1] = Some(0.01);
        assert_eq!(idx.update_cell(q, l, &values), 3);
        values[1] = Some(0.02);
        assert_eq!(idx.update_cell(q, l, &values), 0, "already unshared");

        let same = |a: &PostingList, b: &PostingList| std::ptr::eq(a, b);
        assert!(!same(idx.group_list(q, l), shared.group_list(q, l)));
        assert!(!same(idx.query_list(GroupId(1), l), shared.query_list(GroupId(1), l)));
        assert!(same(idx.query_list(GroupId(0), l), shared.query_list(GroupId(0), l)));
        assert!(same(idx.group_list(QueryId(0), l), shared.group_list(QueryId(0), l)));
        // The clone still sees the old value.
        assert_eq!(shared.value(GroupId(1), q, l), cube.get(GroupId(1), q, l));
    }

    #[test]
    fn list_for_dispatches() {
        let cube = small_cube();
        let idx = IndexSet::build(&cube);
        let cases = [
            (Dimension::Group, (1, 1), 0, (0, 1, 1)),
            (Dimension::Query, (1, 0), 1, (1, 1, 0)),
            (Dimension::Location, (0, 1), 1, (0, 1, 1)),
        ];
        for (dim, pair, e, (g, q, l)) in cases {
            let want = cube.get(GroupId(g), QueryId(q), LocationId(l));
            assert_eq!(idx.random_access(dim, pair, e), want);
            assert!(idx.list_for(dim, pair).entries().contains(&(e, want.unwrap())));
        }
    }
}
