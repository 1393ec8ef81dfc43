//! Raw observations collected from a platform, before any unfairness is
//! computed.
//!
//! The F-Box consumes exactly what the paper's crawls produced:
//!
//! - from a **search engine** (Google job search): for each `(query,
//!   location)`, one ranked result list per study participant, plus the
//!   participant's protected-attribute assignment (§3.2, Table 1);
//! - from a **marketplace** (TaskRabbit): for each `(query, location)`, one
//!   ranked list of workers with their protected-attribute assignments and
//!   optionally the platform's scores `f_q^l(w)` (§3.3, Tables 2–3).
//!
//! Attribute assignments are *full* assignments over the study
//! [`Schema`](crate::model::Schema): `assignment[a]` holds the individual's
//! value for attribute id `a`. Group membership for any [`GroupLabel`]
//! (including single-attribute groups like "Male") is decided by
//! [`GroupLabel::matches`].
//!
//! [`GroupLabel`]: crate::model::GroupLabel
//! [`GroupLabel::matches`]: crate::model::GroupLabel::matches

use crate::model::{LocationId, QueryId, ValueId};
use std::collections::BTreeMap;

/// One study participant's observed result list for one `(query, location)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserList {
    /// The participant's full protected-attribute assignment.
    pub assignment: Vec<ValueId>,
    /// Result items (e.g. job-posting ids) in rank order, best first.
    pub results: Vec<u64>,
}

/// One ranked worker in a marketplace result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedWorker {
    /// The worker's full protected-attribute assignment.
    pub assignment: Vec<ValueId>,
    /// 1-based rank within the result set.
    pub rank: usize,
    /// The platform's score `f_q^l(w)`, when observable. `None` triggers
    /// the rank-derived relevance fallback (`1 − rank/N`, §3.3.1).
    pub score: Option<f64>,
}

/// Why a crawled result page failed validation and cannot become a
/// [`MarketRanking`]. Resilient ingestion quarantines such pages instead
/// of aborting the crawl (see `fbox-marketplace`'s crawl).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankingError {
    /// Two workers claim the same rank.
    DuplicateRank {
        /// The rank that appears more than once.
        rank: usize,
    },
    /// The sorted rank sequence skips a value (e.g. 1, 2, 4).
    GapInRanks {
        /// The rank that was expected at this position.
        expected: usize,
        /// The rank that was found instead.
        found: usize,
    },
}

impl std::fmt::Display for RankingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateRank { rank } => {
                write!(f, "duplicate rank {rank} in result page")
            }
            Self::GapInRanks { expected, found } => {
                write!(f, "gap in rank sequence: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for RankingError {}

/// The ranked worker list returned by a marketplace for one
/// `(query, location)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MarketRanking {
    workers: Vec<RankedWorker>,
}

impl MarketRanking {
    /// Builds a ranking, sorting by rank and validating that ranks are the
    /// contiguous sequence `1..=N`. Returns a typed [`RankingError`] on
    /// duplicate or gapped ranks so callers (the resilient crawl) can
    /// quarantine the page instead of crashing.
    pub fn try_new(mut workers: Vec<RankedWorker>) -> Result<Self, RankingError> {
        workers.sort_by_key(|w| w.rank);
        for (i, w) in workers.iter().enumerate() {
            let expected = i + 1;
            if w.rank != expected {
                return Err(if w.rank < expected {
                    // Sorted order: a rank below its position means it
                    // also appeared at an earlier position.
                    RankingError::DuplicateRank { rank: w.rank }
                } else {
                    RankingError::GapInRanks { expected, found: w.rank }
                });
            }
        }
        Ok(Self { workers })
    }

    /// Builds a ranking, sorting by rank and validating that ranks are the
    /// contiguous sequence `1..=N`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate or gapped ranks — use [`MarketRanking::try_new`]
    /// when malformed pages must be handled gracefully.
    pub fn new(workers: Vec<RankedWorker>) -> Self {
        Self::try_new(workers).expect("ranks must be the contiguous sequence 1..=N")
    }

    /// Consumes the ranking, returning its workers in rank order. Used by
    /// fault injection to perturb a page and re-validate it.
    #[must_use]
    pub fn into_workers(self) -> Vec<RankedWorker> {
        self.workers
    }

    /// The workers, sorted by rank.
    pub fn workers(&self) -> &[RankedWorker] {
        &self.workers
    }

    /// Result-set size `N`.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The relevance of the worker at `index` (0-based): the platform score
    /// if present, else the rank-derived `1 − rank/N`.
    pub fn relevance(&self, index: usize) -> f64 {
        let w = &self.workers[index];
        w.score.unwrap_or_else(|| crate::measures::relevance_from_rank(w.rank, self.len()))
    }
}

/// All search-engine observations of a study, keyed by `(query, location)`.
#[derive(Debug, Clone, Default)]
pub struct SearchObservations {
    samples: BTreeMap<(QueryId, LocationId), Vec<UserList>>,
}

impl SearchObservations {
    /// An empty observation set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a participant's list for `(q, l)`.
    pub fn push(&mut self, q: QueryId, l: LocationId, list: UserList) {
        self.samples.entry((q, l)).or_default().push(list);
    }

    /// The participant lists observed for `(q, l)`, if any.
    pub fn get(&self, q: QueryId, l: LocationId) -> Option<&[UserList]> {
        self.samples.get(&(q, l)).map(Vec::as_slice)
    }

    /// Number of `(q, l)` cells with data.
    pub fn n_cells(&self) -> usize {
        self.samples.len()
    }

    /// Iterates over all `(q, l)` cells.
    pub fn cells(&self) -> impl Iterator<Item = ((QueryId, LocationId), &[UserList])> {
        self.samples.iter().map(|(&k, v)| (k, v.as_slice()))
    }
}

/// All marketplace observations of a study, keyed by `(query, location)`.
#[derive(Debug, Clone, Default)]
pub struct MarketObservations {
    rankings: BTreeMap<(QueryId, LocationId), MarketRanking>,
}

impl MarketObservations {
    /// An empty observation set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the ranking crawled for `(q, l)`. **Last write wins**: any
    /// previous ranking for the same cell is silently replaced (a re-crawl
    /// supersedes the old page). Single-pass ingestion that expects each
    /// cell exactly once should use [`MarketObservations::insert_new`],
    /// which catches accidental double writes in debug builds.
    pub fn insert(&mut self, q: QueryId, l: LocationId, ranking: MarketRanking) {
        self.rankings.insert((q, l), ranking);
    }

    /// Records the ranking for a cell that single-pass ingestion expects
    /// to be unobserved, returning the displaced ranking if the cell had
    /// one. A `Some` return means the caller wrote the same cell twice —
    /// an ingestion bug (the crawl visits each grid cell exactly once) —
    /// and it is the *caller's* decision whether that is fatal: earlier
    /// versions `debug_assert`ed here, which made debug builds panic
    /// while release builds silently degraded to last-write-wins.
    #[must_use = "a displaced ranking means the cell was ingested twice; callers must decide whether that is fatal"]
    pub fn insert_new(
        &mut self,
        q: QueryId,
        l: LocationId,
        ranking: MarketRanking,
    ) -> Option<MarketRanking> {
        self.rankings.insert((q, l), ranking)
    }

    /// The ranking observed for `(q, l)`, if any.
    pub fn get(&self, q: QueryId, l: LocationId) -> Option<&MarketRanking> {
        self.rankings.get(&(q, l))
    }

    /// Number of `(q, l)` cells with data.
    pub fn n_cells(&self) -> usize {
        self.rankings.len()
    }

    /// Iterates over all `(q, l)` cells.
    pub fn cells(&self) -> impl Iterator<Item = ((QueryId, LocationId), &MarketRanking)> {
        self.rankings.iter().map(|(&k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(v: u16) -> ValueId {
        ValueId(v)
    }

    #[test]
    fn market_ranking_sorts_and_validates() {
        let r = MarketRanking::new(vec![
            RankedWorker { assignment: vec![vid(0)], rank: 2, score: None },
            RankedWorker { assignment: vec![vid(1)], rank: 1, score: Some(0.9) },
        ]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.workers()[0].rank, 1);
        assert_eq!(r.relevance(0), 0.9); // provided score wins
        assert_eq!(r.relevance(1), 0.0); // 1 − 2/2 fallback
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn market_ranking_rejects_gaps() {
        MarketRanking::new(vec![
            RankedWorker { assignment: vec![], rank: 1, score: None },
            RankedWorker { assignment: vec![], rank: 3, score: None },
        ]);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn market_ranking_rejects_duplicates() {
        MarketRanking::new(vec![
            RankedWorker { assignment: vec![], rank: 1, score: None },
            RankedWorker { assignment: vec![], rank: 1, score: None },
        ]);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        let dup = MarketRanking::try_new(vec![
            RankedWorker { assignment: vec![], rank: 1, score: None },
            RankedWorker { assignment: vec![], rank: 1, score: None },
        ]);
        assert_eq!(dup.unwrap_err(), RankingError::DuplicateRank { rank: 1 });

        let gap = MarketRanking::try_new(vec![
            RankedWorker { assignment: vec![], rank: 1, score: None },
            RankedWorker { assignment: vec![], rank: 3, score: None },
        ]);
        let gap = gap.unwrap_err();
        assert_eq!(gap, RankingError::GapInRanks { expected: 2, found: 3 });

        // Errors render for quarantine logs.
        assert!(gap.to_string().contains("gap"));
    }

    #[test]
    fn into_workers_round_trips() {
        let workers = vec![
            RankedWorker { assignment: vec![vid(0)], rank: 1, score: None },
            RankedWorker { assignment: vec![vid(1)], rank: 2, score: None },
        ];
        let r = MarketRanking::new(workers.clone());
        assert_eq!(r.into_workers(), workers);
    }

    #[test]
    fn insert_last_write_wins() {
        let q = QueryId(0);
        let l = LocationId(0);
        let mut m = MarketObservations::new();
        m.insert(q, l, MarketRanking::new(vec![]));
        m.insert(
            q,
            l,
            MarketRanking::new(vec![RankedWorker { assignment: vec![], rank: 1, score: None }]),
        );
        assert_eq!(m.get(q, l).unwrap().len(), 1, "re-crawl supersedes the old page");
    }

    #[test]
    fn insert_new_returns_the_displaced_ranking() {
        // Identical in debug and release: the first write displaces
        // nothing, the double write hands the old page back instead of
        // panicking (debug) or silently dropping it (release).
        let q = QueryId(0);
        let l = LocationId(0);
        let first =
            MarketRanking::new(vec![RankedWorker { assignment: vec![], rank: 1, score: None }]);
        let mut m = MarketObservations::new();
        assert_eq!(m.insert_new(q, l, first.clone()), None);
        assert_eq!(m.insert_new(q, l, MarketRanking::new(vec![])), Some(first));
        assert!(m.get(q, l).unwrap().is_empty(), "the new page replaced the old one");
    }

    #[test]
    fn observation_stores_roundtrip() {
        let q = QueryId(0);
        let l = LocationId(0);
        let mut s = SearchObservations::new();
        s.push(q, l, UserList { assignment: vec![vid(0)], results: vec![1, 2, 3] });
        s.push(q, l, UserList { assignment: vec![vid(1)], results: vec![3, 2, 1] });
        assert_eq!(s.get(q, l).unwrap().len(), 2);
        assert_eq!(s.get(q, LocationId(9)), None);
        assert_eq!(s.n_cells(), 1);

        let mut m = MarketObservations::new();
        m.insert(q, l, MarketRanking::new(vec![]));
        assert!(m.get(q, l).unwrap().is_empty());
        assert_eq!(m.n_cells(), 1);
    }
}
