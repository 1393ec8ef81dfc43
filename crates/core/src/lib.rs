//! # fbox-core — fairness quantification and comparison for online job platforms
//!
//! A faithful implementation of the framework of *“Fairness in Online
//! Jobs: A Case Study on TaskRabbit and Google”* (Amer-Yahia et al., EDBT
//! 2020): group unfairness over ranked job-search results and marketplace
//! worker rankings, with Fagin-style threshold algorithms answering top-k
//! quantification and breakdown-comparison questions.
//!
//! ## Concepts
//!
//! - A **[`Schema`]** declares protected attributes
//!   (gender, ethnicity, …) and a **[`GroupLabel`]** is
//!   a conjunction of `attribute = value` predicates. Groups one
//!   attribute-flip apart are *comparable* and unfairness is always
//!   measured against them.
//! - A **[`Universe`]** registers the groups, queries,
//!   and locations of a study.
//! - **Observations** ([`observations`]) are what a crawl produces:
//!   per-user ranked lists (search engines) or ranked worker lists
//!   (marketplaces).
//! - **Measures** ([`measures`], [`unfairness`]) turn observations into
//!   `d⟨g,q,l⟩` values: Kendall-Tau/Jaccard list distances (Eq. 1), or
//!   EMD/exposure over worker rankings (Eq. 2, §3.3.2).
//! - The **[`UnfairnessCube`]** stores every
//!   `d⟨g,q,l⟩`; the three **index families** ([`index`]) pre-sort it per
//!   Table 5.
//! - **Algorithms** ([`algo`]) answer Problem 1 (top-k most/least unfair
//!   groups, queries, or locations — threshold algorithm with a naive
//!   baseline) and Problem 2 (breakdown comparisons).
//! - **[`FBox`]** bundles the whole pipeline.
//!
//! ## Quick example
//!
//! ```
//! use fbox_core::model::{Schema, Universe};
//! use fbox_core::observations::{MarketObservations, MarketRanking, RankedWorker};
//! use fbox_core::unfairness::MarketMeasure;
//! use fbox_core::algo::{RankOrder, Restriction};
//! use fbox_core::FBox;
//!
//! // A study over gender × ethnicity with one query at one location.
//! let mut universe = Universe::with_all_groups(Schema::gender_ethnicity());
//! let q = universe.add_query("Home Cleaning", Some("General Cleaning"));
//! let l = universe.add_location("San Francisco, CA", None);
//!
//! // A crawled ranking: alternating male/female White workers.
//! let workers = (1..=10)
//!     .map(|rank| RankedWorker {
//!         assignment: vec![
//!             fbox_core::model::ValueId((rank % 2) as u16), // gender
//!             fbox_core::model::ValueId(2),                 // White
//!         ],
//!         rank,
//!         score: None,
//!     })
//!     .collect();
//! let mut obs = MarketObservations::new();
//! obs.insert(q, l, MarketRanking::new(workers));
//!
//! let fbox = FBox::from_market(universe, &obs, MarketMeasure::exposure());
//! let most_unfair = fbox.top_k_groups(3, RankOrder::MostUnfair, &Restriction::none());
//! assert_eq!(most_unfair.len(), 3);
//! ```
//!
//! ## Conventions
//!
//! - Every unfairness value is in `[0, 1]`; higher = more unfair.
//! - Ranks are 1-based everywhere.
//! - Missing data is `None`, never a sentinel value; aggregations skip
//!   missing cells.
//! - Functions panic on *programming* errors (mismatched dimensions,
//!   malformed rankings) and return `Option` for *data* conditions (an
//!   empty group, an unobserved cell).

pub mod algo;
pub mod cube;
pub mod fbox;
pub mod index;
pub mod measures;
pub mod model;
pub mod observations;
pub mod paper_toy;
pub mod unfairness;

pub use cube::UnfairnessCube;
pub use fbox::FBox;
pub use index::{Dimension, IndexSet};
pub use model::{GroupId, GroupLabel, LocationId, QueryId, Schema, Universe};
pub use unfairness::{MarketMeasure, SearchMeasure};
