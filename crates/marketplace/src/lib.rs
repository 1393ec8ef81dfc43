//! # fbox-marketplace — a TaskRabbit-style online job marketplace simulator
//!
//! The substrate behind the paper's TaskRabbit case study (§5.1.1). The
//! real study crawled 5,361 live queries over 56 cities; this crate
//! reproduces that input *shape* with a seeded simulator:
//!
//! - a [`Population`] of 3,311 workers matching
//!   the crawl's demographic marginals (Figures 7–8);
//! - the [56 cities](city::CITIES) and the [8-category job
//!   taxonomy](jobs::CATEGORIES) with 96 sub-queries, covering exactly
//!   5,361 offered (sub-query, city) pairs;
//! - a [`ScoringModel`] ranking workers by merit
//!   signals, minus a configurable [`BiasProfile`] —
//!   the *only* place unfair treatment enters; every downstream number
//!   emerges from ranked pages through the F-Box;
//! - a [`Marketplace`] engine producing crawler-eye
//!   result pages (ranks and demographics, no scores), and
//!   [`crawl`](crawl::crawl) to run the full grid.

pub mod bias;
pub mod city;
pub mod crawl;
pub mod demographics;
pub mod engine;
pub mod jobs;
pub mod population;
pub mod scoring;

pub use bias::{BiasOverride, BiasProfile, OverrideAction};
pub use crawl::{
    attach_platform_scores, crawl, crawl_resilient, crawl_with_sink, taskrabbit_universe,
    CellOutcome, CellRecord, CrawlJournal, CrawlRun, CrawlStats,
};
pub use demographics::{Demographic, Ethnicity, Gender, PopulationMarginals};
pub use engine::{Marketplace, PAGE_SIZE};
pub use population::{Population, Worker};
pub use scoring::ScoringModel;
