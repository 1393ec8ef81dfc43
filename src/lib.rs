//! # fbox — fairness in online jobs
//!
//! Umbrella crate re-exporting the full F-Box stack, the reproduction of
//! *“Fairness in Online Jobs: A Case Study on TaskRabbit and Google”*
//! (EDBT 2020):
//!
//! - [`core`]: the fairness framework (measures, unfairness cube,
//!   Fagin-style top-k, comparisons);
//! - [`marketplace`]: TaskRabbit-style marketplace simulator;
//! - [`search`]: Google-job-search-style personalized search simulator;
//! - [`crowd`]: AMT-style demographic labeling;
//! - [`store`]: crash-consistent incremental cube store (segment log,
//!   epoch snapshots, binary cube snapshots);
//! - [`repro`]: the experiment harness regenerating the paper's tables
//!   and figures.
//!
//! Start with the `quickstart` example, or
//! [`FBox`] for the core API.

pub use fbox_core as core;
pub use fbox_crowd as crowd;
pub use fbox_marketplace as marketplace;
pub use fbox_par as par;
pub use fbox_repro as repro;
pub use fbox_resilience as resilience;
pub use fbox_search as search;
pub use fbox_store as store;
pub use fbox_trace as trace;

pub use fbox_core::{Dimension, FBox, MarketMeasure, Schema, SearchMeasure, Universe};
