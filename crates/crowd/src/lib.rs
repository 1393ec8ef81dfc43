//! # fbox-crowd — crowdsourced demographic labeling simulator
//!
//! The paper inferred TaskRabbit workers' gender and ethnicity from
//! profile pictures via Amazon Mechanical Turk: three labelers per
//! picture, majority vote (§5.1.1). This crate reproduces that pipeline
//! stage so label noise can propagate into the fairness measurements:
//!
//! - [`Labeler`]: confusion-matrix voters;
//! - [`majority_vote`]: per-attribute majority
//!   with tie escalation;
//! - [`label_population`]: label a whole
//!   marketplace population and account accuracy.

pub mod labeler;
pub mod majority;
pub mod pipeline;

pub use labeler::Labeler;
pub use majority::{majority_vote, Vote};
pub use pipeline::{label_population, LabelingStats};
