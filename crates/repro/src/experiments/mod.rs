//! One module per paper experiment; each returns an
//! [`ExperimentResult`] with a
//! rendered report and named shape checks.

pub mod figures;
pub mod google_compare;
pub mod google_quant;
pub mod hypotheses;
pub mod mitigate;
pub mod taskrabbit_compare;
pub mod taskrabbit_quant;

pub use taskrabbit_quant::ExperimentResult;
