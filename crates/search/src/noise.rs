//! The noise sources the paper controls for (§5.1.2, after Hannak et
//! al.'s web-search personalization methodology): the carry-over effect,
//! A/B testing, and geolocation — and the knobs the study protocol uses to
//! suppress them (12-minute spacing, repeated executions, a fixed proxy
//! location).

/// Magnitudes of the three noise sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Peak score perturbation from a recent previous query (carry-over).
    pub carryover_strength: f64,
    /// Minutes until carry-over decays to half strength. Hannak et al.
    /// observed carry-over dissipating within ~10 minutes; the paper's
    /// extension waits 12.
    pub carryover_halflife_min: f64,
    /// Score perturbation between A/B test buckets.
    pub ab_strength: f64,
    /// Number of A/B buckets a request can land in.
    pub ab_buckets: u64,
    /// Score perturbation when the request's origin location is not
    /// pinned (distributed infrastructure / geolocation noise).
    pub geo_strength: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self {
            carryover_strength: 0.25,
            carryover_halflife_min: 2.0,
            ab_strength: 0.08,
            ab_buckets: 4,
            geo_strength: 0.15,
        }
    }
}

impl NoiseModel {
    /// No noise at all (for isolating the personalization signal in
    /// tests).
    pub fn none() -> Self {
        Self {
            carryover_strength: 0.0,
            carryover_halflife_min: 1.0,
            ab_strength: 0.0,
            ab_buckets: 1,
            geo_strength: 0.0,
        }
    }

    /// Carry-over magnitude `minutes` after the previous query:
    /// exponential decay from `carryover_strength`.
    pub fn carryover_at(&self, minutes_since_previous: f64) -> f64 {
        assert!(minutes_since_previous >= 0.0);
        self.carryover_strength * 0.5f64.powf(minutes_since_previous / self.carryover_halflife_min)
    }
}

/// The context of one search request — everything the protocol can
/// control.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestContext {
    /// Wall-clock minute of the request (drives A/B bucket churn and
    /// carry-over decay).
    pub time_min: f64,
    /// The previous query this user ran, if any, and when.
    pub previous: Option<(String, f64)>,
    /// Whether the request goes through the study's fixed proxy. When
    /// `false`, the request's effective origin jitters (geolocation
    /// noise).
    pub proxied: bool,
}

impl RequestContext {
    /// A fresh, proxied request at time 0 — the protocol's ideal.
    pub fn clean() -> Self {
        Self { time_min: 0.0, previous: None, proxied: true }
    }

    /// Minutes since the previous query, if any.
    pub fn minutes_since_previous(&self) -> Option<f64> {
        self.previous.as_ref().map(|&(_, t)| {
            assert!(self.time_min >= t, "previous query cannot be in the future");
            self.time_min - t
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carryover_decays() {
        let n = NoiseModel::default();
        let now = n.carryover_at(0.0);
        assert!((now - n.carryover_strength).abs() < 1e-12);
        let half = n.carryover_at(n.carryover_halflife_min);
        assert!((half - n.carryover_strength / 2.0).abs() < 1e-12);
        // After the protocol's 12-minute wait the effect is negligible.
        assert!(n.carryover_at(12.0) < 0.02 * n.carryover_strength + 1e-9);
    }

    #[test]
    fn none_model_is_silent() {
        let n = NoiseModel::none();
        assert_eq!(n.carryover_at(0.0), 0.0);
        assert_eq!(n.ab_strength, 0.0);
        assert_eq!(n.geo_strength, 0.0);
    }

    #[test]
    fn context_time_arithmetic() {
        let ctx = RequestContext {
            time_min: 30.0,
            previous: Some(("yard work".into(), 18.0)),
            proxied: true,
        };
        assert_eq!(ctx.minutes_since_previous(), Some(12.0));
        assert_eq!(RequestContext::clean().minutes_since_previous(), None);
    }

    #[test]
    #[should_panic(expected = "future")]
    fn future_previous_rejected() {
        let ctx =
            RequestContext { time_min: 5.0, previous: Some(("q".into(), 10.0)), proxied: true };
        ctx.minutes_since_previous();
    }
}
