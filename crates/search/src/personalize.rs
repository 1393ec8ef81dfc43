//! The personalization model — where unfairness enters the search engine.
//!
//! Google personalizes results from "user data, activity, and saved
//! preferences" (paper §5.1.2), which can correlate with demographics.
//! The simulator models this as a *group-level* score shift: members of a
//! demographic group share an affinity direction over postings, and the
//! shift's magnitude is `distinctiveness(g) · location_amp · query_amp`
//! (times scoped overrides). Groups with zero strength see the unbiased
//! base ranking; the larger the strength gap between comparable groups,
//! the further their result lists drift apart — which is exactly what
//! Eq. 1's Kendall/Jaccard unfairness measures.

use fbox_marketplace::demographics::{Demographic, Ethnicity, Gender};
use std::collections::HashMap;

/// Scoped adjustment, mirroring the marketplace's
/// [`BiasOverride`](fbox_marketplace::BiasOverride) semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizationOverride {
    /// Match a location by name.
    pub location: Option<String>,
    /// Match a query by name.
    pub query: Option<String>,
    /// Match a query category by name.
    pub category: Option<String>,
    /// Match one gender.
    pub gender: Option<Gender>,
    /// Match one ethnicity.
    pub ethnicity: Option<Ethnicity>,
    /// Multiplier on the personalization strength in the matched scope.
    pub scale: f64,
}

impl PersonalizationOverride {
    fn matches(&self, demo: Demographic, query: &str, category: &str, location: &str) -> bool {
        self.location.as_deref().is_none_or(|l| l == location)
            && self.query.as_deref().is_none_or(|q| q == query)
            && self.category.as_deref().is_none_or(|c| c == category)
            && self.gender.is_none_or(|g| g == demo.gender)
            && self.ethnicity.is_none_or(|e| e == demo.ethnicity)
    }
}

/// The personalization configuration of a simulated search engine.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizationProfile {
    /// Global strength multiplier.
    pub gamma: f64,
    /// Profile distinctiveness per `[gender][ethnicity]` (how much a
    /// group's browsing history separates it from the base ranking).
    pub distinctiveness: [[f64; 3]; 2],
    /// Default location amplifier.
    pub default_location_amp: f64,
    /// Per-location amplifiers.
    pub location_amp: HashMap<String, f64>,
    /// Default query amplifier.
    pub default_query_amp: f64,
    /// Per-query amplifiers (keyed by query name; category amplifiers go
    /// through overrides or per-query entries).
    pub query_amp: HashMap<String, f64>,
    /// Scoped adjustments.
    pub overrides: Vec<PersonalizationOverride>,
}

impl PersonalizationProfile {
    /// No personalization at all: every user sees the base ranking, so
    /// unfairness is zero up to residual noise.
    pub fn none() -> Self {
        Self {
            gamma: 0.0,
            distinctiveness: [[0.0; 3]; 2],
            default_location_amp: 1.0,
            location_amp: HashMap::new(),
            default_query_amp: 1.0,
            query_amp: HashMap::new(),
            overrides: Vec::new(),
        }
    }

    /// Uniform personalization with the given global strength and equal
    /// distinctiveness for all groups.
    pub fn uniform(gamma: f64) -> Self {
        Self { gamma, distinctiveness: [[1.0; 3]; 2], ..Self::none() }
    }

    /// Sets a group's distinctiveness (builder style).
    pub fn with_distinctiveness(mut self, gender: Gender, ethnicity: Ethnicity, d: f64) -> Self {
        assert!(d >= 0.0, "distinctiveness must be non-negative");
        self.distinctiveness[gender.value_id().0 as usize][ethnicity.value_id().0 as usize] = d;
        self
    }

    /// Sets a location amplifier (builder style).
    pub fn with_location_amp(mut self, location: &str, amp: f64) -> Self {
        assert!(amp >= 0.0);
        self.location_amp.insert(location.to_string(), amp);
        self
    }

    /// Sets a query amplifier (builder style).
    pub fn with_query_amp(mut self, query: &str, amp: f64) -> Self {
        assert!(amp >= 0.0);
        self.query_amp.insert(query.to_string(), amp);
        self
    }

    /// Adds an override (builder style).
    pub fn with_override(mut self, o: PersonalizationOverride) -> Self {
        self.overrides.push(o);
        self
    }

    /// The personalization strength for a user of demographic `demo` on
    /// `query` (in `category`) at `location`.
    pub fn strength(&self, demo: Demographic, query: &str, category: &str, location: &str) -> f64 {
        let d = self.distinctiveness[demo.gender.value_id().0 as usize]
            [demo.ethnicity.value_id().0 as usize];
        let loc = self.location_amp.get(location).copied().unwrap_or(self.default_location_amp);
        let q = self.query_amp.get(query).copied().unwrap_or(self.default_query_amp);
        let mut s = self.gamma * d * loc * q;
        for o in &self.overrides {
            if o.matches(demo, query, category, location) {
                s *= o.scale;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(g: Gender, e: Ethnicity) -> Demographic {
        Demographic { gender: g, ethnicity: e }
    }

    #[test]
    fn none_profile_is_strength_free() {
        let p = PersonalizationProfile::none();
        assert_eq!(p.strength(demo(Gender::Female, Ethnicity::White), "q", "c", "l"), 0.0);
    }

    #[test]
    fn factors_multiply() {
        let p = PersonalizationProfile::uniform(0.2)
            .with_distinctiveness(Gender::Female, Ethnicity::White, 2.0)
            .with_location_amp("London, UK", 1.5)
            .with_query_amp("yard work", 2.0);
        let s = p.strength(
            demo(Gender::Female, Ethnicity::White),
            "yard work",
            "Yard Work",
            "London, UK",
        );
        assert!((s - 0.2 * 2.0 * 1.5 * 2.0).abs() < 1e-12);
        // Elsewhere: defaults.
        let s2 = p.strength(
            demo(Gender::Female, Ethnicity::White),
            "run errand",
            "Run Errands",
            "Boston, MA",
        );
        assert!((s2 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn overrides_scope() {
        let p = PersonalizationProfile::uniform(1.0).with_override(PersonalizationOverride {
            location: Some("Washington, DC".into()),
            query: None,
            category: None,
            gender: None,
            ethnicity: None,
            scale: 0.0,
        });
        assert_eq!(
            p.strength(demo(Gender::Male, Ethnicity::Black), "q", "c", "Washington, DC"),
            0.0
        );
        assert!(p.strength(demo(Gender::Male, Ethnicity::Black), "q", "c", "London, UK") > 0.0);
    }
}
