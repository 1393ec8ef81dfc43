//! Configurable bias injection.
//!
//! The simulator does not hard-code any of the paper's result tables.
//! Instead, a [`BiasProfile`] describes *how the platform's ranking treats
//! demographic groups*: a base score penalty per full demographic group,
//! per-city and per-category amplifiers, and scoped overrides (the
//! mechanism behind the paper's comparison findings, where e.g. Chicago
//! treats females better than males against the overall trend,
//! Table 12). The ranking engine subtracts the effective penalty from each
//! worker's clean score; every reported unfairness number then *emerges*
//! from the ranked results through the F-Box pipeline.

use crate::demographics::{Demographic, Ethnicity, Gender};
use std::collections::HashMap;

/// What a matching [`BiasOverride`] does to the penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverrideAction {
    /// Multiplies the base penalty by a factor (0 disables bias in the
    /// scope, > 1 amplifies it).
    Scale(f64),
    /// Evaluates the base penalty as if the worker had the opposite
    /// gender — the lever for gender-trend reversals like Table 12's.
    SwapGenders,
}

/// A scoped adjustment to the bias profile. All present fields must match
/// for the override to apply; absent fields match anything.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasOverride {
    /// Match a specific city by name.
    pub location: Option<String>,
    /// Match a specific sub-query by name.
    pub query: Option<String>,
    /// Match a whole category by name.
    pub category: Option<String>,
    /// Match workers of one gender.
    pub gender: Option<Gender>,
    /// Match workers of one ethnicity.
    pub ethnicity: Option<Ethnicity>,
    /// The adjustment.
    pub action: OverrideAction,
}

impl BiasOverride {
    fn matches(&self, demo: Demographic, query: &str, category: &str, location: &str) -> bool {
        self.location.as_deref().is_none_or(|l| l == location)
            && self.query.as_deref().is_none_or(|q| q == query)
            && self.category.as_deref().is_none_or(|c| c == category)
            && self.gender.is_none_or(|g| g == demo.gender)
            && self.ethnicity.is_none_or(|e| e == demo.ethnicity)
    }
}

/// The full bias configuration of a simulated marketplace.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasProfile {
    /// Base penalty (score units in `[0, 1]`) per `[gender][ethnicity]`,
    /// indexed by [`Gender::value_id`] / [`Ethnicity::value_id`] order.
    pub group_penalty: [[f64; 3]; 2],
    /// Default city amplifier when a city has no entry.
    pub default_location_amp: f64,
    /// Per-city amplifiers.
    pub location_amp: HashMap<String, f64>,
    /// Default category amplifier when a category has no entry.
    pub default_category_amp: f64,
    /// Per-category amplifiers.
    pub category_amp: HashMap<String, f64>,
    /// Scoped adjustments, applied in order.
    pub overrides: Vec<BiasOverride>,
}

impl BiasProfile {
    /// A profile that injects no bias at all: every penalty is zero, so
    /// rankings are purely merit-driven. The fairness measures should read
    /// near-zero unfairness on such a marketplace (used in tests as the
    /// null model).
    pub fn neutral() -> Self {
        Self {
            group_penalty: [[0.0; 3]; 2],
            default_location_amp: 1.0,
            location_amp: HashMap::new(),
            default_category_amp: 1.0,
            category_amp: HashMap::new(),
            overrides: Vec::new(),
        }
    }

    /// Sets the base penalty for one full demographic group (builder
    /// style). Negative values model *positive discrimination* (the group
    /// is boosted above its merit — §2 of the paper notes rankings may
    /// favor disadvantaged groups); both directions register as
    /// unfairness under distribution- and exposure-based measures.
    pub fn with_penalty(mut self, gender: Gender, ethnicity: Ethnicity, penalty: f64) -> Self {
        assert!((-1.0..=1.0).contains(&penalty), "penalty must be in [-1,1]");
        self.group_penalty[gender.value_id().0 as usize][ethnicity.value_id().0 as usize] = penalty;
        self
    }

    /// Sets a city amplifier (builder style).
    pub fn with_location_amp(mut self, city: &str, amp: f64) -> Self {
        assert!(amp >= 0.0, "amplifier must be non-negative");
        self.location_amp.insert(city.to_string(), amp);
        self
    }

    /// Sets a category amplifier (builder style).
    pub fn with_category_amp(mut self, category: &str, amp: f64) -> Self {
        assert!(amp >= 0.0, "amplifier must be non-negative");
        self.category_amp.insert(category.to_string(), amp);
        self
    }

    /// Adds an override (builder style).
    pub fn with_override(mut self, o: BiasOverride) -> Self {
        self.overrides.push(o);
        self
    }

    /// Base penalty of a demographic group.
    pub fn base_penalty(&self, demo: Demographic) -> f64 {
        self.group_penalty[demo.gender.value_id().0 as usize][demo.ethnicity.value_id().0 as usize]
    }

    /// The effective score penalty for a worker of demographic `demo`
    /// competing on `query` (in `category`) at `location`:
    ///
    /// `base(g') · location_amp · category_amp · Π scale-overrides`
    ///
    /// where `g'` is `demo` unless a matching [`OverrideAction::SwapGenders`]
    /// replaces the gender.
    pub fn penalty(&self, demo: Demographic, query: &str, category: &str, location: &str) -> f64 {
        let mut gender = demo.gender;
        let mut scale = 1.0;
        for o in &self.overrides {
            if o.matches(demo, query, category, location) {
                match o.action {
                    OverrideAction::Scale(f) => scale *= f,
                    OverrideAction::SwapGenders => {
                        gender = match gender {
                            Gender::Male => Gender::Female,
                            Gender::Female => Gender::Male,
                        };
                    }
                }
            }
        }
        let base =
            self.group_penalty[gender.value_id().0 as usize][demo.ethnicity.value_id().0 as usize];
        let loc_amp = self.location_amp.get(location).copied().unwrap_or(self.default_location_amp);
        let cat_amp = self.category_amp.get(category).copied().unwrap_or(self.default_category_amp);
        base * loc_amp * cat_amp * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(g: Gender, e: Ethnicity) -> Demographic {
        Demographic { gender: g, ethnicity: e }
    }

    #[test]
    fn neutral_profile_is_penalty_free() {
        let p = BiasProfile::neutral();
        for g in Gender::ALL {
            for e in Ethnicity::ALL {
                assert_eq!(p.penalty(demo(g, e), "Lawn Mowing", "Yard Work", "Chicago, IL"), 0.0);
            }
        }
    }

    #[test]
    fn amplifiers_multiply() {
        let p = BiasProfile::neutral()
            .with_penalty(Gender::Female, Ethnicity::Asian, 0.2)
            .with_location_amp("Birmingham, UK", 1.5)
            .with_category_amp("Handyman", 2.0);
        let d = demo(Gender::Female, Ethnicity::Asian);
        assert!((p.penalty(d, "Door Repair", "Handyman", "Birmingham, UK") - 0.6).abs() < 1e-12);
        // Defaults elsewhere.
        assert!((p.penalty(d, "Door Repair", "Handyman", "Chicago, IL") - 0.4).abs() < 1e-12);
        assert!((p.penalty(d, "Lawn Mowing", "Yard Work", "Chicago, IL") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn scale_override_scopes() {
        let p = BiasProfile::neutral()
            .with_penalty(Gender::Male, Ethnicity::Black, 0.3)
            .with_override(BiasOverride {
                location: Some("Chicago, IL".into()),
                query: None,
                category: None,
                gender: None,
                ethnicity: Some(Ethnicity::Black),
                action: OverrideAction::Scale(0.0),
            });
        let d = demo(Gender::Male, Ethnicity::Black);
        assert_eq!(p.penalty(d, "run errand", "Run Errands", "Chicago, IL"), 0.0);
        assert!((p.penalty(d, "run errand", "Run Errands", "Boston, MA") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn swap_genders_override() {
        let p = BiasProfile::neutral()
            .with_penalty(Gender::Female, Ethnicity::White, 0.4)
            .with_penalty(Gender::Male, Ethnicity::White, 0.1)
            .with_override(BiasOverride {
                location: Some("Nashville, TN".into()),
                query: None,
                category: None,
                gender: None,
                ethnicity: None,
                action: OverrideAction::SwapGenders,
            });
        let f = demo(Gender::Female, Ethnicity::White);
        let m = demo(Gender::Male, Ethnicity::White);
        // Swapped in Nashville…
        assert!(
            (p.penalty(f, "Home Cleaning", "General Cleaning", "Nashville, TN") - 0.1).abs()
                < 1e-12
        );
        assert!(
            (p.penalty(m, "Home Cleaning", "General Cleaning", "Nashville, TN") - 0.4).abs()
                < 1e-12
        );
        // …normal elsewhere.
        assert!(
            (p.penalty(f, "Home Cleaning", "General Cleaning", "Boston, MA") - 0.4).abs() < 1e-12
        );
    }

    #[test]
    fn query_scoped_override() {
        let p = BiasProfile::neutral()
            .with_penalty(Gender::Female, Ethnicity::Black, 0.2)
            .with_override(BiasOverride {
                location: None,
                query: Some("Lawn Mowing".into()),
                category: None,
                gender: Some(Gender::Female),
                ethnicity: None,
                action: OverrideAction::Scale(2.0),
            });
        let d = demo(Gender::Female, Ethnicity::Black);
        assert!((p.penalty(d, "Lawn Mowing", "Yard Work", "Chicago, IL") - 0.4).abs() < 1e-12);
        assert!((p.penalty(d, "Leaf Raking", "Yard Work", "Chicago, IL") - 0.2).abs() < 1e-12);
    }
}
