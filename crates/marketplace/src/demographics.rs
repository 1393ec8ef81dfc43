//! Worker demographics and the population marginals of the paper's crawl
//! (Figures 7–8: 3,311 taskers, ≈ 72 % male, ≈ 66 % white).

use fbox_core::model::{Schema, ValueId};
use rand::Rng;

/// Gender of a worker (the paper's AMT labeling used these two
/// categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gender {
    /// Male.
    Male,
    /// Female.
    Female,
}

/// Ethnicity of a worker (the paper's three AMT labeling categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ethnicity {
    /// Asian.
    Asian,
    /// Black.
    Black,
    /// White.
    White,
}

impl Gender {
    /// All genders, in the [`Schema::gender_ethnicity`] value order.
    pub const ALL: [Gender; 2] = [Gender::Male, Gender::Female];

    /// The value id in the canonical schema.
    pub fn value_id(self) -> ValueId {
        match self {
            Gender::Male => ValueId(0),
            Gender::Female => ValueId(1),
        }
    }

    /// Display name matching the schema's value names.
    pub fn name(self) -> &'static str {
        match self {
            Gender::Male => "Male",
            Gender::Female => "Female",
        }
    }
}

impl Ethnicity {
    /// All ethnicities, in the [`Schema::gender_ethnicity`] value order.
    pub const ALL: [Ethnicity; 3] = [Ethnicity::Asian, Ethnicity::Black, Ethnicity::White];

    /// The value id in the canonical schema.
    pub fn value_id(self) -> ValueId {
        match self {
            Ethnicity::Asian => ValueId(0),
            Ethnicity::Black => ValueId(1),
            Ethnicity::White => ValueId(2),
        }
    }

    /// Display name matching the schema's value names.
    pub fn name(self) -> &'static str {
        match self {
            Ethnicity::Asian => "Asian",
            Ethnicity::Black => "Black",
            Ethnicity::White => "White",
        }
    }
}

/// A full demographic profile: the `[gender, ethnicity]` assignment the
/// F-Box consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Demographic {
    /// Gender.
    pub gender: Gender,
    /// Ethnicity.
    pub ethnicity: Ethnicity,
}

impl Demographic {
    /// The assignment vector in [`Schema::gender_ethnicity`] attribute
    /// order.
    pub fn assignment(self) -> Vec<ValueId> {
        vec![self.gender.value_id(), self.ethnicity.value_id()]
    }

    /// Human-readable name, e.g. `"Asian Female"` (paper narrative order:
    /// ethnicity first).
    pub fn name(self) -> String {
        format!("{} {}", self.ethnicity.name(), self.gender.name())
    }
}

/// Population marginals used when sampling workers.
///
/// Defaults reproduce the paper's Figures 7–8: 72 % male; 66 % white,
/// with the remainder split between Black (20 %) and Asian (14 %) — the
/// paper reports only the white share, so the split is our estimate from
/// its bar chart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationMarginals {
    /// P(male).
    pub male: f64,
    /// P(asian).
    pub asian: f64,
    /// P(black).
    pub black: f64,
    /// P(white) — the remainder; stored for clarity and validated.
    pub white: f64,
}

impl Default for PopulationMarginals {
    fn default() -> Self {
        Self { male: 0.72, asian: 0.14, black: 0.20, white: 0.66 }
    }
}

impl PopulationMarginals {
    /// Validates that the probabilities are sane.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or the ethnicity
    /// shares do not sum to 1 (±1e-9).
    pub fn validate(&self) {
        for (name, p) in [
            ("male", self.male),
            ("asian", self.asian),
            ("black", self.black),
            ("white", self.white),
        ] {
            assert!((0.0..=1.0).contains(&p), "marginal {name} = {p} out of [0,1]");
        }
        let sum = self.asian + self.black + self.white;
        assert!((sum - 1.0).abs() < 1e-9, "ethnicity marginals must sum to 1, got {sum}");
    }

    /// Samples one demographic profile.
    pub fn sample(&self, rng: &mut impl Rng) -> Demographic {
        let gender = if rng.random_bool(self.male) { Gender::Male } else { Gender::Female };
        let r: f64 = rng.random_range(0.0..1.0);
        let ethnicity = if r < self.asian {
            Ethnicity::Asian
        } else if r < self.asian + self.black {
            Ethnicity::Black
        } else {
            Ethnicity::White
        };
        Demographic { gender, ethnicity }
    }
}

/// Sanity check: the canonical schema's value names match the enums, so
/// `value_id` stays correct if the schema ever changes.
pub fn assert_schema_alignment(schema: &Schema) {
    for g in Gender::ALL {
        let (aid, vid) = schema
            .resolve("gender", g.name())
            .expect("schema must declare gender values matching the enums");
        assert_eq!(aid.0, 0);
        assert_eq!(vid, g.value_id());
    }
    for e in Ethnicity::ALL {
        let (aid, vid) = schema
            .resolve("ethnicity", e.name())
            .expect("schema must declare ethnicity values matching the enums");
        assert_eq!(aid.0, 1);
        assert_eq!(vid, e.value_id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schema_alignment_holds() {
        assert_schema_alignment(&Schema::gender_ethnicity());
    }

    #[test]
    fn assignment_roundtrips_through_group_labels() {
        let schema = Schema::gender_ethnicity();
        let d = Demographic { gender: Gender::Female, ethnicity: Ethnicity::Black };
        let label = fbox_core::model::GroupLabel::parse(&schema, "gender=Female & ethnicity=Black")
            .unwrap();
        assert!(label.matches(&d.assignment()));
        let other = Demographic { gender: Gender::Male, ethnicity: Ethnicity::Black };
        assert!(!label.matches(&other.assignment()));
    }

    #[test]
    fn default_marginals_validate() {
        PopulationMarginals::default().validate();
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_marginals_rejected() {
        PopulationMarginals { male: 0.5, asian: 0.5, black: 0.5, white: 0.5 }.validate();
    }

    #[test]
    fn sampling_matches_marginals() {
        let m = PopulationMarginals::default();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut males = 0;
        let mut whites = 0;
        for _ in 0..n {
            let d = m.sample(&mut rng);
            if d.gender == Gender::Male {
                males += 1;
            }
            if d.ethnicity == Ethnicity::White {
                whites += 1;
            }
        }
        let male_share = males as f64 / n as f64;
        let white_share = whites as f64 / n as f64;
        assert!((male_share - 0.72).abs() < 0.02, "male share {male_share}");
        assert!((white_share - 0.66).abs() < 0.02, "white share {white_share}");
    }

    #[test]
    fn demographic_names() {
        let d = Demographic { gender: Gender::Female, ethnicity: Ethnicity::Asian };
        assert_eq!(d.name(), "Asian Female");
    }
}
