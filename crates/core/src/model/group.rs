//! Group labels, variants, and comparable groups (paper §3.1).
//!
//! A group `g` is described by a label `label(g)`: a conjunction of
//! predicates `a = val`. `A(g)` is the set of attributes mentioned in the
//! label. For an attribute `a ∈ A(g)`, `variants(g, a)` is the set of groups
//! whose label differs from `g` *only* on the value of `a`. The *comparable
//! groups* of `g` are `∪_{a ∈ A(g)} variants(g, a)` — the groups one
//! attribute-flip away. Unfairness of `g` is always measured against its
//! comparable groups.

use super::attribute::{AttrId, Schema, ValueId};

/// A conjunction of `attribute = value` predicates identifying a group.
///
/// Predicates are stored sorted by attribute id and each attribute appears
/// at most once, so labels have a canonical form and can be compared and
/// hashed directly.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupLabel {
    predicates: Vec<(AttrId, ValueId)>,
}

impl GroupLabel {
    /// Builds a label from predicates.
    ///
    /// # Panics
    ///
    /// Panics if the same attribute appears twice: `gender = Male ∧
    /// gender = Female` is unsatisfiable and `gender = Male ∧ gender = Male`
    /// is redundant.
    pub fn new(mut predicates: Vec<(AttrId, ValueId)>) -> Self {
        predicates.sort_unstable();
        for w in predicates.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "attribute {:?} appears more than once in group label",
                w[0].0
            );
        }
        Self { predicates }
    }

    /// Parses a label like `"gender=Female & ethnicity=Black"` against a schema.
    ///
    /// Returns `None` if any attribute or value is unknown.
    pub fn parse(schema: &Schema, text: &str) -> Option<Self> {
        let mut predicates = Vec::new();
        for part in text.split('&') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (attr, value) = part.split_once('=')?;
            predicates.push(schema.resolve(attr.trim(), value.trim())?);
        }
        if predicates.is_empty() {
            return None;
        }
        // Reject duplicate attributes without panicking on user input.
        let mut sorted = predicates.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        Some(Self::new(predicates))
    }

    /// The predicates, sorted by attribute id.
    pub fn predicates(&self) -> &[(AttrId, ValueId)] {
        &self.predicates
    }

    /// `A(g)`: the attributes mentioned in the label, in id order.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.predicates.iter().map(|&(a, _)| a)
    }

    /// Number of predicates in the conjunction.
    pub fn arity(&self) -> usize {
        self.predicates.len()
    }

    /// The value this label fixes for `attr`, if any.
    pub fn value_of(&self, attr: AttrId) -> Option<ValueId> {
        self.predicates.iter().find(|&&(a, _)| a == attr).map(|&(_, v)| v)
    }

    /// Whether an individual with the given full attribute assignment
    /// belongs to this group.
    ///
    /// `assignment[a]` must hold the individual's value for attribute id
    /// `a`; the label matches if every predicate agrees.
    pub fn matches(&self, assignment: &[ValueId]) -> bool {
        self.predicates.iter().all(|&(a, v)| assignment.get(a.0 as usize) == Some(&v))
    }

    /// `variants(g, a)` (paper §3.1): groups identical to `g` except for the
    /// value of `a`, which takes every *other* value in `a`'s domain.
    ///
    /// # Panics
    ///
    /// Panics if `attr ∉ A(g)` — variants are only defined for attributes the
    /// label mentions.
    pub fn variants(&self, schema: &Schema, attr: AttrId) -> Vec<GroupLabel> {
        let current = self.value_of(attr).expect("variants(g, a) requires a ∈ A(g)");
        let domain = schema.attribute(attr).cardinality();
        debug_assert!(domain <= u16::MAX as usize, "attribute domain must fit u16 value ids");
        let domain = domain as u16;
        (0..domain)
            .map(ValueId)
            .filter(|&v| v != current)
            .map(|v| {
                let predicates = self
                    .predicates
                    .iter()
                    .map(|&(a, old)| if a == attr { (a, v) } else { (a, old) })
                    .collect();
                GroupLabel::new(predicates)
            })
            .collect()
    }

    /// The comparable groups of `g`: `∪_{a ∈ A(g)} variants(g, a)`.
    ///
    /// The result is deduplicated (it cannot actually contain duplicates,
    /// since variants on different attributes differ on different
    /// coordinates) and excludes `g` itself.
    pub fn comparable_groups(&self, schema: &Schema) -> Vec<GroupLabel> {
        let mut out = Vec::new();
        for attr in self.attrs().collect::<Vec<_>>() {
            out.extend(self.variants(schema, attr));
        }
        out
    }

    /// Renders the label against a schema, e.g. `"gender=Female & ethnicity=Black"`.
    pub fn display(&self, schema: &Schema) -> String {
        self.predicates
            .iter()
            .map(|&(a, v)| {
                let attr = schema.attribute(a);
                format!("{}={}", attr.name(), attr.value_name(v))
            })
            .collect::<Vec<_>>()
            .join(" & ")
    }

    /// Short human name: just the value names, e.g. `"Female Black"`.
    ///
    /// This matches the paper's narrative style ("Black Females"), modulo
    /// word order which follows attribute declaration order.
    pub fn short_name(&self, schema: &Schema) -> String {
        self.predicates
            .iter()
            .map(|&(a, v)| schema.attribute(a).value_name(v).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Enumerates *all* groups expressible over a schema: every conjunction of
/// predicates over every non-empty subset of attributes.
///
/// For the paper's gender × ethnicity schema this yields the 11 groups of
/// Table 8: 6 two-attribute groups (Asian Female, …) plus 5 single-attribute
/// groups (Asian, Black, White, Male, Female).
///
/// Order: by subset of attributes (in bitmask order), then lexicographically
/// by value ids — deterministic, so callers can rely on stable group ids.
pub fn all_groups(schema: &Schema) -> Vec<GroupLabel> {
    let n = schema.len();
    assert!(n <= 16, "group lattice enumeration supports at most 16 attributes");
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) {
        let attrs: Vec<AttrId> =
            (0..n).filter(|&i| mask & (1 << i) != 0).map(|i| AttrId(i as u16)).collect();
        let n_attrs = attrs.len();
        if n_attrs == 0 {
            continue; // unreachable: every mask in 1..(1<<n) selects a bit
        }
        // Odometer over the value domains of the chosen attributes
        // (last attribute varies fastest).
        let mut counters = vec![0u16; n_attrs];
        'odometer: loop {
            out.push(GroupLabel::new(
                attrs.iter().zip(&counters).map(|(&a, &c)| (a, ValueId(c))).collect(),
            ));
            let mut i = n_attrs - 1;
            loop {
                counters[i] += 1;
                if (counters[i] as usize) < schema.attribute(attrs[i]).cardinality() {
                    break;
                }
                counters[i] = 0;
                if i == 0 {
                    break 'odometer;
                }
                i -= 1;
            }
        }
    }
    out
}

/// Enumerates only the "full" groups: conjunctions fixing *every* attribute
/// of the schema (e.g. the 6 gender × ethnicity pairs).
pub fn full_groups(schema: &Schema) -> Vec<GroupLabel> {
    all_groups(schema).into_iter().filter(|g| g.arity() == schema.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::gender_ethnicity()
    }

    fn label(s: &Schema, text: &str) -> GroupLabel {
        GroupLabel::parse(s, text).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let s = schema();
        let g = label(&s, "ethnicity=Black & gender=Female");
        // Canonical order is attribute-id order (gender first).
        assert_eq!(g.display(&s), "gender=Female & ethnicity=Black");
        assert_eq!(g.short_name(&s), "Female Black");
        assert_eq!(g.arity(), 2);
    }

    #[test]
    fn parse_rejects_bad_input() {
        let s = schema();
        assert!(GroupLabel::parse(&s, "gender=Robot").is_none());
        assert!(GroupLabel::parse(&s, "age=5").is_none());
        assert!(GroupLabel::parse(&s, "").is_none());
        assert!(GroupLabel::parse(&s, "gender=Male & gender=Female").is_none());
    }

    #[test]
    fn variants_match_paper_example() {
        // Paper §3.1: for label (gender=male) ∧ (ethnicity=black),
        // variants(g, gender) = {(female, black)},
        // variants(g, ethnicity) = {(male, asian), (male, white)}.
        let s = schema();
        let g = label(&s, "gender=Male & ethnicity=Black");
        let gender = s.attr_id("gender").unwrap();
        let ethnicity = s.attr_id("ethnicity").unwrap();

        let v_gender = g.variants(&s, gender);
        assert_eq!(v_gender, vec![label(&s, "gender=Female & ethnicity=Black")]);

        let v_eth = g.variants(&s, ethnicity);
        assert_eq!(
            v_eth,
            vec![
                label(&s, "gender=Male & ethnicity=Asian"),
                label(&s, "gender=Male & ethnicity=White"),
            ]
        );
    }

    #[test]
    fn comparable_groups_of_black_females() {
        // Paper §1: comparable groups of "Black Females" are "Black Males",
        // "White Females" and "Asian Females".
        let s = schema();
        let g = label(&s, "gender=Female & ethnicity=Black");
        let cmp = g.comparable_groups(&s);
        let names: Vec<String> = cmp.iter().map(|c| c.short_name(&s)).collect();
        assert_eq!(cmp.len(), 3);
        assert!(names.contains(&"Male Black".to_string()));
        assert!(names.contains(&"Female Asian".to_string()));
        assert!(names.contains(&"Female White".to_string()));
    }

    #[test]
    fn comparable_groups_of_single_attribute_group() {
        let s = schema();
        let g = label(&s, "gender=Male");
        let cmp = g.comparable_groups(&s);
        assert_eq!(cmp, vec![label(&s, "gender=Female")]);
    }

    #[test]
    fn matches_full_assignment() {
        let s = schema();
        let g = label(&s, "gender=Female & ethnicity=Black");
        // assignment: [gender value, ethnicity value]
        let female = s.attribute(AttrId(0)).value_id("Female").unwrap();
        let male = s.attribute(AttrId(0)).value_id("Male").unwrap();
        let black = s.attribute(AttrId(1)).value_id("Black").unwrap();
        assert!(g.matches(&[female, black]));
        assert!(!g.matches(&[male, black]));
        // Single-attribute group matches any ethnicity.
        let m = label(&s, "gender=Male");
        assert!(m.matches(&[male, black]));
    }

    #[test]
    fn all_groups_counts_match_table8() {
        // gender (2 values) × ethnicity (3 values):
        // subsets {gender}: 2 groups, {ethnicity}: 3, {both}: 6 → 11 total,
        // exactly the 11 rows of the paper's Table 8.
        let s = schema();
        let groups = all_groups(&s);
        assert_eq!(groups.len(), 11);
        // All labels distinct.
        let mut sorted = groups.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 11);
    }

    #[test]
    fn full_groups_are_the_six_pairs() {
        let s = schema();
        let groups = full_groups(&s);
        assert_eq!(groups.len(), 6);
        assert!(groups.iter().all(|g| g.arity() == 2));
    }

    #[test]
    fn all_groups_deterministic_order() {
        let s = schema();
        assert_eq!(all_groups(&s), all_groups(&s));
    }
}
