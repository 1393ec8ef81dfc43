//! Protected attributes and the schema that declares them.
//!
//! The paper (§3.1) models each group label as a conjunction of predicates
//! `a = val` over *protected attributes* such as gender, ethnicity,
//! nationality, neighborhood, or income. A [`Schema`] declares the set of
//! attributes a study uses and the finite value domain of each; everything
//! downstream (group labels, variants, comparable groups) is expressed in
//! terms of compact ids into the schema.

use std::fmt;

/// Identifier of a protected attribute within a [`Schema`].
///
/// Attribute ids are dense indices in declaration order, so they can be used
/// directly to index per-attribute arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u16);

/// Identifier of a value within an attribute's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u16);

/// A protected attribute: a name plus its finite value domain.
///
/// Example: `gender = {Male, Female}` or `ethnicity = {Asian, Black, White}`
/// (the two attributes used in the paper's case study, §5.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    name: String,
    values: Vec<String>,
}

impl Attribute {
    /// Creates an attribute with the given name and value domain.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains duplicates — an attribute
    /// with no values (or ambiguous values) cannot label any group.
    pub fn new(
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        let name = name.into();
        let values: Vec<String> = values.into_iter().map(Into::into).collect();
        assert!(!values.is_empty(), "attribute {name:?} must have at least one value");
        for (i, v) in values.iter().enumerate() {
            assert!(!values[..i].contains(v), "attribute {name:?} has duplicate value {v:?}");
        }
        Self { name, values }
    }

    /// The attribute's name, e.g. `"gender"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The value domain in declaration order.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Number of values in the domain.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// Looks up a value by name.
    pub fn value_id(&self, value: &str) -> Option<ValueId> {
        self.values.iter().position(|v| v == value).map(|i| ValueId(i as u16))
    }

    /// The name of a value id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this attribute's domain.
    pub fn value_name(&self, id: ValueId) -> &str {
        &self.values[id.0 as usize]
    }
}

/// The set of protected attributes a fairness study is defined over.
///
/// A schema is immutable once built; group labels borrow ids from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema from a list of attributes.
    ///
    /// # Panics
    ///
    /// Panics if two attributes share a name.
    pub fn new(attributes: Vec<Attribute>) -> Self {
        for (i, a) in attributes.iter().enumerate() {
            assert!(
                !attributes[..i].iter().any(|b| b.name() == a.name()),
                "duplicate attribute name {:?}",
                a.name()
            );
        }
        Self { attributes }
    }

    /// The schema used throughout the paper's case study (§5.1.2):
    /// `gender = {Male, Female}`, `ethnicity = {Asian, Black, White}`.
    pub fn gender_ethnicity() -> Self {
        Self::new(vec![
            Attribute::new("gender", ["Male", "Female"]),
            Attribute::new("ethnicity", ["Asian", "Black", "White"]),
        ])
    }

    /// All attributes, in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema declares no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Looks up an attribute by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attributes.iter().position(|a| a.name() == name).map(|i| AttrId(i as u16))
    }

    /// The attribute for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn attribute(&self, id: AttrId) -> &Attribute {
        &self.attributes[id.0 as usize]
    }

    /// Resolves `(attribute name, value name)` to ids.
    pub fn resolve(&self, attr: &str, value: &str) -> Option<(AttrId, ValueId)> {
        let aid = self.attr_id(attr)?;
        let vid = self.attribute(aid).value_id(value)?;
        Some((aid, vid))
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {{{}}}", self.name, self.values.join(", "))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_lookup_roundtrip() {
        let a = Attribute::new("ethnicity", ["Asian", "Black", "White"]);
        assert_eq!(a.cardinality(), 3);
        let id = a.value_id("Black").unwrap();
        assert_eq!(id, ValueId(1));
        assert_eq!(a.value_name(id), "Black");
        assert_eq!(a.value_id("Martian"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate value")]
    fn attribute_rejects_duplicate_values() {
        Attribute::new("gender", ["Male", "Male"]);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn attribute_rejects_empty_domain() {
        Attribute::new("gender", Vec::<String>::new());
    }

    #[test]
    fn schema_resolution() {
        let s = Schema::gender_ethnicity();
        assert_eq!(s.len(), 2);
        let (aid, vid) = s.resolve("ethnicity", "White").unwrap();
        assert_eq!(aid, AttrId(1));
        assert_eq!(s.attribute(aid).value_name(vid), "White");
        assert_eq!(s.resolve("income", "high"), None);
        assert_eq!(s.resolve("gender", "Other"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute name")]
    fn schema_rejects_duplicate_attribute() {
        Schema::new(vec![
            Attribute::new("gender", ["Male", "Female"]),
            Attribute::new("gender", ["M", "F"]),
        ]);
    }

    #[test]
    fn display_formats() {
        let s = Schema::gender_ethnicity();
        let text = s.to_string();
        assert!(text.contains("gender = {Male, Female}"));
        assert!(text.contains("ethnicity = {Asian, Black, White}"));
    }
}
