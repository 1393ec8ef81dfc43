//! The three dimensions of a fairness study: groups `G`, job-related
//! queries `Q`, and locations `L` (paper §3.1).
//!
//! A [`Universe`] registers the concrete groups, queries, and locations a
//! study covers and hands out dense ids used by the unfairness cube, the
//! indices, and the algorithms. Queries may carry a *category* (on
//! TaskRabbit a query often denotes a set of jobs in one category, and the
//! location-comparison experiment of Table 15 breaks a category down into
//! its sub-queries); locations may carry a *region* tag (used for
//! restrictions like "the West Coast" in the paper's §4.1 examples).

use super::attribute::Schema;
use super::group::{self, GroupLabel};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Dense id of a group within a [`Universe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub u32);

/// Dense id of a query within a [`Universe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QueryId(pub u32);

/// Dense id of a location within a [`Universe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LocationId(pub u32);

/// A job-related query, optionally tagged with the job category it belongs
/// to (e.g. query "Organize Closet" in category "General Cleaning").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryDef {
    pub name: String,
    pub category: Option<String>,
}

/// A geographic location, optionally tagged with a region (e.g. "West
/// Coast", "UK").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocationDef {
    pub name: String,
    pub region: Option<String>,
}

/// Registry of the groups, queries, and locations of one study.
///
/// Ids are assigned densely in insertion order and never change, so they
/// can index arrays. Lookups by name are O(1) via side maps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Universe {
    schema: Schema,
    groups: Vec<GroupLabel>,
    group_ids: HashMap<GroupLabel, GroupId>,
    queries: Vec<QueryDef>,
    query_ids: HashMap<String, QueryId>,
    locations: Vec<LocationDef>,
    location_ids: HashMap<String, LocationId>,
}

impl Universe {
    /// Creates an empty universe over a schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            groups: Vec::new(),
            group_ids: HashMap::new(),
            queries: Vec::new(),
            query_ids: HashMap::new(),
            locations: Vec::new(),
            location_ids: HashMap::new(),
        }
    }

    /// Creates a universe pre-populated with *every* group expressible over
    /// the schema (the full group lattice — 11 groups for gender ×
    /// ethnicity, matching the rows of the paper's Table 8).
    pub fn with_all_groups(schema: Schema) -> Self {
        let mut u = Self::new(schema.clone());
        for g in group::all_groups(&schema) {
            u.add_group(g);
        }
        u
    }

    /// The protected-attribute schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Registers a group, returning its id. Idempotent: re-adding an
    /// existing label returns the original id.
    ///
    /// # Panics
    ///
    /// Panics if the label names an attribute outside the schema: every
    /// later cube build would index past it. (A value outside an
    /// attribute's domain is fine: the group then matches nobody.)
    pub fn add_group(&mut self, label: GroupLabel) -> GroupId {
        if let Some(&id) = self.group_ids.get(&label) {
            return id;
        }
        let n_attrs = self.schema.len();
        for &(attr, _) in label.predicates() {
            assert!(
                (attr.0 as usize) < n_attrs,
                "group predicate names {attr:?} outside the {n_attrs}-attribute schema"
            );
        }
        let n = self.groups.len();
        assert!(n <= u32::MAX as usize, "group id space exhausted");
        let id = GroupId(n as u32);
        self.group_ids.insert(label.clone(), id);
        self.groups.push(label);
        id
    }

    /// Registers a query (idempotent by name; the category of the first
    /// registration wins).
    pub fn add_query(&mut self, name: impl Into<String>, category: Option<&str>) -> QueryId {
        let name = name.into();
        if let Some(&id) = self.query_ids.get(&name) {
            return id;
        }
        let n = self.queries.len();
        assert!(n <= u32::MAX as usize, "query id space exhausted");
        let id = QueryId(n as u32);
        self.query_ids.insert(name.clone(), id);
        self.queries.push(QueryDef { name, category: category.map(str::to_string) });
        id
    }

    /// Registers a location (idempotent by name).
    pub fn add_location(&mut self, name: impl Into<String>, region: Option<&str>) -> LocationId {
        let name = name.into();
        if let Some(&id) = self.location_ids.get(&name) {
            return id;
        }
        let n = self.locations.len();
        assert!(n <= u32::MAX as usize, "location id space exhausted");
        let id = LocationId(n as u32);
        self.location_ids.insert(name.clone(), id);
        self.locations.push(LocationDef { name, region: region.map(str::to_string) });
        id
    }

    /// Number of registered groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of registered queries.
    pub fn n_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of registered locations.
    pub fn n_locations(&self) -> usize {
        self.locations.len()
    }

    /// The label of a group id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids are only minted by this
    /// universe, so an out-of-range id is a logic error).
    pub fn group(&self, id: GroupId) -> &GroupLabel {
        &self.groups[id.0 as usize]
    }

    /// The definition of a query id.
    pub fn query(&self, id: QueryId) -> &QueryDef {
        &self.queries[id.0 as usize]
    }

    /// The definition of a location id.
    pub fn location(&self, id: LocationId) -> &LocationDef {
        &self.locations[id.0 as usize]
    }

    /// Looks up a group id by label.
    pub fn group_id(&self, label: &GroupLabel) -> Option<GroupId> {
        self.group_ids.get(label).copied()
    }

    /// Looks up a group id by label text, e.g.
    /// `"gender=Female & ethnicity=Black"`.
    pub fn group_id_by_text(&self, text: &str) -> Option<GroupId> {
        let label = GroupLabel::parse(&self.schema, text)?;
        self.group_id(&label)
    }

    /// Looks up a query id by name.
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.query_ids.get(name).copied()
    }

    /// Looks up a location id by name.
    pub fn location_id(&self, name: &str) -> Option<LocationId> {
        self.location_ids.get(name).copied()
    }

    /// All group ids in registration order.
    pub fn group_ids(&self) -> impl Iterator<Item = GroupId> {
        let n = self.groups.len();
        debug_assert!(n <= u32::MAX as usize, "group id space exhausted");
        (0..n as u32).map(GroupId)
    }

    /// All query ids in registration order.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> {
        let n = self.queries.len();
        debug_assert!(n <= u32::MAX as usize, "query id space exhausted");
        (0..n as u32).map(QueryId)
    }

    /// All location ids in registration order.
    pub fn location_ids(&self) -> impl Iterator<Item = LocationId> {
        let n = self.locations.len();
        debug_assert!(n <= u32::MAX as usize, "location id space exhausted");
        (0..n as u32).map(LocationId)
    }

    /// Queries belonging to a category (for breakdowns like Table 15, which
    /// breaks "General Cleaning" down into its sub-queries).
    pub fn queries_in_category(&self, category: &str) -> Vec<QueryId> {
        self.query_ids().filter(|&q| self.query(q).category.as_deref() == Some(category)).collect()
    }

    /// Locations within a region tag (e.g. `"West Coast"`).
    pub fn locations_in_region(&self, region: &str) -> Vec<LocationId> {
        self.location_ids()
            .filter(|&l| self.location(l).region.as_deref() == Some(region))
            .collect()
    }

    /// The comparable groups of `g` *that are registered in this universe*.
    ///
    /// Unfairness (Eq. 1 and 2) contrasts `g` against its comparable
    /// groups; any comparable group absent from the universe simply has no
    /// data and is skipped.
    pub fn comparable_group_ids(&self, g: GroupId) -> Vec<GroupId> {
        self.group(g)
            .comparable_groups(&self.schema)
            .iter()
            .filter_map(|label| self.group_id(label))
            .collect()
    }

    /// Short display name of a group (e.g. `"Female Black"`).
    pub fn group_name(&self, g: GroupId) -> String {
        self.group(g).short_name(&self.schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::attribute::{AttrId, ValueId};

    fn universe() -> Universe {
        Universe::with_all_groups(Schema::gender_ethnicity())
    }

    #[test]
    fn with_all_groups_has_table8_rows() {
        let u = universe();
        assert_eq!(u.n_groups(), 11);
    }

    #[test]
    fn add_group_is_idempotent() {
        let mut u = universe();
        let label = GroupLabel::parse(u.schema(), "gender=Male").unwrap();
        let id1 = u.group_id(&label).unwrap();
        let id2 = u.add_group(label);
        assert_eq!(id1, id2);
        assert_eq!(u.n_groups(), 11);
    }

    #[test]
    #[should_panic(expected = "outside the 2-attribute schema")]
    fn add_group_rejects_an_attribute_outside_the_schema() {
        let mut u = Universe::new(Schema::gender_ethnicity());
        u.add_group(GroupLabel::new(vec![(AttrId(5), ValueId(0))]));
    }

    #[test]
    fn query_and_location_registry() {
        let mut u = universe();
        let q1 = u.add_query("Organize Closet", Some("General Cleaning"));
        let q2 = u.add_query("Lawn Mowing", Some("Yard Work"));
        let q1b = u.add_query("Organize Closet", None);
        assert_eq!(q1, q1b);
        assert_ne!(q1, q2);
        // First registration's category wins.
        assert_eq!(u.query(q1).category.as_deref(), Some("General Cleaning"));
        assert_eq!(u.queries_in_category("General Cleaning"), vec![q1]);

        let sf = u.add_location("San Francisco, CA", Some("West Coast"));
        let nyc = u.add_location("New York City, NY", Some("East Coast"));
        assert_eq!(u.locations_in_region("West Coast"), vec![sf]);
        assert_eq!(u.location_id("New York City, NY"), Some(nyc));
        assert_eq!(u.location_id("Atlantis"), None);
    }

    #[test]
    fn comparable_group_ids_resolve() {
        let u = universe();
        let bf = u.group_id_by_text("gender=Female & ethnicity=Black").unwrap();
        let cmp = u.comparable_group_ids(bf);
        // Black Males, Asian Females, White Females — all registered.
        assert_eq!(cmp.len(), 3);
        let names: Vec<String> = cmp.iter().map(|&g| u.group_name(g)).collect();
        assert!(names.contains(&"Male Black".to_string()));
        assert!(names.contains(&"Female Asian".to_string()));
        assert!(names.contains(&"Female White".to_string()));
    }

    #[test]
    fn comparable_groups_skip_unregistered() {
        let mut u = Universe::new(Schema::gender_ethnicity());
        let bf =
            u.add_group(GroupLabel::parse(u.schema(), "gender=Female & ethnicity=Black").unwrap());
        let bm =
            u.add_group(GroupLabel::parse(u.schema(), "gender=Male & ethnicity=Black").unwrap());
        // Asian/White Females are not registered → only Black Males remain.
        assert_eq!(u.comparable_group_ids(bf), vec![bm]);
    }
}
