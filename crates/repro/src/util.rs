//! Shared helpers for the experiment runners.

use fbox_core::algo::{RankOrder, Restriction};
use fbox_core::index::Dimension;
use fbox_core::model::{GroupId, Universe};
use fbox_core::FBox;

/// Renders a group id in the paper's narrative form: "Black Female"
/// (ethnicity first) for full groups, the bare value name for
/// single-attribute groups.
pub fn paper_group_name(universe: &Universe, g: GroupId) -> String {
    let schema = universe.schema();
    let label = universe.group(g);
    let mut gender = None;
    let mut ethnicity = None;
    for &(a, v) in label.predicates() {
        let attr = schema.attribute(a);
        match attr.name() {
            "gender" => gender = Some(attr.value_name(v).to_string()),
            "ethnicity" => ethnicity = Some(attr.value_name(v).to_string()),
            other => return format!("{other}={}", attr.value_name(v)),
        }
    }
    match (ethnicity, gender) {
        (Some(e), Some(g)) => format!("{e} {g}"),
        (Some(e), None) => e,
        (None, Some(g)) => g,
        (None, None) => unreachable!("labels are non-empty"),
    }
}

/// All groups ranked by descending unfairness, in paper naming.
pub fn group_ranking(fb: &FBox) -> Vec<(String, f64)> {
    fb.top_k(
        Dimension::Group,
        fb.universe().n_groups(),
        RankOrder::MostUnfair,
        &Restriction::none(),
    )
    .entries
    .into_iter()
    .map(|(id, v)| (paper_group_name(fb.universe(), GroupId(id)), v))
    .collect()
}

/// Job categories ranked by descending average unfairness (mean over each
/// category's queries, all groups, all locations).
pub fn category_ranking(fb: &FBox, categories: &[&str]) -> Vec<(String, f64)> {
    let u = fb.universe();
    let mut out: Vec<(String, f64)> = categories
        .iter()
        .map(|&c| {
            let qs: Vec<u32> = u.queries_in_category(c).iter().map(|q| q.0).collect();
            assert!(!qs.is_empty(), "unknown category {c:?}");
            let entries = fb
                .top_k(
                    Dimension::Query,
                    qs.len(),
                    RankOrder::MostUnfair,
                    &Restriction { queries: Some(qs), ..Default::default() },
                )
                .entries;
            // `top_k` returns fewer than `k` entries for queries with no
            // cells, none at all when the whole category is missing; the
            // mean of nothing is undefined.
            if entries.is_empty() {
                return (c.to_string(), f64::NAN);
            }
            let avg = entries.iter().map(|e| e.1).sum::<f64>() / entries.len() as f64;
            (c.to_string(), avg)
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Raw ids of the full (gender × ethnicity) groups of one gender — the
/// comparison sets behind "Males vs Females" on search measures.
pub fn gender_full_ids(universe: &Universe, gender: &str) -> Vec<u32> {
    ["Asian", "Black", "White"]
        .iter()
        .map(|e| {
            universe
                .group_id_by_text(&format!("gender={gender} & ethnicity={e}"))
                .expect("full group registered")
                .0
        })
        .collect()
}

/// Raw ids of the single-attribute ethnicity groups, in Asian/Black/White
/// order (the breakdown sets of Tables 13–14 and 18–19).
pub fn ethnicity_ids(universe: &Universe) -> Vec<u32> {
    ["Asian", "Black", "White"]
        .iter()
        .map(|e| {
            universe
                .group_id_by_text(&format!("ethnicity={e}"))
                .expect("ethnicity group registered")
                .0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbox_core::model::Schema;

    #[test]
    fn paper_group_names() {
        let u = Universe::with_all_groups(Schema::gender_ethnicity());
        let bf = u.group_id_by_text("gender=Female & ethnicity=Black").unwrap();
        assert_eq!(paper_group_name(&u, bf), "Black Female");
        let male = u.group_id_by_text("gender=Male").unwrap();
        assert_eq!(paper_group_name(&u, male), "Male");
        let asian = u.group_id_by_text("ethnicity=Asian").unwrap();
        assert_eq!(paper_group_name(&u, asian), "Asian");
    }

    #[test]
    fn id_helpers_resolve() {
        let u = Universe::with_all_groups(Schema::gender_ethnicity());
        assert_eq!(gender_full_ids(&u, "Male").len(), 3);
        assert_eq!(gender_full_ids(&u, "Female").len(), 3);
        assert_eq!(ethnicity_ids(&u).len(), 3);
        // Disjoint male/female sets.
        let m = gender_full_ids(&u, "Male");
        let f = gender_full_ids(&u, "Female");
        assert!(m.iter().all(|x| !f.contains(x)));
    }
}
