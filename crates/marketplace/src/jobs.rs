//! The job taxonomy and the 5,361-query crawl grid (paper §5.1.1).
//!
//! TaskRabbit organizes work into categories (the eight of Table 9); a
//! crawl query is one *sub-query* (a concrete task type) at one city. The
//! paper generated "a total of 5,361 job-related queries, where each query
//! is a combination of a job and a location". With 8 categories × 12
//! sub-queries × 56 cities we get 5,376 combinations; fifteen sub-queries
//! are not offered in the smallest market (Baton Rouge), matching the
//! paper's total exactly.

/// A job category with its sub-queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Category {
    /// Category name, e.g. `"General Cleaning"`.
    pub name: &'static str,
    /// Concrete task types within the category. Names that appear in the
    /// paper's tables (e.g. "Lawn Mowing", "Back To Organized") are kept
    /// verbatim.
    pub sub_queries: [&'static str; 12],
}

/// The eight categories of Table 9, each with twelve sub-queries.
pub const CATEGORIES: [Category; 8] = [
    Category {
        name: "Handyman",
        sub_queries: [
            "Furniture Repair",
            "Door Repair",
            "Wall Mounting",
            "Picture Hanging",
            "Shelf Installation",
            "Light Fixture Installation",
            "Faucet Repair",
            "Caulking",
            "Drywall Repair",
            "Blind Installation",
            "Weatherproofing",
            "Childproofing",
        ],
    },
    Category {
        name: "Event Staffing",
        sub_queries: [
            "Event Decorating",
            "Bartending Help",
            "Serving Help",
            "Coat Check",
            "Event Setup",
            "Event Cleanup",
            "Ticket Scanning",
            "Guest Registration",
            "Catering Help",
            "Party Planning Help",
            "Photo Booth Help",
            "Crowd Ushering",
        ],
    },
    Category {
        name: "General Cleaning",
        sub_queries: [
            "Back To Organized",
            "Organize & Declutter",
            "Organize Closet",
            "office cleaning jobs",
            "private cleaning jobs",
            "Home Cleaning",
            "Deep Cleaning",
            "Move Out Cleaning",
            "Garage Cleaning",
            "Window Cleaning",
            "Carpet Cleaning",
            "Fridge Cleaning",
        ],
    },
    Category {
        name: "Yard Work",
        sub_queries: [
            "Lawn Mowing",
            "Leaf Raking",
            "Weed Removal",
            "Hedge Trimming",
            "Garden Planting",
            "Mulching",
            "Gutter Cleaning",
            "Patio Cleaning",
            "Snow Removal",
            "Tree Pruning",
            "Yard Cleanup",
            "Composting Setup",
        ],
    },
    Category {
        name: "Moving",
        sub_queries: [
            "Help Moving",
            "Packing Services",
            "Unpacking Services",
            "Heavy Lifting",
            "Truck Loading",
            "Truck Unloading",
            "Storage Unit Moving",
            "Piano Moving Help",
            "Apartment Moving",
            "Office Moving",
            "In-Home Furniture Moving",
            "Junk Hauling",
        ],
    },
    Category {
        name: "Delivery",
        sub_queries: [
            "Grocery Delivery",
            "Food Delivery",
            "Package Pickup",
            "Pharmacy Pickup",
            "Furniture Delivery",
            "Appliance Delivery",
            "Flower Delivery",
            "Gift Delivery",
            "Laundry Drop-off",
            "Dry Cleaning Pickup",
            "Document Courier",
            "Equipment Return",
        ],
    },
    Category {
        name: "Furniture Assembly",
        sub_queries: [
            "IKEA Assembly",
            "Bed Assembly",
            "Desk Assembly",
            "Bookshelf Assembly",
            "Dresser Assembly",
            "Table Assembly",
            "Chair Assembly",
            "Wardrobe Assembly",
            "Crib Assembly",
            "Sofa Assembly",
            "Outdoor Furniture Assembly",
            "Disassembly",
        ],
    },
    Category {
        name: "Run Errands",
        sub_queries: [
            "run errand",
            "Wait In Line",
            "Post Office Run",
            "Bank Errand",
            "Shopping Errand",
            "Pet Supply Run",
            "Hardware Store Run",
            "Return Items",
            "Car Wash Run",
            "Library Run",
            "Donation Drop-off",
            "Prescription Run",
        ],
    },
];

/// Total number of distinct sub-queries (96).
pub const N_QUERIES: usize = 96;
const _: () = assert!(N_QUERIES == CATEGORIES.len() * 12, "category table changed size");

/// City index that does not offer every task (the smallest market).
const PARTIAL_CITY: usize = 55; // Baton Rouge, LA

/// Number of sub-queries missing in the partial city (5,376 − 5,361).
const MISSING_IN_PARTIAL_CITY: usize = 15;

/// Iterates all `(category index, sub-query index within category)` pairs
/// in stable order, with the flat query index.
pub fn all_queries() -> impl Iterator<Item = (usize, usize, &'static str)> {
    CATEGORIES.iter().enumerate().flat_map(|(ci, cat)| {
        cat.sub_queries.iter().enumerate().map(move |(si, &name)| (ci, si, name))
    })
}

/// Whether the flat query index `q` (0..96) is offered in city index
/// `city` (0..56).
///
/// Everything is offered everywhere except the last fifteen sub-queries in
/// the smallest market, which yields the paper's total of 5,361 crawl
/// queries.
pub fn offered(q: usize, city: usize) -> bool {
    let n_cities = crate::city::CITIES.len();
    assert!(q < N_QUERIES, "query index out of range");
    assert!(city < n_cities, "city index out of range");
    !(city == PARTIAL_CITY && q >= N_QUERIES - MISSING_IN_PARTIAL_CITY)
}

/// The category of a flat query index.
pub fn category_of(q: usize) -> &'static Category {
    &CATEGORIES[q / 12]
}

/// Looks up the flat index of a sub-query by name.
pub fn query_index(name: &str) -> Option<usize> {
    all_queries().position(|(_, _, n)| n == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ninety_six_distinct_queries() {
        let names: Vec<&str> = all_queries().map(|(_, _, n)| n).collect();
        assert_eq!(names.len(), N_QUERIES);
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate sub-query {n:?}");
        }
    }

    #[test]
    fn crawl_grid_has_exactly_5361_queries() {
        let total: usize = (0..N_QUERIES)
            .flat_map(|q| (0..crate::city::CITIES.len()).map(move |c| (q, c)))
            .filter(|&(q, c)| offered(q, c))
            .count();
        assert_eq!(total, 5361, "paper §5.1.1 total");
    }

    #[test]
    fn paper_named_subqueries_exist() {
        for name in [
            "Lawn Mowing",
            "Event Decorating",
            "Back To Organized",
            "Organize & Declutter",
            "Organize Closet",
            "office cleaning jobs",
            "private cleaning jobs",
            "Home Cleaning",
            "run errand",
        ] {
            assert!(query_index(name).is_some(), "missing {name:?}");
        }
    }

    #[test]
    fn category_lookup() {
        let q = query_index("Lawn Mowing").unwrap();
        assert_eq!(category_of(q).name, "Yard Work");
        let q = query_index("Back To Organized").unwrap();
        assert_eq!(category_of(q).name, "General Cleaning");
    }

    #[test]
    fn partial_city_is_only_gap() {
        for q in 0..N_QUERIES {
            for c in 0..crate::city::CITIES.len() {
                if c != PARTIAL_CITY {
                    assert!(offered(q, c));
                }
            }
        }
        assert!(!offered(N_QUERIES - 1, PARTIAL_CITY));
        assert!(offered(0, PARTIAL_CITY));
    }
}
