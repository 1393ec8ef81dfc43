//! The 56 metro areas TaskRabbit served at crawl time (paper §5.1.1:
//! "TaskRabbit is supported in 56 different cities mostly in the US").
//!
//! The list below contains every city the paper names in its result tables
//! (Tables 10–12, 15 and the §5.2.1 narrative) padded to 56 with other
//! real TaskRabbit metros. Each city carries a region tag used for
//! region-restricted questions ("the West Coast", §4.1).

/// A TaskRabbit metro area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct City {
    /// Display name, e.g. `"San Francisco, CA"`.
    pub name: &'static str,
    /// Region tag: `"West Coast"`, `"East Coast"`, `"Midwest"`,
    /// `"South"`, `"Mountain"`, or `"UK"`.
    pub region: &'static str,
}

/// All 56 cities. Order is stable; repro code relies on it only through
/// name lookups.
pub const CITIES: [City; 56] = [
    // Cities named in the paper's tables and narrative.
    City { name: "Birmingham, UK", region: "UK" },
    City { name: "Oklahoma City, OK", region: "South" },
    City { name: "Bristol, UK", region: "UK" },
    City { name: "Manchester, UK", region: "UK" },
    City { name: "New Haven, CT", region: "East Coast" },
    City { name: "Milwaukee, WI", region: "Midwest" },
    City { name: "Memphis, TN", region: "South" },
    City { name: "Indianapolis, IN", region: "Midwest" },
    City { name: "Nashville, TN", region: "South" },
    City { name: "Detroit, MI", region: "Midwest" },
    City { name: "Chicago, IL", region: "Midwest" },
    City { name: "San Francisco, CA", region: "West Coast" },
    City { name: "San Francisco Bay Area, CA", region: "West Coast" },
    City { name: "Washington, DC", region: "East Coast" },
    City { name: "Los Angeles, CA", region: "West Coast" },
    City { name: "Boston, MA", region: "East Coast" },
    City { name: "Atlanta, GA", region: "South" },
    City { name: "Houston, TX", region: "South" },
    City { name: "Orlando, FL", region: "South" },
    City { name: "Philadelphia, PA", region: "East Coast" },
    City { name: "San Diego, CA", region: "West Coast" },
    City { name: "Charlotte, NC", region: "South" },
    City { name: "Norfolk, VA", region: "East Coast" },
    City { name: "St. Louis, MO", region: "Midwest" },
    City { name: "Salt Lake City, UT", region: "Mountain" },
    City { name: "New York City, NY", region: "East Coast" },
    City { name: "London, UK", region: "UK" },
    // Remaining real TaskRabbit metros to reach 56.
    City { name: "Austin, TX", region: "South" },
    City { name: "Baltimore, MD", region: "East Coast" },
    City { name: "Dallas, TX", region: "South" },
    City { name: "Denver, CO", region: "Mountain" },
    City { name: "Miami, FL", region: "South" },
    City { name: "Minneapolis, MN", region: "Midwest" },
    City { name: "Phoenix, AZ", region: "Mountain" },
    City { name: "Portland, OR", region: "West Coast" },
    City { name: "Seattle, WA", region: "West Coast" },
    City { name: "San Antonio, TX", region: "South" },
    City { name: "San Jose, CA", region: "West Coast" },
    City { name: "Tampa, FL", region: "South" },
    City { name: "Tucson, AZ", region: "Mountain" },
    City { name: "Sacramento, CA", region: "West Coast" },
    City { name: "Raleigh, NC", region: "South" },
    City { name: "Pittsburgh, PA", region: "East Coast" },
    City { name: "Cleveland, OH", region: "Midwest" },
    City { name: "Columbus, OH", region: "Midwest" },
    City { name: "Cincinnati, OH", region: "Midwest" },
    City { name: "Kansas City, MO", region: "Midwest" },
    City { name: "Las Vegas, NV", region: "Mountain" },
    City { name: "Louisville, KY", region: "South" },
    City { name: "Jacksonville, FL", region: "South" },
    City { name: "Richmond, VA", region: "East Coast" },
    City { name: "Providence, RI", region: "East Coast" },
    City { name: "Hartford, CT", region: "East Coast" },
    City { name: "Buffalo, NY", region: "East Coast" },
    City { name: "New Orleans, LA", region: "South" },
    City { name: "Baton Rouge, LA", region: "South" },
];

/// Looks up a city by name.
pub fn city(name: &str) -> Option<&'static City> {
    CITIES.iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_56_cities() {
        assert_eq!(CITIES.len(), 56);
    }

    #[test]
    fn names_are_unique() {
        for (i, c) in CITIES.iter().enumerate() {
            assert!(!CITIES[..i].iter().any(|o| o.name == c.name), "duplicate city {:?}", c.name);
        }
    }

    #[test]
    fn every_paper_city_is_present() {
        for name in [
            "Birmingham, UK",
            "Oklahoma City, OK",
            "Bristol, UK",
            "Manchester, UK",
            "New Haven, CT",
            "Milwaukee, WI",
            "Memphis, TN",
            "Indianapolis, IN",
            "Nashville, TN",
            "Detroit, MI",
            "Chicago, IL",
            "San Francisco, CA",
            "San Francisco Bay Area, CA",
            "Washington, DC",
            "Los Angeles, CA",
            "Boston, MA",
            "Atlanta, GA",
            "Houston, TX",
            "Orlando, FL",
            "Philadelphia, PA",
            "San Diego, CA",
            "Charlotte, NC",
            "Norfolk, VA",
            "St. Louis, MO",
            "Salt Lake City, UT",
            "New York City, NY",
        ] {
            assert!(city(name).is_some(), "missing paper city {name:?}");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(city("Chicago, IL").unwrap().region, "Midwest");
        assert!(city("Atlantis").is_none());
    }
}
