//! Study participants: the users whose personalized result lists the
//! framework compares.

use fbox_marketplace::demographics::Demographic;

/// A search-engine user (a Prolific participant in the paper's study).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchUser {
    /// Stable user id; also seeds the user's idiosyncratic taste.
    pub id: u64,
    /// The participant's demographic profile (screened by the recruiting
    /// platform in the paper; ground truth here).
    pub demographic: Demographic,
}

impl SearchUser {
    /// Creates a user.
    pub fn new(id: u64, demographic: Demographic) -> Self {
        Self { id, demographic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbox_marketplace::demographics::{Ethnicity, Gender};

    #[test]
    fn construction() {
        let u =
            SearchUser::new(7, Demographic { gender: Gender::Female, ethnicity: Ethnicity::Black });
        assert_eq!(u.id, 7);
        assert_eq!(u.demographic.name(), "Black Female");
    }
}
