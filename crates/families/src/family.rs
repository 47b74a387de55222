//! The five benchmark query families, by name.

use tab_sqlq::Query;
use tab_storage::{Database, Parallelism};

/// One of the paper's query families (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Two-way co-occurrence joins on NREF.
    Nref2J,
    /// Self-join + dimension-join queries on NREF.
    Nref3J,
    /// Three-way joins on the skewed TPC-H database.
    SkTH3J,
    /// The simpler lineitem/orders/partsupp variant on skewed TPC-H.
    SkTH3Js,
    /// Three-way joins on the uniform TPC-H database.
    UnTH3J,
}

impl Family {
    /// The paper's name for the family.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Nref2J => "NREF2J",
            Family::Nref3J => "NREF3J",
            Family::SkTH3J => "SkTH3J",
            Family::SkTH3Js => "SkTH3Js",
            Family::UnTH3J => "UnTH3J",
        }
    }

    /// Parse a family from its paper name, case-insensitively (the
    /// shared lookup under `tab --family` and the wire `ADVISE` verb).
    pub fn parse(name: &str) -> Option<Family> {
        match name.to_uppercase().as_str() {
            "NREF2J" => Some(Family::Nref2J),
            "NREF3J" => Some(Family::Nref3J),
            "SKTH3J" => Some(Family::SkTH3J),
            "SKTH3JS" => Some(Family::SkTH3Js),
            "UNTH3J" => Some(Family::UnTH3J),
            _ => None,
        }
    }

    /// Which database label the family runs on (`NREF`, `SkTH`, `UnTH`).
    pub fn database_label(&self) -> &'static str {
        match self {
            Family::Nref2J | Family::Nref3J => "NREF",
            Family::SkTH3J | Family::SkTH3Js => "SkTH",
            Family::UnTH3J => "UnTH",
        }
    }

    /// Enumerate the (restricted) family against its database instance,
    /// template instantiation fanned out over `par`; the family is
    /// identical at any thread count.
    pub fn enumerate(&self, db: &Database, par: Parallelism) -> Vec<Query> {
        match self {
            Family::Nref2J => crate::nref2j::enumerate(db, par),
            Family::Nref3J => crate::nref3j::enumerate(db, par),
            Family::SkTH3J | Family::UnTH3J => crate::th3j::enumerate(db, false, par),
            Family::SkTH3Js => crate::th3j::enumerate(db, true, par),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_labels() {
        assert_eq!(Family::Nref2J.name(), "NREF2J");
        assert_eq!(Family::SkTH3Js.database_label(), "SkTH");
        assert_eq!(Family::UnTH3J.database_label(), "UnTH");
    }
}
