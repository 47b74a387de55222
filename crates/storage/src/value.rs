//! Typed scalar values with a total order and hashing.
//!
//! Values are the unit of data in `tab-bench`: rows are slices of values,
//! index keys are short vectors of values, and predicate constants are
//! single values. Strings are reference-counted (`Arc<str>`) because data
//! generators produce heavily repeated values (taxonomy lineages, part
//! names, …) and sharing keeps scaled databases compact.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scalar value stored in a table cell.
///
/// The ordering is total: `Null` sorts before everything, numeric values
/// (`Int`, `Float`) compare numerically across the two types, and strings
/// sort after all numbers. Floats use IEEE `total_cmp`, so even NaN has a
/// stable position.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string, shared.
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Whether this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate on-disk width in bytes, used by the page-size model.
    pub fn byte_width(&self) -> u32 {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 2 + s.len() as u32,
        }
    }

    /// Rank used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Normalize -0.0 to 0.0 so ordering, equality, and hashing agree.
pub(crate) fn norm(f: f64) -> f64 {
    if f == 0.0 {
        0.0
    } else {
        f
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => norm(*a).total_cmp(&norm(*b)),
            (Int(a), Float(b)) => (*a as f64).total_cmp(&norm(*b)),
            (Float(a), Int(b)) => norm(*a).total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            // Ints and equal floats must hash identically because they
            // compare equal across types.
            Value::Int(i) => {
                state.write_u8(1);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                state.write_u8(1);
                norm(*f).to_bits().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(2);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn ordering_across_types() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(5) < Value::str(""));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::Int(2) == Value::Float(2.0));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn string_sharing_is_cheap() {
        let a = Value::str("lineage");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), Some("lineage"));
    }

    #[test]
    fn byte_widths() {
        assert_eq!(Value::Int(1).byte_width(), 8);
        assert_eq!(Value::str("abc").byte_width(), 5);
        assert_eq!(Value::Null.byte_width(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("x").to_string(), "'x'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
