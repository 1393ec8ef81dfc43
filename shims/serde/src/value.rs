//! The value tree every [`Serialize`](crate::Serialize) implementation
//! produces and every [`Deserialize`](crate::Deserialize) implementation
//! consumes.

use std::fmt;

/// A JSON-style number preserving the source representation: unsigned,
/// signed, or floating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U64(u64),
    /// Signed integer (used when negative).
    I64(i64),
    /// Floating point.
    F64(f64),
}

impl Number {
    /// The value as an `i128`, when integral (floats only when exact).
    pub fn as_i128(self) -> Option<i128> {
        match self {
            Number::U64(u) => Some(u as i128),
            Number::I64(i) => Some(i as i128),
            Number::F64(f) if f.fract() == 0.0 && f.abs() < 2f64.powi(63) => Some(f as i128),
            Number::F64(_) => None,
        }
    }

    /// The value as an `f64` (lossy for huge integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(u) => u as f64,
            Number::I64(i) => i as f64,
            Number::F64(f) => f,
        }
    }
}

/// A serialized value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also what a missing object key reads as).
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// A short human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Looks up an object field by name.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::json::to_string(self))
    }
}
