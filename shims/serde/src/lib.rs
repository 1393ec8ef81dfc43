//! Offline stand-in for [`serde`](https://docs.rs/serde).
//!
//! The build environment has no access to crates.io, so this workspace
//! ships its own minimal serialization framework under the same crate
//! name: a [`Value`] tree model, [`Serialize`]/[`Deserialize`] traits
//! converting to and from it, the [`object!`] macro implementing both for
//! a named-field struct, and a JSON codec in [`json`].
//!
//! Encoding conventions (self-consistent, not wire-compatible with
//! `serde_json` in every corner):
//!
//! - named-field structs → JSON objects, keys in the listed order;
//! - `Vec` and arrays → JSON arrays;
//! - `u64`/`i64`/`usize` → JSON numbers printed in full precision.

pub mod json;
mod value;

pub use value::{Number, Value};

use std::fmt;

/// Types convertible into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Deserialization error: what was expected and what was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Builds an error from a message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// Standard "expected X, found Y" error.
    pub fn expected(what: &str, found: &Value) -> Self {
        Self::custom(format!("expected {what}, found {}", found.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Implements [`Serialize`] and [`Deserialize`] for a named-field struct:
/// `serde::object!(Type { field, … })` writes a JSON object with one key
/// per listed field, in the listed order, and reads each field back from
/// its key (a missing key reads as `null`). The read builds a `Self { … }`
/// literal, so a list that misses a field or names an extra one does not
/// compile; the order is the one thing the compiler cannot check.
#[macro_export]
macro_rules! object {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Value::Object(vec![$((
                    stringify!($field).to_owned(),
                    $crate::Serialize::to_value(&self.$field),
                )),+])
            }
        }

        impl $crate::Deserialize for $ty {
            fn from_value(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                match v {
                    $crate::Value::Object(_) => Ok(Self {$(
                        $field: $crate::Deserialize::from_value(
                            v.get(stringify!($field)).unwrap_or(&$crate::Value::Null),
                        )?,
                    )+}),
                    _ => Err($crate::Error::expected("object", v)),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_serde_int {
    ($($t:ty => $variant:ident as $conv:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::$variant(*self as $conv))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => n
                        .as_i128()
                        .and_then(|i| <$t>::try_from(i).ok())
                        .ok_or_else(|| Error::expected(stringify!($t), v)),
                    _ => Err(Error::expected(stringify!($t), v)),
                }
            }
        }
    )*};
}

impl_serde_int!(u32 => U64 as u64, u64 => U64 as u64, usize => U64 as u64, i64 => I64 as i64);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            _ => Err(Error::expected("f64", v)),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("bool", v)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", v)),
        }
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::expected("array", v)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::custom(format!("expected array of length {N}, found {n}")))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for v in [0u64, 1, u64::MAX] {
            assert_eq!(u64::from_value(&v.to_value()).unwrap(), v);
        }
        for v in [-5i64, 0, i64::MAX] {
            assert_eq!(i64::from_value(&v.to_value()).unwrap(), v);
        }
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"hi".to_owned().to_value()).unwrap(), "hi");
    }

    #[test]
    fn containers_round_trip() {
        let v = vec!["a".to_owned(), "b".to_owned()];
        assert_eq!(Vec::<String>::from_value(&v.to_value()).unwrap(), v);

        let arr = [0.1f64, 0.2, 0.3];
        assert_eq!(<[f64; 3]>::from_value(&arr.to_value()).unwrap(), arr);
        assert!(<[f64; 2]>::from_value(&arr.to_value()).is_err());
    }

    #[test]
    fn narrowing_out_of_range_fails() {
        assert!(u32::from_value(&(u64::from(u32::MAX) + 1).to_value()).is_err());
        assert!(u32::from_value(&(-1i64).to_value()).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        count: u64,
        label: String,
    }

    object!(Pair { count, label });

    #[test]
    fn object_writes_listed_keys_and_rejects_bad_input() {
        let pair = Pair { count: 3, label: "x".to_owned() };
        assert_eq!(json::to_string(&pair), r#"{"count":3,"label":"x"}"#);
        assert_eq!(json::from_str::<Pair>(r#"{"label":"x","count":3}"#), Ok(pair));

        let err = json::from_str::<Pair>("[3]").unwrap_err();
        assert!(err.to_string().contains("expected object"), "{err}");
        let err = json::from_str::<Pair>(r#"{"label":"x"}"#).unwrap_err();
        assert!(err.to_string().contains("expected u64, found null"), "{err}");
    }
}
