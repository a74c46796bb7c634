//! Scalar values and data types.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Physical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Boolean.
    Bool,
    /// UTF-8 string (dictionary encoded in storage).
    Str,
}

impl DType {
    /// Static name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DType::Int => "int",
            DType::Float => "float",
            DType::Bool => "bool",
            DType::Str => "str",
        }
    }

    /// True for `Int` and `Float`.
    pub fn is_numeric(self) -> bool {
        matches!(self, DType::Int | DType::Float)
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

macro_rules! fmt_display_value {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Self::Null => f.write_str("null"),
                Self::Int(v) => write!(f, "{v}"),
                Self::Float(v) => {
                    if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                }
                Self::Bool(v) => write!(f, "{v}"),
                Self::Str(s) => f.write_str(s),
            }
        }
    };
}

/// An owned scalar value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Missing value.
    Null,
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// String value.
    Str(String),
}

impl Value {
    /// Data type of the value, or `None` for nulls (which fit any type).
    pub fn dtype(&self) -> Option<DType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DType::Int),
            Value::Float(_) => Some(DType::Float),
            Value::Bool(_) => Some(DType::Bool),
            Value::Str(_) => Some(DType::Str),
        }
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, coercing integers to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Static name of the value's type for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
        }
    }

    /// Borrowed view of this value.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(v) => ValueRef::Int(*v),
            Value::Float(v) => ValueRef::Float(*v),
            Value::Bool(v) => ValueRef::Bool(*v),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl fmt::Display for Value {
    fmt_display_value!();
}

/// A borrowed scalar value, as returned by row accessors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// Missing value.
    Null,
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// String value.
    Str(&'a str),
}

impl<'a> ValueRef<'a> {
    /// True if the value is null.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Numeric view, coercing integers to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValueRef::Int(v) => Some(*v as f64),
            ValueRef::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Promote to an owned [`Value`].
    pub fn to_owned(&self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(*v),
            ValueRef::Float(v) => Value::Float(*v),
            ValueRef::Bool(v) => Value::Bool(*v),
            ValueRef::Str(s) => Value::Str((*s).to_string()),
        }
    }

    /// Hashable canonical key for grouping and counting.
    pub fn key(&self) -> ValueKey {
        match self {
            ValueRef::Null => ValueKey::Null,
            ValueRef::Int(v) => ValueKey::Int(*v),
            ValueRef::Float(v) => ValueKey::F64(canonical_f64_bits(*v)),
            ValueRef::Bool(v) => ValueKey::Bool(*v),
            ValueRef::Str(s) => ValueKey::Str((*s).to_string()),
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fmt_display_value!();
}

/// Canonicalize a float's bit pattern so that `-0.0 == 0.0` and all NaNs
/// collapse to one key.
pub(crate) fn canonical_f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

/// The float a [`ValueKey::F64`] holds for `v`: 0.0 for −0.0, one NaN for
/// every NaN.
pub(crate) fn canonical_f64(v: f64) -> f64 {
    f64::from_bits(canonical_f64_bits(v))
}

/// A hashable, totally-ordered canonical form of a value, used as a grouping
/// key and for value-frequency counting.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueKey {
    /// Missing value.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value by canonical bit pattern.
    F64(u64),
    /// Boolean value.
    Bool(bool),
    /// String value.
    Str(String),
}

impl ValueKey {
    /// Recover a [`Value`] from the key.
    pub fn to_value(&self) -> Value {
        match self {
            ValueKey::Null => Value::Null,
            ValueKey::Int(v) => Value::Int(*v),
            ValueKey::F64(bits) => Value::Float(f64::from_bits(*bits)),
            ValueKey::Bool(v) => Value::Bool(*v),
            ValueKey::Str(s) => Value::Str(s.clone()),
        }
    }

    /// Rank used to order keys of different variants deterministically.
    fn variant_rank(&self) -> u8 {
        match self {
            ValueKey::Null => 0,
            ValueKey::Bool(_) => 1,
            ValueKey::Int(_) => 2,
            ValueKey::F64(_) => 3,
            ValueKey::Str(_) => 4,
        }
    }
}

impl Ord for ValueKey {
    fn cmp(&self, other: &Self) -> Ordering {
        use ValueKey::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (F64(a), F64(b)) => f64::from_bits(*a)
                .partial_cmp(&f64::from_bits(*b))
                .unwrap_or(Ordering::Equal),
            // Numeric cross-variant comparison keeps mixed int/float keys sane.
            (Int(a), F64(b)) => (*a as f64)
                .partial_cmp(&f64::from_bits(*b))
                .unwrap_or(Ordering::Equal),
            (F64(a), Int(b)) => f64::from_bits(*a)
                .partial_cmp(&(*b as f64))
                .unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl PartialOrd for ValueKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for ValueKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_value())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_dtype_and_null() {
        assert_eq!(Value::Int(1).dtype(), Some(DType::Int));
        assert_eq!(Value::Null.dtype(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Bool(false).is_null());
    }

    #[test]
    fn value_numeric_coercion() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn value_key_float_canonicalization() {
        let a = ValueRef::Float(0.0).key();
        let b = ValueRef::Float(-0.0).key();
        assert_eq!(a, b);
        let n1 = ValueRef::Float(f64::NAN).key();
        let n2 = ValueRef::Float(-f64::NAN).key();
        assert_eq!(n1, n2);
    }

    #[test]
    fn value_key_ordering() {
        let mut keys = [
            ValueKey::Str("b".into()),
            ValueKey::Int(2),
            ValueKey::Null,
            ValueKey::Int(1),
            ValueKey::Str("a".into()),
        ];
        keys.sort();
        assert_eq!(keys[0], ValueKey::Null);
        assert_eq!(keys[1], ValueKey::Int(1));
        assert_eq!(keys[2], ValueKey::Int(2));
        assert_eq!(keys[3], ValueKey::Str("a".into()));
    }

    #[test]
    fn mixed_numeric_key_ordering() {
        let a = ValueKey::Int(2);
        let b = ValueKey::F64(2.5f64.to_bits());
        assert!(a < b);
        assert!(b > a);
    }

    #[test]
    fn display_round_trips() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(1.0).to_string(), "1.0");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(1.5f64)), Value::Float(1.5));
    }

    #[test]
    fn value_ref_round_trip() {
        let v = Value::Str("abc".into());
        let r = v.as_ref();
        assert_eq!(r.as_str(), Some("abc"));
        assert_eq!(r.to_owned(), v);
    }
}
