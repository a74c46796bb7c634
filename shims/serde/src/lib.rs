//! Offline stand-in for the `serde` crate.
//!
//! The build environment cannot fetch crates.io, so this crate provides a
//! miniature serialization framework with the same *surface* as the serde
//! subset the workspace uses: `Serialize`/`Deserialize` traits, derive
//! macros (`#[derive(Serialize, Deserialize)]`, honouring `#[serde(skip)]`
//! and `#[serde(skip_serializing_if = "...")]`),
//! and enough impls for the primitive/container types that appear in the
//! workspace's config, checkpoint, and report structs.
//!
//! Instead of serde's visitor-based zero-copy data model, everything funnels
//! through one self-describing tree, [`Content`] — the `serde_json` shim
//! renders/parses that tree as JSON. External enum tagging and newtype
//! transparency match real serde's JSON output shape.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// The self-describing value tree all (de)serialization passes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer (anything that fits `i64`).
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence (JSON array).
    Seq(Vec<Content>),
    /// Key-value map (JSON object), insertion-ordered.
    Map(Vec<(String, Content)>),
}

impl Content {
    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The sequence elements, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Alias for [`Content::as_seq`] matching `serde_json::Value::as_array`.
    pub fn as_array(&self) -> Option<&Vec<Content>> {
        match self {
            Content::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Content::I64(v) => Some(v as f64),
            Content::U64(v) => Some(v as f64),
            Content::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Integer value as `i64`, if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Content::I64(v) => Some(v),
            Content::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// Integer value as `u64`, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Content::I64(v) => u64::try_from(v).ok(),
            Content::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Content::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Map lookup by key (`None` for non-maps / missing keys).
    pub fn get(&self, key: &str) -> Option<&Content> {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// `value["key"]` navigation; missing keys yield `Null` (like serde_json).
impl std::ops::Index<&str> for Content {
    type Output = Content;
    fn index(&self, key: &str) -> &Content {
        const NULL: Content = Content::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[i]` navigation; out-of-range yields `Null` (like serde_json).
impl std::ops::Index<usize> for Content {
    type Output = Content;
    fn index(&self, idx: usize) -> &Content {
        const NULL: Content = Content::Null;
        self.as_seq().and_then(|s| s.get(idx)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Content {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Content {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<Content> for &str {
    fn eq(&self, other: &Content) -> bool {
        other.as_str() == Some(*self)
    }
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// "expected X" error.
    pub fn expected(what: &str) -> Self {
        DeError(format!("expected {what}"))
    }

    /// Missing struct field.
    pub fn missing_field(field: &str, ty: &str) -> Self {
        DeError(format!("missing field `{field}` for `{ty}`"))
    }

    /// Unknown enum variant.
    pub fn unknown_variant(variant: &str, ty: &str) -> Self {
        DeError(format!("unknown variant `{variant}` for `{ty}`"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Serialization into the [`Content`] tree.
pub trait Serialize {
    /// Convert to the self-describing tree.
    fn to_content(&self) -> Content;
}

/// Deserialization from the [`Content`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct from the self-describing tree.
    fn from_content(content: &Content) -> Result<Self, DeError>;
}

/// Compatibility alias: the workspace sometimes names `serde::ser`/`de`.
pub mod ser {
    pub use super::{Content, Serialize};
}

/// See [`ser`].
pub mod de {
    pub use super::{Content, DeError, Deserialize};

    /// In real serde `DeserializeOwned` relaxes the lifetime; our model has
    /// no borrowed variant, so it is a plain alias bound.
    pub trait DeserializeOwned: Deserialize {}
    impl<T: Deserialize> DeserializeOwned for T {}
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_serde_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content { Content::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                c.as_i64()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| DeError::expected(stringify!($t)))
            }
        }
    )*};
}
impl_serde_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                match i64::try_from(*self) {
                    Ok(v) => Content::I64(v),
                    Err(_) => Content::U64(*self as u64),
                }
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                c.as_u64()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| DeError::expected(stringify!($t)))
            }
        }
    )*};
}
impl_serde_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_f64().ok_or_else(|| DeError::expected("f64"))
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        // Narrowing the parsed f64 matches real serde_json's behaviour and
        // round-trips every finite f32 exactly.
        c.as_f64()
            .map(|v| v as f32)
            .ok_or_else(|| DeError::expected("f32"))
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_bool().ok_or_else(|| DeError::expected("bool"))
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::expected("string"))
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let s = c.as_str().ok_or_else(|| DeError::expected("char"))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(ch), None) => Ok(ch),
            _ => Err(DeError::expected("single-character string")),
        }
    }
}

impl Serialize for () {
    fn to_content(&self) -> Content {
        Content::Null
    }
}

impl Deserialize for () {
    fn from_content(_: &Content) -> Result<Self, DeError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_seq()
            .ok_or_else(|| DeError::expected("sequence"))?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_content(c)?;
        <[T; N]>::try_from(items).map_err(|_| DeError(format!("expected array of length {N}")))
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let seq = c.as_seq().ok_or_else(|| DeError::expected("tuple sequence"))?;
                let expected = [$($idx),+].len();
                if seq.len() != expected {
                    return Err(DeError(format!("expected tuple of length {expected}")));
                }
                Ok(($($name::from_content(&seq[$idx])?,)+))
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Rc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Rc<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Rc::new)
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_content(&self) -> Content {
        // Sort for deterministic output (HashMap iteration order is random).
        let mut entries: Vec<(String, Content)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_content()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Content::Map(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_map()
            .ok_or_else(|| DeError::expected("map"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_content(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_content()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_map()
            .ok_or_else(|| DeError::expected("map"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_content(v)?)))
            .collect()
    }
}

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(c.clone())
    }
}

/// Derive-macro helper: fetch a struct field from a map, tolerating absent
/// optional fields by substituting `Null` (so `Option<T>` fields default to
/// `None`, as in real serde).
pub fn field<T: Deserialize>(
    map: &[(String, Content)],
    field: &str,
    ty: &str,
) -> Result<T, DeError> {
    match map.iter().find(|(k, _)| k == field) {
        Some((_, v)) => T::from_content(v),
        None => T::from_content(&Content::Null).map_err(|_| DeError::missing_field(field, ty)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(
            u64::from_content(&18_446_744_073_709_551_615u64.to_content()),
            Ok(u64::MAX)
        );
        assert_eq!(i64::from_content(&(-5i64).to_content()), Ok(-5));
        assert_eq!(f32::from_content(&0.1f32.to_content()), Ok(0.1f32));
        assert_eq!(bool::from_content(&true.to_content()), Ok(true));
        assert_eq!(
            String::from_content(&"hi".to_string().to_content()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn options_use_null() {
        assert_eq!(None::<u32>.to_content(), Content::Null);
        assert_eq!(Option::<u32>::from_content(&Content::Null), Ok(None));
        assert_eq!(Option::<u32>::from_content(&Content::I64(3)), Ok(Some(3)));
    }

    #[test]
    fn nested_containers_round_trip() {
        let v: Vec<(String, Vec<f64>)> = vec![("a".into(), vec![1.0, 2.5]), ("b".into(), vec![])];
        let c = v.to_content();
        let back: Vec<(String, Vec<f64>)> = Deserialize::from_content(&c).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn arrays_check_length() {
        let a: [usize; 2] = [3, 4];
        let c = a.to_content();
        assert_eq!(<[usize; 2]>::from_content(&c), Ok([3, 4]));
        assert!(<[usize; 3]>::from_content(&c).is_err());
    }

    #[test]
    fn content_navigation() {
        let c = Content::Map(vec![(
            "cells".into(),
            Content::Seq(vec![Content::Str("x".into())]),
        )]);
        assert_eq!(c["cells"].as_array().unwrap().len(), 1);
        assert_eq!(c["cells"][0], "x");
        assert_eq!(c["missing"], Content::Null);
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(u32::from_content(&Content::Str("nope".into())).is_err());
        assert!(Vec::<u8>::from_content(&Content::I64(1)).is_err());
        assert!(u8::from_content(&Content::I64(256)).is_err());
    }
}
