//! Filter predicates: the `FILTER(attr, op, term)` operation of the EDA
//! action space.

use crate::error::{DataFrameError, Result};
use crate::value::{DType, Value, ValueRef};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operator of a filter predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equality (`==`). Defined for every type.
    Eq,
    /// Inequality (`!=`). Defined for every type.
    Neq,
    /// Strictly greater (`>`). Numeric columns only.
    Gt,
    /// Strictly less (`<`). Numeric columns only.
    Lt,
    /// Greater or equal (`>=`). Numeric columns only.
    Ge,
    /// Less or equal (`<=`). Numeric columns only.
    Le,
    /// Substring containment. String columns only.
    Contains,
    /// Prefix match. String columns only.
    StartsWith,
}

impl CmpOp {
    /// All supported operators, in the canonical order used by the action
    /// space's parameter domain.
    pub const ALL: [CmpOp; 8] = [
        CmpOp::Eq,
        CmpOp::Neq,
        CmpOp::Gt,
        CmpOp::Lt,
        CmpOp::Ge,
        CmpOp::Le,
        CmpOp::Contains,
        CmpOp::StartsWith,
    ];

    /// Short symbolic form used in notebook captions.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Neq => "!=",
            CmpOp::Gt => ">",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Le => "<=",
            CmpOp::Contains => "contains",
            CmpOp::StartsWith => "starts_with",
        }
    }

    /// `v OP t` for the numeric operators (false for the string-only ones).
    pub(crate) fn holds_f64(self, v: f64, t: f64) -> bool {
        match self {
            CmpOp::Eq => v == t,
            CmpOp::Neq => v != t,
            CmpOp::Gt => v > t,
            CmpOp::Lt => v < t,
            CmpOp::Ge => v >= t,
            CmpOp::Le => v <= t,
            CmpOp::Contains | CmpOp::StartsWith => false,
        }
    }

    /// Whether the operator is defined for columns of type `dtype`.
    pub fn supports(self, dtype: DType) -> bool {
        match self {
            CmpOp::Eq | CmpOp::Neq => true,
            CmpOp::Gt | CmpOp::Lt | CmpOp::Ge | CmpOp::Le => dtype.is_numeric(),
            CmpOp::Contains | CmpOp::StartsWith => dtype == DType::Str,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A single filter predicate over one attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Attribute the predicate applies to.
    pub attr: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Comparison term.
    pub term: Value,
}

impl Predicate {
    /// Create a predicate.
    pub fn new(attr: impl Into<String>, op: CmpOp, term: impl Into<Value>) -> Self {
        Self {
            attr: attr.into(),
            op,
            term: term.into(),
        }
    }

    /// Validate the predicate against a column type.
    ///
    /// Returns [`DataFrameError::IncompatibleOp`] for combinations like
    /// `Contains` on an integer column, which the RL agent can produce; the
    /// environment converts the error into a penalized no-op.
    pub fn validate(&self, dtype: DType) -> Result<()> {
        if !self.op.supports(dtype) {
            return Err(DataFrameError::IncompatibleOp {
                column: self.attr.clone(),
                op: self.op.symbol().to_string(),
                dtype: dtype.name(),
            });
        }
        // Term type must be comparable against the column type.
        let term_ok = match (&self.term, dtype) {
            (Value::Null, _) => matches!(self.op, CmpOp::Eq | CmpOp::Neq),
            (Value::Int(_) | Value::Float(_), DType::Int | DType::Float) => true,
            (Value::Str(_), DType::Str) => true,
            (Value::Bool(_), DType::Bool) => true,
            _ => false,
        };
        if !term_ok {
            return Err(DataFrameError::IncompatibleOp {
                column: self.attr.clone(),
                op: format!("{} {}", self.op.symbol(), self.term),
                dtype: dtype.name(),
            });
        }
        Ok(())
    }

    /// Evaluate the predicate against one value.
    ///
    /// Nulls never match any predicate except `== null` / `!= null`.
    pub fn matches(&self, value: ValueRef<'_>) -> bool {
        match (&self.term, value) {
            // Null term: explicit null checks.
            (Value::Null, v) => match self.op {
                CmpOp::Eq => v.is_null(),
                CmpOp::Neq => !v.is_null(),
                _ => false,
            },
            (_, ValueRef::Null) => matches!(self.op, CmpOp::Neq),
            (Value::Bool(t), ValueRef::Bool(v)) => match self.op {
                CmpOp::Eq => v == *t,
                CmpOp::Neq => v != *t,
                _ => false,
            },
            (Value::Str(t), ValueRef::Str(v)) => match self.op {
                CmpOp::Eq => v == t,
                CmpOp::Neq => v != t,
                CmpOp::Contains => v.contains(t.as_str()),
                CmpOp::StartsWith => v.starts_with(t.as_str()),
                _ => false,
            },
            (term, v) => match (term.as_f64(), v.as_f64()) {
                (Some(t), Some(v)) => self.op.holds_f64(v, t),
                _ => false,
            },
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            CmpOp::Contains | CmpOp::StartsWith => {
                write!(
                    f,
                    "{}.{}({:?})",
                    self.attr,
                    self.op.symbol(),
                    self.term.to_string()
                )
            }
            _ => write!(f, "{} {} {}", self.attr, self.op.symbol(), self.term),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparisons() {
        let p = Predicate::new("x", CmpOp::Gt, 5i64);
        assert!(p.matches(ValueRef::Int(6)));
        assert!(!p.matches(ValueRef::Int(5)));
        assert!(p.matches(ValueRef::Float(5.5)));
        assert!(!p.matches(ValueRef::Null));
    }

    #[test]
    fn string_operators() {
        let c = Predicate::new("s", CmpOp::Contains, "bc");
        assert!(c.matches(ValueRef::Str("abcd")));
        assert!(!c.matches(ValueRef::Str("bd")));
        let sw = Predicate::new("s", CmpOp::StartsWith, "ab");
        assert!(sw.matches(ValueRef::Str("abcd")));
        assert!(!sw.matches(ValueRef::Str("xab")));
    }

    #[test]
    fn null_semantics() {
        let eq_null = Predicate::new("x", CmpOp::Eq, Value::Null);
        assert!(eq_null.matches(ValueRef::Null));
        assert!(!eq_null.matches(ValueRef::Int(1)));
        let neq = Predicate::new("x", CmpOp::Neq, 3i64);
        // null != 3 is true under our semantics (pandas-style would be false,
        // but the agent benefits from != excluding nulls being visible).
        assert!(neq.matches(ValueRef::Null));
        let gt = Predicate::new("x", CmpOp::Gt, 3i64);
        assert!(!gt.matches(ValueRef::Null));
    }

    #[test]
    fn validation_rejects_incompatible() {
        let p = Predicate::new("x", CmpOp::Contains, "a");
        assert!(p.validate(DType::Int).is_err());
        assert!(p.validate(DType::Str).is_ok());
        let p2 = Predicate::new("x", CmpOp::Gt, "a");
        assert!(p2.validate(DType::Str).is_err());
        let p3 = Predicate::new("x", CmpOp::Gt, 1i64);
        assert!(p3.validate(DType::Float).is_ok());
        assert!(p3.validate(DType::Bool).is_err());
    }

    #[test]
    fn op_supports_matrix() {
        assert!(CmpOp::Eq.supports(DType::Bool));
        assert!(!CmpOp::Lt.supports(DType::Str));
        assert!(CmpOp::Contains.supports(DType::Str));
        assert!(!CmpOp::Contains.supports(DType::Float));
        assert_eq!(CmpOp::ALL.len(), 8);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Predicate::new("delay", CmpOp::Ge, 30i64).to_string(),
            "delay >= 30"
        );
        assert_eq!(
            Predicate::new("url", CmpOp::Contains, "login").to_string(),
            "url.contains(\"login\")"
        );
    }
}
