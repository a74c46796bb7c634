//! Typed columnar storage.
//!
//! String columns are dictionary-encoded: each distinct string is stored once
//! in a dictionary and rows hold `u32` codes. This keeps group-by, entropy
//! and value-frequency computations cheap — the operations the EDA
//! environment performs on every step.

use crate::error::{DataFrameError, Result};
use crate::value::{DType, Value, ValueKey, ValueRef};
use serde::{Deserialize, Serialize};
// atena-lint: allow(hash-order) — HashMap below is the lookup-only dictionary index
use std::collections::{BTreeMap, HashMap};

/// Dictionary-encoded string column.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StrColumn {
    codes: Vec<Option<u32>>,
    dict: Vec<String>,
    #[serde(skip)]
    // atena-lint: allow(hash-order) — string→code lookups only; dictionary order lives in `dict`
    index: HashMap<String, u32>,
}

impl StrColumn {
    /// Create an empty string column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Append a string, interning it in the dictionary.
    pub fn push(&mut self, value: Option<&str>) {
        match value {
            None => self.codes.push(None),
            Some(s) => {
                let code = self.intern(s);
                self.codes.push(Some(code));
            }
        }
    }

    fn intern(&mut self, s: &str) -> u32 {
        // The index is not serialized: a deserialized column arrives with an
        // empty one, so rebuild it from the dictionary before the first
        // lookup rather than give an existing string a second code.
        if self.index.is_empty() && !self.dict.is_empty() {
            self.index = (0u32..)
                .zip(&self.dict)
                .map(|(code, s)| (s.clone(), code))
                .collect();
        }
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = u32::try_from(self.dict.len()).expect("dictionary overflow");
        self.dict.push(s.to_string());
        self.index.insert(s.to_string(), code);
        code
    }

    /// Value at row `i`, or `None` for null.
    pub fn get(&self, i: usize) -> Option<&str> {
        self.codes[i].map(|c| self.dict[c as usize].as_str())
    }

    /// Dictionary code at row `i`.
    pub fn code(&self, i: usize) -> Option<u32> {
        self.codes[i]
    }

    /// The dictionary of distinct strings seen by this column.
    pub fn dictionary(&self) -> &[String] {
        &self.dict
    }

    /// Gather the given rows into a new column (dictionary is re-compacted).
    pub fn take(&self, rows: &[usize]) -> StrColumn {
        let mut out = StrColumn::new();
        out.codes.reserve(rows.len());
        // Remap old codes to new compacted codes lazily. Compacted code
        // assignment follows `rows` order via the entry API, never map order.
        // atena-lint: allow(hash-order) — lookup-only remap table
        let mut remap: HashMap<u32, u32> = HashMap::new();
        for &r in rows {
            match self.codes[r] {
                None => out.codes.push(None),
                Some(old) => {
                    let new = *remap.entry(old).or_insert_with(|| {
                        let code = out.dict.len() as u32;
                        let s = self.dict[old as usize].clone();
                        out.index.insert(s.clone(), code);
                        out.dict.push(s);
                        code
                    });
                    out.codes.push(Some(new));
                }
            }
        }
        out
    }
}

/// A typed column of nullable values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<Option<i64>>),
    /// 64-bit floats.
    Float(Vec<Option<f64>>),
    /// Booleans.
    Bool(Vec<Option<bool>>),
    /// Dictionary-encoded strings.
    Str(StrColumn),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn empty(dtype: DType) -> Self {
        match dtype {
            DType::Int => Column::Int(Vec::new()),
            DType::Float => Column::Float(Vec::new()),
            DType::Bool => Column::Bool(Vec::new()),
            DType::Str => Column::Str(StrColumn::new()),
        }
    }

    /// Build an integer column from values.
    pub fn from_ints<I: IntoIterator<Item = Option<i64>>>(values: I) -> Self {
        Column::Int(values.into_iter().collect())
    }

    /// Build a float column from values.
    pub fn from_floats<I: IntoIterator<Item = Option<f64>>>(values: I) -> Self {
        Column::Float(values.into_iter().collect())
    }

    /// Build a boolean column from values.
    pub fn from_bools<I: IntoIterator<Item = Option<bool>>>(values: I) -> Self {
        Column::Bool(values.into_iter().collect())
    }

    /// Build a string column from values.
    pub fn from_strs<'a, I: IntoIterator<Item = Option<&'a str>>>(values: I) -> Self {
        let mut col = StrColumn::new();
        for v in values {
            col.push(v);
        }
        Column::Str(col)
    }

    /// Data type of the column.
    pub fn dtype(&self) -> DType {
        match self {
            Column::Int(_) => DType::Int,
            Column::Float(_) => DType::Float,
            Column::Bool(_) => DType::Bool,
            Column::Str(_) => DType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident heap bytes of the column payload. Used by the
    /// dataset registry for memory-budget accounting; deterministic for a
    /// given column content, not an allocator-exact measurement.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * std::mem::size_of::<Option<i64>>(),
            Column::Float(v) => v.len() * std::mem::size_of::<Option<f64>>(),
            Column::Bool(v) => v.len() * std::mem::size_of::<Option<bool>>(),
            Column::Str(v) => {
                let dict: usize = v.dictionary().iter().map(|s| s.len()).sum();
                dict + v.len() * std::mem::size_of::<Option<u32>>()
            }
        }
    }

    /// Borrowed value at row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`; use [`Column::try_get`] on untrusted input.
    pub fn get(&self, i: usize) -> ValueRef<'_> {
        match self {
            Column::Int(v) => v[i].map_or(ValueRef::Null, ValueRef::Int),
            Column::Float(v) => v[i].map_or(ValueRef::Null, ValueRef::Float),
            Column::Bool(v) => v[i].map_or(ValueRef::Null, ValueRef::Bool),
            Column::Str(v) => v.get(i).map_or(ValueRef::Null, ValueRef::Str),
        }
    }

    /// Bounds-checked value access.
    pub fn try_get(&self, i: usize) -> Result<ValueRef<'_>> {
        if i >= self.len() {
            return Err(DataFrameError::RowOutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        Ok(self.get(i))
    }

    /// Append a value, checking type compatibility (nulls fit any column).
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, &value) {
            (Column::Int(v), Value::Int(x)) => v.push(Some(*x)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(x)) => v.push(Some(*x)),
            // Ints promote losslessly into float columns.
            (Column::Float(v), Value::Int(x)) => v.push(Some(*x as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(x)) => v.push(Some(*x)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (Column::Str(v), Value::Str(x)) => v.push(Some(x)),
            (Column::Str(v), Value::Null) => v.push(None),
            (col, value) => {
                return Err(DataFrameError::TypeMismatch {
                    expected: col.dtype().name(),
                    actual: value.type_name(),
                })
            }
        }
        Ok(())
    }

    /// Number of null entries.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Str(v) => v.codes.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Gather the given row indices into a new column.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn take(&self, rows: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(rows.iter().map(|&r| v[r]).collect()),
            Column::Float(v) => Column::Float(rows.iter().map(|&r| v[r]).collect()),
            Column::Bool(v) => Column::Bool(rows.iter().map(|&r| v[r]).collect()),
            Column::Str(v) => Column::Str(v.take(rows)),
        }
    }

    /// Iterate over borrowed values.
    pub fn iter(&self) -> ColumnIter<'_> {
        ColumnIter {
            column: self,
            index: 0,
        }
    }

    /// Frequency of each distinct non-null value.
    ///
    /// For string columns this runs over dictionary codes and is O(n).
    pub fn value_counts(&self) -> BTreeMap<ValueKey, usize> {
        match self {
            Column::Str(v) => {
                let mut code_counts = vec![0usize; v.dict.len()];
                for code in v.codes.iter().flatten() {
                    code_counts[*code as usize] += 1;
                }
                code_counts
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, c)| c > 0)
                    .map(|(code, c)| (ValueKey::Str(v.dict[code].clone()), c))
                    .collect()
            }
            _ => {
                let mut counts = BTreeMap::new();
                for i in 0..self.len() {
                    let v = self.get(i);
                    if !v.is_null() {
                        *counts.entry(v.key()).or_insert(0) += 1;
                    }
                }
                counts
            }
        }
    }

    /// Number of distinct non-null values.
    pub fn n_distinct(&self) -> usize {
        self.value_counts().len()
    }
}

/// Iterator over a column's values.
pub struct ColumnIter<'a> {
    column: &'a Column,
    index: usize,
}

impl<'a> Iterator for ColumnIter<'a> {
    type Item = ValueRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.index >= self.column.len() {
            return None;
        }
        let v = self.column.get(self.index);
        self.index += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.column.len() - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ColumnIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_column_interns() {
        let col = Column::from_strs(vec![Some("a"), Some("b"), Some("a"), None]);
        let Column::Str(inner) = &col else {
            panic!("expected str column")
        };
        assert_eq!(inner.dictionary().len(), 2);
        assert_eq!(col.len(), 4);
        assert_eq!(col.get(0), ValueRef::Str("a"));
        assert_eq!(col.get(3), ValueRef::Null);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.n_distinct(), 2);
    }

    #[test]
    fn restored_column_interns_existing_strings_to_their_codes() {
        use serde::{Deserialize, Serialize};
        let mut col = StrColumn::new();
        col.push(Some("a"));
        col.push(Some("b"));
        let mut restored = StrColumn::from_content(&col.to_content()).unwrap();
        restored.push(Some("a"));
        restored.push(Some("c"));
        assert_eq!(restored.dictionary(), ["a", "b", "c"]);
        assert_eq!(restored.code(2), Some(0));
        let counts = Column::Str(restored).value_counts();
        assert_eq!(counts[&ValueKey::Str("a".into())], 2);
        assert_eq!(counts[&ValueKey::Str("c".into())], 1);
    }

    #[test]
    fn take_compacts_dictionary() {
        let col = Column::from_strs(vec![Some("a"), Some("b"), Some("c"), Some("b")]);
        let taken = col.take(&[1, 3]);
        let Column::Str(inner) = &taken else {
            panic!("expected str column")
        };
        assert_eq!(inner.dictionary(), &["b".to_string()]);
        assert_eq!(taken.get(0), ValueRef::Str("b"));
        assert_eq!(taken.get(1), ValueRef::Str("b"));
    }

    #[test]
    fn int_column_basics() {
        let col = Column::from_ints(vec![Some(1), None, Some(3)]);
        assert_eq!(col.dtype(), DType::Int);
        assert_eq!(col.len(), 3);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.get(2), ValueRef::Int(3));
        let taken = col.take(&[2, 0]);
        assert_eq!(taken.get(0), ValueRef::Int(3));
        assert_eq!(taken.get(1), ValueRef::Int(1));
    }

    #[test]
    fn push_type_checked() {
        let mut col = Column::empty(DType::Int);
        col.push(Value::Int(1)).unwrap();
        col.push(Value::Null).unwrap();
        let err = col.push(Value::Str("x".into())).unwrap_err();
        assert!(matches!(err, DataFrameError::TypeMismatch { .. }));
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn int_promotes_into_float_column() {
        let mut col = Column::empty(DType::Float);
        col.push(Value::Int(2)).unwrap();
        assert_eq!(col.get(0), ValueRef::Float(2.0));
    }

    #[test]
    fn value_counts_ignore_nulls() {
        let col = Column::from_ints(vec![Some(1), Some(1), Some(2), None]);
        let counts = col.value_counts();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[&ValueKey::Int(1)], 2);
        assert_eq!(counts[&ValueKey::Int(2)], 1);
    }

    #[test]
    fn try_get_bounds() {
        let col = Column::from_bools(vec![Some(true)]);
        assert!(col.try_get(0).is_ok());
        assert!(matches!(
            col.try_get(5),
            Err(DataFrameError::RowOutOfBounds { index: 5, len: 1 })
        ));
    }

    #[test]
    fn iterator_yields_all() {
        let col = Column::from_floats(vec![Some(1.0), None, Some(2.0)]);
        let vals: Vec<_> = col.iter().collect();
        assert_eq!(vals.len(), 3);
        assert!(vals[1].is_null());
    }
}
