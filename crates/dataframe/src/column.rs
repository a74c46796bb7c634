//! Typed columnar storage.
//!
//! String columns are dictionary-encoded: each distinct string is stored once
//! in a dictionary and rows hold `u32` codes. The operators the EDA
//! environment runs on every step work on those codes, not on the strings:
//! GROUP refines group ids by code, FILTER evaluates its predicate once per
//! dictionary entry, `take` remaps codes through a dense table, and the
//! column statistics count codes.

use crate::error::{DataFrameError, Result};
use crate::value::{canonical_f64_bits, DType, Value, ValueKey, ValueRef};
use serde::{Deserialize, Serialize};
// atena-lint: allow(hash-order) — HashMap below is the lookup-only dictionary index
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

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

    /// Every row's dictionary code, `None` for null.
    pub(crate) fn codes(&self) -> &[Option<u32>] {
        &self.codes
    }

    /// The dictionary of distinct strings seen by this column.
    pub fn dictionary(&self) -> &[String] {
        &self.dict
    }

    /// Gather the given rows into a new column. The dictionary is
    /// re-compacted to the surviving strings, in order of first appearance
    /// in `rows`. The lookup index stays empty: pushing to the column
    /// rebuilds it first, as for a deserialized column.
    pub fn take(&self, rows: &[usize]) -> StrColumn {
        let mut remap = vec![UNSEEN; self.dict.len()];
        let mut dict = Vec::new();
        let mut codes = Vec::with_capacity(rows.len());
        for &r in rows {
            codes.push(self.codes[r].map(|old| {
                let new = &mut remap[old as usize];
                if *new == UNSEEN {
                    *new = dict.len() as u32;
                    dict.push(self.dict[old as usize].clone());
                }
                *new
            }));
        }
        StrColumn {
            codes,
            dict,
            // atena-lint: allow(hash-order) — the lookup-only dictionary index, empty until a push
            index: HashMap::new(),
        }
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

    /// Per-row key codes and the number of codes in use: two rows get the
    /// same code exactly when their [`ValueKey`]s are equal, so null has a
    /// code of its own and floats are coded by their canonical bits. GROUP
    /// refines group ids by these codes and the statistics count them.
    pub(crate) fn key_codes(&self) -> (Vec<u32>, usize) {
        match self {
            // Dictionary entries are distinct strings, so codes are keys.
            Column::Str(s) => {
                let null = s.dict.len() as u32;
                let codes = s.codes.iter().map(|c| c.unwrap_or(null)).collect();
                (codes, null as usize + 1)
            }
            Column::Bool(v) => (v.iter().map(|b| b.map_or(2, u32::from)).collect(), 3),
            Column::Int(v) => {
                let present = v.iter().flatten();
                let (Some(&lo), Some(&hi)) = (present.clone().min(), present.max()) else {
                    return (vec![0; v.len()], 1);
                };
                // A value's offset in the range indexes a dense table when
                // the range is small; null takes the slot past the end.
                match usize::try_from(hi.abs_diff(lo)) {
                    Ok(span) if span < dense_limit(v.len()) => number_dense(
                        v.iter()
                            .map(|x| x.map_or(span + 1, |x| x.abs_diff(lo) as usize)),
                        span + 2,
                    ),
                    _ => number_hashed(v.iter()),
                }
            }
            Column::Float(v) => number_hashed(v.iter().map(|x| x.map(canonical_f64_bits))),
        }
    }

    /// How often each distinct non-null value occurs, in no promised order:
    /// the one counting path behind [`Column::n_distinct`] and the column
    /// statistics. Strings count dictionary codes, integers their key codes
    /// and booleans their two values. Floats go through
    /// [`Column::value_counts`], whose `ValueKey` order treats NaN as equal
    /// to every float, so that a column holding NaN keeps its counts.
    pub(crate) fn distinct_counts(&self) -> Vec<usize> {
        fn tally(codes: impl Iterator<Item = Option<u32>>, n_codes: usize) -> Vec<usize> {
            let mut counts = vec![0usize; n_codes];
            for code in codes.flatten() {
                counts[code as usize] += 1;
            }
            counts.retain(|&c| c > 0);
            counts
        }
        match self {
            Column::Str(v) => tally(v.codes.iter().copied(), v.dict.len()),
            Column::Int(v) => {
                let (codes, n_codes) = self.key_codes();
                tally(codes.into_iter().zip(v).map(|(c, x)| x.map(|_| c)), n_codes)
            }
            Column::Bool(v) => tally(v.iter().map(|b| b.map(u32::from)), 2),
            Column::Float(_) => self.value_counts().into_values().collect(),
        }
    }

    /// Number of distinct non-null values.
    pub fn n_distinct(&self) -> usize {
        self.distinct_counts().len()
    }
}

/// Marks a table slot no row has reached yet.
const UNSEEN: u32 = u32::MAX;

/// Largest dense table (in slots) worth allocating for `n_rows` rows;
/// sparser key spaces go through a hash table instead. A floor of 65,536
/// slots (dense port numbers on every frame) ran perfbench `train` ≈10%
/// slower than this one, in 4 alternating pairs on a 2-vCPU VM.
pub(crate) fn dense_limit(n_rows: usize) -> usize {
    n_rows.saturating_mul(4).max(1 << 12)
}

/// Number the distinct slots `0, 1, 2, …` in order of first appearance,
/// through a table of `n_slots` entries. Returns the numbers and how many
/// distinct slots there were.
pub(crate) fn number_dense(
    slots: impl Iterator<Item = usize>,
    n_slots: usize,
) -> (Vec<u32>, usize) {
    let mut table = vec![UNSEEN; n_slots];
    let mut n = 0u32;
    let numbers = slots
        .map(|slot| {
            let id = &mut table[slot];
            if *id == UNSEEN {
                *id = n;
                n += 1;
            }
            *id
        })
        .collect();
    (numbers, n as usize)
}

/// [`number_dense`] for keys too sparse for a table.
pub(crate) fn number_hashed<K: Eq + Hash>(keys: impl Iterator<Item = K>) -> (Vec<u32>, usize) {
    // atena-lint: allow(hash-order) — lookup-only key → number map; numbers follow row order
    let mut seen: HashMap<K, u32> = HashMap::new();
    let numbers = keys
        .map(|k| {
            let next = seen.len() as u32;
            *seen.entry(k).or_insert(next)
        })
        .collect();
    (numbers, seen.len())
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
    fn dense_and_hashed_numbering_agree() {
        let slots = [5usize, 1, 5, 0, 1, 7, 5];
        let dense = number_dense(slots.iter().copied(), 8);
        assert_eq!(dense, (vec![0, 1, 0, 2, 1, 3, 0], 4));
        assert_eq!(number_hashed(slots.iter()), dense);
    }

    #[test]
    fn key_codes_follow_value_key_equality() {
        // Narrow and wide integer ranges (dense and hashed coding) agree.
        for scale in [1i64, 1 << 40] {
            let col = Column::from_ints(
                [Some(2), None, Some(-1), Some(2), None].map(|x| x.map(|x| x * scale)),
            );
            assert_eq!(col.key_codes(), (vec![0, 1, 2, 0, 1], 3));
        }
        // -0.0 keys like 0.0, and every NaN like every other.
        let col =
            Column::from_floats([Some(0.0), Some(-0.0), Some(f64::NAN), Some(-f64::NAN), None]);
        assert_eq!(col.key_codes(), (vec![0, 0, 1, 1, 2], 3));
        let col = Column::from_strs([Some("b"), None, Some("a"), Some("b")]);
        assert_eq!(col.key_codes(), (vec![0, 2, 1, 0], 3));
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
