//! The [`DataFrame`]: an immutable, columnar, in-memory table.

use crate::column::Column;
use crate::error::{DataFrameError, Result};
use crate::filter::Predicate;
use crate::memo::FrameMemo;
use crate::schema::{AttrRole, Field, Schema};
use crate::value::{DType, Value, ValueRef};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An immutable columnar table.
///
/// Frames are cheap to clone (columns are shared via `Arc`); all mutating
/// operations return new frames. Row counts in the ATENA workloads are small
/// (≤ ~14k rows, Table 1 of the paper), so filters materialize row indices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataFrame {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    n_rows: usize,
    /// Lazily computed derived statistics, shared by clones of this frame
    /// (immutability makes that sound; see `memo.rs`). Deserialized frames
    /// start with a cold memo.
    #[serde(skip)]
    memo: Arc<FrameMemo>,
}

impl DataFrame {
    /// Create an empty frame with no columns.
    pub fn empty() -> Self {
        Self {
            schema: Schema::default(),
            columns: Vec::new(),
            n_rows: 0,
            memo: Arc::default(),
        }
    }

    /// The per-frame memo of derived statistics (crate-internal).
    pub(crate) fn memo(&self) -> &FrameMemo {
        &self.memo
    }

    /// Look up — or build and memoize — a caller-defined value derived from
    /// this frame's content. The memo is shared by every clone of the frame,
    /// so downstream crates can hang their own per-frame caches off it.
    ///
    /// `key` must uniquely identify the derivation among values of type `T`
    /// (hash its parameters with [`crate::StableHasher`]); entries are also
    /// keyed by `T`'s type, so distinct types never collide. `build` must be
    /// a deterministic pure function of the frame's content — a memo hit
    /// returns bit-identical data to recomputation, which is what the
    /// determinism contract requires. `build` runs under the memo lock
    /// (exactly one build per key) and must not recurse into this method.
    pub fn memo_extension<T: Send + Sync + 'static>(
        &self,
        key: u64,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut map = self.memo.extensions.lock().unwrap();
        let entry = map
            .entry((key, std::any::TypeId::of::<T>()))
            .or_insert_with(|| Arc::new(build()) as Arc<dyn std::any::Any + Send + Sync>);
        Arc::clone(entry)
            .downcast::<T>()
            .expect("entry is keyed by TypeId, so the downcast cannot fail")
    }

    /// Create a frame from (field, column) pairs, validating lengths and
    /// physical types.
    pub fn new(pairs: Vec<(Field, Column)>) -> Result<Self> {
        let n_rows = pairs.first().map_or(0, |(_, c)| c.len());
        let mut fields = Vec::with_capacity(pairs.len());
        let mut columns = Vec::with_capacity(pairs.len());
        for (field, column) in pairs {
            if column.len() != n_rows {
                return Err(DataFrameError::LengthMismatch {
                    expected: n_rows,
                    actual: column.len(),
                    column: field.name,
                });
            }
            if column.dtype() != field.dtype {
                return Err(DataFrameError::TypeMismatch {
                    expected: field.dtype.name(),
                    actual: column.dtype().name(),
                });
            }
            fields.push(field);
            columns.push(Arc::new(column));
        }
        Ok(Self {
            schema: Schema::new(fields)?,
            columns,
            n_rows,
            memo: Arc::default(),
        })
    }

    /// Builder-style construction used pervasively in tests and generators.
    pub fn builder() -> DataFrameBuilder {
        DataFrameBuilder::default()
    }

    /// The schema of the frame.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True if the frame has zero rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Approximate resident heap bytes across all columns (plus a small
    /// fixed overhead per column for schema metadata). The dataset
    /// registry charges this figure against its memory budget.
    pub fn approx_bytes(&self) -> usize {
        const PER_COLUMN_OVERHEAD: usize = 64;
        self.columns
            .iter()
            .map(|c| c.approx_bytes() + PER_COLUMN_OVERHEAD)
            .sum()
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self.schema.index_of(name)?;
        Ok(&self.columns[idx])
    }

    /// Column by position.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Scalar value at (row, column-name).
    pub fn value(&self, row: usize, name: &str) -> Result<ValueRef<'_>> {
        self.column(name)?.try_get(row)
    }

    /// Indices of rows satisfying the predicate.
    ///
    /// On a string column the predicate is evaluated once per dictionary
    /// entry and once for null, and rows are then selected by code. A
    /// numeric column compares each value with the term in `f64`, as
    /// [`Predicate::matches`] does.
    pub fn filter_indices(&self, pred: &Predicate) -> Result<Vec<usize>> {
        let col = self.column(&pred.attr)?;
        pred.validate(col.dtype())?;
        let keep_null = pred.matches(ValueRef::Null);
        Ok(match (col, pred.term.as_f64()) {
            (Column::Str(s), _) => {
                let keep: Vec<bool> = s
                    .dictionary()
                    .iter()
                    .map(|v| pred.matches(ValueRef::Str(v)))
                    .collect();
                select(s.codes(), |c| keep[c as usize], keep_null)
            }
            (Column::Int(v), Some(t)) => select(v, |x| pred.op.holds_f64(x as f64, t), keep_null),
            (Column::Float(v), Some(t)) => select(v, |x| pred.op.holds_f64(x, t), keep_null),
            _ => (0..col.len())
                .filter(|&i| pred.matches(col.get(i)))
                .collect(),
        })
    }

    /// New frame containing only rows satisfying the predicate.
    pub fn filter(&self, pred: &Predicate) -> Result<DataFrame> {
        let rows = self.filter_indices(pred)?;
        Ok(self.take(&rows))
    }

    /// Gather the given row indices into a new frame.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn take(&self, rows: &[usize]) -> DataFrame {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.take(rows)))
            .collect();
        DataFrame {
            schema: self.schema.clone(),
            columns,
            n_rows: rows.len(),
            memo: Arc::default(),
        }
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let n = n.min(self.n_rows);
        let rows: Vec<usize> = (0..n).collect();
        self.take(&rows)
    }

    /// New frame with rows sorted by the given column (nulls last).
    pub fn sort_by(&self, name: &str, descending: bool) -> Result<DataFrame> {
        let col = self.column(name)?;
        let mut idx: Vec<usize> = (0..self.n_rows).collect();
        idx.sort_by(|&a, &b| {
            let (va, vb) = (col.get(a).key(), col.get(b).key());
            let ord = match (
                va == crate::value::ValueKey::Null,
                vb == crate::value::ValueKey::Null,
            ) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => {
                    if descending {
                        vb.cmp(&va)
                    } else {
                        va.cmp(&vb)
                    }
                }
            };
            ord.then(a.cmp(&b))
        });
        Ok(self.take(&idx))
    }

    /// Project a subset of columns into a new frame.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut fields = Vec::with_capacity(names.len());
        let mut columns = Vec::with_capacity(names.len());
        for &name in names {
            let idx = self.schema.index_of(name)?;
            fields.push(self.schema.field_at(idx).clone());
            columns.push(self.columns[idx].clone());
        }
        Ok(DataFrame {
            schema: Schema::new(fields)?,
            columns,
            n_rows: self.n_rows,
            memo: Arc::default(),
        })
    }

    /// One row as owned values, in schema order.
    pub fn row(&self, i: usize) -> Result<Vec<Value>> {
        if i >= self.n_rows {
            return Err(DataFrameError::RowOutOfBounds {
                index: i,
                len: self.n_rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.get(i).to_owned()).collect())
    }
}

/// Indices of the values `keep` accepts, nulls kept iff `keep_null`.
fn select<T: Copy>(values: &[Option<T>], keep: impl Fn(T) -> bool, keep_null: bool) -> Vec<usize> {
    (0..values.len())
        .filter(|&i| values[i].map_or(keep_null, &keep))
        .collect()
}

impl fmt::Display for DataFrame {
    /// Render a compact table preview (up to 10 rows), used in notebooks.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview = 10.min(self.n_rows);
        let names = self.schema.names();
        // Column widths.
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(preview);
        for r in 0..preview {
            let row: Vec<String> = (0..self.n_cols())
                .map(|c| self.columns[c].get(r).to_string())
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        for (name, w) in names.iter().zip(&widths) {
            write!(f, "| {name:w$} ")?;
        }
        writeln!(f, "|")?;
        for w in &widths {
            write!(f, "|{}", "-".repeat(w + 2))?;
        }
        writeln!(f, "|")?;
        for row in &cells {
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, "| {cell:w$} ")?;
            }
            writeln!(f, "|")?;
        }
        if self.n_rows > preview {
            writeln!(f, "... {} rows total", self.n_rows)?;
        }
        Ok(())
    }
}

/// Incremental builder for [`DataFrame`].
#[derive(Default)]
pub struct DataFrameBuilder {
    pairs: Vec<(Field, Column)>,
    error: Option<DataFrameError>,
}

impl DataFrameBuilder {
    /// Add an integer column.
    pub fn int(
        mut self,
        name: &str,
        role: AttrRole,
        values: impl IntoIterator<Item = Option<i64>>,
    ) -> Self {
        self.pairs.push((
            Field::new(name, DType::Int, role),
            Column::from_ints(values),
        ));
        self
    }

    /// Add a float column.
    pub fn float(
        mut self,
        name: &str,
        role: AttrRole,
        values: impl IntoIterator<Item = Option<f64>>,
    ) -> Self {
        self.pairs.push((
            Field::new(name, DType::Float, role),
            Column::from_floats(values),
        ));
        self
    }

    /// Add a boolean column.
    pub fn bool(
        mut self,
        name: &str,
        role: AttrRole,
        values: impl IntoIterator<Item = Option<bool>>,
    ) -> Self {
        self.pairs.push((
            Field::new(name, DType::Bool, role),
            Column::from_bools(values),
        ));
        self
    }

    /// Add a string column.
    pub fn str<'a>(
        mut self,
        name: &str,
        role: AttrRole,
        values: impl IntoIterator<Item = Option<&'a str>>,
    ) -> Self {
        self.pairs.push((
            Field::new(name, DType::Str, role),
            Column::from_strs(values),
        ));
        self
    }

    /// Add a string column from owned strings.
    pub fn str_owned(
        mut self,
        name: &str,
        role: AttrRole,
        values: impl IntoIterator<Item = Option<String>>,
    ) -> Self {
        let mut col = crate::column::StrColumn::new();
        for v in values {
            col.push(v.as_deref());
        }
        self.pairs
            .push((Field::new(name, DType::Str, role), Column::Str(col)));
        self
    }

    /// Add a pre-built column.
    pub fn column(mut self, field: Field, column: Column) -> Self {
        self.pairs.push((field, column));
        self
    }

    /// Finish, validating lengths and duplicates.
    pub fn build(self) -> Result<DataFrame> {
        if let Some(e) = self.error {
            return Err(e);
        }
        DataFrame::new(self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::CmpOp;

    fn flights() -> DataFrame {
        DataFrame::builder()
            .str(
                "airline",
                AttrRole::Categorical,
                vec![Some("AA"), Some("DL"), Some("AA"), Some("UA"), None],
            )
            .int(
                "delay",
                AttrRole::Numeric,
                vec![Some(10), Some(-3), Some(45), Some(0), Some(7)],
            )
            .float(
                "distance",
                AttrRole::Numeric,
                vec![Some(500.0), Some(1200.0), Some(500.0), None, Some(800.0)],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let df = flights();
        assert_eq!(df.n_rows(), 5);
        assert_eq!(df.n_cols(), 3);
        assert_eq!(df.schema().names(), vec!["airline", "delay", "distance"]);
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = DataFrame::builder()
            .int("a", AttrRole::Numeric, vec![Some(1)])
            .int("b", AttrRole::Numeric, vec![Some(1), Some(2)])
            .build()
            .unwrap_err();
        assert!(matches!(err, DataFrameError::LengthMismatch { .. }));
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = DataFrame::builder()
            .int("a", AttrRole::Numeric, vec![Some(1)])
            .int("a", AttrRole::Numeric, vec![Some(2)])
            .build()
            .unwrap_err();
        assert!(matches!(err, DataFrameError::DuplicateColumn(_)));
    }

    #[test]
    fn filter_numeric() {
        let df = flights();
        let out = df
            .filter(&Predicate::new("delay", CmpOp::Gt, 5i64))
            .unwrap();
        assert_eq!(out.n_rows(), 3); // 10, 45, 7
        assert_eq!(out.value(0, "delay").unwrap(), ValueRef::Int(10));
    }

    #[test]
    fn filter_string_eq() {
        let df = flights();
        let out = df
            .filter(&Predicate::new("airline", CmpOp::Eq, "AA"))
            .unwrap();
        assert_eq!(out.n_rows(), 2);
    }

    #[test]
    fn filter_missing_column() {
        let df = flights();
        let err = df
            .filter(&Predicate::new("nope", CmpOp::Eq, 1i64))
            .unwrap_err();
        assert!(matches!(err, DataFrameError::ColumnNotFound(_)));
    }

    #[test]
    fn filter_incompatible_op() {
        let df = flights();
        let err = df
            .filter(&Predicate::new("delay", CmpOp::Contains, "4"))
            .unwrap_err();
        assert!(matches!(err, DataFrameError::IncompatibleOp { .. }));
    }

    #[test]
    fn sort_nulls_last() {
        let df = flights();
        let sorted = df.sort_by("distance", false).unwrap();
        assert_eq!(sorted.value(0, "distance").unwrap(), ValueRef::Float(500.0));
        assert!(sorted.value(4, "distance").unwrap().is_null());
        let desc = df.sort_by("distance", true).unwrap();
        assert_eq!(desc.value(0, "distance").unwrap(), ValueRef::Float(1200.0));
        assert!(desc.value(4, "distance").unwrap().is_null());
    }

    #[test]
    fn select_and_head() {
        let df = flights();
        let sel = df.select(&["delay"]).unwrap();
        assert_eq!(sel.n_cols(), 1);
        assert_eq!(sel.n_rows(), 5);
        let h = df.head(2);
        assert_eq!(h.n_rows(), 2);
        assert_eq!(df.head(99).n_rows(), 5);
    }

    #[test]
    fn row_access() {
        let df = flights();
        let row = df.row(1).unwrap();
        assert_eq!(row[0], Value::Str("DL".into()));
        assert_eq!(row[1], Value::Int(-3));
        assert!(df.row(9).is_err());
    }

    #[test]
    fn display_renders_header() {
        let df = flights();
        let s = df.to_string();
        assert!(s.contains("airline"));
        assert!(s.contains("delay"));
    }
}
