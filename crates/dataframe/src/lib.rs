//! # atena-dataframe
//!
//! A small, from-scratch columnar dataframe engine — the substrate the ATENA
//! EDA environment executes its analysis operations on (the role pandas
//! plays in the original paper).
//!
//! Capabilities:
//! - typed nullable columns (`Int`, `Float`, `Bool`, dictionary-encoded `Str`)
//! - filter predicates (`==`, `!=`, `<`, `>`, `<=`, `>=`, `contains`,
//!   `starts_with`) with pandas-like null semantics
//! - group-by over one or more keys with `COUNT`/`SUM`/`AVG`/`MIN`/`MAX`
//!   aggregates
//! - column statistics: entropy, distinct counts, null counts, value
//!   probability distributions (for KL-divergence rewards), numeric summaries
//! - CSV ingestion with type and semantic-role inference
//!
//! ```
//! use atena_dataframe::{AggFunc, AttrRole, CmpOp, DataFrame, Predicate};
//!
//! let df = DataFrame::builder()
//!     .str("airline", AttrRole::Categorical, vec![Some("AA"), Some("DL"), Some("AA")])
//!     .int("delay", AttrRole::Numeric, vec![Some(10), Some(25), Some(40)])
//!     .build()
//!     .unwrap();
//!
//! let late = df.filter(&Predicate::new("delay", CmpOp::Gt, 15i64)).unwrap();
//! assert_eq!(late.n_rows(), 2);
//!
//! let by_airline = df.group_aggregate(&["airline"], AggFunc::Avg, "delay").unwrap();
//! assert_eq!(by_airline.n_rows(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod column;
mod csv;
mod csv_stream;
mod error;
mod filter;
mod frame;
mod groupby;
mod hashing;
mod memo;
mod schema;
mod stats;
mod value;

pub use column::{Column, ColumnIter, StrColumn};
pub use csv_stream::{parse_csv_bytes, CsvLimits, CsvStreamError, CsvStreamParser};
pub use error::{DataFrameError, Result};
pub use filter::{CmpOp, Predicate};
pub use frame::{DataFrame, DataFrameBuilder};
pub use groupby::{AggFunc, Groups};
pub use hashing::StableHasher;
pub use schema::{AttrRole, Field, Schema};
pub use stats::{entropy_of_counts, ColumnStats, NumericSummary, ValueDistribution};
pub use value::{DType, Value, ValueKey, ValueRef};
