//! Streaming CSV ingest with bounded memory and one-pass schema inference.
//!
//! [`CsvStreamParser`] accepts the input as arbitrary byte chunks (for
//! example straight off a socket), so quoted fields may span chunk
//! boundaries — including multi-byte UTF-8 sequences and embedded
//! newlines, which the line-oriented [`DataFrame::from_csv_str`] entry
//! point historically could not represent. Hard caps on total bytes,
//! rows and columns are enforced *during* the scan so an oversized or
//! adversarial upload fails before it can balloon resident memory.
//!
//! The grammar is byte-for-byte compatible with the original
//! line-oriented reader: RFC-4180-style quoting with doubled-quote
//! escapes, blank (whitespace-only) physical lines skipped anywhere,
//! a lone `\r` stripped only when it immediately precedes `\n`, empty
//! cells decoded as nulls, and error messages carrying 1-based
//! *physical* line numbers.

use crate::column::Column;
use crate::error::DataFrameError;
use crate::frame::DataFrame;
use crate::schema::{AttrRole, Field};
use crate::value::DType;
use std::fmt;

/// Hard caps applied while streaming a CSV body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvLimits {
    /// Maximum raw input bytes accepted (`usize::MAX` disables the cap).
    pub max_bytes: usize,
    /// Maximum number of data rows (header excluded).
    pub max_rows: usize,
    /// Maximum number of columns.
    pub max_cols: usize,
}

impl CsvLimits {
    /// No caps — used by [`DataFrame::from_csv_str`] for trusted input.
    pub fn unlimited() -> Self {
        CsvLimits {
            max_bytes: usize::MAX,
            max_rows: usize::MAX,
            max_cols: usize::MAX,
        }
    }
}

impl Default for CsvLimits {
    fn default() -> Self {
        CsvLimits::unlimited()
    }
}

/// Errors produced while streaming CSV input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvStreamError {
    /// Malformed input (bad quoting, ragged row, invalid UTF-8, …).
    Csv {
        /// 1-based physical line number where the problem was detected.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The input exceeded [`CsvLimits::max_bytes`].
    TooManyBytes {
        /// The configured cap.
        limit: usize,
    },
    /// The input exceeded [`CsvLimits::max_rows`].
    TooManyRows {
        /// The configured cap.
        limit: usize,
    },
    /// The header declared more columns than [`CsvLimits::max_cols`].
    TooManyColumns {
        /// Columns found in the header.
        found: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl fmt::Display for CsvStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvStreamError::Csv { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            CsvStreamError::TooManyBytes { limit } => {
                write!(f, "input exceeds byte limit of {limit}")
            }
            CsvStreamError::TooManyRows { limit } => {
                write!(f, "input exceeds row limit of {limit}")
            }
            CsvStreamError::TooManyColumns { found, limit } => {
                write!(f, "header has {found} columns, limit is {limit}")
            }
        }
    }
}

impl std::error::Error for CsvStreamError {}

impl From<CsvStreamError> for DataFrameError {
    fn from(e: CsvStreamError) -> Self {
        match e {
            CsvStreamError::Csv { line, message } => DataFrameError::Csv { line, message },
            other => DataFrameError::Csv {
                line: 0,
                message: other.to_string(),
            },
        }
    }
}

/// Per-column dtype-narrowing flags, updated as each cell arrives so
/// the final inference is a constant-time decision per column.
#[derive(Debug, Clone, Copy)]
struct TypeFlags {
    all_int: bool,
    all_float: bool,
    all_bool: bool,
    saw_value: bool,
}

impl TypeFlags {
    fn new() -> Self {
        TypeFlags {
            all_int: true,
            all_float: true,
            all_bool: true,
            saw_value: false,
        }
    }

    fn observe(&mut self, cell: &str) {
        if cell.is_empty() {
            return;
        }
        self.saw_value = true;
        if self.all_int && cell.parse::<i64>().is_err() {
            self.all_int = false;
        }
        if self.all_float && cell.parse::<f64>().is_err() {
            self.all_float = false;
        }
        if self.all_bool && !matches!(cell, "true" | "false" | "True" | "False") {
            self.all_bool = false;
        }
    }

    fn dtype(&self) -> DType {
        if !self.saw_value {
            DType::Str
        } else if self.all_bool {
            DType::Bool
        } else if self.all_int {
            DType::Int
        } else if self.all_float {
            DType::Float
        } else {
            DType::Str
        }
    }
}

/// Quote-tracking state of the byte scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanState {
    /// Outside any quoted section.
    Unquoted,
    /// Inside a quoted section.
    InQuotes,
    /// Saw `"` while quoted; the next byte decides escape vs. close.
    AfterQuote,
}

/// Incremental CSV parser: feed bytes with [`push`](CsvStreamParser::push),
/// then call [`finish`](CsvStreamParser::finish) to obtain the frame.
#[derive(Debug)]
pub struct CsvStreamParser {
    limits: CsvLimits,
    state: ScanState,
    /// Raw bytes of the field currently being scanned (UTF-8 is validated
    /// once the field is complete, so multi-byte sequences may split
    /// across `push` chunks).
    field: Vec<u8>,
    /// Completed fields of the record currently being scanned.
    record: Vec<String>,
    /// Previous raw input byte (for the `\r\n` → `\n` normalization).
    prev_byte: u8,
    /// True if the current record contained a quote character — such
    /// records are never treated as skippable blank lines.
    saw_quote: bool,
    /// 1-based physical line currently being scanned.
    line: usize,
    /// Physical line on which the current record started.
    record_line: usize,
    /// Raw bytes consumed so far.
    bytes_seen: usize,
    /// Header names, once the first non-blank record completes.
    names: Option<Vec<String>>,
    /// Column-major cell storage for data rows.
    cols: Vec<Vec<String>>,
    flags: Vec<TypeFlags>,
    n_rows: usize,
}

impl CsvStreamParser {
    /// Create a parser enforcing the given limits.
    pub fn new(limits: CsvLimits) -> Self {
        CsvStreamParser {
            limits,
            state: ScanState::Unquoted,
            field: Vec::new(),
            record: Vec::new(),
            prev_byte: 0,
            saw_quote: false,
            line: 1,
            record_line: 1,
            bytes_seen: 0,
            names: None,
            cols: Vec::new(),
            flags: Vec::new(),
            n_rows: 0,
        }
    }

    /// Raw bytes consumed so far.
    pub fn bytes_seen(&self) -> usize {
        self.bytes_seen
    }

    /// Data rows accepted so far (header excluded).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Feed a chunk of raw bytes.
    pub fn push(&mut self, chunk: &[u8]) -> std::result::Result<(), CsvStreamError> {
        if self
            .bytes_seen
            .checked_add(chunk.len())
            .is_none_or(|total| total > self.limits.max_bytes)
        {
            return Err(CsvStreamError::TooManyBytes {
                limit: self.limits.max_bytes,
            });
        }
        self.bytes_seen += chunk.len();
        for &b in chunk {
            self.step(b)?;
            self.prev_byte = b;
        }
        Ok(())
    }

    fn step(&mut self, b: u8) -> std::result::Result<(), CsvStreamError> {
        if self.state == ScanState::AfterQuote {
            if b == b'"' {
                // Doubled quote: literal `"` and the section stays open.
                self.field.push(b'"');
                self.state = ScanState::InQuotes;
                return Ok(());
            }
            // The quote closed; fall through and rescan `b` unquoted.
            self.state = ScanState::Unquoted;
        }
        match self.state {
            ScanState::InQuotes => {
                if b == b'"' {
                    self.state = ScanState::AfterQuote;
                } else {
                    if b == b'\n' {
                        self.line += 1;
                    }
                    self.field.push(b);
                }
            }
            ScanState::Unquoted => match b {
                b'"' => {
                    if self.field.is_empty() {
                        self.state = ScanState::InQuotes;
                        self.saw_quote = true;
                    } else {
                        return Err(CsvStreamError::Csv {
                            line: self.record_line,
                            message: "unexpected quote inside unquoted field".into(),
                        });
                    }
                }
                b',' => self.end_field()?,
                b'\n' => {
                    // `\r` is a line terminator only as part of `\r\n`.
                    if self.prev_byte == b'\r' {
                        self.field.pop();
                    }
                    self.end_record()?;
                    self.line += 1;
                    self.record_line = self.line;
                }
                _ => self.field.push(b),
            },
            ScanState::AfterQuote => unreachable!("handled above"),
        }
        Ok(())
    }

    fn end_field(&mut self) -> std::result::Result<(), CsvStreamError> {
        let bytes = std::mem::take(&mut self.field);
        match String::from_utf8(bytes) {
            Ok(s) => {
                self.record.push(s);
                Ok(())
            }
            Err(_) => Err(CsvStreamError::Csv {
                line: self.record_line,
                message: "invalid utf-8 in field".into(),
            }),
        }
    }

    fn end_record(&mut self) -> std::result::Result<(), CsvStreamError> {
        self.end_field()?;
        let record = std::mem::take(&mut self.record);
        let saw_quote = std::mem::replace(&mut self.saw_quote, false);
        // Whitespace-only physical lines are skipped anywhere, matching
        // the line-oriented reader. A quoted empty field is *content*.
        if record.len() == 1 && !saw_quote && record[0].trim().is_empty() {
            return Ok(());
        }
        match &self.names {
            None => {
                if record.len() > self.limits.max_cols {
                    return Err(CsvStreamError::TooManyColumns {
                        found: record.len(),
                        limit: self.limits.max_cols,
                    });
                }
                self.cols = vec![Vec::new(); record.len()];
                self.flags = vec![TypeFlags::new(); record.len()];
                self.names = Some(record);
            }
            Some(names) => {
                if record.len() != names.len() {
                    return Err(CsvStreamError::Csv {
                        line: self.record_line,
                        message: format!("expected {} fields, found {}", names.len(), record.len()),
                    });
                }
                if self.n_rows + 1 > self.limits.max_rows {
                    return Err(CsvStreamError::TooManyRows {
                        limit: self.limits.max_rows,
                    });
                }
                self.n_rows += 1;
                for (c, cell) in record.into_iter().enumerate() {
                    self.flags[c].observe(&cell);
                    self.cols[c].push(cell);
                }
            }
        }
        Ok(())
    }

    /// Consume the parser, validating the trailing record, and build the
    /// typed [`DataFrame`].
    pub fn finish(mut self) -> std::result::Result<DataFrame, CsvStreamError> {
        match self.state {
            ScanState::InQuotes => {
                return Err(CsvStreamError::Csv {
                    line: self.record_line,
                    message: "unterminated quote".into(),
                });
            }
            ScanState::AfterQuote => self.state = ScanState::Unquoted,
            ScanState::Unquoted => {}
        }
        // A final record without a trailing newline still counts.
        if !self.field.is_empty() || !self.record.is_empty() || self.saw_quote {
            self.end_record()?;
        }
        let names = self.names.ok_or(CsvStreamError::Csv {
            line: 1,
            message: "empty input".into(),
        })?;
        let mut pairs = Vec::with_capacity(names.len());
        for (c, name) in names.into_iter().enumerate() {
            let dtype = self.flags[c].dtype();
            let cells: Vec<&str> = self.cols[c].iter().map(|s| s.as_str()).collect();
            let column = build_column(dtype, &cells);
            let role = AttrRole::infer(dtype, column.n_distinct(), column.len());
            pairs.push((Field::new(name, dtype, role), column));
        }
        DataFrame::new(pairs).map_err(|e| CsvStreamError::Csv {
            line: 0,
            message: e.to_string(),
        })
    }
}

/// One-shot convenience over [`CsvStreamParser`].
pub fn parse_csv_bytes(
    bytes: &[u8],
    limits: CsvLimits,
) -> std::result::Result<DataFrame, CsvStreamError> {
    let mut parser = CsvStreamParser::new(limits);
    parser.push(bytes)?;
    parser.finish()
}

pub(crate) fn build_column(dtype: DType, cells: &[&str]) -> Column {
    match dtype {
        DType::Int => Column::from_ints(cells.iter().map(|c| c.parse::<i64>().ok())),
        DType::Float => Column::from_floats(cells.iter().map(|c| c.parse::<f64>().ok())),
        DType::Bool => Column::from_bools(cells.iter().map(|c| match *c {
            "true" | "True" => Some(true),
            "false" | "False" => Some(false),
            _ => None,
        })),
        DType::Str => {
            Column::from_strs(
                cells
                    .iter()
                    .map(|c| if c.is_empty() { None } else { Some(*c) }),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueRef;

    fn parse(text: &str) -> DataFrame {
        parse_csv_bytes(text.as_bytes(), CsvLimits::unlimited()).unwrap()
    }

    #[test]
    fn chunked_pushes_match_single_push() {
        let csv = "name,age\n\"qu\"\"oted\",30\n\u{3042}\u{3044},\n";
        let whole = parse(csv);
        // Push one byte at a time: quotes, CRLF pairs and multi-byte
        // UTF-8 sequences all split across chunk boundaries.
        let mut p = CsvStreamParser::new(CsvLimits::unlimited());
        for b in csv.as_bytes() {
            p.push(std::slice::from_ref(b)).unwrap();
        }
        let piecewise = p.finish().unwrap();
        assert_eq!(whole.fingerprint(), piecewise.fingerprint());
        assert_eq!(whole.value(0, "name").unwrap(), ValueRef::Str("qu\"oted"));
    }

    #[test]
    fn embedded_newline_in_quoted_field() {
        let df = parse("k,v\n\"a\nb\",1\n");
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.value(0, "k").unwrap(), ValueRef::Str("a\nb"));
        // The embedded newline advances the physical line counter, so a
        // later ragged row reports its true physical line.
        let err =
            parse_csv_bytes(b"k,v\n\"a\nb\",1\nonly-one\n", CsvLimits::unlimited()).unwrap_err();
        assert_eq!(
            err,
            CsvStreamError::Csv {
                line: 4,
                message: "expected 2 fields, found 1".into()
            }
        );
    }

    #[test]
    fn crlf_and_bare_cr() {
        let df = parse("a,b\r\n1,x\r\n2,\"y\r\"\r\n");
        assert_eq!(df.value(0, "b").unwrap(), ValueRef::Str("x"));
        // `\r` inside quotes is content; only the terminator `\r\n` is folded.
        assert_eq!(df.value(1, "b").unwrap(), ValueRef::Str("y\r"));
        // Trailing bare `\r` at EOF is kept, mirroring `str::lines`.
        let df = parse("a\nv\r");
        assert_eq!(df.value(0, "a").unwrap(), ValueRef::Str("v\r"));
    }

    #[test]
    fn byte_limit_enforced_before_buffering_more() {
        let mut p = CsvStreamParser::new(CsvLimits {
            max_bytes: 10,
            max_rows: usize::MAX,
            max_cols: usize::MAX,
        });
        p.push(b"a,b\n1,2\n").unwrap();
        assert_eq!(
            p.push(b"3,4\n").unwrap_err(),
            CsvStreamError::TooManyBytes { limit: 10 }
        );
    }

    #[test]
    fn row_and_column_limits() {
        let limits = CsvLimits {
            max_bytes: usize::MAX,
            max_rows: 2,
            max_cols: usize::MAX,
        };
        assert!(parse_csv_bytes(b"a\n1\n2\n", limits).is_ok());
        assert_eq!(
            parse_csv_bytes(b"a\n1\n2\n3\n", limits).unwrap_err(),
            CsvStreamError::TooManyRows { limit: 2 }
        );
        let limits = CsvLimits {
            max_bytes: usize::MAX,
            max_rows: usize::MAX,
            max_cols: 2,
        };
        assert_eq!(
            parse_csv_bytes(b"a,b,c\n", limits).unwrap_err(),
            CsvStreamError::TooManyColumns { found: 3, limit: 2 }
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let err = parse_csv_bytes(b"a\n\xff\xfe\n", CsvLimits::unlimited()).unwrap_err();
        assert!(matches!(err, CsvStreamError::Csv { line: 2, .. }));
    }

    #[test]
    fn header_only_file_yields_empty_frame() {
        let df = parse("a,b\n");
        assert_eq!(df.n_rows(), 0);
        assert_eq!(df.n_cols(), 2);
    }

    #[test]
    fn final_record_without_newline() {
        let df = parse("a,b\n1,2");
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.value(0, "b").unwrap(), ValueRef::Int(2));
    }

    #[test]
    fn quoted_whitespace_is_not_a_blank_line() {
        let df = parse("a\n\"  \"\n");
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.value(0, "a").unwrap(), ValueRef::Str("  "));
    }
}
