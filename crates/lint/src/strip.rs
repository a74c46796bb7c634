//! Lexical preprocessing for the lint pass.
//!
//! Rust source is split into per-line *code* and *comment* channels: string,
//! raw-string, byte-string, and char literals are blanked out of the code
//! channel (so a pattern mentioned inside a string never matches), while
//! comment text is preserved separately (so `// SAFETY:` and
//! `// atena-lint: allow(...)` annotations stay inspectable). A second pass
//! tracks brace depth to mark every line inside a `#[cfg(test)]` item, which
//! the rules treat as exempt.
//!
//! This is deliberately a lexer, not a parser: it only needs to be right
//! about where comments, literals, and braces are, which a character-level
//! state machine handles for the entire workspace (including the shims).

/// One physical source line after lexical preprocessing.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code with comments and string/char literal contents removed.
    pub code: String,
    /// Concatenated comment text that appeared on this line.
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

enum State {
    Code,
    LineComment,
    /// Nested block comments; Rust allows `/* /* */ */`.
    Block(u32),
    /// Ordinary `"..."` or `b"..."` string literal.
    Str,
    /// Raw string `r##"..."##` with the given number of `#`s.
    RawStr(usize),
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Length of the char literal starting at `b[0] == b'\''`, or `None` when the
/// quote starts a lifetime instead. Handles escapes (`'\n'`, `'\u{1F600}'`)
/// and multibyte chars; lifetimes are always ASCII identifiers, so a quote
/// not closed immediately after one scalar value is a lifetime.
fn char_literal_len(b: &[u8]) -> Option<usize> {
    debug_assert_eq!(b.first(), Some(&b'\''));
    match b.get(1) {
        Some(b'\\') => {
            // Escaped: scan to the closing quote.
            let mut i = 2;
            while i < b.len() {
                if b[i] == b'\\' {
                    i += 2;
                    continue;
                }
                if b[i] == b'\'' {
                    return Some(i + 1);
                }
                i += 1;
            }
            None
        }
        Some(&c) if c >= 0x80 => {
            // Multibyte scalar: skip its UTF-8 continuation bytes.
            let mut i = 2;
            while i < b.len() && (b[i] & 0xC0) == 0x80 {
                i += 1;
            }
            (b.get(i) == Some(&b'\'')).then_some(i + 1)
        }
        Some(_) => (b.get(2) == Some(&b'\'')).then_some(3),
        None => None,
    }
}

/// If `b` starts a raw (byte) string opener (`r"`, `r#"`, `br##"`, ...),
/// returns `(bytes_to_skip, hash_count)`.
fn raw_str_open(b: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0;
    if b.get(i) == Some(&b'b') {
        i += 1;
    }
    if b.get(i) != Some(&b'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    (b.get(i) == Some(&b'"')).then_some((i + 1, hashes))
}

/// Split `src` into preprocessed lines (see module docs).
pub fn preprocess(src: &str) -> Vec<Line> {
    let b = src.as_bytes();
    let mut lines: Vec<Line> = Vec::new();
    let mut code: Vec<u8> = Vec::new();
    let mut comment: Vec<u8> = Vec::new();
    let mut state = State::Code;
    let mut i = 0;

    macro_rules! flush_line {
        () => {
            lines.push(Line {
                code: String::from_utf8_lossy(&code).into_owned(),
                comment: String::from_utf8_lossy(&comment).into_owned(),
                in_test: false,
            });
            code.clear();
            comment.clear();
        };
    }

    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    state = State::Block(1);
                    i += 2;
                    continue;
                }
                if c == b'"' {
                    state = State::Str;
                    code.push(b' ');
                    i += 1;
                    continue;
                }
                // Raw strings and byte strings — only when the prefix letter
                // isn't the tail of an identifier (e.g. `for r in rows`).
                if (c == b'r' || c == b'b') && !code.last().copied().is_some_and(is_ident_byte) {
                    if let Some((skip, hashes)) = raw_str_open(&b[i..]) {
                        state = State::RawStr(hashes);
                        code.push(b' ');
                        i += skip;
                        continue;
                    }
                    if c == b'b' && b.get(i + 1) == Some(&b'"') {
                        state = State::Str;
                        code.push(b' ');
                        i += 2;
                        continue;
                    }
                    if c == b'b' && b.get(i + 1) == Some(&b'\'') {
                        if let Some(len) = char_literal_len(&b[i + 1..]) {
                            code.push(b' ');
                            i += 1 + len;
                            continue;
                        }
                    }
                }
                if c == b'\'' {
                    if let Some(len) = char_literal_len(&b[i..]) {
                        code.push(b' ');
                        i += len;
                        continue;
                    }
                    // Lifetime: keep the tick so `'a` stays visible as code.
                    code.push(b'\'');
                    i += 1;
                    continue;
                }
                code.push(c);
                i += 1;
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::Block(depth) => {
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    state = State::Block(depth + 1);
                    i += 2;
                    continue;
                }
                if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    i += 2;
                    continue;
                }
                comment.push(c);
                i += 1;
            }
            State::Str => {
                if c == b'\\' {
                    i += 2;
                    continue;
                }
                if c == b'"' {
                    state = State::Code;
                    i += 1;
                    continue;
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == b'"' {
                    let tail = &b[i + 1..];
                    if tail.len() >= hashes && tail[..hashes].iter().all(|&h| h == b'#') {
                        state = State::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        flush_line!();
    }

    mark_test_regions(&mut lines);
    lines
}

/// Mark lines inside `#[cfg(test)]` items by tracking brace depth. An
/// armed attribute latches onto the next `{` at the current depth; a `;`
/// before any brace disarms it (e.g. `#[cfg(test)] use foo;`). Out-of-line
/// `#[cfg(test)] mod x;` modules are not followed — the workspace keeps its
/// test modules inline.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut armed = false;
    let mut region_depth: Option<i64> = None;
    for line in lines.iter_mut() {
        if region_depth.is_some() {
            line.in_test = true;
        }
        if line.code.contains("cfg(test)") || line.code.contains("cfg(all(test") {
            armed = true;
            line.in_test = true;
        }
        if armed && region_depth.is_none() {
            line.in_test = true;
        }
        for ch in line.code.bytes() {
            match ch {
                b'{' => {
                    if armed && region_depth.is_none() {
                        region_depth = Some(depth);
                        armed = false;
                        line.in_test = true;
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if region_depth == Some(depth) {
                        region_depth = None;
                    }
                }
                b';' if armed && region_depth.is_none() => armed = false,
                _ => {}
            }
        }
    }
}

/// Parse an `atena-lint: allow(<rule>) — <reason>` annotation out of comment
/// text. Returns `(rule_id, reason)`; a missing or empty reason yields an
/// empty string, which the caller rejects (reasons are mandatory).
pub fn parse_allow(comment: &str) -> Option<(String, String)> {
    let idx = comment.find("atena-lint:")?;
    let rest = comment[idx + "atena-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | ','))
        .trim()
        .to_string();
    Some((rule, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let lines = preprocess("let x = \"HashMap\"; // HashMap in comment\n");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.contains("HashMap in comment"));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let lines = preprocess("let x = r#\"Instant::now()\"#; let y = 1;\n");
        assert!(!lines[0].code.contains("Instant::now"));
        assert!(lines[0].code.contains("let y = 1;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lines = preprocess("fn f<'a>(x: &'a str) -> char { 'x' }\n");
        assert!(lines[0].code.contains("<'a>"));
        assert!(!lines[0].code.contains("'x'"));
    }

    #[test]
    fn escaped_char_literal() {
        let lines = preprocess("let q = '\\''; let u = '\\u{1F600}'; let ok = 1;\n");
        assert!(lines[0].code.contains("let ok = 1;"));
    }

    #[test]
    fn block_comments_nest() {
        let lines = preprocess("/* outer /* inner */ still */ let z = 2;\n");
        assert!(lines[0].code.contains("let z = 2;"));
        assert!(lines[0].comment.contains("inner"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let m = 1; }\n}\nfn after() {}\n";
        let lines = preprocess(src);
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test);
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(lines[4].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn cfg_test_use_item_disarms() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() { let x = 1; }\n";
        let lines = preprocess(src);
        assert!(!lines[2].in_test);
    }

    #[test]
    fn parse_allow_grammar() {
        let (rule, reason) =
            parse_allow(" atena-lint: allow(hash-order) — lookup-only dictionary index").unwrap();
        assert_eq!(rule, "hash-order");
        assert_eq!(reason, "lookup-only dictionary index");
        let (_, reason) = parse_allow(" atena-lint: allow(wall-clock)").unwrap();
        assert!(reason.is_empty());
        assert!(parse_allow("just a comment").is_none());
    }
}
