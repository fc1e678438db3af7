//! Dependency-free structured values: a JSON-style document model with a
//! JSON reader/writer and a TOML-subset reader.
//!
//! The build environment has no registry access, so instead of serde the
//! engine parses campaign specs through this small module. Both spec
//! syntaxes (TOML and JSON) decode into the same [`Value`] tree, and all
//! engine output (results files, the cache's on-disk form) is written as
//! canonical JSON through [`Value::to_json`], which is deterministic:
//! tables keep a fixed field order, floats use Rust's shortest round-trip
//! formatting, and non-finite floats map to `null`.

use std::fmt::Write as _;

/// A structured document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also the encoding of non-finite floats).
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (TOML integers; JSON numbers without `.`/exponent).
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Table / object with insertion-ordered keys.
    Table(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in a table.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric coercion: ints widen to float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer accessor (floats with integral values are accepted).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 2f64.powi(53) => Some(*f as i64),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Table accessor: the insertion-ordered key/value pairs.
    pub fn as_table(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Table(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Render as compact canonical JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, None, 0);
        out
    }

    /// Render as pretty-printed JSON with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        // Pretty mode only: a line break indented `level` steps, written
        // straight into `out`.
        let newline = |out: &mut String, level: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * level));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => write_json_f64(out, *f),
            Value::Str(s) => write_json_str(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write_json(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Value::Table(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_json_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write_json(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

/// JSON-format a float: shortest round-trip representation; non-finite
/// values become `null` (JSON has no inf/NaN).
fn write_json_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{:?}` is Rust's shortest round-trip form ("1.0", "1e-12", …),
        // deterministic for a given bit pattern.
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with a byte offset converted to line/column.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at line {}, column {}",
            self.message, self.line, self.col
        )
    }
}

impl std::error::Error for ParseError {}

fn error_at(input: &str, pos: usize, message: impl Into<String>) -> ParseError {
    let (mut line, mut col) = (1, 1);
    for b in input.as_bytes().iter().take(pos) {
        if *b == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    ParseError {
        message: message.into(),
        line,
        col,
    }
}

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

/// Parse a JSON document.
pub fn parse_json(input: &str) -> Result<Value, ParseError> {
    let mut p = JsonParser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(error_at(input, p.pos, "trailing content after JSON value"));
    }
    Ok(v)
}

struct JsonParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        error_at(self.input, self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.table(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') | Some(b'f') => self.boolean(),
            Some(b'n') => {
                self.keyword("null")?;
                Ok(Value::Null)
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.input[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{kw}'")))
        }
    }

    fn boolean(&mut self) -> Result<Value, ParseError> {
        if self.input[self.pos..].starts_with("true") {
            self.pos += 4;
            Ok(Value::Bool(true))
        } else if self.input[self.pos..].starts_with("false") {
            self.pos += 5;
            Ok(Value::Bool(false))
        } else {
            Err(self.err("expected 'true' or 'false'"))
        }
    }

    fn table(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Table(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(Value::Table(pairs));
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(Value::Array(items));
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.input[self.pos..];
            let mut chars = rest.char_indices();
            match chars.next() {
                None => return Err(self.err("unterminated string")),
                Some((_, '"')) => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some((_, '\\')) => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .input
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some((i, c)) => {
                    s.push(c);
                    self.pos += chars.next().map(|(j, _)| j - i).unwrap_or(c.len_utf8());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let mut is_float = false;
        self.eat(b'-');
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| error_at(self.input, start, format!("invalid number '{text}'")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| error_at(self.input, start, format!("invalid number '{text}'")))
        }
    }
}

// ---------------------------------------------------------------------------
// TOML-subset reader
// ---------------------------------------------------------------------------

/// Parse a TOML-subset document into a [`Value::Table`].
///
/// Supported: `key = value` pairs, `[table]` headers, `[[array-of-tables]]`
/// headers, strings (`"..."` with basic escapes), integers, floats,
/// booleans, homogeneous arrays (single- or multi-line), inline tables
/// `{ a = 1 }`, and `#` comments. Unsupported TOML (dotted keys, dates,
/// multi-line strings) is reported as an error — campaign specs don't
/// need it.
pub fn parse_toml(input: &str) -> Result<Value, ParseError> {
    let mut root: Vec<(String, Value)> = Vec::new();
    // Path of the table currently receiving keys; indexes into nested
    // tables are re-resolved per line to keep borrows simple.
    let mut current_path: Vec<String> = Vec::new();
    let mut offset = 0usize;

    let mut lines = input.split_inclusive('\n').peekable();
    while let Some(line) = lines.next() {
        let line_start = offset;
        offset += line.len();
        let trimmed = strip_comment(line).trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("[[") {
            let name = rest
                .strip_suffix("]]")
                .ok_or_else(|| error_at(input, line_start, "unterminated [[header]]"))?
                .trim();
            if name.is_empty() || name.contains('.') {
                return Err(error_at(input, line_start, "unsupported table header"));
            }
            match root.iter_mut().find(|(k, _)| k == name) {
                Some((_, Value::Array(items))) => items.push(Value::Table(Vec::new())),
                Some(_) => {
                    return Err(error_at(
                        input,
                        line_start,
                        format!("[[{name}]] conflicts with an earlier non-array key '{name}'"),
                    ));
                }
                None => root.push((
                    name.to_string(),
                    Value::Array(vec![Value::Table(Vec::new())]),
                )),
            }
            current_path = vec![name.to_string()];
        } else if let Some(rest) = trimmed.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| error_at(input, line_start, "unterminated [header]"))?
                .trim();
            if name.is_empty() || name.contains('.') {
                return Err(error_at(input, line_start, "unsupported table header"));
            }
            match root.iter().find(|(k, _)| k == name) {
                Some((_, Value::Table(_))) | None => {}
                Some(_) => {
                    return Err(error_at(
                        input,
                        line_start,
                        format!("[{name}] conflicts with an earlier non-table key '{name}'"),
                    ));
                }
            }
            if !root.iter().any(|(k, _)| k == name) {
                root.push((name.to_string(), Value::Table(Vec::new())));
            }
            current_path = vec![name.to_string()];
        } else {
            let eq = trimmed
                .find('=')
                .ok_or_else(|| error_at(input, line_start, "expected 'key = value'"))?;
            let key = trimmed[..eq].trim();
            if key.is_empty() || key.contains('.') || key.contains('"') {
                return Err(error_at(input, line_start, "unsupported key"));
            }
            let mut value_text = trimmed[eq + 1..].trim().to_string();
            // Multi-line arrays: keep consuming lines until brackets
            // balance outside strings.
            while !brackets_balanced(&value_text) {
                let Some(next) = lines.next() else {
                    return Err(error_at(input, line_start, "unterminated array"));
                };
                offset += next.len();
                value_text.push(' ');
                value_text.push_str(strip_comment(next).trim());
            }
            let value =
                parse_toml_value(&value_text).map_err(|msg| error_at(input, line_start, msg))?;
            let table = resolve_path(&mut root, &current_path);
            if table.iter().any(|(k, _)| k == key) {
                return Err(error_at(
                    input,
                    line_start,
                    format!("duplicate key '{key}'"),
                ));
            }
            table.push((key.to_string(), value));
        }
    }
    Ok(Value::Table(root))
}

/// Remove a `#` comment that is outside any string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn brackets_balanced(text: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut prev_backslash = false;
    for c in text.chars() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    depth <= 0
}

/// Find the mutable table addressed by `path` ("" = root, one segment =
/// named table or the last element of an array-of-tables).
fn resolve_path<'a>(
    root: &'a mut Vec<(String, Value)>,
    path: &[String],
) -> &'a mut Vec<(String, Value)> {
    if path.is_empty() {
        return root;
    }
    let name = &path[0];
    let idx = root
        .iter()
        .position(|(k, _)| k == name)
        .expect("header registered");
    match &mut root[idx].1 {
        Value::Table(pairs) => pairs,
        Value::Array(items) => match items.last_mut() {
            Some(Value::Table(pairs)) => pairs,
            _ => unreachable!("array tables always end with a table"),
        },
        _ => unreachable!("headers only create tables or arrays"),
    }
}

/// Parse a single TOML value expression.
fn parse_toml_value(text: &str) -> Result<Value, String> {
    let text = text.trim();
    if text.is_empty() {
        return Err("empty value".into());
    }
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        return unescape_toml(inner);
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if text.starts_with('[') {
        if !text.ends_with(']') {
            return Err("unterminated array".into());
        }
        let items = split_top_level(&text[1..text.len() - 1])?;
        return Ok(Value::Array(
            items
                .into_iter()
                .map(|item| parse_toml_value(item.trim()))
                .collect::<Result<_, _>>()?,
        ));
    }
    if text.starts_with('{') {
        if !text.ends_with('}') {
            return Err("unterminated inline table".into());
        }
        let mut pairs = Vec::new();
        for item in split_top_level(&text[1..text.len() - 1])? {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let eq = item
                .find('=')
                .ok_or_else(|| format!("expected 'key = value' in inline table, got '{item}'"))?;
            let key = item[..eq].trim();
            pairs.push((key.to_string(), parse_toml_value(item[eq + 1..].trim())?));
        }
        return Ok(Value::Table(pairs));
    }
    // Number: TOML allows underscores as separators.
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    if cleaned.contains(['.', 'e', 'E']) || cleaned == "inf" || cleaned == "-inf" {
        cleaned
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("invalid value '{text}'"))
    } else {
        cleaned
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("invalid value '{text}'"))
    }
}

fn unescape_toml(inner: &str) -> Result<Value, String> {
    let mut s = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            s.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => s.push('"'),
            Some('\\') => s.push('\\'),
            Some('n') => s.push('\n'),
            Some('t') => s.push('\t'),
            Some('r') => s.push('\r'),
            other => return Err(format!("unsupported escape '\\{:?}'", other)),
        }
    }
    Ok(Value::Str(s))
}

/// Split on top-level commas (outside nested brackets and strings).
fn split_top_level(text: &str) -> Result<Vec<&str>, String> {
    let mut items = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut prev_backslash = false;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                items.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
        if depth < 0 {
            return Err("unbalanced brackets".into());
        }
    }
    if !text[start..].trim().is_empty() {
        items.push(&text[start..]);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let doc = Value::Table(vec![
            ("name".into(), Value::Str("x \"quoted\"".into())),
            ("n".into(), Value::Int(-3)),
            ("pi".into(), Value::Float(3.25)),
            ("inf".into(), Value::Float(f64::INFINITY)),
            (
                "arr".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("empty".into(), Value::Table(vec![])),
        ]);
        let text = doc.to_json();
        let back = parse_json(&text).unwrap();
        // INFINITY serialises as null; everything else survives.
        assert_eq!(back.get("name"), Some(&Value::Str("x \"quoted\"".into())));
        assert_eq!(back.get("n"), Some(&Value::Int(-3)));
        assert_eq!(back.get("pi"), Some(&Value::Float(3.25)));
        assert_eq!(back.get("inf"), Some(&Value::Null));
        assert_eq!(parse_json(&back.to_json()).unwrap(), back);
    }

    #[test]
    fn json_pretty_parses_back() {
        let doc = Value::Table(vec![(
            "xs".into(),
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
        )]);
        assert_eq!(parse_json(&doc.to_json_pretty()).unwrap(), doc);
    }

    #[test]
    fn toml_subset_parses() {
        let text = r#"
name = "demo"  # comment
threads = 4
ratio = 1.5
flag = true

[grid]
deltas_ns = [0.0, 10.5,
             20.0]
window = { lo = 0, hi = 100 }

[[workloads]]
app = "lulesh"
ranks = 8

[[workloads]]
app = "milc"
ranks = 16
"#;
        let v = parse_toml(text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(v.get("threads").unwrap().as_i64(), Some(4));
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        let grid = v.get("grid").unwrap();
        assert_eq!(grid.get("deltas_ns").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            grid.get("window").unwrap().get("hi").unwrap().as_i64(),
            Some(100)
        );
        let wl = v.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(wl.len(), 2);
        assert_eq!(wl[1].get("app").unwrap().as_str(), Some("milc"));
    }

    #[test]
    fn toml_rejects_header_key_collisions() {
        // A scalar key followed by a same-named header must be a clean
        // parse error, not a panic.
        assert!(parse_toml("workloads = 3\n[[workloads]]\napp = \"x\"").is_err());
        assert!(parse_toml("grid = 1\n[grid]\nx = 2").is_err());
        assert!(parse_toml("[grid]\nx = 2\n[[grid]]\ny = 3").is_err());
    }

    #[test]
    fn toml_rejects_unsupported() {
        assert!(parse_toml("a.b = 1").is_err());
        assert!(parse_toml("a = 1\na = 2").is_err());
        assert!(parse_toml("x =").is_err());
    }
}
