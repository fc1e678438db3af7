//! Dependency-free structured values: a JSON-style document model with a
//! JSON reader/writer and a TOML-subset reader.
//!
//! The build environment has no registry access, so instead of serde the
//! engine parses campaign specs through this small module. Both spec
//! syntaxes (TOML and JSON) decode into the same [`Value`] tree. All
//! engine output is canonical JSON from one streaming writer: results
//! files and the cache's on-disk form are written straight from their
//! typed data, field by field, and [`Value::to_json`] walks a tree
//! through the same writer. The output is deterministic: tables keep a
//! fixed field order, floats use Rust's shortest round-trip formatting,
//! and non-finite floats map to `null`.

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
        let mut w = JsonWriter::compact();
        self.write_json(&mut w);
        w.finish()
    }

    /// Render as pretty-printed JSON with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write_json(&mut w);
        w.finish()
    }

    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(i) => w.int(*i),
            Value::Float(f) => w.float(*f),
            Value::Str(s) => w.str(s),
            Value::Array(items) => {
                w.begin_array();
                for item in items {
                    item.write_json(w);
                }
                w.end_array();
            }
            Value::Table(pairs) => {
                w.begin_table();
                for (k, v) in pairs {
                    w.key(k);
                    v.write_json(w);
                }
                w.end_table();
            }
        }
    }
}

/// The one JSON writer: it writes a document as it goes, container by
/// container and field by field, so typed data (results and cache files)
/// is written without building a [`Value`] tree first, and a tree is
/// written by walking it through the same rules. Compact or pretty (two
/// spaces per level, `"key": value`, a trailing newline); an empty
/// container is `{}` or `[]` on one line.
pub(crate) struct JsonWriter {
    out: String,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// The innermost open container has no element yet.
    first: bool,
    /// A key was just written; its value follows with no separator.
    after_key: bool,
}

impl JsonWriter {
    /// A writer of compact JSON.
    pub(crate) fn compact() -> Self {
        Self {
            out: String::new(),
            pretty: false,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// A writer of pretty-printed JSON.
    pub(crate) fn pretty() -> Self {
        Self {
            pretty: true,
            ..Self::compact()
        }
    }

    /// The document (pretty documents end in a newline).
    pub(crate) fn finish(mut self) -> String {
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }

    /// Pretty mode only: a line break indented to the current depth.
    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
        }
    }

    /// What goes before an element: nothing after a key or at the top
    /// level, else a comma unless it is the container's first element,
    /// then a line break.
    fn element(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if self.depth > 0 {
            if !self.first {
                self.out.push(',');
            }
            self.newline();
        }
        self.first = false;
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.element();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
        self
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    /// Open a table; [`JsonWriter::key`] starts each field.
    pub(crate) fn begin_table(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Close the innermost table.
    pub(crate) fn end_table(&mut self) {
        self.close('}');
    }

    /// Open an array.
    pub(crate) fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Close the innermost array.
    pub(crate) fn end_array(&mut self) {
        self.close(']');
    }

    /// Start a table field; its value is the next thing written.
    pub(crate) fn key(&mut self, k: &str) -> &mut Self {
        self.element();
        write_json_str(&mut self.out, k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// `null`.
    pub(crate) fn null(&mut self) {
        self.element();
        self.out.push_str("null");
    }

    /// `true` or `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.element();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An integer.
    pub(crate) fn int(&mut self, i: i64) {
        self.element();
        let _ = write!(self.out, "{i}");
    }

    /// A float in its shortest round-trip form; non-finite values become
    /// `null` (JSON has no inf/NaN).
    pub(crate) fn float(&mut self, f: f64) {
        self.element();
        if f.is_finite() {
            // `{:?}` is Rust's shortest round-trip form ("1.0", "1e-12", …),
            // deterministic for a given bit pattern.
            let _ = write!(self.out, "{f:?}");
        } else {
            self.out.push_str("null");
        }
    }

    /// A string.
    pub(crate) fn str(&mut self, s: &str) {
        self.element();
        write_json_str(&mut self.out, s);
    }

    /// A string of 16 lowercase hex digits spelling `x` (hashes and
    /// checksums).
    pub(crate) fn hex(&mut self, x: u64) {
        self.element();
        self.out.push('"');
        for d in hex16(x) {
            self.out.push(d as char);
        }
        self.out.push('"');
    }

    /// Float fields, in order.
    pub(crate) fn floats(&mut self, fields: &[(&str, f64)]) {
        for &(k, x) in fields {
            self.key(k).float(x);
        }
    }
}

/// `x` as 16 lowercase hex digits, the `{:016x}` spelling.
pub(crate) fn hex16(x: u64) -> [u8; 16] {
    let mut hex = [0u8; 16];
    for (i, d) in hex.iter_mut().enumerate() {
        *d = b"0123456789abcdef"[(x >> (60 - 4 * i)) as usize & 0xf];
    }
    hex
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    // The run before the first byte to escape goes in whole; that byte is
    // ASCII, so the cut is a char boundary.
    let clean = s
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(s.len());
    out.push_str(&s[..clean]);
    for c in s[clean..].chars() {
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
            // The run up to the next `"` or `\` goes in whole: both are
            // ASCII, so the cut is a char boundary.
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            s.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(s);
            }
            // A `\`: one escape.
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
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
                    s.push(char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))?);
                    self.pos += 4;
                }
                _ => return Err(self.err("invalid escape")),
            }
            self.pos += 1;
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

    /// The writer's bytes, compact and pretty, on every node kind: empty
    /// and nested containers, integers, non-finite floats and strings that
    /// need escaping. Result and cache files are written by these rules.
    #[test]
    fn json_writer_bytes_are_pinned() {
        let doc = Value::Table(vec![
            ("empty_table".into(), Value::Table(vec![])),
            ("empty_array".into(), Value::Array(vec![])),
            (
                "nested".into(),
                Value::Array(vec![
                    Value::Table(vec![
                        ("a".into(), Value::Int(0)),
                        ("b".into(), Value::Array(vec![Value::Null])),
                    ]),
                    Value::Array(vec![Value::Array(vec![]), Value::Table(vec![])]),
                ]),
            ),
            (
                "ints".into(),
                Value::Array(vec![
                    Value::Int(-3),
                    Value::Int(i64::MAX),
                    Value::Int(i64::MIN),
                ]),
            ),
            (
                "floats".into(),
                Value::Array(vec![
                    Value::Float(1.0),
                    Value::Float(-0.0),
                    Value::Float(1e-12),
                    Value::Float(123456.789),
                    Value::Float(1e300),
                    Value::Float(f64::INFINITY),
                    Value::Float(f64::NEG_INFINITY),
                    Value::Float(f64::NAN),
                ]),
            ),
            (
                "bools".into(),
                Value::Array(vec![Value::Bool(true), Value::Bool(false)]),
            ),
            (
                "k\"ey\\\n".into(),
                Value::Str("q\" b\\ n\n r\r t\t c\u{1}\u{1f} del\u{7f} é 𝄞 /".into()),
            ),
        ]);
        let compact = concat!(
            r#"{"empty_table":{},"empty_array":[],"nested":[{"a":0,"b":[null]},[[],{}]],"#,
            r#""ints":[-3,9223372036854775807,-9223372036854775808],"#,
            r#""floats":[1.0,-0.0,1e-12,123456.789,1e300,null,null,null],"#,
            r#""bools":[true,false],"#,
            "\"k\\\"ey\\\\\\n\":\"q\\\" b\\\\ n\\n r\\r t\\t c\\u0001\\u001f del\u{7f} é 𝄞 /\"}",
        );
        assert_eq!(doc.to_json(), compact, "compact JSON bytes moved");
        let pretty = concat!(
            "{\n",
            "  \"empty_table\": {},\n",
            "  \"empty_array\": [],\n",
            "  \"nested\": [\n",
            "    {\n",
            "      \"a\": 0,\n",
            "      \"b\": [\n",
            "        null\n",
            "      ]\n",
            "    },\n",
            "    [\n",
            "      [],\n",
            "      {}\n",
            "    ]\n",
            "  ],\n",
            "  \"ints\": [\n",
            "    -3,\n",
            "    9223372036854775807,\n",
            "    -9223372036854775808\n",
            "  ],\n",
            "  \"floats\": [\n",
            "    1.0,\n",
            "    -0.0,\n",
            "    1e-12,\n",
            "    123456.789,\n",
            "    1e300,\n",
            "    null,\n",
            "    null,\n",
            "    null\n",
            "  ],\n",
            "  \"bools\": [\n",
            "    true,\n",
            "    false\n",
            "  ],\n",
            "  \"k\\\"ey\\\\\\n\": \"q\\\" b\\\\ n\\n r\\r t\\t c\\u0001\\u001f del\u{7f} é 𝄞 /\"\n",
            "}\n",
        );
        assert_eq!(doc.to_json_pretty(), pretty, "pretty JSON bytes moved");
    }

    /// `parse_json` on strings: escapes, raw multibyte and control
    /// characters, and the errors (message, line and column) of a lone
    /// surrogate, an invalid, cut or truncated escape and an unterminated
    /// string.
    #[test]
    fn parser_strings_are_pinned() {
        let show = |input: &str| match parse_json(input) {
            Ok(v) => format!("{v:?}"),
            Err(e) => format!("error: {e}"),
        };
        let cases: &[(&str, &str)] = &[
            (
                r#""q\" b\\ s\/ n\n ué end""#,
                r#"Str("q\" b\\ s/ n\n ué end")"#,
            ),
            (r#""\r\t\u0001""#, r#"Str("\r\t\u{1}")"#),
            ("\"é𝄞 raw\"", r#"Str("é𝄞 raw")"#),
            ("\"a\u{1}b\"", r#"Str("a\u{1}b")"#),
            ("\"\"", r#"Str("")"#),
            (
                "{\"k\\u00e9y\": \"é\\n\", \"x\": [\"\", \"y\"]}",
                r#"Table([("kéy", Str("é\n")), ("x", Array([Str(""), Str("y")]))])"#,
            ),
            (
                r#""\ud83d""#,
                "error: invalid \\u code point at line 1, column 3",
            ),
            (r#""ab\qc""#, "error: invalid escape at line 1, column 5"),
            (
                r#""ab\u12zz""#,
                "error: invalid \\u escape at line 1, column 5",
            ),
            (
                "\"ab\\u1",
                "error: truncated \\u escape at line 1, column 5",
            ),
            ("\"é\\", "error: invalid escape at line 1, column 5"),
            ("\"abc", "error: unterminated string at line 1, column 5"),
            ("\"é𝄞", "error: unterminated string at line 1, column 8"),
            (
                "[\n  \"ok\",\n  \"b\u{e9}d\\x\"\n]",
                "error: invalid escape at line 3, column 9",
            ),
            (
                "\"ab\" x",
                "error: trailing content after JSON value at line 1, column 6",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(&show(input), want, "parse of {input:?} moved");
        }
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
