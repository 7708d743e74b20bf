//! A minimal, dependency-free JSON writer for the benchmark artifacts and the observability
//! exports.
//!
//! The workspace vendors no serialisation crate (the build environment has no registry
//! access), so the module carries its own formatter: [`JsonWriter`], a streaming
//! pretty-printer that appends one document to a `String` as the caller walks its data, with
//! no intermediate value tree. It escapes strings per RFC 8259, writes non-finite numbers as
//! `null` (JSON has no NaN/Infinity), and indents by two spaces so the artifacts diff cleanly
//! between CI runs. The large documents (the `TRACE_*`/`METRICS_*` exports) are streamed
//! through it directly; the small `BENCH_*.json` reports build a [`Json`] value tree, whose
//! [`Json::render`] is a walk over the same writer, so both come out in one layout.
//! [`Json::parse`] reads either back.

use core::fmt::{self, Write as _};

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialised without a decimal point).
    Int(i64),
    /// An unsigned integer (cycle counts exceed `i64` range in long simulations).
    UInt(u64),
    /// A floating-point number; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object. Returns `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view of the value, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document (RFC 8259 subset sufficient for the `BENCH_*.json` artifacts:
    /// all value kinds, string escapes including `\uXXXX`, no comments).
    ///
    /// Integers without fraction/exponent parse as [`Json::UInt`]/[`Json::Int`]; everything
    /// else numeric parses as [`Json::Num`]. This keeps `parse(render(v))` lossless for the
    /// values the bench writers emit.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with a byte offset and message on malformed input.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON document"));
        }
        Ok(v)
    }

    /// Renders the value as pretty-printed JSON with two-space indentation.
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.value(self);
        w.finish().render()
    }
}

/// A streaming JSON pretty-printer over one `String`.
///
/// Containers open with [`begin_obj`](Self::begin_obj)/[`begin_arr`](Self::begin_arr) and
/// close with the matching `end_*`; inside an object every value follows a
/// [`key`](Self::key) ([`field`](Self::field) writes both). The layout is [`Json::render`]'s:
/// one item per line, two-space indentation, `"key": value`, and `[]`/`{}` for empty
/// containers. The writer does not validate the call sequence beyond debug assertions: an
/// unbalanced container or a value without its key yields invalid JSON.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Number of open containers.
    depth: usize,
    /// Nothing written yet in the innermost open container.
    first: bool,
    /// A key was just written, so the next value completes its pair.
    after_key: bool,
}

impl Default for JsonWriter {
    fn default() -> Self {
        JsonWriter::new()
    }
}

impl JsonWriter {
    /// Creates a writer for one document.
    pub fn new() -> Self {
        JsonWriter { out: String::new(), depth: 0, first: true, after_key: false }
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object key; the next value (scalar or container) is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        debug_assert!(!self.after_key, "a key must be followed by a value");
        let out = self.item();
        escape_into(key, out);
        out.push_str(": ");
        self.after_key = true;
        self
    }

    /// Writes one value: an array element, the value of the last key, or the whole document.
    pub fn value(&mut self, value: impl JsonValue) -> &mut Self {
        value.write_to(self);
        self
    }

    /// Writes `"key": value`.
    pub fn field(&mut self, key: &str, value: impl JsonValue) -> &mut Self {
        self.key(key).value(value)
    }

    /// Ends the document (with a trailing newline, as [`Json::render`] does).
    pub fn finish(mut self) -> JsonText {
        debug_assert!(self.depth == 0 && !self.after_key, "unclosed JSON container or dangling key");
        self.out.push('\n');
        JsonText(self.out)
    }

    /// Starts the next item and returns the buffer to write it into: a separator and a fresh
    /// indented line before an array element or object key, nothing before a key's value or
    /// the top-level value.
    fn item(&mut self) -> &mut String {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            if !self.first {
                self.out.push(',');
            }
            self.out.push('\n');
            push_indent(&mut self.out, self.depth);
        }
        self.first = false;
        &mut self.out
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.item().push(bracket);
        self.depth += 1;
        self.first = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        debug_assert!(self.depth > 0 && !self.after_key, "unbalanced JSON container");
        self.depth -= 1;
        if !self.first {
            self.out.push('\n');
            push_indent(&mut self.out, self.depth);
        }
        self.out.push(bracket);
        self.first = false;
        self
    }
}

/// A value [`JsonWriter::value`] writes in one call.
///
/// Integers are written without a heap allocation; floats use `{:?}`, which keeps full
/// round-trip precision and a decimal point (`1.0`), and write non-finite values as `null`;
/// `None` is `null`; [`fmt::Arguments`] is formatted straight into an escaped string; a
/// [`Json`] tree is walked.
pub trait JsonValue {
    /// Writes `self` as the writer's next value.
    fn write_to(self, w: &mut JsonWriter);
}

impl JsonValue for bool {
    fn write_to(self, w: &mut JsonWriter) {
        w.item().push_str(if self { "true" } else { "false" });
    }
}

impl JsonValue for u64 {
    fn write_to(self, w: &mut JsonWriter) {
        push_u64(w.item(), self);
    }
}

impl JsonValue for i64 {
    fn write_to(self, w: &mut JsonWriter) {
        let out = w.item();
        if self < 0 {
            out.push('-');
        }
        push_u64(out, self.unsigned_abs());
    }
}

impl JsonValue for f64 {
    fn write_to(self, w: &mut JsonWriter) {
        let out = w.item();
        if self.is_finite() {
            write!(out, "{self:?}").expect("writing to a String cannot fail");
        } else {
            out.push_str("null");
        }
    }
}

impl JsonValue for &str {
    fn write_to(self, w: &mut JsonWriter) {
        escape_into(self, w.item());
    }
}

impl JsonValue for fmt::Arguments<'_> {
    fn write_to(self, w: &mut JsonWriter) {
        let out = w.item();
        out.push('"');
        Escaper(out).write_fmt(self).expect("writing to a String cannot fail");
        out.push('"');
    }
}

impl<T: JsonValue> JsonValue for Option<T> {
    fn write_to(self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_to(w),
            None => w.item().push_str("null"),
        }
    }
}

impl<T: JsonValue + Copy> JsonValue for &[T] {
    fn write_to(self, w: &mut JsonWriter) {
        w.begin_arr();
        for &v in self {
            v.write_to(w);
        }
        w.end_arr();
    }
}

impl JsonValue for &Json {
    fn write_to(self, w: &mut JsonWriter) {
        match self {
            Json::Null => w.item().push_str("null"),
            Json::Bool(b) => b.write_to(w),
            Json::Int(i) => i.write_to(w),
            Json::UInt(u) => u.write_to(w),
            Json::Num(n) => n.write_to(w),
            Json::Str(s) => s.as_str().write_to(w),
            Json::Arr(items) => {
                w.begin_arr();
                for item in items {
                    w.value(item);
                }
                w.end_arr();
            }
            Json::Obj(pairs) => {
                w.begin_obj();
                for (key, value) in pairs {
                    w.field(key, value);
                }
                w.end_obj();
            }
        }
    }
}

/// A finished JSON document: the text a [`JsonWriter`] wrote, trailing newline included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonText(String);

impl JsonText {
    /// The document's text: the bytes [`Json::render`] writes for the same document.
    pub fn render(self) -> String {
        self.0
    }
}

/// Error produced by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl core::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Recursive-descent parser over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // The bench writers only escape control characters, so lone
                            // surrogates are rejected rather than paired.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("unpaired surrogate escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = core::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err("malformed number"))
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Appends the decimal digits of `v`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(core::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Escapes a string per RFC 8259 and appends it, quotes included.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    Escaper(out).write_str(s).expect("writing to a String cannot fail");
    out.push('"');
}

/// Appends everything written to it with the characters JSON strings may not hold escaped.
struct Escaper<'a>(&'a mut String);

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Runs of plain text are copied whole. Every byte escaped here is ASCII, so each
        // split point falls on a character boundary.
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.0.push_str(&s[plain..i]);
            if escape.is_empty() {
                write!(self.0, "\\u{b:04x}")?;
            } else {
                self.0.push_str(escape);
            }
            plain = i + 1;
        }
        self.0.push_str(&s[plain..]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::UInt(u64::MAX).render(), format!("{}\n", u64::MAX));
        assert_eq!(Json::Num(2.13).render(), "2.13\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n", "JSON has no NaN");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"\n");
        assert_eq!(Json::Str("plain ascii-64x64".into()).render(), "\"plain ascii-64x64\"\n");
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
    }

    #[test]
    fn nested_structure_pretty_prints() {
        let v = Json::obj([
            ("name", Json::Str("fig09".into())),
            ("speedups", Json::Arr(vec![Json::Num(1.5), Json::Num(4.25)])),
        ]);
        let expected = "{\n  \"name\": \"fig09\",\n  \"speedups\": [\n    1.5,\n    4.25\n  ]\n}\n";
        assert_eq!(v.render(), expected);
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let v = Json::obj([
            ("figure", Json::Str("fig09".into())),
            ("quote", Json::Str("a\"b\\c\n\u{1}".into())),
            ("flag", Json::Bool(false)),
            ("nothing", Json::Null),
            ("big", Json::UInt(u64::MAX)),
            ("neg", Json::Int(-42)),
            ("ratio", Json::Num(2.13)),
            ("empty_arr", Json::Arr(vec![])),
            ("arr", Json::Arr(vec![Json::Num(1.0), Json::UInt(7)])),
            ("nested", Json::obj([("k", Json::Str("v".into()))])),
        ]);
        let parsed = Json::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
        // Accessors used by the diff tool.
        assert_eq!(parsed.get("figure").and_then(Json::as_str), Some("fig09"));
        assert_eq!(parsed.get("ratio").and_then(Json::as_f64), Some(2.13));
        assert_eq!(parsed.get("neg").and_then(Json::as_f64), Some(-42.0));
        assert_eq!(parsed.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn parse_accepts_plain_json_variants() {
        assert_eq!(Json::parse(" [1, 2.5e1, -3] ").unwrap(), Json::Arr(vec![
            Json::UInt(1),
            Json::Num(25.0),
            Json::Int(-3),
        ]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"unterminated", "\"\\q\"", "--1"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad:?} must fail with a message");
        }
        let e = Json::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4, "error points at the offending byte");
    }

    #[test]
    fn numbers_keep_roundtrip_precision() {
        let v = Json::Num(13.190000000000001);
        let rendered = v.render();
        let parsed: f64 = rendered.trim().parse().unwrap();
        assert_eq!(parsed, 13.190000000000001);
        assert_eq!(Json::Num(1.0).render(), "1.0\n", "floats keep a decimal point");
    }

    #[test]
    fn writer_streams_the_tree_layout() {
        let tree = Json::obj([
            ("name", Json::Str("task 7".into())),
            ("submit", Json::Null),
            ("neg", Json::Int(-3)),
            ("rows", Json::Arr(vec![
                Json::Arr(vec![Json::UInt(1), Json::UInt(2)]),
                Json::Arr(vec![]),
            ])),
            ("args", Json::obj([])),
            ("mean", Json::Num(0.5)),
        ]);
        let mut w = JsonWriter::new();
        w.begin_obj().field("name", format_args!("task {}", 7)).field("submit", None::<u64>);
        w.field("neg", -3i64).field("rows", [[1u64, 2].as_slice(), &[]].as_slice());
        w.key("args").begin_obj().end_obj().field("mean", 0.5).end_obj();
        assert_eq!(w.finish().render(), tree.render());
    }

    #[test]
    fn formatted_strings_escape_like_plain_ones() {
        let mut w = JsonWriter::new();
        w.value(format_args!("{}\t{}", "a\"b", '\u{1f}'));
        assert_eq!(w.finish().render(), Json::Str("a\"b\t\u{1f}".into()).render());
        assert_eq!(Json::Str("\u{1f}é\r".into()).render(), "\"\\u001fé\\r\"\n");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random value trees, at most `depth` containers deep. The scalars lean on the edges of
    /// the format: `u64::MAX`, negative integers, non-finite numbers, quotes and control
    /// characters; the containers include empty ones and arrays of arrays (the shape of the
    /// per-core metrics series).
    struct Trees {
        depth: u32,
    }

    fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
        options[rng.below(options.len() as u64) as usize]
    }

    fn string(rng: &mut TestRng) -> String {
        let len = rng.below(6);
        (0..len).map(|_| pick(rng, &['a', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '𝄞'])).collect()
    }

    impl Strategy for Trees {
        type Value = Json;

        fn generate(&self, rng: &mut TestRng) -> Json {
            let kinds = if self.depth == 0 { 6 } else { 9 };
            let child = Trees { depth: self.depth.saturating_sub(1) };
            let children = |rng: &mut TestRng| rng.below(4);
            let bits = rng.next_u64();
            match rng.below(kinds) {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 1),
                2 => Json::Int(pick(rng, &[i64::MIN, -1, -((bits >> 1) as i64)])),
                3 => Json::UInt(pick(rng, &[0, u64::MAX, bits])),
                4 => Json::Num(pick(rng, &[
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1.0,
                    -0.5,
                    1e300,
                    5e-324,
                    (bits >> 11) as f64 / (1u64 << 53) as f64 * 2e6 - 1e6,
                ])),
                5 => Json::Str(string(rng)),
                6 => Json::Arr((0..children(rng)).map(|_| child.generate(rng)).collect()),
                7 => Json::Arr(
                    (0..children(rng))
                        .map(|_| Json::Arr((0..children(rng)).map(|_| Json::UInt(rng.next_u64())).collect()))
                        .collect(),
                ),
                _ => Json::Obj((0..children(rng)).map(|_| (string(rng), child.generate(rng))).collect()),
            }
        }
    }

    /// What a tree reads back as: non-finite numbers are written as `null`.
    fn written(v: &Json) -> Json {
        match v {
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(written).collect()),
            Json::Obj(pairs) => Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), written(v))).collect()),
            other => other.clone(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn render_parse_render_is_the_identity(v in Trees { depth: 3 }) {
            let text = v.render();
            // RFC 8259: control characters appear only escaped, so the only raw ones are the
            // layout's newlines.
            prop_assert!(!text.bytes().any(|b| b < 0x20 && b != b'\n'), "raw control character in {text:?}");
            let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
            prop_assert_eq!(&parsed, &written(&v));
            prop_assert_eq!(parsed.render(), text);
        }
    }
}
