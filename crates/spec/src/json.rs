//! Minimal self-contained JSON value, parser, and serializer.
//!
//! The build environment has no network access to a crates registry, so
//! the spec layer carries its own JSON support instead of depending on
//! `serde_json`. The subset implemented is full RFC 8259 JSON on the
//! parsing side (including `\uXXXX` escapes and surrogate pairs); on
//! the output side non-finite numbers serialize as `null`.

use std::fmt::Write as _;

/// A parsed JSON document.
///
/// Objects preserve key order (insertion order of the document), which
/// keeps serialization deterministic — important because canonical spec
/// JSON doubles as a memo-cache key in the batch engine.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(x) => write_number(out, *x),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Number(x)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..depth * step {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's shortest round-trip Display is valid JSON syntax.
        let _ = write!(out, "{x}");
    }
}

/// Writes `s` as a JSON string. Every byte that needs an escape is
/// ASCII, so the runs between them are copied whole.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so without a cap a small body of nested
/// brackets overflows the stack and aborts the process; shipped specs
/// nest 8 deep.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document, requiring it to be fully consumed.
///
/// # Errors
///
/// Returns a human-readable message with the byte offset of the first
/// syntax error, or of the first bracket nested more than 128 deep.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!(
            "trailing characters after JSON document at byte {}",
            p.pos
        ));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!(
                "unexpected character '{}' at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // The run up to the next quote or backslash is copied whole:
            // both are ASCII, so it ends on a character boundary.
            let run = self.pos;
            self.pos += self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - run);
            s.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                _ => {
                    // A backslash.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("unpaired surrogate".into());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("unpaired surrogate".into());
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            s.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid \\u escape")?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

/// Convenience: builds an object from `(key, value)` pairs.
#[must_use]
pub fn object(entries: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Convenience: builds an array of strings.
#[must_use]
pub fn string_array<S: AsRef<str>>(items: &[S]) -> JsonValue {
    JsonValue::Array(
        items
            .iter()
            .map(|s| JsonValue::String(s.as_ref().to_owned()))
            .collect(),
    )
}

/// Looks up a dotted path (`"ctmc.transitions.0.rate"`) where each
/// segment is an object key or an array index.
#[must_use]
pub fn get_path<'a>(root: &'a JsonValue, path: &str) -> Option<&'a JsonValue> {
    let mut cur = root;
    for seg in path.split('.') {
        cur = match cur {
            JsonValue::Object(entries) => &entries.iter().find(|(k, _)| k == seg)?.1,
            JsonValue::Array(items) => items.get(seg.parse::<usize>().ok()?)?,
            _ => return None,
        };
    }
    Some(cur)
}

/// Replaces the number at a dotted path, erroring (with the path in the
/// message) if the path does not resolve or does not hold a number.
pub fn set_number_at_path(root: &mut JsonValue, path: &str, value: f64) -> Result<(), String> {
    let mut cur = root;
    for seg in path.split('.') {
        cur = match cur {
            JsonValue::Object(entries) => match entries.iter_mut().find(|(k, _)| k == seg) {
                Some((_, v)) => v,
                None => return Err(format!("path '{path}': no field '{seg}'")),
            },
            JsonValue::Array(items) => {
                let idx = seg
                    .parse::<usize>()
                    .map_err(|_| format!("path '{path}': '{seg}' is not an array index"))?;
                match items.get_mut(idx) {
                    Some(v) => v,
                    None => return Err(format!("path '{path}': index {idx} out of range")),
                }
            }
            _ => {
                return Err(format!(
                    "path '{path}': segment '{seg}' descends into a non-container"
                ))
            }
        };
    }
    match cur {
        JsonValue::Number(n) => {
            *n = value;
            Ok(())
        }
        _ => Err(format!("path '{path}' does not resolve to a number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("3.25").unwrap(), JsonValue::Number(3.25));
        assert_eq!(parse("-1e-3").unwrap(), JsonValue::Number(-1e-3));
        assert_eq!(parse(r#""hi""#).unwrap(), JsonValue::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "c"}, true], "d": null}"#).unwrap();
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("c"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ \u{1F600} é";
        let v = JsonValue::String(original.into());
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap().as_str(), Some(original));
    }

    /// The character-at-a-time encoder that byte runs replaced.
    fn escape_by_chars(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Seeded random strings over quotes, backslashes, every control
    /// character, ASCII and 2-, 3- and 4-byte text: each serializes as
    /// the character-at-a-time encoder wrote it and parses back; spelled
    /// with random escapes (short, `\uXXXX`, surrogate pairs) it parses
    /// to the same string; and a cut-off copy fails as it always did.
    #[test]
    fn strings_round_trip_through_byte_runs() {
        let mut state = 0x5EED_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let alphabet: Vec<char> = "\"\\/ aZ09{}:,\u{7f}é€😀\u{10ffff}\u{fffd}"
            .chars()
            .chain((0..0x20u8).map(char::from))
            .collect();
        for _ in 0..2_000 {
            let len = next(24) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[next(alphabet.len() as u64) as usize])
                .collect();
            let text = JsonValue::String(s.clone()).to_json();
            assert_eq!(text, escape_by_chars(&s), "{s:?}");
            assert_eq!(parse(&text).unwrap().as_str(), Some(s.as_str()), "{text}");

            let mut spelled = String::from('"');
            for c in s.chars() {
                let short = match c {
                    '"' => Some("\\\""),
                    '\\' => Some("\\\\"),
                    '/' => Some("\\/"),
                    '\u{08}' => Some("\\b"),
                    '\u{0c}' => Some("\\f"),
                    '\n' => Some("\\n"),
                    '\r' => Some("\\r"),
                    '\t' => Some("\\t"),
                    _ => None,
                };
                match (short, next(3)) {
                    (Some(e), 0) => spelled.push_str(e),
                    (None, 0) if c != '"' && c != '\\' => spelled.push(c),
                    _ => {
                        let mut units = [0u16; 2];
                        for u in c.encode_utf16(&mut units) {
                            let _ = write!(spelled, "\\u{:04X}", *u);
                        }
                    }
                }
            }
            spelled.push('"');
            assert_eq!(
                parse(&spelled).unwrap().as_str(),
                Some(s.as_str()),
                "{spelled}"
            );
            let cut = &spelled[..spelled.len() - 1];
            assert!(parse(cut).is_err(), "{cut}");
        }
        for (bad, message) in [
            (r#""abc"#, "unterminated string"),
            (r#""a\q""#, "invalid escape at byte 3"),
            (r#""\ud83d""#, "unpaired surrogate"),
            (r#""\ud83d\u0041""#, "invalid low surrogate"),
            (r#""\udc00""#, "invalid \\u escape"),
            (r#""\u12g4""#, "invalid \\u escape"),
            (r#""\u12""#, "truncated \\u escape"),
            (r#""\u1"#, "truncated \\u escape"),
            (r#"["é", "x] "#, "unterminated string"),
            (r#"{"é": 1 "x"}"#, "expected ',' or '}' at byte 9"),
        ] {
            assert_eq!(parse(bad).unwrap_err(), message, "{bad}");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
        // Surrogate pair for U+1F600.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "1.2.3", "\"abc", "{} extra"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // Far past the cap the parser still returns instead of
        // overflowing the stack.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn numbers_round_trip() {
        for &x in &[0.0, 1.0, -2.5, 0.1, 1e-10, 1234567890.0, 1.0 / 3.0] {
            let text = JsonValue::Number(x).to_json();
            assert_eq!(parse(&text).unwrap().as_f64(), Some(x), "{x}");
        }
        assert_eq!(JsonValue::Number(f64::NAN).to_json(), "null");
    }

    #[test]
    fn pretty_output_is_reparsable() {
        let v = parse(r#"{"a": [1, 2], "b": {"c": true}, "empty": []}"#).unwrap();
        let pretty = v.to_json_pretty();
        assert!(pretty.contains("\n  \"a\": ["));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn object_preserves_key_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(v.to_json(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn usize_extraction_is_exact() {
        assert_eq!(parse("3").unwrap().as_usize(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
    }
}
