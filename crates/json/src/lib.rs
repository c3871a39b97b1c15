//! The workspace's one JSON implementation: parser **and** serializer.
//!
//! The offline build environment has no serde; this crate implements the
//! full JSON value grammar (RFC 8259) — objects, arrays, strings with
//! escapes, numbers, booleans, null — with byte positions in error
//! messages, plus the matching compact serializer ([`Json::write_into`],
//! which [`Json`]'s [`Display`] wraps).
//! The CLI's `batch` subcommand, the `slade-server` wire protocol, and the
//! engine's durable plan codec all parse and print through it, so none of
//! them can drift apart. (It started life inside the server and was lifted into
//! its own crate when the engine's journal codec needed the same
//! serializer without a dependency on the server.)
//!
//! Numbers are `f64`, which is exact for every integer a request can
//! legitimately carry (task counts fit `u32`, seeds of interest fit 2⁵³;
//! full-width `u64` values such as knob words travel as hex strings, not
//! numbers). Serialization uses Rust's shortest-round-trip float
//! formatting, so a value survives `parse(&json.to_string())`
//! **bit-identically** — the property the server's byte-identical plan
//! contract and the journal's replay contract both rest on.
//!
//! Every byte the serializer prints comes from three writers, which are
//! public so that streaming encoders (the engine's plan codec) can render
//! a document straight from their own data, with no [`Json`] tree, and
//! still print exactly what [`Json::write_into`] would:
//!
//! * [`write_number`] — any finite `f64`, shortest round-trip form;
//! * [`write_uint`] — a non-negative integer, the digit loop that
//!   [`write_number`] itself uses for integral values below 2⁵³;
//! * [`write_string`] — a quoted, escaped string (values and keys alike).
//!
//! [`Display`]: std::fmt::Display

use std::fmt;

/// A parsed JSON value. Object keys keep insertion order (requests are tiny,
/// so lookup is a linear scan).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object members, if the value is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Short name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// A number value.
    ///
    /// # Panics
    /// Panics on non-finite input — the serializer has no representation
    /// for NaN or infinity (RFC 8259 has none either), and the parser on
    /// the other end rejects them, so constructing one is always a bug.
    pub fn number(x: f64) -> Json {
        assert!(x.is_finite(), "JSON cannot represent {x}");
        Json::Number(x)
    }

    /// A string value.
    pub fn string(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }
}

/// Builds one object member; sugar keeping literal objects readable.
pub fn member(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

impl Json {
    /// The compact serializer: appends this value to `out` with no
    /// whitespace, object members in insertion order, strings escaped in
    /// place, and numbers in Rust's shortest-round-trip decimal form
    /// (integers without a trailing `.0`) — so `parse(x.to_string()) == x`
    /// bit-for-bit for every finite value. [`Display`] is a thin wrapper
    /// over this; callers that send or store the bytes render into a
    /// buffer they reuse.
    ///
    /// [`Display`]: std::fmt::Display
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(x) => write_number(*x, out),
            Json::String(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Renders through [`Json::write_into`] and hands the result to the
/// formatter in one `write_str`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

/// Appends the JSON number `x`. Integers in the f64-exact range print
/// without a fraction through [`write_uint`]; everything else uses
/// `Display`'s shortest form that parses back to the same f64. -0.0 must
/// take the `Display` branch (printing "-0"): the integer path would print
/// "0", which parses back as +0.0 and breaks the bit-identity contract.
///
/// # Panics
///
/// Debug builds assert that `x` is finite; JSON has no spelling for NaN
/// or the infinities.
pub fn write_number(x: f64, out: &mut String) {
    debug_assert!(x.is_finite(), "serializing non-finite number {x}");
    let negative_zero = x == 0.0 && x.is_sign_negative();
    if x.fract() == 0.0 && x.abs() < 9.007_199_254_740_992e15 && !negative_zero {
        let value = x as i64;
        if value < 0 {
            out.push('-');
        }
        write_uint(value.unsigned_abs(), out);
    } else {
        use fmt::Write as _;
        let _ = write!(out, "{x}");
    }
}

/// Appends `value` in decimal, digit by digit — the serializer's one digit
/// loop. For every `value` below 2⁵³ the bytes are exactly those
/// [`write_number`] prints for `value as f64`, so streaming writers can
/// print counts and ids without a float round trip.
pub fn write_uint(value: u64, out: &mut String) {
    // u64::MAX has 20 decimal digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut magnitude = value;
    loop {
        start -= 1;
        digits[start] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    for &digit in &digits[start..] {
        out.push(char::from(digit));
    }
}

/// Appends `text` as a quoted JSON string, escaping `"`, `\`, and control
/// characters. Runs of plain characters are copied as whole slices; the
/// scan is bytewise, which is safe because every byte that needs escaping
/// is ASCII and never occurs inside a multi-byte UTF-8 sequence.
pub fn write_string(text: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut plain = 0;
    for (i, &byte) in text.as_bytes().iter().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&text[plain..i]);
        plain = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
    }
    out.push_str(&text[plain..]);
    out.push('"');
}

/// Maximum container nesting depth. The parser recurses per level, so an
/// unbounded `[[[[…` would overflow the thread stack; 128 levels is far
/// beyond any legitimate batch request while keeping recursion trivially
/// safe.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    /// Runs one container parser a level deeper, enforcing [`MAX_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let result = inner(self);
        self.depth -= 1;
        result
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            // RFC 8259 leaves duplicate-key behavior undefined; silently
            // keeping one value would drop user input, so reject instead
            // (consistent with the batch parser's unknown-field strictness).
            if members.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate object key `{key}`"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!(
                                "invalid escape `\\{}` at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote
                    // or backslash. Both are ASCII, so the run ends on a
                    // character boundary of the (valid UTF-8) input, and
                    // each byte is checked once however long the string.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("input is valid UTF-8");
                    out.push_str(run);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape".to_string())?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape `{hex}`"))?;
        self.pos += 4;
        // Surrogate pairs are not supported — the batch request schema is
        // ASCII identifiers and numbers; reject rather than mis-decode.
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate \\u{hex}"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        let number = text
            .parse::<f64>()
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))?;
        // `"1e999".parse::<f64>()` happily returns infinity; no batch field
        // means anything at that magnitude, so reject instead of letting an
        // overflow masquerade as a valid value downstream.
        if !number.is_finite() {
            return Err(format!("number `{text}` overflows f64 at byte {start}"));
        }
        Ok(Json::Number(number))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_batch_request_line() {
        let line = r#"{"algorithm": "opq-based", "tasks": 100, "threshold": 0.95,
                       "bins": [[1, 0.9, 0.1], [3, 0.8, 0.24]], "seed": 7}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("algorithm").unwrap().as_str(), Some("opq-based"));
        assert_eq!(v.get("tasks").unwrap().as_f64(), Some(100.0));
        assert_eq!(v.get("threshold").unwrap().as_f64(), Some(0.95));
        let bins = v.get("bins").unwrap().as_array().unwrap();
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[1].as_array().unwrap()[2].as_f64(), Some(0.24));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_scalars_and_structure() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Number(-150.0));
        assert_eq!(parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(parse(" { } ").unwrap(), Json::Object(vec![]));
        assert_eq!(
            parse(r#""a\nbA\"""#).unwrap(),
            Json::String("a\nbA\"".into())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "tru",
            "1 2",
            r#"{"a": }"#,
            "\"unterminated",
            r#""\q""#,
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_object_keys_are_rejected() {
        let err = parse(r#"{"tasks": 5, "tasks": 500000}"#).unwrap_err();
        assert!(err.contains("`tasks`"), "{err}");
        // Same key at different nesting levels is fine.
        assert!(parse(r#"{"a": {"a": 1}}"#).is_ok());
    }

    #[test]
    fn overflowing_exponents_are_rejected_not_infinities() {
        for bad in ["1e999", "-1e999", "1e309", "123456789e4000"] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("overflows"), "{bad}: {err}");
        }
        // The largest finite magnitudes still parse.
        assert_eq!(parse("1e308").unwrap(), Json::Number(1e308));
        assert_eq!(
            parse("-1.7976931348623157e308").unwrap(),
            Json::Number(f64::MIN)
        );
        // Underflow to zero is a finite value, not an error.
        assert_eq!(parse("1e-999").unwrap(), Json::Number(0.0));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Re-validating the rest of the input for every character would make
        // one long string quadratic: hours of CPU for a line the server's
        // 64 MiB cap admits. Each byte must be checked once.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let text = "é€😀x".repeat(1 << 19); // 5.5 MiB of mixed-width UTF-8
            let doc = format!(r#"{{"id": "{text}\n", "k": ["{text}"]}}"#);
            let value = parse(&doc).unwrap();
            assert_eq!(
                value.get("id").unwrap().as_str(),
                Some(format!("{text}\n").as_str())
            );
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("parsing a long string took more than linear time");
    }

    #[test]
    fn deep_nesting_is_rejected_before_the_stack_gives_out() {
        // 128 levels are fine; 129 are not — and 100k must error, not crash.
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        for levels in [MAX_DEPTH + 1, 100_000] {
            let too_deep = format!("{}0{}", "[".repeat(levels), "]".repeat(levels));
            let err = parse(&too_deep).unwrap_err();
            assert!(err.contains("nesting deeper"), "{levels}: {err}");
        }
        // Mixed object/array nesting counts against the same budget.
        let mixed = format!("{}0{}", r#"{"a":["#.repeat(70), "]}".repeat(70));
        assert!(parse(&mixed).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn lone_surrogates_in_strings_are_rejected() {
        for bad in [r#""\ud800""#, r#""\udfff""#, r#""a\ud834b""#] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("surrogate"), "{bad}: {err}");
        }
        // Non-surrogate BMP escapes still decode.
        assert_eq!(parse(r#""é""#).unwrap(), Json::String("é".into()));
    }

    #[test]
    fn duplicate_keys_across_nesting_levels_are_distinct() {
        // The same key may recur at different depths and in sibling objects;
        // only true duplicates within one object are rejected.
        assert!(parse(r#"{"a": {"a": {"a": 1}}, "b": {"a": 2}}"#).is_ok());
        assert!(parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
        let err = parse(r#"{"a": {"b": 1, "b": 2}}"#).unwrap_err();
        assert!(err.contains("`b`"), "{err}");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f\u{1f}é😀";
        let encoded = Json::string(nasty).to_string();
        assert_eq!(parse(&encoded).unwrap(), Json::String(nasty.into()));
    }

    /// The serializer as it stood before [`Json::write_into`]: a
    /// token-at-a-time `Display` with an allocating escape. Kept as the
    /// byte-for-byte reference the buffer serializer is checked against.
    struct Reference<'a>(&'a Json);

    fn reference_escape(text: &str) -> String {
        let mut out = String::with_capacity(text.len() + 2);
        for ch in text.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    impl fmt::Display for Reference<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Json::Null => f.write_str("null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::Number(x) => {
                    let negative_zero = *x == 0.0 && x.is_sign_negative();
                    if x.fract() == 0.0 && x.abs() < 9.007_199_254_740_992e15 && !negative_zero {
                        write!(f, "{}", *x as i64)
                    } else {
                        write!(f, "{x}")
                    }
                }
                Json::String(s) => write!(f, "\"{}\"", reference_escape(s)),
                Json::Array(items) => {
                    f.write_str("[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{}", Reference(item))?;
                    }
                    f.write_str("]")
                }
                Json::Object(members) => {
                    f.write_str("{")?;
                    for (i, (key, value)) in members.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "\"{}\":{}", reference_escape(key), Reference(value))?;
                    }
                    f.write_str("}")
                }
            }
        }
    }

    /// Checks `write_into` (fresh and appended to a dirty buffer) and
    /// `to_string` against the reference, byte for byte.
    fn assert_matches_reference(value: &Json) {
        let expected = Reference(value).to_string();
        let mut fresh = String::new();
        value.write_into(&mut fresh);
        assert_eq!(fresh, expected, "{value:?}");
        let mut appended = String::from("prefix");
        value.write_into(&mut appended);
        assert_eq!(&appended["prefix".len()..], expected, "{value:?}");
        assert_eq!(value.to_string(), expected, "{value:?}");
    }

    const EDGE_NUMBERS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        9.0,
        10.0,
        -10.0,
        4.0,
        0.68,
        -0.25,
        0.1 + 0.2,
        0.5,
        1.5,
        -1234.5,
        123_456_789.0,
        4_294_967_295.0, // u32::MAX
        -4_294_967_295.0,
        9_007_199_254_740_991.0,  // 2^53 - 1: last integer-path value
        -9_007_199_254_740_991.0, // its negation
        9_007_199_254_740_992.0,  // 2^53: first Display-path integer
        -9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        18_014_398_509_481_984.0, // 2^54
        1e15,
        1e16,
        1e21,
        1e22,
        1e300,
        1e308,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        -5e-324,
        1e-7,
        1e-300,
        0.000_001,
        std::f64::consts::PI,
    ];

    #[test]
    fn write_uint_prints_what_write_number_prints_for_integers() {
        for x in [0, 9, 10, 99, 100, u64::from(u32::MAX), (1u64 << 53) - 1] {
            let (mut uint, mut number) = (String::new(), String::new());
            write_uint(x, &mut uint);
            write_number(x as f64, &mut number);
            assert_eq!(uint, number, "{x}");
            assert_eq!(uint, x.to_string());
        }
        let mut max = String::new();
        write_uint(u64::MAX, &mut max);
        assert_eq!(max, u64::MAX.to_string());
    }

    #[test]
    fn write_into_matches_the_reference_on_edge_scalars() {
        for &x in EDGE_NUMBERS {
            assert_matches_reference(&Json::Number(x));
        }
        for value in [Json::Null, Json::Bool(true), Json::Bool(false)] {
            assert_matches_reference(&value);
        }
        // Every control character, each escape, quotes at the edges, and
        // non-ASCII text (2-, 3- and 4-byte UTF-8) next to escapes.
        let mut every_control = String::new();
        for code in 0u8..0x20 {
            every_control.push(char::from(code));
        }
        for text in [
            "",
            "plain",
            "\"",
            "\\",
            "\"\"",
            "a\"b\\c\nd\re\tf",
            every_control.as_str(),
            "\u{7f}\u{80}\u{9f}",
            "é",
            "ü\n€\t😀",
            "\u{1}é\u{1f}",
            "end\\",
            "/slash/ is not escaped",
        ] {
            assert_matches_reference(&Json::string(text));
            // The same text as an object key.
            assert_matches_reference(&Json::Object(vec![member(text, Json::Null)]));
        }
    }

    #[test]
    fn write_into_matches_the_reference_on_containers() {
        let nested = Json::Object(vec![
            member("empty_array", Json::Array(vec![])),
            member("empty_object", Json::Object(vec![])),
            member(
                "deep",
                Json::Array(vec![Json::Array(vec![Json::Array(vec![Json::Object(
                    vec![member("", Json::Array(vec![Json::Null, Json::Bool(false)]))],
                )])])]),
            ),
            member(
                "numbers",
                Json::Array(EDGE_NUMBERS.iter().map(|&x| Json::Number(x)).collect()),
            ),
            member("we\"ird\n", Json::string("a\u{0}b")),
        ]);
        assert_matches_reference(&nested);
        assert_matches_reference(&Json::Array(vec![]));
        assert_matches_reference(&Json::Object(vec![]));
        assert_matches_reference(&Json::Array(vec![
            Json::Array(vec![]),
            Json::Object(vec![]),
        ]));
    }

    #[test]
    fn write_into_matches_the_reference_on_seeded_random_documents() {
        // A small xorshift keeps the crate dependency-free.
        struct Rng(u64);
        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                self.0
            }
            fn below(&mut self, n: u64) -> u64 {
                self.next() % n
            }
        }
        fn text(rng: &mut Rng) -> String {
            const ALPHABET: &[char] =
                &['a', 'z', '"', '\\', '\n', '\u{1}', '\u{1f}', 'é', '😀', ' '];
            (0..rng.below(8))
                .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
                .collect()
        }
        fn number(rng: &mut Rng) -> f64 {
            match rng.below(4) {
                0 => rng.below(1 << 20) as f64 - (1 << 19) as f64,
                1 => EDGE_NUMBERS[rng.below(EDGE_NUMBERS.len() as u64) as usize],
                _ => loop {
                    let x = f64::from_bits(rng.next());
                    if x.is_finite() {
                        break x;
                    }
                },
            }
        }
        fn value(rng: &mut Rng, depth: u32) -> Json {
            match rng.below(if depth == 0 { 4 } else { 6 }) {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 0),
                2 => Json::Number(number(rng)),
                3 => Json::String(text(rng)),
                4 => Json::Array((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
                _ => Json::Object(
                    (0..rng.below(4))
                        .map(|i| (format!("{}{i}", text(rng)), value(rng, depth - 1)))
                        .collect(),
                ),
            }
        }
        let mut rng = Rng(0x5eed_0f5a_1dec);
        for _ in 0..2_000 {
            let doc = value(&mut rng, 4);
            assert_matches_reference(&doc);
            assert_eq!(
                parse(&doc.to_string()).unwrap().to_string(),
                doc.to_string()
            );
        }
    }

    #[test]
    fn serializer_is_compact_and_stable() {
        let value = Json::Object(vec![
            member("ok", Json::Bool(true)),
            member("op", Json::string("solve")),
            member("tasks", Json::number(4.0)),
            member("cost", Json::number(0.68)),
            member("none", Json::Null),
            member(
                "bins",
                Json::Array(vec![Json::number(1.0), Json::number(0.9)]),
            ),
            member("we\"ird", Json::string("a\nb")),
        ]);
        assert_eq!(
            value.to_string(),
            "{\"ok\":true,\"op\":\"solve\",\"tasks\":4,\"cost\":0.68,\
             \"none\":null,\"bins\":[1,0.9],\"we\\\"ird\":\"a\\nb\"}"
        );
    }

    #[test]
    fn serialized_values_parse_back_bit_identically() {
        // Shortest-round-trip float printing: the parse of the print is the
        // original value, bit for bit — including awkward decimals, tiny
        // magnitudes, and integers at the edge of f64 exactness.
        let numbers = [
            0.68,
            0.1 + 0.2, // 0.30000000000000004
            1e-300,
            -1.7976931348623157e308,
            9.007_199_254_740_991e15,
            4.0,
            -0.25,
            -0.0, // serializes as "-0", not "0": the sign bit must survive
            f64::from(u32::MAX),
        ];
        for &x in &numbers {
            let printed = Json::number(x).to_string();
            let Json::Number(back) = parse(&printed).unwrap() else {
                panic!("{printed} did not parse as a number");
            };
            assert_eq!(x.to_bits(), back.to_bits(), "{x} round-tripped as {back}");
        }
        // Structures round-trip too (object member order is preserved).
        let doc = r#"{"a":[1,2.5,"x"],"b":{"c":false},"d":null}"#;
        let value = parse(doc).unwrap();
        assert_eq!(value.to_string(), doc);
        assert_eq!(parse(&value.to_string()).unwrap(), value);
    }

    #[test]
    #[should_panic(expected = "JSON cannot represent")]
    fn non_finite_numbers_are_rejected_at_construction() {
        let _ = Json::number(f64::NAN);
    }
}
