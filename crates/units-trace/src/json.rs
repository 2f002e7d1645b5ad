//! The workspace's one JSON codec: a small [`Json`] tree, its compact
//! printer, one strict parser, and the string escaper — zero
//! dependencies.
//!
//! Documents (metrics snapshots, `unitsd` frames, the bench summary)
//! are built as [`Json`] values and printed with [`Json::render`].
//! [`parse`] reads the full JSON grammar strictly (no leading zeros,
//! no bare `.`, no trailing commas) and refuses nesting deeper than
//! 64 levels, because it reads attacker-controlled socket bytes and
//! must not blow the stack. [`validate`] is `parse` with the tree
//! dropped.
//!
//! [`escape`] is the string half on its own, for writers that stream
//! one line per event ([`crate::Event::to_json`], the flight recorder)
//! rather than build a tree. Every control character is
//! `\u00XX`-escaped, not only the named ones. [`unescape`] is its exact
//! inverse, so tests can prove round-trip fidelity over adversarial
//! payloads.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
///
/// Numbers are split into [`Json::Int`] and [`Json::Float`]: counters,
/// versions, limits and arguments are integers, while bench figures
/// and timestamps are fractional. An integer literal too wide for
/// `i64` parses as a float.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number.
    Int(i64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps rendering deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value at `key`, when this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string at `key`, when present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer at `key`, when present.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        match self.get(key)? {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean at `key`, when present.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders this value as compact JSON text.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

/// A counter: an [`Json::Int`], or a [`Json::Float`] past `i64::MAX`
/// (the same reading [`parse`] gives the rendered text).
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        i64::try_from(n).map_or(Json::Float(n as f64), Json::Int)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // JSON has no NaN or infinity.
            Json::Float(x) if !x.is_finite() => f.write_str("null"),
            // `{}` on an integral f64 prints no decimal point, which
            // would reparse as Int; force one so round-trips hold.
            Json::Float(x) if x.fract() == 0.0 => write!(f, "{x:.1}"),
            Json::Float(x) => write!(f, "{x}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(map) => {
                f.write_char('{')?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Escapes `s` as a JSON string literal, including the quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s).expect("writing to a String cannot fail");
    out
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Decodes a JSON string literal (including the surrounding quotes)
/// back into the text it encodes — the inverse of [`escape`], accepting
/// any escape the JSON grammar allows (`\n`, `\u00XX`, surrogate
/// pairs, …), so `unescape(&escape(s)) == Ok(s)` for every `s`.
///
/// # Errors
///
/// Returns a [`JsonError`] when `src` is not exactly one well-formed
/// string literal (bad escape, lone surrogate, unescaped control
/// character, trailing data).
pub fn unescape(src: &str) -> Result<String, JsonError> {
    let bytes = src.as_bytes();
    let err = |offset: usize, message: &str| JsonError { offset, message: message.to_string() };
    if bytes.first() != Some(&b'"') {
        return Err(err(0, "expected `\"`"));
    }
    let mut out = String::with_capacity(src.len().saturating_sub(2));
    let mut chars = src.char_indices();
    chars.next(); // the opening quote
    // Reads one `\uXXXX` code unit; `i` is the backslash's offset.
    let hex4 = |chars: &mut std::str::CharIndices<'_>, i: usize| -> Result<u16, JsonError> {
        let mut unit = 0u16;
        for _ in 0..4 {
            let Some((_, c)) = chars.next() else {
                return Err(err(i, "truncated \\u escape"));
            };
            let digit =
                c.to_digit(16).ok_or_else(|| err(i, "invalid \\u escape"))? as u16;
            unit = unit << 4 | digit;
        }
        Ok(unit)
    };
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                return if chars.next().is_none() {
                    Ok(out)
                } else {
                    Err(err(i + 1, "trailing characters after the string"))
                };
            }
            '\\' => {
                let Some((_, esc)) = chars.next() else {
                    return Err(err(i, "truncated escape"));
                };
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let unit = hex4(&mut chars, i)?;
                        if (0xD800..=0xDBFF).contains(&unit) {
                            // High surrogate: a `\uDC00..DFFF` low half
                            // must follow immediately.
                            match (chars.next(), chars.next()) {
                                (Some((_, '\\')), Some((_, 'u'))) => {
                                    let low = hex4(&mut chars, i)?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(err(i, "invalid low surrogate"));
                                    }
                                    let scalar = 0x10000
                                        + ((unit as u32 - 0xD800) << 10)
                                        + (low as u32 - 0xDC00);
                                    out.push(
                                        char::from_u32(scalar)
                                            .ok_or_else(|| err(i, "invalid surrogate pair"))?,
                                    );
                                }
                                _ => return Err(err(i, "lone high surrogate")),
                            }
                        } else if (0xDC00..=0xDFFF).contains(&unit) {
                            return Err(err(i, "lone low surrogate"));
                        } else {
                            out.push(
                                char::from_u32(unit as u32)
                                    .ok_or_else(|| err(i, "invalid \\u escape"))?,
                            );
                        }
                    }
                    _ => return Err(err(i, "invalid escape character")),
                }
            }
            c if (c as u32) < 0x20 => {
                return Err(err(i, "unescaped control character in string"));
            }
            c => out.push(c),
        }
    }
    Err(err(src.len(), "unterminated string"))
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON value (with optional surrounding
/// whitespace).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first violation, including
/// nesting deeper than 64 levels.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(value)
}

/// Checks that `src` is exactly one valid JSON value: [`parse`] with
/// the tree dropped.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first violation.
pub fn validate(src: &str) -> Result<(), JsonError> {
    parse(src).map(|_| ())
}

/// Nesting deeper than this is refused.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos.min(self.src.len()), message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Skips a run of digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("value nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(map));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}` in object"));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]` in array"));
            }
        }
    }

    /// Finds the literal's closing quote, then copies it out directly
    /// when it holds no escape, or hands it to [`unescape`].
    fn string(&mut self) -> Result<String, JsonError> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut escaped = false;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    // The escape's first byte can never close the string;
                    // `unescape` checks the rest.
                    escaped = true;
                    self.pos += 2;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
        self.pos += 1;
        // Both ends are ASCII quotes, so these are char boundaries.
        let literal = &self.src[start..self.pos];
        if !escaped {
            return Ok(literal[1..literal.len() - 1].to_string());
        }
        unescape(literal).map_err(|e| JsonError { offset: start + e.offset, ..e })
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            if !self.digits() {
                return Err(self.err("expected a digit after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.err("expected a digit in exponent"));
            }
        }
        let text = &self.src[start..self.pos];
        match text.parse() {
            Ok(n) if !float => Ok(Json::Int(n)),
            _ => text.parse().map(Json::Float).map_err(|_| self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_grammar() {
        for ok in [
            "null",
            "true",
            " false ",
            "0",
            "-0",
            "-12.5e+3",
            "1E-2",
            "\"a\\n\\u00e9\"",
            "[]",
            "[1, [2, {\"k\": null}]]",
            "{\"a\": 1, \"b\": [true, \"x\"]}",
            r#"{"op":"hello","tenant":"a"}"#,
            r#"{"arg":7,"fuel":1000,"name":"sq","op":"invoke"}"#,
            r#"{"items":[1,-2,true,null,"x\n\"y\""],"nested":{"k":[{}]}}"#,
            "[1.5,2.0,-0.25]",
        ] {
            parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        let deepest = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        parse(&deepest).expect("nesting up to the cap is accepted");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "tru",
            "01",
            "-01",
            "1.",
            "-.5",
            "-",
            "1e",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":}",
            "{a: 1}",
            "{'a':1}",
            "\"unterminated",
            "\"raw\u{1}control\"",
            "1 2",
            "{} {}",
        ] {
            assert!(validate(bad).is_err(), "validate accepted: {bad:?}");
            assert!(parse(bad).is_err(), "parse accepted: {bad:?}");
        }
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep).is_err(), "over-deep nesting is refused");
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(validate(&deep).is_err(), "one level past the cap is refused");
    }

    /// 100,000 open brackets would overflow the stack of a parser
    /// that recursed once per level with no cap.
    #[test]
    fn unbounded_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(validate(&deep).is_err());
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("too deeply"), "{err}");
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn escape_round_trips_through_validate() {
        let nasty = "a\"b\\c\nd\te\u{1}f — π";
        validate(&escape(nasty)).unwrap();
        assert_eq!(parse(&escape(nasty)).unwrap(), Json::str(nasty));
    }

    /// Adversarial payloads: every control character, the quoting
    /// characters, DEL, line/paragraph separators, astral-plane text.
    /// `escape` must produce a literal that both validates and decodes
    /// back to the original, byte for byte.
    #[test]
    fn escape_unescape_round_trips_adversarial_payloads() {
        let mut all_controls = String::new();
        for c in 0u32..0x20 {
            all_controls.push(char::from_u32(c).unwrap());
        }
        let payloads = [
            all_controls.as_str(),
            "\u{0}embedded\u{0}nuls\u{0}",
            "quotes \" and \\ backslashes \\\" mixed",
            "\\u0000 (a literal escape sequence, not a control)",
            "\u{7f}\u{80}\u{9f}", // DEL and C1 controls pass through raw
            "\u{2028}line sep\u{2029}paragraph sep",
            "π ≠ 𝄞 😀 — astral pairs",
            "",
        ];
        for payload in payloads {
            let literal = escape(payload);
            validate(&literal).unwrap_or_else(|e| panic!("{payload:?}: {e}"));
            assert_eq!(
                unescape(&literal).as_deref(),
                Ok(payload),
                "round trip mangled {payload:?}"
            );
            assert_eq!(parse(&literal), Ok(Json::str(payload)), "parse mangled {payload:?}");
            assert_eq!(Json::str(payload).render(), literal, "the printer escapes the same");
        }
    }

    #[test]
    fn unescape_decodes_foreign_escapes() {
        // Escapes `escape` never emits but real JSON producers do.
        assert_eq!(unescape(r#""\/\b\f""#).unwrap(), "/\u{8}\u{c}");
        assert_eq!(unescape("\"\\ud834\\udd1e\"").unwrap(), "\u{1d11e}", "surrogate pair");
        assert_eq!(unescape("\"\\u00e9\\u2028\"").unwrap(), "\u{e9}\u{2028}");
        assert_eq!(parse("[\"\\ud834\\udd1e\"]").unwrap(), Json::Arr(vec![Json::str("\u{1d11e}")]));
    }

    #[test]
    fn unescape_rejects_malformed_literals() {
        for bad in [
            "",
            "x",
            "\"unterminated",
            "\"trailing\" x",
            r#""\q""#,
            r#""\u12""#,
            r#""\uZZZZ""#,
            r#""\ud834""#,        // lone high surrogate
            r#""\ud834A""#,  // high surrogate followed by a non-surrogate
            r#""\udd1e""#,        // lone low surrogate
            "\"raw\u{1}control\"",
            "\"ends in a backslash\\",
        ] {
            assert!(unescape(bad).is_err(), "accepted: {bad:?}");
            assert!(parse(bad).is_err(), "parse accepted: {bad:?}");
        }
        // The parser reports where in the document the bad escape is.
        assert_eq!(parse(r#"[1, "\q"]"#).unwrap_err().offset, 5);
    }

    #[test]
    fn round_trips_the_protocol_shapes() {
        let cases = [
            r#"{"op":"hello","tenant":"a"}"#,
            r#"{"arg":7,"fuel":1000,"name":"sq","op":"invoke"}"#,
            r#"{"items":[1,-2,true,null,"x\n\"y\""],"nested":{"k":[{}]}}"#,
            "[1.5,2.0,-0.25]",
        ];
        for src in cases {
            let value = parse(src).unwrap();
            assert_eq!(value.render(), src, "canonical text must round-trip");
            assert_eq!(parse(&value.render()).unwrap(), value);
        }
    }

    #[test]
    fn accessors_pick_typed_fields() {
        let v = parse(r#"{"op":"invoke","arg":7,"deep":{"x":1},"on":true}"#).unwrap();
        assert_eq!(v.get_str("op"), Some("invoke"));
        assert_eq!(v.get_int("arg"), Some(7));
        assert_eq!(v.get_bool("on"), Some(true));
        assert_eq!(v.get_str("arg"), None, "wrong type reads as absent");
        assert_eq!(v.get("deep").and_then(|d| d.get_int("x")), Some(1));
        assert_eq!(Json::Int(1).get("x"), None, "a non-object has no fields");
    }

    #[test]
    fn integral_floats_stay_floats_across_a_round_trip() {
        let v = Json::Float(2.0);
        assert_eq!(v.render(), "2.0");
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn counters_past_i64_read_back_as_floats() {
        assert_eq!(Json::from(7u64), Json::Int(7));
        let wide = Json::from(u64::MAX);
        assert_eq!(parse(&wide.render()), Ok(wide));
        assert_eq!(parse("18446744073709551615"), Ok(Json::Float(u64::MAX as f64)));
        assert_eq!(Json::Float(f64::NAN).render(), "null", "non-finite floats print as null");
    }
}
