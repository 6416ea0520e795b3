//! Hand-rolled JSON helpers for the JSONL trace sink.
//!
//! The build environment has no crates.io access, so instead of `serde`
//! this module provides the pieces the flight recorder needs: a string
//! escaper and a decimal-digit pusher used while serialising events,
//! one grammar — the [`Value`] tree parser [`parse`], behind every
//! document read but the journal (run reports, matrix baselines) — and
//! a `Cursor` that takes a journal line in the writer's own spelling,
//! and no other, without building anything.

/// Appends `s` to `out` as a JSON string literal, including the
/// surrounding quotes.
///
/// Escapes `"` and `\`, the usual control-character shorthands, and any
/// other byte below `0x20` as `\u00XX`.
///
/// # Example
///
/// ```
/// use mp2p_trace::json;
///
/// let mut out = String::new();
/// json::escape_into(&mut out, "a\"b\\c\n");
/// assert_eq!(out, r#""a\"b\\c\n""#);
/// ```
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().any(needs_escape) {
        push_escaped(out, s);
    } else {
        // Every label the journal writer emits lands here.
        out.push_str(s);
    }
    out.push('"');
}

/// The general path of [`escape_into`]: `s` character by character.
fn push_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                for shift in [4, 0] {
                    let digit = (b >> shift) & 0xF;
                    out.push(char::from_digit(digit, 16).expect("hex digit"));
                }
            }
            c => out.push(c),
        }
    }
}

/// True for the bytes [`escape_into`] cannot copy verbatim.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `n` in decimal, without going through `core::fmt`.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [b'0'; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(buf[start..].iter().map(|&digit| char::from(digit)));
}

/// Returns `s` as a quoted, escaped JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// A parsed JSON value tree.
///
/// Numbers are stored as `f64`, exact up to 2^53: enough for every
/// document this tree reads (journal headers, run reports, matrix
/// baselines). A journal body line, whose `u64` fields may be wider, is
/// read without it.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order (duplicate keys kept as-is).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => f64_as_u64(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The one integrality rule behind every `as_u64`: non-negative, no
/// fraction, within the 53 bits an `f64` holds exactly.
fn f64_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 9.007_199_254_740_992e15).then_some(n as u64)
}

/// Deepest nesting of arrays and objects [`parse`] follows; a deeper
/// document is refused rather than recursed into until the stack
/// overflows. Nothing this repo writes nests deeper than four.
const MAX_DEPTH: usize = 128;

/// Parses exactly one JSON value (surrounded by optional whitespace)
/// into a [`Value`] tree. Returns `None` on any syntax error and on
/// arrays and objects nested more than 128 deep.
///
/// # Example
///
/// ```
/// use mp2p_trace::json;
///
/// let v = json::parse(r#"{"t":12,"ev":"msg_send","dest":null}"#).unwrap();
/// assert_eq!(v.get("t").and_then(|t| t.as_u64()), Some(12));
/// assert_eq!(v.get("ev").and_then(|e| e.as_str()), Some("msg_send"));
/// assert_eq!(v.get("dest"), Some(&json::Value::Null));
/// assert!(json::parse(r#"{"t":12,"#).is_none());
/// ```
pub fn parse(s: &str) -> Option<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        room: MAX_DEPTH,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    (p.pos == p.bytes.len()).then_some(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Levels of nesting left before [`MAX_DEPTH`].
    room: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'{' => self.nested(Self::parse_object),
            b'[' => self.nested(Self::parse_array),
            b'"' => self.parse_string().map(Value::Str),
            b't' => self.eat("true").then_some(Value::Bool(true)),
            b'f' => self.eat("false").then_some(Value::Bool(false)),
            b'n' => self.eat("null").then_some(Value::Null),
            b'-' | b'0'..=b'9' => self.parse_number(),
            _ => None,
        }
    }

    /// Runs `parse` one level deeper, if there is room.
    fn nested(&mut self, parse: fn(&mut Self) -> Option<Value>) -> Option<Value> {
        self.room = self.room.checked_sub(1)?;
        let value = parse(self);
        self.room += 1;
        value
    }

    fn parse_object(&mut self) -> Option<Value> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                return None;
            }
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Some(Value::Obj(fields)),
                _ => return None,
            }
        }
    }

    fn parse_array(&mut self) -> Option<Value> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Some(Value::Arr(items)),
                _ => return None,
            }
        }
    }

    fn parse_string(&mut self) -> Option<String> {
        if self.bump() != Some(b'"') {
            return None;
        }
        let mut out = Vec::new();
        loop {
            match self.bump()? {
                b'"' => break,
                b'\\' => match self.bump()? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0C),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let mut code: u32 = 0;
                        for _ in 0..4 {
                            let h = self.bump()?;
                            code = code * 16 + (h as char).to_digit(16)?;
                        }
                        // Surrogate pairs never appear in our own output;
                        // map lone surrogates to the replacement char.
                        let ch = char::from_u32(code).unwrap_or('\u{FFFD}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return None,
                },
                b @ 0x20.. => out.push(b),
                _ => return None, // raw control character
            }
        }
        String::from_utf8(out).ok()
    }

    fn parse_number(&mut self) -> Option<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits()?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        text.parse::<f64>().ok().map(Value::Num)
    }

    /// Takes a run of at least one digit.
    fn digits(&mut self) -> Option<()> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        (self.pos > start).then_some(())
    }
}

/// A cursor over bytes expected to be spelled exactly as the journal
/// writer spells them: each method takes what the writer would have put
/// next, or takes nothing and returns `None`. It knows no whitespace, no
/// escape and nothing outside ASCII: what the writer never writes, it
/// never takes.
pub(crate) struct Cursor<'a> {
    /// What has not been taken yet.
    pub(crate) rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Takes `literal` if it comes next.
    #[inline]
    pub(crate) fn eat(&mut self, literal: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(literal.as_bytes())?;
        Some(())
    }

    /// Takes a `u64` in decimal, as `push_u64` writes it: no leading
    /// zero, nothing past `u64::MAX`. A fraction or exponent after it is
    /// left for the next `eat` to trip over.
    #[inline]
    pub(crate) fn digits(&mut self) -> Option<u64> {
        let mut n: u64 = 0;
        let mut len = 0;
        while let Some(d @ b'0'..=b'9') = self.rest.get(len) {
            let d = u64::from(d - b'0');
            // Nineteen digits always fit; from the twentieth on they may not.
            n = if len < 19 {
                n * 10 + d
            } else {
                n.checked_mul(10)?.checked_add(d)?
            };
            len += 1;
        }
        if len == 0 || (len > 1 && self.rest[0] == b'0') {
            return None;
        }
        self.rest = &self.rest[len..];
        Some(n)
    }

    /// Takes a quoted run of printable ASCII with nothing to unescape.
    #[inline]
    pub(crate) fn label(&mut self) -> Option<&'a str> {
        let body = self.rest.strip_prefix(b"\"")?;
        let len = body
            .iter()
            .position(|&b| !matches!(b, b' '..=b'~') || b == b'"' || b == b'\\')?;
        if body[len] != b'"' {
            return None;
        }
        let text = std::str::from_utf8(&body[..len]).ok()?;
        self.rest = &body[len + 1..];
        Some(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escapes_specials_and_controls() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(escape("nl\ncr\rtab\t"), "\"nl\\ncr\\rtab\\t\"");
        assert_eq!(escape("\u{8}\u{c}"), "\"\\b\\f\"");
        assert_eq!(escape("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(escape("uni ✓ 漢"), "\"uni ✓ 漢\"");
    }

    #[test]
    fn validator_accepts_well_formed_values() {
        for ok in [
            "null",
            "true",
            "false",
            "0",
            "-12.5e3",
            "\"hi\"",
            "[]",
            "[1, 2, 3]",
            "{}",
            r#"{"a": [1, {"b": null}], "c": "x"}"#,
            r#"{"t":0,"ev":"node_down","node":3}"#,
        ] {
            assert!(parse(ok).is_some(), "should accept {ok:?}");
        }
    }

    #[test]
    fn validator_rejects_malformed_values() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01a",
            "1 2",
            "nul",
            "{\"a\":1,}",
            "\"bad\\x\"",
            "-",
            "1.",
            "1e",
        ] {
            assert!(parse(bad).is_none(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parser_builds_the_expected_tree() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x\ny", "d": true, "e": -2.5}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Arr(vec![
                Value::Num(1.0),
                Value::Obj(vec![("b".to_string(), Value::Null)]),
            ])
        );
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x\ny"));
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("e").and_then(Value::as_f64), Some(-2.5));
        assert_eq!(v.get("e").and_then(Value::as_u64), None, "negative");
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_rejects_what_the_validator_rejects() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "\"bad\\x\"", "1 2"] {
            assert!(parse(bad).is_none(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_past_the_cap_is_refused_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(parse(&nested(open, close, 128)).is_some(), "{open}");
            assert!(parse(&nested(open, close, 129)).is_none(), "{open}");
        }
        // Depth is nesting, not a count of brackets: siblings do not add.
        let wide = format!("[{}]", vec![nested("[", "]", 127); 3].join(","));
        assert!(parse(&wide).is_some());
        // Far past the cap it is refused just the same, without recursing.
        assert!(parse(&"[".repeat(2_000_000)).is_none());
    }

    #[test]
    fn parser_resolves_escapes() {
        let v = parse(r#""a\"b\\cA\n""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\cA\n"));
    }

    #[test]
    fn u64_roundtrip_is_exact_for_53_bits() {
        let big = (1u64 << 53) - 1;
        let v = parse(&format!("{{\"n\":{big}}}")).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(big));
    }

    /// `escape` with the verbatim-copy shortcut taken out.
    fn escape_slowly(s: &str) -> String {
        let mut out = String::from("\"");
        push_escaped(&mut out, s);
        out.push('"');
        out
    }

    #[test]
    fn escape_shortcut_equals_the_general_path_on_every_label() {
        use crate::event::{
            BlameCause, EventKind, FrameFateKind, LevelTag, RelayTransitionKind, ServedBy,
            SpanPhase,
        };
        use mp2p_metrics::MessageClass;

        let mut labels: Vec<&str> = Vec::new();
        labels.extend(EventKind::ALL.map(EventKind::label));
        labels.extend(FrameFateKind::ALL.map(FrameFateKind::label));
        labels.extend(BlameCause::ALL.map(BlameCause::label));
        labels.extend(SpanPhase::ALL.map(SpanPhase::label));
        labels.extend(LevelTag::ALL.map(LevelTag::label));
        labels.extend(ServedBy::ALL.map(ServedBy::label));
        labels.extend(RelayTransitionKind::ALL.map(RelayTransitionKind::label));
        labels.extend(MessageClass::ALL.map(MessageClass::label));
        for label in labels {
            assert!(!label.bytes().any(needs_escape), "{label} needs no escape");
            assert_eq!(escape(label), escape_slowly(label));
            assert_eq!(escape(label), format!("\"{label}\""));
        }
    }

    #[test]
    fn pushed_digits_equal_to_string() {
        for n in [
            0,
            9,
            10,
            99,
            100,
            u64::from(u32::MAX),
            1 << 53,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = String::from("x");
            push_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    proptest! {
        #[test]
        fn prop_escaped_strings_roundtrip_through_parse(
            codes in proptest::collection::vec(0u32..0x11_0000, 0..64),
        ) {
            let s: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
            prop_assert_eq!(escape(&s), escape_slowly(&s));
            let line = format!("{{\"s\":{}}}", escape(&s));
            let v = parse(&line).expect("escaped string must parse");
            prop_assert_eq!(v.get("s").and_then(Value::as_str), Some(s.as_str()));
        }

        #[test]
        fn prop_escaped_strings_always_validate(
            codes in proptest::collection::vec(0u32..0x11_0000, 0..64),
        ) {
            // Any unicode string (surrogate code points skipped), once
            // escaped, must embed into a valid JSON object.
            let s: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
            let line = format!("{{\"s\":{}}}", escape(&s));
            prop_assert!(parse(&line).is_some());
        }
    }
}
