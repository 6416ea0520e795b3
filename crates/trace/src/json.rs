//! Hand-rolled JSON helpers for the JSONL trace sink.
//!
//! The build environment has no crates.io access, so instead of `serde`
//! this module provides the pieces the flight recorder needs: a string
//! escaper and a decimal-digit pusher used while serialising events, a
//! small recursive-descent validator used by tests to check that every
//! emitted line is well-formed JSON, a [`Value`] tree parser for whole
//! documents (the journal header, run reports, matrix baselines), and a
//! tree-free scanner for the journal's body lines: one pass over one
//! flat object, fields borrowed from the line, no allocation. The
//! scanner accepts exactly the lines [`parse`] turns into an object and
//! agrees with [`Value::get`] on every key; the tests hold it to that
//! with [`parse`] as the reference.

use std::borrow::Cow;

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

/// Checks that `s` is exactly one well-formed JSON value.
///
/// This is a minimal validator (objects, arrays, strings, numbers,
/// booleans, null) used by tests to confirm trace lines parse; it is not
/// a general-purpose JSON library and does not build a document tree.
///
/// # Example
///
/// ```
/// use mp2p_trace::json;
///
/// assert!(json::is_valid(r#"{"t":12,"ev":"msg_send","dest":null}"#));
/// assert!(!json::is_valid(r#"{"t":12,"#));
/// ```
pub fn is_valid(s: &str) -> bool {
    let mut p = Parser::new(s);
    p.skip_ws();
    if !p.value() {
        return false;
    }
    p.skip_ws();
    p.pos == p.bytes.len()
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }
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

    fn value(&mut self) -> bool {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.eat("true"),
            Some(b'f') => self.eat("false"),
            Some(b'n') => self.eat("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    fn object(&mut self) -> bool {
        self.pos += 1; // consume '{'
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return true;
        }
        loop {
            self.skip_ws();
            if !self.string() {
                return false;
            }
            self.skip_ws();
            if self.bump() != Some(b':') {
                return false;
            }
            self.skip_ws();
            if !self.value() {
                return false;
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return true,
                _ => return false,
            }
        }
    }

    fn array(&mut self) -> bool {
        self.pos += 1; // consume '['
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return true;
        }
        loop {
            self.skip_ws();
            if !self.value() {
                return false;
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return true,
                _ => return false,
            }
        }
    }

    fn string(&mut self) -> bool {
        self.string_escapes().is_some()
    }

    /// Validates one string literal; `Some(true)` if it holds an escape.
    fn string_escapes(&mut self) -> Option<bool> {
        if self.bump() != Some(b'"') {
            return None;
        }
        let mut escaped = false;
        while let Some(b) = self.bump() {
            match b {
                b'"' => return Some(escaped),
                b'\\' => {
                    escaped = true;
                    match self.bump() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                        Some(b'u') => {
                            for _ in 0..4 {
                                match self.bump() {
                                    Some(h) if h.is_ascii_hexdigit() => {}
                                    _ => return None,
                                }
                            }
                        }
                        _ => return None,
                    }
                }
                0x00..=0x1F => return None,
                _ => {}
            }
        }
        None
    }

    fn number(&mut self) -> bool {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return false;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return false;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return false;
            }
        }
        true
    }
}

/// A parsed JSON value tree.
///
/// Numbers are stored as `f64`: every number the trace stack emits
/// (millisecond timestamps, node/item/query ids, byte counts) fits a
/// 53-bit mantissa exactly, so round-tripping through `f64` is lossless
/// for this domain.
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

    /// True if this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// The one integrality rule behind every `as_u64`: non-negative, no
/// fraction, within the 53 bits an `f64` holds exactly.
fn f64_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 9.007_199_254_740_992e15).then_some(n as u64)
}

/// Parses exactly one JSON value (surrounded by optional whitespace)
/// into a [`Value`] tree. Returns `None` on any syntax error.
///
/// # Example
///
/// ```
/// use mp2p_trace::json;
///
/// let v = json::parse(r#"{"t":12,"ev":"msg_send","dest":null}"#).unwrap();
/// assert_eq!(v.get("t").and_then(|t| t.as_u64()), Some(12));
/// assert_eq!(v.get("ev").and_then(|e| e.as_str()), Some("msg_send"));
/// assert!(v.get("dest").is_some_and(|d| d.is_null()));
/// ```
pub fn parse(s: &str) -> Option<Value> {
    let mut p = Parser::new(s);
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    (p.pos == p.bytes.len()).then_some(v)
}

impl Parser<'_> {
    fn parse_value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => self.parse_string().map(Value::Str),
            b't' => self.eat("true").then_some(Value::Bool(true)),
            b'f' => self.eat("false").then_some(Value::Bool(false)),
            b'n' => self.eat("null").then_some(Value::Null),
            b'-' | b'0'..=b'9' => self.parse_number(),
            _ => None,
        }
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
        if !self.number() {
            return None;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        text.parse::<f64>().ok().map(Value::Num)
    }
}

/// A string literal as the scanner found it, borrowed from the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Text<'a> {
    /// No escapes: the text between the quotes, usable as is.
    Plain(&'a str),
    /// Holds an escape: the whole validated literal, quotes included,
    /// decoded (allocating) only when someone asks for the text.
    Escaped(&'a str),
}

impl<'a> Text<'a> {
    /// The string's text, escapes resolved.
    pub(crate) fn decode(self) -> Cow<'a, str> {
        match self {
            Text::Plain(s) => Cow::Borrowed(s),
            Text::Escaped(raw) => Cow::Owned(
                Parser::new(raw)
                    .parse_string()
                    .expect("literal validated by the scanner"),
            ),
        }
    }

    fn is(self, s: &str) -> bool {
        self.decode() == s
    }
}

/// One value of a scanned flat object. The accessors mirror [`Value`]'s
/// and agree with them on every input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Field<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A bare run of at most [`EXACT_DIGITS`] digits, accumulated
    /// directly: exact both as `u64` and as `f64`.
    Int(u64),
    /// Any other number, through the validator and `str::parse::<f64>`
    /// exactly as [`parse`] reads it.
    Num(f64),
    /// A string.
    Str(Text<'a>),
    /// A nested array: its validated source span, see [`array_items`].
    Arr(&'a str),
    /// A nested object: its validated source span.
    Obj(&'a str),
}

/// Longest digit run the scanner turns into a `u64` without the `f64`
/// round trip: 10^15 < 2^53, so both readings agree.
const EXACT_DIGITS: usize = 15;

impl<'a> Field<'a> {
    /// The number as `u64`, if this is a non-negative integral number.
    pub(crate) fn as_u64(self) -> Option<u64> {
        match self {
            Field::Int(n) => Some(n),
            Field::Num(n) => f64_as_u64(n),
            _ => None,
        }
    }

    /// The string's text (escapes resolved), if this is a string.
    pub(crate) fn as_str(self) -> Option<Cow<'a, str>> {
        match self {
            Field::Str(text) => Some(text.decode()),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub(crate) fn as_bool(self) -> Option<bool> {
        match self {
            Field::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// True if this is `null`.
    pub(crate) fn is_null(self) -> bool {
        matches!(self, Field::Null)
    }
}

/// Fields kept on the stack before [`Fields`] spills to the heap. The
/// widest record the journal writer emits has nine.
const INLINE_FIELDS: usize = 12;

/// The `(key, value)` pairs of one scanned flat object, in source order.
pub(crate) struct Fields<'a> {
    inline: [(Text<'a>, Field<'a>); INLINE_FIELDS],
    len: usize,
    /// Pairs beyond the inline capacity; never touched by a line the
    /// writer produced.
    spill: Vec<(Text<'a>, Field<'a>)>,
}

impl<'a> Fields<'a> {
    /// An empty table, ready for [`Fields::scan`].
    pub(crate) fn new() -> Self {
        Fields {
            inline: [(Text::Plain(""), Field::Null); INLINE_FIELDS],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, key: Text<'a>, value: Field<'a>) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = (key, value);
                self.len += 1;
            }
            None => self.spill.push((key, value)),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &(Text<'a>, Field<'a>)> {
        self.inline[..self.len].iter().chain(&self.spill)
    }

    /// Looks up `key`; of duplicate keys the first wins, as in
    /// [`Value::get`].
    pub(crate) fn get(&self, key: &str) -> Option<Field<'a>> {
        self.iter().find(|(k, _)| k.is(key)).map(|&(_, v)| v)
    }

    /// Scans one flat JSON object (surrounded by optional whitespace)
    /// into `self`, replacing what it held, without building a tree.
    /// `Some` exactly when [`parse`] returns a [`Value::Obj`] for the
    /// same text; on `None` the contents are a rejected line's leftovers.
    /// Fills in place rather than returning the table: it is 600 bytes,
    /// and this runs once per journal line.
    pub(crate) fn scan(&mut self, s: &'a str) -> Option<()> {
        self.len = 0;
        self.spill.clear();
        let mut p = Parser::new(s);
        p.skip_ws();
        if p.bump() != Some(b'{') {
            return None;
        }
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                p.skip_ws();
                let key = p.scan_string()?;
                p.skip_ws();
                if p.bump() != Some(b':') {
                    return None;
                }
                p.skip_ws();
                let value = p.scan_value()?;
                self.push(key, value);
                p.skip_ws();
                match p.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return None,
                }
            }
        }
        p.skip_ws();
        (p.pos == p.bytes.len()).then_some(())
    }
}

/// The elements of an array span a [`Field::Arr`] carries, scanned on
/// demand by the same rules as an object's values.
pub(crate) fn array_items(span: &str) -> impl Iterator<Item = Field<'_>> {
    let mut p = Parser::new(span);
    p.pos = 1; // the span starts at its '['
    std::iter::from_fn(move || {
        p.skip_ws();
        if matches!(p.peek(), Some(b',')) {
            p.pos += 1;
            p.skip_ws();
        }
        if matches!(p.peek(), None | Some(b']')) {
            return None;
        }
        p.scan_value()
    })
}

impl<'a> Parser<'a> {
    /// The source between two byte offsets that sit on ASCII delimiters.
    fn span(&self, from: usize, to: usize) -> Option<&'a str> {
        self.src.get(from..to)
    }

    fn scan_value(&mut self) -> Option<Field<'a>> {
        let start = self.pos;
        match self.peek()? {
            b'"' => self.scan_string().map(Field::Str),
            b'-' | b'0'..=b'9' => self.scan_number(),
            b't' => self.eat("true").then_some(Field::Bool(true)),
            b'f' => self.eat("false").then_some(Field::Bool(false)),
            b'n' => self.eat("null").then_some(Field::Null),
            b'[' if self.array() => self.span(start, self.pos).map(Field::Arr),
            b'{' if self.object() => self.span(start, self.pos).map(Field::Obj),
            _ => None,
        }
    }

    fn scan_string(&mut self) -> Option<Text<'a>> {
        let open = self.pos;
        if self.string_escapes()? {
            self.span(open, self.pos).map(Text::Escaped)
        } else {
            self.span(open + 1, self.pos - 1).map(Text::Plain)
        }
    }

    fn scan_number(&mut self) -> Option<Field<'a>> {
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            if self.pos - start == EXACT_DIGITS {
                break;
            }
            n = n * 10 + u64::from(d - b'0');
            self.pos += 1;
        }
        if self.pos > start && !matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            return Some(Field::Int(n));
        }
        self.pos = start;
        if !self.number() {
            return None;
        }
        self.span(start, self.pos)?.parse().ok().map(Field::Num)
    }
}

/// A cursor over bytes expected to be spelled exactly as the journal
/// writer spells them: each method takes what the writer would have put
/// next, or takes nothing and returns `None`. It knows no whitespace, no
/// escape and nothing outside ASCII; text that needs any of those is the
/// scanner's, and whatever this reads, [`Fields::scan`] reads the same.
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

    /// Takes a run of 1 to [`EXACT_DIGITS`] digits: what `scan_number`
    /// reads as a [`Field::Int`]. A fraction or exponent after it is left
    /// for the next `eat` to trip over.
    #[inline]
    pub(crate) fn digits(&mut self) -> Option<u64> {
        let mut n: u64 = 0;
        let mut len = 0;
        while let Some(d @ b'0'..=b'9') = self.rest.get(len) {
            if len == EXACT_DIGITS {
                return None;
            }
            n = n * 10 + u64::from(d - b'0');
            len += 1;
        }
        if len == 0 {
            return None;
        }
        self.rest = &self.rest[len..];
        Some(n)
    }

    /// Takes a quoted run of printable ASCII with nothing to unescape:
    /// what `scan_string` reads as a [`Text::Plain`].
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
    use proptest::test_runner::TestRng;

    impl Field<'_> {
        /// The number as `f64`, if this is a number.
        fn as_f64(self) -> Option<f64> {
            match self {
                Field::Int(n) => Some(n as f64),
                Field::Num(n) => Some(n),
                _ => None,
            }
        }
    }

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
            assert!(is_valid(ok), "should accept {ok:?}");
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
            assert!(!is_valid(bad), "should reject {bad:?}");
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

    /// Asserts that a scanned value and a tree value are the same thing:
    /// same kind, same content, same answer from every accessor.
    fn assert_same_value(field: Field<'_>, value: &Value, line: &str) {
        match (field, value) {
            (Field::Null, Value::Null) => {}
            (Field::Bool(a), Value::Bool(b)) => assert_eq!(a, *b, "{line}"),
            (Field::Int(_) | Field::Num(_), Value::Num(n)) => {
                let got = field.as_f64().expect("numbers read as f64");
                assert_eq!(got.to_bits(), n.to_bits(), "{got} vs {n} in {line}");
            }
            (Field::Str(text), Value::Str(s)) => assert_eq!(text.decode(), s.as_str(), "{line}"),
            (Field::Arr(span), Value::Arr(items)) => {
                assert_eq!(parse(span).as_ref(), Some(value), "{line}");
                let scanned: Vec<Field<'_>> = array_items(span).collect();
                assert_eq!(scanned.len(), items.len(), "{line}");
                for (field, item) in scanned.into_iter().zip(items) {
                    assert_same_value(field, item, line);
                }
            }
            (Field::Obj(span), Value::Obj(_)) => {
                assert_eq!(parse(span).as_ref(), Some(value), "{line}");
            }
            (field, value) => panic!("{field:?} is not {value:?} in {line}"),
        }
        assert_eq!(field.as_u64(), value.as_u64(), "{line}");
        assert_eq!(field.as_f64(), value.as_f64(), "{line}");
        assert_eq!(field.as_str().as_deref(), value.as_str(), "{line}");
        assert_eq!(field.as_bool(), value.as_bool(), "{line}");
        assert_eq!(field.is_null(), value.is_null(), "{line}");
    }

    /// The scanner's whole contract, with [`parse`] as the reference:
    /// it accepts `line` iff the tree parser returns an object, lists the
    /// same pairs in the same order, and answers every lookup as
    /// [`Value::get`] does (first of duplicate keys).
    fn assert_scanner_matches_tree(line: &str) {
        let mut fields = Fields::new();
        let scanned = fields.scan(line);
        let parsed = parse(line);
        let Some(tree @ Value::Obj(pairs)) = &parsed else {
            assert!(scanned.is_none(), "scanner accepted a non-object: {line}");
            return;
        };
        assert!(scanned.is_some(), "scanner rejected an object: {line}");
        assert_eq!(fields.iter().count(), pairs.len(), "{line}");
        for ((key, field), (tree_key, value)) in fields.iter().zip(pairs) {
            assert_eq!(key.decode(), tree_key.as_str(), "{line}");
            assert_same_value(*field, value, line);
        }
        for (key, _) in pairs {
            let want = tree.get(key).expect("key is listed");
            let got = fields.get(key).expect("scanner lists the key too");
            assert_same_value(got, want, line);
        }
        assert!(fields.get("no such key").is_none());
    }

    #[test]
    fn scanner_matches_the_tree_on_the_awkward_cases() {
        for line in [
            "{}",
            " { } ",
            r#"{"t":12,"ev":"msg_send","dest":null}"#,
            // Number shapes: the u64 shortcut, its 15-digit edge, and
            // everything that must take the f64 path.
            r#"{"a":0,"b":007,"c":999999999999999,"d":1000000000000000}"#,
            r#"{"a":9007199254740992,"b":9007199254740993,"c":18446744073709551616}"#,
            r#"{"a":1.0,"b":1e3,"c":-0,"d":-5,"e":2.5,"f":1E-2,"g":12e+1,"h":0.0}"#,
            // Duplicate keys: the first wins.
            r#"{"k":1,"k":"two","k":null}"#,
            // Escapes in keys and values, including one that spells a
            // plain key and a lone surrogate.
            r#"{"t":1,"t":2,"s":"a\n\"b\\\/","u":"\ud800x","e":""}"#,
            // Nesting is validated and kept as a span.
            r#"{"ages":[3, 2 ,1,[4,{"x":[]}]],"o":{"a":{"b":[1,2]}},"z":[]}"#,
            // More fields than the inline table holds.
            r#"{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"h":8,"i":9,"j":10,"k":11,"l":12,"m":13,"n":14,"a":15}"#,
            // Rejections.
            "",
            "{",
            "}",
            "[1]",
            "12",
            "null",
            r#"{"a":1,}"#,
            r#"{"a":1}x"#,
            r#"{"a":1} {"b":2}"#,
            r#"{"a":[1,]}"#,
            r#"{"a":}"#,
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            r#"{"a":01a}"#,
            r#"{"a":1.}"#,
            r#"{"a":-}"#,
            r#"{"a":1e}"#,
            r#"{"a":"bad\x"}"#,
            r#"{"a":"\u12g4"}"#,
            r#"{"a\q":1}"#,
            "{\"a\":\"raw\ncontrol\"}",
            "{\"a\x01\":1}",
            r#"{"a":"unterminated}"#,
            r#"{"a":tru}"#,
            r#"{"a":nulll}"#,
        ] {
            assert_scanner_matches_tree(line);
        }
    }

    #[test]
    fn a_thirteenth_field_spills_without_losing_any() {
        let line = r#"{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"h":8,"i":9,"j":10,"k":11,"l":12,"m":13,"n":14}"#;
        let mut fields = Fields::new();
        fields.scan(line).expect("valid object");
        assert_eq!(fields.len, INLINE_FIELDS);
        assert_eq!(fields.spill.len(), 2);
        assert_eq!(fields.get("l").and_then(Field::as_u64), Some(12));
        assert_eq!(fields.get("n").and_then(Field::as_u64), Some(14));
    }

    /// Generates flat objects the way a hostile or hand-edited journal
    /// might spell them, and single-byte mutations of them.
    struct FlatObject;

    impl FlatObject {
        fn whitespace(rng: &mut TestRng, out: &mut String) {
            while rng.below(8) == 0 {
                out.push([' ', '\t', '\n', '\r'][rng.below(4) as usize]);
            }
        }

        fn digits(rng: &mut TestRng, out: &mut String) {
            // 1-20 digits, leading zeros included.
            for _ in 0..=rng.below(20) {
                out.push(char::from(b'0' + rng.below(10) as u8));
            }
        }

        fn number(rng: &mut TestRng, out: &mut String) {
            if rng.below(5) == 0 {
                out.push('-');
            }
            Self::digits(rng, out);
            if rng.below(4) == 0 {
                out.push('.');
                Self::digits(rng, out);
            }
            if rng.below(4) == 0 {
                out.push(['e', 'E'][rng.below(2) as usize]);
                match rng.below(3) {
                    0 => out.push('+'),
                    1 => out.push('-'),
                    _ => {}
                }
                out.push(char::from(b'0' + rng.below(10) as u8));
                if rng.below(2) == 0 {
                    out.push(char::from(b'0' + rng.below(10) as u8));
                }
            }
        }

        fn string(rng: &mut TestRng, out: &mut String) {
            match rng.below(8) {
                // A small pool, so keys repeat and journal keys appear.
                0..=2 => {
                    let pool = ["t", "ev", "node", "ages", "k", ""];
                    escape_into(out, pool[rng.below(pool.len() as u64) as usize]);
                }
                // Escapes `escape` never emits.
                3 => out.push_str(
                    [
                        r#""t""#,
                        r#""a\/b""#,
                        r#""\ud800""#,
                        r#""é中""#,
                        r#""\b\f\r\t""#,
                    ][rng.below(5) as usize],
                ),
                // Arbitrary unicode through the writer's own escaper.
                _ => {
                    let text: String = (0..rng.below(7))
                        .filter_map(|_| match rng.below(4) {
                            0 => char::from_u32(rng.below(0x80) as u32),
                            1 => Some(['"', '\\', '\n', '/', '\u{7f}'][rng.below(5) as usize]),
                            _ => char::from_u32(rng.below(0x11_0000) as u32),
                        })
                        .collect();
                    escape_into(out, &text);
                }
            }
        }

        fn value(rng: &mut TestRng, depth: u32, out: &mut String) {
            match rng.below(if depth < 3 { 10 } else { 8 }) {
                0..=3 => Self::number(rng, out),
                4 | 5 => Self::string(rng, out),
                6 => out.push_str(["true", "false"][rng.below(2) as usize]),
                7 => out.push_str("null"),
                8 => {
                    out.push('[');
                    for i in 0..rng.below(5) {
                        if i > 0 {
                            out.push(',');
                        }
                        Self::whitespace(rng, out);
                        Self::value(rng, depth + 1, out);
                        Self::whitespace(rng, out);
                    }
                    out.push(']');
                }
                _ => Self::object(rng, depth + 1, 4, out),
            }
        }

        fn object(rng: &mut TestRng, depth: u32, max_fields: u64, out: &mut String) {
            out.push('{');
            Self::whitespace(rng, out);
            for i in 0..rng.below(max_fields + 1) {
                if i > 0 {
                    out.push(',');
                }
                Self::whitespace(rng, out);
                Self::string(rng, out);
                Self::whitespace(rng, out);
                out.push(':');
                Self::whitespace(rng, out);
                Self::value(rng, depth, out);
                Self::whitespace(rng, out);
            }
            out.push('}');
        }
    }

    impl Strategy for FlatObject {
        /// The object, and one single-byte mutation of it.
        type Value = (String, Vec<u8>);

        fn pick(&self, rng: &mut TestRng) -> Self::Value {
            let mut line = String::new();
            Self::whitespace(rng, &mut line);
            Self::object(rng, 0, 20, &mut line);
            Self::whitespace(rng, &mut line);
            let mut mutated = line.clone().into_bytes();
            let at = rng.below(mutated.len() as u64) as usize;
            mutated[at] = match rng.below(3) {
                // Bytes the grammar cares about...
                0 | 1 => {
                    let grammar = b"\"\\{}[],:.-+eE019tfnu \n\x01";
                    grammar[rng.below(grammar.len() as u64) as usize]
                }
                // ...or anything at all.
                _ => rng.below(256) as u8,
            };
            (line, mutated)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Scanner ≡ tree parser over generated flat objects and over
        /// single-byte mutations of them: same accept/reject, same
        /// pairs, same first-match lookups.
        #[test]
        fn prop_scanner_matches_the_tree_parser((line, mutated) in FlatObject) {
            assert_scanner_matches_tree(&line);
            // The reader hands the scanner `&str` only; a mutation that
            // breaks UTF-8 never reaches it.
            if let Ok(mutated) = std::str::from_utf8(&mutated) {
                assert_scanner_matches_tree(mutated);
            }
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
            prop_assert!(is_valid(&line));
        }
    }
}
