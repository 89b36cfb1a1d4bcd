//! A minimal recursive-descent JSON reader for the bench artifacts.
//!
//! The workspace is fully offline (no serde), and the only JSON this
//! crate consumes is the machine-generated `bench::emit` schema — small
//! documents written by our own bins. This parser covers the complete
//! JSON grammar (objects, arrays, strings with escapes, numbers, bools,
//! null) with byte offsets in its errors; it does not try to be fast.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Object keys are kept in a `BTreeMap`, so
/// traversal order (and everything derived from it) is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on objects (`None` for other kinds or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Containers nested deeper than this are an error: the parser recurses
/// once per level, and a garbage file of `[[[[…` must not be able to
/// overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a character boundary of `text`: it only ever steps over
    /// ASCII bytes or one whole scalar.
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    /// The grammar is ASCII, so it is matched on bytes.
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("containers nested too deeply"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Four hex digits exactly: `from_str_radix`
                            // alone would also take a sign.
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Basic-multilingual-plane only; our writers
                            // never emit surrogate pairs.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one whole scalar of the `&str`.
                    let ch = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peek saw a byte here");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Escapes a string for embedding in JSON output (used by the writers
/// that share this schema).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(
            r#"{"a": [1, 2.5, -3e-2], "b": {"x": true, "y": null}, "s": "hi\n\"there\" é"}"#,
        )
        .expect("parse");
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("x").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("y"), Some(&Value::Null));
        assert_eq!(
            v.get("s").unwrap().as_str(),
            Some("hi\n\"there\" \u{e9}")
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "tab\there \"quoted\" back\\slash\nnewline";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }

    /// A document shaped like the bench artifacts this crate reads, with
    /// every kind of token in it: nesting, escapes, a `\u` escape,
    /// multi-byte characters, exponents, negative numbers, literals.
    const DOCUMENT: &str = r#"{"suite": "kernels µs", "host": {"threads": 2, "avx2": true, "note": null},
        "series": [{"label": "conv1 fwd — é", "x": [1, 2.5e3, -4], "y": [0.41, 1.19E-1, 7]},
                   {"label": "tab\there \"q\" \\ \/ \u00b5", "x": [], "y": [{}]}]}"#;

    /// What the CDS1 / RCP1 decoders promise, for the text format: damage
    /// is a typed error that names a byte inside the input — never a
    /// panic, an out-of-range offset, or a hang.
    fn assert_typed_outcome(text: &str) -> Result<Value, ParseError> {
        let outcome = parse(text);
        if let Err(e) = &outcome {
            assert!(e.offset <= text.len(), "offset {} past {}", e.offset, text.len());
            assert!(!e.message.is_empty());
        }
        outcome
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        assert!(assert_typed_outcome(DOCUMENT).is_ok());
        for len in (0..DOCUMENT.len()).filter(|&i| DOCUMENT.is_char_boundary(i)) {
            assert!(
                assert_typed_outcome(&DOCUMENT[..len]).is_err(),
                "the first {len} bytes parsed as a whole document"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_a_document_or_a_typed_error() {
        let mut survived = 0;
        for i in 0..DOCUMENT.len() {
            for bit in 0..8 {
                let mut bytes = DOCUMENT.as_bytes().to_vec();
                bytes[i] ^= 1 << bit;
                // `parse` takes a `&str`: damage that breaks the encoding
                // is the caller's `from_utf8` error, not this parser's.
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    survived += assert_typed_outcome(text).is_ok() as usize;
                }
            }
        }
        // Some flips only change a letter inside a string or a digit:
        // those are still documents, and most others are not.
        assert!(survived > 0 && survived < DOCUMENT.len() * 4);
    }

    #[test]
    fn garbage_is_a_typed_error() {
        use xrng::RandomSource;
        let mut rng = xrng::seeded(0x150);
        // Characters biased toward JSON's own punctuation, so the parser
        // gets past its first token often enough to reach every state.
        let alphabet: Vec<char> = r#"{}[]",:\u0123456789eE+-.tfn alsr é"#.chars().collect();
        for len in (0..200).chain([1000, 5000]) {
            let text: String = (0..len)
                .map(|_| alphabet[(rng.next_u64() % alphabet.len() as u64) as usize])
                .collect();
            let _ = assert_typed_outcome(&text);
        }
        assert!(parse("\"\\u+123\"").is_err(), "a sign is not a hex digit");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested too deeply"), "{err}");
        assert!(assert_typed_outcome(&"[{\"k\":".repeat(100_000)).is_err());
    }
}
