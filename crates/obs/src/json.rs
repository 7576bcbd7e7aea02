//! Minimal JSON utilities (no serde anywhere in the workspace): string
//! escaping for the hand-written exporters and store records, a strict
//! recursive-descent syntax validator used by the golden tests, and a
//! flat-object reader for `hb-serve`'s store records. The validator and
//! the reader share one parser, so there is one string/number grammar.

use std::collections::BTreeMap;

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Quotes and escapes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Validates that `s` is exactly one well-formed JSON value (per RFC 8259
/// syntax; no trailing garbage). Returns the byte offset of the first
/// error.
pub fn validate(s: &str) -> Result<(), String> {
    document(s, Parser::value)
}

/// A flat-object value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A JSON string (unescaped).
    Str(String),
    /// An unsigned integer.
    Num(u64),
}

/// Parses a single flat JSON object (`{"k":"v","n":3}`) into a key → value
/// map. Values must be strings or unsigned integers; nesting and duplicate
/// keys are rejected.
///
/// # Errors
///
/// Returns a message describing the first syntax problem.
pub fn parse_object(s: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut map = BTreeMap::new();
    document(s, |p| {
        p.object(&mut |p, key| {
            let value = match p.peek() {
                Some(b'"') => JsonValue::Str(p.string()?),
                Some(c) if c.is_ascii_digit() => {
                    let start = p.pos;
                    p.number()?;
                    let digits = &s[start..p.pos];
                    JsonValue::Num(digits.parse().map_err(|_| {
                        format!("{digits:?} is not an unsigned integer at byte {start}")
                    })?)
                }
                _ => return Err(p.err("expected string or unsigned integer value")),
            };
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            Ok(())
        })
    })?;
    Ok(map)
}

/// Runs `f` over the whole of `s`, allowing surrounding whitespace only.
fn document<'a>(
    s: &'a str,
    f: impl FnOnce(&mut Parser<'a>) -> Result<(), String>,
) -> Result<(), String> {
    let mut p = Parser {
        b: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    f(&mut p)?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(&mut |p, _| p.value()),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses an object, handing each member's key to `member`, which must
    /// consume the value.
    fn object(
        &mut self,
        member: &mut dyn FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
    }

    /// Parses a string literal and returns it unescaped. A `\\u` escape
    /// naming half of a surrogate pair decodes to U+FFFD ([`escape`] never
    /// emits one).
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let c = match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(String::from_utf8(out).expect("input is UTF-8")),
                Some(b'\\') => match self.bump() {
                    Some(e @ (b'"' | b'\\' | b'/')) => char::from(e),
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        let mut code = 0;
                        for _ in 0..4 {
                            match self.bump().and_then(|h| char::from(h).to_digit(16)) {
                                Some(d) => code = code * 16 + d,
                                None => return Err(self.err("bad \\u escape")),
                            }
                        }
                        char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(c) => {
                    out.push(c);
                    continue;
                }
            };
            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a fraction digit"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected an exponent digit"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "0",
            "-12.5e3",
            "true",
            "null",
            r#""hi \"there\"""#,
            r#"{"a":[1,2,{"b":null}],"c":"é"}"#,
            "  { \"k\" : [ 1 , 2 ] }\n",
        ] {
            assert!(validate(doc).is_ok(), "rejected valid {doc:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "\"unterminated",
            "nul",
            "{} extra",
            "{'a':1}",
        ] {
            assert!(validate(doc).is_err(), "accepted invalid {doc:?}");
        }
    }

    #[test]
    fn quote_and_parse_object_roundtrip() {
        let obj = format!(
            "{{\"plain\":{},\"tricky\":{},\"n\":42}}",
            quote("hello"),
            quote("a\"b\\c\nd\tz \u{7} é")
        );
        let map = parse_object(&obj).unwrap();
        assert_eq!(map["plain"], JsonValue::Str("hello".to_owned()));
        assert_eq!(
            map["tricky"],
            JsonValue::Str("a\"b\\c\nd\tz \u{7} é".to_owned())
        );
        assert_eq!(map["n"], JsonValue::Num(42));
        assert!(parse_object("{}").unwrap().is_empty());
        assert!(parse_object(" { } ").unwrap().is_empty());
    }

    #[test]
    fn parse_object_rejects_non_flat_or_malformed() {
        for bad in [
            "",
            "{",
            "{}x",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":-1}",
            "{\"a\":1.5}",
            "{\"a\":{}}",
            "{\"a\":[]}",
            "{\"a\":true}",
            "{\"a\":1}{",
            "{\"a\":1,\"a\":2}",
            "{\"a\":99999999999999999999}",
            "[1]",
        ] {
            assert!(parse_object(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_validation() {
        let nasty = "quote \" backslash \\ newline \n tab \t bell \u{7}";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        assert!(validate(&doc).is_ok(), "{doc}");
    }
}
