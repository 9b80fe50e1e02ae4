//! The workspace's one JSON reader.
//!
//! The vendored `serde` stand-in provides derive markers only — there is
//! no `serde_json`. Structured output is written by hand-rolled emitters
//! ([`crate::DecisionTrace::to_json`], [`crate::TelemetrySample::to_json`],
//! the report's Perfetto exporter, `perf_baseline`), so this module
//! supplies the matching reader: a small recursive-descent parser over
//! the JSON grammar. [`crate::DecisionTrace::parse_json`],
//! [`crate::TelemetrySample::parse`] and `perf_baseline --check` all
//! decode through it.
//!
//! * **Linear time.** Every input byte is visited a constant number of
//!   times: a string's plain run up to the next `"` or `\` is copied in
//!   one slice, so a multi-megabyte trace parses in time proportional to
//!   its size.
//! * **Bounded depth.** Arrays and objects nest at most 128 deep;
//!   deeper input is an error (`nesting deeper than 128 at byte P`),
//!   never a stack overflow. Traces, Perfetto output and
//!   `BENCH_sched.json` nest at most five deep.
//! * **Strict escapes.** `\u` takes exactly four ASCII hex digits;
//!   anything else is an error naming the escape's byte offset.
//! * **Exact integers.** A plain unsigned integer literal that fits a
//!   `u64` is kept as [`JsonValue::UInt`], so ids above 2^53 read back
//!   exactly.

use std::collections::BTreeMap;

/// How deep arrays and objects may nest before [`JsonValue::parse`]
/// gives up with an error instead of recursing further.
const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as a plain unsigned integer that fits a `u64`,
    /// kept exact (an `f64` holds only 53 bits of it).
    UInt(u64),
    /// Any other JSON number, parsed as `f64`.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved (sorted map) — every
    /// consumer looks fields up by name.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses a complete JSON document.
    ///
    /// Trailing non-whitespace after the top-level value is an error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if this is a
    /// non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
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
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {start}")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1).ok_or_else(|| {
                                format!("bad \\u escape at byte {}", self.pos - 1)
                            })?;
                            // Surrogate pairs are not produced by any
                            // writer in this workspace; map them to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // `"` or `\`. Both are ASCII, so the run starts and
                    // ends on char boundaries of the `&str` input.
                    let run = self.pos;
                    self.pos = self.bytes[run..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| run + n);
                    out.push_str(
                        self.text
                            .get(run..self.pos)
                            .ok_or_else(|| format!("string split inside a char at byte {run}"))?,
                    );
                }
            }
        }
    }

    /// The code unit spelled by exactly four ASCII hex digits at `at`.
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.bytes.get(at..at + 4)?;
        digits
            .iter()
            .try_fold(0, |code, &b| Some(code << 4 | char::from(b).to_digit(16)?))
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

/// Escapes a string for embedding in JSON output (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(
            r#"{"events":[{"type":"started","t":1.5,"nodes":[0,2],"ok":true,"x":null}]}"#,
        )
        .expect("parses");
        let events = v
            .get("events")
            .and_then(JsonValue::as_array)
            .expect("array");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("type").and_then(JsonValue::as_str), Some("started"));
        assert_eq!(e.get("t").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(e.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(e.get("x"), Some(&JsonValue::Null));
        let nodes = e.get("nodes").and_then(JsonValue::as_array).expect("array");
        assert_eq!(nodes[1].as_u64(), Some(2));
    }

    #[test]
    fn parses_numbers_and_escapes() {
        let v = JsonValue::parse(r#"[-1.25e2, 0, "a\"b\nA"]"#).expect("parses");
        let a = v.as_array().expect("array");
        assert_eq!(a[0].as_f64(), Some(-125.0));
        assert_eq!(a[1].as_u64(), Some(0));
        assert_eq!(a[2].as_str(), Some("a\"b\nA"));
        assert_eq!(a[0].as_u64(), None, "negative numbers are not u64");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} extra").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        let v = JsonValue::parse(r#""\u0041\u00E9 é\"ü""#).expect("parses");
        assert_eq!(v.as_str(), Some("Aé é\"ü"));
        // `u32::from_str_radix` alone accepts a leading sign and would
        // decode `\u+041` as "A".
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
            r#""\u"#,
        ] {
            let err = JsonValue::parse(bad).expect_err(bad);
            assert_eq!(err, "bad \\u escape at byte 1", "{bad}");
        }
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_an_error() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&deepest).is_ok());
        // Deep enough to overflow the stack of an unbounded reader.
        let err = JsonValue::parse(&"[".repeat(200_000)).expect_err("too deep");
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        let err = JsonValue::parse(&objects).expect_err("too deep");
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line\nwith \"quotes\" and \\slashes\\ and \tctrl";
        let doc = format!("\"{}\"", escape(original));
        let v = JsonValue::parse(&doc).expect("parses");
        assert_eq!(v.as_str(), Some(original));
    }
}
