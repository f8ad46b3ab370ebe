//! One hand-rolled JSON value module for the whole workspace: emit *and*
//! parse.
//!
//! The workspace deliberately has no serde (see `crates/compat/README.md`);
//! before this module every layer grew its own emitter or parser — the
//! Chrome-trace schema checker in [`crate::obs`], the witness reader in
//! `hetchol-analyze::mc`, `Figure::to_json`, the bench-report validator.
//! They now share this one [`JsonValue`] (the parser moved here verbatim
//! from `obs`) and the job-API wire format of the `hetchol-serve` crate is
//! built directly on it.
//!
//! Numbers are `f64` throughout, like JSON itself: integers are exact up
//! to 2⁵³ (large identifiers such as content hashes should travel as hex
//! *strings*, see [`crate::hash`]). The compact renderer prints integral
//! floats without a fractional part, so `u64` counters and nanosecond
//! timestamps round-trip byte-identically through
//! [`JsonValue::render`] → [`parse_json`].
//!
//! ```
//! use hetchol_core::json::{parse_json, JsonValue};
//!
//! let v = JsonValue::Obj(vec![
//!     ("n".into(), JsonValue::Num(8.0)),
//!     ("scheduler".into(), JsonValue::Str("dmdas".into())),
//! ]);
//! let text = v.render();
//! assert_eq!(text, r#"{"n":8,"scheduler":"dmdas"}"#);
//! assert_eq!(parse_json(&text).unwrap(), v);
//! ```

use std::fmt;
use std::fmt::Write as _;

/// A parsed or to-be-emitted JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member lookup that *requires* the member to exist (wire-format
    /// readers want an error message naming the missing key).
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        match self {
            JsonValue::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            other => Err(format!(
                "expected an object with field {key:?}, got {other:?}"
            )),
        }
    }

    /// The value as a non-negative integer (exact, `fract() == 0`).
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Ok(*n as u64)
            }
            other => Err(format!("expected a non-negative integer, got {other:?}")),
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            JsonValue::Num(n) => Ok(*n),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(format!("expected a bool, got {other:?}")),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            other => Err(format!("expected an array, got {other:?}")),
        }
    }

    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Shorthand number constructor for anything convertible to `f64`
    /// (integers are exact up to 2⁵³ — see the module docs).
    pub fn num(n: impl Into<f64>) -> JsonValue {
        JsonValue::Num(n.into())
    }

    /// A `u64` as a JSON number. Debug-asserts the value survives the
    /// `f64` crossing; counters and nanosecond times always do.
    pub fn uint(n: u64) -> JsonValue {
        let f = n as f64;
        debug_assert_eq!(f as u64, n, "u64 {n} not exactly representable; send hex");
        JsonValue::Num(f)
    }

    /// Render compactly (no whitespace), in member order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_num(*n, out),
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Append `s` as a quoted, escaped JSON string. Runs of bytes that need
/// no escape are copied whole.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    // Every byte that needs an escape is ASCII, so each cut below falls
    // on a character boundary.
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append a JSON number: finite values via Rust's shortest round-tripping
/// `{}` formatting (integral floats print bare, `123` not `123.0`);
/// NaN/infinity become `null`, as JSON requires.
pub fn write_num(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Parse a complete JSON document (strict: one value, nothing trailing).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
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

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so the limit keeps a hostile document (say
/// 60 000 `[`) an error instead of a stack overflow on a small thread
/// stack; no document this workspace writes nests past a handful.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
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
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|&c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    /// A string literal. Each run of bytes up to the next `"` or `\` is
    /// appended whole, so parsing is linear in the literal's length.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
            self.pos += run;
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape stands for; `self.pos` is just past the
    /// backslash.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        self.pos += 1;
        Ok(match self.bytes.get(at) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let unit = self.hex4()?;
                // A high surrogate followed by a low one is one scalar
                // (UTF-16 pair); an unpaired surrogate becomes U+FFFD.
                if (0xd800..0xdc00).contains(&unit) && self.bytes[self.pos..].starts_with(b"\\u") {
                    let resume = self.pos;
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        let scalar = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                        return Ok(char::from_u32(scalar).expect("a surrogate pair is a scalar"));
                    }
                    self.pos = resume;
                }
                char::from_u32(unit).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {at}")),
        })
    }

    /// Exactly four hex digits (the body of a `\u` escape).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        let unit = digits.iter().fold(0, |acc, &d| {
            acc * 16 + (d as char).to_digit(16).expect("hex digit")
        });
        self.pos += 4;
        Ok(unit)
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let v = JsonValue::Obj(vec![
            (
                "a".into(),
                JsonValue::Arr(vec![
                    JsonValue::Num(1.0),
                    JsonValue::Num(-2.5),
                    JsonValue::Str("q\"\n".into()),
                    JsonValue::Null,
                    JsonValue::Bool(true),
                    JsonValue::Obj(Vec::new()),
                ]),
            ),
            ("b".into(), JsonValue::Num(1e300)),
        ]);
        let text = v.render();
        assert_eq!(parse_json(&text).unwrap(), v);
    }

    #[test]
    fn integral_floats_print_bare() {
        assert_eq!(JsonValue::uint(123).render(), "123");
        assert_eq!(JsonValue::Num(123.5).render(), "123.5");
        let ns = 86_400_000_000_000u64; // a day in nanoseconds
        assert_eq!(JsonValue::uint(ns).render(), ns.to_string());
        assert_eq!(parse_json(&ns.to_string()).unwrap().as_u64().unwrap(), ns);
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn typed_accessors_report_errors() {
        let v = parse_json(r#"{"n": 4, "s": "x", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.field("n").unwrap().as_u64().unwrap(), 4);
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "x");
        assert!(v.field("b").unwrap().as_bool().unwrap());
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.field("missing").is_err());
        assert!(v.field("s").unwrap().as_u64().is_err());
        assert!(JsonValue::Num(1.5).as_u64().is_err());
        assert!(JsonValue::Null.field("x").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let v = parse_json(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1f600}");
        assert_eq!(
            parse_json(r#""\uD83D\uDE00!""#).unwrap().as_str().unwrap(),
            "\u{1f600}!"
        );
        // Unpaired halves (and a high surrogate followed by a non-low
        // escape) each stay U+FFFD; the following escape still decodes.
        assert_eq!(
            parse_json(r#""\ud83d""#).unwrap().as_str().unwrap(),
            "\u{fffd}"
        );
        assert_eq!(
            parse_json(r#""\ude00x""#).unwrap().as_str().unwrap(),
            "\u{fffd}x"
        );
        assert_eq!(
            parse_json(r#""\ud83d\u0041""#).unwrap().as_str().unwrap(),
            "\u{fffd}A"
        );
        assert_eq!(
            parse_json(r#""\u00e9\u0041""#).unwrap().as_str().unwrap(),
            "\u{e9}A"
        );
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u00g1""#,
            r#""\u12""#,
            r#""\ud83d\u+e00""#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse_json(&objects).unwrap_err().contains("nesting"));
        // Far past the limit, on a thread stack much smaller than the
        // 2 MiB a server connection thread gets.
        let hostile = "[".repeat(60_000);
        let err = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse_json(&hostile))
            .unwrap()
            .join()
            .unwrap()
            .unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn strict_parse_rejects_trailing() {
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("").is_err());
    }
}
