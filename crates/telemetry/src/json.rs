//! Minimal JSON parser, Chrome-trace schema checker and the workspace's
//! one string escaper ([`json_string`]).
//!
//! The workspace deliberately carries no serialization dependency, so trace
//! validation (used by the CI `telemetry-smoke` job and `trace_check`) is
//! built on this small recursive-descent parser. It accepts strict JSON —
//! good enough to validate our own exporters and to reject malformed output.

use std::collections::BTreeMap;

/// `s` as a JSON string literal, quotes included: the one escaper every
/// exporter in the workspace writes strings with.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object. A `BTreeMap` is sufficient: the trace schema has no
    /// duplicate or order-sensitive keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a JSON document. Returns a message with byte offset on error.
pub fn parse(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

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
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{word}'"))
        }
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                            if self.pos + 5 > self.bytes.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or escape
                    // in one slice: validating UTF-8 per character would
                    // make parsing quadratic in the document size.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
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
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Event counts produced by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// `"X"` complete-span events.
    pub spans: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// `"M"` metadata events.
    pub metadata: usize,
}

/// Parse `s` and verify it is a structurally valid Chrome trace-event
/// document: a top-level object with a `traceEvents` array where every event
/// carries `name`/`ph`/`pid`/`tid`, spans carry numeric `ts` + `dur`, and
/// instants carry numeric `ts`. Returns per-phase counts.
pub fn validate_chrome_trace(s: &str) -> Result<TraceCheck, String> {
    let doc = parse(s)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut check = TraceCheck::default();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        for key in ["name", "pid", "tid"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i}: missing {key}"));
            }
        }
        match ph {
            "X" => {
                if ev.get("ts").and_then(Json::as_num).is_none()
                    || ev.get("dur").and_then(Json::as_num).is_none()
                {
                    return Err(format!("event {i}: span without numeric ts/dur"));
                }
                check.spans += 1;
            }
            "i" => {
                if ev.get("ts").and_then(Json::as_num).is_none() {
                    return Err(format!("event {i}: instant without numeric ts"));
                }
                check.instants += 1;
            }
            "M" => check.metadata += 1,
            other => return Err(format!("event {i}: unexpected phase '{other}'")),
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v =
            parse(r#"{"a": [1, -2.5, 3e2], "b": {"c": null, "d": true}, "e": "x\ny"}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn string_runs_handle_escapes_and_multibyte() {
        let v = parse(r#""plain πρόθεση \"q\" tail""#).unwrap();
        assert_eq!(v.as_str(), Some("plain πρόθεση \"q\" tail"));
        // A long string must parse in one pass (the per-char validation
        // bug this guards against made large documents quadratic).
        let big = format!("\"{}\"", "x".repeat(1 << 20));
        let t0 = std::time::Instant::now();
        assert_eq!(parse(&big).unwrap().as_str().map(str::len), Some(1 << 20));
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "string parsing is superlinear"
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn validates_trace_schema() {
        let good = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"C0"}},
            {"name":"cpu","ph":"X","pid":0,"tid":0,"ts":1.000,"dur":2.000},
            {"name":"buy","ph":"i","s":"t","pid":0,"tid":7,"ts":3.000}
        ]}"#;
        let check = validate_chrome_trace(good).unwrap();
        assert_eq!(
            check,
            TraceCheck {
                spans: 1,
                instants: 1,
                metadata: 1
            }
        );
        let no_dur = r#"{"traceEvents":[{"name":"cpu","ph":"X","pid":0,"tid":0,"ts":1.0}]}"#;
        assert!(validate_chrome_trace(no_dur).is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }
}
