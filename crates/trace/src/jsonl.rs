//! A minimal flat-JSON-object parser for the simulator's own JSONL dumps.
//!
//! Every exporter in this workspace (trace recorder, metrics registry,
//! health report, lineage table) writes one flat object per line whose
//! values are strings, finite numbers, booleans, or `null` — never nested
//! objects or arrays. This parser covers exactly that dialect, so the
//! offline tools stay dependency-free. Lines that do not conform are an
//! error, not a silent skip: `sps-inspect check` exists to catch format
//! drift. It lives beside the trace schema so that one crate owns both
//! directions (`TraceRecord::to_json` / `TraceRecord::from_json`).

/// One parsed scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// JSON `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer token that fits `u64`, kept exact: sequence
    /// numbers, transfer ids and byte counts do not survive `f64` past 2^53.
    Int(u64),
    /// Any other JSON number (a formatted float, a negative or an exponent).
    Num(f64),
    /// A string (escapes `\"`, `\\`, `\n`, `\t`, `\uXXXX` handled).
    Str(String),
}

impl JsonValue {
    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if a non-negative integer. A number written as
    /// a float (`5.0`, `1e3`) counts while `f64` still holds it exactly.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::Num(n) if (0.0..=EXACT).contains(n) && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parsed line: key/value pairs in source order.
pub type FlatObject = Vec<(String, JsonValue)>;

/// Looks a key up in a parsed line.
pub fn get<'a>(obj: &'a FlatObject, key: &str) -> Option<&'a JsonValue> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Escapes `s` into the JSON string dialect this parser reads, appending
/// to `out` (no surrounding quotes). ASCII controls and non-ASCII go
/// through `\uXXXX` (astral characters as a surrogate pair), so the output
/// is 7-bit clean — the exact inverse of [`parse_flat_object`]'s string
/// decoding.
pub fn escape_json(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (' '..='\u{7E}').contains(&c) => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04X}");
                }
            }
        }
    }
}

/// Parses one flat JSON object line. Returns a message naming the byte
/// offset on malformed input.
pub fn parse_flat_object(line: &str) -> Result<FlatObject, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
        p.skip_ws();
        return p.finish(out);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        out.push((key, value));
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            other => return Err(p.err(&format!("expected `,` or `}}`, got {other:?}"))),
        }
    }
    p.skip_ws();
    p.finish(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.next() {
            Some(got) if got == b => Ok(()),
            got => Err(self.err(&format!("expected {:?}, got {got:?}", b as char))),
        }
    }

    fn finish(mut self, out: FlatObject) -> Result<FlatObject, String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content after object"));
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.next() {
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.next() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        match code {
                            // High surrogate: a `\uXXXX` low surrogate must
                            // follow; the pair decodes to one astral char.
                            0xD800..=0xDBFF => {
                                if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                s.push(char::from_u32(c).ok_or_else(|| self.err("bad codepoint"))?);
                            }
                            0xDC00..=0xDFFF => {
                                return Err(self.err("unpaired low surrogate"));
                            }
                            _ => {
                                s.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("bad codepoint"))?,
                                );
                            }
                        }
                    }
                    other => return Err(self.err(&format!("bad escape {other:?}"))),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control char in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-by-byte.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("bad UTF-8 lead byte"))?;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    let part = std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(part);
                    self.pos = end;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .next()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'{' | b'[') => Err(self.err("nested values are not part of the flat dialect")),
            other => Err(self.err(&format!("unexpected value start {other:?}"))),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if let Ok(n) = text.parse() {
            return Ok(JsonValue::Int(n));
        }
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(&format!("bad number {text:?}")))?;
        if !n.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(JsonValue::Num(n))
    }
}

fn utf8_len(lead: u8) -> Option<usize> {
    match lead {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_workspace_dialect() {
        let line = "{\"t\":1500000000,\"kind\":\"recovery\",\"subjob\":1,\"phase\":\"detected\",\"ok\":true,\"pe\":null,\"x\":-1.5}";
        let obj = parse_flat_object(line).unwrap();
        assert_eq!(get(&obj, "t").unwrap().as_u64(), Some(1_500_000_000));
        assert_eq!(get(&obj, "kind").unwrap().as_str(), Some("recovery"));
        assert_eq!(get(&obj, "ok").unwrap().as_bool(), Some(true));
        assert_eq!(get(&obj, "pe"), Some(&JsonValue::Null));
        assert_eq!(get(&obj, "x").unwrap().as_f64(), Some(-1.5));
        assert!(get(&obj, "missing").is_none());
        assert_eq!(parse_flat_object("{}").unwrap().len(), 0);
        assert_eq!(
            parse_flat_object("{\"s\":\"a\\\"b\\\\c\\u0041\"}").unwrap()[0].1,
            JsonValue::Str("a\"b\\cA".into())
        );
    }

    #[test]
    fn integer_tokens_stay_exact() {
        let two53 = 1u64 << 53;
        for n in [two53 - 1, two53, two53 + 1, u64::MAX] {
            let obj = parse_flat_object(&format!("{{\"seq\":{n}}}")).unwrap();
            assert_eq!(obj[0].1, JsonValue::Int(n));
            assert_eq!(obj[0].1.as_u64(), Some(n));
        }
        // One past `u64::MAX` is a float, and too large a one to be a `u64`.
        let obj = parse_flat_object("{\"seq\":18446744073709551616}").unwrap();
        assert_eq!(obj[0].1.as_u64(), None);
        assert_eq!(obj[0].1.as_f64(), Some(18446744073709551616.0));
        let obj = parse_flat_object("{\"a\":5.0,\"b\":1e3,\"c\":-1,\"d\":0.5}").unwrap();
        let ints: Vec<_> = obj.iter().map(|(_, v)| v.as_u64()).collect();
        assert_eq!(ints, [Some(5), Some(1000), None, None]);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1}}",
            "{\"a\":[1]}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":1e999}",
            "{\"a\":\"unterminated}",
            "not json",
            "{\"a\":1} trailing",
        ] {
            assert!(parse_flat_object(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn utf8_strings_survive() {
        let obj = parse_flat_object("{\"s\":\"héllo→\"}").unwrap();
        assert_eq!(obj[0].1.as_str(), Some("héllo→"));
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_chars() {
        // U+1F600 = \uD83D\uDE00
        let obj = parse_flat_object("{\"s\":\"\\uD83D\\uDE00\"}").unwrap();
        assert_eq!(obj[0].1.as_str(), Some("\u{1F600}"));
        // Mixed with BMP escapes and literals.
        let obj = parse_flat_object("{\"s\":\"a\\u00E9\\uD83D\\uDE00z\"}").unwrap();
        assert_eq!(obj[0].1.as_str(), Some("aé\u{1F600}z"));
    }

    #[test]
    fn malformed_escapes_are_errors_not_panics() {
        for bad in [
            "{\"s\":\"\\uD83D\"}",        // lone high surrogate, string ends
            "{\"s\":\"\\uD83Dx\"}",       // high surrogate followed by raw char
            "{\"s\":\"\\uD83D\\n\"}",     // high surrogate followed by other escape
            "{\"s\":\"\\uD83D\\u0041\"}", // high surrogate + non-surrogate
            "{\"s\":\"\\uDE00\"}",        // lone low surrogate
            "{\"s\":\"\\uD8\"}",          // truncated hex
            "{\"s\":\"\\uZZZZ\"}",        // non-hex digits
            "{\"s\":\"\\q\"}",            // unknown escape
            "{\"s\":\"\\\"}",             // escape at end of input
        ] {
            assert!(parse_flat_object(bad).is_err(), "accepted: {bad:?}");
        }
    }

    /// Round-trip property: any string the workspace's exporters could
    /// emit — escaped with [`escape_json`], framed as a flat object, and
    /// fed back through the parser — must decode to the original. The
    /// sampler deliberately over-weights escapes, controls, BMP
    /// boundaries, and astral characters (surrogate pairs on the wire).
    #[test]
    fn randomized_strings_round_trip_through_escape_and_parse() {
        let mut rng = sps_sim::SimRng::seed_from(0xA0D17);
        for case in 0..500 {
            let len = (rng.next_u64() % 24) as usize;
            let mut original = String::new();
            for _ in 0..len {
                let c = match rng.next_u64() % 8 {
                    0 => char::from(b' ' + (rng.next_u64() % 95) as u8), // printable ASCII
                    1 => ['"', '\\', '/', '\n', '\t', '\r'][(rng.next_u64() % 6) as usize],
                    2 => char::from_u32((rng.next_u64() % 0x20) as u32).unwrap(), // controls
                    3 => '\u{FFFD}',
                    4 => char::from_u32(0x1F300 + (rng.next_u64() % 0x200) as u32).unwrap(),
                    5 => char::from_u32(0x10000 + (rng.next_u64() % 0x1000) as u32).unwrap(),
                    _ => loop {
                        // Arbitrary BMP scalar (skip the surrogate range).
                        let code = (rng.next_u64() % 0xFFFF) as u32;
                        if let Some(c) = char::from_u32(code) {
                            break c;
                        }
                    },
                };
                original.push(c);
            }
            let mut line = String::from("{\"s\":\"");
            escape_json(&original, &mut line);
            line.push_str("\"}");
            assert!(
                line.is_ascii(),
                "case {case}: escape output not 7-bit clean"
            );
            let obj = parse_flat_object(&line)
                .unwrap_or_else(|e| panic!("case {case}: {e} for {line:?}"));
            assert_eq!(
                get(&obj, "s").unwrap().as_str(),
                Some(original.as_str()),
                "case {case}: {line:?}"
            );
        }
    }
}
