//! A minimal, dependency-free JSON value, writer and parser.
//!
//! The repo builds with no registry access, so result/report serialisation
//! is hand-rolled: build a [`Json`] tree, render it with [`Json::pretty`]
//! (or `to_string` for compact output), and read it back with
//! [`Json::parse`]. Object member order is preserved, which keeps emitted
//! reports diffable run to run.

use std::fmt::Write as _;

/// A JSON value. `Default` is `Null`.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Json {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for an object built from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric value as `u64` (lossy past 2^53, like all JSON).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().filter(|v| *v >= 0.0).map(|v| v as u64)
    }

    /// Numeric value as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().map(|v| v as i64)
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render on a single line with no trailing newline — the JSON Lines
    /// building block. Same output as `to_string`; the name documents
    /// intent at call sites.
    pub fn compact(&self) -> String {
        self.to_string()
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(members) => write_seq(out, indent, '{', '}', members.len(), |out, i, ind| {
                let (k, v) = &members[i];
                write_str(out, k);
                out.push_str(": ");
                v.write(out, ind);
            }),
        }
    }

    /// Parse a JSON document. Returns a readable error with byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(text, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null"); // JSON has no Inf/NaN
    } else if v.fract() == 0.0 && v.abs() < 9e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    if len == 0 {
        out.push(open);
        out.push(close);
        return;
    }
    out.push(open);
    for i in 0..len {
        match indent {
            Some(level) => {
                out.push('\n');
                out.push_str(&"  ".repeat(level + 1));
                item(out, i, Some(level + 1));
            }
            None => item(out, i, None),
        }
        if i + 1 < len {
            out.push(',');
            if indent.is_none() {
                out.push(' ');
            }
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(text, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash as one slice. Both
        // are ASCII, so the run ends on a character boundary.
        let run = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\');
        let end = run.map_or(bytes.len(), |n| *pos + n);
        out.push_str(&text[*pos..end]);
        *pos = end;
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A backslash: one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_round_trip_preserves_order() {
        let v = Json::obj(vec![
            ("z", Json::Num(1.0)),
            (
                "a",
                Json::Arr(vec![Json::Num(2.0), Json::Str("x\"y\n".into())]),
            ),
            ("m", Json::obj(vec![("k", Json::Null)])),
        ]);
        let compact = v.to_string();
        let pretty = v.pretty();
        assert_eq!(Json::parse(&compact).unwrap(), v);
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        // Insertion order survives rendering.
        assert!(compact.find("\"z\"").unwrap() < compact.find("\"a\"").unwrap());
    }

    #[test]
    fn string_escapes() {
        let v = Json::Str("tab\t nl\n quote\" back\\ ctrl\u{1}".into());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn large_integers_exact() {
        let v = Json::Num(3_350_107_615.0);
        assert_eq!(v.to_string(), "3350107615");
        assert_eq!(
            Json::parse("3350107615").unwrap().as_u64(),
            Some(3_350_107_615)
        );
    }

    #[test]
    fn errors_are_clean() {
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn compact_is_single_line() {
        let v = Json::obj(vec![("a", Json::Arr(vec![Json::Num(1.0), Json::Null]))]);
        let c = v.compact();
        assert_eq!(c, v.to_string());
        assert!(!c.contains('\n'), "{c}");
        assert_eq!(Json::parse(&c).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).to_string(), "null");
        }
        // Inside structures too, and the result stays parseable.
        let v = Json::obj(vec![("bad", Json::Num(f64::NAN)), ("ok", Json::Num(1.5))]);
        let text = v.pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("bad"), Some(&Json::Null));
        assert_eq!(parsed.get("ok").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn every_control_character_escapes_and_round_trips() {
        let s: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let v = Json::Str(s.clone());
        let text = v.to_string();
        // No raw control bytes may survive in the rendering.
        assert!(
            text.bytes().all(|b| b >= 0x20),
            "raw control byte in {text:?}"
        );
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn unicode_strings_round_trip() {
        let v = Json::Str("héllo → 世界 🚀".into());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        // \u escapes parse, including the replacement of lone surrogates.
        assert_eq!(Json::parse(r#""é""#).unwrap().as_str(), Some("é"));
        assert_eq!(
            Json::parse(r#""\ud800""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
        assert!(Json::parse(r#""\uzzzz""#).is_err());
    }

    #[test]
    fn deep_nesting_round_trips() {
        // 128 levels of alternating arrays and objects.
        let mut v = Json::Num(7.0);
        for i in 0..128 {
            v = if i % 2 == 0 {
                Json::Arr(vec![v])
            } else {
                Json::obj(vec![("d", v)])
            };
        }
        for text in [v.to_string(), v.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
        // Unbalanced deep input errors instead of succeeding bogusly.
        let open = "[".repeat(128);
        assert!(Json::parse(&open).is_err());
    }

    /// splitmix64, for generated documents.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        /// Up to `max` characters: plain ASCII runs, every character the
        /// writer escapes, and one-, two-, three- and four-byte UTF-8.
        fn string(&mut self, max: u64) -> String {
            const SPECIAL: [char; 12] = [
                '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}', '\u{7f}',
                ' ',
            ];
            const WIDE: [char; 4] = ['é', '→', '世', '🚀'];
            (0..self.below(max + 1))
                .map(|_| match self.below(8) {
                    0 => SPECIAL[self.below(SPECIAL.len() as u64) as usize],
                    1 => WIDE[self.below(WIDE.len() as u64) as usize],
                    _ => char::from(b'a' + self.below(26) as u8),
                })
                .collect()
        }

        fn value(&mut self, depth: u32) -> Json {
            match self.below(if depth == 0 { 4 } else { 6 }) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 0),
                2 => Json::Num(self.below(1 << 40) as f64 - (1u64 << 39) as f64),
                3 => {
                    let max = if self.below(4) == 0 { 5_000 } else { 12 };
                    Json::Str(self.string(max))
                }
                4 => Json::Arr((0..self.below(5)).map(|_| self.value(depth - 1)).collect()),
                _ => Json::Obj(
                    (0..self.below(5))
                        .map(|_| (self.string(8), self.value(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn generated_documents_round_trip() {
        let mut rng = Rng(17);
        for _ in 0..200 {
            let v = rng.value(4);
            assert_eq!(Json::parse(&v.compact()).unwrap(), v);
            assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        }
    }

    #[test]
    fn every_escape_parses() {
        let text = r#""\"\\\/\b\f\n\r\t\u00e9\u4e16x""#;
        let want = "\"\\/\u{8}\u{c}\n\r\té世x";
        assert_eq!(Json::parse(text).unwrap().as_str(), Some(want));
        for bad in [r#""\x""#, r#""\u12""#, r#""ab"#, r#""é\"#] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 4, "s": "x", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
    }
}
