//! A small JSON value with a hand-rolled emitter and parser (the build has
//! no crates.io access).  The emitter refuses non-finite numbers: a NaN or
//! an infinity in a result is a measurement bug, never something to print.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialise on one line.  Fails on a non-finite number, naming the
    /// path to it.
    pub fn emit(&self) -> Result<String, String> {
        let mut out = String::new();
        self.emit_into(&mut out, "$")?;
        Ok(out)
    }

    fn emit_into(&self, out: &mut String, path: &str) -> Result<(), String> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    return Err(format!("non-finite number {n} at {path}"));
                }
                // `{}` prints the shortest digits that round-trip, never an
                // exponent-less truncation; integers print without ".0".
                write!(out, "{n}").expect("writing to a String");
            }
            Json::Str(s) => emit_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.emit_into(out, &format!("{path}[{i}]"))?;
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    emit_string(out, key);
                    out.push_str(": ");
                    value.emit_into(out, &format!("{path}.{key}"))?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

fn emit_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_whitespace();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_whitespace();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_whitespace();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_whitespace();
                    let key = self.string()?;
                    self.skip_whitespace();
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.skip_whitespace();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => {
                self.pos = start;
                Err(self.error("malformed number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(hex);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_round_trip() {
        let tricky = "quote\" backslash\\ newline\n tab\t bell\u{7} é";
        let text = Json::str(tricky).emit().unwrap();
        assert_eq!(
            text,
            "\"quote\\\" backslash\\\\ newline\\n tab\\t bell\\u0007 é\""
        );
        assert_eq!(Json::parse(&text).unwrap(), Json::str(tricky));
    }

    #[test]
    fn non_finite_numbers_are_a_hard_error_naming_the_path() {
        let doc = Json::obj(vec![(
            "metrics",
            Json::obj(vec![("solve_s.mp", Json::Arr(vec![Json::Num(f64::NAN)]))]),
        )]);
        let err = doc.emit().unwrap_err();
        assert!(err.contains("$.metrics.solve_s.mp[0]"), "{err}");
        assert!(Json::Num(f64::INFINITY).emit().is_err());
        assert!(Json::parse("1e999").is_err(), "overflowing literal");
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let text = Json::Num(0.123_456_789_012_345_67).emit().unwrap();
        assert_eq!(text.parse::<f64>().unwrap(), 0.123_456_789_012_345_67);
        assert_eq!(Json::Num(3.0).emit().unwrap(), "3");
    }

    #[test]
    fn documents_round_trip_through_the_parser() {
        let doc = Json::obj(vec![
            (
                "a",
                Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(true)]),
            ),
            ("b", Json::obj(vec![("c", Json::str("d"))])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(Json::parse(&doc.emit().unwrap()).unwrap(), doc);
        assert_eq!(
            Json::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap(),
            Json::obj(vec![("k", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))])
        );
        assert!(Json::parse("{\"k\": 1} x").is_err());
        assert!(Json::parse("[1, ").is_err());
    }
}
