//! The JSON reader and string escaper of `gpumem-core` and `gpumem-bench`,
//! hand-rolled since the workspace has no crates.io dependencies: a
//! recursive-descent parser over a [`Json`] value tree, and [`quote`] for
//! every string the anchors and the Chrome trace export write. Writers
//! keep their own number formats and layout.

/// A parsed JSON value. Objects keep insertion order (anchors are rendered
/// and diffed as text, so order stability matters).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_string(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    /// Accepts the lenient `NaN`/`Infinity`/`-Infinity` tokens so the gate
    /// can load — and then reject — a damaged anchor instead of refusing to
    /// read it at all. Errors carry the byte offset they were found at.
    pub fn parse(text: &str) -> Result<Json, (usize, String)> {
        let (bytes, mut pos) = (text.as_bytes(), 0usize);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err((pos, "trailing content after JSON document".into()));
        }
        Ok(value)
    }
}

/// `s` as a JSON string literal, surrounding quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, (usize, String)> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err((*pos, "unexpected end of input".into())),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::String(parse_string(b, pos)?)),
        Some(b't') => parse_token(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_token(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_token(b, pos, "null", Json::Null),
        Some(b'N') => parse_token(b, pos, "NaN", Json::Number(f64::NAN)),
        Some(b'I') => parse_token(b, pos, "Infinity", Json::Number(f64::INFINITY)),
        Some(b'-') if b.get(*pos + 1) == Some(&b'I') => {
            parse_token(b, pos, "-Infinity", Json::Number(f64::NEG_INFINITY))
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err((*pos, format!("unexpected byte {:?}", *c as char))),
    }
}

fn parse_token(b: &[u8], pos: &mut usize, tok: &str, v: Json) -> Result<Json, (usize, String)> {
    if b[*pos..].starts_with(tok.as_bytes()) {
        *pos += tok.len();
        Ok(v)
    } else {
        Err((*pos, format!("expected {tok:?}")))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, (usize, String)> {
    let start = *pos;
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| (start, "bad utf8".to_string()))?;
    text.parse::<f64>().map(Json::Number).map_err(|e| (start, format!("bad number: {e}")))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, (usize, String)> {
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err((*pos, "unterminated string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or((*pos, "truncated \\u escape".to_string()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| (*pos, format!("bad \\u escape {hex:?}")))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err((*pos, format!("bad escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Up to the next quote or backslash: ASCII, so a char boundary.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *pos + n);
                let run = std::str::from_utf8(&b[*pos..end])
                    .map_err(|_| (*pos, "bad utf8 in string".to_string()))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, (usize, String)> {
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err((*pos, "expected ',' or ']'".into())),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, (usize, String)> {
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(items));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err((*pos, "expected string key".into()));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err((*pos, "expected ':'".into()));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        items.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(items));
            }
            _ => return Err((*pos, "expected ',' or '}'".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y\n"}, "d": null}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].1.as_array().unwrap()[2].as_number().unwrap(), -300.0);
        assert_eq!(obj[1].1.as_object().unwrap()[0].1.as_string(), Some("x\"y\n"));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        let s = "µs \"q\" \\ tab\t nl\n bell\u{7}";
        assert_eq!(Json::parse(&quote(s)).unwrap().as_string(), Some(s));
        assert_eq!(quote("a\u{1}"), "\"a\\u0001\"");
    }
}
