//! Minimal JSON: the conformance corpus format, `REPRO.json`, and the
//! reader behind the golden checker's field-level report.
//!
//! Hand-rolled because the build environment has no serde.

/// A minimal JSON value: unsigned integers, strings, arrays, objects,
/// and decimals or `null` kept as written.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An unsigned integer.
    Num(u64),
    /// A decimal (`4176.9`) or `null`, kept as its literal text so a
    /// document reads back exactly as it was written.
    Lit(String),
    /// A string (simple escapes only: `\"` and `\\`).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Lit(text) => out.push_str(text),
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        _ => out.push(ch),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Number-only arrays stay on one line (SRAM images).
                if items.iter().all(|i| matches!(i, Json::Num(_))) {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, 0);
                    }
                    out.push(']');
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    Json::Str(key.clone()).write(out, 0);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the subset [`Json`] can represent).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required integer field of an object, converted to `T`.
    pub(crate) fn int_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        match self.get(key) {
            Some(value) => value.to_int(key),
            None => Err(format!("missing field {key}")),
        }
    }

    /// A required array-of-integers field of an object, each element
    /// converted to `T`.
    pub(crate) fn int_list<T: TryFrom<u64>>(&self, key: &str) -> Result<Vec<T>, String> {
        match self.get(key) {
            Some(Json::Arr(items)) => items.iter().map(|i| i.to_int(key)).collect(),
            Some(other) => Err(format!("field {key}: expected array, got {other:?}")),
            None => Err(format!("missing field {key}")),
        }
    }

    /// This value as a `T`. A number that does not fit is an error
    /// naming `key`, never a truncation.
    pub(crate) fn to_int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        match self {
            Json::Num(n) => T::try_from(*n).map_err(|_| {
                format!(
                    "field {key}: {n} does not fit in {}",
                    std::any::type_name::<T>()
                )
            }),
            other => Err(format!("field {key}: expected number, got {other:?}")),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            other => return Err(format!("unsupported escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&b) => {
                        s.push(b as char);
                        *pos += 1;
                    }
                    None => return Err("unterminated string".to_string()),
                }
            }
        }
        Some(b) if b.is_ascii_digit() => {
            let start = *pos;
            *pos += bytes[start..]
                .iter()
                .take_while(|b| b.is_ascii_digit() || **b == b'.')
                .count();
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits and dots");
            match text.parse::<u64>() {
                Ok(n) => Ok(Json::Num(n)),
                Err(_) if text.parse::<f64>().is_ok() => Ok(Json::Lit(text.to_string())),
                Err(_) => Err(format!("bad number at offset {start}")),
            }
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Lit("null".to_string()))
        }
        other => Err(format!("unexpected {other:?} at offset {pos}")),
    }
}
