//! The workspace's one JSON type. Every JSON it writes or reads goes
//! through [`Json`]: the trace and series JSON lines, the metrics
//! registry, the conformance corpus, `REPRO.json`, the `BENCH_*.json`
//! files, and the reader behind the golden checker's field-level report.
//!
//! Hand-rolled because the build environment has no serde.

/// A minimal JSON value: unsigned integers, strings, arrays, objects,
/// and decimals, `true`, `false` or `null` kept as written.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An unsigned integer.
    Num(u64),
    /// A decimal (`4176.9`), `true`, `false` or `null`, kept as its
    /// literal text so a document reads back exactly as it was written.
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
    /// Arrays of numbers stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// One line, no spaces and no trailing newline: the JSON-lines form.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// `indent` is the nesting depth when pretty-printing, `None` for
    /// one line.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Lit(text) => out.push_str(text),
            Json::Str(s) => write_str(out, s),
            // Number-only arrays stay on one line (SRAM images).
            Json::Arr(items)
                if indent.is_some() && items.iter().all(|i| matches!(i, Json::Num(_))) =>
            {
                write_seq(out, ('[', ']'), items, None, ", ", Json::write)
            }
            Json::Arr(items) => write_seq(out, ('[', ']'), items, indent, ",", Json::write),
            Json::Obj(fields) => write_seq(out, ('{', '}'), fields, indent, ",", write_field),
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
    pub fn int_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.field(key)?.to_int(key)
    }

    /// A required array-of-integers field of an object, each element
    /// converted to `T`.
    pub fn int_list<T: TryFrom<u64>>(&self, key: &str) -> Result<Vec<T>, String> {
        match self.field(key)? {
            Json::Arr(items) => items.iter().map(|i| i.to_int(key)).collect(),
            other => Err(format!("field {key}: expected array, got {other:?}")),
        }
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing field {key}"))
    }

    /// This value as a `T`. A number that does not fit is an error
    /// naming `key`, never a truncation.
    pub fn to_int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
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

fn write_str(out: &mut String, s: &str) {
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

fn write_field((key, value): &(String, Json), out: &mut String, indent: Option<usize>) {
    write_str(out, key);
    out.push_str(if indent.is_some() { ": " } else { ":" });
    value.write(out, indent);
}

/// `items` between `open` and `close`, separated by `sep`; one per line
/// at `indent + 1` when `indent` is set.
fn write_seq<T>(
    out: &mut String,
    (open, close): (char, char),
    items: &[T],
    indent: Option<usize>,
    sep: &str,
    write: impl Fn(&T, &mut String, Option<usize>),
) {
    out.push(open);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        if let Some(depth) = indent {
            newline(out, depth + 1);
        }
        write(item, out, indent.map(|depth| depth + 1));
    }
    if let (Some(depth), false) = (indent, items.is_empty()) {
        newline(out, depth);
    }
    out.push(close);
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

/// Comma-separated items up to `close`; the opening bracket is already
/// consumed.
fn parse_seq<T>(
    bytes: &[u8],
    pos: &mut usize,
    close: u8,
    item: impl Fn(&[u8], &mut usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(items);
    }
    loop {
        items.push(item(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&b) if b == close => {
                *pos += 1;
                return Ok(items);
            }
            _ => {
                return Err(format!(
                    "expected ',' or '{}' at offset {pos}",
                    close as char
                ))
            }
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let field = |bytes: &[u8], pos: &mut usize| {
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                Ok((key, parse_value(bytes, pos)?))
            };
            parse_seq(bytes, pos, b'}', field).map(Json::Obj)
        }
        Some(b'[') => {
            *pos += 1;
            parse_seq(bytes, pos, b']', parse_value).map(Json::Arr)
        }
        Some(b'"') => {
            *pos += 1;
            // Bytes, not chars: a multi-byte character is copied whole,
            // and the escapes split the text only at ASCII bytes.
            let mut s = Vec::new();
            loop {
                match bytes.get(*pos) {
                    Some(b'"') => {
                        *pos += 1;
                        let s = String::from_utf8(s).expect("a &str split at ASCII bytes");
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(&b @ (b'"' | b'\\')) => s.push(b),
                            other => return Err(format!("unsupported escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&b) => {
                        s.push(b);
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
        Some(b't' | b'f' | b'n') => {
            let word = ["true", "false", "null"]
                .into_iter()
                .find(|word| bytes[*pos..].starts_with(word.as_bytes()))
                .ok_or_else(|| format!("unexpected literal at offset {pos}"))?;
            *pos += word.len();
            Ok(Json::Lit(word.to_string()))
        }
        other => Err(format!("unexpected {other:?} at offset {pos}")),
    }
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn both_layouts_and_every_literal_read_back() {
        let line = r#"{"a":[1,2],"b":["x\"\\","µs"],"c":{},"d":[true,false,null,0.50]}"#;
        let doc = Json::parse(line).unwrap();
        assert_eq!(doc.line(), line);
        let pretty = "{\n  \"a\": [1, 2],\n  \"b\": [\n    \"x\\\"\\\\\",\n    \"µs\"\n  ],\n  \
                      \"c\": {},\n  \"d\": [\n    true,\n    false,\n    null,\n    0.50\n  ]\n}\n";
        assert_eq!(doc.pretty(), pretty);
        assert_eq!(Json::parse(pretty), Ok(doc));
        for bad in ["tru", "[fals]", "-1", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
