//! A JSON emitter written by hand: the vendored `serde_derive` expands to
//! nothing, so there is no serializer to derive.

use std::fmt::Write;

/// A JSON value. Objects keep insertion order, so output is diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of numbers.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value on one line, no spaces.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// The value indented by two spaces per level, arrays of scalars on one
    /// line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
            // JSON has no NaN or infinity; `{}` prints the shortest decimal
            // that reads back as the same f64, so no measured digit is lost.
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => write!(out, "{v}").expect("writing to a String cannot fail"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                let flat = items.iter().all(Json::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if flat && indent.is_some() {
                            out.push(' ');
                        }
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Reads `metrics.<name>.value` back out of a result line this module wrote
/// with [`Json::compact`]. `selfcheck` compares child runs through it; it is
/// not a JSON parser and relies on the compact layout.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let j = Json::str("a\"b\\c\nd\te\u{1}é");
        assert_eq!(j.compact(), "\"a\\\"b\\\\c\\nd\\te\\u0001é\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_non_finite_is_null() {
        assert_eq!(Json::Num(1.2034).compact(), "1.2034");
        assert_eq!(Json::Num(0.1 + 0.2).compact(), "0.30000000000000004");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Int(u64::MAX).compact(), "18446744073709551615");
    }

    #[test]
    fn compact_and_pretty_layouts() {
        let j = Json::obj([
            ("a", Json::nums(&[1.0, 2.5])),
            (
                "b",
                Json::obj([("c", Json::Bool(true)), ("d", Json::Int(7))]),
            ),
            ("e", Json::Arr(vec![])),
        ]);
        assert_eq!(
            j.compact(),
            "{\"a\":[1,2.5],\"b\":{\"c\":true,\"d\":7},\"e\":[]}"
        );
        assert_eq!(
            j.pretty(),
            "{\n  \"a\": [1, 2.5],\n  \"b\": {\n    \"c\": true,\n    \"d\": 7\n  },\n  \"e\": []\n}\n"
        );
    }

    #[test]
    fn metric_value_reads_back_a_result_line() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            (
                "metrics",
                Json::obj([
                    (
                        "ops_per_s",
                        Json::obj([("value", Json::Num(27014.25)), ("unit", Json::str("1/s"))]),
                    ),
                    (
                        "setup_s",
                        Json::obj([("value", Json::Num(0.5)), ("unit", Json::str("s"))]),
                    ),
                ]),
            ),
        ])
        .compact();
        assert_eq!(metric_value(&line, "ops_per_s"), Some(27014.25));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.5));
        assert_eq!(metric_value(&line, "cpu_us_per_op"), None);
    }
}
