//! The workspace's one JSON writer, [`Object`], which owns braces,
//! commas, key quoting, string escaping and float formatting for every
//! artifact, and its one reader, [`Fields`].

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// A JSON object under construction. Fields appear in call order, and
/// [`Object::finish`] returns the text.
///
/// ```
/// let mut o = bsub_obs::json::Object::new();
/// o.str("ev", "merge").u64("t_ms", 10).f64("fill", 2.0);
/// o.object("hist", |h| {
///     h.u64("count", 1);
/// });
/// assert_eq!(o.finish(), r#"{"ev":"merge","t_ms":10,"fill":2.0,"hist":{"count":1}}"#);
/// ```
#[derive(Debug, Default)]
pub struct Object(String);

impl Object {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the separator and the quoted key of the next field.
    fn key(&mut self, key: &str) -> &mut String {
        let out = &mut self.0;
        if out.is_empty() {
            out.push('{');
        } else if !out.ends_with('{') {
            out.push(',');
        }
        push_string(out, key);
        out.push(':');
        out
    }

    fn display(&mut self, key: &str, v: impl Display) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.display(key, v)
    }

    /// Adds a signed integer field.
    pub fn i64(&mut self, key: &str, v: i64) -> &mut Self {
        self.display(key, v)
    }

    /// Adds a `true`/`false` field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.display(key, v)
    }

    /// Adds a `null` field.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.display(key, "null")
    }

    /// Adds a float field in Rust's shortest round-trip form, the same
    /// on every platform. An integral value keeps a `.0`, so it reads
    /// back as a float; NaN and ±∞, which JSON lacks, become `null`.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        match v {
            v if !v.is_finite() => self.null(key),
            v if v.fract() == 0.0 => self.display(key, format_args!("{v}.0")),
            v => self.display(key, v),
        }
    }

    /// Adds an escaped string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        push_string(self.key(key), v);
        self
    }

    /// Adds a nested object field whose fields `fill` writes.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Object)) -> &mut Self {
        self.key(key).push('{');
        fill(self);
        self.0.push('}');
        self
    }

    /// Closes the object and returns its text.
    #[must_use]
    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The fields of one flat JSON object of string and number values. A
/// nested object, an array, a boolean, `null`, a repeated key or
/// trailing text is an error, as is reading a field that is not there.
///
/// ```
/// let f = bsub_obs::json::Fields::parse(r#"{"name":"fig7","runs":21,"ms":2.5}"#).unwrap();
/// assert_eq!((f.str("name"), f.num("runs"), f.num("ms")), (Ok("fig7".into()), Ok(21), Ok(2.5)));
/// ```
#[derive(Debug)]
pub struct Fields<'a>(Vec<(String, &'a str)>);

impl<'a> Fields<'a> {
    /// Parses `text`, which must hold one flat object and nothing else
    /// but whitespace.
    ///
    /// # Errors
    ///
    /// Names the first thing that is not part of a flat object.
    pub fn parse(text: &'a str) -> Result<Self, String> {
        let inner = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'));
        let mut rest = inner.ok_or("not one JSON object")?.trim();
        let mut fields: Vec<(String, &str)> = Vec::new();
        while !rest.is_empty() {
            if !fields.is_empty() {
                rest = after(rest, ',').ok_or("no ',' between fields")?;
            }
            let (key, tail) = string(rest)?;
            rest = after(tail, ':').ok_or_else(|| format!("no ':' after \"{key}\""))?;
            let tail = if rest.starts_with('"') {
                string(rest)?.1
            } else {
                let (num, tail) = rest.split_at(rest.find([',', ' ']).unwrap_or(rest.len()));
                let bad = || format!("\"{key}\" is neither a string nor a number");
                num.parse::<f64>().map_err(|_| bad())?;
                tail
            };
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("repeated key \"{key}\""));
            }
            fields.push((key, &rest[..rest.len() - tail.len()]));
            rest = tail.trim_start();
        }
        Ok(Self(fields))
    }

    fn get(&self, key: &str) -> Result<&'a str, String> {
        let field = self.0.iter().find(|(k, _)| k == key);
        field
            .map(|f| f.1)
            .ok_or_else(|| format!("missing field \"{key}\""))
    }

    /// The string field `key`, unescaped.
    ///
    /// # Errors
    ///
    /// When the field is missing or is a number.
    pub fn str(&self, key: &str) -> Result<String, String> {
        let raw = self.get(key)?;
        let s = string(raw).map(|(s, _)| s);
        s.map_err(|_| format!("field \"{key}\" is a number, not a string"))
    }

    /// The number field `key`, as a `u64`, `f64` or any other type
    /// that parses from a JSON number's text.
    ///
    /// # Errors
    ///
    /// When the field is missing, is a string, or does not fit `T`.
    pub fn num<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.get(key)?;
        raw.parse()
            .map_err(|_| format!("bad number \"{key}\": {raw}"))
    }
}

/// The text after `c`, when `text` starts with it (whitespace aside).
fn after(text: &str, c: char) -> Option<&str> {
    Some(text.trim_start().strip_prefix(c)?.trim_start())
}

/// Reads the quoted string `text` starts with; returns it unescaped,
/// and the text after its closing quote.
fn string(text: &str) -> Result<(String, &str), String> {
    let body = text.strip_prefix('"').ok_or("expected a string")?;
    let mut chars = body.char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &body[i + 1..])),
            '\\' => out.push(match chars.next().map(|(_, e)| e) {
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                    let code = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                    code.ok_or_else(|| format!("bad escape \\u{hex}"))?
                }
                Some(e @ ('"' | '\\')) => e,
                e => return Err(format!("bad escape {e:?}")),
            }),
            c if c < ' ' => return Err("unescaped control character in a string".into()),
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSON text of one value, as `Object` writes it.
    fn value(write: impl FnOnce(&mut Object)) -> String {
        let mut o = Object::new();
        write(&mut o);
        let text = o.finish();
        text["{\"v\":".len()..text.len() - 1].to_owned()
    }

    #[test]
    fn escapes_special_characters() {
        let s = |s: &str| {
            value(|o| {
                o.str("v", s);
            })
        };
        assert_eq!(s("plain"), "\"plain\"");
        assert_eq!(s("a\"b"), "\"a\\\"b\"");
        assert_eq!(s("a\\b"), "\"a\\\\b\"");
        assert_eq!(s("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(s("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn formats_floats() {
        let f = |v: f64| {
            value(|o| {
                o.f64("v", v);
            })
        };
        assert_eq!(f(1.5), "1.5");
        assert_eq!(f(0.0), "0.0");
        assert_eq!(f(2.0), "2.0");
        assert_eq!(f(-0.0625), "-0.0625");
        assert_eq!(f(-0.0), "-0.0");
        assert_eq!(f(-3.0), "-3.0");
        assert_eq!(f(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(
            f(1e21),
            format!("1{}.0", "0".repeat(21)),
            "never an exponent"
        );
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::INFINITY), "null");
    }

    #[test]
    fn writes_fields_in_order_with_nesting() {
        let mut o = Object::new();
        o.u64("a", 1).i64("b", -2).bool("c", true).null("d");
        o.object("e", |_| {});
        o.object("f", |f| {
            f.str("k\"ey", "v").bool("g", false);
        });
        o.object("h", |h| {
            h.object("i", |i| {
                i.u64("j", 3);
            });
        });
        assert_eq!(
            o.finish(),
            r#"{"a":1,"b":-2,"c":true,"d":null,"e":{},"f":{"k\"ey":"v","g":false},"h":{"i":{"j":3}}}"#
        );
        assert_eq!(Object::new().finish(), "{}");
        let mut nested_first = Object::new();
        nested_first.object("x", |_| {}).u64("y", 1);
        assert_eq!(nested_first.finish(), r#"{"x":{},"y":1}"#);
    }

    #[test]
    fn reads_what_the_writer_writes() {
        let key = "tab\t\"quote\" \\ \u{1} \r\n é";
        let mut o = Object::new();
        o.str("name", key)
            .u64("n", u64::MAX)
            .f64("x", -1.25e-7)
            .f64("y", 3.0);
        let text = o.finish();
        let f = Fields::parse(&text).expect("parses");
        assert_eq!(f.str("name").unwrap(), key);
        assert_eq!(f.num::<u64>("n").unwrap(), u64::MAX);
        assert_eq!(f.num::<f64>("x").unwrap(), -1.25e-7);
        assert_eq!(f.num::<f64>("y").unwrap(), 3.0);
        assert_eq!(f.num::<f64>("n").unwrap(), u64::MAX as f64);
        assert!(Fields::parse(" { } ").is_ok());
        let spaced = Fields::parse(r#" { "a" : 1 , "b" : "\"" } "#).unwrap();
        assert_eq!(spaced.str("b").unwrap(), "\"");
    }

    #[test]
    fn field_errors_name_the_key() {
        let f = Fields::parse(r#"{"s":"x","f":1.5,"n":-3}"#).unwrap();
        assert!(f
            .str("gone")
            .unwrap_err()
            .contains("missing field \"gone\""));
        assert!(f
            .num::<u64>("s")
            .unwrap_err()
            .contains("bad number \"s\": \"x\""));
        assert!(f.str("f").unwrap_err().contains("\"f\" is a number"));
        assert!(f
            .num::<u64>("f")
            .unwrap_err()
            .contains("bad number \"f\": 1.5"));
        assert!(f.num::<u64>("n").unwrap_err().contains("bad number \"n\""));
        assert_eq!(f.num::<f64>("n").unwrap(), -3.0);
    }

    #[test]
    fn rejects_everything_but_flat_string_and_number_fields() {
        for bad in [
            "",
            "[]",
            "{",
            r#"{"a":1"#,
            r#"{"a":1,}"#,
            r#"{,"a":1}"#,
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            r#"{"a":{}}"#,
            r#"{"a":[1]}"#,
            r#"{"a":true}"#,
            r#"{"a":null}"#,
            r#"{"a":1,"a":2}"#,
            r#"{"a":1} x"#,
            r#"{"a":1},"#,
            r#"{"a":"open}"#,
            r#"{"a":"\q"}"#,
            r#"{"a":"\u12"}"#,
            "{\"a\":\"\u{1}\"}",
            r#"{"a":1e}"#,
            r#"{"a":-}"#,
            r#"{"a":1-2}"#,
            r#"{"a":1é}"#,
            r#"{"a":"x"é}"#,
        ] {
            assert!(Fields::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
