//! The one JSON writer every report renders through ([`document`] and
//! [`Writer`]), and a validating parser for its output.
//!
//! The writer owns every layout decision: separators, escaping of every
//! string (board, fault-plan and kernel names flow in verbatim), `null`
//! for `None`, float precision given per value, one-line versus
//! one-member-per-line containers, and indentation by nesting depth.
//! Reports only name their members, so the byte-identical replay
//! guarantee rests on this one module.
//!
//! [`validate`] is a minimal JSON parser (structure only, no value
//! tree) used by tests to prove emitted documents stay well-formed even
//! under hostile labels.

use std::fmt::Write as _;

/// Escape `s` for inclusion inside a JSON string literal (between the
/// quotes): `"` and `\`, the common control characters by mnemonic, and
/// the rest of the C0 range as `\u00XX`. Clean labels pass unchanged.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
}

/// An integer or boolean value; `None` is `null`. Strings go through
/// [`Writer::string`] and floats through [`Writer::fixed`].
pub trait Scalar {
    fn write_to(&self, out: &mut String);
}

macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                write!(out, "{self}").expect("writing to a String cannot fail");
            }
        }
    )*};
}

display_scalar!(bool, u8, u32, u64, usize);

impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

/// Write one JSON document: an object with one member per line, whose
/// members `members` writes, followed by a newline.
pub fn document(members: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    w.container(None, ['{', '}'], true, members);
    w.out.push('\n');
    w.out
}

/// Appends JSON to one growing buffer. A container method runs the
/// closure that writes its members between the brackets. One-line
/// containers separate members with `", "`; the others put each member
/// on a line indented two spaces deeper than the container's own.
#[derive(Default)]
pub struct Writer {
    out: String,
    /// Indentation level of the line the innermost container opened on.
    depth: usize,
    /// The innermost container puts one member per line.
    lines: bool,
    /// The innermost container has a member already.
    started: bool,
}

impl Writer {
    /// Start a member: separator, new line if the container puts one
    /// member per line, then the key if the container is an object.
    fn member(&mut self, key: Option<&str>) {
        if std::mem::replace(&mut self.started, true) {
            self.out.push_str(if self.lines { "," } else { ", " });
        }
        if self.lines {
            self.newline(self.depth + 1);
        }
        if let Some(key) = key {
            self.quoted(key);
            self.out.push_str(": ");
        }
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", depth));
    }

    fn container(
        &mut self,
        key: Option<&str>,
        [open, close]: [char; 2],
        lines: bool,
        members: impl FnOnce(&mut Writer),
    ) {
        self.member(key);
        self.out.push(open);
        let outer = (self.depth, self.lines, self.started);
        self.depth += usize::from(self.lines);
        (self.lines, self.started) = (lines, false);
        members(self);
        if lines {
            self.newline(self.depth);
        }
        self.out.push(close);
        (self.depth, self.lines, self.started) = outer;
    }

    /// Write the member `"key": value`.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.member(Some(key));
        value.write_to(&mut self.out);
        self
    }

    /// Write the member `"key": "value"`, escaped.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.member(Some(key));
        self.quoted(value);
        self
    }

    /// Write the member `"key": value` with `digits` digits after the
    /// decimal point, or `"key": null` for `None`.
    pub fn fixed(&mut self, key: &str, value: impl Into<Option<f64>>, digits: usize) -> &mut Self {
        self.member(Some(key));
        match value.into() {
            Some(v) => write!(self.out, "{v:.digits$}").expect("writing to a String cannot fail"),
            None => self.out.push_str("null"),
        }
        self
    }

    /// Write the member `"key": null`.
    pub fn null(&mut self, key: &str) {
        self.field(key, None::<bool>);
    }

    /// Write the member `"key": {...}` on one line.
    pub fn object(&mut self, key: &str, members: impl FnOnce(&mut Writer)) {
        self.container(Some(key), ['{', '}'], false, members);
    }

    /// Write the member `"key": {...}` with one member per line.
    pub fn object_lines(&mut self, key: &str, members: impl FnOnce(&mut Writer)) {
        self.container(Some(key), ['{', '}'], true, members);
    }

    /// Write the member `"key": [...]` on one line.
    pub fn array(&mut self, key: &str, rows: impl FnOnce(&mut Writer)) {
        self.container(Some(key), ['[', ']'], false, rows);
    }

    /// Write the member `"key": [...]` with one row per line.
    pub fn array_lines(&mut self, key: &str, rows: impl FnOnce(&mut Writer)) {
        self.container(Some(key), ['[', ']'], true, rows);
    }

    /// Write a one-line object as the next row of an array.
    pub fn row(&mut self, members: impl FnOnce(&mut Writer)) {
        self.container(None, ['{', '}'], false, members);
    }
}

/// Validate that `s` is one well-formed JSON document. Returns the
/// parse error (with byte offset) if not. Numbers follow RFC 8259's
/// grammar (no leading zeros); strings accept the escapes
/// [`json_escape`] can produce plus the rest of RFC 8259's set.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at offset {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => container(b, i, b'}'),
        Some(b'[') => container(b, i, b']'),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at offset {i}", *c as char)),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {i}"))
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        *i > s
    };
    let int_start = *i;
    if !digits(b, i) {
        return Err(format!("bad number at offset {start}"));
    }
    if b[int_start] == b'0' && *i - int_start > 1 {
        return Err(format!("leading zero in number at offset {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("bad number at offset {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e') | Some(b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+') | Some(b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("bad number at offset {start}"));
        }
    }
    Ok(())
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*i], b'"');
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        *i += 1;
                        for _ in 0..4 {
                            if !b.get(*i).is_some_and(|c| c.is_ascii_hexdigit()) {
                                return Err(format!("bad \\u escape at offset {i}"));
                            }
                            *i += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at offset {i}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte at offset {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

/// An object (`close` is `}`: every member is `"key": value`) or an
/// array (`close` is `]`).
fn container(b: &[u8], i: &mut usize, close: u8) -> Result<(), String> {
    *i += 1;
    skip_ws(b, i);
    if b.get(*i) == Some(&close) {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if close == b'}' {
            if b.get(*i) != Some(&b'"') {
                return Err(format!("expected object key at offset {i}"));
            }
            string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected ':' at offset {i}"));
            }
            *i += 1;
            skip_ws(b, i);
        }
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(&c) if c == close => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '{}' at offset {i}", close as char)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_labels_pass_through_unchanged() {
        for s in ["zcu106", "retries=3,deadline=0.5s", "poisson(150.0)", ""] {
            assert_eq!(json_escape(s), s);
        }
    }

    #[test]
    fn hostile_labels_escape_and_validate() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g";
        let doc = format!("{{\"label\": \"{}\"}}", json_escape(nasty));
        validate(&doc).unwrap();
        assert!(!doc.contains('\n'));
    }

    #[test]
    fn validator_accepts_report_shapes_and_rejects_breakage() {
        validate("{\"a\": [1, 2.5, -3e4], \"b\": {\"c\": null}, \"d\": true}").unwrap();
        assert!(validate("{\"a\": }").is_err());
        assert!(validate("{\"a\": \"unterminated}").is_err());
        assert!(validate("{\"a\": 1} trailing").is_err());
        assert!(validate("{\"a\": \"raw\"quote\"}").is_err());
        assert!(validate("[01]").is_err());
        assert!(validate("{\"a\": -00.5}").is_err());
        validate("[0, -0.5, 10]").unwrap();
    }
}
