//! Hand-rolled JSON emission (the workspace has no serde): string
//! escaping plus a small object/array writer with caller-controlled
//! key order, which is how reports stay byte-stable across runs.

use std::fmt::Write as _;

/// Append `s` JSON-escaped (without surrounding quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// `"escaped"` — a quoted, escaped JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Finite-float JSON literal (non-finite values become `null`).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        // Enough digits to round-trip typical durations/means without
        // exponents, which some ad-hoc parsers dislike.
        let s = format!("{x:.9}");
        let s = s.trim_end_matches('0');
        let s = s.strip_suffix('.').unwrap_or(s);
        s.to_string()
    } else {
        "null".to_string()
    }
}

/// Incremental writer for one JSON value tree. Keys are emitted in call
/// order; callers iterate `BTreeMap`s for deterministic output.
#[derive(Default)]
pub struct JsonWriter {
    buf: String,
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('{');
        self.needs_comma.push(false);
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.buf.push('}');
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('[');
        self.needs_comma.push(false);
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.buf.push(']');
        self
    }

    /// Emit `"key":` — must be followed by exactly one value call.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
        // The upcoming value must not emit another comma.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
        self
    }

    pub fn string(&mut self, s: &str) -> &mut Self {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
        self
    }

    pub fn uint(&mut self, n: u64) -> &mut Self {
        self.pre_value();
        // Digits straight into the buffer: no `String` per number.
        let _ = write!(self.buf, "{n}");
        self
    }

    pub fn float(&mut self, x: f64) -> &mut Self {
        self.pre_value();
        self.buf.push_str(&number(x));
        self
    }

    /// Splice a pre-rendered JSON value (e.g. a nested report).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.pre_value();
        self.buf.push_str(json);
        self
    }

    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2");
        assert_eq!(number(0.000000123), "0.000000123");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn writer_builds_nested_objects() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string("hgobs/1");
        w.key("counts").begin_object();
        w.key("a").uint(1);
        w.key("b").uint(2);
        w.end_object();
        w.key("list")
            .begin_array()
            .uint(1)
            .uint(2)
            .uint(0)
            .uint(u64::MAX)
            .end_array();
        w.key("x").float(0.5);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"schema":"hgobs/1","counts":{"a":1,"b":2},"list":[1,2,0,18446744073709551615],"x":0.5}"#
        );
    }
}
