//! Hand-rolled JSON emission (the workspace has no serde): string
//! escaping plus a small object/array writer with caller-controlled
//! key order, which is how reports stay byte-stable across runs.

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

/// `"00"`, `"01"`, …, `"99"`: the decimal digits of every value below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// `n`'s decimal digits, right-aligned in `buf`; returns where they
/// start. Two digits per division, without `core::fmt`.
fn render(buf: &mut [u8; 20], mut n: u64) -> usize {
    // `u64::MAX` has 20 digits; they fill the buffer from the end.
    let mut start = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + n as u8;
    }
    start
}

/// Append `n` in decimal to `out`, byte for byte what `n.to_string()`
/// gives, two digits per division and without `core::fmt`.
pub fn push_uint(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let start = render(&mut buf, n);
    for &digit in &buf[start..] {
        out.push(digit as char);
    }
}

/// A value and its decimal digits, right-aligned in `digits` from
/// `start`, which [`DecimalCounter::advance_to`] keeps current. The
/// slot before the first digit is free for a separator: `u64::MAX` has
/// 20 digits.
struct DecimalCounter {
    value: u64,
    digits: [u8; 21],
    start: usize,
}

impl DecimalCounter {
    /// The counter at 0.
    fn new() -> Self {
        let mut digits = [0; 21];
        digits[20] = b'0';
        DecimalCounter {
            value: 0,
            digits,
            start: 20,
        }
    }

    /// Move the counter to `n`. A step up by less than 10 is added to
    /// the last digit and carried; any other move renders `n` afresh.
    #[inline]
    fn advance_to(&mut self, n: u64) {
        match n.checked_sub(self.value) {
            Some(gap) if gap < 10 => {
                let mut i = self.digits.len() - 1;
                let mut digit = self.digits[i] - b'0' + gap as u8;
                while digit >= 10 {
                    self.digits[i] = b'0' + digit - 10;
                    // `n` fits in 20 digits, so a carry never reaches
                    // the separator slot; one past the leading digit
                    // starts at 0.
                    i -= 1;
                    if i < self.start {
                        self.start = i;
                        self.digits[i] = b'0';
                    }
                    digit = self.digits[i] - b'0' + 1;
                }
                self.digits[i] = b'0' + digit;
            }
            _ => {
                let slots: &mut [u8; 20] = (&mut self.digits[1..])
                    .try_into()
                    .expect("20 digit slots after the separator");
                self.start = 1 + render(slots, n);
            }
        }
        self.value = n;
    }

    /// The digits, after a comma when `comma` is set.
    #[inline]
    fn text(&mut self, comma: bool) -> &[u8] {
        self.digits[self.start - 1] = b',';
        &self.digits[self.start - comma as usize..]
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
        push_uint(&mut self.buf, n);
        self
    }

    /// `[a,b,…]`, each value as [`JsonWriter::uint`] writes it. The
    /// digits come from a decimal counter advanced by each gap, so
    /// ascending values a few apart (sorted ids) cost no division; any
    /// order is written correctly.
    pub fn uint_array(&mut self, values: &[u64]) -> &mut Self {
        self.pre_value();
        // Bytes first, checked once: a `String` push per digit costs more.
        // Each value takes its digits and a comma, and ascending values
        // have no more digits than the last.
        let width = values
            .last()
            .map_or(0, |&n| 1 + 20 - render(&mut [0; 20], n));
        let mut text = Vec::with_capacity(2 + values.len() * width);
        text.push(b'[');
        let mut counter = DecimalCounter::new();
        for (i, &n) in values.iter().enumerate() {
            counter.advance_to(n);
            text.extend_from_slice(counter.text(i > 0));
        }
        text.push(b']');
        self.buf
            .push_str(std::str::from_utf8(&text).expect("digits and commas are ASCII"));
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
    use proptest::prelude::*;

    /// `push_uint` appends exactly `n.to_string()`.
    fn assert_pushes_to_string(n: u64) {
        let mut out = String::from("[");
        push_uint(&mut out, n);
        assert_eq!(out, format!("[{n}"));
    }

    #[test]
    fn push_uint_matches_to_string() {
        (0..=100_000).for_each(assert_pushes_to_string);
        // Every digit count, at and around its first value.
        let mut power = 1u64;
        loop {
            for n in [power - 1, power, power + 1] {
                assert_pushes_to_string(n);
            }
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => break,
            }
        }
        assert_pushes_to_string(u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        // The shift spreads the draws over every digit count.
        #[test]
        fn push_uint_matches_to_string_on_any_u64(n in any::<u64>(), shift in 0u32..64) {
            assert_pushes_to_string(n >> shift);
        }
    }

    /// `uint_array` writes `values` as comma-joined `to_string`s.
    fn assert_array_matches_to_string(values: &[u64]) {
        let mut w = JsonWriter::new();
        w.uint_array(values);
        let joined: Vec<String> = values.iter().map(u64::to_string).collect();
        assert_eq!(w.finish(), format!("[{}]", joined.join(",")));
    }

    #[test]
    fn uint_array_carries_and_restarts() {
        assert_array_matches_to_string(&[]);
        assert_array_matches_to_string(&[0]);
        assert_array_matches_to_string(&(0..=10_001).collect::<Vec<_>>());
        // Carries through every digit, a step of 9 onto a carry, a gap
        // of exactly 10, descents and `u64::MAX`.
        assert_array_matches_to_string(&[9, 10, 99, 100, 999, 1000, 99_991, 100_000, 100_010]);
        assert_array_matches_to_string(&[5, 3, 3, 0, 12, 7, u64::MAX, 1, u64::MAX - 9, u64::MAX]);
        let mut power = 1u64;
        while let Some(next) = power.checked_mul(10) {
            assert_array_matches_to_string(&[power - 1, power, next - 3, next]);
            power = next;
        }
    }

    #[test]
    fn uint_array_continues_an_open_container() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a").uint_array(&[1, 2, 3]);
        w.key("b").uint_array(&[]);
        w.key("c")
            .begin_array()
            .uint(4)
            .uint_array(&[5])
            .end_array();
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":[1,2,3],"b":[],"c":[4,[5]]}"#);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        // Steps of 0..12 cross the counter's cut-off at 10 and carry;
        // a random jump (possibly down, possibly to a value near
        // `u64::MAX`) restarts it.
        #[test]
        fn uint_array_matches_to_string_on_any_sequence(
            start in any::<u64>(),
            shift in 0u32..64,
            moves in proptest::collection::vec((0u64..12, any::<u64>(), 0u32..8), 0..64),
        ) {
            let mut values = Vec::with_capacity(moves.len());
            let mut n = start >> shift;
            for (step, jump, kind) in moves {
                n = match kind {
                    0 => jump,
                    1 => u64::MAX - (jump >> 60),
                    _ => n.saturating_add(step),
                };
                values.push(n);
            }
            assert_array_matches_to_string(&values);
        }
    }

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
