//! The workspace's one JSON writer: the JSONL trace ([`crate::trace_jsonl`])
//! and the harness's `BENCH_*.json` report both write through [`Object`].
//! Fields go out in call order, keys as given (the schemas' own ASCII
//! names), strings escaped straight into the caller's buffer, reals with a
//! fixed number of decimals: equal data writes equal bytes.

use std::fmt::Write as _;

use simnet::FieldValue;

/// One JSON object appended to a caller's buffer: `{`, a field per call, `}`.
pub struct Object<'a> {
    out: &'a mut String,
    /// Nesting level: an array's elements sit one deeper than its object.
    depth: usize,
}

impl<'a> Object<'a> {
    pub fn open(out: &'a mut String) -> Object<'a> {
        out.push('{');
        Object { out, depth: 0 }
    }

    pub fn close(self) {
        self.out.push('}');
    }

    /// Push the separator and `"key":`; the value goes after. No value
    /// ends in `{`, so only the first field follows it.
    fn key(&mut self, key: &str) -> &mut String {
        self.out
            .push_str(if self.out.ends_with('{') { "\"" } else { ",\"" });
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// A real with exactly `decimals` digits after the point.
    pub fn real(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        let _ = write!(self.key(key), "{v:.decimals$}");
        self
    }

    /// A string, quoted: `"`, `\` and newline take their short forms, every
    /// other control character `\uXXXX` — the forms
    /// [`crate::parse_trace_line`] reads back.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let out = self.key(key);
        out.push('"');
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        self
    }

    /// A trace event's protocol field, as the scalar it holds.
    pub fn field(&mut self, key: &str, v: &FieldValue) -> &mut Self {
        match *v {
            FieldValue::U64(x) => self.u64(key, x),
            FieldValue::Str(s) => self.str(key, s),
            FieldValue::Bool(b) => {
                let _ = write!(self.key(key), "{b}");
                self
            }
        }
    }

    /// An array of one object per item, fields written by `each`: every
    /// element on a line of its own, two spaces deeper per nesting level.
    /// An array of the outermost object closes on a line of its own, a
    /// nested one right after its last element — the BENCH layout.
    pub fn array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut Object<'_>, T),
    ) -> &mut Self {
        let depth = self.depth + 1;
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.extend(std::iter::repeat_n("  ", depth));
            let mut element = Object::open(out);
            element.depth = depth;
            each(&mut element, item);
            element.close();
        }
        out.push_str(if depth == 1 { "\n]" } else { "]" });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_str(v: &str) -> String {
        let mut out = String::new();
        let mut o = Object::open(&mut out);
        o.str("v", v);
        o.close();
        out
    }

    #[test]
    fn strings_are_escaped_into_the_buffer() {
        assert_eq!(one_str("a\"b\\c\nd"), r#"{"v":"a\"b\\c\nd"}"#);
        // Every other control character takes the \uXXXX form; anything
        // from U+0020 up passes through, multi-byte characters included.
        assert_eq!(
            one_str("\t\r\u{1}\u{1f} "),
            r#"{"v":"\u0009\u000d\u0001\u001f "}"#
        );
        assert_eq!(one_str("p=3000 (churn) é→"), r#"{"v":"p=3000 (churn) é→"}"#);
    }

    #[test]
    fn arrays_put_each_element_on_a_line_of_its_own() {
        let mut out = String::new();
        let mut o = Object::open(&mut out);
        o.array("outer", [2u64, 0], |row, n| {
            row.u64("n", n).array("inner", 0..n, |leaf, i| {
                leaf.u64("i", i);
            });
        })
        .array("none", 0..0, |_, _| {});
        o.close();
        assert_eq!(
            out,
            "{\"outer\":[\n  {\"n\":2,\"inner\":[\n    {\"i\":0},\n    {\"i\":1}]},\n  {\"n\":0,\"inner\":[]}\n],\"none\":[\n]}"
        );
    }
}
