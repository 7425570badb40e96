//! JSONL trace export: a [`TraceSink`] that writes one flat JSON object per
//! trace event, and a parser for reading such files back.
//!
//! The format is deliberately flat — every record is one line, every field
//! a scalar — so traces can be processed with `grep`/`jq` and re-parsed
//! here without a JSON dependency. A query's full causal path is the set
//! of lines sharing its `qid` field, in file (= simulation time) order.
//!
//! ```text
//! {"t":152340,"kind":"custom","node":17,"name":"query_issued","qid":17825793,"ws":0,"object":42}
//! {"t":152340,"kind":"send","src":17,"dst":3,"class":"dring_route","latency_ms":38}
//! {"t":152378,"kind":"deliver","src":17,"dst":3,"class":"dring_route"}
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use simnet::{FieldValue, Time, TraceEvent, TraceSink};

/// Streams trace events as JSON lines into any [`Write`] target.
///
/// A trace that cannot be written whole (a full disk) is an error, not a
/// shorter trace: the writer keeps the first I/O error, stops writing, and
/// panics with it on [`TraceSink::flush`], which the world's owner calls
/// when the run finishes.
pub struct JsonlTraceWriter<W: Write> {
    out: W,
    lines: u64,
    /// Reused per-event buffer.
    buf: String,
    error: Option<io::Error>,
}

impl JsonlTraceWriter<BufWriter<File>> {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlTraceWriter::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlTraceWriter<W> {
    pub fn new(out: W) -> Self {
        JsonlTraceWriter {
            out,
            lines: 0,
            buf: String::with_capacity(256),
            error: None,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and return the underlying writer. Panics on a write error,
    /// as [`TraceSink::flush`] does.
    pub fn into_inner(mut self) -> W {
        TraceSink::flush(&mut self);
        self.out
    }

    fn push_field(buf: &mut String, key: &str, v: &FieldValue) {
        let _ = match v {
            FieldValue::U64(x) => write!(buf, ",\"{key}\":{x}"),
            FieldValue::Str(s) => write!(buf, ",\"{key}\":\"{}\"", json_escape(s)),
            FieldValue::Bool(b) => write!(buf, ",\"{key}\":{b}"),
        };
    }
}

/// Escape `s` for use inside a JSON string literal: `"`, `\` and newline
/// get their short forms, every other control character `\uXXXX` — the
/// forms [`parse_trace_line`] reads back. The one escaper of every JSON
/// this workspace writes (the trace here, the harness's BENCH report).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl<W: Write> TraceSink for JsonlTraceWriter<W> {
    fn event(&mut self, at: Time, ev: &TraceEvent) {
        let buf = &mut self.buf;
        buf.clear();
        let _ = write!(buf, "{{\"t\":{},\"kind\":\"{}\"", at.as_millis(), ev.kind());
        match ev {
            TraceEvent::NodeSpawn { node, locality } => {
                let _ = write!(buf, ",\"node\":{},\"loc\":{}", node.raw(), locality.0);
            }
            TraceEvent::NodeFail { node } | TraceEvent::NodeLeave { node } => {
                let _ = write!(buf, ",\"node\":{}", node.raw());
            }
            TraceEvent::MsgSend {
                src,
                dst,
                class,
                latency_ms,
            } => {
                let _ = write!(
                    buf,
                    ",\"src\":{},\"dst\":{},\"class\":\"{}\",\"latency_ms\":{}",
                    src.raw(),
                    dst.raw(),
                    json_escape(class),
                    latency_ms
                );
            }
            TraceEvent::MsgDeliver { src, dst, class } => {
                let _ = write!(
                    buf,
                    ",\"src\":{},\"dst\":{},\"class\":\"{}\"",
                    src.raw(),
                    dst.raw(),
                    json_escape(class)
                );
            }
            TraceEvent::MsgDrop {
                src,
                dst,
                class,
                reason,
            } => {
                let _ = write!(
                    buf,
                    ",\"src\":{},\"dst\":{},\"class\":\"{}\",\"reason\":\"{}\"",
                    src.raw(),
                    dst.raw(),
                    json_escape(class),
                    reason.as_str()
                );
            }
            TraceEvent::TimerSet {
                node,
                class,
                delay_ms,
            } => {
                let _ = write!(
                    buf,
                    ",\"node\":{},\"class\":\"{}\",\"delay_ms\":{}",
                    node.raw(),
                    json_escape(class),
                    delay_ms
                );
            }
            TraceEvent::TimerFire { node, class } => {
                let _ = write!(
                    buf,
                    ",\"node\":{},\"class\":\"{}\"",
                    node.raw(),
                    json_escape(class)
                );
            }
            TraceEvent::Custom { node, name, fields } => {
                let _ = write!(
                    buf,
                    ",\"node\":{},\"name\":\"{}\"",
                    node.raw(),
                    json_escape(name)
                );
                for (k, v) in fields {
                    Self::push_field(buf, k, v);
                }
            }
        }
        buf.push('}');
        buf.push('\n');
        if self.error.is_none() {
            self.error = self.out.write_all(buf.as_bytes()).err();
        }
        self.lines += 1;
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
        if let Some(e) = &self.error {
            panic!("write trace: {e}");
        }
    }
}

/// One parsed trace line: the flat key → scalar map.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLine {
    pub fields: BTreeMap<String, JsonScalar>,
}

/// Scalar values appearing in trace lines.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

impl TraceLine {
    /// Simulation time of the event, ms.
    pub fn t(&self) -> u64 {
        self.num("t").unwrap_or(0.0) as u64
    }

    /// The event kind (`send`, `deliver`, `custom`, …).
    pub fn kind(&self) -> &str {
        self.str("kind").unwrap_or("")
    }

    /// The `Custom` event name, if any.
    pub fn name(&self) -> Option<&str> {
        self.str("name")
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        match self.fields.get(key)? {
            JsonScalar::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        match self.fields.get(key)? {
            JsonScalar::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.fields.get(key)? {
            JsonScalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse one line produced by [`JsonlTraceWriter`]. Returns `None` on
/// malformed input (this is a parser for our own flat output, not a general
/// JSON parser — nested values are rejected).
pub fn parse_trace_line(line: &str) -> Option<TraceLine> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = BTreeMap::new();
    let mut rest = body;
    while !rest.is_empty() {
        rest = rest.trim_start_matches(',');
        // Key.
        let r = rest.strip_prefix('"')?;
        let kend = r.find('"')?;
        let key = &r[..kend];
        let r = r[kend + 1..].strip_prefix(':')?;
        // Value.
        let (value, after) = if let Some(vr) = r.strip_prefix('"') {
            let mut s = String::new();
            let mut it = vr.char_indices();
            let mut end = None;
            while let Some((i, c)) = it.next() {
                match c {
                    '\\' => match it.next()?.1 {
                        'n' => s.push('\n'),
                        'u' => {
                            let hex: String =
                                (0..4).map_while(|_| it.next().map(|(_, c)| c)).collect();
                            s.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                        }
                        c => s.push(c),
                    },
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    c => s.push(c),
                }
            }
            (JsonScalar::Str(s), &vr[end? + 1..])
        } else {
            let vend = r.find(',').unwrap_or(r.len());
            let raw = &r[..vend];
            let v = match raw {
                "true" => JsonScalar::Bool(true),
                "false" => JsonScalar::Bool(false),
                "null" => JsonScalar::Null,
                n => JsonScalar::Num(n.parse().ok()?),
            };
            (v, &r[vend..])
        };
        fields.insert(key.to_string(), value);
        rest = after;
    }
    Some(TraceLine { fields })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn writes_and_parses_every_event_shape() {
        let mut w = JsonlTraceWriter::new(Vec::new());
        w.event(
            Time(5),
            &TraceEvent::NodeSpawn {
                node: n(1),
                locality: simnet::LocalityId(3),
            },
        );
        w.event(
            Time(10),
            &TraceEvent::MsgSend {
                src: n(1),
                dst: n(2),
                class: "fetch",
                latency_ms: 17,
            },
        );
        w.event(
            Time(27),
            &TraceEvent::MsgDeliver {
                src: n(1),
                dst: n(2),
                class: "fetch",
            },
        );
        w.event(
            Time(30),
            &TraceEvent::Custom {
                node: n(2),
                name: "query_issued",
                fields: vec![
                    ("qid", 99u64.into()),
                    ("hit", true.into()),
                    ("provider", "origin".into()),
                ],
            },
        );
        assert_eq!(w.lines(), 4);
        let text = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<TraceLine> = text.lines().map(|l| parse_trace_line(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].kind(), "spawn");
        assert_eq!(lines[0].num("loc"), Some(3.0));
        assert_eq!(lines[1].kind(), "send");
        assert_eq!(lines[1].num("latency_ms"), Some(17.0));
        assert_eq!(lines[2].t(), 27);
        assert_eq!(lines[3].name(), Some("query_issued"));
        assert_eq!(lines[3].num("qid"), Some(99.0));
        assert_eq!(lines[3].bool("hit"), Some(true));
        assert_eq!(lines[3].str("provider"), Some("origin"));
    }

    #[test]
    fn escaping_round_trips() {
        let s = "a\"b\\c\nd";
        let mut w = JsonlTraceWriter::new(Vec::new());
        w.event(
            Time(0),
            &TraceEvent::Custom {
                node: n(0),
                name: "x",
                fields: vec![("v", FieldValue::Str("quoted"))],
            },
        );
        // Every character the escaper has a rule for comes back as written.
        let every_rule = "a\"b\\c\nd\t\r\u{1}é→";
        w.event(
            Time(1),
            &TraceEvent::Custom {
                node: n(0),
                name: "y",
                fields: vec![("v", FieldValue::Str(every_rule))],
            },
        );
        let text = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<_> = text.lines().map(parse_trace_line).collect();
        assert_eq!(lines[0].as_ref().and_then(|l| l.str("v")), Some("quoted"));
        assert_eq!(lines[1].as_ref().and_then(|l| l.str("v")), Some(every_rule));
        // The escape helper itself handles the metacharacters.
        assert_eq!(json_escape(s), "a\\\"b\\\\c\\nd");
        // Every other control character takes the \uXXXX form; anything
        // from U+0020 up passes through, multi-byte characters included.
        assert_eq!(
            json_escape("\t\r\u{1}\u{1f} "),
            "\\u0009\\u000d\\u0001\\u001f "
        );
        assert_eq!(json_escape("p=3000 (churn) é→"), "p=3000 (churn) é→");
    }

    /// Takes `room` bytes, then fails every write, as a full disk does.
    struct FullDisk {
        room: usize,
    }

    impl Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::other("no space left on device"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    #[should_panic(expected = "write trace: no space left on device")]
    fn a_failed_write_surfaces_on_flush() {
        let mut w = JsonlTraceWriter::new(FullDisk { room: 100 });
        // Three 31-byte lines fit; the fourth runs out of room mid-line.
        for node in 0..10 {
            w.event(
                Time(node),
                &TraceEvent::NodeFail {
                    node: n(node as usize),
                },
            );
        }
        assert_eq!(w.lines(), 10, "events after the error do not panic");
        w.flush();
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_trace_line("").is_none());
        assert!(parse_trace_line("{\"t\":}").is_none());
        assert!(parse_trace_line("not json").is_none());
        assert!(parse_trace_line("{\"t\":1,\"nested\":{\"x\":1}}").is_none());
    }

    #[test]
    fn file_round_trip_through_create() {
        let path = std::env::temp_dir().join(format!("trace_rt_{}.jsonl", std::process::id()));
        {
            let mut w = JsonlTraceWriter::create(&path).unwrap();
            w.event(Time(1), &TraceEvent::NodeFail { node: n(4) });
            w.event(
                Time(2),
                &TraceEvent::MsgDrop {
                    src: n(4),
                    dst: n(5),
                    class: "keepalive",
                    reason: simnet::DropReason::DeadDestination,
                },
            );
            w.flush();
        } // drop flushes the BufWriter
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<TraceLine> = text.lines().map(|l| parse_trace_line(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].kind(), "fail");
        assert_eq!(lines[1].kind(), "drop");
        assert_eq!(lines[1].str("class"), Some("keepalive"));
        assert_eq!(lines[1].str("reason"), Some("dead_dst"));
        let _ = std::fs::remove_file(&path);
    }
}
