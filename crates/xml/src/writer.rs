//! Streaming XML serialization.
//!
//! The FluX engine emits its result as a stream of events; [`Writer`] turns
//! that stream back into XML text with proper escaping. It also counts the
//! bytes written, which the benchmark harness uses to sanity-check that
//! different engines produce identically sized results.

use std::io;

use crate::escape::escape_text_chunks;
use crate::events::Event;
use crate::sink::Sink;
use crate::tree::Node;

/// A streaming event serializer over any [`Sink`] (every [`io::Write`] is
/// one via the blanket impl).
pub struct Writer<S> {
    out: S,
    bytes: u64,
}

impl<S: Sink> Writer<S> {
    /// Wrap a sink.
    pub fn new(out: S) -> Self {
        Writer { out, bytes: 0 }
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Wrap a fresh sink while restoring the byte counter of a previous
    /// writer — the output side of a session restore: the old sink's
    /// contents stay wherever the snapshotting side put them, the new sink
    /// receives only the bytes produced after the restore point, and the
    /// counter keeps `output_bytes` statistics identical to an
    /// uninterrupted run.
    pub fn resume(out: S, bytes: u64) -> Self {
        Writer { out, bytes }
    }

    /// Write one event.
    pub fn write_event(&mut self, ev: Event<'_>) -> io::Result<()> {
        match ev {
            Event::Start(n) => {
                self.raw(b"<")?;
                self.raw(n.as_bytes())?;
                self.raw(b">")
            }
            Event::End(n) => {
                self.raw(b"</")?;
                self.raw(n.as_bytes())?;
                self.raw(b">")
            }
            Event::Text(t) => self.write_text(t),
        }
    }

    /// Write character data with escaping applied, streaming clean runs and
    /// entities straight to the sink — no intermediate allocation even when
    /// the text needs escaping.
    pub fn write_text(&mut self, t: &str) -> io::Result<()> {
        escape_text_chunks(t, |chunk| self.raw(chunk.as_bytes()))
    }

    /// Write a raw, pre-formed string (used for the paper's "output of a
    /// fixed string" query construct, where `<result>` is already literal
    /// markup and must not be re-escaped).
    pub fn write_raw(&mut self, s: &str) -> io::Result<()> {
        self.raw(s.as_bytes())
    }

    /// Serialize a whole subtree.
    pub fn write_node(&mut self, node: &Node) -> io::Result<()> {
        let mut res = Ok(());
        node.visit_events(&mut |ev| {
            if res.is_ok() {
                res = self.write_event(ev);
            }
        });
        res
    }

    /// The inner sink.
    pub fn get_ref(&self) -> &S {
        &self.out
    }

    /// The inner sink, mutably — for sinks with state of their own (the
    /// fan-out tee's member list); writing to it directly would bypass the
    /// byte counter.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.out
    }

    /// Flush and return the inner sink.
    pub fn into_inner(mut self) -> io::Result<S> {
        self.out.flush_sink()?;
        Ok(self.out)
    }

    /// Return the inner sink without flushing (used to recover the sink on
    /// error paths, where a flush could mask the original failure).
    pub fn into_sink(self) -> S {
        self.out
    }

    fn raw(&mut self, b: &[u8]) -> io::Result<()> {
        self.out.write_bytes(b)?;
        self.bytes += b.len() as u64;
        Ok(())
    }
}

/// A sink that discards everything but counts bytes — used to measure result
/// sizes (and benchmark pure engine throughput) without I/O cost.
#[derive(Debug, Default)]
pub struct NullSink {
    /// Bytes "written".
    pub bytes: u64,
}

impl io::Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_escaping() {
        let mut w = Writer::new(Vec::new());
        w.write_event(Event::Start("a")).unwrap();
        w.write_event(Event::Text("1 < 2")).unwrap();
        w.write_event(Event::End("a")).unwrap();
        let out = w.into_inner().unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "<a>1 &lt; 2</a>");
    }

    #[test]
    fn byte_counter_matches_output() {
        let mut w = Writer::new(Vec::new());
        w.write_event(Event::Start("abc")).unwrap();
        w.write_event(Event::End("abc")).unwrap();
        assert_eq!(w.bytes_written(), "<abc></abc>".len() as u64);
    }

    #[test]
    fn raw_bypasses_escaping() {
        let mut w = Writer::new(Vec::new());
        w.write_raw("<result>").unwrap();
        let out = w.into_inner().unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "<result>");
    }

    #[test]
    fn node_roundtrip_through_writer() {
        let n = Node::parse_str("<a><b>x &amp; y</b></a>").unwrap();
        let mut w = Writer::new(Vec::new());
        w.write_node(&n).unwrap();
        let out = String::from_utf8(w.into_inner().unwrap()).unwrap();
        assert_eq!(Node::parse_str(&out).unwrap(), n);
    }

    #[test]
    fn null_sink_counts() {
        let mut w = Writer::new(NullSink::default());
        w.write_event(Event::Start("x")).unwrap();
        let sink = w.into_inner().unwrap();
        assert_eq!(sink.bytes, 3);
    }
}
