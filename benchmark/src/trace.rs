//! The benchmark-owned span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public entry point —
//! nothing inside the program under test is instrumented. They stay in
//! memory for the whole run and are written out once, at exit. Switched
//! off, [`Recorder::span`] is a plain call, which is what the traced-vs-
//! untraced overhead measurement compares against.

use std::time::Instant;

use crate::json::Json;

/// Spans kept per run; past this they are counted, not stored.
const MAX_SPANS: usize = 100_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one pass share this.
    pub pass_id: u32,
}

pub struct Recorder {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass_id: u32,
    dropped: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass_id: 0,
            dropped: 0,
        }
    }

    /// A recorder that records nothing: [`Recorder::span`] is a plain call.
    pub fn disabled() -> Recorder {
        Recorder { enabled: false, ..Recorder::new() }
    }

    /// Start a new pass: every span recorded until the next call shares its
    /// identifier.
    pub fn next_pass(&mut self) {
        self.pass_id += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of whatever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass_id: self.pass_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                    ("pass_id", Json::Num(f64::from(s.pass_id))),
                ])
            })
            .collect();
        Json::obj([("dropped", Json::Num(self.dropped as f64)), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_pass_id() {
        let mut rec = Recorder::new();
        rec.next_pass();
        let out = rec.span("outer", |rec| {
            rec.span("inner", |_| 7);
            rec.span("inner", |_| 8)
        });
        assert_eq!(out, 8);
        rec.next_pass();
        rec.span("next", |_| ());
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].name, s[0].parent, s[0].pass_id), ("outer", None, 1));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!((s[3].name, s[3].parent, s[3].pass_id), ("next", None, 2));
        // A parent covers its children.
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        assert_eq!(rec.span("x", |_| 1), 1);
        assert!(rec.spans().is_empty());
    }
}
