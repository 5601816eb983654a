//! A minimal DOM for buffered data and baseline engines.
//!
//! The FluX engine keeps *streams* flowing and only materializes the parts of
//! the input that the buffer trees (paper, Section 5) select. Those buffered
//! fragments — and the whole document in the DOM baseline engines — are
//! represented by [`Node`] trees. A `Node` is exactly a well-formed sequence
//! of SAX events (start, …children…, end), so replaying a buffer is just a
//! pre-order walk.

use std::borrow::Cow;
use std::fmt;
use std::io::BufRead;

use crate::events::{Event, OwnedEvent};
use crate::reader::{Reader, XmlError, XmlErrorKind};

/// An element node: a name plus an ordered list of children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Tag name.
    pub name: Box<str>,
    /// Children in document order.
    pub children: Vec<Child>,
}

/// A child of an element: a subelement or character data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Child {
    /// Element child.
    Elem(Node),
    /// Text child (entities already resolved).
    Text(Box<str>),
}

impl Node {
    /// Create an empty element.
    pub fn new(name: impl Into<Box<str>>) -> Self {
        Node { name: name.into(), children: Vec::new() }
    }

    /// Append an element child and return a mutable reference to it.
    pub fn push_elem(&mut self, name: impl Into<Box<str>>) -> &mut Node {
        self.children.push(Child::Elem(Node::new(name)));
        match self.children.last_mut() {
            Some(Child::Elem(n)) => n,
            _ => unreachable!(),
        }
    }

    /// Append a text child.
    pub fn push_text(&mut self, text: impl Into<Box<str>>) {
        self.children.push(Child::Text(text.into()));
    }

    /// Iterate over element children.
    pub fn elems(&self) -> impl Iterator<Item = &Node> {
        self.children.iter().filter_map(|c| match c {
            Child::Elem(n) => Some(n),
            Child::Text(_) => None,
        })
    }

    /// Iterate over element children with a given tag name.
    pub fn elems_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Node> + 'a {
        self.elems().filter(move |n| &*n.name == name)
    }

    /// The string value: concatenation of all descendant text, in document
    /// order (XPath `string()` semantics, which the paper's comparisons use).
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    /// [`Node::text`] without the copy in the common shapes: an element
    /// holding one text child (or nothing) lends its string value; only
    /// mixed or nested content is concatenated into an owned string.
    pub fn text_cow(&self) -> Cow<'_, str> {
        match &*self.children {
            [] => Cow::Borrowed(""),
            [Child::Text(t)] => Cow::Borrowed(t),
            _ => Cow::Owned(self.text()),
        }
    }

    fn collect_text(&self, out: &mut String) {
        for c in &self.children {
            match c {
                Child::Text(t) => out.push_str(t),
                Child::Elem(n) => n.collect_text(out),
            }
        }
    }

    /// Pre-order event walk: `Start(name)`, children, `End(name)`.
    pub fn visit_events<'a, F: FnMut(Event<'a>)>(&'a self, f: &mut F) {
        f(Event::Start(&self.name));
        for c in &self.children {
            match c {
                Child::Text(t) => f(Event::Text(t)),
                Child::Elem(n) => n.visit_events(f),
            }
        }
        f(Event::End(&self.name));
    }

    /// Materialize the event list for this subtree.
    pub fn to_events(&self) -> Vec<OwnedEvent> {
        let mut out = Vec::new();
        self.visit_events(&mut |ev| out.push(ev.to_owned()));
        out
    }

    /// Serialize this subtree to XML text.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.visit_events(&mut |ev| out.push_str(&ev.to_string()));
        out
    }

    /// Bytes of event payload this subtree occupies when buffered: two copies
    /// of every element name (start + end event) plus all text. This mirrors
    /// the paper's buffer memory metric (buffers are lists of SAX events).
    pub fn buffered_bytes(&self) -> usize {
        let mut total = 2 * self.name.len();
        for c in &self.children {
            total += match c {
                Child::Text(t) => t.len(),
                Child::Elem(n) => n.buffered_bytes(),
            };
        }
        total
    }

    /// Number of element nodes in this subtree (including self).
    pub fn element_count(&self) -> usize {
        1 + self.elems().map(Node::element_count).sum::<usize>()
    }

    /// Resolve a fixed path `a1/a2/…/an` relative to this node, collecting
    /// all matching descendants in document order.
    pub fn select<'a>(&'a self, path: &[impl AsRef<str>], out: &mut Vec<&'a Node>) {
        fn go<'a, S: AsRef<str>>(node: &'a Node, path: &[S], out: &mut Vec<&'a Node>) {
            match path.split_first() {
                None => out.push(node),
                Some((head, rest)) => {
                    let head = head.as_ref();
                    for c in &node.children {
                        if let Child::Elem(n) = c {
                            if &*n.name == head {
                                go(n, rest, out);
                            }
                        }
                    }
                }
            }
        }
        go(self, path, out)
    }

    /// Build a tree from a well-formed event slice (one root element).
    pub fn from_events<'a, I>(events: I) -> Result<Node, String>
    where
        I: IntoIterator<Item = Event<'a>>,
    {
        let mut stack: Vec<Node> = Vec::new();
        let mut root: Option<Node> = None;
        for ev in events {
            match ev {
                Event::Start(n) => stack.push(Node::new(n)),
                Event::Text(t) => match stack.last_mut() {
                    Some(top) => top.push_text(t),
                    None => return Err("text event outside any element".into()),
                },
                Event::End(n) => {
                    let done = stack.pop().ok_or("end event with no open element")?;
                    if &*done.name != n {
                        return Err(format!("end event </{n}> closes <{}>", done.name));
                    }
                    match stack.last_mut() {
                        Some(top) => top.children.push(Child::Elem(done)),
                        None => {
                            if root.is_some() {
                                return Err("multiple root elements in event stream".into());
                            }
                            root = Some(done);
                        }
                    }
                }
            }
        }
        if !stack.is_empty() {
            return Err(format!("{} unclosed element(s) in event stream", stack.len()));
        }
        root.ok_or_else(|| "empty event stream".into())
    }

    /// Parse a whole document from a reader into a tree.
    pub fn parse<R: BufRead>(reader: &mut Reader<R>) -> Result<Node, XmlError> {
        let mut stack: Vec<Node> = Vec::new();
        let mut root: Option<Node> = None;
        while let Some(ev) = reader.next_event()? {
            match ev {
                Event::Start(n) => stack.push(Node::new(n)),
                Event::Text(t) => {
                    if let Some(top) = stack.last_mut() {
                        top.push_text(t);
                    }
                }
                Event::End(_) => {
                    let done = stack.pop().expect("reader guarantees matched tags");
                    match stack.last_mut() {
                        Some(top) => top.children.push(Child::Elem(done)),
                        None => root = Some(done),
                    }
                }
            }
        }
        root.ok_or(XmlError { kind: XmlErrorKind::UnexpectedEof, offset: 0 })
    }

    /// Parse a document held in a string.
    pub fn parse_str(xml: &str) -> Result<Node, XmlError> {
        Node::parse(&mut Reader::from_str(xml))
    }

    /// Serialize this subtree as its pre-order event walk (the snapshot
    /// form used by `flux_state` consumers — a `Node` *is* a well-formed
    /// event sequence, so the codec reuses that identity).
    pub fn state_save(&self, enc: &mut flux_state::Enc) {
        let mut count = 0usize;
        self.visit_events(&mut |_| count += 1);
        enc.put_usize(count);
        self.visit_events(&mut |ev| match ev {
            Event::Start(n) => {
                enc.put_u8(0);
                enc.put_str(n);
            }
            Event::Text(t) => {
                enc.put_u8(2);
                enc.put_str(t);
            }
            Event::End(_) => enc.put_u8(1),
        });
    }

    /// Rebuild a subtree saved by [`Node::state_save`]. Decoding is
    /// iterative (an explicit stack), so snapshot depth never threatens the
    /// call stack.
    pub fn state_load(dec: &mut flux_state::Dec<'_>) -> Result<Node, flux_state::StateError> {
        use flux_state::StateError;
        let n = dec.get_count()?;
        let mut stack: Vec<Node> = Vec::new();
        let mut root: Option<Node> = None;
        for _ in 0..n {
            if root.is_some() {
                return Err(StateError::Corrupt("events after the node tree closed"));
            }
            match dec.get_u8()? {
                0 => stack.push(Node::new(dec.get_str()?)),
                2 => match stack.last_mut() {
                    Some(top) => top.push_text(dec.get_str()?),
                    None => return Err(StateError::Corrupt("text outside the node tree")),
                },
                1 => {
                    let done = stack.pop().ok_or(StateError::Corrupt("unbalanced end event"))?;
                    match stack.last_mut() {
                        Some(top) => top.children.push(Child::Elem(done)),
                        None => root = Some(done),
                    }
                }
                _ => return Err(StateError::Corrupt("unknown node event kind")),
            }
        }
        root.ok_or(StateError::Corrupt("node tree not closed"))
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bib() -> Node {
        Node::parse_str(
            "<bib><book><title>T1</title><author>A1</author><author>A2</author></book>\
             <book><title>T2</title></book></bib>",
        )
        .unwrap()
    }

    #[test]
    fn parse_and_serialize_roundtrip() {
        let n = bib();
        let xml = n.to_xml();
        assert_eq!(Node::parse_str(&xml).unwrap(), n);
    }

    #[test]
    fn select_paths() {
        let n = bib();
        let mut out = Vec::new();
        n.select(&["book", "author"], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].text(), "A1");
        out.clear();
        n.select(&["book", "title"], &mut out);
        assert_eq!(out.iter().map(|n| n.text()).collect::<Vec<_>>(), ["T1", "T2"]);
        out.clear();
        n.select(&["nosuch"], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn select_empty_path_is_self() {
        let n = bib();
        let mut out = Vec::new();
        n.select(&[] as &[&str], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(&*out[0].name, "bib");
    }

    #[test]
    fn string_value_concatenates() {
        let n = Node::parse_str("<a>x<b>y</b>z</a>").unwrap();
        assert_eq!(n.text(), "xyz");
        assert!(matches!(n.text_cow(), Cow::Owned(s) if s == "xyz"));
        let leaf = Node::parse_str("<a>x</a>").unwrap();
        assert!(matches!(leaf.text_cow(), Cow::Borrowed("x")));
        assert!(matches!(Node::new("e").text_cow(), Cow::Borrowed("")));
    }

    #[test]
    fn event_roundtrip() {
        let n = bib();
        let evs = n.to_events();
        let back = Node::from_events(evs.iter().map(|e| e.as_event())).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn from_events_rejects_garbage() {
        assert!(Node::from_events([Event::Start("a")]).is_err());
        assert!(Node::from_events([Event::End("a")]).is_err());
        assert!(Node::from_events([Event::Start("a"), Event::End("b")]).is_err());
        assert!(Node::from_events([
            Event::Start("a"),
            Event::End("a"),
            Event::Start("b"),
            Event::End("b")
        ])
        .is_err());
        assert!(Node::from_events(std::iter::empty()).is_err());
    }

    #[test]
    fn buffered_bytes_counts_tags_twice() {
        let n = Node::parse_str("<ab>xyz</ab>").unwrap();
        assert_eq!(n.buffered_bytes(), 2 * 2 + 3);
    }

    #[test]
    fn element_count() {
        assert_eq!(bib().element_count(), 1 + 2 + 3 + 1);
    }

    #[test]
    fn elems_named_filters() {
        let n = bib();
        let book = n.elems().next().unwrap();
        assert_eq!(book.elems_named("author").count(), 2);
        assert_eq!(book.elems_named("title").count(), 1);
    }
}
