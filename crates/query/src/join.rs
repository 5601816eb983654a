//! Indexed evaluation of join-shaped loops.
//!
//! The paper evaluates a buffered join by nested loops: for every binding of
//! the outer variable, every item of the inner sequence is tested against
//! the join condition. When the inner sequence does not depend on the outer
//! variable, everything about it — the selection, the string values of the
//! compared path, their numeric interpretation — is loop-invariant. A
//! [`JoinMemo`] computes that once per evaluation and hands the `For` arm of
//! the evaluator only the items that can satisfy the join condition:
//!
//! * `$inner/π = $outer/π′` probes a **hash index** whose keys are
//!   canonicalised exactly as [`compare_values`](crate::eval::compare_values)
//!   compares — trimmed; numeric when the value parses as a number (so
//!   `"1.0"` meets `"1"`, `-0` meets `0`, `NaN` meets nothing); the trimmed
//!   string otherwise;
//! * every other comparison — `<`, `<=`, `>`, `>=`, and `c * $y/π′` right-hand
//!   sides — scans a **key column** of pre-parsed values: one `f64` compare
//!   per pair instead of two selections, two string values and two parses.
//!
//! Candidates come out in document order and the rest of the `where` clause
//! and the loop body run through the ordinary evaluator, so the output is
//! byte-identical to the nested loop. Which loops qualify is decided from
//! the shape of the expression alone (`plan_join`); [`loop_strategies`]
//! renders the same decision for EXPLAIN.
//!
//! Index memory is *asked for before it is built*: the memo is constructed
//! over a grant callback (the engine's buffer budget), and a refused grant
//! leaves that loop on the nested path.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::mem::size_of;

use flux_xml::Node;

use crate::ast::Expr;
use crate::cond::{Atom, CmpRhs, Cond, PathRef, RelOp};
use crate::eval::partial_ord;

/// The loops enclosing the expression under evaluation, innermost last:
/// each bound variable together with the variable its sequence is rooted at.
#[derive(Debug, Default)]
pub(crate) struct Loops<'e> {
    /// The bound variables (what an [`AtomResolver`](crate::eval::AtomResolver) sees).
    pub(crate) vars: Vec<&'e str>,
    srcs: Vec<&'e str>,
}

impl<'e> Loops<'e> {
    pub(crate) fn push(&mut self, var: &'e str, in_var: &'e str) {
        self.vars.push(var);
        self.srcs.push(in_var);
    }

    pub(crate) fn pop(&mut self) {
        self.vars.pop();
        self.srcs.pop();
    }

    /// Does the value of `var` change when the loop at `pos` advances? It
    /// does if `var` *is* that loop's variable or is (transitively) drawn
    /// from it; a variable bound outside that loop — or not bound by the
    /// expression at all — holds still.
    fn depends_on(&self, mut var: &'e str, pos: usize) -> bool {
        let mut limit = self.vars.len();
        loop {
            match self.vars[..limit].iter().rposition(|b| *b == var) {
                Some(q) if q == pos => return true,
                Some(q) if q > pos => {
                    var = self.srcs[q];
                    limit = q;
                }
                _ => return false,
            }
        }
    }
}

/// How an indexed loop finds its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinKind {
    Hash,
    Scan,
}

/// A join-shaped loop: the `where` conjunct that relates the loop variable
/// to an enclosing loop's variable, taken apart.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinPlan<'e> {
    /// The conjunct the index decides.
    pub(crate) atom: &'e Atom,
    /// The side rooted at the loop variable (indexed once).
    inner: &'e PathRef,
    /// The side rooted at the enclosing loop's variable (evaluated per
    /// binding of it).
    pub(crate) outer: &'e PathRef,
    inner_is_left: bool,
    op: RelOp,
    /// `Some(c)` for `left op c * right`: numeric-only comparison.
    factor: Option<f64>,
    kind: JoinKind,
}

impl fmt::Display for JoinPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            JoinKind::Hash => write!(f, "hash join on {}", self.atom),
            JoinKind::Scan => write!(f, "key-column scan on {}", self.atom),
        }
    }
}

/// Why a conditional loop runs as a plain nested loop. Ordered: when several
/// conjuncts fail for different reasons the most specific one is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum NestedReason {
    /// No conjunct compares a path of the loop variable with a path of
    /// another variable.
    NoJoinAtom,
    /// The other variable is not bound by an enclosing loop: its side is
    /// fixed for the whole evaluation, there is nothing to probe per binding.
    FixedPartner,
    /// The loop's sequence is drawn from the other variable: it is a new
    /// sequence for every binding, an index would serve one probe.
    DependentSequence,
}

impl fmt::Display for NestedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NestedReason::NoJoinAtom => "nested loop (no join atom)",
            NestedReason::FixedPartner => "nested loop (join partner is not an enclosing loop)",
            NestedReason::DependentSequence => "nested loop (dependent sequence)",
        })
    }
}

/// Decide how `for $var in $in_var/… where pred` is evaluated under the
/// enclosing `loops` — the one predicate the evaluator and EXPLAIN share.
/// An equality between plain paths (hash probe) is preferred over the first
/// qualifying conjunct of any other form (column scan).
pub(crate) fn plan_join<'e>(
    var: &str,
    in_var: &str,
    pred: &'e Cond,
    loops: &Loops<'_>,
) -> Result<JoinPlan<'e>, NestedReason> {
    let mut best: Result<JoinPlan<'e>, NestedReason> = Err(NestedReason::NoJoinAtom);
    pred.for_each_conjunct(&mut |c| {
        let Cond::Atom(atom @ Atom::Cmp { left, op, right }) = c else { return };
        let (rhs, factor) = match right {
            CmpRhs::Const(_) => return,
            CmpRhs::Path(p) => (p, None),
            CmpRhs::Scaled { factor, path } => (path, Some(*factor)),
        };
        let (inner, outer, inner_is_left) = match (left.var == var, rhs.var == var) {
            (true, false) => (left, rhs, true),
            (false, true) => (rhs, left, false),
            _ => return,
        };
        let verdict = match loops.vars.iter().rposition(|b| *b == outer.var) {
            None => Err(NestedReason::FixedPartner),
            Some(pos) if loops.depends_on(in_var, pos) => Err(NestedReason::DependentSequence),
            Some(_) => {
                let kind = if *op == RelOp::Eq && factor.is_none() {
                    JoinKind::Hash
                } else {
                    JoinKind::Scan
                };
                Ok(JoinPlan { atom, inner, outer, inner_is_left, op: *op, factor, kind })
            }
        };
        best = match (&best, verdict) {
            (Ok(b), Ok(v)) if b.kind == JoinKind::Scan && v.kind == JoinKind::Hash => Ok(v),
            (Ok(_), _) => return,
            (Err(_), Ok(v)) => Ok(v),
            (Err(b), Err(v)) => Err(v.max(*b)),
        };
    });
    best
}

/// One line per conditional loop (`for … where …`) in `expr`, in source
/// order: the loop header and how the evaluator runs it under a
/// [`JoinMemo`] — `hash join on <atom>`, `key-column scan on <atom>` or
/// `nested loop (<reason>)`. Computed by the predicate the evaluator itself
/// consults, so the report cannot drift from the execution. (A refused
/// index grant is a run-time event and demotes a loop to nested for that
/// evaluation only.)
pub fn loop_strategies(expr: &Expr) -> Vec<String> {
    fn go<'e>(e: &'e Expr, loops: &mut Loops<'e>, out: &mut Vec<String>) {
        match e {
            Expr::Seq(items) => items.iter().for_each(|i| go(i, loops, out)),
            Expr::If { body, .. } => go(body, loops, out),
            Expr::For { var, in_var, path, pred, body } => {
                if let Some(chi) = pred {
                    let how = match plan_join(var, in_var, chi, loops) {
                        Ok(plan) => plan.to_string(),
                        Err(reason) => reason.to_string(),
                    };
                    out.push(format!("for ${var} in ${in_var}/{path}: {how}"));
                }
                loops.push(var, in_var);
                go(body, loops, out);
                loops.pop();
            }
            Expr::Empty | Expr::Str(_) | Expr::OutputVar { .. } | Expr::OutputPath { .. } => {}
        }
    }
    let mut out = Vec::new();
    go(expr, &mut Loops::default(), &mut out);
    out
}

/// A string value as comparisons see it: trimmed, with its numeric reading.
#[derive(Debug)]
struct Val<'a> {
    num: Option<f64>,
    text: Cow<'a, str>,
}

impl<'a> Val<'a> {
    fn of(node: &'a Node) -> Val<'a> {
        let text = match node.text_cow() {
            Cow::Borrowed(s) => Cow::Borrowed(s.trim()),
            Cow::Owned(s) => Cow::Owned(s.trim().to_owned()),
        };
        Val { num: text.parse().ok(), text }
    }

    /// The equality class of the value under `compare_values(_, Eq, _)`, or
    /// `None` for NaN, which equals nothing. A numeric value can only equal
    /// another numeric value (equal strings parse alike), so the two kinds
    /// of key never need to meet.
    fn key(&self) -> Option<Key<'_>> {
        match self.num {
            Some(x) => Key::num(x),
            None => Some(Key::Str(Cow::Borrowed(&self.text))),
        }
    }

    fn into_key(self) -> Option<Key<'a>> {
        match self.num {
            Some(x) => Key::num(x),
            None => Some(Key::Str(self.text)),
        }
    }
}

#[derive(Debug, PartialEq, Eq, Hash)]
enum Key<'a> {
    Num(u64),
    Str(Cow<'a, str>),
}

impl Key<'_> {
    fn num(x: f64) -> Option<Self> {
        // -0 and 0 compare equal but differ in their bits.
        (!x.is_nan()).then(|| Key::Num(if x == 0.0 { 0 } else { x.to_bits() }))
    }
}

/// End of a posting chain.
const NIL: u32 = u32::MAX;

/// Head and tail of a key's posting chain (indices into `chain`).
type Posting = (u32, u32);

#[derive(Debug)]
enum Keys<'a> {
    /// `heads[key]` → chain of `(item, next)` entries, in document order.
    Hash { heads: HashMap<Key<'a>, Posting>, chain: Vec<(u32, u32)> },
    /// `(item, value)` for every value of the compared path, in document
    /// order.
    Column(Vec<(u32, Val<'a>)>),
}

/// The loop-invariant side of one join, computed once.
#[derive(Debug)]
struct JoinIndex<'a> {
    /// The loop's sequence.
    items: Vec<&'a Node>,
    keys: Keys<'a>,
}

/// Bytes std's hash table allocates for `cap` entries of `T`: buckets for a
/// 7/8 load factor rounded up to a power of two, one control byte each.
fn table_bytes<T>(cap: usize) -> usize {
    let buckets = match cap {
        0 => return 0,
        1..=3 => 4,
        4..=7 => 8,
        _ => (cap * 8 / 7).next_power_of_two(),
    };
    buckets * (size_of::<T>() + 1)
}

impl<'a> JoinIndex<'a> {
    /// Select the loop's sequence and index the loop-variable side of the
    /// join atom, after `grant` admits the bytes that will take. `scratch`
    /// is selection space; it is returned as it came.
    fn build(
        root: &'a Node,
        path: &[String],
        plan: &JoinPlan<'_>,
        scratch: &mut Vec<&'a Node>,
        grant: &mut dyn FnMut(usize) -> bool,
    ) -> Option<(JoinIndex<'a>, usize)> {
        let key_path = plan.inner.path.steps();
        let base = scratch.len();
        root.select(path, scratch);
        let items_end = scratch.len();
        // Size everything first: the item list, one column or chain entry
        // per key value, and copies of the values the buffer cannot lend.
        let (mut values, mut copied) = (0usize, 0usize);
        for i in base..items_end {
            let item = scratch[i];
            item.select(key_path, scratch);
            for key_node in scratch.drain(items_end..) {
                values += 1;
                if let Cow::Owned(s) = key_node.text_cow() {
                    copied += s.len();
                }
            }
        }
        let n = items_end - base;
        let bytes = n * size_of::<&Node>()
            + copied
            + match plan.kind {
                JoinKind::Hash => {
                    values * size_of::<(u32, u32)>() + table_bytes::<(Key<'_>, Posting)>(values)
                }
                JoinKind::Scan => values * size_of::<(u32, Val<'_>)>(),
            };
        if values >= NIL as usize || n >= NIL as usize || !grant(bytes) {
            scratch.truncate(base);
            return None;
        }
        let items: Vec<&'a Node> = scratch[base..items_end].to_vec();
        scratch.truncate(base);
        let mut each_value = |f: &mut dyn FnMut(u32, Val<'a>)| {
            for (i, item) in items.iter().enumerate() {
                item.select(key_path, scratch);
                scratch.drain(base..).for_each(|k| f(i as u32, Val::of(k)));
            }
        };
        let keys = match plan.kind {
            JoinKind::Scan => {
                let mut column = Vec::with_capacity(values);
                each_value(&mut |item, val| column.push((item, val)));
                Keys::Column(column)
            }
            JoinKind::Hash => {
                let mut heads: HashMap<Key<'a>, Posting> = HashMap::with_capacity(values);
                let mut chain: Vec<(u32, u32)> = Vec::with_capacity(values);
                each_value(&mut |item, val| {
                    let Some(key) = val.into_key() else { return };
                    let e = chain.len() as u32;
                    chain.push((item, NIL));
                    match heads.entry(key) {
                        Entry::Vacant(slot) => {
                            slot.insert((e, e));
                        }
                        Entry::Occupied(mut slot) => {
                            let (_, last) = slot.get_mut();
                            chain[*last as usize].1 = e;
                            *last = e;
                        }
                    }
                });
                Keys::Hash { heads, chain }
            }
        };
        Some((JoinIndex { items, keys }, bytes))
    }

    /// Append to `cands`, ascending and without repeats, the items with a
    /// key value that satisfies the join atom against some `outer` value
    /// (existential on both sides, as the nested comparison is).
    fn probe(&self, plan: &JoinPlan<'_>, outer: &[Val<'_>], cands: &mut Vec<u32>) {
        match &self.keys {
            Keys::Hash { heads, chain } => {
                let mut hits = 0;
                for key in outer.iter().filter_map(Val::key) {
                    let Some(&(first, _)) = heads.get(&key) else { continue };
                    hits += 1;
                    let mut e = first;
                    while e != NIL {
                        let (item, next) = chain[e as usize];
                        cands.push(item);
                        e = next;
                    }
                }
                // Each chain ascends; several of them have to be merged.
                if hits > 1 {
                    cands.sort_unstable();
                }
                cands.dedup();
            }
            Keys::Column(column) => {
                for (item, val) in column {
                    if cands.last() != Some(item) && outer.iter().any(|o| plan.test(val, o)) {
                        cands.push(*item);
                    }
                }
            }
        }
    }
}

impl JoinPlan<'_> {
    /// The join atom on one pair of values — `compare_values` (resp. the
    /// numeric-only scaled comparison) over pre-parsed operands.
    fn test(&self, inner: &Val<'_>, outer: &Val<'_>) -> bool {
        let (l, r) = if self.inner_is_left { (inner, outer) } else { (outer, inner) };
        match (l.num, r.num, self.factor) {
            (Some(a), Some(b), Some(c)) => self.op.test(partial_ord(a, c * b)),
            (_, _, Some(_)) => false,
            (Some(a), Some(b), None) => self.op.test(partial_ord(a, b)),
            (_, _, None) => self.op.test(l.text.cmp(&r.text)),
        }
    }
}

/// Per-evaluation memo of join indexes, passed to
/// [`eval_expr_indexed`](crate::eval::eval_expr_indexed).
///
/// An index belongs to one loop of the expression *and* the node its
/// sequence was selected from; every node is immutably borrowed for the
/// whole evaluation, so that pair identifies the sequence. Nothing is
/// allocated until a join-shaped loop is actually entered.
pub struct JoinMemo<'a, 'g> {
    grant: &'g mut dyn FnMut(usize) -> bool,
    granted: usize,
    /// `None` records a refused (or impossible) build: that loop stays
    /// nested for the rest of the evaluation instead of asking again.
    indexes: Option<HashMap<(usize, usize), Option<JoinIndex<'a>>>>,
    outer: Vec<Val<'a>>,
    cands: Vec<u32>,
}

impl<'a, 'g> JoinMemo<'a, 'g> {
    /// A memo that asks `grant(bytes)` before building each index and builds
    /// it only on `true`. Granted bytes are held until the memo is dropped;
    /// the caller reads the total from [`JoinMemo::granted_bytes`] and
    /// returns it to wherever `grant` took it from.
    pub fn new(grant: &'g mut dyn FnMut(usize) -> bool) -> Self {
        JoinMemo { grant, granted: 0, indexes: None, outer: Vec::new(), cands: Vec::new() }
    }

    /// Total bytes `grant` admitted so far.
    pub fn granted_bytes(&self) -> usize {
        self.granted
    }

    /// Append to `out`, in document order, the items of `root/path` that can
    /// satisfy `plan.atom` while its outer side is rooted at `outer_root`.
    /// Returns `false` — `out` untouched — when the loop has no index.
    pub(crate) fn candidates(
        &mut self,
        site: &Expr,
        root: &'a Node,
        path: &[String],
        plan: &JoinPlan<'_>,
        outer_root: &'a Node,
        out: &mut Vec<&'a Node>,
    ) -> bool {
        let JoinMemo { grant, granted, indexes, outer, cands } = self;
        let key = (site as *const Expr as usize, root as *const Node as usize);
        let slot = indexes.get_or_insert_with(HashMap::new).entry(key).or_insert_with(|| {
            let (index, bytes) = JoinIndex::build(root, path, plan, out, &mut **grant)?;
            *granted += bytes;
            Some(index)
        });
        let Some(index) = slot else { return false };
        let base = out.len();
        outer_root.select(plan.outer.path.steps(), out);
        outer.clear();
        outer.extend(out.drain(base..).map(Val::of));
        cands.clear();
        index.probe(plan, outer, cands);
        out.extend(cands.iter().map(|&i| index.items[i as usize]));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_expr, eval_expr_indexed, wrap_document, Env};
    use crate::parser::parse_xquery;
    use flux_xml::Writer;
    use proptest::prelude::*;

    /// Evaluate `query` over `doc` three ways — nested (the definition),
    /// indexed, and indexed with every grant refused — and insist on the
    /// same bytes. Returns the output and how many indexes were built.
    #[track_caller]
    fn same_bytes(query: &str, doc: &Node) -> (String, usize) {
        fn text(w: Writer<Vec<u8>>) -> String {
            String::from_utf8(w.into_inner().unwrap()).unwrap()
        }
        let expr = parse_xquery(query).unwrap_or_else(|e| panic!("{query}: {e}"));

        let mut plain = Writer::new(Vec::new());
        eval_expr(&expr, &mut Env::with(crate::ROOT_VAR, doc), &mut plain).unwrap();
        let plain = text(plain);

        let mut built = 0;
        let mut grant = |_bytes: usize| {
            built += 1;
            true
        };
        let mut memo = JoinMemo::new(&mut grant);
        let mut indexed = Writer::new(Vec::new());
        let mut env = Env::with(crate::ROOT_VAR, doc);
        eval_expr_indexed(&expr, &mut env, &mut indexed, &|_, _| None, &mut memo).unwrap();
        assert_eq!(text(indexed), plain, "indexed ≠ nested\nquery {query}\ndoc {}", doc.to_xml());

        let mut refuse = |_bytes: usize| false;
        let mut memo = JoinMemo::new(&mut refuse);
        let mut denied = Writer::new(Vec::new());
        let mut env = Env::with(crate::ROOT_VAR, doc);
        eval_expr_indexed(&expr, &mut env, &mut denied, &|_, _| None, &mut memo).unwrap();
        assert_eq!(memo.granted_bytes(), 0);
        assert_eq!(text(denied), plain, "denied ≠ nested\nquery {query}");
        (plain, built)
    }

    fn doc(xml: &str) -> Node {
        wrap_document(Node::parse_str(xml).unwrap())
    }

    fn strategy(query: &str) -> Vec<String> {
        loop_strategies(&parse_xquery(query).unwrap())
    }

    #[test]
    fn strategy_follows_the_shape_of_the_loop() {
        assert_eq!(
            strategy(
                "{ for $p in $ROOT/r/p return { for $t in $ROOT/r/t \
                   where $t/k = $p/k return {$t} } }"
            ),
            ["for $t in $ROOT/r/t: hash join on $t/k = $p/k"]
        );
        // The loop variable may sit on either side; anything but a plain
        // equality scans the column; an equality is preferred to a range.
        assert_eq!(
            strategy(
                "{ for $p in $ROOT/r/p return { for $t in $ROOT/r/t \
                   where $p/k > (2 * $t/k) return {$t} } }"
            ),
            ["for $t in $ROOT/r/t: key-column scan on $p/k > (2 * $t/k)"]
        );
        assert_eq!(
            strategy(
                "{ for $p in $ROOT/r/p return { for $t in $ROOT/r/t \
                   where $t/m < $p/m and exists $t/x and $p/k = $t/k return {$t} } }"
            ),
            ["for $t in $ROOT/r/t: hash join on $p/k = $t/k"]
        );
        // The normal form's single-step chain: `$ts` is bound inside `$p`'s
        // loop but drawn from outside it, so the sequence holds still.
        assert_eq!(
            strategy(
                "{ for $p in $s/p return { for $ts in $s/ts return \
                   { for $t in $ts/t where $t/k = $p/k return {$t} } } }"
            ),
            ["for $t in $ts/t: hash join on $t/k = $p/k"]
        );
    }

    #[test]
    fn loops_that_stay_nested_say_why() {
        assert_eq!(
            strategy("{ for $t in $ROOT/r/t where $t/k = 1 and $t/a = $t/b return {$t} }"),
            ["for $t in $ROOT/r/t: nested loop (no join atom)"]
        );
        assert_eq!(
            strategy("{ for $t in $ROOT/r/t where $t/k = $x/k return {$t} }"),
            ["for $t in $ROOT/r/t: nested loop (join partner is not an enclosing loop)"]
        );
        assert_eq!(
            strategy(
                "{ for $p in $ROOT/r/p return { for $g in $p/g where $g/k = $p/k return {$g} } }"
            ),
            ["for $g in $p/g: nested loop (dependent sequence)"]
        );
        // Dependence is transitive, and judged against the partner's own
        // loop: `$g` is drawn from `$q`, which is drawn from `$p`…
        assert_eq!(
            strategy(
                "{ for $p in $ROOT/r/p return { for $q in $p/q return \
                   { for $g in $q/g where $g/k = $p/k return {$g} } } }"
            ),
            ["for $g in $q/g: nested loop (dependent sequence)"]
        );
        // …while a sequence drawn from a loop *outside* the partner's is
        // invariant for as long as the partner iterates.
        assert_eq!(
            strategy(
                "{ for $a in $ROOT/r/a return { for $p in $ROOT/r/p return \
                   { for $t in $a/t where $t/k = $p/k return {$t} } } }"
            ),
            ["for $t in $a/t: hash join on $t/k = $p/k"]
        );
    }

    #[test]
    fn numeric_spellings_meet_as_compare_values_says() {
        let d = doc("<r>\
            <p><n>a</n><k>1</k></p><p><n>b</n><k> 42 </k></p><p><n>c</n><k>-0</k></p>\
            <p><n>d</n><k>NaN</k></p><p><n>e</n><k>inf</k></p><p><n>f</n><k>1e3</k></p>\
            <p><n>g</n><k>abc</k></p><p><n>h</n><k></k></p><p><n>i</n></p>\
            <t><m>1</m><k>1.0</k></t><t><m>2</m><k>42</k></t><t><m>3</m><k>0</k></t>\
            <t><m>4</m><k>NaN</k></t><t><m>5</m><k>Infinity</k></t><t><m>6</m><k>1000</k></t>\
            <t><m>7</m><k> abc</k></t><t><m>8</m><k/></t><t><m>9</m></t><t><m>10</m><k>01</k></t>\
            </r>");
        let (out, built) = same_bytes(
            "{ for $p in $ROOT/r/p return <p>{$p/n}{ for $t in $ROOT/r/t \
               where $t/k = $p/k return {$t/m} }</p> }",
            &d,
        );
        assert_eq!(built, 1, "one index serves every outer binding");
        assert_eq!(
            out,
            "<p><n>a</n><m>1</m><m>10</m></p><p><n>b</n><m>2</m></p><p><n>c</n><m>3</m></p>\
             <p><n>d</n></p><p><n>e</n><m>5</m></p><p><n>f</n><m>6</m></p>\
             <p><n>g</n><m>7</m></p><p><n>h</n><m>8</m></p><p><n>i</n></p>"
        );
    }

    #[test]
    fn multi_valued_and_duplicate_keys_stay_existential_and_ordered() {
        // p1 matches t1 twice over (two of its keys) and t3; t2 has no key.
        let d = doc("<r>\
            <p><n>1</n><k>a</k><k>b</k></p><p><n>2</n></p><p><n>3</n><k>b</k><k>b</k></p>\
            <t><m>1</m><k>b</k><k>a</k></t><t><m>2</m></t><t><m>3</m><k>a</k></t>\
            <t><m>4</m><k>b</k></t><t><m>5</m><k>4<x/>2</k></t>\
            </r>");
        let (out, _) = same_bytes(
            "{ for $p in $ROOT/r/p return <p>{ for $t in $ROOT/r/t \
               where $t/k = $p/k return {$t/m} }</p> }",
            &d,
        );
        assert_eq!(out, "<p><m>1</m><m>3</m><m>4</m></p><p></p><p><m>1</m><m>4</m></p>");
        // Mixed content is concatenated ("42"), on either side.
        let (out, _) = same_bytes(
            "{ for $p in $ROOT/r/t return { for $t in $ROOT/r/t \
               where $t/k >= (10.5 * $p/k) return <hit>{$p/m}{$t/m}</hit> } }",
            &d,
        );
        assert_eq!(out, "");
        let (out, _) = same_bytes(
            "{ for $p in $ROOT/r/t return { for $t in $ROOT/r/t \
               where $t/k > $p/k return <hit>{$p/m}{$t/m}</hit> } }",
            &d,
        );
        assert!(out.contains("<hit><m>5</m><m>1</m></hit>"), "\"42\" < \"a\": {out}");
    }

    #[test]
    fn residual_conjuncts_shadowing_and_dependent_loops() {
        let d = doc("<r>\
            <p><n>1</n><k>a</k><g><k>a</k></g><g><k>z</k></g></p>\
            <p><n>2</n><k>b</k><g><k>b</k></g></p>\
            <t><m>1</m><k>a</k></t><t><m>2</m><k>b</k></t><t><m>3</m><k>a</k></t>\
            </r>");
        // The residual is tested per candidate, before and after the atom.
        for pred in ["$t/k = $p/k and $t/m > 1", "$t/m > 1 and $t/k = $p/k"] {
            let (out, built) = same_bytes(
                &format!(
                    "{{ for $p in $ROOT/r/p return <p>{{ for $t in $ROOT/r/t \
                        where {pred} return {{$t/m}} }}</p> }}"
                ),
                &d,
            );
            assert_eq!((out.as_str(), built), ("<p><m>3</m></p><p><m>2</m></p>", 1));
        }
        // A rebinding of the loop variable's name is a different loop with
        // its own index; a rebinding of the partner's name is the partner.
        let (_, built) = same_bytes(
            "{ for $p in $ROOT/r/p return { for $t in $ROOT/r/t return \
               { for $t in $ROOT/r/t where $t/k = $p/k return <s>{$t/m}</s> } } }",
            &d,
        );
        assert_eq!(built, 1);
        let (out, _) = same_bytes(
            "{ for $p in $ROOT/r/p return { for $p in $ROOT/r/t return \
               <q>{ for $t in $ROOT/r/t where $t/k = $p/k return {$t/m} }</q> } }",
            &d,
        );
        assert!(out.starts_with("<q><m>1</m><m>3</m></q><q><m>2</m></q>"), "{out}");
        // A sequence drawn from the partner is never indexed…
        let (out, built) = same_bytes(
            "{ for $p in $ROOT/r/p return { for $g in $p/g where $g/k = $p/k return {$g} } }",
            &d,
        );
        assert_eq!(built, 0);
        assert_eq!(out, "<g><k>a</k></g><g><k>b</k></g>");
        // …while one drawn from an outer loop gets an index per root node.
        let (_, built) = same_bytes(
            "{ for $a in $ROOT/r/p return { for $p in $ROOT/r/t return \
               { for $g in $a/g where $g/k = $p/k return {$g} } } }",
            &d,
        );
        assert_eq!(built, 2);
    }

    #[test]
    fn an_atom_the_resolver_owns_is_not_indexed() {
        let d = doc("<r><p><k>a</k></p><t><k>b</k></t></r>");
        let expr = parse_xquery(
            "{ for $p in $ROOT/r/p return { for $t in $ROOT/r/t where $t/k = $p/k return {$t} } }",
        )
        .unwrap();
        let mut built = 0;
        let mut grant = |_| {
            built += 1;
            true
        };
        let mut memo = JoinMemo::new(&mut grant);
        let mut w = Writer::new(Vec::new());
        let mut env = Env::with(crate::ROOT_VAR, &d);
        let claim_all = |_: &Atom, _: &[&str]| Some(true);
        eval_expr_indexed(&expr, &mut env, &mut w, &claim_all, &mut memo).unwrap();
        assert_eq!(w.into_inner().unwrap(), b"<t><k>b</k></t>");
        assert_eq!(built, 0);
    }

    #[test]
    fn requested_bytes_follow_the_column_lengths() {
        let mut d = String::from("<r><p><k>1</k></p>");
        for i in 0..100 {
            d.push_str(&format!("<t><k>{i}</k><k>x{i}</k></t>"));
        }
        d.push_str("</r>");
        let d = doc(&d);
        let mut asked = Vec::new();
        for op in ["=", "<"] {
            let expr = parse_xquery(&format!(
                "{{ for $p in $ROOT/r/p return {{ for $t in $ROOT/r/t \
                    where $t/k {op} $p/k return {{$t}} }} }}"
            ))
            .unwrap();
            let mut grant = |bytes| {
                asked.push(bytes);
                true
            };
            let mut memo = JoinMemo::new(&mut grant);
            let mut env = Env::with(crate::ROOT_VAR, &d);
            let mut w = Writer::new(Vec::new());
            eval_expr_indexed(&expr, &mut env, &mut w, &|_, _| None, &mut memo).unwrap();
            assert_eq!(memo.granted_bytes(), *asked.last().unwrap());
        }
        let items = 100 * size_of::<&Node>();
        assert_eq!(
            asked,
            [
                items + 200 * 8 + table_bytes::<(Key<'_>, Posting)>(200),
                items + 200 * size_of::<(u32, Val<'_>)>(),
            ]
        );
    }

    const POOL: &[&str] = &[
        "1", "1.0", " 42 ", "42", "-0", "0", "NaN", "inf", "Infinity", "1e3", "1000", "abc", "abd",
        " abc", "", "10", "9a", "+5", "5", "-1", "0.5",
    ];

    /// `<r>`: persons `<p>` with a serial `<n>`, 0–3 keys `<k>` (sometimes
    /// mixed content), sometimes groups `<g><k>…</k></g>`; items `<t>` with a
    /// serial `<m>` and 0–3 keys.
    fn random_doc(mut seed: u64) -> Node {
        let mut next = |n: u64| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        let key = |out: &mut String, next: &mut dyn FnMut(u64) -> u64| {
            let v = POOL[next(POOL.len() as u64) as usize];
            match next(8) {
                0 => out.push_str(&format!("<k>{v}<x/></k>")),
                1 => out.push_str(&format!("<k><x>{v}</x></k>")),
                _ => out.push_str(&format!("<k>{v}</k>")),
            }
        };
        let mut out = String::from("<r>");
        for i in 0..1 + next(5) {
            out.push_str(&format!("<p><n>{i}</n>"));
            for _ in 0..next(4) {
                key(&mut out, &mut next);
            }
            for _ in 0..next(3) {
                out.push_str("<g>");
                key(&mut out, &mut next);
                out.push_str("</g>");
            }
            out.push_str("</p>");
        }
        for j in 0..next(7) {
            out.push_str(&format!("<t><m>{j}</m>"));
            for _ in 0..next(4) {
                key(&mut out, &mut next);
            }
            out.push_str("</t>");
        }
        out.push_str("</r>");
        doc(&out)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

        #[test]
        fn indexed_evaluation_is_nested_evaluation(
            doc_seed in 0u64..1_000_000,
            op in 0usize..5,
            shape in 0usize..4,
            factor in 0usize..4,
            extra in 0usize..4,
            nest in 0usize..4,
        ) {
            let d = random_doc(doc_seed);
            let op = ["=", "<", "<=", ">", ">="][op];
            let factor = ["1", "2", "0.5", "-1"][factor];
            let atom = match shape {
                0 => format!("$t/k {op} $p/k"),
                1 => format!("$p/k {op} $t/k"),
                2 => format!("$t/k {op} ({factor} * $p/k)"),
                _ => format!("$p/k {op} ({factor} * $t/k)"),
            };
            let pred = match extra {
                0 => atom,
                1 => format!("{atom} and $t/m > 1"),
                2 => format!("exists $t/k and {atom}"),
                _ => format!("{atom} and not ($t/m = $p/n)"),
            };
            let query = match nest {
                // The plain join.
                0 => format!(
                    "{{ for $p in $ROOT/r/p return <p>{{$p/n}}{{ for $t in $ROOT/r/t \
                        where {pred} return <t>{{$t/m}}</t> }}</p> }}"),
                // The normal form's single-step chains.
                1 => format!(
                    "{{ for $r in $ROOT/r return {{ for $p in $r/p return <p>{{ for $r2 in $ROOT/r \
                        return {{ for $t in $r2/t where {pred} return {{$t/m}} }} }}</p> }} }}"),
                // The loop variable's name rebound around the join.
                2 => format!(
                    "{{ for $t in $ROOT/r/t return {{ for $p in $ROOT/r/p return <p>{{ for $t in \
                        $ROOT/r/t where {pred} return {{$t/m}} }}</p> }} }}"),
                // A dependent sequence (`$t` ranges over the partner's own
                // groups): must agree too, through the nested path.
                _ => format!(
                    "{{ for $p in $ROOT/r/p return <p>{{ for $t in $p/g \
                        where {pred} return {{$t}} }}</p> }}"),
            };
            let (_, built) = same_bytes(&query, &d);
            // Every joinable shape really went through an index — one per
            // site, the partner's sequence is never empty — unless the
            // join was never reached; the dependent one never did.
            let reached = match nest {
                2 => d.to_xml().contains("<t>"),
                _ => nest != 3,
            };
            prop_assert_eq!(built, usize::from(reached), "{}", query);
        }
    }
}
