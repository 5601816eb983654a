//! Buffer planning: Π, prefix trees, marking and pruning (paper, Section 5,
//! Figure 3).
//!
//! For each variable `$r` that is free in a maximal XQuery− subexpression,
//! `Π($r)` collects the paths below `$r` the expression will read:
//!
//! * `{$r}` buffers the whole subtree (marked root);
//! * a for-loop over `$r/a` buffers the `a` children — tags only when
//!   nothing inside them is needed (the loop still has to iterate), deeper
//!   paths otherwise;
//! * join-condition paths are buffered with their subtrees (their string
//!   values are compared);
//! * constant comparisons and `exists` checks rooted at a *process-stream
//!   scope variable* are **not** buffered — they are evaluated on the fly by
//!   [`crate::flags`] (§5: "only a Boolean flag is required"). Rooted at a
//!   loop variable inside the buffered evaluation there is no streaming
//!   scope to attach a flag to, so their paths are buffered instead (values
//!   for comparisons, tags only for `exists`). This extension of the
//!   paper's Π rule is documented in DESIGN.md.
//!
//! Marked nodes keep their whole subtrees; descendants of marked nodes are
//! pruned (they are already covered), giving the paper's buffer trees.

use std::collections::BTreeMap;

use flux_query::{Atom, CmpRhs, Cond, Expr};
use flux_xml::{NameId, Symbols};

/// A (pruned) buffer tree: which descendants of a scope variable to record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferTree {
    /// Record this node's entire subtree.
    pub marked: bool,
    /// Children to follow (empty for marked nodes after pruning).
    pub children: BTreeMap<String, BufferTree>,
}

impl BufferTree {
    /// Insert a path with its markedness, merging with existing entries.
    pub fn insert(&mut self, path: &[String], marked: bool) {
        match path.split_first() {
            None => self.marked |= marked,
            Some((head, rest)) => {
                self.children.entry(head.clone()).or_default().insert(rest, marked);
            }
        }
    }

    /// Prune descendants of marked nodes (they are buffered wholesale).
    pub fn prune(&mut self) {
        if self.marked {
            self.children.clear();
        } else {
            for c in self.children.values_mut() {
                c.prune();
            }
        }
    }

    /// True when nothing at all would be recorded.
    pub fn is_empty(&self) -> bool {
        !self.marked && self.children.is_empty()
    }

    /// Number of nodes (for tests/diagnostics).
    pub fn node_count(&self) -> usize {
        1 + self.children.values().map(BufferTree::node_count).sum::<usize>()
    }

    /// Render as `name[•]{…}` strings for debugging and the examples.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.marked {
            out.push('•');
        }
        if !self.children.is_empty() {
            out.push('{');
            for (i, (name, c)) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(name);
                out.push_str(&c.render());
            }
            out.push('}');
        }
        out
    }
}

/// The runtime form of a pruned [`BufferTree`], compiled once when a query
/// is prepared: children keyed by interned [`NameId`], so
/// the recorder's per-event lookup is a scan over a short id array
/// (children lists in DTD content models are small) instead of a string
/// `BTreeMap` probe, and no path strings are split, copied or hashed per
/// document. Nodes are flattened into one arena and addressed by index —
/// the resumable [`Pump`](crate::Pump) keeps recorder cursors across
/// `feed` calls, and plain `u32` handles keep that state free of borrows
/// into the plan.
#[derive(Debug, Clone, Default)]
pub struct RtTree {
    nodes: Vec<RtNode>,
}

/// One node of an [`RtTree`]; node [`RtTree::ROOT`] is the scope variable.
#[derive(Debug, Clone, Default)]
struct RtNode {
    marked: bool,
    children: Vec<(NameId, u32)>,
}

impl RtTree {
    /// Index of the root node (compiled trees always have one).
    pub const ROOT: u32 = 0;

    /// Does the node record its entire subtree?
    #[inline]
    pub fn marked(&self, node: u32) -> bool {
        self.nodes[node as usize].marked
    }

    /// The child of `node` for an interned name, if the tree descends into
    /// it. [`NameId::UNKNOWN`] never matches a compiled child.
    #[inline]
    pub fn child(&self, node: u32, id: NameId) -> Option<u32> {
        self.nodes[node as usize].children.iter().find(|(i, _)| *i == id).map(|&(_, c)| c)
    }

    /// True when nothing at all would be recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.first().is_none_or(|root| !root.marked && root.children.is_empty())
    }
}

impl BufferTree {
    /// Compile to the runtime form, interning every child name.
    pub fn compile(&self, symbols: &mut Symbols) -> RtTree {
        fn go(t: &BufferTree, symbols: &mut Symbols, nodes: &mut Vec<RtNode>) -> u32 {
            let idx = nodes.len() as u32;
            nodes.push(RtNode { marked: t.marked, children: Vec::new() });
            let children = t
                .children
                .iter()
                .map(|(name, c)| (symbols.intern(name), go(c, symbols, nodes)))
                .collect();
            nodes[idx as usize].children = children;
            idx
        }
        let mut nodes = Vec::new();
        go(self, symbols, &mut nodes);
        RtTree { nodes }
    }
}

/// Buffered-path markedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Whole subtree.
    Marked,
    /// Open/close tags only.
    TagsOnly,
}

/// Compute `Π($r, expr)`: the buffered paths of `expr` below variable `r`.
/// `r_is_scope_var` selects flag-based handling for constant/exists atoms
/// (true for process-stream scope variables, false for loop variables bound
/// inside the expression).
pub fn pi(r: &str, expr: &Expr, r_is_scope_var: bool) -> Vec<(Vec<String>, Mark)> {
    let mut out = Vec::new();
    collect(r, expr, r_is_scope_var, &mut out);
    out
}

/// Build the pruned buffer tree of scope variable `r` over a set of
/// expressions (the maximal XQuery− subexpressions it is free in).
pub fn buffer_tree_for<'e>(r: &str, exprs: impl IntoIterator<Item = &'e Expr>) -> BufferTree {
    let mut tree = BufferTree::default();
    let mut any = false;
    for e in exprs {
        for (path, mark) in pi(r, e, true) {
            any = true;
            tree.insert(&path, mark == Mark::Marked);
        }
    }
    if any {
        tree.prune();
    }
    tree
}

fn collect(r: &str, e: &Expr, scope_var: bool, out: &mut Vec<(Vec<String>, Mark)>) {
    match e {
        Expr::Empty | Expr::Str(_) => {}
        Expr::OutputVar { var } => {
            if var == r {
                out.push((vec![], Mark::Marked));
            }
        }
        Expr::OutputPath { var, path } => {
            if var == r {
                out.push((path.steps().to_vec(), Mark::Marked));
            }
        }
        Expr::Seq(items) => items.iter().for_each(|i| collect(r, i, scope_var, out)),
        Expr::If { cond, body } => {
            collect_cond(r, cond, scope_var, out);
            collect(r, body, scope_var, out);
        }
        Expr::For { var, in_var, path, pred, body } => {
            if let Some(c) = pred {
                collect_cond(r, c, scope_var, out);
            }
            if var != r {
                collect(r, body, scope_var, out);
            }
            if in_var == r {
                // Π of the loop variable inside the body, prefixed by the
                // loop path. The loop variable is never a scope variable.
                let mut inner = Vec::new();
                if var != r {
                    collect(var, body, false, &mut inner);
                    if let Some(c) = pred {
                        collect_cond(var, c, false, &mut inner);
                    }
                }
                if inner.is_empty() {
                    out.push((path.steps().to_vec(), Mark::TagsOnly));
                } else {
                    for (w, m) in inner {
                        let mut p = path.steps().to_vec();
                        p.extend(w);
                        out.push((p, m));
                    }
                }
            }
        }
    }
}

fn collect_cond(r: &str, c: &Cond, scope_var: bool, out: &mut Vec<(Vec<String>, Mark)>) {
    visit_atoms(c, &mut |atom| match atom {
        Atom::Cmp { left, right, .. } => {
            let join = matches!(right, CmpRhs::Path(_) | CmpRhs::Scaled { .. });
            if join {
                if left.var == r {
                    out.push((left.path.steps().to_vec(), Mark::Marked));
                }
                if let CmpRhs::Path(p) | CmpRhs::Scaled { path: p, .. } = right {
                    if p.var == r {
                        out.push((p.path.steps().to_vec(), Mark::Marked));
                    }
                }
            } else if !scope_var && left.var == r {
                // Constant comparison on a loop variable: value needed.
                out.push((left.path.steps().to_vec(), Mark::Marked));
            }
        }
        Atom::Exists(p) => {
            if !scope_var && p.var == r {
                out.push((p.path.steps().to_vec(), Mark::TagsOnly));
            }
        }
    });
}

/// Visit all atoms of a condition.
pub fn visit_atoms<'c, F: FnMut(&'c Atom)>(c: &'c Cond, f: &mut F) {
    match c {
        Cond::True => {}
        Cond::And(a, b) | Cond::Or(a, b) => {
            visit_atoms(a, f);
            visit_atoms(b, f);
        }
        Cond::Not(x) => visit_atoms(x, f),
        Cond::Atom(a) => f(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_query::parse_xquery;

    #[test]
    fn example_5_1_buffer_trees() {
        // α of Example 5.1, with X = {$bib, $article}. Expected (Figure 3):
        //   T($bib):     book → publisher• (ceo pruned)
        //   T($article): author•
        let alpha = parse_xquery(
            "{ for $book in $bib/book return \
               { for $p in $book/publisher return \
                 { if $article/author = $book/publisher/ceo then {$p} } } }",
        )
        .unwrap();
        let t_bib = buffer_tree_for("bib", [&alpha]);
        assert_eq!(t_bib.render(), "{book{publisher•}}");
        let t_article = buffer_tree_for("article", [&alpha]);
        assert_eq!(t_article.render(), "{author•}");
        let t_root = buffer_tree_for("ROOT", [&alpha]);
        assert!(t_root.is_empty());
    }

    #[test]
    fn example_5_2_variant_with_editor() {
        // F′3's α: the book tags are kept (the loop iterates) and editor
        // subtrees are buffered for the join.
        let alpha = parse_xquery(
            "{ for $book in $bib/book return \
               { if $article/author = $book/editor then <result> } \
               { for $author in $article/author return \
                 { if $article/author = $book/editor then {$author} } } \
               { if $article/author = $book/editor then </result> } }",
        )
        .unwrap();
        let t_bib = buffer_tree_for("bib", [&alpha]);
        assert_eq!(t_bib.render(), "{book{editor•}}");
        let t_article = buffer_tree_for("article", [&alpha]);
        assert_eq!(t_article.render(), "{author•}");
    }

    #[test]
    fn whole_subtree_output_marks_root() {
        let alpha = parse_xquery("{$p}").unwrap();
        let t = buffer_tree_for("p", [&alpha]);
        assert!(t.marked);
        assert!(t.children.is_empty());
        assert_eq!(t.render(), "•");
    }

    #[test]
    fn loop_with_empty_body_buffers_tags_only() {
        let alpha = parse_xquery("{ for $x in $r/a return <hit/> }").unwrap();
        let t = buffer_tree_for("r", [&alpha]);
        assert_eq!(t.render(), "{a}");
        assert!(!t.children["a"].marked);
    }

    #[test]
    fn scope_var_constant_conditions_are_not_buffered() {
        // Flags handle these (paper §5); nothing is buffered for $r itself.
        let alpha =
            parse_xquery("{ if $r/publisher = \"AW\" and exists $r/year then <y/> }").unwrap();
        let t = buffer_tree_for("r", [&alpha]);
        assert!(t.is_empty(), "{}", t.render());
    }

    #[test]
    fn loop_var_constant_conditions_are_buffered() {
        // $x is bound inside the buffered evaluation: no streaming scope, no
        // flag — the value must come from the buffer.
        let alpha = parse_xquery("{ for $x in $r/a return { if $x/c = 5 then <y/> } }").unwrap();
        let t = buffer_tree_for("r", [&alpha]);
        assert_eq!(t.render(), "{a{c•}}");
        // exists needs tags only:
        let alpha2 =
            parse_xquery("{ for $x in $r/a return { if exists $x/c then <y/> } }").unwrap();
        let t2 = buffer_tree_for("r", [&alpha2]);
        assert_eq!(t2.render(), "{a{c}}");
        assert!(!t2.children["a"].children["c"].marked);
    }

    #[test]
    fn pruning_removes_descendants_of_marked_nodes() {
        // Both $r/a and $r/a/b are buffered; buffering a suffices.
        let e1 = parse_xquery("{ for $x in $r/a return {$x} }").unwrap();
        let e2 = parse_xquery("{ for $x in $r/a return { for $y in $x/b return {$y} } }").unwrap();
        let t = buffer_tree_for("r", [&e1, &e2]);
        assert_eq!(t.render(), "{a•}");
    }

    #[test]
    fn union_across_expressions() {
        let e1 = parse_xquery("{ for $x in $r/a return {$x} }").unwrap();
        let e2 = parse_xquery("{ for $y in $r/b return {$y} }").unwrap();
        let t = buffer_tree_for("r", [&e1, &e2]);
        assert_eq!(t.render(), "{a• b•}");
    }

    #[test]
    fn shadowing_stops_collection() {
        let alpha = parse_xquery("{ for $r in $q/z return {$r} }").unwrap();
        let t = buffer_tree_for("r", [&alpha]);
        assert!(t.is_empty(), "rebinding of $r must not leak: {}", t.render());
    }

    #[test]
    fn multi_step_condition_paths() {
        let alpha = parse_xquery(
            "{ for $p in $r/person return { if $p/profile/income > (2 * $o/initial) then {$p/name} } }",
        )
        .unwrap();
        let t = buffer_tree_for("r", [&alpha]);
        assert_eq!(t.render(), "{person{name• profile{income•}}}");
        let t_o = buffer_tree_for("o", [&alpha]);
        assert_eq!(t_o.render(), "{initial•}");
    }
}
