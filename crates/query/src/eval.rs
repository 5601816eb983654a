//! The reference XQuery− evaluator over node trees (paper, Section 3.1
//! semantics).
//!
//! This single evaluator is used by every execution path in the system:
//!
//! * the DOM baseline engines run whole queries over the full document tree;
//! * the FluX streaming engine runs *buffered* XQuery− subexpressions over
//!   the partial trees held in its runtime buffers (paper, Section 5 — the
//!   buffers replay "indistinguishable from the input stream").
//!
//! Comparison semantics are XQuery's existential quantification over the
//! node sequences denoted by both sides; values compare numerically when
//! both operands parse as numbers, lexicographically otherwise.
//!
//! Loops are evaluated as the paper evaluates them — nested, one predicate
//! test per binding. The engine additionally hands [`eval_expr_indexed`] a
//! [`JoinMemo`], under which join-shaped loops visit only the bindings an
//! index over the loop-invariant side selects (see [`crate::join`]); the
//! nested loop stays the definition, the fallback and the test oracle.

use std::cmp::Ordering;
use std::fmt;

use flux_xml::{Node, Sink, Writer};

use crate::ast::Expr;
use crate::cond::{Atom, CmpRhs, Cond, PathRef, RelOp};
use crate::join::{plan_join, JoinMemo, Loops};

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable was read that is not bound in the environment — a safety
    /// violation if it happens while running a FluX query.
    Unbound(String),
    /// Output sink failure.
    Io(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unbound(v) => write!(f, "unbound variable ${v}"),
            EvalError::Io(e) => write!(f, "output error: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A variable environment: bindings from variable names to nodes, with
/// lexical shadowing (later bindings win). Names are borrowed — from the
/// expression under evaluation or the plan that owns it — so binding a
/// variable copies nothing.
#[derive(Debug, Default)]
pub struct Env<'a> {
    stack: Vec<(&'a str, &'a Node)>,
}

impl<'a> Env<'a> {
    /// Empty environment.
    pub fn new() -> Self {
        Env { stack: Vec::new() }
    }

    /// Environment with a single binding (typically `$ROOT` → document).
    pub fn with(var: &'a str, node: &'a Node) -> Self {
        Env { stack: vec![(var, node)] }
    }

    /// Bind a variable (shadowing any previous binding).
    pub fn push(&mut self, var: &'a str, node: &'a Node) {
        self.stack.push((var, node));
    }

    /// Remove the most recent binding.
    pub fn pop(&mut self) {
        self.stack.pop();
    }

    /// Look a variable up.
    pub fn get(&self, var: &str) -> Result<&'a Node, EvalError> {
        self.stack
            .iter()
            .rev()
            .find(|(v, _)| *v == var)
            .map(|&(_, n)| n)
            .ok_or_else(|| EvalError::Unbound(var.to_string()))
    }

    /// Resolve `$var/path`, appending the matching nodes to `out` in
    /// document order.
    pub fn select(&self, pr: &PathRef, out: &mut Vec<&'a Node>) -> Result<(), EvalError> {
        self.get(&pr.var)?.select(pr.path.steps(), out);
        Ok(())
    }
}

/// External resolver for atomic conditions evaluable outside the buffers
/// (the FluX engine's on-the-fly condition flags, paper §5). Called with
/// the atom and the variables bound *inside* the expression so far; returns
/// `Some(value)` for atoms it owns, `None` to evaluate against the
/// environment's node bindings. Threading the resolver through evaluation
/// (instead of substituting into a cloned expression) keeps handler
/// firings allocation-free on the streaming path.
pub type AtomResolver<'r> = &'r dyn Fn(&Atom, &[&str]) -> Option<bool>;

/// Per-evaluation state threaded through the recursion.
struct Cx<'a, 'r, 'm, 'g> {
    resolve: AtomResolver<'r>,
    /// The loops entered so far; `loops.vars` is what the resolver sees.
    loops: Loops<'a>,
    /// Node-selection scratch used as a stack: every loop and comparison
    /// appends its selections above the enclosing ones and truncates back,
    /// so one allocation serves the whole evaluation.
    nodes: Vec<&'a Node>,
    memo: Option<&'m mut JoinMemo<'a, 'g>>,
}

impl<'a, 'r, 'm, 'g> Cx<'a, 'r, 'm, 'g> {
    fn new(resolve: AtomResolver<'r>, memo: Option<&'m mut JoinMemo<'a, 'g>>) -> Self {
        Cx { resolve, loops: Loops::default(), nodes: Vec::new(), memo }
    }
}

/// Evaluate an expression, writing the result through an XML writer.
pub fn eval_expr<'a, S: Sink>(
    expr: &'a Expr,
    env: &mut Env<'a>,
    out: &mut Writer<S>,
) -> Result<(), EvalError> {
    eval_expr_with(expr, env, out, &|_, _| None)
}

/// [`eval_expr`] with an external atom resolver (see [`AtomResolver`]).
pub fn eval_expr_with<'a, S: Sink>(
    expr: &'a Expr,
    env: &mut Env<'a>,
    out: &mut Writer<S>,
    resolve: AtomResolver<'_>,
) -> Result<(), EvalError> {
    eval_expr_inner(expr, env, out, &mut Cx::new(resolve, None))
}

/// [`eval_expr_with`], evaluating join-shaped loops through the indexes of
/// `memo` (see [`JoinMemo`]). Output is byte-identical to the nested
/// evaluation; loops the memo cannot or may not index run nested.
pub fn eval_expr_indexed<'a, S: Sink>(
    expr: &'a Expr,
    env: &mut Env<'a>,
    out: &mut Writer<S>,
    resolve: AtomResolver<'_>,
    memo: &mut JoinMemo<'a, '_>,
) -> Result<(), EvalError> {
    eval_expr_inner(expr, env, out, &mut Cx::new(resolve, Some(memo)))
}

fn eval_expr_inner<'a, S: Sink>(
    expr: &'a Expr,
    env: &mut Env<'a>,
    out: &mut Writer<S>,
    cx: &mut Cx<'a, '_, '_, '_>,
) -> Result<(), EvalError> {
    match expr {
        Expr::Empty => Ok(()),
        Expr::Str(s) => out.write_raw(s).map_err(io_err),
        Expr::Seq(items) => {
            for it in items {
                eval_expr_inner(it, env, out, cx)?;
            }
            Ok(())
        }
        Expr::OutputVar { var } => out.write_node(env.get(var)?).map_err(io_err),
        Expr::OutputPath { var, path } => {
            let base = cx.nodes.len();
            env.get(var)?.select(path.steps(), &mut cx.nodes);
            let res = cx.nodes[base..].iter().try_for_each(|n| out.write_node(n));
            cx.nodes.truncate(base);
            res.map_err(io_err)
        }
        Expr::If { cond, body } => {
            if eval_cond_inner(cond, None, env, cx)? {
                eval_expr_inner(body, env, out, cx)?;
            }
            Ok(())
        }
        Expr::For { var, in_var, path, pred, body } => {
            let root = env.get(in_var)?;
            let base = cx.nodes.len();
            // The bindings to visit: every item of the sequence, or — for a
            // join-shaped loop under a memo — only those an index says can
            // pass `joined`, which the per-binding test below then skips.
            let joined = 'index: {
                let (Some(memo), Some(chi)) = (&mut cx.memo, pred) else { break 'index None };
                let Ok(plan) = plan_join(var, in_var, chi, &cx.loops) else { break 'index None };
                // An atom the resolver owns is not ours to index.
                cx.loops.push(var, in_var);
                let owned = (cx.resolve)(plan.atom, &cx.loops.vars).is_some();
                cx.loops.pop();
                if owned {
                    break 'index None;
                }
                let outer = env.get(&plan.outer.var)?;
                memo.candidates(expr, root, path.steps(), &plan, outer, &mut cx.nodes)
                    .then_some(plan.atom)
            };
            if joined.is_none() {
                root.select(path.steps(), &mut cx.nodes);
            }
            let end = cx.nodes.len();
            // `var` is rebound below this point: the resolver must not
            // claim atoms rooted at it (lexical shadowing).
            cx.loops.push(var, in_var);
            let mut res = Ok(());
            for i in base..end {
                env.push(var, cx.nodes[i]);
                let keep = match pred {
                    Some(chi) => eval_cond_inner(chi, joined, env, cx),
                    None => Ok(true),
                };
                res = keep.and_then(|keep| match keep {
                    true => eval_expr_inner(body, env, out, cx),
                    false => Ok(()),
                });
                env.pop();
                if res.is_err() {
                    break;
                }
            }
            cx.loops.pop();
            cx.nodes.truncate(base);
            res
        }
    }
}

fn io_err(e: std::io::Error) -> EvalError {
    EvalError::Io(e.to_string())
}

/// Evaluate a condition under the environment.
pub fn eval_cond(cond: &Cond, env: &Env<'_>) -> Result<bool, EvalError> {
    eval_cond_with(cond, env, &|_, _| None)
}

/// [`eval_cond`] with an external atom resolver (see [`AtomResolver`]).
pub fn eval_cond_with(
    cond: &Cond,
    env: &Env<'_>,
    resolve: AtomResolver<'_>,
) -> Result<bool, EvalError> {
    eval_cond_inner(cond, None, env, &mut Cx::new(resolve, None))
}

/// `joined` is the conjunct an index already decided for this binding (see
/// the `For` arm): it holds, and is not evaluated again.
fn eval_cond_inner<'a>(
    cond: &Cond,
    joined: Option<&Atom>,
    env: &Env<'a>,
    cx: &mut Cx<'a, '_, '_, '_>,
) -> Result<bool, EvalError> {
    Ok(match cond {
        Cond::True => true,
        Cond::And(a, b) => {
            eval_cond_inner(a, joined, env, cx)? && eval_cond_inner(b, joined, env, cx)?
        }
        Cond::Or(a, b) => {
            eval_cond_inner(a, joined, env, cx)? || eval_cond_inner(b, joined, env, cx)?
        }
        Cond::Not(c) => !eval_cond_inner(c, joined, env, cx)?,
        Cond::Atom(atom) => {
            if joined.is_some_and(|j| std::ptr::eq(j, atom)) {
                return Ok(true);
            }
            if let Some(v) = (cx.resolve)(atom, &cx.loops.vars) {
                return Ok(v);
            }
            let base = cx.nodes.len();
            let res = eval_atom(atom, env, &mut cx.nodes);
            cx.nodes.truncate(base);
            res?
        }
    })
}

/// Evaluate an atom over the environment's nodes; selections are appended
/// to `nodes` (the caller truncates).
fn eval_atom<'a>(atom: &Atom, env: &Env<'a>, nodes: &mut Vec<&'a Node>) -> Result<bool, EvalError> {
    let base = nodes.len();
    let (left, op, right) = match atom {
        Atom::Exists(p) => {
            env.select(p, nodes)?;
            return Ok(nodes.len() > base);
        }
        Atom::Cmp { left, op, right } => (left, *op, right),
    };
    env.select(left, nodes)?;
    let mid = nodes.len();
    let rhs_path = match right {
        CmpRhs::Const(s) => {
            return Ok(nodes[base..].iter().any(|n| compare_values(&n.text_cow(), op, s)));
        }
        CmpRhs::Path(path) | CmpRhs::Scaled { path, .. } => path,
    };
    env.select(rhs_path, nodes)?;
    let (lhs, rhs) = nodes[base..].split_at(mid - base);
    Ok(match right {
        CmpRhs::Scaled { factor, .. } => lhs.iter().any(|l| {
            let Ok(lv) = l.text_cow().trim().parse::<f64>() else { return false };
            rhs.iter().any(|r| match r.text_cow().trim().parse::<f64>() {
                Ok(rv) => op.test(partial_ord(lv, factor * rv)),
                Err(_) => false,
            })
        }),
        _ => lhs.iter().any(|l| {
            let lv = l.text_cow();
            rhs.iter().any(|r| compare_values(&lv, op, &r.text_cow()))
        }),
    })
}

pub(crate) fn partial_ord(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Less)
}

/// Compare two string values: numerically when both parse as numbers,
/// lexicographically otherwise.
pub fn compare_values(left: &str, op: RelOp, right: &str) -> bool {
    let (l, r) = (left.trim(), right.trim());
    match (l.parse::<f64>(), r.parse::<f64>()) {
        (Ok(a), Ok(b)) => op.test(partial_ord(a, b)),
        _ => op.test(l.cmp(r)),
    }
}

/// Wrap a parsed root element in a document node so that `$ROOT/rootname/…`
/// paths resolve (the paper's `$ROOT` denotes the document node).
pub fn wrap_document(root: Node) -> Node {
    let mut doc = Node::new("#document");
    doc.children.push(flux_xml::Child::Elem(root));
    doc
}

/// Evaluate a whole query against a document node (as produced by
/// [`wrap_document`]); returns the serialized result.
pub fn eval_query(expr: &Expr, doc: &Node) -> Result<String, EvalError> {
    let mut env = Env::with(crate::ROOT_VAR, doc);
    let mut w = Writer::new(Vec::new());
    eval_expr(expr, &mut env, &mut w)?;
    let bytes = w.into_inner().map_err(io_err)?;
    Ok(String::from_utf8(bytes).expect("writer emits UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_condition, parse_xquery};

    fn bib_doc() -> Node {
        wrap_document(
            Node::parse_str(
                "<bib>\
                   <book><title>TCP</title><author>Stevens</author><author>Wright</author>\
                     <publisher>Addison-Wesley</publisher><year>1994</year></book>\
                   <book><title>Data on the Web</title><author>Abiteboul</author>\
                     <publisher>Morgan Kaufmann</publisher><year>1999</year></book>\
                 </bib>",
            )
            .unwrap(),
        )
    }

    #[track_caller]
    fn run(q: &str) -> String {
        eval_query(&parse_xquery(q).unwrap(), &bib_doc()).unwrap()
    }

    #[test]
    fn intro_query() {
        let out = run(
            "<results>{ for $b in $ROOT/bib/book return <result> {$b/title} {$b/author} </result> }</results>",
        );
        assert_eq!(
            out,
            "<results><result><title>TCP</title><author>Stevens</author><author>Wright</author></result>\
             <result><title>Data on the Web</title><author>Abiteboul</author></result></results>"
        );
    }

    #[test]
    fn where_filters() {
        let out = run(
            "{ for $b in $ROOT/bib/book where $b/publisher = \"Addison-Wesley\" and $b/year > 1991 \
               return <b>{$b/title}</b> }",
        );
        assert_eq!(out, "<b><title>TCP</title></b>");
        // numeric comparison really is numeric:
        let none = run("{ for $b in $ROOT/bib/book where $b/year > 2020 return <b/> }");
        assert_eq!(none, "");
    }

    #[test]
    fn exists_and_empty() {
        assert_eq!(
            run("{ for $b in $ROOT/bib/book where exists $b/author return <y/> }"),
            "<y/><y/>"
        );
        assert_eq!(
            run("{ for $b in $ROOT/bib/book where empty($b/price) return <n/> }"),
            "<n/><n/>"
        );
        assert_eq!(run("{ for $b in $ROOT/bib/book where empty($b/title) return <n/> }"), "");
    }

    #[test]
    fn join_comparison_is_existential() {
        // Any author equal to any of the listed authors.
        let doc = bib_doc();
        let env = Env::with("ROOT", &doc);
        let c = parse_condition("$ROOT/bib/book/author = $ROOT/bib/book/author").unwrap();
        assert!(eval_cond(&c, &env).unwrap());
    }

    #[test]
    fn scaled_comparison() {
        let doc =
            wrap_document(Node::parse_str("<r><a><v>100</v></a><b><w>30</w></b></r>").unwrap());
        let env = Env::with("ROOT", &doc);
        assert!(
            eval_cond(&parse_condition("$ROOT/r/a/v > (3 * $ROOT/r/b/w)").unwrap(), &env).unwrap()
        );
        assert!(
            !eval_cond(&parse_condition("$ROOT/r/a/v > (4 * $ROOT/r/b/w)").unwrap(), &env).unwrap()
        );
        // Non-numeric operands make the comparison false, not an error.
        let doc2 =
            wrap_document(Node::parse_str("<r><a><v>abc</v></a><b><w>30</w></b></r>").unwrap());
        let env2 = Env::with("ROOT", &doc2);
        assert!(!eval_cond(&parse_condition("$ROOT/r/a/v > (1 * $ROOT/r/b/w)").unwrap(), &env2)
            .unwrap());
    }

    #[test]
    fn string_vs_numeric_comparison() {
        assert!(compare_values("10", RelOp::Gt, "9"));
        assert!(!compare_values("10", RelOp::Gt, "9a"), "lexicographic: \"10\" < \"9a\"");
        assert!(compare_values("abc", RelOp::Lt, "abd"));
        assert!(compare_values(" 42 ", RelOp::Eq, "42"));
    }

    #[test]
    fn unbound_variable_errors() {
        let e = parse_xquery("{$nope}").unwrap();
        assert_eq!(eval_query(&e, &bib_doc()).unwrap_err(), EvalError::Unbound("nope".into()));
    }

    #[test]
    fn atom_resolver_respects_rebinding() {
        // The resolver claims every atom rooted at $b as `true` — except
        // where $b is rebound inside the expression, which must fall back
        // to node evaluation (lexical shadowing, as FluX flag scoping
        // requires).
        let doc = wrap_document(Node::parse_str("<y><z><x>0</x></z><z><x>1</x></z></y>").unwrap());
        let e = parse_xquery(
            "{ if $b/x = 1 then <outer/> } \
             { for $b in $ROOT/y/z return { if $b/x = 1 then <inner/> } }",
        )
        .unwrap();
        let mut env = Env::with(crate::ROOT_VAR, &doc);
        // $b is NOT bound in the environment: if the resolver failed to
        // claim the outer atom, evaluation would error with Unbound.
        let resolve = |atom: &Atom, bound: &[&str]| {
            let var = match atom {
                Atom::Cmp { left, .. } => &left.var,
                Atom::Exists(p) => &p.var,
            };
            (var == "b" && !bound.contains(&"b")).then_some(true)
        };
        let mut w = Writer::new(Vec::new());
        eval_expr_with(&e, &mut env, &mut w, &resolve).unwrap();
        let out = String::from_utf8(w.into_inner().unwrap()).unwrap();
        // Outer atom resolved true; inner $b rebound → evaluated over the
        // document (matches only the second <z>).
        assert_eq!(out, "<outer/><inner/>");
    }

    #[test]
    fn shadowing() {
        let doc = bib_doc();
        let out = eval_query(
            &parse_xquery(
                "{ for $b in $ROOT/bib/book return { for $b in $b/author return {$b} } }",
            )
            .unwrap(),
            &doc,
        )
        .unwrap();
        assert_eq!(
            out,
            "<author>Stevens</author><author>Wright</author><author>Abiteboul</author>"
        );
    }

    #[test]
    fn equivalence_under_normalization() {
        // Proposition 3.2 / Theorem 4.1: normalization preserves semantics.
        let queries = [
            "<results>{ for $b in $ROOT/bib/book return <result> {$b/title} {$b/author} </result> }</results>",
            "{ for $b in $ROOT/bib/book where $b/publisher = \"Addison-Wesley\" and $b/year > 1991 \
               return <book> {$b/year} {$b/title} </book> }",
            "{ $ROOT/bib/book/title }",
            "{ if $ROOT/bib/book/year > 1000 then <old> {$ROOT/bib/book/author} </old> }",
        ];
        let doc = bib_doc();
        for q in queries {
            let e = parse_xquery(q).unwrap();
            let n = crate::normalize::normalize(&e);
            assert_eq!(eval_query(&e, &doc).unwrap(), eval_query(&n, &doc).unwrap(), "query: {q}");
        }
    }
}
