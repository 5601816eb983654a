//! # flux-query — the XQuery− fragment (paper, Section 3.1)
//!
//! XQuery− is the paper's XQuery fragment: sequences of fixed strings,
//! for-loops over fixed paths (optionally with `where` conditions),
//! conditionals, and subtree output. Fixed strings are first-class — the
//! query `<result> {$x} </result>` is a *sequence* of three expressions
//! (string, subtree output, string), which Proposition 3.2 shows agrees with
//! standard XQuery semantics whenever the query parses in both.
//!
//! Provided here:
//!
//! * [`ast::Expr`] / [`cond::Cond`] — the abstract syntax (Definition 3.1).
//! * [`parser::parse_xquery`] — a parser for the paper's concrete syntax.
//! * [`normalize()`](normalize::normalize) — the Figure 1 normal form (Theorem 4.1): single-step
//!   paths, no conditional for-loops, conditionals only around strings and
//!   `{$x}`.
//! * [`eval`] — the reference tree evaluator implementing the XQuery−
//!   semantics; it is reused by the DOM baselines *and* by the FluX engine
//!   to run buffered subexpressions, so all three execution paths share one
//!   definition of the language.
//! * [`join`] — indexed evaluation of join-shaped loops (hash probe /
//!   key-column scan) for the engine's buffered subexpressions; the nested
//!   loop of [`eval`] stays the definition and the oracle.

pub mod ast;
pub mod cond;
pub mod eval;
pub mod join;
pub mod normalize;
pub mod parser;
pub mod path;
pub mod print;
pub mod vars;

pub use ast::Expr;
pub use cond::{Atom, CmpRhs, Cond, PathRef, RelOp};
pub use eval::{eval_expr, eval_query, Env, EvalError};
pub use join::{loop_strategies, JoinMemo};
pub use normalize::{is_normal_form, normalize, normalize_with_stats, NormalizeStats};
pub use parser::{parse_condition, parse_xquery, Cursor, ParseError};
pub use path::Path;
pub use vars::{free_vars, VarGen};

/// The distinguished variable bound to the document node (paper: `$ROOT`).
pub const ROOT_VAR: &str = "ROOT";
