//! Reference interpreter for FluX over materialized trees (paper,
//! Section 3.2 semantics).
//!
//! This interpreter executes the *definition* of FluX: for a node with
//! children t₁…tₙ it performs the n+2 scans over the handler list,
//! firing `on` handlers on matching labels and `on-first past(S)` handlers
//! at the first position where `first-past` holds (with the i = n+1
//! fallback). It exists to validate both the rewrite algorithm
//! (FluX result ≡ XQuery− result, Theorem 4.3) and the streaming engine
//! (streamed result ≡ tree-semantics result) — three implementations of the
//! same semantics keeping each other honest.

use std::fmt;

use flux_dtd::past::{Matcher, PastTable};
use flux_dtd::Dtd;
use flux_query::eval::{eval_expr, Env, EvalError};
use flux_query::ROOT_VAR;
use flux_xml::{Node, Sink, Writer};

use crate::flux::{production_of, FluxExpr, Handler};

/// Interpretation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Document does not conform to the DTD.
    Validation(String),
    /// The element bound by a handler has no production.
    Undeclared(String),
    /// XQuery− evaluation failed (e.g. unbound variable = unsafe query).
    Eval(EvalError),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Validation(m) => write!(f, "document/DTD mismatch: {m}"),
            InterpError::Undeclared(e) => write!(f, "element `{e}` has no DTD production"),
            InterpError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<EvalError> for InterpError {
    fn from(e: EvalError) -> Self {
        InterpError::Eval(e)
    }
}

/// Interpret a FluX query over a document node (as from
/// [`flux_query::eval::wrap_document`]); returns the serialized output.
pub fn interp_flux(q: &FluxExpr, dtd: &Dtd, doc: &Node) -> Result<String, InterpError> {
    let mut w = Writer::new(Vec::new());
    let mut env = Env::with(ROOT_VAR, doc);
    eval_flux(q, dtd, &mut env, &mut w)?;
    let bytes = w.into_inner().map_err(|e| InterpError::Eval(EvalError::Io(e.to_string())))?;
    Ok(String::from_utf8(bytes).expect("writer emits UTF-8"))
}

fn eval_flux<'t, S: Sink>(
    q: &'t FluxExpr,
    dtd: &Dtd,
    env: &mut Env<'t>,
    w: &mut Writer<S>,
) -> Result<(), InterpError> {
    match q {
        FluxExpr::Simple(e) => Ok(eval_expr(e, env, w)?),
        FluxExpr::PS { pre, var, handlers, post } => {
            if let Some(s) = pre {
                w.write_raw(s).map_err(|e| InterpError::Eval(EvalError::Io(e.to_string())))?;
            }
            run_ps(var, handlers, dtd, env, w)?;
            if let Some(s) = post {
                w.write_raw(s).map_err(|e| InterpError::Eval(EvalError::Io(e.to_string())))?;
            }
            Ok(())
        }
    }
}

fn run_ps<'t, S: Sink>(
    var: &str,
    handlers: &'t [Handler],
    dtd: &Dtd,
    env: &mut Env<'t>,
    w: &mut Writer<S>,
) -> Result<(), InterpError> {
    let node: &'t Node = env.get(var)?;
    let prod = production_of(dtd, &node.name)
        .ok_or_else(|| InterpError::Undeclared(node.name.to_string()))?;
    let g = prod.automaton();
    let c = prod.constraints();

    // Precompute each on-first handler's PastTable.
    let tables: Vec<Option<PastTable>> = handlers
        .iter()
        .map(|h| match h {
            Handler::OnFirst { past, .. } => {
                let set: Vec<String> = past.resolve(prod).into_iter().collect();
                Some(PastTable::build(g, c, &set))
            }
            Handler::On { .. } => None,
        })
        .collect();
    let mut fired = vec![false; handlers.len()];
    let mut matcher = Matcher::new(g);

    // i = 0: only on-first handlers can fire.
    for (idx, h) in handlers.iter().enumerate() {
        if let Handler::OnFirst { expr, .. } = h {
            if tables[idx].as_ref().unwrap().fires_initially() {
                fired[idx] = true;
                eval_expr(expr, env, w)?;
            }
        }
    }

    // i = 1..n: each element child in order.
    for child in node.elems() {
        let (old, new) = matcher
            .step(&child.name)
            .map_err(|m| InterpError::Validation(format!("under <{}>: {m}", node.name)))?;
        for (idx, h) in handlers.iter().enumerate() {
            match h {
                Handler::On { label, var: x, body } => {
                    if **label == *child.name {
                        env.push(x, child);
                        let res = eval_flux(body, dtd, env, w);
                        env.pop();
                        res?;
                    }
                }
                Handler::OnFirst { expr, .. } => {
                    if !fired[idx] && tables[idx].as_ref().unwrap().fires_on(old, new) {
                        fired[idx] = true;
                        eval_expr(expr, env, w)?;
                    }
                }
            }
        }
    }
    matcher.finish().map_err(|m| InterpError::Validation(format!("under <{}>: {m}", node.name)))?;

    // i = n+1: unfired on-first handlers fire now.
    for (idx, h) in handlers.iter().enumerate() {
        if let Handler::OnFirst { expr, .. } = h {
            if !fired[idx] {
                eval_expr(expr, env, w)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_flux;
    use crate::rewrite::rewrite_query;
    use flux_query::eval::{eval_query, wrap_document};
    use flux_query::parse_xquery;

    const BIB_WEAK: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
    const BIB_STRONG: &str = "<!ELEMENT bib (book)*>\
        <!ELEMENT book (title,(author+|editor+),publisher,price)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
        <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";

    fn weak_doc() -> Node {
        Node::parse_str(
            "<bib><book><title>T1</title><author>A1</author><title>T1b</title><author>A2</author></book>\
             <book><author>B1</author></book></bib>",
        )
        .unwrap()
    }

    #[test]
    fn intro_flux_query_on_weak_dtd() {
        // Section 1's first FluX query: titles stream, authors are deferred
        // to the end of each book.
        let q = parse_flux(
            "<results>{ ps $ROOT: on bib as $bib return \
               { ps $bib: on book as $book return \
                 <result>{ ps $book: on title as $t return {$t}; \
                   on-first past(title,author) return \
                     { for $a in $book/author return {$a} } }</result> } }</results>",
        )
        .unwrap();
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let doc = wrap_document(weak_doc());
        let out = interp_flux(&q, &dtd, &doc).unwrap();
        assert_eq!(
            out,
            "<results><result><title>T1</title><title>T1b</title>\
             <author>A1</author><author>A2</author></result>\
             <result><author>B1</author></result></results>"
        );
    }

    #[test]
    fn on_first_fires_at_earliest_dtd_position() {
        // With (title,(author+|editor+),publisher,price), past(title,author)
        // becomes true on the first publisher/editor boundary — authors are
        // flushed before the price arrives, not at book end.
        let q = parse_flux(
            "{ ps $ROOT: on bib as $bib return { ps $bib: on book as $book return \
               { ps $book: on-first past(title,author) return <flush/>; \
                 on price as $p return {$p} } } }",
        )
        .unwrap();
        let dtd = Dtd::parse(BIB_STRONG).unwrap();
        let doc = wrap_document(
            Node::parse_str(
                "<bib><book><title>T</title><author>A</author><publisher>P</publisher>\
                 <price>9</price></book></bib>",
            )
            .unwrap(),
        );
        let out = interp_flux(&q, &dtd, &doc).unwrap();
        assert_eq!(out, "<flush/><price>9</price>");
    }

    #[test]
    fn empty_past_fires_before_children() {
        let q = parse_flux(
            "{ ps $ROOT: on-first past() return <start/>; on bib as $b return {$b}; \
              on-first past(bib) return <end/> }",
        )
        .unwrap();
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let doc = wrap_document(Node::parse_str("<bib></bib>").unwrap());
        assert_eq!(interp_flux(&q, &dtd, &doc).unwrap(), "<start/><bib></bib><end/>");
    }

    #[test]
    fn invalid_document_reported() {
        // The interpreter validates every scope it opens: <bib> requires
        // exactly one <book>, so an empty bib fails at scope end.
        let q =
            parse_flux("{ ps $ROOT: on bib as $b return { ps $b: on book as $k return {$k} } }")
                .unwrap();
        let dtd = Dtd::parse("<!ELEMENT bib (book)><!ELEMENT book (#PCDATA)>").unwrap();
        let doc = wrap_document(Node::parse_str("<bib></bib>").unwrap());
        let err = interp_flux(&q, &dtd, &doc).unwrap_err();
        assert!(matches!(err, InterpError::Validation(_)), "{err:?}");
    }

    #[test]
    fn rewrite_then_interp_equals_direct_eval() {
        // Theorem 4.3 on concrete inputs: [[rewrite(Q)]]FluX = [[Q]]XQuery−.
        let queries = [
            "<results>{ for $b in $ROOT/bib/book return <result> {$b/title} {$b/author} </result> }</results>",
            "{ for $b in $ROOT/bib/book return { for $t in $b/title return { for $a in $b/author return <r>{$t}{$a}</r> } } }",
            "<x>{ $ROOT/bib/book/author }</x>",
        ];
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let doc = wrap_document(weak_doc());
        for q in queries {
            let e = parse_xquery(q).unwrap();
            let flux = rewrite_query(&e, &dtd).unwrap();
            assert_eq!(
                interp_flux(&flux, &dtd, &doc).unwrap(),
                eval_query(&e, &doc).unwrap(),
                "query: {q}\nplan: {flux}"
            );
        }
    }

    #[test]
    fn handler_order_determines_same_step_firing_order() {
        // Both the on-first past(book) and the on handler fire at the same
        // child; ζ order decides the output order.
        let dtd = Dtd::parse("<!ELEMENT bib (book)><!ELEMENT book (#PCDATA)>").unwrap();
        let doc = wrap_document(Node::parse_str("<bib><book>x</book></bib>").unwrap());
        let q1 = parse_flux(
            "{ ps $ROOT: on bib as $b return \
            { ps $b: on-first past(book) return <after/>; on book as $k return {$k} } }",
        )
        .unwrap();
        assert_eq!(interp_flux(&q1, &dtd, &doc).unwrap(), "<after/><book>x</book>");
        let q2 = parse_flux(
            "{ ps $ROOT: on bib as $b return \
            { ps $b: on book as $k return {$k}; on-first past(book) return <after/> } }",
        )
        .unwrap();
        assert_eq!(interp_flux(&q2, &dtd, &doc).unwrap(), "<book>x</book><after/>");
    }
}
