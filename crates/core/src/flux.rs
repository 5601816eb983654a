//! The FluX abstract syntax (paper, Definition 3.3).

use std::collections::BTreeSet;

use flux_dtd::{Dtd, Production};
use flux_query::Expr;

/// The pseudo element name of the document node (the production `$ROOT`
/// ranges over).
pub const DOC_ELEM: &str = "#document";

/// Resolve an element name to its production, treating [`DOC_ELEM`] as the
/// DTD's document pseudo-production.
pub fn production_of<'d>(dtd: &'d Dtd, elem: &str) -> Option<&'d Production> {
    if elem == DOC_ELEM {
        Some(dtd.doc_production())
    } else {
        dtd.production(elem)
    }
}

/// The symbol set of an `on-first past(…)` handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PastSpec {
    /// `past(*)` — shorthand for `past(symb($y))`.
    All,
    /// `past(S)` for an explicit set (possibly empty: `past()`).
    Set(BTreeSet<String>),
}

impl PastSpec {
    /// Build from an iterator of names.
    pub fn set<S: Into<String>>(names: impl IntoIterator<Item = S>) -> PastSpec {
        PastSpec::Set(names.into_iter().map(Into::into).collect())
    }

    /// The empty set `past()`.
    pub fn empty() -> PastSpec {
        PastSpec::Set(BTreeSet::new())
    }

    /// Resolve to a concrete symbol set against the production of the
    /// enclosing `process-stream` variable.
    pub fn resolve(&self, prod: &Production) -> BTreeSet<String> {
        match self {
            PastSpec::All => prod.symbols().iter().cloned().collect(),
            PastSpec::Set(s) => s.clone(),
        }
    }
}

/// An event handler inside `process-stream $y: ζ`.
#[derive(Debug, Clone, PartialEq)]
pub enum Handler {
    /// `on-first past(S) return α` — fires exactly once, at the earliest
    /// moment the DTD guarantees no symbol of S can still occur among the
    /// children of `$y`; α is an XQuery− expression evaluated over buffers.
    OnFirst {
        /// The watched symbol set.
        past: PastSpec,
        /// The XQuery− expression to run.
        expr: Expr,
    },
    /// `on a as $x return Q` — fires on each `a`-labelled child, binding it
    /// to `$x` and processing it with the FluX expression Q.
    On {
        /// The child label the handler reacts to.
        label: String,
        /// The variable bound to the matched child.
        var: String,
        /// The handler body (recursively FluX).
        body: Box<FluxExpr>,
    },
}

/// A FluX expression: either a *simple* XQuery− expression or
/// `s { process-stream $y: ζ } s'` (Definition 3.3).
#[derive(Debug, Clone, PartialEq)]
pub enum FluxExpr {
    /// A simple expression (strings, `{if χ then s}`, at most one `{$u}`).
    Simple(Expr),
    /// `s { process-stream $y: ζ } s'`.
    PS {
        /// Optional literal string written before the stream is processed.
        pre: Option<String>,
        /// The variable whose children are processed.
        var: String,
        /// The handler list ζ, in order.
        handlers: Vec<Handler>,
        /// Optional literal string written afterwards.
        post: Option<String>,
    },
}

impl FluxExpr {
    /// Plain `{ ps $var: handlers }` without surrounding strings.
    pub fn ps(var: impl Into<String>, handlers: Vec<Handler>) -> FluxExpr {
        FluxExpr::PS { pre: None, var: var.into(), handlers, post: None }
    }

    /// Visit every `process-stream` subexpression together with its
    /// variable, pre-order.
    pub fn visit_ps<'a, F: FnMut(&'a str, &'a [Handler])>(&'a self, f: &mut F) {
        if let FluxExpr::PS { var, handlers, .. } = self {
            f(var, handlers);
            for h in handlers {
                if let Handler::On { body, .. } = h {
                    body.visit_ps(f);
                }
            }
        }
    }

    /// The *maximal XQuery− subexpressions* of this FluX expression
    /// (Section 3.2): the expression itself if simple, otherwise the
    /// `on-first` handler bodies found anywhere inside.
    pub fn maximal_xquery_subexprs(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn go<'a>(e: &'a FluxExpr, out: &mut Vec<&'a Expr>) {
            match e {
                FluxExpr::Simple(x) => out.push(x),
                FluxExpr::PS { handlers, .. } => {
                    for h in handlers {
                        match h {
                            Handler::OnFirst { expr, .. } => out.push(expr),
                            Handler::On { body, .. } => go(body, out),
                        }
                    }
                }
            }
        }
        go(self, &mut out);
        out
    }

    /// Free variables of the FluX expression (Section 3.2).
    pub fn free_vars(&self) -> BTreeSet<String> {
        match self {
            FluxExpr::Simple(e) => flux_query::free_vars(e),
            FluxExpr::PS { var, handlers, .. } => {
                let mut out = BTreeSet::new();
                out.insert(var.clone());
                for h in handlers {
                    match h {
                        Handler::OnFirst { expr, .. } => out.extend(flux_query::free_vars(expr)),
                        Handler::On { var: x, body, .. } => {
                            let mut inner = body.free_vars();
                            inner.remove(x);
                            out.extend(inner);
                        }
                    }
                }
                out
            }
        }
    }

    /// Whether this is a FluX *query*: all variables except `$ROOT` bound.
    pub fn is_query(&self) -> bool {
        let fv = self.free_vars();
        fv.iter().all(|v| v == flux_query::ROOT_VAR)
    }

    /// Count `on-first` handlers anywhere in the expression — a quick proxy
    /// for "how much buffering does this plan need" used by tests.
    pub fn on_first_count(&self) -> usize {
        let mut n = 0;
        self.visit_ps(&mut |_, handlers| {
            n += handlers.iter().filter(|h| matches!(h, Handler::OnFirst { .. })).count();
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_query::parse_xquery;

    #[test]
    fn past_spec_resolution() {
        let dtd = Dtd::parse("<!ELEMENT book (title,author*)>").unwrap();
        let prod = dtd.production("book").unwrap();
        assert_eq!(
            PastSpec::All.resolve(prod).into_iter().collect::<Vec<_>>(),
            ["author", "title"]
        );
        assert_eq!(PastSpec::empty().resolve(prod).len(), 0);
        assert_eq!(PastSpec::set(["title"]).resolve(prod).len(), 1);
    }

    #[test]
    fn free_vars_and_query() {
        let body = parse_xquery("{ for $a in $book/author return {$a} }").unwrap();
        let q = FluxExpr::ps(
            "ROOT",
            vec![Handler::On {
                label: "bib".into(),
                var: "bib".into(),
                body: Box::new(FluxExpr::ps(
                    "bib",
                    vec![Handler::On {
                        label: "book".into(),
                        var: "book".into(),
                        body: Box::new(FluxExpr::Simple(body)),
                    }],
                )),
            }],
        );
        assert!(q.is_query(), "free vars: {:?}", q.free_vars());
        // A dangling variable makes it a non-query.
        let bad = FluxExpr::Simple(parse_xquery("{$loose}").unwrap());
        assert!(!bad.is_query());
    }

    #[test]
    fn maximal_subexprs() {
        // Example 3.5: the maximal XQuery− subexpressions of the first FluX
        // query in Section 1 are {$t} and the author for-loop.
        let q = crate::parser::parse_flux(
            "<results>{ process-stream $ROOT: on bib as $bib return \
               { process-stream $bib: on book as $book return \
                 <result>{ process-stream $book: \
                    on title as $t return {$t}; \
                    on-first past(title,author) return \
                      { for $a in $book/author return {$a} } }</result> } }</results>",
        )
        .unwrap();
        let subs = q.maximal_xquery_subexprs();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].to_string(), "{$t}");
        assert!(subs[1].to_string().contains("for $a in $book/author"));
    }

    #[test]
    fn production_of_document() {
        let dtd = Dtd::parse("<!ELEMENT bib (book)*>").unwrap();
        assert_eq!(production_of(&dtd, DOC_ELEM).unwrap().name, "#document");
        assert_eq!(production_of(&dtd, "bib").unwrap().name, "bib");
        assert!(production_of(&dtd, "zzz").is_none());
    }
}
