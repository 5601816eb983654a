//! If-hoisting (paper, Section 7): "push if-expressions — which we have
//! moved down the query tree to obtain our normal form — back 'up' the
//! expression tree as soon as the other simplifications have been realized."
//!
//! Adjacent conditionals with syntactically identical conditions are fused:
//! `{if χ then α}{if χ then β}` becomes `{if χ then α β}`, a for-loop whose
//! body is entirely guarded by a χ is rewritten back into a conditional loop,
//! and a `where` conjunct that does not mention its loop's variable moves out
//! to the enclosing loop. The result is generally *not* in normal form — this
//! pass is meant for presentation and for engines that evaluate a condition
//! once instead of per output item; the engine's join evaluator
//! (`flux_query::join`) recognises join-shaped loops by the `where` clauses
//! it produces.

use flux_query::{Cond, Expr};

/// Hoist conditionals upwards. Semantics-preserving for any expression.
pub fn hoist_ifs(e: &Expr) -> Expr {
    match e {
        Expr::Seq(items) => {
            // Runs of adjacent items under one (syntactically identical)
            // guard fuse into a single conditional.
            let mut runs: Vec<(Option<Cond>, Vec<Expr>)> = Vec::with_capacity(items.len());
            for item in items {
                let (guard, payload) = split_guard(hoist_ifs(item));
                match runs.last_mut() {
                    Some((g, run)) if guard.is_some() && *g == guard => run.push(payload),
                    _ => runs.push((guard, vec![payload])),
                }
            }
            Expr::seq(runs.into_iter().map(|(guard, run)| match guard {
                Some(cond) => Expr::If { cond, body: Box::new(Expr::seq(run)) },
                None => Expr::seq(run),
            }))
        }
        // `for $x … return {if χ then α}` is a conditional loop again (inverse
        // of rules 1+4): `where` sees $x, so any guard of the body moves.
        Expr::For { var, in_var, path, pred, body } => {
            let (guard, body) = split_guard(hoist_ifs(body));
            Expr::For {
                var: var.clone(),
                in_var: in_var.clone(),
                path: path.clone(),
                pred: pred.iter().cloned().chain(guard).reduce(Cond::and),
                body: Box::new(body),
            }
        }
        // {if χ then {if ψ then α}} → {if χ∧ψ then α} stays merged.
        Expr::If { cond, body } => {
            let (guard, body) = split_guard(hoist_ifs(body));
            Expr::If { cond: guard.into_iter().fold(cond.clone(), Cond::and), body: Box::new(body) }
        }
        _ => e.clone(),
    }
}

/// Split an (already hoisted) expression into the condition that guards all
/// of it and the rest: `{if χ then α}` is `(χ, α)`, and a conditional loop
/// is guarded by the `where` conjuncts that do not mention its variable —
/// `for $y … where χ ∧ ψ return α` with χ independent of $y is
/// `(χ, for $y … where ψ return α)`.
fn split_guard(e: Expr) -> (Option<Cond>, Expr) {
    match e {
        Expr::If { cond, body } => (Some(cond), *body),
        Expr::For { var, in_var, path, pred: Some(pred), body } => {
            let mut conjuncts = Vec::new();
            pred.for_each_conjunct(&mut |c| conjuncts.push(c.clone()));
            let (stay, guard): (Vec<Cond>, Vec<Cond>) =
                conjuncts.into_iter().partition(|c| c.mentions(&var));
            let pred = stay.into_iter().reduce(Cond::and);
            (guard.into_iter().reduce(Cond::and), Expr::For { var, in_var, path, pred, body })
        }
        other => (None, other),
    }
}

/// Count `if` nodes (used to assert the pass actually shrinks queries).
pub fn count_ifs(e: &Expr) -> usize {
    let mut n = 0;
    e.visit(&mut |x| {
        if matches!(x, Expr::If { .. }) {
            n += 1;
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_query::{normalize, parse_xquery};

    #[test]
    fn normalized_q1_hoists_back() {
        let q = parse_xquery(
            "<bib>{ for $b in $ROOT/bib/book \
               where $b/publisher = \"AW\" and $b/year > 1991 \
               return <book> {$b/year} {$b/title} </book> }</bib>",
        )
        .unwrap();
        let n = normalize(&q);
        let before = count_ifs(&n);
        assert!(before >= 4, "normalization spreads the condition: {n}");
        let h = hoist_ifs(&n);
        let after = count_ifs(&h);
        assert!(after < before, "hoisting must reduce ifs: {h}");
    }

    #[test]
    fn hoisting_preserves_semantics() {
        let doc = flux_query::eval::wrap_document(
            flux_xml::Node::parse_str(
                "<bib><book><title>T</title><publisher>AW</publisher><year>1994</year></book>\
                 <book><title>U</title><publisher>MK</publisher><year>1999</year></book></bib>",
            )
            .unwrap(),
        );
        let q = parse_xquery(
            "<bib>{ for $b in $ROOT/bib/book where $b/publisher = \"AW\" \
               return <book> {$b/year} {$b/title} </book> }</bib>",
        )
        .unwrap();
        let n = normalize(&q);
        let h = hoist_ifs(&n);
        assert_eq!(
            flux_query::eval_query(&n, &doc).unwrap(),
            flux_query::eval_query(&h, &doc).unwrap()
        );
    }

    #[test]
    fn loop_dependent_conditions_become_where_clauses() {
        let q = parse_xquery("{ for $x in $y/a return { if $x/b = 1 then {$x} } }").unwrap();
        let expected = parse_xquery("{ for $x in $y/a where $x/b = 1 return {$x} }").unwrap();
        assert_eq!(hoist_ifs(&q), expected);
    }

    #[test]
    fn conjuncts_climb_to_the_loop_they_depend_on() {
        // XMark Q11's shape after normalization: the join condition sits
        // under the `open_auction_id` loop although it mentions only $o
        // (and the outer $p); it belongs to $o's `where`.
        let q = parse_xquery(
            "{ for $o in $s/open_auction return { for $i in $o/id return \
               { if $p/income > (5000 * $o/initial) and $i/x = 1 then {$i} } } }",
        )
        .unwrap();
        let expected = parse_xquery(
            "{ for $o in $s/open_auction where $p/income > (5000 * $o/initial) return \
               { for $i in $o/id where $i/x = 1 return {$i} } }",
        )
        .unwrap();
        assert_eq!(hoist_ifs(&q), expected);
        // A rebinding of the same name keeps its conjuncts to itself.
        let shadow =
            parse_xquery("{ for $b in $r/a return { for $b in $b/c where $b/x = 1 return {$b} } }")
                .unwrap();
        assert_eq!(hoist_ifs(&shadow), shadow);
    }

    #[test]
    fn a_guard_spread_over_strings_and_a_loop_fuses() {
        // `where χ return <sold>{$b/price}</sold>` after normalization: the
        // middle item is a loop carrying χ, not an `if`.
        let q = parse_xquery(
            "{ for $b in $s/t return { if $b/k = $a/k then <sold> } \
               { for $price in $b/price return { if $b/k = $a/k then {$price} } } \
               { if $b/k = $a/k then </sold> } }",
        )
        .unwrap();
        let expected = parse_xquery(
            "{ for $b in $s/t where $b/k = $a/k return \
               <sold>{ for $price in $b/price return {$price} }</sold> }",
        )
        .unwrap();
        assert_eq!(hoist_ifs(&q), expected);
    }

    #[test]
    fn different_conditions_do_not_fuse() {
        let q = parse_xquery("{ if $a/x = 1 then <p> } { if $a/x = 2 then <q> }").unwrap();
        assert_eq!(hoist_ifs(&q), q);
    }
}
