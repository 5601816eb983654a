//! Shared helpers for the integration tests: deterministic random documents
//! (valid w.r.t. a DTD) and random XQuery− queries over its vocabulary.
//!
//! Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flux::dtd::{ContentModel, Dtd, Regex};
use flux::query::{Cond, Expr, Path};
use flux::xml::Node;

/// A DTD with a bit of everything: stars, ordered groups, alternation,
/// optional children, nesting.
pub const TEST_DTD: &str = "<!ELEMENT lib (shelf*,meta?)>\
<!ELEMENT shelf (label,(book|journal)*,loc)>\
<!ELEMENT book (title,author*,price?)>\
<!ELEMENT journal (title,issue)>\
<!ELEMENT meta (owner,year)>\
<!ELEMENT label (#PCDATA)><!ELEMENT loc (#PCDATA)><!ELEMENT title (#PCDATA)>\
<!ELEMENT author (#PCDATA)><!ELEMENT price (#PCDATA)><!ELEMENT issue (#PCDATA)>\
<!ELEMENT owner (#PCDATA)><!ELEMENT year (#PCDATA)>";

/// An order-free variant of [`TEST_DTD`] (same vocabulary, weaker schema).
pub const TEST_DTD_WEAK: &str = "<!ELEMENT lib (shelf|meta)*>\
<!ELEMENT shelf (label|book|journal|loc)*>\
<!ELEMENT book (title|author|price)*>\
<!ELEMENT journal (title|issue)*>\
<!ELEMENT meta (owner|year)*>\
<!ELEMENT label (#PCDATA)><!ELEMENT loc (#PCDATA)><!ELEMENT title (#PCDATA)>\
<!ELEMENT author (#PCDATA)><!ELEMENT price (#PCDATA)><!ELEMENT issue (#PCDATA)>\
<!ELEMENT owner (#PCDATA)><!ELEMENT year (#PCDATA)>";

/// Generate a random document valid for the DTD, rooted at its root
/// element.
pub fn random_doc(dtd: &Dtd, seed: u64) -> Node {
    let mut rng = StdRng::seed_from_u64(seed);
    gen_element(dtd, dtd.root(), &mut rng, 0)
}

fn gen_element(dtd: &Dtd, elem: &str, rng: &mut StdRng, depth: usize) -> Node {
    let mut node = Node::new(elem);
    let Some(prod) = dtd.production(elem) else {
        return node;
    };
    match &prod.model {
        ContentModel::PcData => {
            node.push_text(random_text(rng));
        }
        ContentModel::Empty => {}
        ContentModel::Mixed(names) => {
            for _ in 0..rng.random_range(0..3) {
                if rng.random_bool(0.5) {
                    node.push_text(random_text(rng));
                } else if !names.is_empty() && depth < 8 {
                    let pick = &names[rng.random_range(0..names.len())];
                    node.children.push(flux::xml::Child::Elem(gen_element(
                        dtd,
                        pick,
                        rng,
                        depth + 1,
                    )));
                }
            }
        }
        ContentModel::Children(re) => {
            let mut labels = Vec::new();
            gen_word(re, rng, depth, &mut labels);
            for l in labels {
                node.children.push(flux::xml::Child::Elem(gen_element(dtd, &l, rng, depth + 1)));
            }
        }
        ContentModel::Any => {}
    }
    node
}

/// Pick a random word of L(re).
fn gen_word(re: &Regex, rng: &mut StdRng, depth: usize, out: &mut Vec<String>) {
    match re {
        Regex::Empty => {}
        Regex::Symbol(s) => out.push(s.clone()),
        Regex::Seq(rs) => rs.iter().for_each(|r| gen_word(r, rng, depth, out)),
        Regex::Alt(rs) => gen_word(&rs[rng.random_range(0..rs.len())], rng, depth, out),
        Regex::Star(r) => {
            let n = if depth > 6 { 0 } else { rng.random_range(0..3) };
            for _ in 0..n {
                gen_word(r, rng, depth, out);
            }
        }
        Regex::Plus(r) => {
            let n = if depth > 6 { 1 } else { rng.random_range(1..3) };
            for _ in 0..n {
                gen_word(r, rng, depth, out);
            }
        }
        Regex::Opt(r) => {
            if rng.random_bool(0.6) {
                gen_word(r, rng, depth, out);
            }
        }
    }
}

fn random_text(rng: &mut StdRng) -> String {
    const VALS: &[&str] = &["alpha", "beta", "7", "42", "1999", "x y z", "knuth", ""];
    VALS[rng.random_range(0..VALS.len())].to_string()
}

/// Generate a random closed XQuery− query over the DTD's vocabulary.
/// All variables are properly scoped; paths mostly follow the schema with
/// an occasional dead step (which must simply select nothing).
pub fn random_query(dtd: &Dtd, seed: u64) -> Expr {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut counter = 0usize;
    let scope = vec![("ROOT".to_string(), "#document".to_string())];
    let e = gen_seq(dtd, &mut rng, &scope, &mut counter, 0);
    if matches!(e, Expr::Empty) {
        Expr::str("<empty/>")
    } else {
        e
    }
}

fn elem_children(dtd: &Dtd, elem: &str) -> Vec<String> {
    if elem == "#document" {
        vec![dtd.root().to_string()]
    } else {
        dtd.production(elem).map(|p| p.symbols().to_vec()).unwrap_or_default()
    }
}

fn gen_seq(
    dtd: &Dtd,
    rng: &mut StdRng,
    scope: &[(String, String)],
    counter: &mut usize,
    depth: usize,
) -> Expr {
    let n = rng.random_range(1..=3);
    let items: Vec<Expr> = (0..n).map(|_| gen_item(dtd, rng, scope, counter, depth)).collect();
    Expr::seq(items)
}

fn gen_item(
    dtd: &Dtd,
    rng: &mut StdRng,
    scope: &[(String, String)],
    counter: &mut usize,
    depth: usize,
) -> Expr {
    let choice = rng.random_range(0..10);
    match choice {
        // Fixed strings.
        0 | 1 => Expr::str(format!("<s{}/>", rng.random_range(0..5))),
        // Output a path below some in-scope variable.
        2 | 3 => {
            let (var, path) = random_path(dtd, rng, scope);
            Expr::OutputPath { var, path }
        }
        // A conditional.
        4 => {
            let cond = random_cond(dtd, rng, scope);
            let body = gen_item(dtd, rng, scope, counter, depth + 1);
            Expr::If { cond, body: Box::new(body) }
        }
        // A for-loop (possibly with a where clause).
        _ if depth < 3 => {
            let (in_var, path) = random_path(dtd, rng, scope);
            *counter += 1;
            let var = format!("v{counter}");
            // The element the new variable ranges over (last path step).
            let elem = path.steps().last().cloned().unwrap_or_default();
            let mut inner = scope.to_vec();
            inner.push((var.clone(), elem));
            let pred = rng.random_bool(0.3).then(|| random_cond(dtd, rng, &inner));
            let body = gen_seq(dtd, rng, &inner, counter, depth + 1);
            let body =
                if matches!(body, Expr::Empty) { Expr::output_var(var.clone()) } else { body };
            Expr::For { var, in_var, path, pred, body: Box::new(body) }
        }
        // At maximum depth: output some in-scope variable's subtree.
        _ => {
            let (var, _) = scope[rng.random_range(0..scope.len())].clone();
            Expr::OutputVar { var }
        }
    }
}

fn random_path(dtd: &Dtd, rng: &mut StdRng, scope: &[(String, String)]) -> (String, Path) {
    let (var, elem) = scope[rng.random_range(0..scope.len())].clone();
    let mut steps = Vec::new();
    let mut cur = elem;
    let len = rng.random_range(1..=2);
    for _ in 0..len {
        let kids = elem_children(dtd, &cur);
        if kids.is_empty() || rng.random_bool(0.1) {
            steps.push("zzz".to_string()); // dead step: selects nothing
            break;
        }
        let k = kids[rng.random_range(0..kids.len())].clone();
        steps.push(k.clone());
        cur = k;
    }
    (var, Path::from_steps(steps))
}

fn random_cond(dtd: &Dtd, rng: &mut StdRng, scope: &[(String, String)]) -> Cond {
    use flux::query::{Atom, CmpRhs, PathRef, RelOp};
    let atom = |rng: &mut StdRng| {
        let (var, path) = random_path(dtd, rng, scope);
        let left = PathRef { var, path };
        match rng.random_range(0..4) {
            0 => Cond::Atom(Atom::Exists(left)),
            1 => {
                let (v2, p2) = random_path(dtd, rng, scope);
                Cond::Atom(Atom::Cmp {
                    left,
                    op: RelOp::Eq,
                    right: CmpRhs::Path(PathRef { var: v2, path: p2 }),
                })
            }
            2 => Cond::Atom(Atom::Cmp {
                left,
                op: [RelOp::Lt, RelOp::Gt, RelOp::Ge, RelOp::Le][rng.random_range(0..4usize)],
                right: CmpRhs::Const(rng.random_range(0..2000u32).to_string()),
            }),
            _ => Cond::Atom(Atom::Cmp {
                left,
                op: RelOp::Eq,
                right: CmpRhs::Const(
                    ["alpha", "7", "knuth"][rng.random_range(0..3usize)].to_string(),
                ),
            }),
        }
    };
    let a = atom(rng);
    match rng.random_range(0..4) {
        0 => a,
        1 => Cond::Not(Box::new(a)),
        2 => a.and(atom(rng)),
        _ => Cond::Or(Box::new(a), Box::new(atom(rng))),
    }
}

/// Canonicalize an expression for comparisons across print/parse
/// round-trips: adjacent fixed strings in a sequence concatenate (they are
/// indistinguishable in both the concrete syntax and the output).
pub fn canon(e: &Expr) -> Expr {
    match e {
        Expr::Seq(items) => {
            let mut out: Vec<Expr> = Vec::with_capacity(items.len());
            for it in items.iter().map(canon) {
                match (out.last_mut(), it) {
                    (Some(Expr::Str(prev)), Expr::Str(s)) => prev.push_str(&s),
                    (_, other) => out.push(other),
                }
            }
            Expr::seq(out)
        }
        Expr::For { var, in_var, path, pred, body } => Expr::For {
            var: var.clone(),
            in_var: in_var.clone(),
            path: path.clone(),
            pred: pred.clone(),
            body: Box::new(canon(body)),
        },
        Expr::If { cond, body } => Expr::If { cond: cond.clone(), body: Box::new(canon(body)) },
        other => other.clone(),
    }
}

/// [`canon`] lifted to FluX expressions.
pub fn canon_flux(q: &flux::core::FluxExpr) -> flux::core::FluxExpr {
    use flux::core::{FluxExpr, Handler};
    match q {
        FluxExpr::Simple(e) => FluxExpr::Simple(canon(e)),
        FluxExpr::PS { pre, var, handlers, post } => FluxExpr::PS {
            pre: pre.clone(),
            var: var.clone(),
            handlers: handlers
                .iter()
                .map(|h| match h {
                    Handler::OnFirst { past, expr } => {
                        Handler::OnFirst { past: past.clone(), expr: canon(expr) }
                    }
                    Handler::On { label, var, body } => Handler::On {
                        label: label.clone(),
                        var: var.clone(),
                        body: Box::new(canon_flux(body)),
                    },
                })
                .collect(),
            post: post.clone(),
        },
    }
}

// ---- chunk-seam fixtures (the in-place feed's window switch) ----

/// Schema for [`seam_doc`]: `e_k` is the converted `k` attribute, `dead`
/// subtrees are skipped by both [`SEAM_QUERIES`].
pub const SEAM_DTD: &str = "<!ELEMENT r (e|dead)*><!ELEMENT e (e_k?,t,u)>\
<!ELEMENT e_k (#PCDATA)><!ELEMENT t (#PCDATA)><!ELEMENT u (#PCDATA)>\
<!ELEMENT dead (x)*><!ELEMENT x (#PCDATA)>";

/// Two streaming queries over [`SEAM_DTD`] with different skip patterns.
pub const SEAM_QUERIES: [&str; 2] = [
    "<out>{ for $e in $ROOT/r/e return <hit> {$e/t} </hit> }</out>",
    "<us>{ for $e in $ROOT/r/e return {$e/u} }</us>",
];

/// A document whose every kind of construct is `long` bytes or more, so a
/// chunk seam inside one leaves a carry the next chunk's first stitch
/// prefix does not cover: a comment and a CDATA section containing `>`, a
/// long attribute value, text with an entity reference and multi-byte
/// characters, a text run with no `<` for three times `long`, and short
/// tags (so chunks also end exactly on `>`).
pub fn seam_doc(long: usize) -> String {
    let l = "v".repeat(long);
    format!(
        "<r><!-- c {l} > {l} --><e k=\"{l}\"><t>{l} &amp; é€ {l}</t>\
         <u><![CDATA[{l} ]> <x> {l}]]></u></e>\
         <dead><x>{l}{l}{l}</x><x>y</x><x/></dead>\
         <e><t>z</t><u>w</u></e><e k='q'><t>é</t><u/></e></r>"
    )
}

/// Malformed variants of [`seam_doc`], the defect far behind a long
/// construct: a `>` inside a 10 KB attribute value (the reader cuts tags at
/// the first `>`), a mismatched end tag, an unknown entity.
pub fn seam_error_docs(long: usize) -> Vec<String> {
    let l = "v".repeat(long);
    vec![
        format!("<r><e k=\"{}\"><t>z</t><u>w</u></e></r>", "a>b ".repeat(2560)),
        format!("<r><e><t>{l}{l}</u><u>w</u></e></r>"),
        format!("<r><e><t>z</t><u>{l}&bogus;{l}</u></e></r>"),
    ]
}

/// One cut at `at`, or a second one `gap` bytes later: the construct under
/// the first cut then straddles two or three chunks, the middle chunk
/// shorter (1) or longer (70, 300) than the first stitch prefix.
pub fn seam_cuts(len: usize, at: usize) -> Vec<Vec<usize>> {
    let mut cuts = vec![vec![at]];
    cuts.extend(
        [1, 70, 300].into_iter().filter(|gap| at + gap <= len).map(|gap| vec![at, at + gap]),
    );
    cuts
}

/// `doc` cut at the (ascending) offsets `cuts`: `cuts.len() + 1` chunks.
pub fn pieces<'a>(doc: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let bounds: Vec<usize> =
        std::iter::once(0).chain(cuts.iter().copied()).chain([doc.len()]).collect();
    bounds.windows(2).map(|w| &doc[w[0]..w[1]]).collect()
}

/// One forced scanner choice per backend this host can actually run.
pub fn scanner_choices() -> Vec<flux::xml::ScannerChoice> {
    use flux::xml::{Scanner, ScannerChoice};
    let mut seen = Vec::new();
    [ScannerChoice::ForceSwar, ScannerChoice::ForceSse2, ScannerChoice::ForceAvx2]
        .into_iter()
        .filter(|&c| {
            let b = Scanner::with_choice(c).backend();
            !seen.contains(&b) && {
                seen.push(b);
                true
            }
        })
        .collect()
}
