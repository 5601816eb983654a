//! The condition language of XQuery− (paper, Section 3).
//!
//! An *atomic condition* is `$x/π RelOp s`, `exists $x/π`, or
//! `$x/π RelOp $y/π′`; conditions are Boolean combinations thereof. As noted
//! in Appendix A, the prototype additionally supports
//! `$x/π RelOp c * $y/π′` (XMark Q11) and `empty($x/π)` (Q20, sugar for
//! `not exists $x/π`) — both are included here.

use std::fmt;

use crate::path::Path;

/// A variable-rooted path `$var/π`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathRef {
    /// Variable name, without the `$` sigil.
    pub var: String,
    /// The fixed path below it.
    pub path: Path,
}

impl PathRef {
    /// Construct from a variable name and parsed path.
    pub fn new(var: impl Into<String>, path: Path) -> PathRef {
        PathRef { var: var.into(), path }
    }
}

impl fmt::Display for PathRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}/{}", self.var, self.path)
    }
}

/// Comparison operators: {=, <, ≤, >, ≥} (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl RelOp {
    /// Apply to an ordering-comparable pair.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            RelOp::Eq => ord == Equal,
            RelOp::Lt => ord == Less,
            RelOp::Le => ord != Greater,
            RelOp::Gt => ord == Greater,
            RelOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RelOp::Eq => "=",
            RelOp::Lt => "<",
            RelOp::Le => "<=",
            RelOp::Gt => ">",
            RelOp::Ge => ">=",
        })
    }
}

/// Right-hand side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum CmpRhs {
    /// A string or numeric literal.
    Const(String),
    /// Another path.
    Path(PathRef),
    /// `c * $y/π` (Appendix A, XMark Q11).
    Scaled {
        /// The constant factor.
        factor: f64,
        /// The scaled path.
        path: PathRef,
    },
}

impl fmt::Display for CmpRhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpRhs::Const(s) => {
                if s.parse::<f64>().is_ok() {
                    write!(f, "{s}")
                } else {
                    write!(f, "\"{s}\"")
                }
            }
            CmpRhs::Path(p) => write!(f, "{p}"),
            CmpRhs::Scaled { factor, path } => write!(f, "({factor} * {path})"),
        }
    }
}

/// An atomic condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// `$x/π RelOp rhs`, with XQuery existential semantics.
    Cmp {
        /// Left-hand path.
        left: PathRef,
        /// The operator.
        op: RelOp,
        /// Right-hand side.
        right: CmpRhs,
    },
    /// `exists $x/π`.
    Exists(PathRef),
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
            Atom::Exists(p) => write!(f, "exists {p}"),
        }
    }
}

/// A Boolean combination of atomic conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// The constant `true`.
    True,
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
    /// An atom.
    Atom(Atom),
}

impl Cond {
    /// `χ and ψ` (used by normalization rule 6).
    pub fn and(self, other: Cond) -> Cond {
        Cond::And(Box::new(self), Box::new(other))
    }

    /// Visit the top-level conjuncts (`χ` and `ψ` of `χ and ψ`, recursively;
    /// a condition that is not a conjunction is its own single conjunct),
    /// left to right.
    pub fn for_each_conjunct<'a>(&'a self, f: &mut impl FnMut(&'a Cond)) {
        match self {
            Cond::And(a, b) => {
                a.for_each_conjunct(f);
                b.for_each_conjunct(f);
            }
            other => f(other),
        }
    }

    /// Visit every path reference occurring in the condition.
    pub fn visit_paths<'a, F: FnMut(&'a PathRef)>(&'a self, f: &mut F) {
        match self {
            Cond::True => {}
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.visit_paths(f);
                b.visit_paths(f);
            }
            Cond::Not(c) => c.visit_paths(f),
            Cond::Atom(Atom::Exists(p)) => f(p),
            Cond::Atom(Atom::Cmp { left, right, .. }) => {
                f(left);
                match right {
                    CmpRhs::Path(p) | CmpRhs::Scaled { path: p, .. } => f(p),
                    CmpRhs::Const(_) => {}
                }
            }
        }
    }

    /// All variables mentioned in the condition.
    pub fn variables(&self) -> std::collections::BTreeSet<&str> {
        let mut out = std::collections::BTreeSet::new();
        self.visit_paths(&mut |p| {
            out.insert(p.var.as_str());
        });
        out
    }

    /// Does any atomic condition mention `var`? (Used by the "simple
    /// expression" side condition of Definition 3.3.)
    pub fn mentions(&self, var: &str) -> bool {
        self.variables().contains(var)
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::True => write!(f, "true"),
            Cond::And(a, b) => write!(f, "({a} and {b})"),
            Cond::Or(a, b) => write!(f, "({a} or {b})"),
            Cond::Not(c) => match &**c {
                Cond::Atom(Atom::Exists(p)) => write!(f, "empty({p})"),
                _ => write!(f, "not {c}"),
            },
            Cond::Atom(a) => write!(f, "{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pr(var: &str, path: &str) -> PathRef {
        PathRef::new(var, Path::parse(path).unwrap())
    }

    #[test]
    fn relop_tests() {
        use std::cmp::Ordering::*;
        assert!(RelOp::Eq.test(Equal) && !RelOp::Eq.test(Less));
        assert!(RelOp::Lt.test(Less) && !RelOp::Lt.test(Equal));
        assert!(RelOp::Le.test(Less) && RelOp::Le.test(Equal) && !RelOp::Le.test(Greater));
        assert!(RelOp::Gt.test(Greater) && !RelOp::Gt.test(Equal));
        assert!(RelOp::Ge.test(Greater) && RelOp::Ge.test(Equal) && !RelOp::Ge.test(Less));
    }

    #[test]
    fn variables_collected() {
        let c = Cond::Atom(Atom::Cmp {
            left: pr("article", "author"),
            op: RelOp::Eq,
            right: CmpRhs::Path(pr("book", "editor")),
        })
        .and(Cond::Atom(Atom::Exists(pr("b", "price"))));
        assert_eq!(c.variables().into_iter().collect::<Vec<_>>(), ["article", "b", "book"]);
        assert!(c.mentions("book"));
        assert!(!c.mentions("nope"));
    }

    #[test]
    fn conjuncts_are_visited_left_to_right() {
        let atom = |v: &str| Cond::Atom(Atom::Exists(pr(v, "x")));
        let c = atom("a").and(Cond::Or(Box::new(atom("b")), Box::new(atom("c")))).and(atom("d"));
        let mut seen = Vec::new();
        c.for_each_conjunct(&mut |k| seen.push(k.to_string()));
        assert_eq!(seen, ["exists $a/x", "(exists $b/x or exists $c/x)", "exists $d/x"]);
    }

    #[test]
    fn display_forms() {
        let c = Cond::Not(Box::new(Cond::Atom(Atom::Exists(pr("p", "person_income")))));
        assert_eq!(c.to_string(), "empty($p/person_income)");
        let c2 = Cond::Atom(Atom::Cmp {
            left: pr("b", "year"),
            op: RelOp::Gt,
            right: CmpRhs::Const("1991".into()),
        });
        assert_eq!(c2.to_string(), "$b/year > 1991");
        let c3 = Cond::Atom(Atom::Cmp {
            left: pr("p", "profile/profile_income"),
            op: RelOp::Gt,
            right: CmpRhs::Scaled { factor: 5000.0, path: pr("o", "initial") },
        });
        assert_eq!(c3.to_string(), "$p/profile/profile_income > (5000 * $o/initial)");
    }
}
