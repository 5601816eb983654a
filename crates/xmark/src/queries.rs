//! The five adapted XMark queries, verbatim from Appendix A.
//!
//! The only notational adjustment is wrapping Q20's bare `return $p` in the
//! braces our XQuery− parser requires for variable output (`return {$p}`);
//! everything else — paths, conditions, element constructors — is as
//! printed in the paper.

/// A named benchmark query.
#[derive(Debug, Clone, Copy)]
pub struct PaperQuery {
    /// Query name as used in Figure 4 ("Q1", …).
    pub name: &'static str,
    /// The XQuery− source text.
    pub source: &'static str,
    /// Does this query evaluate a join? The paper (and the DOM baseline) run
    /// it as naive nested loops over the buffered sides; the FluX engine
    /// indexes the loop-invariant side (`flux_query::join`).
    pub is_join: bool,
}

/// XMark Q1: a single person looked up by id; streams with zero buffering.
pub const Q1: &str = "<query1>\
{ for $b in /site/people/person \
  where $b/person_id = 'person0' \
  return \
  <result> {$b/name} </result> }\
</query1>";

/// XMark Q8: items bought per person — a person ⋈ closed_auction equality
/// join (the engine's hash-probe case).
pub const Q8: &str = "<query8>\
{ for $p in /site/people/person return \
  <item>\
  <person> {$p/name} </person>\
  <items_bought>\
  { for $t in /site/closed_auctions/closed_auction \
    where $t/buyer/buyer_person = $p/person_id \
    return <result> {$t} </result> }\
  </items_bought>\
  </item> }\
</query8>";

/// XMark Q11: auctions a person could afford — person ⋈ open_auction with a
/// scaled comparison (`income > 5000 · initial`; the engine's key-column-scan
/// case).
pub const Q11: &str = "<query11>\
{ for $p in /site/people/person return \
  <items>\
  {$p/name}\
  { for $o in /site/open_auctions/open_auction \
    where $p/profile/profile_income > (5000 * $o/initial) \
    return {$o/open_auction_id} }\
  </items> }\
</query11>";

/// XMark Q13: names and descriptions of Australian items; streams.
pub const Q13: &str = "<query13>\
{ for $i in /site/regions/australia/item return \
  <item>\
  <name> {$i/name} </name>\
  <desc> {$i/description} </desc>\
  </item> }\
</query13>";

/// XMark Q20 (the paper's variant): persons whose income is not available.
pub const Q20: &str = "<query20>\
{ for $p in /site/people/person \
  where empty($p/person_income) \
  return {$p} }\
</query20>";

/// All five benchmark queries in Figure 4 order.
pub const PAPER_QUERIES: &[PaperQuery] = &[
    PaperQuery { name: "Q1", source: Q1, is_join: false },
    PaperQuery { name: "Q8", source: Q8, is_join: true },
    PaperQuery { name: "Q11", source: Q11, is_join: true },
    PaperQuery { name: "Q13", source: Q13, is_join: false },
    PaperQuery { name: "Q20", source: Q20, is_join: false },
];

#[cfg(test)]
mod tests {
    use super::*;
    use flux_query::parse_xquery;

    #[test]
    fn all_queries_parse() {
        for q in PAPER_QUERIES {
            let e = parse_xquery(q.source).unwrap_or_else(|err| panic!("{}: {err}", q.name));
            assert!(
                flux_query::free_vars(&e).iter().all(|v| v == "ROOT"),
                "{} must be a closed query",
                q.name
            );
        }
    }

    #[test]
    fn join_flags_match_structure() {
        for q in PAPER_QUERIES {
            let has_join = q.source.contains("$t/buyer") || q.source.contains("5000");
            assert_eq!(q.is_join, has_join, "{}", q.name);
        }
    }
}
