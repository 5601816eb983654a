//! `compare BASE NEW`: two result files (written with `--out`) judged by the
//! bounds `BENCHMARK.json` fixes, one row per metric × workload.
//!
//! A file may hold several runs of a workload (ten seeds, say). Each side's
//! value is the median over its runs and its spread the distance between
//! their quartiles as a share of that median — the rule the acceptance
//! check uses. Verdicts, for an end-to-end metric with bound `b`:
//!
//! * `unresolved` — either side's run-to-run spread exceeds `b`: the runs
//!   cannot tell a change of `b` from noise, so nothing is claimed;
//! * `regressed` — NEW is worse than BASE by more than `b` of BASE;
//! * `improved` — NEW is better than BASE by more than `b` of BASE;
//! * `within` — neither.
//!
//! Per-layer metrics carry no bound; their rows are verdict `layer` and only
//! show the ratio. Every ratio is printed with its base.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq)]
struct Rule {
    higher_is_better: bool,
    /// `None` for a per-layer metric.
    bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Within,
    Regressed,
    Improved,
    Unresolved,
    Layer,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Layer => "layer",
        }
    }
}

/// The share of `base` by which `new` is worse (negative: better).
fn worse_by(rule: Rule, base: f64, new: f64) -> f64 {
    let change = (new - base) / base.abs();
    if rule.higher_is_better {
        -change
    } else {
        change
    }
}

fn judge(rule: Rule, base: &[f64], new: &[f64]) -> Verdict {
    let Some(bound) = rule.bound else { return Verdict::Layer };
    if spread(base).max(spread(new)) > bound {
        return Verdict::Unresolved;
    }
    let worse = worse_by(rule, median(base), median(new));
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// The benchmark's definition: workload names, and metric rules in file
/// order (end-to-end first).
struct Definition {
    workloads: Vec<String>,
    metrics: Vec<(String, Rule)>,
}

fn load_definition(path: &Path) -> Result<Definition, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| doc.get(key).map(Json::as_arr).unwrap_or_default();
    let name = |v: &Json| {
        v.get("name").and_then(Json::as_str).map(str::to_string).ok_or("an entry has no name")
    };
    let workloads = list("workloads").iter().map(name).collect::<Result<_, _>>()?;
    let mut metrics = Vec::new();
    for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in list(key) {
            let higher_is_better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("{}: `better` is neither higher nor lower", name(m)?)),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            if bounded && bound.is_none() {
                return Err(format!("{}: end-to-end metric without a bound", name(m)?));
            }
            metrics.push((name(m)?, Rule { higher_is_better, bound }));
        }
    }
    Ok(Definition { workloads, metrics })
}

/// (workload, metric) → (unit, one value per run).
type Runs = BTreeMap<(String, String), (String, Vec<f64>)>;

fn load_runs(path: &Path) -> Result<Runs, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record =
            Json::parse(line).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        let workload = record.get("workload").and_then(Json::as_str).ok_or(format!(
            "{} line {}: no workload",
            path.display(),
            i + 1
        ))?;
        for (metric, m) in record.get("metrics").map(Json::fields).unwrap_or_default() {
            let (Some(value), Some(unit)) =
                (m.get("value").and_then(Json::as_f64), m.get("unit").and_then(Json::as_str))
            else {
                return Err(format!("{} line {}: {metric} has no value", path.display(), i + 1));
            };
            let entry = runs
                .entry((workload.to_string(), metric.clone()))
                .or_insert_with(|| (unit.to_string(), Vec::new()));
            entry.1.push(value);
        }
    }
    Ok(runs)
}

/// Returns whether every judged row is `within` or `improved`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => bounds = PathBuf::from(it.next().ok_or("--bounds needs a value")?),
            other => files.push(PathBuf::from(other)),
        }
    }
    let [base_path, new_path] = files.as_slice() else {
        return Err("compare takes exactly two result files".into());
    };
    let def = load_definition(&bounds)?;
    let (base, new) = (load_runs(base_path)?, load_runs(new_path)?);

    println!(
        "{:<8} {:<44} {:<10} {:>9}  {:>16} {:>16} {:<6} {:>5} {:>8} {:>8} {:>6}",
        "workload",
        "metric",
        "verdict",
        "new/base",
        "base",
        "new",
        "unit",
        "runs",
        "spread_b",
        "spread_n",
        "bound"
    );
    let mut ok = true;
    let mut rows = 0;
    for workload in &def.workloads {
        for (metric, rule) in &def.metrics {
            let key = (workload.clone(), metric.clone());
            let (Some((unit, b)), Some((_, n))) = (base.get(&key), new.get(&key)) else { continue };
            let verdict = judge(*rule, b, n);
            ok &= !matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            rows += 1;
            let (mb, mn) = (median(b), median(n));
            let ratio = if mb == 0.0 { "n/a".to_string() } else { format!("{:.4}", mn / mb) };
            let pct = |runs: &[f64]| match runs.len() {
                0..=1 => "n/a".to_string(),
                _ => format!("{:.2}%", spread(runs) * 100.0),
            };
            println!(
                "{workload:<8} {metric:<44} {:<10} {ratio:>9}  {mb:>16.6} {mn:>16.6} {unit:<6} {:>5} {:>8} {:>8} {:>6}",
                verdict.name(),
                format!("{}/{}", b.len(), n.len()),
                pct(b),
                pct(n),
                rule.bound.map_or("-".to_string(), |x| format!("{:.0}%", x * 100.0)),
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no metric of any workload".into());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const UP: Rule = Rule { higher_is_better: true, bound: Some(0.05) };
    const DOWN: Rule = Rule { higher_is_better: false, bound: Some(0.05) };

    #[test]
    fn a_change_inside_the_bound_is_within() {
        assert_eq!(judge(UP, &[100.0], &[96.0]), Verdict::Within);
        assert_eq!(judge(UP, &[100.0], &[104.0]), Verdict::Within);
        assert_eq!(judge(DOWN, &[100.0], &[104.0]), Verdict::Within);
    }

    #[test]
    fn direction_follows_better() {
        assert_eq!(judge(UP, &[100.0], &[94.0]), Verdict::Regressed);
        assert_eq!(judge(UP, &[100.0], &[106.0]), Verdict::Improved);
        assert_eq!(judge(DOWN, &[100.0], &[106.0]), Verdict::Regressed);
        assert_eq!(judge(DOWN, &[100.0], &[94.0]), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_whatever_the_medians() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(judge(UP, &noisy, &[100.0]), Verdict::Unresolved);
        assert_eq!(judge(UP, &[50.0], &noisy), Verdict::Unresolved);
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(judge(UP, &steady, &steady), Verdict::Within);
    }

    #[test]
    fn per_layer_metrics_are_not_judged() {
        let rule = Rule { higher_is_better: false, bound: None };
        assert_eq!(judge(rule, &[1.0], &[100.0]), Verdict::Layer);
    }
}
