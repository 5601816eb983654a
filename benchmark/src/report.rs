//! Printing results: the per-run table for people, the one-line JSON object
//! the driver reads, and the JSON-lines result files `compare` reads.

use std::io::Write;
use std::path::Path;

use crate::e2e::{Metric, RunResult};
use crate::fixture::Workload;
use crate::json::Json;

pub struct Record {
    pub workload: Workload,
    pub traced: bool,
    pub result: RunResult,
}

fn kind(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

pub fn print_run(workload: Workload, traced: bool, result: &RunResult) {
    println!(
        "== {} ({}): {} passes attempted, {} failed, failed_fraction {}",
        workload.name(),
        kind(traced),
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    for m in &result.metrics {
        let spread = match m.summary {
            Some(s) if s.n > 1 => {
                format!("   (n={}, q1 {:.6}, median {:.6}, q3 {:.6})", s.n, s.q1, s.median, s.q3)
            }
            _ => String::new(),
        };
        println!("  {:<46} {:>18.6} {:<6}{spread}", m.name, m.value, m.unit);
    }
    for note in &result.notes {
        println!("  note: {note}");
    }
    for error in &result.errors {
        println!("  FAILED: {error}");
    }
}

fn metric_json(m: &Metric, with_summary: bool) -> Json {
    let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
    if let (true, Some(s)) = (with_summary, m.summary) {
        fields.push(("q1", Json::Num(s.q1)));
        fields.push(("q3", Json::Num(s.q3)));
        fields.push(("n", Json::Num(s.n as f64)));
    }
    Json::obj(fields)
}

/// `{"correct", "attempted", "failed", "metrics"}` — exactly these keys.
pub fn final_line(records: &[Record]) -> Json {
    let single = records.len() == 1;
    let mut metrics = Vec::new();
    for r in records {
        for m in &r.result.metrics {
            let name = if single {
                m.name.to_string()
            } else {
                format!("{}.{}", r.workload.name(), m.name)
            };
            metrics.push((name, metric_json(m, false)));
        }
    }
    let attempted: u64 = records.iter().map(|r| r.result.attempted).sum();
    let failed: u64 = records.iter().map(|r| r.result.failed).sum();
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Append one line per record to `path`: the fingerprint, the window length
/// and every metric with its quartiles and sample count.
pub fn append_records(
    path: &Path,
    fingerprint: &Json,
    seconds: f64,
    records: &[Record],
) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    for r in records {
        let metrics = r.result.metrics.iter().map(|m| (m.name, metric_json(m, true)));
        let line = Json::obj([
            ("workload", Json::str(r.workload.name())),
            ("traced", Json::Bool(r.traced)),
            ("seconds", Json::Num(seconds)),
            ("attempted", Json::Num(r.result.attempted as f64)),
            ("failed", Json::Num(r.result.failed as f64)),
            ("metrics", Json::obj(metrics)),
            ("fingerprint", fingerprint.clone()),
        ]);
        writeln!(file, "{}", line.render())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}
