//! Rendering measured cells in the layout of the paper's Figure 4.

use crate::harness::EngineRun;

/// One row of the results table: a query at one document size.
#[derive(Debug, Clone)]
pub struct Row {
    /// Query name ("Q1", …).
    pub query: &'static str,
    /// Size label ("5M", …).
    pub size: String,
    /// FluX cell.
    pub flux: Option<EngineRun>,
    /// Galax-sim cell.
    pub galax: Option<EngineRun>,
    /// AnonX-sim cell.
    pub anonx: Option<EngineRun>,
}

/// Human-readable byte count in the paper's style (0, 4.66k, 1.54M, 37M).
pub fn fmt_mem(bytes: u64) -> String {
    if bytes == 0 {
        "0".to_string()
    } else if bytes < 10_000 {
        format!("{:.2}k", bytes as f64 / 1000.0)
    } else if bytes < 1_000_000 {
        format!("{:.0}k", bytes as f64 / 1000.0)
    } else if bytes < 10_000_000 {
        format!("{:.2}M", bytes as f64 / 1_000_000.0)
    } else {
        format!("{:.0}M", bytes as f64 / 1_000_000.0)
    }
}

/// `time/memory` cell text.
fn cell(run: &Option<EngineRun>, with_memory: bool) -> String {
    match run {
        None => "n/a".to_string(),
        Some(r) => match (&r.aborted, with_memory) {
            (Some(reason), _) => format!("- / {reason}"),
            (None, true) => format!(
                "{:.1}s/{}",
                r.seconds,
                r.memory_bytes.map(fmt_mem).unwrap_or_else(|| "?".into())
            ),
            (None, false) => format!("{:.1}s", r.seconds),
        },
    }
}

/// Render the whole table (Figure 4's layout: engines as columns, one line
/// per query × size).
pub fn format_figure4(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<5} {:>6}  {:<18} {:<18} {:<12}\n",
        "", "", "FluX", "galax-sim", "anonx-sim"
    ));
    let mut last_query = "";
    for r in rows {
        let q = if r.query == last_query { "" } else { r.query };
        last_query = r.query;
        out.push_str(&format!(
            "{:<5} {:>6}  {:<18} {:<18} {:<12}\n",
            q,
            r.size,
            cell(&r.flux, true),
            cell(&r.galax, true),
            cell(&r.anonx, false),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sec: f64, mem: Option<u64>, aborted: Option<&str>) -> EngineRun {
        EngineRun {
            seconds: sec,
            memory_bytes: mem,
            output_bytes: 0,
            aborted: aborted.map(str::to_string),
        }
    }

    #[test]
    fn memory_formatting_matches_paper_style() {
        assert_eq!(fmt_mem(0), "0");
        assert_eq!(fmt_mem(4660), "4.66k");
        assert_eq!(fmt_mem(374_000), "374k");
        assert_eq!(fmt_mem(1_540_000), "1.54M");
        assert_eq!(fmt_mem(37_000_000), "37M");
    }

    #[test]
    fn table_renders_all_cells() {
        let rows = vec![
            Row {
                query: "Q1",
                size: "5M".into(),
                flux: Some(run(2.1, Some(0), None)),
                galax: Some(run(13.4, Some(37_000_000), None)),
                anonx: Some(run(3.4, None, None)),
            },
            Row {
                query: "Q1",
                size: "50M".into(),
                flux: Some(run(7.8, Some(0), None)),
                galax: Some(run(99.0, Some(500_000_000), Some(">500M cap"))),
                anonx: None,
            },
        ];
        let t = format_figure4(&rows);
        assert!(t.contains("2.1s/0"), "{t}");
        assert!(t.contains("13.4s/37M"), "{t}");
        assert!(t.contains("3.4s"), "{t}");
        assert!(t.contains("- / >500M cap"), "{t}");
        assert!(t.contains("n/a"), "{t}");
    }
}
