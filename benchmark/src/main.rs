//! The repo's benchmark — see `benchmark/README.md`.
//!
//! ```text
//! flux-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! flux-benchmark compare BASE.jsonl NEW.jsonl [--bounds BENCHMARK.json]
//! ```
//!
//! Everything under test is reached through public API only (`Engine`,
//! `PreparedQuery`, `Session`, `SubscriptionSet`, `RuntimeBuilder`,
//! `flux_serve::{Server, protocol}`, `flux::xml::{scan, Reader, EventTape,
//! writer}`, `Session::snapshot`, `DomEngine`), so each layer is measured
//! from outside.

mod alloc;
mod compare;
mod e2e;
mod fingerprint;
mod fixture;
mod json;
mod layers;
mod loadgen;
mod passes;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use fixture::{Sizes, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: flux-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
       flux-benchmark compare BASE.jsonl NEW.jsonl [--bounds BENCHMARK.json]

  --workload NAME  one of select, copy, join, fanout, serve (default: all five)
  --seed N         seed of every generated input (default 42)
  --seconds S      length of the measured window (default 15)
  --trace 0|1      1: the traced run (per-layer metrics, span file); 0 (default): the
                   untraced run (end-to-end metrics)
  --smoke          self-test: 2 s windows, 1 MiB documents, traced and untraced runs of
                   all selected workloads; the numbers it prints are not citable
  --out FILE       append one JSON record per workload run to FILE (input of `compare`)";

pub struct Cli {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 42,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
                cli.workloads.push(w);
            }
            "--seed" => {
                cli.seed = value("--seed")?.parse().map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
                seconds_given = true;
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = Workload::ALL.to_vec();
    }
    if cli.smoke && !seconds_given {
        cli.seconds = 2.0;
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<bool, String> {
    fingerprint::refuse_kill_switches()?;
    let stamp = fingerprint::fingerprint(cli.seed);
    println!("# flux-benchmark  {}", stamp.render());
    if cli.smoke {
        println!("# --smoke: short windows on small documents; these numbers are not citable");
    }
    let opts = e2e::Options {
        seed: cli.seed,
        seconds: cli.seconds,
        sizes: if cli.smoke { Sizes::SMOKE } else { Sizes::FULL },
        setup_repeats: if cli.smoke { (1, 0.0) } else { (3, 2.0) },
    };
    // --smoke exercises both kinds of run; otherwise --trace picks one.
    let kinds: &[bool] = match (cli.smoke, cli.trace) {
        (true, _) => &[false, true],
        (false, traced) => &[traced],
    };
    let mut records = Vec::new();
    for &workload in &cli.workloads {
        for &traced in kinds {
            let result =
                if traced { layers::run(workload, &opts) } else { e2e::run(workload, &opts) };
            report::print_run(workload, traced, &result);
            records.push(report::Record { workload, traced, result });
        }
    }
    if let Some(path) = &cli.out {
        report::append_records(path, &stamp, cli.seconds, &records)?;
    }
    // The last line of standard output: one JSON object, the contract's
    // four keys. One workload and one kind of run is the form the driver
    // asks for; with more, metric names are prefixed to stay unique.
    println!("{}", report::final_line(&records).render());
    Ok(records.iter().all(|r| r.result.failed == 0))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("flux-benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("flux-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("flux-benchmark: at least one pass failed its correctness check");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("flux-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
