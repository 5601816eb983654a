//! Where and how a result was measured: stamped into every result record so
//! two files are only ever compared knowingly across machines or builds.

use std::path::Path;
use std::process::Command;

use flux::xml::Scanner;

use crate::json::Json;

/// Environment variables that reroute the engine onto its fallback paths.
/// A run under either would measure a different program.
const KILL_SWITCHES: [&str; 2] = ["FLUX_FORCE_SWAR", "FLUX_FORCE_PULL"];

/// Refuse to start under a kill switch.
pub fn refuse_kill_switches() -> Result<(), String> {
    for name in KILL_SWITCHES {
        if std::env::var_os(name).is_some() {
            return Err(format!(
                "{name} is set: it forces the engine onto a fallback path, so nothing measured \
                 under it describes the default build. Unset it and run again."
            ));
        }
    }
    Ok(())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn fingerprint(seed: u64) -> Json {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Only ask git when the checkout itself is a repository; a bare copy of
    // the sources must not pick up some enclosing repository's commit.
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"], &root))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("cpu_model", Json::str(cpu_model())),
        ("nproc", Json::Num(nproc() as f64)),
        ("scan_backend", Json::str(Scanner::detect().backend().name())),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"], &root).unwrap_or_else(|| "unknown".into())),
        ),
        ("git_commit", Json::str(commit)),
        ("seed", Json::Num(seed as f64)),
    ])
}
