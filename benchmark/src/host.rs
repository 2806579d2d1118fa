//! The `host` block every output carries: enough provenance to
//! reproduce a number (cores, compiler, commit, seed, scale, run index).

use std::process::Command;

use crate::json::{obj, Json};

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

/// The machine-and-commit half of the block; `seed`, `scale` and
/// `run_index` are added per output by [`host_block`].
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores available.
    pub nproc: u64,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the tree the benchmark runs in, or
    /// `unknown` (a checkout exported without `.git`).
    pub git_sha: String,
}

impl Host {
    /// Probe the machine once.
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            rustc: first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_sha: first_line_of("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The full `host` block of one output.
pub fn host_block(host: &Host, seed: u64, scale: f64, run_index: Option<u64>) -> Json {
    obj([
        ("nproc", Json::from(host.nproc)),
        ("rustc", Json::from(host.rustc.as_str())),
        ("git_sha", Json::from(host.git_sha.as_str())),
        ("seed", Json::from(seed)),
        ("scale", Json::from(scale)),
        ("run_index", run_index.map_or(Json::Null, Json::from)),
    ])
}
