//! The collabsim benchmark.
//!
//! ```text
//! collabbench --workload <paper-sweep|population-5e4|warm-grid> --seed <n>
//!             --seconds <s> --trace <0|1> [--out-dir <dir>]
//! collabbench worker --spec <file> --out <file> [--warm-start <snapshot>]
//! ```
//!
//! A run generates its specs from the seed, repeats the workload's unit
//! as often as fits `--seconds` at the unit's nominal duration, checks
//! every output, and prints one JSON line last: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of an extra traced pass with `--trace 1`. The
//! `worker` form is the grid worker the `warm-grid` coordinator spawns.

mod common;
mod layers;
mod paper_sweep;
mod population;
mod specs;
mod trace;
mod warm_grid;

use std::path::{Path, PathBuf};

/// Parsed benchmark arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where trace files are written.
    pub out_dir: PathBuf,
    /// This run's own scratch directory (stores, grid files), removed at
    /// exit.
    pub work_dir: PathBuf,
}

impl Args {
    /// Units a run measures: as many as take `--seconds` at the unit's
    /// nominal duration on a 2-vCPU host, at least one. The count depends
    /// only on the arguments, so every run of a workload — on any commit —
    /// medians over the same number of units.
    pub fn units(&self, nominal_unit_s: f64) -> usize {
        ((self.seconds / nominal_unit_s).round() as usize).max(1)
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let required = |name: &str| flag(args, name).ok_or(format!("missing {name}"));
    let workload = required("--workload")?.to_string();
    let seed = required("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let out_dir = PathBuf::from(flag(args, "--out-dir").unwrap_or("collabbench/out"));
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
        work_dir,
    })
}

fn worker(args: &[String]) -> i32 {
    let (Some(spec), Some(out)) = (flag(args, "--spec"), flag(args, "--out")) else {
        eprintln!("worker: --spec and --out are required");
        return 2;
    };
    let warm = flag(args, "--warm-start").map(Path::new);
    match collabsim_cli::run_worker(Path::new(spec), Path::new(out), warm) {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("worker: {error}");
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        std::process::exit(worker(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("collabbench: {problem}");
            std::process::exit(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "collabbench: cannot create {}: {error}",
            args.work_dir.display()
        );
        std::process::exit(1);
    }
    let outcome = match args.workload.as_str() {
        "paper-sweep" => paper_sweep::run(&args),
        "population-5e4" => population::run(&args),
        "warm-grid" => warm_grid::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    match outcome {
        Ok(outcome) => {
            for problem in &outcome.problems {
                println!("check failed: {problem}");
            }
            println!("{}", outcome.to_json());
        }
        Err(problem) => {
            eprintln!("collabbench: {problem}");
            std::process::exit(1);
        }
    }
}
