//! `perfbench` — end-to-end benchmark of whole leader-election grids, with
//! a per-layer ledger in its traced mode.
//!
//! ```text
//! perfbench --workload pll_grid --seed 1 --seconds 25 --trace 0 \
//!           --ppsweep PATH --work DIR
//! ```
//!
//! Both workloads, `pll_grid` and `ulottery_grid`, drive
//! `pp_sim::stabilization_sweep` (what `experiments table1` runs); the
//! traced run also launches the `ppsweep` CLI with two local shards for the
//! fabric's row. Every input derives from `--seed`; `--seconds` sizes the
//! grids. The last stdout line is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`); the lines before it print every figure by name and unit.

mod fabric;
mod ledger;
mod report;
mod spans;
mod sweep;

use report::Report;
use spans::Spans;
use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ppsweep: PathBuf,
    pub work: PathBuf,
    /// Only time the set-up and print its fastest repetition (see `sweep`).
    pub setup_only: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut ppsweep = None;
        let mut work = None;
        let mut setup_only = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
                "--ppsweep" => ppsweep = Some(PathBuf::from(&value)),
                "--work" => work = Some(PathBuf::from(&value)),
                "--setup-only" => setup_only = value.parse::<u8>().map_err(|_| bad())? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            ppsweep: ppsweep.ok_or("--ppsweep is required")?,
            work: work.ok_or("--work is required")?,
            setup_only,
        })
    }
}

/// Master seeds of a run's `rounds` rounds, derived from `--seed`.
pub fn round_masters(seed: u64, rounds: u64) -> Vec<u64> {
    let seq = pp_rand::SeedSequence::new(seed);
    (0..rounds).map(|r| seq.seed_at(r)).collect()
}

/// Where an untraced run leaves its first round's wall time for the traced
/// run of the same workload, seed and length.
fn untraced_path(args: &Args) -> PathBuf {
    args.work.join(format!(
        "untraced-{}-{}-{}.txt",
        args.workload, args.seed, args.seconds
    ))
}

pub fn record_untraced_wall(args: &Args, wall: f64) {
    // Best effort: without it the traced run measures the untraced wall
    // itself.
    let _ = std::fs::write(untraced_path(args), format!("{wall}\n"));
}

/// The untraced first-round wall time of this workload, seed and length:
/// recorded by an earlier untraced run, or measured now by `measure`.
pub fn untraced_wall(
    args: &Args,
    measure: impl FnOnce() -> Result<f64, String>,
) -> Result<f64, String> {
    match std::fs::read_to_string(untraced_path(args)) {
        Ok(text) => text
            .trim()
            .parse()
            .map_err(|e| format!("bad untraced wall: {e}")),
        Err(_) => measure(),
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        std::process::exit(1);
    }
    let mut spans = Spans::new(args.trace);
    let mut rep = Report::default();
    let outcome = match args.workload.as_str() {
        "pll_grid" => sweep::run(&args, sweep::Grid::pll(args.seconds), &mut rep, &mut spans),
        "ulottery_grid" => sweep::run(
            &args,
            sweep::Grid::ulottery(args.seconds),
            &mut rep,
            &mut spans,
        ),
        other => Err(format!("unknown workload `{other}`")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if args.setup_only {
        println!("{}", rep.lines.last().map_or("", String::as_str));
        return;
    }
    rep.note("failed_frac", rep.failed_frac(), "ratio");
    if args.trace {
        let path = args
            .work
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans: {e}");
            std::process::exit(1);
        }
        rep.line(format!(
            "{} spans written to {}",
            spans.count(),
            path.display()
        ));
    }
    for line in &rep.lines {
        println!("{line}");
    }
    println!("{}", rep.json());
}
