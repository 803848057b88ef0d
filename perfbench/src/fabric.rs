//! The `pp_sim::fabric` row of the traced runs' ledger: a fixed grid of
//! small fratricide elections through `ppsweep --shards 2 --spawn`, whose
//! cost is the fabric's claim files, journals and merge as much as the
//! engine, checked against `run_sequential` and fratricide's exact law.
//!
//! It is not a timed workload of its own. Launched on a shared two-core
//! machine, the same grid took 4.4 s in one launch and 9.6 s in the next,
//! its time dominated by creating thousands of claim files, and a giant
//! grid (2^22 and 2^24 on the jump tier, one lane bundle per size) spread
//! 17–20% across seeds and drifted 35% between two sets of runs. Both are
//! beyond the benchmark's bounds, so the fabric is measured per layer only.

use crate::report::Report;
use crate::spans::Spans;
use crate::Args;
use pp_protocols::Fratricide;
use pp_sim::fabric::{merge_shards, points_table, run_sequential, shard_dir, FabricSpec};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Worker processes per grid; each runs one sweep thread.
const SHARDS: u64 = 2;

/// Two-sided z bound of the fratricide mean-time test against its exact
/// law, over a thousand elections per size.
const Z_BOUND: f64 = 6.0;

/// The ledger's grid: 1024 seeds at 64, 256 and 1024 — 384 lane
/// bundles, each one claim file and one journal entry.
fn grid(master: u64) -> FabricSpec {
    FabricSpec {
        protocol: "fratricide".to_string(),
        ns: vec![64, 256, 1024],
        seeds: 1024,
        master_seed: master,
        max_steps: u64::MAX,
        lanes: pp_sim::sweep_lane_width(),
    }
}

/// One finished `ppsweep` launch.
struct Launch {
    /// Launch to the first bundle claim.
    setup_s: f64,
    /// First claim to exit, after the merged table is written.
    wall_s: f64,
}

/// Runs `ppsweep --shards 2 --spawn` on `spec` in a fresh `dir`, polling
/// the claim directory to time the set-up.
fn launch(ppsweep: &Path, spec: &FabricSpec, dir: &Path) -> Result<Launch, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    let ns: Vec<String> = spec.ns.iter().map(|n| n.to_string()).collect();
    let claims = dir.join("claims");
    let started = Instant::now();
    let mut child = Command::new(ppsweep)
        .args(["--protocol", &spec.protocol, "--ns", &ns.join(",")])
        .args(["--seeds", &spec.seeds.to_string()])
        .args(["--master", &spec.master_seed.to_string()])
        .args(["--lanes", &spec.lanes.to_string()])
        .arg("--dir")
        .arg(dir)
        .args(["--shards", &SHARDS.to_string(), "--spawn"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", ppsweep.display()))?;
    let mut first_claim = None;
    let status = loop {
        if first_claim.is_none()
            && std::fs::read_dir(&claims).is_ok_and(|mut entries| entries.next().is_some())
        {
            first_claim = Some(started.elapsed().as_secs_f64());
        }
        if first_claim.is_some() {
            break child.wait();
        }
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) => std::thread::sleep(Duration::from_micros(200)),
            Err(e) => break Err(e),
        }
    }
    .map_err(|e| format!("waiting for ppsweep: {e}"))?;
    let total = started.elapsed().as_secs_f64();
    if !status.success() {
        let mut chatter = String::new();
        if let Some(mut stderr) = child.stderr.take() {
            let _ = std::io::Read::read_to_string(&mut stderr, &mut chatter);
        }
        return Err(format!("ppsweep exited with {status}: {chatter}"));
    }
    let setup_s = first_claim.ok_or("ppsweep finished without claiming a bundle")?;
    Ok(Launch {
        setup_s,
        wall_s: total - setup_s,
    })
}

/// Per-job `(n, converged, parallel_time)` from a canonical journal.
fn journal_results(spec: &FabricSpec, dir: &Path) -> Result<Vec<(usize, bool, f64)>, String> {
    let path = dir.join("journal.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| l.starts_with("done ")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = (|| {
            let index: usize = f.get(1)?.parse().ok()?;
            let converged = *f.get(2)? == "1";
            let bits = u64::from_str_radix(f.get(3)?, 16).ok()?;
            Some((
                spec.ns[index / spec.seeds as usize],
                converged,
                f64::from_bits(bits),
            ))
        })();
        out.push(parsed.ok_or_else(|| format!("bad journal line `{line}`"))?);
    }
    Ok(out)
}

/// Mean and variance of fratricide's parallel stabilization time at `n`:
/// a sum of geometrics with `p_k = k(k−1)/(n(n−1))` for k = 2..n, divided
/// by n. The mean is (n−1)²/n.
fn fratricide_law(n: usize) -> (f64, f64) {
    let nn = n as f64 * (n as f64 - 1.0);
    let mut mean = 0.0;
    let mut var = 0.0;
    for k in 2..=n {
        let p = (k as f64 * (k as f64 - 1.0)) / nn;
        mean += 1.0 / p;
        var += (1.0 - p) / (p * p);
    }
    let n = n as f64;
    (mean / n, var / (n * n))
}

/// Checks one grid's journal: every job present and converged. Returns
/// the converged `(n, parallel_time)` results.
fn check_grid(
    rep: &mut Report,
    spec: &FabricSpec,
    dir: &Path,
) -> Result<Vec<(usize, f64)>, String> {
    let results = journal_results(spec, dir)?;
    rep.check(
        results.len() == spec.total_jobs(),
        "journal holds every job",
    );
    let bad = results.iter().filter(|r| !r.1).count() as u64;
    rep.elections(results.len() as u64, bad);
    Ok(results
        .into_iter()
        .filter(|r| r.1)
        .map(|r| (r.0, r.2))
        .collect())
}

/// Each size's mean time over the run, within `Z_BOUND` standard errors
/// of the exact law.
fn z_tests(rep: &mut Report, ns: &[usize], results: &[(usize, f64)]) {
    for &n in ns {
        let times: Vec<f64> = results.iter().filter(|r| r.0 == n).map(|r| r.1).collect();
        let count = times.len() as f64;
        let mean = times.iter().sum::<f64>() / count;
        let (law_mean, law_var) = fratricide_law(n);
        let z = (mean - law_mean) / (law_var / count).sqrt();
        rep.line(format!(
            "fratricide n={n}: mean {mean:.4} vs exact {law_mean:.4} over {count} runs, z={z:+.2}"
        ));
        rep.check(
            z.abs() <= Z_BOUND,
            format!("fratricide n={n} z-test (|z|={:.2})", z.abs()),
        );
    }
}

/// Per-shard busy seconds from a launch's `metrics.json` rollups.
fn shard_busy(dir: &Path) -> Result<Vec<f64>, String> {
    let path = dir.join("metrics.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut busy = vec![0.0; SHARDS as usize];
    // Rollup objects are flat, so splitting on '{' isolates each one.
    for obj in text.split('{').filter(|o| o.contains("\"pid\"")) {
        let field = |name: &str| -> Option<f64> {
            let at = obj.find(&format!("\"{name}\":"))? + name.len() + 3;
            let rest = &obj[at..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        };
        let shard = field("shard").ok_or("rollup without a shard")? as usize;
        *busy.get_mut(shard).ok_or("rollup shard out of range")? +=
            field("wall_seconds").unwrap_or(0.0);
    }
    Ok(busy)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The fabric's books for one finished launch.
#[derive(Default)]
struct Books {
    shard_max: f64,
    shard_min: f64,
    merge_s: f64,
    sequential_s: f64,
    journal_bytes: u64,
    claims: u64,
}

impl Books {
    /// Reads the launch's rollups, journals and claims, re-merges its
    /// shards, and runs the same spec in-process with `run_sequential`,
    /// whose table and journal must equal the sharded run's byte for byte.
    fn read(
        rep: &mut Report,
        spans: &mut Spans,
        spec: &FabricSpec,
        dir: &Path,
    ) -> Result<Self, String> {
        let mut books = Books::default();
        let busy = shard_busy(dir)?;
        books.shard_max = busy.iter().copied().fold(0.0, f64::max);
        books.shard_min = busy.iter().copied().fold(f64::INFINITY, f64::min);
        for k in 0..SHARDS {
            books.journal_bytes += file_len(&shard_dir(dir, k).join("journal.txt"));
        }
        books.claims = std::fs::read_dir(dir.join("claims")).map_or(0, |d| d.count() as u64);
        let sharded_csv = std::fs::read(dir.join("table.csv")).map_err(|e| e.to_string())?;
        let sharded_journal = std::fs::read(dir.join("journal.txt")).map_err(|e| e.to_string())?;

        let started = Instant::now();
        let merged = spans.wrap("fabric.merge", || merge_shards(spec, dir, SHARDS));
        books.merge_s = started.elapsed().as_secs_f64();
        let merged = merged.map_err(|e| format!("merge: {e}"))?;
        rep.check(merged.missing == 0, "re-merge finds every job");

        let seq_dir = dir.with_extension("sequential");
        let started = Instant::now();
        let points = spans
            .wrap("fabric.run_sequential", || {
                run_sequential(|_| Fratricide, spec, &seq_dir)
            })
            .map_err(|e| format!("run_sequential: {e}"))?;
        books.sequential_s = started.elapsed().as_secs_f64();
        rep.check(
            points_table(&points).to_csv().into_bytes() == sharded_csv,
            format!("sharded table.csv equals run_sequential (ns={:?})", spec.ns),
        );
        let seq_journal = std::fs::read(seq_dir.join("journal.txt")).map_err(|e| e.to_string())?;
        rep.check(
            seq_journal == sharded_journal,
            format!("sharded journal equals run_sequential (ns={:?})", spec.ns),
        );
        Ok(books)
    }
}

/// Launches the ledger's grid, checks it, and adds the `fabric.*` rows.
pub fn ledger(args: &Args, rep: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let spec = grid(args.seed);
    let dir = args.work.join("fabric-grid");
    spans.enter("fabric.ppsweep");
    let started = Instant::now();
    let launched = launch(&args.ppsweep, &spec, &dir)?;
    let launch_s = started.elapsed().as_secs_f64();
    spans.exit();
    let results = check_grid(rep, &spec, &dir)?;
    z_tests(rep, &spec.ns, &results);
    let books = Books::read(rep, spans, &spec, &dir)?;

    rep.metric("fabric.setup_s", launched.setup_s, "s");
    rep.metric("fabric.wall_s", launched.wall_s, "s");
    rep.metric("fabric.orchestrate_s", launch_s - books.shard_max, "s");
    rep.metric("fabric.shard_s.max", books.shard_max, "s");
    rep.metric("fabric.shard_s.min", books.shard_min, "s");
    rep.metric(
        "fabric.imbalance",
        1.0 - books.shard_min / books.shard_max,
        "ratio",
    );
    rep.metric("fabric.merge_s", books.merge_s, "s");
    rep.metric("fabric.journal_bytes", books.journal_bytes as f64, "bytes");
    rep.metric("fabric.claims", books.claims as f64, "count");
    rep.metric(
        "fabric.inprocess_ratio",
        launch_s / books.sequential_s,
        "ratio",
    );
    crate::sweep::coverage(
        rep,
        "busiest shard / ppsweep launch",
        books.shard_max / launch_s,
    );
    Ok(())
}
