//! The `pll_grid` and `ulottery_grid` workloads: whole grids through
//! `pp_sim::stabilization_sweep` on the default worker threads.
//!
//! A run sweeps the workload's grid for a number of rounds set by
//! `--seconds`, each round on its own master seed, and reports medians
//! over the rounds.

use crate::ledger::{self, is_slow, Replay};
use crate::report::{cpu_seconds, fnv1a, median, quantile, Report};
use crate::spans::Spans;
use crate::{record_untraced_wall, round_masters, untraced_wall, Args};
use pp_core::Pll;
use pp_engine::{CountSimulation, LeaderElection};
use pp_protocols::UnboundedLottery;
use pp_rand::{SeedSequence, Xoshiro256PlusPlus};
use pp_sim::{enable_sweep_rollup, stabilization_sweep, take_sweep_rollups, SweepPoint};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Set-up repetitions per process, 2 ms apart.
const SETUP_REPS: usize = 101;

/// Fresh processes per run that time the set-up; `setup_s` is the median
/// over them of each one's fastest repetition. A single repetition takes
/// 10–100 µs, and on a shared machine its time swings 2x with the state
/// of the core (a process's median sat in one of two modes 2x apart), while
/// the fastest of a hundred spread over 0.2 s repeats within a few percent.
const SETUP_PROCESSES: usize = 7;

/// Seeds per size the traced run replays one election at a time, which
/// bounds its length.
const REPLAY_SEEDS: u64 = 16;

/// Per-election step budget: none, as in `ppsweep` and the experiments.
/// UnboundedLottery has rare elections past 10^4 parallel time at 2^16
/// (two leaders left that only a few agents can tell apart), which the
/// jump tier runs cheaply; any cut-off would count them as failures.
const MAX_STEPS: u64 = u64::MAX;

#[derive(Clone, Copy)]
pub enum Protocol {
    Pll,
    UnboundedLottery,
}

/// A run's stabilization grid: `rounds` sweeps of `seeds` elections at
/// each size in `ns`.
pub struct Grid {
    pub protocol: Protocol,
    pub ns: Vec<usize>,
    pub seeds: u64,
    pub rounds: u64,
    /// Expected parallel time of one election at each size, for a grid
    /// whose cost follows its simulated interactions rather than its
    /// election count; `None` when the election count drives the cost.
    pub expected_time: Option<Vec<f64>>,
}

impl Grid {
    /// P_LL at 2^12, 2^14 and 2^16: compiled tier at the small sizes,
    /// batch-tier exact walks in the slow runs at 2^16. One sweep of about
    /// two seeds per size per second of the run: a slow election costs 20
    /// fast ones, so a grid needs many lane bundles per size to keep two
    /// workers evenly loaded (16-seed rounds varied by 19% between seeds).
    pub fn pll(seconds: f64) -> Self {
        Self {
            protocol: Protocol::Pll,
            ns: vec![1 << 12, 1 << 14, 1 << 16],
            seeds: ((seconds * 2.1).round() as u64).max(8),
            rounds: 1,
            // P_LL's time is a mixture: about a quarter of the elections
            // run in a slow mode 20x longer. Replayed one at a time, the
            // two modes cost the same per interaction within ~15%, so
            // interactions are the work. Means of 512, 512 and 192
            // elections at master seeds 20261017 and 20261018.
            expected_time: Some(vec![80.0, 111.0, 96.0]),
        }
    }

    /// UnboundedLottery at 2^14 and 2^16, 32 seeds each: an unbounded
    /// state space, so state interning and compiling the pair cache
    /// dominate. One round per 4.3 s of the run, its measured length.
    pub fn ulottery(seconds: f64) -> Self {
        Self {
            protocol: Protocol::UnboundedLottery,
            ns: vec![1 << 14, 1 << 16],
            seeds: 32,
            rounds: ((seconds / 4.3).round() as u64).max(1),
            // Cost per election is flat: long elections end on the jump
            // tier, which telescopes their nulls.
            expected_time: None,
        }
    }

    fn max_n(&self) -> usize {
        *self.ns.iter().max().expect("non-empty grid")
    }

    /// Interactions of one round at its expected parallel times over its
    /// simulated interactions: the factor that brings a round's time to
    /// its nominal work (1 when the election count is the work).
    fn nominal_scale(&self, interactions: f64) -> f64 {
        match &self.expected_time {
            Some(expected) => {
                let nominal: f64 = self
                    .ns
                    .iter()
                    .zip(expected)
                    .map(|(&n, t)| self.seeds as f64 * n as f64 * t)
                    .sum();
                nominal / interactions
            }
            None => 1.0,
        }
    }
}

/// The sweep's `(n, seed)` job list, in job order: the seed of job `s` at
/// size index `i` is the master sequence's seed at `(i << 32) | s`, as in
/// `stabilization_sweep`.
pub fn job_list(ns: &[usize], seeds: u64, master: u64) -> Vec<(usize, u64)> {
    let seq = SeedSequence::new(master);
    ns.iter()
        .enumerate()
        .flat_map(|(i, &n)| (0..seeds).map(move |s| (n, seq.seed_at((i as u64) << 32 | s))))
        .collect()
}

pub fn run(args: &Args, grid: Grid, rep: &mut Report, spans: &mut Spans) -> Result<(), String> {
    match grid.protocol {
        Protocol::Pll => run_with(
            args,
            &grid,
            |n| Pll::for_population(n).expect("grid sizes are >= 2"),
            rep,
            spans,
        ),
        Protocol::UnboundedLottery => run_with(args, &grid, |_| UnboundedLottery, rep, spans),
    }
}

/// Builds the inputs and everything the elections need before they start:
/// the job list, and each job's protocol and initial count engine.
fn setup_once<P, F>(make: &F, grid: &Grid, master: u64) -> usize
where
    P: LeaderElection,
    F: Fn(usize) -> P,
{
    let mut touched = 0;
    for (n, seed) in job_list(&grid.ns, grid.seeds, master) {
        let sim = CountSimulation::new(make(n), n, Xoshiro256PlusPlus::seed_from_u64(seed))
            .expect("grid sizes are >= 2");
        touched += black_box(sim.support_size());
    }
    touched
}

/// The median over `SETUP_PROCESSES` runs of this program in
/// `--setup-only` mode of each one's fastest set-up.
fn setup_in_processes(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut fastest = Vec::with_capacity(SETUP_PROCESSES);
    for _ in 0..SETUP_PROCESSES {
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .arg("--ppsweep")
            .arg(&args.ppsweep)
            .arg("--work")
            .arg(&args.work)
            .args(["--setup-only", "1"])
            .output()
            .map_err(|e| format!("cannot launch set-up: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let seconds: f64 = text
            .lines()
            .next()
            .and_then(|l| l.trim().parse().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("set-up process failed: {}", out.status))?;
        fastest.push(seconds);
    }
    Ok(median(&fastest))
}

/// One round: the whole grid through `stabilization_sweep`, timed from
/// outside.
struct Round {
    points: Vec<SweepPoint>,
    wall_s: f64,
    cpu_s: f64,
}

fn sweep<P, F>(make: &F, grid: &Grid, master: u64) -> Round
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    let cpu = cpu_seconds();
    let started = Instant::now();
    let points = stabilization_sweep(make, &grid.ns, grid.seeds, master, MAX_STEPS);
    let wall_s = started.elapsed().as_secs_f64();
    Round {
        points,
        wall_s,
        cpu_s: cpu_seconds() - cpu,
    }
}

fn run_with<P, F>(
    args: &Args,
    grid: &Grid,
    make: F,
    rep: &mut Report,
    spans: &mut Spans,
) -> Result<(), String>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    let masters = round_masters(args.seed, grid.rounds);
    rep.line(format!(
        "grid: ns={:?} seeds={} rounds={} seed={} threads={}",
        grid.ns,
        grid.seeds,
        masters.len(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    ));
    // The traced run collects the runner's fan-out rollups around the
    // same sweeps.
    if args.trace {
        enable_sweep_rollup();
        let _ = take_sweep_rollups();
    }
    if args.setup_only {
        let mut setup = Vec::with_capacity(SETUP_REPS);
        for r in 0..SETUP_REPS {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let started = Instant::now();
            black_box(setup_once(&make, grid, masters[r % masters.len()]));
            setup.push(started.elapsed().as_secs_f64());
        }
        rep.line(format!("{}", quantile(&setup, 0.0)));
        return Ok(());
    }
    let setup = spans.wrap("setup", || setup_in_processes(args))?;
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let (mut nominal_walls, mut nominal_cpus) = (Vec::new(), Vec::new());
    let (mut interactions, mut slow) = (0.0, 0);
    let mut csv = String::new();
    for &master in &masters {
        spans.enter("runner.sweep");
        let round = sweep(&make, grid, master);
        spans.exit();
        check_points(rep, grid, &round.points);
        let (i, s) = work(&round.points);
        interactions += i;
        slow += s;
        csv += &pp_sim::fabric::points_table(&round.points).to_csv();
        let scale = grid.nominal_scale(i);
        walls.push(round.wall_s);
        cpus.push(round.cpu_s);
        nominal_walls.push(round.wall_s * scale);
        nominal_cpus.push(round.cpu_s * scale);
    }
    let wall: f64 = walls.iter().sum();

    let elections = (masters.len() * grid.ns.len()) as f64 * grid.seeds as f64;
    rep.note("work.elections", elections, "count");
    rep.note("work.interactions", interactions, "count");
    rep.note("work.slow_runs", slow as f64, "count");
    rep.line(format!("work.checksum {:016x}", fnv1a(csv.as_bytes())));
    rep.end_to_end(args.trace, "setup_s", setup, "s");
    rep.end_to_end(args.trace, "nominal_wall_s", median(&nominal_walls), "s");
    rep.end_to_end(args.trace, "nominal_cpu_s", median(&nominal_cpus), "s");
    rep.note("wall_s", wall, "s");
    rep.note("cpu_s", cpus.iter().sum(), "s");
    rep.note("interactions_per_s", interactions / wall, "1/s");
    if !args.trace {
        record_untraced_wall(args, walls[0]);
        return Ok(());
    }

    // Traced run: the runner's books for the sweeps above, then the first
    // REPLAY_SEEDS seeds per size of the first round replayed one election
    // at a time, the fabric's row, and the sampler and transition
    // microbenchmarks.
    let rollups = take_sweep_rollups();
    let runner_s: f64 = rollups.iter().map(|r| r.wall_seconds).sum();
    let workers = rollups.iter().map(|r| r.workers).max().unwrap_or(1);
    let untraced = untraced_wall(args, || Ok(sweep(&make, grid, masters[0]).wall_s))?;
    // Job seeds depend only on the size and seed index, so this prefix of
    // every size is exactly those elections of the sweep's job list.
    let replayed = grid.seeds.min(REPLAY_SEEDS);
    let jobs = job_list(&grid.ns, replayed, masters[0]);
    let replay = Replay::run(&make, &jobs, MAX_STEPS, spans);
    rep.elections(replay.elections, replay.failed);
    replay.report(rep);

    rep.metric("runner.sweep_s", runner_s, "s");
    rep.metric(
        "runner.jobs",
        rollups.iter().map(|r| r.jobs).sum::<u64>() as f64,
        "count",
    );
    rep.metric("runner.fanouts", rollups.len() as f64, "count");
    // The replay covers part of the first round, so its ratios are to that
    // round, with the replay scaled up to the whole round.
    let round0 = walls[0];
    let replay_round_s = replay.replay_s() * grid.seeds as f64 / replayed as f64;
    rep.metric(
        "runner.scalar_ratio",
        replay_round_s / workers as f64 / round0,
        "ratio",
    );
    rep.metric(
        "runner.max_job_share",
        quantile(&replay.job_s, 1.0) / round0,
        "ratio",
    );
    rep.metric("trace.overhead", round0 / untraced - 1.0, "ratio");
    // The sweeps do not go through the fabric; its row comes from a fixed
    // grid launched through `ppsweep`.
    crate::fabric::ledger(args, rep, spans)?;

    let max_n = grid.max_n();
    let counts = match grid.protocol {
        Protocol::Pll => ledger::support_counts(make(max_n), max_n, args.seed),
        Protocol::UnboundedLottery => ledger::support_counts(UnboundedLottery, max_n, args.seed),
    };
    ledger::microbench(rep, spans, max_n, &counts, args.seed);

    coverage(
        rep,
        "runner.sweep spans / wall_s",
        spans.total("runner.sweep") / wall,
    );
    coverage(rep, "runner rollups / wall_s", runner_s / wall);
    coverage(
        rep,
        "engine.timeline_coverage",
        replay.timeline_s / replay.replay_s(),
    );
    Ok(())
}

/// Prints one coverage row, flagged under the 90% ledger target.
pub fn coverage(rep: &mut Report, what: &str, share: f64) {
    let flag = if share < 0.9 { "  UNDER 90%" } else { "" };
    rep.line(format!("coverage {what:<28} {:>7.1}%{flag}", share * 100.0));
}

/// Every point has all its elections, each converged to one leader.
fn check_points(rep: &mut Report, grid: &Grid, points: &[SweepPoint]) {
    rep.check(points.len() == grid.ns.len(), "one sweep point per size");
    for p in points {
        let unconverged = p.unconverged;
        rep.elections(p.times.count() + unconverged, unconverged);
        rep.check(
            p.times.count() + unconverged == grid.seeds,
            format!("n={} reports every seed", p.n),
        );
    }
}

/// Interactions simulated and slow-mode runs across one round.
fn work(points: &[SweepPoint]) -> (f64, u64) {
    let mut interactions = 0.0;
    let mut slow = 0;
    for p in points {
        for &t in p.times.values() {
            interactions += (t * p.n as f64).round();
            slow += u64::from(is_slow(p.n, t));
        }
    }
    (interactions, slow)
}
