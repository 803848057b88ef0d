//! Parallel execution of sweep jobs: one thread pool and one executor.
//!
//! [`parallel_map`] is the crate's one thread pool, and [`execute`] its one
//! sweep executor: [`stabilization_sweep`], the checkpointed sweep and the
//! sweep fabric's workers all hand it their same-`n` **bundles** of jobs,
//! which it runs largest-`n`-first under one job-limit rule, optionally
//! claiming each across processes and journaling each as one block. Every
//! job is one election on a fresh [`CountSimulation`] seeded from the job's
//! own seed ([`run_election`]), so its result is a function of `(n, seed)`
//! alone — never of the thread that ran it or how jobs were grouped.
//! Bundles are bookkeeping only: the fabric's claim unit and the journal
//! block ([`sweep_lane_width`] is their default width); the in-process
//! sweeps run one-job bundles.
//!
//! One env override serves reproducible benchmarking: `PP_SIM_THREADS` pins
//! the worker count. It changes no result, only how jobs fan out.

use crate::checkpoint::{open_journal_for_append, write_block};
use pp_engine::{CountSimulation, LeaderElection, Simulation, UniformScheduler};
use pp_rand::{SeedSequence, Xoshiro256PlusPlus};
use pp_stats::Summary;
use std::io::{self, IsTerminal, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on the `PP_SIM_THREADS` override (clamped rather than
/// erroring).
const MAX_WORKERS: usize = 1024;

/// Default jobs per bundle: the sweep fabric's claim granule and the
/// checkpointed sweep's journal block.
const DEFAULT_LANES: usize = 8;

/// `PP_SIM_THREADS` resolution: a parseable override is clamped to
/// `1..=MAX_WORKERS` (out-of-range values clamp, they don't error);
/// anything else falls back
/// to the detected parallelism.
fn worker_override(raw: Option<&str>, detected: usize) -> usize {
    match raw.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(v) => v.clamp(1, MAX_WORKERS),
        None => detected.clamp(1, MAX_WORKERS),
    }
}

/// Worker threads for `jobs` jobs: the `PP_SIM_THREADS` override if set,
/// else [`std::thread::available_parallelism`], never more than the jobs.
fn worker_count(jobs: usize) -> usize {
    let detected = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads = std::env::var("PP_SIM_THREADS");
    worker_override(threads.as_deref().ok(), detected).min(jobs.max(1))
}

/// Default bundle width: how many same-`n` jobs the sweep fabric claims at
/// once and the checkpointed sweep journals as one block. Bundling is
/// bookkeeping only — every job runs alone, so results do not depend on it.
pub fn sweep_lane_width() -> usize {
    DEFAULT_LANES
}

/// Whether [`parallel_map`] should report live progress: stderr is a
/// terminal and `PP_SIM_PROGRESS` is not `0`.
fn progress_enabled(jobs: usize) -> bool {
    jobs > 1
        && std::io::stderr().is_terminal()
        && std::env::var("PP_SIM_PROGRESS").map_or(true, |v| v != "0")
}

/// Throughput and progress aggregate of one [`parallel_map`] fan-out,
/// recorded when rollup collection is enabled (see
/// [`enable_sweep_rollup`]). One rollup per `parallel_map` call — a
/// sweep's experiment typically accumulates several.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRollup {
    /// Jobs the fan-out executed.
    pub jobs: u64,
    /// Worker threads it ran on.
    pub workers: u64,
    /// Wall-clock duration of the whole fan-out.
    pub wall_seconds: f64,
    /// `jobs / wall_seconds` (0 when the fan-out was instantaneous).
    pub jobs_per_second: f64,
    /// OS process that ran the fan-out. With the multi-process sweep fabric
    /// a grid's fan-outs span several worker processes; the pid is what lets
    /// a metrics consumer group per-process rows before summing throughput
    /// across them.
    pub pid: u32,
    /// Sweep-fabric shard identity ([`set_sweep_shard`]), `None` outside
    /// `ppsweep` worker mode.
    pub shard: Option<u64>,
}

impl SweepRollup {
    /// Serializes the rollup as one JSON object (hand-rolled; the
    /// workspace takes no serde dependency). `shard` is `null` outside
    /// fabric worker mode.
    pub fn to_json(&self) -> String {
        let shard = self
            .shard
            .map_or_else(|| "null".to_string(), |s| s.to_string());
        format!(
            "{{\"jobs\":{},\"workers\":{},\"wall_seconds\":{},\"jobs_per_second\":{},\
             \"pid\":{},\"shard\":{shard}}}",
            self.jobs, self.workers, self.wall_seconds, self.jobs_per_second, self.pid
        )
    }
}

static ROLLUPS: OnceLock<Mutex<Vec<SweepRollup>>> = OnceLock::new();
static ROLLUP_ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-global shard identity for rollups: `-1` encodes `None` (shard
/// ids are far below `i64::MAX` — the fabric caps shard counts at 4096).
static SWEEP_SHARD: AtomicI64 = AtomicI64::new(-1);

/// Declares which sweep-fabric shard this process is (or `None` to clear);
/// every subsequent [`SweepRollup`] carries it. Called once at `ppsweep`
/// worker startup so `--metrics-out`-style reports can attribute fan-outs
/// to shards when aggregating cross-process throughput.
pub fn set_sweep_shard(shard: Option<u64>) {
    let encoded = shard.map_or(-1, |s| i64::try_from(s).expect("shard ids are small"));
    SWEEP_SHARD.store(encoded, Ordering::Release);
}

/// The shard identity declared by [`set_sweep_shard`], if any.
pub fn sweep_shard() -> Option<u64> {
    match SWEEP_SHARD.load(Ordering::Acquire) {
        -1 => None,
        s => Some(s as u64),
    }
}

/// Turns on process-wide rollup collection: every subsequent
/// [`parallel_map`] records a [`SweepRollup`] retrievable with
/// [`take_sweep_rollups`]. Collection is off by default — the recorder
/// costs one relaxed atomic load per fan-out when disabled.
pub fn enable_sweep_rollup() {
    ROLLUP_ENABLED.store(true, Ordering::Release);
}

/// Drains and returns every rollup recorded since the last call (empty
/// when collection was never enabled).
pub fn take_sweep_rollups() -> Vec<SweepRollup> {
    ROLLUPS
        .get()
        .map(|m| std::mem::take(&mut *m.lock().expect("rollup lock poisoned")))
        .unwrap_or_default()
}

/// Progress-line ETA suffix, based on the **completed-job** rate.
///
/// Sweep job laws are heavy-tailed (stabilization time is a random variable
/// with a long upper tail), so a linear extrapolation can mislead in a
/// specific way: late in a fan-out most remaining "work" is a handful of
/// claimed-but-unfinished stragglers whose cost the completed-job average
/// does not represent. The estimate itself stays the completed-rate
/// extrapolation — anything cleverer would be guessing — but when the
/// claimed-but-unfinished jobs make up at least half of what remains, the
/// line shows a visible `≥` qualifier: the stragglers already in flight put
/// a floor, not a ceiling, on the time left. Empty until the first job
/// completes (there is no completed rate to extrapolate from).
pub(crate) fn eta_suffix(done: usize, claimed: usize, total: usize, elapsed_secs: f64) -> String {
    if done == 0 || done >= total {
        return String::new();
    }
    let rate = done as f64 / elapsed_secs.max(1e-9);
    let remaining = total - done;
    let in_flight = claimed.saturating_sub(done).min(remaining);
    let qualifier = if 2 * in_flight >= remaining {
        "\u{2265} "
    } else {
        ""
    };
    format!(", eta {qualifier}{:.0}s", remaining as f64 / rate.max(1e-9))
}

/// Sets the flag on drop, so the progress monitor stops even when a worker
/// panic unwinds the scope.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Applies `f` to every job on all available cores, preserving job order.
///
/// Results are deterministic: ordering does not depend on thread scheduling,
/// only on the job list (each job carries its own seed).
///
/// Workers claim job indices from a shared atomic counter and buffer
/// `(index, result)` pairs locally; the buffers are collected through each
/// worker's join handle and scattered into place — no locks anywhere, and no
/// synchronization on the results beyond the joins themselves.
///
/// The worker count is [`std::thread::available_parallelism`], overridable
/// through `PP_SIM_THREADS` (clamped to `1..=1024`) so bench and CI runs can
/// pin it for reproducible throughput numbers. When stderr is a terminal a
/// monitor thread repaints a `claimed/done` progress line a few times a
/// second (suppressed with `PP_SIM_PROGRESS=0`, and entirely absent when
/// output is piped — progress never lands in redirected logs).
///
/// # Panics
///
/// If `f` panics on any job, the panic propagates out of `parallel_map` (the
/// worker's join handle surfaces it; `std::thread::scope` re-raises panics of
/// scoped threads). Jobs already claimed by other workers still run to
/// completion first; their results are discarded.
///
/// # Example
///
/// ```
/// use pp_sim::parallel_map;
///
/// let squares = parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(jobs: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_counted(jobs, |_| 1, f)
}

/// [`parallel_map`] whose rollup counts `jobs_in(result)` jobs per item
/// rather than one: the executor maps over slots that each run a bundle of
/// jobs, or none.
fn parallel_map_counted<T, R, F, C>(jobs: &[T], jobs_in: C, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    C: Fn(&R) -> usize,
{
    let workers = worker_count(jobs.len());
    let total = jobs.len();
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut results: Vec<Option<R>> = Vec::with_capacity(total);
    results.resize_with(total, || None);
    std::thread::scope(|scope| {
        let _stop_guard = StopOnDrop(&stop);
        if progress_enabled(total) {
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let claimed = next.load(Ordering::Relaxed).min(total);
                    let done = finished.load(Ordering::Relaxed);
                    let eta = eta_suffix(done, claimed, total, started.elapsed().as_secs_f64());
                    eprint!("\r  sweep: {done}/{total} jobs done, {claimed} claimed{eta}");
                    let _ = std::io::stderr().flush();
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                // Clear the line so the next stderr write starts clean.
                eprint!("\r{:64}\r", "");
                let _ = std::io::stderr().flush();
            });
        }
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        local.push((i, f(&jobs[i])));
                        finished.fetch_add(1, Ordering::Relaxed);
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("a sweep worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    let results: Vec<R> = results
        .into_iter()
        .map(|r| r.expect("every job index was claimed exactly once"))
        .collect();
    if ROLLUP_ENABLED.load(Ordering::Acquire) {
        let wall = started.elapsed().as_secs_f64();
        let ran: usize = results.iter().map(&jobs_in).sum();
        ROLLUPS
            .get_or_init(|| Mutex::new(Vec::new()))
            .lock()
            .expect("rollup lock poisoned")
            .push(SweepRollup {
                jobs: ran as u64,
                workers: workers as u64,
                wall_seconds: wall,
                jobs_per_second: if wall > 0.0 { ran as f64 / wall } else { 0.0 },
                pid: std::process::id(),
                shard: sweep_shard(),
            });
    }
    results
}

/// One measured point of a stabilization-time sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Population size.
    pub n: usize,
    /// Parallel stabilization times across seeds.
    pub times: Summary,
    /// Number of runs that failed to converge within the step budget
    /// (should be zero for every protocol in this workspace).
    pub unconverged: u64,
}

/// Measures mean parallel stabilization time of a leader-election protocol
/// across population sizes, `seeds` runs per size, in parallel.
///
/// `make` builds the protocol for a given `n`; each run gets a distinct
/// deterministic seed derived from `master_seed`. Seeds are derived from the
/// packed job index `(size_index << 32) | seed_index`, so `seeds` must stay
/// below `2^32` — far beyond any realistic sweep; asserted at entry rather
/// than silently reusing seed streams across sizes.
///
/// Every run is one election on a fresh [`CountSimulation`]
/// (`run_election`): an exact simulation of the uniformly random
/// scheduler whose jump scheduler telescopes null-dominated tails (a
/// fratricide sweep point at `n = 2^28` telescopes `~10^16` null
/// interactions and completes in seconds), so the measured distribution is
/// the per-agent engine's law at a vanishing fraction of the cost. Results
/// are bit-for-bit deterministic for a fixed `master_seed`,
/// and equal to what the checkpointed sweep and the sweep fabric report for
/// the same grid. Use [`stabilization_sweep_agents`] to drive the per-agent
/// reference engine instead (e.g. to cross-validate the engines against
/// each other).
///
/// Repeated entries in `ns` are measured independently (each job range
/// aggregates into its own [`SweepPoint`]).
pub fn stabilization_sweep<P, F>(
    make: F,
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    max_steps: u64,
) -> Vec<SweepPoint>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    let flat = run_grid(ns, seeds, master_seed, |n, seed| {
        run_election(&make, n, seed, max_steps)
    });
    aggregate_points(ns, seeds, &flat)
}

/// [`stabilization_sweep`] on the per-agent reference engine
/// ([`Simulation`] + [`UniformScheduler`]).
///
/// Slower and `O(n)` memory per run, but exercises the engine whose
/// semantics are the most direct reading of the model — useful when a sweep
/// doubles as an engine cross-check.
pub fn stabilization_sweep_agents<P, F>(
    make: F,
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    max_steps: u64,
) -> Vec<SweepPoint>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    let flat = run_grid(ns, seeds, master_seed, |n, seed| {
        let protocol = make(n);
        let scheduler = UniformScheduler::seed_from_u64(seed);
        let mut sim = Simulation::new(protocol, n, scheduler)
            .expect("population sizes are >= 2 by construction");
        let outcome = sim.run_until_single_leader(max_steps);
        (outcome.converged, outcome.parallel_time(n))
    });
    aggregate_points(ns, seeds, &flat)
}

/// Job-ordered `(converged, parallel_time)` outcomes of `run(n, seed)` over
/// every job of the grid: [`execute`] on one-job bundles, with no journal,
/// claims or job limit.
pub(crate) fn run_grid<R>(ns: &[usize], seeds: u64, master_seed: u64, run: R) -> Vec<(bool, f64)>
where
    R: Fn(usize, u64) -> (bool, f64) + Sync,
{
    let mut done = vec![None; ns.len() * seeds as usize];
    execute(
        &sweep_bundles(ns, seeds, master_seed, 1),
        &mut done,
        &Fanout::default(),
        |_, n, seed| Ok(run(n, seed)),
    )
    .expect("a fan-out without journal or claims does no I/O");
    done.into_iter()
        .map(|r| r.expect("a fan-out without a job limit runs every job"))
        .collect()
}

/// Builds a sweep's `(n, seed)` job list: `seeds` jobs per entry of `ns`, in
/// entry order, each job seeded from the packed index
/// `(size_index << 32) | seed_index` so every (size, run) pair draws an
/// independent deterministic stream.
///
/// # Panics
///
/// Panics when `seeds ≥ 2^32`: the packed index would silently collide the
/// seed streams of different sizes. The `io::Result` entry points reject
/// such grids first ([`validate_grid`]).
pub(crate) fn sweep_jobs(ns: &[usize], seeds: u64, master_seed: u64) -> Vec<(usize, u64)> {
    assert!(
        seeds < 1 << 32,
        "sweeps support at most 2^32 - 1 seeds per size (got {seeds})"
    );
    let seq = SeedSequence::new(master_seed);
    let mut jobs = Vec::with_capacity(ns.len() * seeds as usize);
    for (ni, &n) in ns.iter().enumerate() {
        for s in 0..seeds {
            jobs.push((n, seq.seed_at((ni as u64) << 32 | s)));
        }
    }
    jobs
}

/// The grid check of the `io::Result` sweep entry points: `InvalidInput`
/// when `seeds ≥ 2^32` (job seeds pack the seed index into 32 bits) or any
/// population size is below 2.
pub(crate) fn validate_grid(ns: &[usize], seeds: u64) -> io::Result<()> {
    if seeds >= 1 << 32 {
        return Err(invalid_input(format!(
            "sweeps support at most 2^32 - 1 seeds per size (got {seeds})"
        )));
    }
    if let Some(n) = ns.iter().find(|&&n| n < 2) {
        return Err(invalid_input(format!(
            "every population size must be >= 2 (got {n})"
        )));
    }
    Ok(())
}

/// An `InvalidInput` error carrying `msg`.
pub(crate) fn invalid_input(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// A contiguous block of same-`n` jobs: the sweep fabric's claim unit and
/// the journal block. Its jobs run independently, so the grouping never
/// changes a result.
#[derive(Debug, Clone)]
pub(crate) struct SweepBundle {
    /// Population size shared by every job.
    pub n: usize,
    /// Flat job index of the bundle's first job (the aggregation order).
    pub start: usize,
    /// Per-job RNG seeds, in job order.
    pub seeds: Vec<u64>,
}

impl SweepBundle {
    /// The flat job indices of the bundle.
    pub(crate) fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.seeds.len()
    }
}

/// Partitions the flat job list of [`sweep_jobs`] into bundles of up to
/// `lanes` same-`n` jobs. Bundles never span two entries of `ns` (each
/// size's seed range chunks independently), so aggregation ranges stay
/// contiguous.
pub(crate) fn sweep_bundles(
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    lanes: usize,
) -> Vec<SweepBundle> {
    let (per_size, lanes) = ((seeds as usize).max(1), lanes.max(1));
    let jobs = sweep_jobs(ns, seeds, master_seed);
    let mut bundles = Vec::new();
    for (ni, size) in jobs.chunks(per_size).enumerate() {
        for (k, chunk) in size.chunks(lanes).enumerate() {
            bundles.push(SweepBundle {
                n: ns[ni],
                start: ni * per_size + k * lanes,
                seeds: chunk.iter().map(|&(_, seed)| seed).collect(),
            });
        }
    }
    bundles
}

/// A cross-process claim on a bundle: `Ok(false)` leaves it to whoever
/// holds it.
pub(crate) type Claim<'a> = &'a (dyn Fn(&SweepBundle) -> io::Result<bool> + Sync);

/// Called with a bundle and the job count its journal now holds.
pub(crate) type AfterBlock<'a> = &'a (dyn Fn(&SweepBundle, usize) + Sync);

/// How [`execute`] takes and records bundles. The default runs every
/// pending bundle, claims nothing and journals nothing.
#[derive(Default)]
pub(crate) struct Fanout<'a> {
    /// Take no more bundles once the taken ones hold this many jobs.
    pub job_limit: Option<usize>,
    /// Tried on each bundle in pick order; a lost claim skips the bundle.
    pub claim: Option<Claim<'a>>,
    /// Journal file and header fingerprint: each finished bundle lands in
    /// it as one appended block.
    pub journal: Option<(&'a Path, u64)>,
    /// Runs under the journal lock right after each block lands, so calls
    /// come in increasing count order.
    pub after_block: Option<AfterBlock<'a>>,
}

/// What one [`execute`] call did, tallied by its picker.
#[derive(Debug, Default)]
pub(crate) struct Executed {
    /// Jobs of the bundles it took: the count the job limit applies to.
    pub fresh_jobs: usize,
    /// It stopped at the job limit with bundles still pending.
    pub suspended: bool,
    /// Worker threads of the fan-out.
    pub workers: usize,
    /// Position of the picker in the largest-`n`-first order.
    next: usize,
    /// The first I/O error; no bundle is taken after it.
    error: Option<io::Error>,
}

impl Executed {
    /// The executor's one job-limit rule, applied under one lock: walk the
    /// pending bundles in `order`; once the taken bundles hold at least
    /// `job_limit` jobs, stop and report suspension; otherwise take the
    /// bundle if its claim (if any) succeeds. Which bundles a call takes is
    /// thus a function of the journal, the claims and the limit — never of
    /// how threads race — and the last bundle taken overshoots the limit by
    /// at most its width minus one. The limit is checked before claiming,
    /// so a suspended worker never strands a claim.
    fn pick<'b>(
        &mut self,
        order: &[&'b SweepBundle],
        fanout: &Fanout<'_>,
    ) -> Option<&'b SweepBundle> {
        while self.error.is_none() {
            let bundle = *order.get(self.next)?;
            if self.fresh_jobs >= fanout.job_limit.unwrap_or(usize::MAX) {
                self.suspended = true;
                return None;
            }
            self.next += 1;
            match fanout.claim.map_or(Ok(true), |claim| claim(bundle)) {
                Ok(true) => {
                    self.fresh_jobs += bundle.seeds.len();
                    return Some(bundle);
                }
                Ok(false) => {}
                Err(e) => self.error = Some(e),
            }
        }
        None
    }
}

/// The sweep job executor: runs every bundle of `bundles` with a job still
/// missing from `done` (a job-indexed result table; `None` = not yet run),
/// calling `run(job, n, seed)` for each of its jobs in job order, and fills
/// `done` in.
///
/// Bundles fan out over [`parallel_map`]'s workers largest-`n`-first, a
/// stable order that is the fitted-cost order because per-run cost is
/// monotone in `n` for every protocol here (`BENCH_engine.json`'s power-law
/// fits all have positive slope). Stabilization times are heavy-tailed, so
/// a FIFO fan-out could hand a worker the dearest run last while the others
/// idle; largest-first (LPT) bounds that idle tail by the cheapest run
/// instead. Each worker slot takes the next bundle from one picker
/// ([`Executed::pick`]), so the job limit and the claims see the bundles in
/// that order whatever the thread timing. A bundle missing any job reruns
/// whole: runs are deterministic, so its journaled jobs come out identical.
/// With a journal, each finished bundle is appended as one block
/// ([`write_block`]) in a single write, so a crash tears at most the final
/// block. The fan-out records one [`SweepRollup`] counting the jobs it ran.
///
/// # Errors
///
/// The first I/O error of a claim, a journal append or a `run` call. No
/// bundle is taken after it; bundles already running finish first.
pub(crate) fn execute<R>(
    bundles: &[SweepBundle],
    done: &mut [Option<(bool, f64)>],
    fanout: &Fanout<'_>,
    run: R,
) -> io::Result<Executed>
where
    R: Fn(usize, usize, u64) -> io::Result<(bool, f64)> + Sync,
{
    let mut order: Vec<&SweepBundle> = bundles
        .iter()
        .filter(|b| done[b.range()].iter().any(Option::is_none))
        .collect();
    order.sort_by_key(|b| std::cmp::Reverse(b.n));
    let journal = match fanout.journal {
        Some((path, fp)) if !order.is_empty() => Some(Mutex::new((
            open_journal_for_append(path, fp)?,
            done.iter().flatten().count(),
        ))),
        _ => None,
    };
    let picker = Mutex::new(Executed::default());
    let fail = |e: io::Error| {
        picker
            .lock()
            .expect("sweep picker lock")
            .error
            .get_or_insert(e);
    };
    let finished = parallel_map_counted(
        &order,
        |r: &Option<(usize, Vec<(bool, f64)>)>| r.as_ref().map_or(0, |(_, jobs)| jobs.len()),
        // A slot runs the picker's next bundle, not its own item: the
        // picks must follow the cost order under one lock.
        |_| {
            let bundle = picker
                .lock()
                .expect("sweep picker lock")
                .pick(&order, fanout)?;
            let results = bundle
                .range()
                .zip(&bundle.seeds)
                .map(|(i, &seed)| run(i, bundle.n, seed))
                .collect::<io::Result<Vec<_>>>()
                .map_err(fail)
                .ok()?;
            if let Some(file) = &journal {
                let mut block = String::new();
                write_block(&mut block, bundle.start, &results);
                let mut file = file.lock().expect("sweep journal lock");
                file.0
                    .write_all(block.as_bytes())
                    .and_then(|()| file.0.flush())
                    .map_err(fail)
                    .ok()?;
                file.1 += results.len();
                if let Some(after) = fanout.after_block {
                    after(bundle, file.1);
                }
            }
            Some((bundle.start, results))
        },
    );
    let mut executed = picker.into_inner().expect("sweep picker lock");
    if let Some(e) = executed.error.take() {
        return Err(e);
    }
    for (start, results) in finished.into_iter().flatten() {
        for (k, result) in results.into_iter().enumerate() {
            done[start + k] = Some(result);
        }
    }
    executed.workers = worker_count(order.len());
    Ok(executed)
}

/// The fresh engine of one sweep job: `make(n)` on `n` agents, seeded from
/// the job seed. Also what snapshot-interval jobs of the checkpointed sweep
/// start from.
pub(crate) fn fresh_engine<P, F>(
    make: &F,
    n: usize,
    seed: u64,
) -> CountSimulation<P, Xoshiro256PlusPlus>
where
    P: LeaderElection,
    F: Fn(usize) -> P,
{
    CountSimulation::new(make(n), n, Xoshiro256PlusPlus::seed_from_u64(seed))
        .expect("population sizes are >= 2 by construction")
}

/// One sweep job: runs a [`fresh_engine`] to a single leader within
/// `max_steps` and returns `(converged, parallel_time)`.
pub(crate) fn run_election<P, F>(make: &F, n: usize, seed: u64, max_steps: u64) -> (bool, f64)
where
    P: LeaderElection,
    F: Fn(usize) -> P,
{
    let outcome = fresh_engine(make, n, seed).run_until_single_leader(max_steps);
    (outcome.converged, outcome.parallel_time(n))
}

/// Aggregates flat per-job outcomes into one [`SweepPoint`] per entry of
/// `ns`, by contiguous job range, not by population-size value: a repeated
/// n in `ns` must yield independent points instead of double-counting
/// every run of that size into each of them.
pub(crate) fn aggregate_points(
    ns: &[usize],
    seeds: u64,
    outcomes: &[(bool, f64)],
) -> Vec<SweepPoint> {
    ns.iter()
        .enumerate()
        .map(|(ni, &n)| {
            let mut times = Summary::new();
            let mut unconverged = 0;
            let range = ni * seeds as usize..(ni + 1) * seeds as usize;
            for &(converged, t) in &outcomes[range] {
                if converged {
                    times.push(t);
                } else {
                    unconverged += 1;
                }
            }
            SweepPoint {
                n,
                times,
                unconverged,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{fingerprint, load_journal, JOURNAL_FILE};
    use pp_protocols::Fratricide;
    use std::path::PathBuf;

    /// A unique scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("ppexec_test_{}_{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn journal(&self) -> PathBuf {
            self.0.join(JOURNAL_FILE)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A job-indexed result table, as [`execute`] fills it in.
    type Results = Vec<Option<(bool, f64)>>;

    /// Every job of a fratricide grid, run straight through.
    fn plain(ns: &[usize], seeds: u64, master: u64) -> Vec<(bool, f64)> {
        run_grid(ns, seeds, master, |n, seed| {
            run_election(&|_| Fratricide, n, seed, u64::MAX)
        })
    }

    /// One journaled fan-out of a fratricide grid at bundle width `lanes`,
    /// resuming from `dir`'s journal: the checkpointed sweep's bundle mode
    /// at any width (same fingerprint, so its journals are interchangeable).
    fn journaled(
        dir: &Scratch,
        (ns, seeds, master): (&[usize], u64, u64),
        lanes: usize,
        job_limit: Option<usize>,
    ) -> io::Result<(Executed, Results)> {
        let fp = fingerprint(ns, seeds, master, u64::MAX, false);
        let path = dir.journal();
        let mut done = load_journal(&path, fp, ns.len() * seeds as usize)?;
        let fanout = Fanout {
            job_limit,
            claim: None,
            journal: Some((&path, fp)),
            after_block: None,
        };
        let executed = execute(
            &sweep_bundles(ns, seeds, master, lanes),
            &mut done,
            &fanout,
            |_, n, seed| Ok(run_election(&|_| Fratricide, n, seed, u64::MAX)),
        )?;
        Ok((executed, done))
    }

    fn assert_bits_equal(done: &[Option<(bool, f64)>], expected: &[(bool, f64)], what: &str) {
        assert_eq!(done.len(), expected.len(), "{what}");
        for (i, (got, want)) in done.iter().zip(expected).enumerate() {
            let got = got.unwrap_or_else(|| panic!("{what}: job {i} missing"));
            assert_eq!(got.0, want.0, "{what}: job {i}");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}: job {i}");
        }
    }

    #[test]
    fn executor_journals_the_same_results_at_every_bundle_width() {
        // 7 seeds per size: widths 3 and 8 leave ragged final bundles.
        let grid = (&[64usize, 16, 32][..], 7u64, 2024u64);
        let expected = plain(grid.0, grid.1, grid.2);
        for lanes in [1usize, 3, 8] {
            let what = format!("width {lanes}");
            let dir = Scratch::new(&format!("width_{lanes}"));
            let (executed, done) = journaled(&dir, grid, lanes, None).expect("fan-out runs");
            assert_eq!(executed.fresh_jobs, expected.len(), "{what}");
            assert!(!executed.suspended, "{what}");
            assert_bits_equal(&done, &expected, &what);
            // Replaying the journal reads back the same bits.
            let fp = fingerprint(grid.0, grid.1, grid.2, u64::MAX, false);
            let replayed = load_journal(&dir.journal(), fp, expected.len()).unwrap();
            assert_bits_equal(&replayed, &expected, &format!("{what}, replayed"));
            let markers = std::fs::read_to_string(dir.journal())
                .unwrap()
                .lines()
                .filter(|l| l.starts_with("bundle "))
                .count();
            assert_eq!(markers, 3 * 7usize.div_ceil(lanes), "{what}");
        }
    }

    #[test]
    fn executor_job_limit_takes_bundles_largest_n_first() {
        // Crash after every 3 fresh jobs until the grid completes. At
        // width 2 each size's 5 seeds bundle as [2, 2, 1]; bundles are
        // taken largest-n-first until the taken jobs reach 3, so the
        // rounds take n = 24's [2, 2], then its [1] and n = 16's [2], then
        // n = 16's [2, 1].
        let dir = Scratch::new("limit");
        let grid = (&[16usize, 24][..], 5u64, 77u64);
        let mut rounds = Vec::new();
        let done = loop {
            assert!(rounds.len() < 20, "fan-out failed to make progress");
            let (executed, done) = journaled(&dir, grid, 2, Some(3)).expect("fan-out runs");
            rounds.push(executed.fresh_jobs);
            let complete = done.iter().all(Option::is_some);
            assert_eq!(executed.suspended, !complete);
            if complete {
                break done;
            }
        };
        assert_eq!(rounds, vec![4, 3, 3], "10 jobs in width-2 bundles");
        assert_bits_equal(&done, &plain(grid.0, grid.1, grid.2), "resumed");
        // A finished journal replays: nothing fresh, same bits.
        let (executed, replayed) = journaled(&dir, grid, 2, Some(3)).expect("replay runs");
        assert_eq!(executed.fresh_jobs, 0);
        assert!(!executed.suspended);
        assert_bits_equal(&replayed, &plain(grid.0, grid.1, grid.2), "replayed");
    }

    #[test]
    fn executor_resumes_a_journal_at_another_width() {
        // Width 2 journals jobs 0 and 1; width-3 bundles [0, 3) and [3, 4)
        // are both incomplete, so all four jobs run.
        let dir = Scratch::new("rewidth");
        let grid = (&[16usize][..], 4u64, 1u64);
        let (first, _) = journaled(&dir, grid, 2, Some(1)).expect("fan-out runs");
        assert_eq!((first.fresh_jobs, first.suspended), (2, true));
        let (second, done) = journaled(&dir, grid, 3, None).expect("another width resumes");
        assert_eq!((second.fresh_jobs, second.suspended), (4, false));
        assert_bits_equal(&done, &plain(grid.0, grid.1, grid.2), "rewidth");
    }

    #[test]
    fn executor_reruns_torn_records_and_blocks() {
        let grid = (&[16usize][..], 4u64, 13u64);
        let expected = plain(grid.0, grid.1, grid.2);
        // A record cut off halfway through, after two one-job blocks: the
        // torn tail is tolerated and its job reruns.
        let dir = Scratch::new("torn_record");
        journaled(&dir, grid, 1, Some(2)).expect("fan-out runs");
        let mut text = std::fs::read_to_string(dir.journal()).unwrap();
        text.push_str("bundle 2 1\ndone 2 1 3ff");
        std::fs::write(dir.journal(), &text).unwrap();
        let (executed, done) = journaled(&dir, grid, 1, None).expect("torn tail is tolerated");
        assert_eq!(executed.fresh_jobs, 2);
        assert_bits_equal(&done, &expected, "torn record");

        // A width-2 block cut after its first record: the bundle is
        // incomplete, so both of its jobs rerun.
        let dir = Scratch::new("torn_block");
        journaled(&dir, grid, 2, Some(1)).expect("fan-out runs");
        let text = std::fs::read_to_string(dir.journal()).unwrap();
        // header + "bundle 0 2" + two done lines: drop the final done line.
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "unexpected journal shape:\n{text}");
        lines.pop();
        std::fs::write(dir.journal(), lines.join("\n") + "\n").unwrap();
        let (executed, done) = journaled(&dir, grid, 2, None).expect("incomplete bundles rerun");
        assert_eq!(
            executed.fresh_jobs, 4,
            "the cut bundle plus the remaining one"
        );
        assert_bits_equal(&done, &expected, "torn block");
    }

    #[test]
    fn executor_claims_in_cost_order_under_the_job_limit() {
        // Width 2, 5 seeds: n = 16 bundles start at 0, 2, 4 and n = 32
        // bundles at 5, 7, 9. Another process holds bundle 7. With a
        // limit of 4 the picks go 5 (2 jobs), 7 (lost), 9 (1 job), 0
        // (2 jobs, reaching the limit) and stop — on every thread timing.
        let bundles = sweep_bundles(&[16, 32], 5, 3, 2);
        for _ in 0..20 {
            let tried = Mutex::new(Vec::new());
            let claim = |b: &SweepBundle| {
                tried.lock().unwrap().push(b.start);
                Ok(b.start != 7)
            };
            let fanout = Fanout {
                job_limit: Some(4),
                claim: Some(&claim),
                ..Fanout::default()
            };
            let mut done = vec![None; 10];
            let executed = execute(&bundles, &mut done, &fanout, |_, n, seed| {
                Ok(run_election(&|_| Fratricide, n, seed, u64::MAX))
            })
            .expect("fan-out runs");
            assert_eq!(tried.into_inner().unwrap(), vec![5, 7, 9, 0]);
            assert_eq!((executed.fresh_jobs, executed.suspended), (5, true));
            let ran: Vec<usize> = (0..10).filter(|&i| done[i].is_some()).collect();
            assert_eq!(ran, vec![0, 1, 5, 6, 9]);
        }
    }

    #[test]
    fn executor_returns_the_first_io_error() {
        let bundles = sweep_bundles(&[16], 6, 3, 2);
        let dir = Scratch::new("failing_run");
        let path = dir.journal();
        let fanout = Fanout {
            job_limit: None,
            claim: None,
            journal: Some((&path, 1)),
            after_block: None,
        };
        let mut done = vec![None; 6];
        let err = execute(&bundles, &mut done, &fanout, |job, n, seed| {
            if job == 3 {
                return Err(io::Error::other("job 3 failed"));
            }
            Ok(run_election(&|_| Fratricide, n, seed, u64::MAX))
        })
        .expect_err("a failing job fails the fan-out");
        assert_eq!(err.to_string(), "job 3 failed");
        // The failed bundle [2, 4) was never journaled.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("bundle 2 2"), "{text}");

        let claim = |_: &SweepBundle| Err(io::Error::other("claim failed"));
        let fanout = Fanout {
            claim: Some(&claim),
            ..Fanout::default()
        };
        let err = execute(&bundles, &mut [None; 6], &fanout, |_, _, _| {
            panic!("nothing runs without a claim")
        })
        .expect_err("a failing claim fails the fan-out");
        assert_eq!(err.to_string(), "claim failed");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&jobs, |&x| x + 1);
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn parallel_map_propagates_worker_panics() {
        // A panicking job must surface in the caller (via the worker's join
        // handle), not silently poison a result slot.
        let jobs: Vec<u64> = (0..64).collect();
        parallel_map(&jobs, |&x| {
            assert!(x != 13, "unlucky job");
            x
        });
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let out: Vec<u64> = parallel_map(&[], |&x: &u64| x);
        assert!(out.is_empty());
        let out = parallel_map(&[7u64], |&x| x * 2);
        assert_eq!(out, vec![14]);
    }

    #[test]
    fn rollups_record_fanout_throughput() {
        // The flag is process-global, so concurrent tests may add rollups
        // of their own; assert ours is among the drained set.
        enable_sweep_rollup();
        let jobs: Vec<u64> = (0..137).collect();
        let _ = parallel_map(&jobs, |&x| x);
        let rollups = take_sweep_rollups();
        let ours = rollups
            .iter()
            .find(|r| r.jobs == 137)
            .expect("the fan-out recorded a rollup");
        assert!(ours.workers >= 1);
        assert!(ours.wall_seconds >= 0.0);
        assert!(ours.jobs_per_second > 0.0);
        let json = ours.to_json();
        assert!(json.contains("\"jobs\":137"), "{json}");
    }

    #[test]
    fn rollup_json_carries_process_and_shard_identity() {
        let mut rollup = SweepRollup {
            jobs: 4,
            workers: 2,
            wall_seconds: 2.0,
            jobs_per_second: 2.0,
            pid: 7,
            shard: None,
        };
        let json = rollup.to_json();
        assert!(json.contains("\"pid\":7"), "{json}");
        assert!(json.contains("\"shard\":null"), "{json}");
        rollup.shard = Some(3);
        let json = rollup.to_json();
        assert!(json.contains("\"shard\":3"), "{json}");
    }

    #[test]
    fn eta_suffix_qualifies_straggler_dominated_estimates() {
        // No completed jobs yet, or nothing left: no estimate.
        assert_eq!(eta_suffix(0, 4, 10, 1.0), "");
        assert_eq!(eta_suffix(10, 10, 10, 1.0), "");
        // Completed-rate extrapolation: 5 done in 5 s → 1 job/s, 5 remain.
        // Nothing claimed beyond the finished jobs — plain estimate.
        assert_eq!(eta_suffix(5, 5, 10, 5.0), ", eta 5s");
        // In-flight stragglers below half the remainder — still plain.
        assert_eq!(eta_suffix(5, 7, 10, 5.0), ", eta 5s");
        // Claimed-but-unfinished ≥ half of what remains: the extrapolation
        // is a floor, and the line must say so.
        assert_eq!(eta_suffix(5, 9, 10, 5.0), ", eta \u{2265} 5s");
        assert_eq!(eta_suffix(2, 10, 10, 4.0), ", eta \u{2265} 16s");
    }

    #[test]
    fn cost_order_is_largest_n_first_and_stable() {
        // ns deliberately not sorted: 5 seeds at width 2 → bundles
        // [2, 2, 1] per size, and the executor must pick every n = 64
        // bundle first while preserving job order within each size. A
        // claim hook that loses every bundle records the pick order.
        let bundles = sweep_bundles(&[16, 64, 32], 5, 3, 2);
        let picked = Mutex::new(Vec::new());
        let claim = |b: &SweepBundle| {
            picked.lock().unwrap().push((b.n, b.start));
            Ok(false)
        };
        let fanout = Fanout {
            claim: Some(&claim),
            ..Fanout::default()
        };
        execute(&bundles, &mut [None; 15], &fanout, |_, _, _| {
            panic!("no bundle was claimed")
        })
        .expect("fan-out runs");
        let (ns, starts): (Vec<usize>, Vec<usize>) =
            picked.into_inner().unwrap().into_iter().unzip();
        assert_eq!(ns, vec![64, 64, 64, 32, 32, 32, 16, 16, 16]);
        assert_eq!(starts, vec![5, 7, 9, 10, 12, 14, 0, 2, 4]);
    }

    #[test]
    fn largest_n_first_scheduling_keeps_results_in_job_order() {
        // The scheduled sweep must scatter back to exactly the flat
        // job-order results of a plain job-by-job traversal — same order,
        // same bits.
        let ns = [32usize, 16];
        let flat = run_grid(&ns, 5, 42, |n, seed| {
            run_election(&|_| Fratricide, n, seed, u64::MAX)
        });
        let expected: Vec<(bool, f64)> = sweep_jobs(&ns, 5, 42)
            .iter()
            .map(|&(n, seed)| run_election(&|_| Fratricide, n, seed, u64::MAX))
            .collect();
        assert_eq!(flat.len(), expected.len());
        for (a, b) in flat.iter().zip(&expected) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn worker_override_clamps_like_engine_config() {
        // Parseable values clamp into 1..=MAX_WORKERS; garbage and absence
        // fall back to the detected parallelism (itself clamped).
        assert_eq!(worker_override(Some("4"), 8), 4);
        assert_eq!(worker_override(Some(" 12 "), 8), 12);
        assert_eq!(worker_override(Some("0"), 8), 1);
        assert_eq!(worker_override(Some("9999999"), 8), MAX_WORKERS);
        assert_eq!(worker_override(Some("two"), 8), 8);
        assert_eq!(worker_override(Some(""), 8), 8);
        assert_eq!(worker_override(None, 8), 8);
        assert_eq!(worker_override(None, 0), 1);
    }

    #[test]
    fn sweep_bundles_partition_the_job_list() {
        // 5 seeds at width 2 → [2, 2, 1] per size; bundles never span
        // sizes, starts are the flat job indices, seeds match sweep_jobs.
        let ns = [16usize, 32];
        let (seeds, master) = (5u64, 3u64);
        let jobs = sweep_jobs(&ns, seeds, master);
        let bundles = sweep_bundles(&ns, seeds, master, 2);
        assert_eq!(bundles.len(), 6);
        let widths: Vec<usize> = bundles.iter().map(|b| b.seeds.len()).collect();
        assert_eq!(widths, vec![2, 2, 1, 2, 2, 1]);
        let mut flat = 0;
        for bundle in &bundles {
            assert_eq!(bundle.start, flat);
            for (k, &seed) in bundle.seeds.iter().enumerate() {
                assert_eq!((bundle.n, seed), jobs[flat + k]);
            }
            flat += bundle.seeds.len();
        }
        assert_eq!(flat, jobs.len());
    }

    #[test]
    fn sweep_is_deterministic_and_converges() {
        let ns = [16usize, 32];
        let a = stabilization_sweep(|_| Fratricide, &ns, 5, 42, u64::MAX);
        let b = stabilization_sweep(|_| Fratricide, &ns, 5, 42, u64::MAX);
        assert_eq!(a.len(), 2);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.n, pb.n);
            assert_eq!(pa.unconverged, 0);
            assert_eq!(pa.times.count(), 5);
            assert!((pa.times.mean() - pb.times.mean()).abs() < 1e-12);
        }
    }

    #[test]
    fn engine_sweeps_agree_distributionally() {
        // The count-engine sweep and the agent-engine sweep sample the
        // same Markov chain: over enough seeds their means must agree
        // loosely (fratricide at n=32 has E[parallel time] ≈ n).
        let ns = [32usize];
        let fast = stabilization_sweep(|_| Fratricide, &ns, 24, 7, u64::MAX);
        let slow = stabilization_sweep_agents(|_| Fratricide, &ns, 24, 7, u64::MAX);
        assert_eq!(fast[0].unconverged, 0);
        assert_eq!(slow[0].unconverged, 0);
        let (a, b) = (fast[0].times.mean(), slow[0].times.mean());
        assert!((a / b - 1.0).abs() < 0.5, "count {a} vs agent {b}");
    }

    #[test]
    fn sweep_counts_unconverged_runs() {
        // A 1-step budget cannot elect among 16 leaders.
        let points = stabilization_sweep(|_| Fratricide, &[16], 4, 1, 1);
        assert_eq!(points[0].unconverged, 4);
        assert_eq!(points[0].times.count(), 0);
    }

    #[test]
    fn repeated_sizes_aggregate_into_independent_points() {
        // Regression: aggregation used to filter outcomes by the size
        // *value*, so ns = [8, 8] double-counted every run of that size
        // into both points (2 × seeds observations each). Each point must
        // hold exactly its own seeds — and distinct ones, since job seeds
        // derive from the packed (size index, seed index).
        let seeds = 6;
        let points = stabilization_sweep(|_| Fratricide, &[8, 8], seeds, 99, u64::MAX);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.n, 8);
            assert_eq!(p.times.count() + p.unconverged, seeds);
        }
        // Different seed blocks: equality of the two means would be a
        // (astronomically unlikely) coincidence.
        assert!(
            (points[0].times.mean() - points[1].times.mean()).abs() > 1e-9,
            "repeated sizes appear to share seed streams"
        );
    }

    #[test]
    fn sweep_rides_the_jump_scheduler_at_scale() {
        // 2^14 fratricide takes Θ(n²) ≈ 2.7e8 interactions per run — hours
        // of debug-build stepping without null telescoping, milliseconds
        // with it. Completing at all (under an effectively unbounded
        // budget) is the assertion.
        let points = stabilization_sweep(|_| Fratricide, &[1 << 14], 2, 5, u64::MAX);
        assert_eq!(points[0].unconverged, 0);
        assert_eq!(points[0].times.count(), 2);
        // E[parallel time] ≈ n for fratricide.
        let mean = points[0].times.mean();
        let n = (1 << 14) as f64;
        assert!(
            (mean / n - 1.0).abs() < 0.5,
            "mean parallel time {mean} far from the Θ(n) law at n = {n}"
        );
    }
}
