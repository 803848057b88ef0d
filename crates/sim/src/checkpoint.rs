//! Crash-recoverable sweep shards: per-job journals plus mid-job engine
//! snapshots.
//!
//! A checkpointed sweep records progress in a *journal* — a line-oriented
//! text file listing every completed job with its exact result — and,
//! optionally, periodic [`CountSimulation::snapshot`]s of jobs still in
//! flight. Killing the process at any point loses at most the work since the
//! last journal append / snapshot; rerunning the same sweep with the same
//! checkpoint directory picks up where it left off.
//!
//! # Journal format (`ppsweep v4`)
//!
//! The header line fingerprints the sweep parameters **and the execution
//! mode**. Two record kinds follow:
//!
//! * `done <job> <0|1> <f64-bits-hex>` — one completed job.
//! * `bundle <start> <len>` — a bundle marker: the `len` `done` records of
//!   bundle `[start, start + len)` follow as one appended block.
//!
//! Every append is one bundle block, written by the sweep executor
//! ([`crate::runner::execute`]) in a single buffered write, so a crash tears
//! at most the final block. In the default bundle mode (no snapshot
//! interval) a block holds a [`crate::sweep_lane_width`]-wide bundle of
//! same-`n` jobs, each a fresh election; in snapshot-interval mode every
//! bundle is one job, so each snapshot captures exactly one run. A bundle
//! missing *any* record (e.g. its block was torn by a crash mid-append)
//! reruns whole on resume; runs are deterministic, so rerun jobs rewrite
//! identical records. The job limit is the executor's: pending bundles are
//! taken largest-`n`-first until the taken jobs reach the limit
//! (overshooting by at most the bundle width minus one).
//!
//! A journal of another format version is refused (`InvalidData`), never
//! merged.
//!
//! # Determinism contract
//!
//! A killed-then-resumed sweep aggregates into [`SweepPoint`]s that are
//! **bit-identical** to an uninterrupted sweep with the same configuration:
//! job results are journaled as exact `f64` bit patterns and re-aggregated in
//! job-index order, so every mean, variance, and quantile string downstream
//! comes out byte-for-byte equal.
//!
//! With `snapshot_interval: None` every job is run exactly like
//! [`stabilization_sweep`] runs it, so the checkpointed sweep equals the
//! plain sweep bit-for-bit at every bundle width. With
//! `snapshot_interval: Some(i)` jobs are driven in segments that end at
//! fixed absolute step multiples of `i`; segment boundaries are a function
//! of the step counter alone, so a job resumed from a snapshot replays the
//! same boundaries and stays bit-identical to the same job run without the
//! kill *at the same interval*. A segment boundary cuts a batch round short,
//! so the two modes sample the same law but are not bit-comparable to each
//! other: the mode is part of the journal fingerprint — resuming under a
//! different mode is an `InvalidData` error, not a silent law-only answer.
//! The bundle width is not fingerprinted: it changes no result.
//!
//! [`stabilization_sweep`]: crate::stabilization_sweep

use crate::runner::{
    aggregate_points, execute, fresh_engine, run_election, sweep_bundles, validate_grid, Fanout,
    SweepBundle, SweepPoint,
};
use pp_engine::{CountSimulation, LeaderElection, SnapshotState};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Journal file name inside a sweep's checkpoint directory.
pub(crate) const JOURNAL_FILE: &str = "journal.txt";

/// Journal header prefix; the version is part of the format. `v2` added
/// bundle blocks and the execution mode in the fingerprint; `v3` made every
/// job an independent election, so results no longer depend on the bundle
/// width; `v4` dropped the round-law word from the fingerprint when the
/// batch tier kept one round (a `v3` journal's default-law results differ
/// from it).
pub(crate) const HEADER_PREFIX: &str = "ppsweep v4";

/// Where and how a sweep checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding this sweep's journal and in-flight job snapshots.
    /// Created if absent. One directory per sweep — sweeps must not share.
    pub dir: PathBuf,
    /// Snapshot in-flight jobs every this many simulation steps (rounded to
    /// the next absolute multiple). `None` — the default — journals only
    /// completed bundles, which keeps the sweep bit-identical to the
    /// uncheckpointed one; `Some` journals jobs in one-job bundles so each
    /// snapshot captures exactly one run.
    pub snapshot_interval: Option<u64>,
    /// Stop after completing this many *fresh* (not journaled) jobs and
    /// report [`SweepStatus::Suspended`]. `None` runs to completion. Used to
    /// bound a shard's work — and by the tests to simulate crashes at
    /// deterministic points. In bundle mode the limit is bundle-granular:
    /// the last bundle taken may overshoot it by up to the bundle width
    /// minus one.
    pub job_limit: Option<usize>,
}

impl CheckpointConfig {
    /// A config that journals completed jobs in `dir` with no mid-job
    /// snapshots and no job limit.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_interval: None,
            job_limit: None,
        }
    }
}

/// Outcome of a checkpointed sweep invocation.
#[derive(Debug)]
pub enum SweepStatus {
    /// Every job has a journaled result; `points` aggregates them in job
    /// order, bit-identical to an uninterrupted sweep.
    Complete {
        /// One aggregated point per entry of `ns`, exactly as
        /// [`crate::stabilization_sweep`] would return them.
        points: Vec<SweepPoint>,
        /// Jobs executed by *this* invocation (the rest came from the
        /// journal).
        fresh_jobs: usize,
    },
    /// The job limit was reached with jobs still pending; rerun with the
    /// same checkpoint directory to continue.
    Suspended {
        /// Jobs executed by this invocation before suspending.
        fresh_jobs: usize,
    },
}

/// [`crate::stabilization_sweep`] with crash recovery: journals every
/// completed bundle under `ckpt.dir` and resumes from whatever a previous
/// invocation left there. The bundle width is [`crate::sweep_lane_width`].
///
/// A killed-then-resumed sweep aggregates into points bit-identical to an
/// uninterrupted sweep with the same configuration. The sweep
/// parameters — including the execution mode — are
/// fingerprinted into the journal header; reusing a checkpoint directory
/// with different parameters is an error (`InvalidData`), not a silent
/// wrong answer.
///
/// # Errors
///
/// `InvalidInput` for a grid with `seeds ≥ 2^32` or a size below 2; the
/// first journal or snapshot I/O error; or a journal whose fingerprint does
/// not match the given parameters (`InvalidData`).
pub fn stabilization_sweep_checkpointed<P, F>(
    make: F,
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    max_steps: u64,
    ckpt: &CheckpointConfig,
) -> io::Result<SweepStatus>
where
    P: LeaderElection,
    P::State: SnapshotState,
    F: Fn(usize) -> P + Sync,
{
    validate_grid(ns, seeds)?;
    let interval = ckpt.snapshot_interval;
    let fp = fingerprint(ns, seeds, master_seed, max_steps, interval.is_some());
    std::fs::create_dir_all(&ckpt.dir)?;
    let journal_path = ckpt.dir.join(JOURNAL_FILE);
    let mut done = load_journal(&journal_path, fp, ns.len() * seeds as usize)?;
    // A snapshot goes once its job's record has landed, so a crash between
    // the two at worst redoes a completed job.
    let discard_snapshot = |bundle: &SweepBundle, _: usize| {
        if interval.is_some() {
            let _ = std::fs::remove_file(job_snapshot_path(&ckpt.dir, bundle.start));
        }
    };
    let fanout = Fanout {
        job_limit: ckpt.job_limit,
        claim: None,
        journal: Some((&journal_path, fp)),
        after_block: Some(&discard_snapshot),
    };
    let lanes = interval.map_or(crate::sweep_lane_width(), |_| 1);
    let executed = execute(
        &sweep_bundles(ns, seeds, master_seed, lanes),
        &mut done,
        &fanout,
        |job, n, seed| match interval {
            Some(interval) => run_job(
                &make,
                n,
                seed,
                max_steps,
                interval,
                &job_snapshot_path(&ckpt.dir, job),
            ),
            None => Ok(run_election(&make, n, seed, max_steps)),
        },
    )?;

    // Aggregate by contiguous job range in job-index order — the exact
    // traversal of the uncheckpointed sweep, so the summaries match it
    // bit-for-bit no matter which jobs came from the journal.
    let fresh_jobs = executed.fresh_jobs;
    match done.into_iter().collect::<Option<Vec<_>>>() {
        Some(flat) => Ok(SweepStatus::Complete {
            points: aggregate_points(ns, seeds, &flat),
            fresh_jobs,
        }),
        None => Ok(SweepStatus::Suspended { fresh_jobs }),
    }
}

/// Runs one snapshot-interval mode sweep job, resuming from its snapshot
/// file when a readable one exists and writing fresh snapshots at every
/// interval boundary.
fn run_job<P, F>(
    make: &F,
    n: usize,
    seed: u64,
    max_steps: u64,
    interval: u64,
    snapshot_path: &Path,
) -> io::Result<(bool, f64)>
where
    P: LeaderElection,
    P::State: SnapshotState,
    F: Fn(usize) -> P,
{
    // An unreadable or corrupt snapshot degrades to restarting the job from
    // its seed — same trajectory, just recomputed (segment boundaries are a
    // function of the step counter, so the replay takes the same path).
    let resumed = std::fs::read(snapshot_path)
        .ok()
        .and_then(|bytes| CountSimulation::resume(make(n), &bytes).ok());
    let mut sim = resumed.unwrap_or_else(|| fresh_engine(make, n, seed));

    let interval = interval.max(1);
    loop {
        // Next absolute boundary strictly above the current step
        // count — identical whether this job runs straight through
        // or resumes from any snapshot.
        let target = (sim.steps() / interval + 1)
            .saturating_mul(interval)
            .min(max_steps);
        let out = sim.run_until_single_leader(target);
        if out.converged || sim.steps() >= max_steps {
            return Ok((out.converged, out.parallel_time(n)));
        }
        write_atomically(snapshot_path, &sim.snapshot())?;
    }
}

/// The snapshot file of in-flight job `index`.
fn job_snapshot_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("job_{index}.ckpt"))
}

/// Writes via a temporary file + rename so readers never observe a torn
/// snapshot.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// FNV-1a 64 over the sweep parameters plus the execution mode: the
/// journal's compatibility check. `snapshots` is whether jobs run in
/// snapshot-interval segments — the two modes' results agree in law but
/// not bit-for-bit, so mixing them in one journal must be rejected.
pub(crate) fn fingerprint(
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    max_steps: u64,
    snapshots: bool,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(ns.len() as u64);
    for &n in ns {
        eat(n as u64);
    }
    eat(seeds);
    eat(master_seed);
    eat(max_steps);
    eat(u64::from(snapshots));
    h
}

/// Parses the journal at `path` into a job-indexed result table (`None`:
/// no record; a missing file has none). Checks the header fingerprint and
/// tolerates exactly one trailing unparseable line (a record cut short by a
/// crash mid-append).
pub(crate) fn load_journal(
    path: &Path,
    fp: u64,
    job_count: usize,
) -> io::Result<Vec<Option<(bool, f64)>>> {
    let mut done = vec![None; job_count];
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(done),
        Err(e) => return Err(e),
    };
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let lines: Vec<&str> = text.lines().collect();
    let Some((&header, records)) = lines.split_first() else {
        return Ok(done);
    };
    let expected_header = format!("{HEADER_PREFIX} {fp:016x}");
    if header != expected_header {
        return Err(bad(format!(
            "sweep journal {} does not match these sweep parameters \
             (header `{header}`, expected `{expected_header}`); \
             use a fresh checkpoint directory per sweep configuration",
            path.display()
        )));
    }
    for (k, line) in records.iter().enumerate() {
        match parse_record(line, job_count) {
            Some((index, result)) => done[index] = Some(result),
            // Bundle markers delimit appended blocks; the job results live
            // in the `done` records that follow, so the marker itself
            // carries no data — it is validated and skipped. A bundle whose
            // block was cut short simply ends up with missing job records
            // and reruns.
            None if parse_bundle_marker(line, job_count).is_some() => {}
            // Only the final record may be torn; anything else is corruption.
            None if k + 1 == records.len() => {}
            None => {
                return Err(bad(format!(
                    "corrupt sweep journal {}: unparseable record `{line}`",
                    path.display()
                )));
            }
        }
    }
    Ok(done)
}

/// Parses `done <index> <0|1> <f64-bits-hex>`; `None` on any malformation.
fn parse_record(line: &str, job_count: usize) -> Option<(usize, (bool, f64))> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "done" {
        return None;
    }
    let index: usize = fields.next()?.parse().ok()?;
    let converged = match fields.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let bits_field = fields.next()?;
    if bits_field.len() != 16 || fields.next().is_some() || index >= job_count {
        return None;
    }
    let time = f64::from_bits(u64::from_str_radix(bits_field, 16).ok()?);
    Some((index, (converged, time)))
}

/// Parses `bundle <start> <len>`; `None` on any malformation, including a
/// bundle range that overruns the job list.
fn parse_bundle_marker(line: &str, job_count: usize) -> Option<()> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "bundle" {
        return None;
    }
    let start: usize = fields.next()?.parse().ok()?;
    let len: usize = fields.next()?.parse().ok()?;
    if fields.next().is_some() || len == 0 || start.checked_add(len)? > job_count {
        return None;
    }
    Some(())
}

/// Appends one journal block to `out`: the `bundle <start> <len>` marker,
/// then the `done` record of job `start + k` for each `results[k]`. The one
/// formatter of journal records — the executor's appends and the fabric's
/// canonical journal alike.
pub(crate) fn write_block(out: &mut String, start: usize, results: &[(bool, f64)]) {
    let _ = writeln!(out, "bundle {start} {}", results.len());
    for (k, &(converged, time)) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "done {} {} {:016x}",
            start + k,
            u8::from(converged),
            time.to_bits()
        );
    }
}

/// Opens the journal for appending, writing the header first when the file
/// is new or empty.
pub(crate) fn open_journal_for_append(path: &Path, fp: u64) -> io::Result<std::fs::File> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if file.metadata()?.len() == 0 {
        writeln!(file, "{HEADER_PREFIX} {fp:016x}")?;
        file.flush()?;
    }
    Ok(file)
}

/// Checkpoint context threaded through a multi-sweep experiment (each sweep
/// gets a labeled subdirectory; the fresh-job budget is shared across them).
#[derive(Debug)]
pub struct ExperimentCheckpoint {
    base: PathBuf,
    snapshot_interval: Option<u64>,
    budget: Option<usize>,
}

impl ExperimentCheckpoint {
    /// Creates a context rooted at `base` with an optional mid-job snapshot
    /// interval and an optional shared fresh-job budget.
    pub fn new(
        base: impl Into<PathBuf>,
        snapshot_interval: Option<u64>,
        budget: Option<usize>,
    ) -> Self {
        Self {
            base: base.into(),
            snapshot_interval,
            budget,
        }
    }

    /// The [`CheckpointConfig`] for the sweep labeled `label`, carrying
    /// whatever fresh-job budget remains.
    pub fn sweep_config(&self, label: &str) -> CheckpointConfig {
        CheckpointConfig {
            dir: self.base.join(label),
            snapshot_interval: self.snapshot_interval,
            job_limit: self.budget,
        }
    }

    /// Deducts `fresh` completed jobs from the shared budget.
    pub fn consume(&mut self, fresh: usize) {
        if let Some(budget) = &mut self.budget {
            *budget = budget.saturating_sub(fresh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_protocols::Fratricide;

    /// A unique scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("ppsweep_test_{}_{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn assert_points_bit_identical(a: &[SweepPoint], b: &[SweepPoint]) {
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(b) {
            assert_eq!(pa.n, pb.n);
            assert_eq!(pa.unconverged, pb.unconverged);
            let (va, vb) = (pa.times.values(), pb.times.values());
            assert_eq!(va.len(), vb.len());
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "n = {}", pa.n);
            }
        }
    }

    #[test]
    fn uninterrupted_checkpointed_sweep_matches_plain_sweep() {
        // Every job is the same fresh election on both sides.
        let scratch = Scratch::new("plain_equiv");
        let ns = [16usize, 32];
        let plain = crate::stabilization_sweep(|_| Fratricide, &ns, 4, 11, u64::MAX);
        let ckpt = CheckpointConfig::new(&scratch.0);
        let status = stabilization_sweep_checkpointed(|_| Fratricide, &ns, 4, 11, u64::MAX, &ckpt)
            .expect("sweep checkpoints");
        let SweepStatus::Complete { points, fresh_jobs } = status else {
            panic!("no job limit: sweep must complete");
        };
        assert_eq!(fresh_jobs, 8);
        assert_points_bit_identical(&plain, &points);
    }

    /// Runs the checkpointed fratricide sweep of `ns × seeds` once.
    fn sweep(ns: &[usize], seeds: u64, master: u64, ckpt: &CheckpointConfig) -> SweepStatus {
        stabilization_sweep_checkpointed(|_| Fratricide, ns, seeds, master, u64::MAX, ckpt)
            .expect("sweep checkpoints")
    }

    #[test]
    fn killed_and_resumed_sweep_is_bit_identical_to_clean() {
        let scratch = Scratch::new("kill_resume");
        let ns = [16usize, 24];
        let (seeds, master) = (10u64, 77u64);
        let plain = crate::stabilization_sweep(|_| Fratricide, &ns, seeds, master, u64::MAX);

        // Crash after every 3 fresh jobs until the sweep completes. At the
        // default width of 8 each size's 10 seeds bundle as [8, 2]; bundles
        // are taken largest-n-first until the taken jobs reach 3, so the
        // rounds take n = 24's [8], then its [2] and n = 16's [8], then
        // n = 16's [2].
        let mut shard = CheckpointConfig::new(&scratch.0);
        shard.job_limit = Some(3);
        let mut fresh_per_round = Vec::new();
        let points = loop {
            assert!(fresh_per_round.len() < 20, "sweep failed to make progress");
            match sweep(&ns, seeds, master, &shard) {
                SweepStatus::Complete { points, fresh_jobs } => {
                    fresh_per_round.push(fresh_jobs);
                    break points;
                }
                SweepStatus::Suspended { fresh_jobs } => fresh_per_round.push(fresh_jobs),
            }
        };
        assert_eq!(
            fresh_per_round,
            vec![8, 10, 2],
            "20 jobs in width-8 bundles"
        );
        assert_points_bit_identical(&plain, &points);

        // Re-invoking a finished sweep replays the journal: zero fresh jobs,
        // same points.
        match sweep(&ns, seeds, master, &shard) {
            SweepStatus::Complete {
                points: replayed,
                fresh_jobs,
            } => {
                assert_eq!(fresh_jobs, 0);
                assert_points_bit_identical(&points, &replayed);
            }
            SweepStatus::Suspended { .. } => panic!("journal is complete"),
        }
    }

    #[test]
    fn mid_job_snapshots_resume_bit_identically() {
        // Both sides run at the same snapshot interval; the killed side is
        // forced through snapshot restores, the straight side is not.
        let ns = [64usize];
        let (seeds, master) = (2u64, 5u64);
        let straight_dir = Scratch::new("midjob_straight");
        let mut straight = CheckpointConfig::new(&straight_dir.0);
        straight.snapshot_interval = Some(512);
        let SweepStatus::Complete {
            points: expected, ..
        } = stabilization_sweep_checkpointed(
            |_| Fratricide,
            &ns,
            seeds,
            master,
            u64::MAX,
            &straight,
        )
        .expect("sweep checkpoints")
        else {
            panic!("no job limit: sweep must complete");
        };

        let killed_dir = Scratch::new("midjob_killed");
        let mut killed = CheckpointConfig::new(&killed_dir.0);
        killed.snapshot_interval = Some(512);
        killed.job_limit = Some(1);
        let points = loop {
            match stabilization_sweep_checkpointed(
                |_| Fratricide,
                &ns,
                seeds,
                master,
                u64::MAX,
                &killed,
            )
            .expect("sweep checkpoints")
            {
                SweepStatus::Complete { points, .. } => break points,
                SweepStatus::Suspended { .. } => {}
            }
        };
        assert_points_bit_identical(&expected, &points);
    }

    /// Job 1's snapshot file of the fratricide sweep `[64] × 2` at master
    /// seed 5 and snapshot interval 512, as format version 4 (with its
    /// config section) wrote it at step 512.
    const V4_JOB_SNAPSHOT: &str = concat!(
        "5050454e47534e5004000000010029000000000000000010000000000000080000000000",
        "00000400000000000000030000000000000000100000000000000102003a000000000000",
        "0040000000000000000002000000000000f7010000000000000200000000000000010b00",
        "000000000000003500000000000000000000000000000003002e00000000000000010104",
        "00000004000000000000000000000000100001000001000010000a010000000100000a01",
        "0001000110000a04006e000000000000000101000a000000000000007601000000000000",
        "010000000000000000000000000000000000000000000000000000000000000000000000",
        "000000000000000000000000000000000000000000000000000000000000008000000000",
        "000000800100000000000000000000000000000500280000000000000004000000000000",
        "00f6d8787e850adf41d27b1d0b31bbe3ed9aeaa26653db8118fc8dc443f7b90eca3e1d6c",
        "ec796884dc",
    );

    #[test]
    fn older_format_job_snapshot_is_refused_and_the_job_reruns() {
        let bytes: Vec<u8> = (0..V4_JOB_SNAPSHOT.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&V4_JOB_SNAPSHOT[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(
            CountSimulation::<Fratricide, pp_rand::Xoshiro256PlusPlus>::resume(Fratricide, &bytes)
                .err(),
            Some(pp_engine::SnapshotError::UnsupportedVersion { found: 4 })
        );
        let ns = [64usize];
        let straight_dir = Scratch::new("v4_straight");
        let mut straight = CheckpointConfig::new(&straight_dir.0);
        straight.snapshot_interval = Some(512);
        let SweepStatus::Complete {
            points: expected, ..
        } = sweep(&ns, 2, 5, &straight)
        else {
            panic!("no job limit: sweep must complete");
        };
        // The refused file leaves job 1 to rerun from step 0 under the same
        // segment boundaries, so the table is the uninterrupted one.
        let planted_dir = Scratch::new("v4_planted");
        let mut planted = CheckpointConfig::new(&planted_dir.0);
        planted.snapshot_interval = Some(512);
        std::fs::create_dir_all(&planted_dir.0).unwrap();
        let ckpt_path = job_snapshot_path(&planted_dir.0, 1);
        std::fs::write(&ckpt_path, &bytes).unwrap();
        let SweepStatus::Complete { points, fresh_jobs } = sweep(&ns, 2, 5, &planted) else {
            panic!("no job limit: sweep must complete");
        };
        assert_eq!(fresh_jobs, 2);
        assert_points_bit_identical(&expected, &points);
        assert!(
            !ckpt_path.exists(),
            "the finished job's snapshot is removed"
        );
    }

    #[test]
    fn journal_rejects_mismatched_sweep_parameters() {
        let scratch = Scratch::new("fingerprint");
        let ckpt = CheckpointConfig::new(&scratch.0);
        stabilization_sweep_checkpointed(|_| Fratricide, &[16], 2, 1, u64::MAX, &ckpt)
            .expect("sweep checkpoints");
        // Same directory, different master seed: must refuse, not mis-merge.
        let err = stabilization_sweep_checkpointed(|_| Fratricide, &[16], 2, 2, u64::MAX, &ckpt)
            .expect_err("fingerprint mismatch must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn journal_rejects_mismatched_execution_modes() {
        // Snapshot-interval results agree with bundle-mode results in law
        // but not bit-for-bit, so a journal written under one execution
        // mode must refuse the other. (The bundle width changes no result,
        // so a journal resumes at any width: see the executor's tests.)
        let scratch = Scratch::new("mode_mismatch");
        let ckpt = CheckpointConfig::new(&scratch.0);
        let mut limited = ckpt.clone();
        limited.job_limit = Some(1);
        sweep(&[16], 10, 1, &limited);
        let SweepStatus::Complete { points, fresh_jobs } = sweep(&[16], 10, 1, &ckpt) else {
            panic!("no job limit: sweep must complete");
        };
        // The limited run journaled bundle [0, 8); bundle [8, 10) remained.
        assert_eq!(fresh_jobs, 2);
        let plain = crate::stabilization_sweep(|_| Fratricide, &[16], 10, 1, u64::MAX);
        assert_points_bit_identical(&plain, &points);
        let mut scalar = ckpt.clone();
        scalar.snapshot_interval = Some(512);
        let err = stabilization_sweep_checkpointed(|_| Fratricide, &[16], 10, 1, u64::MAX, &scalar)
            .expect_err("mode mismatch must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn journal_tolerates_a_torn_final_record() {
        let scratch = Scratch::new("torn_tail");
        let ckpt = CheckpointConfig::new(&scratch.0);
        let mut limited = ckpt.clone();
        limited.job_limit = Some(1);
        sweep(&[16], 10, 9, &limited);
        // Simulate a crash mid-append: a record cut off halfway through.
        let journal = scratch.0.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&journal).unwrap();
        text.push_str("done 8 1 3ff");
        std::fs::write(&journal, &text).unwrap();
        let SweepStatus::Complete { points, fresh_jobs } = sweep(&[16], 10, 9, &ckpt) else {
            panic!("sweep must complete");
        };
        // The torn record was discarded, so its bundle [8, 10) reran.
        assert_eq!(fresh_jobs, 2);
        let plain = crate::stabilization_sweep(|_| Fratricide, &[16], 10, 9, u64::MAX);
        assert_points_bit_identical(&plain, &points);
    }

    #[test]
    fn torn_bundle_block_reruns_the_whole_bundle() {
        // Cut a width-8 bundle's block after its seventh job record: the
        // bundle is incomplete, so all of its jobs rerun — and, being
        // deterministic, land on the same points as the clean sweep.
        let scratch = Scratch::new("torn_bundle");
        let ckpt = CheckpointConfig::new(&scratch.0);
        let mut limited = ckpt.clone();
        limited.job_limit = Some(1);
        sweep(&[16], 10, 13, &limited);
        let journal = scratch.0.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&journal).unwrap();
        // header + "bundle 0 8" + eight done lines: drop the final one.
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 10, "unexpected journal shape:\n{text}");
        lines.pop();
        std::fs::write(&journal, lines.join("\n") + "\n").unwrap();
        let SweepStatus::Complete { points, fresh_jobs } = sweep(&[16], 10, 13, &ckpt) else {
            panic!("sweep must complete");
        };
        assert_eq!(fresh_jobs, 10, "the cut bundle plus the remaining one");
        let plain = crate::stabilization_sweep(|_| Fratricide, &[16], 10, 13, u64::MAX);
        assert_points_bit_identical(&plain, &points);
    }

    #[test]
    fn corrupt_interior_record_is_an_error() {
        let scratch = Scratch::new("corrupt_interior");
        let mut limited = CheckpointConfig::new(&scratch.0);
        limited.job_limit = Some(2);
        sweep(&[16], 3, 9, &limited);
        let journal = scratch.0.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&journal).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, "done garbage");
        std::fs::write(&journal, lines.join("\n") + "\n").unwrap();
        let err = stabilization_sweep_checkpointed(
            |_| Fratricide,
            &[16],
            3,
            9,
            u64::MAX,
            &CheckpointConfig::new(&scratch.0),
        )
        .expect_err("interior corruption must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn snapshot_write_failure_is_an_error_not_a_panic() {
        // A directory squatting on job 0's snapshot path makes every
        // snapshot write of that job fail; the sweep must report it.
        let scratch = Scratch::new("snapshot_failure");
        let squatter = job_snapshot_path(&scratch.0, 0);
        std::fs::create_dir_all(squatter.join("occupied")).unwrap();
        let mut ckpt = CheckpointConfig::new(&scratch.0);
        ckpt.snapshot_interval = Some(64);
        let result = stabilization_sweep_checkpointed(|_| Fratricide, &[64], 1, 5, u64::MAX, &ckpt);
        assert!(
            result.is_err(),
            "a failed snapshot write must fail the sweep"
        );
    }

    #[test]
    fn invalid_grids_are_invalid_input() {
        let scratch = Scratch::new("invalid_grid");
        let ckpt = CheckpointConfig::new(&scratch.0);
        for (ns, seeds) in [(&[16usize][..], 1u64 << 32), (&[16, 1][..], 2)] {
            let err = stabilization_sweep_checkpointed(|_| Fratricide, ns, seeds, 1, 1, &ckpt)
                .expect_err("an invalid grid must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{ns:?} x {seeds}");
        }
        assert!(
            !scratch.0.exists(),
            "a refused grid must not create its directory"
        );
    }

    #[test]
    fn record_parser_rejects_malformed_lines() {
        assert!(parse_record("done 0 1 3ff0000000000000", 4).is_some());
        for line in [
            "done 0 1 3ff",                   // short bits field
            "done 0 2 3ff0000000000000",      // bad converged flag
            "done 9 1 3ff0000000000000",      // index out of range (job_count 4)
            "done 0 1 3ff0000000000000 tail", // trailing field
            "redo 0 1 3ff0000000000000",      // wrong verb
            "",
        ] {
            assert!(parse_record(line, 4).is_none(), "accepted `{line}`");
        }
    }

    #[test]
    fn bundle_marker_parser_rejects_malformed_lines() {
        assert!(parse_bundle_marker("bundle 0 2", 4).is_some());
        assert!(parse_bundle_marker("bundle 2 2", 4).is_some());
        for line in [
            "bundle 3 2",   // overruns the job list (job_count 4)
            "bundle 0 0",   // empty bundle
            "bundle 0",     // missing length
            "bundle 0 2 x", // trailing field
            "wide 0 2",     // the retired v2 marker
            "done 0 2",     // wrong verb
            "",
        ] {
            assert!(parse_bundle_marker(line, 4).is_none(), "accepted `{line}`");
        }
    }
}
