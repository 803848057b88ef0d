//! Multi-process sweep fabric: sharded sweeps with a bit-identical merge.
//!
//! The engine saturates a single core on every workload shape, so the next
//! throughput lever is horizontal: run one sweep grid across several OS
//! processes (or boxes sharing a directory) and merge the shards back into
//! exactly the artifact a sequential sweep would have produced.
//!
//! # Shard model
//!
//! A *fabric run* lives in one directory:
//!
//! ```text
//! dir/
//!   claims/<start>.claim   cross-process bundle claims (create_new is atomic)
//!   shard_<k>/journal.txt  ppsweep v4 journal of the jobs shard k ran
//!   shard_<k>/manifest.json  machine-readable shard exit summary
//!   shard_<k>/progress.txt   "done total" snapshot for live aggregation
//!   journal.txt            canonical merged journal (written by the merge)
//! ```
//!
//! A worker is the in-process sweep executor (`runner::execute`) with a
//! claim hook and a journal. Work is claimed at **bundle** granularity
//! (same-`n` blocks of jobs): when one of the worker's
//! threads frees up, the executor picks the next pending bundle and the
//! hook atomically creates `claims/<start>.claim`; the bundle runs only on
//! success, so shards never duplicate work — *dynamic range claiming*, not
//! static partitioning. The job space's heavy tail (stabilization times
//! straggle far past their expectation) is what rules static shards out:
//! whichever shard statically owned the straggler would cap the whole run.
//! Two levers bound the makespan instead: bundles are claimed
//! largest-`n`-first (the executor's LPT schedule), and any idle worker —
//! same box or not — can pick up whatever remains.
//!
//! # Merge contract
//!
//! Every job is one fresh election whose result is a deterministic function
//! of `(protocol, n, seed, max_steps)` — never of which process,
//! thread, bundle, or retry round ran it — and shard journals record exact `f64`
//! bit patterns. The merge unions the shard journals (refusing mismatched
//! fingerprints and, defensively, conflicting duplicates), then renders the
//! *canonical journal*: bundle blocks in bundle-start order, a pure
//! function of the results. Aggregation replays job-index order exactly as
//! [`crate::stabilization_sweep`] traverses it, and [`Summary`] retains raw
//! values so in-order accumulation is bit-exact. Sequential run, 1 shard,
//! 40 shards, crashed-and-resumed shards: same bytes, same checksums
//! ([`pp_stats::Summary::checksum`] is the witness surfaced in [`points_table`]). The
//! bundle width only shapes the canonical journal's block markers; the
//! points table is the same at every width.
//!
//! # Crash recovery
//!
//! A worker that dies mid-bundle leaves its claim behind with no journal
//! block. Between retry rounds the orchestrator calls
//! [`clean_stale_claims`] — drop every claim whose bundle is not fully
//! journaled in *some* shard — and relaunches workers; the released bundles
//! get re-claimed and rerun, deterministically, to the same bits. A worker
//! that died *after* journaling loses nothing: its journal is read by the
//! merge whether or not the process exited cleanly. Torn final blocks are
//! tolerated by the journal loader and rerun whole.
//!
//! [`Summary`]: pp_stats::Summary

use crate::checkpoint::{
    fingerprint, load_journal, write_atomically, write_block, HEADER_PREFIX, JOURNAL_FILE,
};
use crate::runner::{
    aggregate_points, execute, invalid_input, run_election, run_grid, sweep_bundles, validate_grid,
    Fanout, SweepBundle, SweepPoint,
};
use pp_engine::LeaderElection;
use pp_stats::Table;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shard manifest file name inside a shard directory.
const MANIFEST_FILE: &str = "manifest.json";

/// Progress snapshot file name inside a shard directory.
const PROGRESS_FILE: &str = "progress.txt";

/// Claim directory name inside a fabric run directory.
const CLAIMS_DIR: &str = "claims";

/// Hard cap on shard ids — far above any useful fan-out, low enough that
/// shard ids always fit the rollups' `i64` encoding.
pub const MAX_SHARDS: u64 = 4096;

/// One sweep grid as the fabric identifies it: every worker and the merge
/// must agree on all of these fields (they are fingerprinted into each
/// shard journal's header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricSpec {
    /// Protocol name. Part of the fingerprint — two protocols' sweeps must
    /// never merge even when their numeric grids coincide — and resolved to
    /// a concrete protocol by the `ppsweep` binary.
    pub protocol: String,
    /// Population sizes, in presentation order.
    pub ns: Vec<usize>,
    /// Seeds (runs) per population size.
    pub seeds: u64,
    /// Master seed deriving every job's RNG stream.
    pub master_seed: u64,
    /// Per-run step budget (`u64::MAX` for unbounded).
    pub max_steps: u64,
    /// Bundle width: the claim and journal granule. Every process of a run
    /// must agree on it so claims name the same bundles; results do not
    /// depend on it.
    pub lanes: usize,
}

impl FabricSpec {
    /// The run's journal fingerprint: the checkpoint fingerprint of the
    /// grid (which does not cover the bundle width) extended over the
    /// protocol name with the same FNV-1a step.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fingerprint(
            &self.ns,
            self.seeds,
            self.master_seed,
            self.max_steps,
            false,
        );
        for b in self.protocol.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Flat job count of the grid.
    pub fn total_jobs(&self) -> usize {
        self.ns.len() * self.seeds as usize
    }

    fn bundles(&self) -> Vec<SweepBundle> {
        sweep_bundles(&self.ns, self.seeds, self.master_seed, self.lanes)
    }
}

/// The directory of shard `shard` inside fabric run directory `dir`.
pub fn shard_dir(dir: &Path, shard: u64) -> PathBuf {
    dir.join(format!("shard_{shard}"))
}

/// How a worker invocation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Jobs this invocation executed and journaled (the rest were already
    /// journaled, or claimed by other shards).
    pub fresh_jobs: usize,
    /// `true` when the worker stopped at its job limit with bundles still
    /// unclaimed; rerun with the same directory to continue.
    pub suspended: bool,
}

/// Machine-readable shard exit summary (`manifest.json`), hand-rolled JSON
/// like the rest of the workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Shard id.
    pub shard: u64,
    /// OS process that ran the shard.
    pub pid: u32,
    /// The run fingerprint the shard journaled under.
    pub fingerprint: u64,
    /// Jobs journaled by this shard in total (across invocations).
    pub jobs: u64,
    /// Worker threads inside the shard process.
    pub threads: u64,
    /// Wall-clock seconds of the final invocation.
    pub wall_seconds: f64,
    /// `false` when the invocation suspended at a job limit.
    pub complete: bool,
}

impl ShardManifest {
    /// Serializes the manifest as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"pp-sweep-shard/v1\",\"shard\":{},\"pid\":{},\
             \"fingerprint\":\"{:016x}\",\"jobs\":{},\"threads\":{},\
             \"wall_seconds\":{},\"complete\":{}}}\n",
            self.shard,
            self.pid,
            self.fingerprint,
            self.jobs,
            self.threads,
            self.wall_seconds,
            self.complete
        )
    }

    /// Parses [`Self::to_json`]'s output; `None` on any malformation or an
    /// unknown schema.
    pub fn parse(text: &str) -> Option<Self> {
        if scan_field(text, "schema")? != "\"pp-sweep-shard/v1\"" {
            return None;
        }
        Some(Self {
            shard: scan_field(text, "shard")?.parse().ok()?,
            pid: scan_field(text, "pid")?.parse().ok()?,
            fingerprint: u64::from_str_radix(
                scan_field(text, "fingerprint")?.trim_matches('"'),
                16,
            )
            .ok()?,
            jobs: scan_field(text, "jobs")?.parse().ok()?,
            threads: scan_field(text, "threads")?.parse().ok()?,
            wall_seconds: scan_field(text, "wall_seconds")?.parse().ok()?,
            complete: scan_field(text, "complete")?.parse().ok()?,
        })
    }
}

/// The raw text of `"key":` up to the next `,` or `}` — enough of a JSON
/// scanner for the flat objects this module writes.
fn scan_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = &text[at..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Runs one worker shard of the grid: claims pending bundles from the
/// shared claim directory (largest-`n`-first), journals each completed
/// bundle into `shard_<shard>/journal.txt`, keeps a live progress snapshot,
/// and writes the shard manifest on exit.
///
/// Reinvoking with the same directory resumes: journaled bundles are
/// skipped, claimed-elsewhere bundles are left alone, and everything else
/// is up for claiming. `job_limit` bounds the *fresh* jobs of this
/// invocation under the executor's rule, like the checkpointed sweep's:
/// bundles are claimed in order until the claimed ones hold `job_limit`
/// jobs, so the fresh count depends only on the journal and the claims.
/// Hitting it reports `suspended`.
///
/// # Errors
///
/// `InvalidInput` for `shard ≥ MAX_SHARDS` or an invalid grid (`seeds ≥
/// 2^32`, a size below 2); the first journal, claim or manifest I/O error;
/// or a shard journal whose fingerprint does not match `spec`.
pub fn run_worker_shard<P, F>(
    make: F,
    spec: &FabricSpec,
    dir: &Path,
    shard: u64,
    job_limit: Option<usize>,
) -> io::Result<ShardOutcome>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    if shard >= MAX_SHARDS {
        return Err(invalid_input(format!(
            "shard id {shard} must be below {MAX_SHARDS}"
        )));
    }
    validate_grid(&spec.ns, spec.seeds)?;
    let started = Instant::now();
    crate::set_sweep_shard(Some(shard));
    let fp = spec.fingerprint();
    let total = spec.total_jobs();
    let claims = dir.join(CLAIMS_DIR);
    std::fs::create_dir_all(&claims)?;
    let my_dir = shard_dir(dir, shard);
    std::fs::create_dir_all(&my_dir)?;
    let journal_path = my_dir.join(JOURNAL_FILE);
    let mut done = load_journal(&journal_path, fp, total)?;
    let journaled = done.iter().flatten().count();
    write_progress(&my_dir, journaled, total)?;

    // The progress snapshot is rewritten under the journal lock: writers
    // share one temporary file, and serialized rewrites land in count
    // order, so the last one standing is the shard's final count.
    let progress = |_: &SweepBundle, so_far: usize| {
        let _ = write_progress(&my_dir, so_far, total);
    };
    let executed = execute(
        &spec.bundles(),
        &mut done,
        &Fanout {
            job_limit,
            claim: Some(&|bundle| claim_bundle(&claims, bundle.start, shard)),
            journal: Some((&journal_path, fp)),
            after_block: Some(&progress),
        },
        |_, n, seed| Ok(run_election(&make, n, seed, spec.max_steps)),
    )?;
    let manifest = ShardManifest {
        shard,
        pid: std::process::id(),
        fingerprint: fp,
        jobs: (journaled + executed.fresh_jobs) as u64,
        threads: executed.workers as u64,
        wall_seconds: started.elapsed().as_secs_f64(),
        complete: !executed.suspended,
    };
    write_atomically(&my_dir.join(MANIFEST_FILE), manifest.to_json().as_bytes())?;
    Ok(ShardOutcome {
        fresh_jobs: executed.fresh_jobs,
        suspended: executed.suspended,
    })
}

/// Atomically claims bundle `start`: `create_new` is atomic on every
/// platform the workspace targets, so exactly one worker — across all
/// processes sharing the directory — wins each bundle. The file body
/// records the claimant for post-mortems; only its existence matters.
/// `Ok(false)` when another worker holds the claim.
fn claim_bundle(claims: &Path, start: usize, shard: u64) -> io::Result<bool> {
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(claims.join(format!("{start}.claim")))
    {
        Ok(mut file) => {
            let _ = writeln!(file, "{shard} {}", std::process::id());
            Ok(true)
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// Atomically rewrites a shard's `progress.txt` as `"<done> <total>"`.
fn write_progress(shard_dir: &Path, done: usize, total: usize) -> io::Result<()> {
    write_atomically(
        &shard_dir.join(PROGRESS_FILE),
        format!("{done} {total}\n").as_bytes(),
    )
}

/// Sums the shard progress snapshots into `(jobs done, jobs total)`.
/// Missing or unreadable snapshots count zero — progress is advisory, the
/// journals are the truth.
pub fn aggregate_progress(dir: &Path, shards: u64) -> (usize, usize) {
    let mut done = 0;
    let mut total = 0;
    for shard in 0..shards {
        if let Ok(text) = std::fs::read_to_string(shard_dir(dir, shard).join(PROGRESS_FILE)) {
            let mut fields = text.split_ascii_whitespace();
            let d: Option<usize> = fields.next().and_then(|v| v.parse().ok());
            let t: Option<usize> = fields.next().and_then(|v| v.parse().ok());
            if let (Some(d), Some(t)) = (d, t) {
                done += d;
                total = t;
            }
        }
    }
    (done, total)
}

/// Removes claims on bundles no shard journal has completed: their
/// claimants died between claiming and journaling. Call between retry
/// rounds, never while workers run — a live worker's in-flight claim is
/// indistinguishable from a dead one's until its journal block lands.
/// Returns the number of claims released.
///
/// # Errors
///
/// The errors of [`merge_shards`]' journal union, or a claim that cannot
/// be removed.
pub fn clean_stale_claims(spec: &FabricSpec, dir: &Path, shards: u64) -> io::Result<usize> {
    let done = union_shard_journals(spec, dir, shards)?;
    let mut removed = 0;
    for bundle in spec.bundles() {
        if done[bundle.range()].iter().all(Option::is_some) {
            continue;
        }
        match std::fs::remove_file(dir.join(CLAIMS_DIR).join(format!("{}.claim", bundle.start))) {
            Ok(()) => removed += 1,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(removed)
}

/// The job-indexed union of shard journals `shard_0 .. shard_<shards>`
/// under `dir` (`None`: journaled nowhere): what the merge and the claim
/// janitor both read. Errors as [`merge_shards`] documents.
fn union_shard_journals(
    spec: &FabricSpec,
    dir: &Path,
    shards: u64,
) -> io::Result<Vec<Option<(bool, f64)>>> {
    validate_grid(&spec.ns, spec.seeds)?;
    if shards > MAX_SHARDS {
        return Err(invalid_input(format!(
            "shard count {shards} exceeds {MAX_SHARDS}"
        )));
    }
    let fp = spec.fingerprint();
    let total = spec.total_jobs();
    let mut done: Vec<Option<(bool, f64)>> = vec![None; total];
    for shard in 0..shards {
        let shard_done = load_journal(&shard_dir(dir, shard).join(JOURNAL_FILE), fp, total)?;
        for (i, result) in shard_done.into_iter().enumerate() {
            let Some(result) = result else { continue };
            match done[i] {
                Some((converged, time))
                    if converged != result.0 || time.to_bits() != result.1.to_bits() =>
                {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "shard journals under {} disagree on job {i}; runs are \
                             deterministic, so divergent duplicates mean foreign shard state",
                            dir.display()
                        ),
                    ));
                }
                _ => done[i] = Some(result),
            }
        }
    }
    Ok(done)
}

/// What a merge found.
#[derive(Debug)]
pub struct MergeReport {
    /// Aggregated sweep points when every job was journaled somewhere —
    /// bit-identical to the sequential sweep's — `None` otherwise.
    pub points: Option<Vec<SweepPoint>>,
    /// Jobs with no journaled result in any shard.
    pub missing: usize,
    /// Parsed manifests of the shard directories that had one.
    pub manifests: Vec<ShardManifest>,
}

/// Merges shard journals `shard_0 .. shard_<shards>` under `dir`. When the
/// union covers every job, writes the canonical merged journal to
/// `dir/journal.txt` and returns the aggregated points; otherwise reports
/// how many jobs are missing (rerun workers, then merge again).
///
/// # Errors
///
/// `InvalidInput` for an invalid grid or `shards > MAX_SHARDS`; I/O
/// errors; a shard journal whose header fingerprint does not match `spec`
/// (mixed-fingerprint shard directories are refused, `InvalidData`); or
/// shard journals that disagree on a job's exact result — impossible for
/// honestly-produced shards, since runs are deterministic, so disagreement
/// means foreign state and the merge must not guess.
pub fn merge_shards(spec: &FabricSpec, dir: &Path, shards: u64) -> io::Result<MergeReport> {
    let done = union_shard_journals(spec, dir, shards)?;
    let manifests = (0..shards)
        .filter_map(|shard| {
            let text = std::fs::read_to_string(shard_dir(dir, shard).join(MANIFEST_FILE)).ok()?;
            ShardManifest::parse(&text)
        })
        .collect();
    let Some(flat) = done.iter().copied().collect::<Option<Vec<_>>>() else {
        return Ok(MergeReport {
            points: None,
            missing: done.iter().filter(|r| r.is_none()).count(),
            manifests,
        });
    };
    write_atomically(
        &dir.join(JOURNAL_FILE),
        canonical_journal(spec, &flat).as_bytes(),
    )?;
    Ok(MergeReport {
        points: Some(aggregate_points(&spec.ns, spec.seeds, &flat)),
        missing: 0,
        manifests,
    })
}

/// Runs the whole grid in this process and writes the canonical journal —
/// the fabric's 0-shard baseline, producing exactly the artifacts a
/// sharded run merges to.
///
/// # Errors
///
/// `InvalidInput` for an invalid grid (`seeds ≥ 2^32`, a size below 2);
/// journal write errors.
pub fn run_sequential<P, F>(make: F, spec: &FabricSpec, dir: &Path) -> io::Result<Vec<SweepPoint>>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    validate_grid(&spec.ns, spec.seeds)?;
    std::fs::create_dir_all(dir)?;
    let flat = run_grid(&spec.ns, spec.seeds, spec.master_seed, |n, seed| {
        run_election(&make, n, seed, spec.max_steps)
    });
    write_atomically(
        &dir.join(JOURNAL_FILE),
        canonical_journal(spec, &flat).as_bytes(),
    )?;
    Ok(aggregate_points(&spec.ns, spec.seeds, &flat))
}

/// Renders the canonical journal of a fully-known job list: the `ppsweep
/// v4` header plus one bundle block per [`sweep_bundles`] entry, in
/// bundle-start order. A pure function of the results — which process ran
/// which bundle, in what order, across how many crashes, leaves no trace —
/// so every complete run of the same spec renders the same bytes.
fn canonical_journal(spec: &FabricSpec, flat: &[(bool, f64)]) -> String {
    let mut text = format!("{HEADER_PREFIX} {:016x}\n", spec.fingerprint());
    for bundle in spec.bundles() {
        write_block(&mut text, bundle.start, &flat[bundle.range()]);
    }
    text
}

/// Renders sweep points as the fabric's results table. The `checksum`
/// column is [`pp_stats::Summary::checksum`], the bit-exactness witness:
/// matching checksums mean the shard-merged summary reproduced the
/// sequential sweep's exact observations, not merely cells that round the
/// same way.
pub fn points_table(points: &[SweepPoint]) -> Table {
    let mut table = Table::new([
        "n",
        "runs",
        "unconverged",
        "mean_time",
        "sd",
        "p95",
        "checksum",
    ]);
    for p in points {
        table.push_row([
            p.n.to_string(),
            p.times.count().to_string(),
            p.unconverged.to_string(),
            format!("{:.4}", p.times.mean()),
            format!("{:.4}", p.times.std_dev()),
            format!("{:.4}", p.times.quantile(0.95)),
            format!("{:016x}", p.times.checksum()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_protocols::Fratricide;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("ppfabric_test_{}_{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn spec() -> FabricSpec {
        FabricSpec {
            protocol: "fratricide".into(),
            ns: vec![16, 32],
            seeds: 5,
            master_seed: 42,
            max_steps: u64::MAX,
            lanes: 2,
        }
    }

    #[test]
    fn fingerprint_separates_protocols() {
        let a = spec();
        let mut b = spec();
        b.protocol = "pll".into();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn manifest_json_roundtrips() {
        let manifest = ShardManifest {
            shard: 3,
            pid: 4242,
            fingerprint: 0x0123_4567_89ab_cdef,
            jobs: 17,
            threads: 2,
            wall_seconds: 1.25,
            complete: true,
        };
        let parsed = ShardManifest::parse(&manifest.to_json()).expect("roundtrip");
        assert_eq!(parsed, manifest);
        assert_eq!(ShardManifest::parse("{}"), None);
        assert_eq!(
            ShardManifest::parse("{\"schema\":\"pp-sweep-shard/v9\",\"shard\":0}"),
            None
        );
    }

    #[test]
    fn one_shard_run_merges_bit_identically_to_sequential() {
        let spec = spec();
        let seq = Scratch::new("seq");
        let sharded = Scratch::new("one_shard");
        let points = run_sequential(|_| Fratricide, &spec, &seq.0).expect("sequential runs");
        let outcome =
            run_worker_shard(|_| Fratricide, &spec, &sharded.0, 0, None).expect("worker runs");
        assert!(!outcome.suspended);
        assert_eq!(outcome.fresh_jobs, spec.total_jobs());
        let report = merge_shards(&spec, &sharded.0, 1).expect("merge succeeds");
        assert_eq!(report.missing, 0);
        let merged = report.points.expect("complete merge yields points");
        // Same table bytes (which includes the Summary checksums) and the
        // same canonical journal bytes.
        assert_eq!(
            points_table(&points).to_csv(),
            points_table(&merged).to_csv()
        );
        let seq_journal = std::fs::read(seq.0.join(JOURNAL_FILE)).unwrap();
        let merged_journal = std::fs::read(sharded.0.join(JOURNAL_FILE)).unwrap();
        assert_eq!(seq_journal, merged_journal);
        // The manifest records the whole grid.
        assert_eq!(report.manifests.len(), 1);
        assert_eq!(report.manifests[0].jobs, spec.total_jobs() as u64);
        assert!(report.manifests[0].complete);
    }

    #[test]
    fn claims_prevent_duplicate_work_across_shards() {
        let spec = spec();
        let dir = Scratch::new("two_shards");
        let first = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("shard 0 runs");
        // Shard 0 claimed everything; shard 1 finds no work but still exits
        // complete with a manifest.
        let second =
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 1, None).expect("shard 1 runs");
        assert_eq!(first.fresh_jobs, spec.total_jobs());
        assert_eq!(second.fresh_jobs, 0);
        assert!(!second.suspended);
        let report = merge_shards(&spec, &dir.0, 2).expect("merge succeeds");
        assert_eq!(report.missing, 0);
        assert_eq!(report.manifests.len(), 2);
    }

    #[test]
    fn stale_claim_blocks_bundle_until_cleaned() {
        let spec = spec();
        let dir = Scratch::new("stale_claim");
        // Fake a worker that died after claiming bundle 0 and before
        // journaling it.
        let claims = dir.0.join(CLAIMS_DIR);
        std::fs::create_dir_all(&claims).unwrap();
        assert!(claim_bundle(&claims, 0, 7).unwrap());
        let outcome =
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("worker runs");
        assert_eq!(outcome.fresh_jobs, spec.total_jobs() - 2, "bundle 0 held");
        let report = merge_shards(&spec, &dir.0, 1).expect("merge reads journals");
        assert_eq!(report.missing, 2);
        assert!(report.points.is_none());
        // The orchestrator's retry round: release dead claims, rerun, merge.
        assert_eq!(clean_stale_claims(&spec, &dir.0, 1).unwrap(), 1);
        let outcome = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("retry runs");
        assert_eq!(outcome.fresh_jobs, 2);
        let report = merge_shards(&spec, &dir.0, 1).expect("merge succeeds");
        let merged = report.points.expect("complete after retry");
        let seq = Scratch::new("stale_claim_seq");
        let points = run_sequential(|_| Fratricide, &spec, &seq.0).expect("sequential runs");
        assert_eq!(
            points_table(&points).to_csv(),
            points_table(&merged).to_csv()
        );
        assert_eq!(
            std::fs::read(seq.0.join(JOURNAL_FILE)).unwrap(),
            std::fs::read(dir.0.join(JOURNAL_FILE)).unwrap()
        );
    }

    #[test]
    fn merge_refuses_mixed_fingerprint_shards() {
        let spec = spec();
        let dir = Scratch::new("mixed_fp");
        run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("shard 0 runs");
        // Shard 1 journaled a *different* sweep (other master seed): its
        // journal header cannot match this spec's fingerprint.
        let mut foreign = spec.clone();
        foreign.master_seed = 43;
        run_worker_shard(|_| Fratricide, &foreign, &dir.0, 1, None).expect("foreign shard runs");
        let err = merge_shards(&spec, &dir.0, 2).expect_err("mixed fingerprints must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Same for the claim janitor, which reads the same journals.
        let err = clean_stale_claims(&spec, &dir.0, 2).expect_err("janitor must refuse too");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn suspended_worker_resumes_from_its_journal() {
        let spec = spec();
        let dir = Scratch::new("suspend_resume");
        // 10 jobs in width-2 bundles; a limit of 3 claims n = 32's first
        // two bundles, whatever the thread count, and suspends.
        let outcome = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, Some(3))
            .expect("limited worker runs");
        assert!(outcome.suspended);
        assert_eq!(outcome.fresh_jobs, 4);
        let mut claims: Vec<String> = std::fs::read_dir(dir.0.join(CLAIMS_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        claims.sort();
        assert_eq!(claims, ["5.claim", "7.claim"]);
        let resumed =
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("resume runs");
        assert!(!resumed.suspended);
        assert_eq!(resumed.fresh_jobs + outcome.fresh_jobs, spec.total_jobs());
        let report = merge_shards(&spec, &dir.0, 1).expect("merge succeeds");
        assert_eq!(report.missing, 0);
    }

    #[test]
    fn out_of_range_shards_and_grids_are_invalid_input() {
        let dir = Scratch::new("invalid");
        let err = run_worker_shard(|_| Fratricide, &spec(), &dir.0, MAX_SHARDS, None)
            .expect_err("shard ids stop below MAX_SHARDS");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let mut tiny = spec();
        tiny.ns = vec![16, 1];
        let err = run_worker_shard(|_| Fratricide, &tiny, &dir.0, 0, None)
            .expect_err("sizes below 2 are refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = run_sequential(|_| Fratricide, &tiny, &dir.0).expect_err("same for sequential");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let mut huge = spec();
        huge.seeds = 1 << 32;
        let err = merge_shards(&huge, &dir.0, 1).expect_err("seeds below 2^32");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(
            !dir.0.exists(),
            "a refused grid must not create its directory"
        );
    }

    #[test]
    fn progress_snapshots_aggregate_across_shards() {
        let spec = spec();
        let dir = Scratch::new("progress");
        run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("worker runs");
        let (done, total) = aggregate_progress(&dir.0, 1);
        assert_eq!((done, total), (spec.total_jobs(), spec.total_jobs()));
        // A shard with no snapshot contributes nothing rather than erroring.
        let (done_two, total_two) = aggregate_progress(&dir.0, 2);
        assert_eq!((done_two, total_two), (done, total));
    }

    #[test]
    fn progress_snapshot_ends_at_the_shard_total() {
        // Many tiny bundles keep the worker threads journaling at the same
        // time. Progress rewrites that raced each other through the shared
        // temporary file could land out of order and leave a stale count;
        // the last rewrite standing must be the shard's final count, in
        // every round.
        let spec = FabricSpec {
            protocol: "fratricide".into(),
            ns: vec![8],
            seeds: 48,
            master_seed: 3,
            max_steps: u64::MAX,
            lanes: 1,
        };
        for round in 0..200 {
            let dir = Scratch::new(&format!("progress_race_{round}"));
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("worker runs");
            assert_eq!(
                aggregate_progress(&dir.0, 1),
                (spec.total_jobs(), spec.total_jobs()),
                "round {round}"
            );
        }
    }
}
