//! The sweep job contract: every job is one fresh election whose result
//! depends only on `(n, seed)`.
//!
//! The in-process sweep, the checkpointed sweep and the sweep fabric must
//! report the same points — bit for bit, `Summary::checksum` included — at
//! every bundle width, because a bundle is only a claim and journal
//! granule (the executor's unit tests cover the journal at widths 1, 3 and
//! 8). Each job must equal a fresh `CountSimulation` run on the job's
//! seed, and the checkpointed sweep's rollups count jobs, not bundles. Journals of older formats must be refused, not merged: `ppsweep
//! v2` (lockstep bundle results that depended on the width) and `ppsweep
//! v3` (results drawn under the retired default round law).

use pp_core::Pll;
use pp_engine::{CountSimulation, LeaderElection};
use pp_protocols::Fratricide;
use pp_rand::{SeedSequence, Xoshiro256PlusPlus};
use pp_sim::fabric::{merge_shards, points_table, run_sequential, shard_dir, FabricSpec};
use pp_sim::{
    enable_sweep_rollup, stabilization_sweep, stabilization_sweep_checkpointed, take_sweep_rollups,
    CheckpointConfig, SweepPoint, SweepStatus,
};
use std::io;
use std::path::PathBuf;

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ppjobs_it_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_points_bit_identical(a: &[SweepPoint], b: &[SweepPoint], what: &str) {
    assert_eq!(points_table(a).to_csv(), points_table(b).to_csv(), "{what}");
    for (pa, pb) in a.iter().zip(b) {
        let (va, vb) = (pa.times.values(), pb.times.values());
        assert_eq!(va.len(), vb.len(), "{what}");
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: n = {}", pa.n);
        }
    }
}

#[test]
fn sweep_points_are_identical_at_every_bundle_width() {
    // 7 seeds per size: widths 3 and 8 leave ragged final bundles.
    let ns = [64usize, 16, 32];
    let (seeds, master) = (7u64, 2024u64);
    let plain = stabilization_sweep(|_| Fratricide, &ns, seeds, master, u64::MAX);
    let dir = Scratch::new("ckpt");
    let status = stabilization_sweep_checkpointed(
        |_| Fratricide,
        &ns,
        seeds,
        master,
        u64::MAX,
        &CheckpointConfig::new(&dir.0),
    )
    .expect("sweep checkpoints");
    let SweepStatus::Complete { points, .. } = status else {
        panic!("no job limit: sweep must complete");
    };
    assert_points_bit_identical(&plain, &points, "checkpointed");
    for lanes in [1usize, 3, 8] {
        let spec = FabricSpec {
            protocol: "fratricide".into(),
            ns: ns.to_vec(),
            seeds,
            master_seed: master,
            max_steps: u64::MAX,
            lanes,
        };
        let dir = Scratch::new(&format!("fabric_w{lanes}"));
        let points = run_sequential(|_| Fratricide, &spec, &dir.0).expect("sequential runs");
        assert_points_bit_identical(&plain, &points, &format!("fabric, width {lanes}"));
    }
}

/// Every job of a sweep of `make` equals a fresh engine run on its seed.
fn assert_jobs_are_fresh_elections<P, F>(make: F, ns: &[usize], seeds: u64, master: u64)
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    let points = stabilization_sweep(&make, ns, seeds, master, u64::MAX);
    let seq = SeedSequence::new(master);
    for (ni, (&n, point)) in ns.iter().zip(&points).enumerate() {
        assert_eq!(point.unconverged, 0);
        for s in 0..seeds {
            // The documented job seed: the packed (size index, seed index).
            let seed = seq.seed_at((ni as u64) << 32 | s);
            let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut sim = CountSimulation::new(make(n), n, rng).expect("n >= 2");
            let outcome = sim.run_until_single_leader(u64::MAX);
            assert!(outcome.converged);
            assert_eq!(
                point.times.values()[s as usize].to_bits(),
                outcome.parallel_time(n).to_bits(),
                "n = {n}, seed index {s}"
            );
        }
    }
}

#[test]
fn checkpointed_rollups_count_jobs_not_bundles() {
    // 3 sizes × 11 seeds = 33 jobs in six width-8 bundles ([8, 3] per
    // size). No other test in this binary drains the rollups, and none
    // runs a 33-job fan-out.
    enable_sweep_rollup();
    let dir = Scratch::new("rollups");
    let status = stabilization_sweep_checkpointed(
        |_| Fratricide,
        &[16, 24, 40],
        11,
        3,
        u64::MAX,
        &CheckpointConfig::new(&dir.0),
    )
    .expect("sweep checkpoints");
    assert!(matches!(
        status,
        SweepStatus::Complete { fresh_jobs: 33, .. }
    ));
    let rollups = take_sweep_rollups();
    assert!(
        rollups.iter().any(|r| r.jobs == 33),
        "no rollup counts the sweep's 33 jobs: {rollups:?}"
    );
}

#[test]
fn each_job_equals_a_fresh_count_simulation_on_its_seed() {
    assert_jobs_are_fresh_elections(|_| Fratricide, &[32, 2048], 4, 5);
    assert_jobs_are_fresh_elections(
        |n| Pll::for_population(n).expect("n >= 2"),
        &[256, 64],
        3,
        17,
    );
}

/// A journal written by the lockstep-bundle sweep for
/// `stabilization_sweep_checkpointed(|_| Fratricide, &[16, 32], 3, 7,
/// u64::MAX, ..)` at its default width of 8.
const V2_JOURNAL: &str = "\
ppsweep v2 d3f9fa085b1e9922
wide 0 3
done 0 1 401bc00000000000
done 1 1 401f400000000000
done 2 1 4034b00000000000
wide 3 3
done 3 1 401f600000000000
done 4 1 4043380000000000
done 5 1 4039800000000000
";

/// A journal written by the sweep under the sequence-expansion round law
/// for the same sweep at its default width of 8.
const V3_JOURNAL: &str = "\
ppsweep v3 26fa3eff7599922b
bundle 0 3
done 0 1 403a300000000000
done 1 1 4033200000000000
done 2 1 4019400000000000
bundle 3 3
done 3 1 4022100000000000
done 4 1 4035000000000000
done 5 1 4039300000000000
";

/// `journal` under a checkpoint directory and as a fabric shard journal
/// must both be refused with `InvalidData`.
fn assert_journal_is_refused(journal: &str, what: &str) {
    let ckpt = Scratch::new(&format!("{what}_ckpt"));
    std::fs::create_dir_all(&ckpt.0).unwrap();
    std::fs::write(ckpt.0.join("journal.txt"), journal).unwrap();
    let err = stabilization_sweep_checkpointed(
        |_| Fratricide,
        &[16, 32],
        3,
        7,
        u64::MAX,
        &CheckpointConfig::new(&ckpt.0),
    )
    .expect_err("an old journal must be refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");

    // The fabric's merge reads shard journals through the same loader.
    let fabric = Scratch::new(&format!("{what}_fabric"));
    let shard = shard_dir(&fabric.0, 0);
    std::fs::create_dir_all(&shard).unwrap();
    std::fs::write(shard.join("journal.txt"), journal).unwrap();
    let spec = FabricSpec {
        protocol: "fratricide".into(),
        ns: vec![16, 32],
        seeds: 3,
        master_seed: 7,
        max_steps: u64::MAX,
        lanes: 8,
    };
    let err = merge_shards(&spec, &fabric.0, 1).expect_err("an old shard journal must be refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
}

#[test]
fn journal_under_the_old_format_is_refused() {
    assert_journal_is_refused(V2_JOURNAL, "v2");
}

#[test]
fn journal_under_the_v3_format_is_refused() {
    assert_journal_is_refused(V3_JOURNAL, "v3");
    // Even relabelled as v4, its fingerprint (which covered the round law)
    // does not match this sweep's.
    assert_journal_is_refused(
        &V3_JOURNAL.replace("ppsweep v3", "ppsweep v4"),
        "v3_relabelled",
    );
}
