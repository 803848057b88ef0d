//! The batch tier's **round** must execute the same law as the reference
//! (uncached) tier: identical stabilization-time distributions whether the
//! interactions of a collision-free round are drawn as a per-ordered-pair
//! contingency table, expanded and shuffled, or walked one by one — pinned
//! by chi-square homogeneity over pooled-quantile bins plus a
//! two-proportion z-test at the pooled median, the same methodology as the
//! four-tier suite in `tests/batch_equivalence.rs`.
//!
//! Two regimes: forced-batch elections at tiny `n` (rounds of a handful of
//! interactions, collisions and exact walks dominate — fratricide and the
//! paper's `P_LL`), and auto-tier elections at `n = 4096` (above the batch
//! population floor: genuine `Θ(√n)` rounds with the contingency cells path
//! hot on fratricide's two-state support). Fratricide's stabilization time
//! is also pinned to its exact law — a sum of geometrics that no tier can
//! share a bug with. The batch tier must survive the snapshot round-trip
//! bit-for-bit.

use population_protocols::core::Pll;
use population_protocols::engine::{CountSimulation, LeaderElection};
use population_protocols::protocols::Fratricide;
use population_protocols::rand::{SeedSequence, Xoshiro256PlusPlus};
use population_protocols::stats::{chi_square_samples, theory, two_proportion_z};

/// The suite's significance level, two-sided: `|z| ≤ 3.29` is α = 0.001.
const Z_BOUND: f64 = 3.29;

/// Seeds per mode of the equivalence tests. At 240 the quantile z-test
/// detects a gap of about 0.15 between the two modes' proportions (3.29
/// standard errors at p = 1/2).
const SEEDS: u64 = 240;

/// The uncached reference engine and the forced batch tier.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Reference,
    Batch,
}

/// A simulation pinned to one mode.
fn mode_sim<P: LeaderElection>(
    protocol: P,
    n: usize,
    rng: Xoshiro256PlusPlus,
    mode: Mode,
) -> CountSimulation<P, Xoshiro256PlusPlus> {
    let mut sim = CountSimulation::new(protocol, n, rng).expect("n >= 2");
    match mode {
        Mode::Reference => sim.set_compiled_cache(false),
        Mode::Batch => sim.force_batch_mode(),
    }
    sim
}

/// Stabilization times in interactions over `seeds` runs, each built by
/// `build` from its seeded RNG.
fn stabilization_steps<P: LeaderElection>(
    seeds: u64,
    salt: u64,
    build: impl Fn(Xoshiro256PlusPlus) -> CountSimulation<P, Xoshiro256PlusPlus>,
) -> Vec<f64> {
    let seq = SeedSequence::new(salt);
    (0..seeds)
        .map(|seed| {
            let mut sim = build(seq.rng_at(seed));
            let out = sim.run_until_single_leader(u64::MAX);
            assert!(out.converged, "seed {seed} did not converge");
            assert_eq!(sim.leader_count(), 1, "seed {seed}");
            out.steps as f64
        })
        .collect()
}

/// Chi-square homogeneity of the two modes' stabilization samples, plus a
/// two-proportion z-test of the batch round's probability of stabilizing
/// within the reference median budget.
fn assert_law_equivalence<P: LeaderElection + Clone>(
    protocol: P,
    n: usize,
    salt: u64,
    bins: usize,
) {
    let [reference, batch] = [Mode::Reference, Mode::Batch].map(|mode| {
        stabilization_steps(SEEDS, salt, |rng| mode_sim(protocol.clone(), n, rng, mode))
    });
    let c = chi_square_samples(&[reference.as_slice(), batch.as_slice()], bins);
    assert!(
        c.accepts(0.001),
        "round histograms diverge: chi2 = {:.2}, df = {}",
        c.statistic,
        c.df
    );

    let mut sorted = reference.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let budget = sorted[sorted.len() / 2];
    let hit = |sample: &[f64]| sample.iter().filter(|&&t| t <= budget).count() as u64;
    let z = two_proportion_z(hit(&batch), SEEDS, hit(&reference), SEEDS);
    assert!(
        z.abs() <= Z_BOUND,
        "P(T <= {budget}) batch = {:.3} vs reference {:.3}: z = {z:.2}",
        hit(&batch) as f64 / SEEDS as f64,
        hit(&reference) as f64 / SEEDS as f64
    );
}

/// z-test of the mean stabilization time against fratricide's exact law.
fn assert_fratricide_exact_law(n: usize, steps: &[f64], what: &str) {
    let (mean, var) = theory::fratricide_stabilization(n as u64);
    let count = steps.len() as f64;
    let sample_mean = steps.iter().sum::<f64>() / count;
    let z = (sample_mean - mean) / (var / count).sqrt();
    assert!(
        z.abs() <= Z_BOUND,
        "{what}, n = {n}: mean {sample_mean:.1} vs exact {mean:.1} over {count} runs, z = {z:.2}"
    );
}

#[test]
fn round_laws_agree_on_fratricide() {
    // n = 64 forces rounds of a handful of interactions: the collision
    // path and the exact walk are both hot, and fratricide's two-state
    // support keeps the contingency cells path engaged (a table of <= 4
    // cells).
    assert_law_equivalence(Fratricide, 64, 0, 6);
}

#[test]
fn round_laws_agree_on_pll() {
    // The paper's protocol: wide support, so the round exercises its
    // expand-and-shuffle path alongside the cells path.
    let n = 128;
    assert_law_equivalence(Pll::for_population(n).expect("n >= 2"), n, 10_000, 6);
}

#[test]
fn forced_batch_matches_fratricide_exact_law() {
    // Tiny populations, batch tier forced: rounds of one to five
    // interactions, so collisions and exact walks carry the law.
    for (n, seeds) in [(16usize, 4000u64), (64, 1500)] {
        let steps = stabilization_steps(seeds, 30_000, |rng| {
            mode_sim(Fratricide, n, rng, Mode::Batch)
        });
        assert_fratricide_exact_law(n, &steps, "forced batch");
    }
}

#[test]
fn round_laws_agree_on_fratricide_batch_regime() {
    // Above the batch population floor, on the auto tier (the production
    // configuration sweeps run): genuine Θ(√n) rounds through the dense
    // phase on the cells path, the jump scheduler telescoping the null
    // tail — pinned to the exact law.
    let n = 4096;
    let steps = stabilization_steps(1000, 20_000, |rng| {
        CountSimulation::new(Fratricide, n, rng).expect("n >= 2")
    });
    assert_fratricide_exact_law(n, &steps, "auto tier");
}

#[test]
fn contingency_law_skips_shuffles_on_small_support() {
    // Fratricide's two live states keep the per-ordered-pair table at <= 4
    // cells, so the round must be drawing cells (and skipping the responder
    // shuffle) for essentially every non-walk round.
    let n = 4096;
    let rng = Xoshiro256PlusPlus::seed_from_u64(9);
    let mut sim = mode_sim(Fratricide, n, rng, Mode::Batch);
    sim.run(6 * n as u64);
    let stats = sim.metrics().batch;
    assert!(stats.episodes > 0, "no batch episodes at n = {n}");
    assert!(
        stats.shuffle_skips > 0 && stats.contingency_draws > 0,
        "contingency path never engaged: {stats:?}"
    );
    // Nearly every round skips; the rare exception is a budget-truncated
    // round whose bulk is smaller than the 4-cell table (the round compares
    // table size against bulk), which legitimately expands.
    assert!(
        10 * (stats.shuffle_skips + stats.exact_walks) >= 9 * stats.episodes,
        "shuffling rounds under a 4-cell table: {stats:?}"
    );
}

#[test]
fn snapshots_round_trip_on_reference_and_batch_tiers() {
    // resume(bytes).snapshot() == bytes on the reference and batch modes,
    // from a mid-election state (with live batch statistics on the batch
    // mode), and the resumed engine must continue bit-identically.
    let n = 4096;
    for mode in [Mode::Reference, Mode::Batch] {
        let rng = Xoshiro256PlusPlus::seed_from_u64(77);
        let mut sim = mode_sim(Fratricide, n, rng, mode);
        sim.run(2 * n as u64);
        let bytes = sim.snapshot();
        let mut resumed = CountSimulation::<_, Xoshiro256PlusPlus>::resume(Fratricide, &bytes)
            .unwrap_or_else(|e| panic!("{mode:?} snapshot failed to resume: {e}"));
        assert_eq!(
            resumed.snapshot(),
            bytes,
            "{mode:?} snapshot is not a fixed point of resume"
        );
        sim.run(n as u64);
        resumed.run(n as u64);
        assert_eq!(
            sim.state_counts(),
            resumed.state_counts(),
            "{mode:?} resumed trajectory diverged"
        );
        assert_eq!(sim.metrics().batch, resumed.metrics().batch);
    }
}
