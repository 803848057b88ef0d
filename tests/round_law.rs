//! The batch tier's **round laws** must execute the same law: identical
//! stabilization-time distributions whether a collision-free round is
//! materialized by sequence expansion (the bit-identical default) or drawn
//! directly as a per-ordered-pair contingency table — pinned by chi-square
//! homogeneity over pooled-quantile bins against the reference (uncached)
//! tier, the same methodology as the four-tier suite in
//! `tests/batch_equivalence.rs`.
//!
//! Two regimes: forced-batch elections at tiny `n` (rounds of a handful of
//! interactions, collisions and exact walks dominate — fratricide and the
//! paper's `P_LL`), and auto-tier elections at `n = 4096` (above the batch
//! population floor: genuine `Θ(√n)` rounds with the contingency cells path
//! hot on fratricide's two-state support). Every law mode must survive the
//! snapshot round-trip bit-for-bit.

use population_protocols::core::Pll;
use population_protocols::engine::{CountSimulation, EngineConfig, LawMode, LeaderElection};
use population_protocols::protocols::Fratricide;
use population_protocols::rand::{SeedSequence, Xoshiro256PlusPlus};
use population_protocols::stats::{chi_square_samples, wilson95};

/// The two round laws plus the uncached reference engine.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Reference,
    Law(LawMode),
}

const MODES: [Mode; 3] = [
    Mode::Reference,
    Mode::Law(LawMode::SequenceExpansion),
    Mode::Law(LawMode::Contingency),
];

fn law_config(law: LawMode) -> EngineConfig {
    EngineConfig {
        law_mode: law,
        ..EngineConfig::default()
    }
}

/// A simulation pinned to one mode: the reference tier, or the batch tier
/// forced under one round law.
fn mode_sim<P: LeaderElection>(
    protocol: P,
    n: usize,
    rng: Xoshiro256PlusPlus,
    mode: Mode,
) -> CountSimulation<P, Xoshiro256PlusPlus> {
    match mode {
        Mode::Reference => {
            let mut sim = CountSimulation::new(protocol, n, rng).expect("n >= 2");
            sim.set_compiled_cache(false);
            sim
        }
        Mode::Law(law) => {
            let mut sim =
                CountSimulation::with_config(protocol, n, rng, law_config(law)).expect("n >= 2");
            sim.force_batch_mode();
            sim
        }
    }
}

/// Stabilization parallel times over `seeds` runs on one mode.
fn stabilization_sample<P: LeaderElection + Clone>(
    protocol: &P,
    n: usize,
    seeds: u64,
    salt: u64,
    mode: Mode,
) -> Vec<f64> {
    let seq = SeedSequence::new(salt);
    (0..seeds)
        .map(|seed| {
            let mut sim = mode_sim(protocol.clone(), n, seq.rng_at(seed), mode);
            let out = sim.run_until_single_leader(u64::MAX);
            assert!(out.converged, "{mode:?} seed {seed} did not converge");
            assert_eq!(sim.leader_count(), 1, "{mode:?} seed {seed}");
            out.steps as f64 / n as f64
        })
        .collect()
}

/// Chi-square homogeneity of the modes' stabilization samples, plus a
/// Wilson-interval cross-check of the contingency law's probability of
/// stabilizing within the reference median budget.
fn assert_law_equivalence<P: LeaderElection + Clone>(
    protocol: P,
    n: usize,
    seeds: u64,
    salt: u64,
    bins: usize,
) {
    let samples: Vec<Vec<f64>> = MODES
        .iter()
        .map(|&mode| stabilization_sample(&protocol, n, seeds, salt, mode))
        .collect();
    let refs: Vec<&[f64]> = samples.iter().map(|s| s.as_slice()).collect();
    let c = chi_square_samples(&refs, bins);
    assert!(
        c.accepts(0.001),
        "round-law histograms diverge: chi2 = {:.2}, df = {}",
        c.statistic,
        c.df
    );

    // Binomial cross-check at a sensitive quantile: P(T <= pooled median of
    // the established modes) must agree for the contingency law.
    let mut pooled: Vec<f64> = samples[..2].iter().flatten().copied().collect();
    pooled.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let budget = pooled[pooled.len() / 2];
    let hit = |sample: &[f64]| sample.iter().filter(|&&t| t <= budget).count() as u64;
    let established: u64 = samples[..2].iter().map(|s| hit(s)).sum();
    let (lo, hi) = wilson95(established, 2 * seeds);
    let p = hit(&samples[2]) as f64 / seeds as f64;
    let slack = 1.96 * (p * (1.0 - p) / seeds as f64).sqrt();
    assert!(
        p + slack >= lo && p - slack <= hi,
        "P(T <= {budget}) contingency = {p:.3} outside Wilson interval [{lo:.3}, {hi:.3}]"
    );
}

#[test]
fn round_laws_agree_on_fratricide() {
    // n = 64 forces rounds of a handful of interactions: the collision
    // path and the exact walk are both hot, and fratricide's two-state
    // support keeps the contingency cells
    // path engaged (table of <= 4 cells never overflows its cap).
    assert_law_equivalence(Fratricide, 64, 120, 0, 6);
}

#[test]
fn round_laws_agree_on_pll() {
    // The paper's protocol: wide support, so the contingency law exercises
    // its expand-and-shuffle fallback alongside the cells path.
    let n = 128;
    assert_law_equivalence(Pll::for_population(n).expect("n >= 2"), n, 120, 10_000, 6);
}

#[test]
fn round_laws_agree_on_fratricide_batch_regime() {
    // Above the batch population floor, on the auto tier (the production
    // configuration sweeps run): genuine Θ(√n) rounds through the dense
    // phase under each law, the jump scheduler telescoping the null tail.
    let n = 4096;
    let seeds = 60u64;
    let samples: Vec<Vec<f64>> = [LawMode::SequenceExpansion, LawMode::Contingency]
        .iter()
        .map(|&law| {
            let seq = SeedSequence::new(20_000);
            (0..seeds)
                .map(|seed| {
                    let mut sim = CountSimulation::with_config(
                        Fratricide,
                        n,
                        seq.rng_at(seed),
                        law_config(law),
                    )
                    .expect("n >= 2");
                    let out = sim.run_until_single_leader(u64::MAX);
                    assert!(out.converged, "{law} seed {seed} did not converge");
                    out.steps as f64 / n as f64
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = samples.iter().map(|s| s.as_slice()).collect();
    let c = chi_square_samples(&refs, 5);
    assert!(
        c.accepts(0.001),
        "auto-tier law histograms diverge: chi2 = {:.2}, df = {}",
        c.statistic,
        c.df
    );
}

#[test]
fn contingency_law_skips_shuffles_on_small_support() {
    // Fratricide's two live states keep the per-ordered-pair table at <= 4
    // cells, far under the fallback cap, so the contingency law must be
    // drawing cells (and skipping the responder shuffle) for essentially
    // every non-walk segment.
    let n = 4096;
    let rng = Xoshiro256PlusPlus::seed_from_u64(9);
    let mut sim = mode_sim(Fratricide, n, rng, Mode::Law(LawMode::Contingency));
    sim.run(6 * n as u64);
    let stats = sim.batch_stats();
    assert!(stats.episodes > 0, "no batch episodes at n = {n}");
    assert!(
        stats.shuffle_skips > 0 && stats.contingency_draws > 0,
        "contingency path never engaged: {stats:?}"
    );
    // Nearly every segment skips; the rare exception is a budget-truncated
    // segment whose bulk is smaller than the 4-cell table (the fallback cap
    // compares table size against bulk), which legitimately expands.
    assert!(
        10 * (stats.shuffle_skips + stats.exact_walks) >= 9 * stats.episode_segments,
        "shuffling segments under a 4-cell table: {stats:?}"
    );
}

#[test]
fn snapshots_round_trip_under_every_law_mode() {
    // resume(bytes).snapshot() == bytes for each law mode, from a state
    // with live batch statistics (mid-election, batch forced), and the
    // resumed engine must keep producing the original law's trajectory
    // (bit-identical continuation under the same mode).
    let n = 4096;
    for law in [LawMode::SequenceExpansion, LawMode::Contingency] {
        let rng = Xoshiro256PlusPlus::seed_from_u64(77);
        let mut sim = mode_sim(Fratricide, n, rng, Mode::Law(law));
        sim.run(2 * n as u64);
        let bytes = sim.snapshot();
        let mut resumed = CountSimulation::<_, Xoshiro256PlusPlus>::resume(Fratricide, &bytes)
            .unwrap_or_else(|e| panic!("{law} snapshot failed to resume: {e}"));
        assert_eq!(
            resumed.snapshot(),
            bytes,
            "{law} snapshot is not a fixed point of resume"
        );
        sim.run(n as u64);
        resumed.run(n as u64);
        assert_eq!(
            sim.state_counts(),
            resumed.state_counts(),
            "{law} resumed trajectory diverged"
        );
        assert_eq!(sim.batch_stats(), resumed.batch_stats());
    }
}
