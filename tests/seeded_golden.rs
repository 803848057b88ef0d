//! Seeded outputs of the count engine, pinned bit for bit.
//!
//! The chi-square suites (`batch_equivalence`, `round_law`) pin each tier's
//! *law*; this suite pins the *exact* executions: for fixed seeds, both
//! drivers (`run` and `run_until_single_leader`) on every tier — the
//! uncached reference path, the compiled path, forced jump, forced batch and
//! the automatic dispatch — must report the same step count, per-tier usage,
//! distinct-state count and final configuration as when the values were
//! captured. A refactor of the dispatch loop that changes one RNG draw, one
//! review step or one episode budget fails here.
//!
//! On a mismatch the assertion prints the observed row in source form, so an
//! intended change of seeded outputs is re-pinned by pasting it.

use population_protocols::core::Pll;
use population_protocols::engine::{CountSimulation, LeaderElection, SnapshotState};
use population_protocols::protocols::{Fratricide, UnboundedLottery};
use population_protocols::rand::Xoshiro256PlusPlus;

/// How the simulation is set up before the driver runs.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// Compiled cache off: every step runs the protocol's transition.
    Reference,
    /// Compiled cache on, jump scheduler and batch tier off.
    Compiled,
    /// Jump scheduler pinned on from the first step.
    Jump,
    /// Batch tier pinned on from the first step.
    Batch,
    /// Defaults: the tier reviews choose.
    Auto,
}

/// Which driver runs, with its step count or step budget.
#[derive(Clone, Copy, Debug)]
enum Driver {
    Run(u64),
    Until(u64),
    /// `run_until_single_leader` with half the budget, then `run` with all
    /// of it: `run` after role tracking is primed.
    UntilThenRun(u64),
}

/// One pinned execution and what it must report.
struct Case {
    mode: Mode,
    driver: Driver,
    n: usize,
    seed: u64,
    steps: u64,
    converged: bool,
    /// Interactions per tier: reference, compiled, jump, batch.
    usage: [u64; 4],
    distinct: usize,
    /// FNV-1a of the sorted `(encoded state, count)` pairs.
    counts: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one case and returns its row in the form of [`Case`]'s fields after
/// `seed`.
fn observe<P>(protocol: P, case: &Case) -> (u64, bool, [u64; 4], usize, u64)
where
    P: LeaderElection,
    P::State: SnapshotState,
{
    let rng = Xoshiro256PlusPlus::seed_from_u64(case.seed);
    let mut sim = CountSimulation::new(protocol, case.n, rng).expect("n >= 2");
    match case.mode {
        Mode::Reference => sim.set_compiled_cache(false),
        Mode::Compiled => {
            sim.set_jump_scheduler(false);
            sim.set_batch_tier(false);
        }
        Mode::Jump => sim.force_jump_mode(),
        Mode::Batch => sim.force_batch_mode(),
        Mode::Auto => {}
    }
    let converged = match case.driver {
        Driver::Run(steps) => {
            sim.run(steps);
            false
        }
        Driver::Until(budget) => sim.run_until_single_leader(budget).converged,
        Driver::UntilThenRun(steps) => {
            let converged = sim.run_until_single_leader(steps / 2).converged;
            sim.run(steps);
            converged
        }
    };
    let usage = sim.tier_usage();
    let mut counts: Vec<(Vec<u8>, u64)> = sim
        .state_counts()
        .into_iter()
        .map(|(state, count)| {
            let mut encoded = Vec::new();
            state.encode(&mut encoded);
            (encoded, count)
        })
        .collect();
    counts.sort_unstable();
    let mut bytes = Vec::new();
    for (encoded, count) in &counts {
        bytes.extend_from_slice(encoded);
        bytes.extend_from_slice(&count.to_le_bytes());
    }
    (
        sim.steps(),
        converged,
        [usage.reference, usage.compiled, usage.jump, usage.batch],
        sim.distinct_states_seen(),
        fnv1a(&bytes),
    )
}

fn check<P, F>(make: F, cases: &[Case])
where
    P: LeaderElection,
    P::State: SnapshotState,
    F: Fn(usize) -> P,
{
    let mut failures = Vec::new();
    for case in cases {
        let got = observe(make(case.n), case);
        let want = (
            case.steps,
            case.converged,
            case.usage,
            case.distinct,
            case.counts,
        );
        if got != want {
            let (steps, converged, usage, distinct, counts) = got;
            failures.push(format!(
                "case!({:?}, {:?}, {}, {}, {steps}, {converged}, {usage:?}, {distinct}, {counts:#018x}),",
                case.mode, case.driver, case.n, case.seed
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "seeded outputs changed; observed rows:\n{}",
        failures.join("\n")
    );
}

macro_rules! case {
    ($mode:ident, $driver:ident($budget:expr), $n:expr, $seed:expr, $steps:expr, $converged:expr,
     $usage:expr, $distinct:expr, $counts:expr $(,)?) => {
        Case {
            mode: Mode::$mode,
            driver: Driver::$driver($budget),
            n: $n,
            seed: $seed,
            steps: $steps,
            converged: $converged,
            usage: $usage,
            distinct: $distinct,
            counts: $counts,
        }
    };
}

#[rustfmt::skip]
const PLL: &[Case] = &[
    case!(Reference, Run(10247), 512, 1, 10247, false, [10247, 0, 0, 0], 78, 0x49a5c90dbe661b9a),
    case!(Reference, Run(10247), 512, 2, 10247, false, [10247, 0, 0, 0], 88, 0x87df0073b4b253de),
    case!(Reference, Until(204800), 512, 1, 4066, true, [4066, 0, 0, 0], 49, 0x45534f6ccab33b97),
    case!(Reference, Until(204800), 512, 2, 4970, true, [4970, 0, 0, 0], 56, 0x4c3c55c0b3c749cf),
    case!(Compiled, Run(10247), 512, 1, 10247, false, [0, 10247, 0, 0], 78, 0x49a5c90dbe661b9a),
    case!(Compiled, Run(10247), 512, 2, 10247, false, [0, 10247, 0, 0], 88, 0x87df0073b4b253de),
    case!(Compiled, Until(204800), 512, 1, 4066, true, [0, 4066, 0, 0], 49, 0x45534f6ccab33b97),
    case!(Compiled, Until(204800), 512, 2, 4970, true, [0, 4970, 0, 0], 56, 0x4c3c55c0b3c749cf),
    case!(Jump, Run(10247), 512, 1, 10247, false, [0, 0, 10247, 0], 79, 0x53d1925ee1842211),
    case!(Jump, Run(10247), 512, 2, 10247, false, [0, 0, 10247, 0], 79, 0x46a06a3d6c8907ca),
    case!(Jump, Until(204800), 512, 1, 4472, true, [0, 0, 4472, 0], 52, 0x5f4adaab8189d949),
    case!(Jump, Until(204800), 512, 2, 88888, true, [0, 0, 88888, 0], 432, 0xa7172394ff739906),
    case!(Batch, Run(10247), 512, 1, 10247, false, [0, 0, 0, 10247], 84, 0xd53a71a2237c390a),
    case!(Batch, Run(10247), 512, 2, 10247, false, [0, 0, 0, 10247], 83, 0x52be02cfeb23ce4a),
    case!(Batch, Until(204800), 512, 1, 5057, true, [0, 0, 0, 5057], 59, 0x997343fbd9bd8478),
    case!(Batch, Until(204800), 512, 2, 86999, true, [0, 0, 0, 86999], 426, 0xb03180130223b7fe),
    case!(Batch, UntilThenRun(4096), 512, 1, 6144, false, [0, 0, 0, 6144], 70, 0x279fd4e6ee2cd4ff),
    case!(Auto, Run(65539), 4096, 1, 65539, false, [0, 57299, 0, 8240], 87, 0x0d02722ca460fced),
    case!(Auto, Run(65539), 4096, 2, 65539, false, [0, 61407, 0, 4132], 84, 0x3d27e92cdf5f29b7),
    case!(Auto, Until(1228800), 4096, 1, 39124, true, [0, 30884, 0, 8240], 70, 0xceabc11a07f4c1e8),
    case!(Auto, Until(1228800), 4096, 2, 60481, true, [0, 56349, 0, 4132], 82, 0x8c9653b0f8c8540b),
    case!(Auto, Until(1228800), 4096, 3, 44273, true, [0, 36012, 0, 8261], 69, 0x4d433c2169a73eea),
    case!(Auto, UntilThenRun(65536), 4096, 1, 98304, false, [0, 90064, 0, 8240], 108, 0x8245b8d80377fdc2),
    case!(Auto, UntilThenRun(65536), 4096, 2, 98304, false, [0, 94172, 0, 4132], 105, 0xbd93f6f3b888805a),
];

#[rustfmt::skip]
const FRATRICIDE: &[Case] = &[
    case!(Reference, Run(20487), 512, 1, 20487, false, [20487, 0, 0, 0], 2, 0xc0ba3f07446db1af),
    case!(Reference, Run(20487), 512, 2, 20487, false, [20487, 0, 0, 0], 2, 0x78026b0d238bb3ff),
    case!(Reference, Until(u64::MAX), 512, 1, 185931, true, [185931, 0, 0, 0], 2, 0x7fdb46cc1bcf6faf),
    case!(Reference, Until(u64::MAX), 512, 2, 177583, true, [177583, 0, 0, 0], 2, 0x7fdb46cc1bcf6faf),
    case!(Compiled, Run(20487), 512, 1, 20487, false, [0, 20487, 0, 0], 2, 0xc0ba3f07446db1af),
    case!(Compiled, Run(20487), 512, 2, 20487, false, [0, 20487, 0, 0], 2, 0x78026b0d238bb3ff),
    case!(Compiled, Until(u64::MAX), 512, 1, 185931, true, [0, 185931, 0, 0], 2, 0x7fdb46cc1bcf6faf),
    case!(Compiled, Until(u64::MAX), 512, 2, 177583, true, [0, 177583, 0, 0], 2, 0x7fdb46cc1bcf6faf),
    case!(Jump, Run(20487), 512, 1, 20487, false, [0, 0, 20487, 0], 2, 0xacb1e479850810c7),
    case!(Jump, Run(20487), 512, 2, 20487, false, [0, 0, 20487, 0], 2, 0xc0ba3f07446db1af),
    case!(Jump, Until(u64::MAX), 512, 1, 501795, true, [0, 0, 501795, 0], 2, 0x7fdb46cc1bcf6faf),
    case!(Jump, Until(u64::MAX), 512, 2, 246622, true, [0, 0, 246622, 0], 2, 0x7fdb46cc1bcf6faf),
    case!(Batch, Run(20487), 512, 1, 20487, false, [0, 0, 0, 20487], 2, 0xacb1e479850810c7),
    case!(Batch, Run(20487), 512, 2, 20487, false, [0, 0, 0, 20487], 2, 0xda63444a1aa5d367),
    case!(Batch, Until(u64::MAX), 512, 1, 145172, true, [0, 0, 0, 145172], 2, 0x7fdb46cc1bcf6faf),
    case!(Batch, Until(u64::MAX), 512, 2, 158466, true, [0, 0, 0, 158466], 2, 0x7fdb46cc1bcf6faf),
    case!(Auto, Run(1048579), 16384, 1, 1048579, false, [0, 0, 1015454, 33125], 2, 0x41129da747bb51ab),
    case!(Auto, Run(1048579), 16384, 2, 1048579, false, [0, 0, 1015396, 33183], 2, 0x231795482959253d),
    case!(Auto, Until(u64::MAX), 16384, 1, 252136036, true, [0, 0, 252102911, 33125], 2, 0xe1df1b3bf5a53f2d),
    case!(Auto, Until(u64::MAX), 16384, 2, 323194232, true, [0, 0, 323161049, 33183], 2, 0xe1df1b3bf5a53f2d),
    case!(Auto, Until(u64::MAX), 16384, 3, 261694105, true, [0, 0, 261660946, 33159], 2, 0xe1df1b3bf5a53f2d),
    case!(Batch, UntilThenRun(131072), 512, 1, 196608, false, [0, 0, 0, 196608], 2, 0x7685d0f896a2abe7),
    case!(Auto, UntilThenRun(16777216), 16384, 1, 25165824, false, [0, 0, 25132699, 33125], 2, 0x9f552dae8551726d),
    case!(Auto, UntilThenRun(16777216), 16384, 2, 25165824, false, [0, 0, 25132641, 33183], 2, 0x80cb5dc41fecb79d),
];

#[rustfmt::skip]
const ULOTTERY: &[Case] = &[
    case!(Reference, Run(10247), 512, 1, 10247, false, [10247, 0, 0, 0], 342, 0x659a288c8c84d8ef),
    case!(Reference, Run(10247), 512, 2, 10247, false, [10247, 0, 0, 0], 305, 0xfedb7679836d94aa),
    case!(Reference, Until(204800), 512, 1, 10252, true, [10252, 0, 0, 0], 342, 0xe529d9d11720d77c),
    case!(Reference, Until(204800), 512, 2, 3721, true, [3721, 0, 0, 0], 277, 0xfe69de2866bbc753),
    case!(Compiled, Run(10247), 512, 1, 10247, false, [0, 10247, 0, 0], 342, 0x659a288c8c84d8ef),
    case!(Compiled, Run(10247), 512, 2, 10247, false, [0, 10247, 0, 0], 305, 0xfedb7679836d94aa),
    case!(Compiled, Until(204800), 512, 1, 10252, true, [0, 10252, 0, 0], 342, 0xe529d9d11720d77c),
    case!(Compiled, Until(204800), 512, 2, 3721, true, [0, 3721, 0, 0], 277, 0xfe69de2866bbc753),
    case!(Jump, Run(10247), 512, 1, 10247, false, [0, 0, 10247, 0], 327, 0xf31327cac2cb6c54),
    case!(Jump, Run(10247), 512, 2, 10247, false, [0, 0, 10247, 0], 408, 0x91a3ba35e0330bd0),
    case!(Jump, Until(204800), 512, 1, 6991, true, [0, 0, 6991, 0], 312, 0x2c63a5f148cf8d99),
    case!(Jump, Until(204800), 512, 2, 5255, true, [0, 0, 5255, 0], 389, 0x01609b11e01b0495),
    case!(Batch, Run(10247), 512, 1, 10247, false, [0, 0, 0, 10247], 317, 0x31c6cb8303a179be),
    case!(Batch, Run(10247), 512, 2, 10247, false, [0, 0, 0, 10247], 384, 0xd887e6f378f9c3f8),
    case!(Batch, Until(204800), 512, 1, 5782, true, [0, 0, 0, 5782], 323, 0x219ced52f607203d),
    case!(Batch, Until(204800), 512, 2, 20518, true, [0, 0, 0, 20518], 439, 0xbc553cf705507e71),
    case!(Batch, UntilThenRun(4096), 512, 1, 6144, false, [0, 0, 0, 6144], 352, 0x4dd0936d49e9b5ee),
    case!(Auto, Run(65539), 4096, 1, 65539, false, [0, 45056, 16349, 4134], 909, 0xa31f80acfb21f02a),
    case!(Auto, Run(65539), 4096, 2, 65539, false, [0, 49152, 12276, 4111], 903, 0xc935a1542fd74470),
    case!(Auto, Until(1638400), 4096, 1, 60363, true, [0, 41837, 14392, 4134], 907, 0xd1d8ecf72cb86675),
    case!(Auto, Until(1638400), 4096, 2, 49749, true, [0, 41015, 4623, 4111], 890, 0xfee01905e67d8339),
    case!(Auto, Until(1638400), 4096, 3, 50356, true, [0, 42134, 4096, 4126], 887, 0x6de892294365a08a),
    case!(Auto, UntilThenRun(65536), 4096, 1, 98304, false, [0, 45056, 49114, 4134], 924, 0xdee7f8e1e3e50d89),
    case!(Auto, UntilThenRun(65536), 4096, 2, 98304, false, [0, 49152, 45041, 4111], 917, 0x10966cdd1c55b614),
];

#[test]
fn pll_outputs_are_pinned() {
    check(|n| Pll::for_population(n).expect("n >= 2"), PLL);
}

#[test]
fn fratricide_outputs_are_pinned() {
    check(|_| Fratricide::new(), FRATRICIDE);
}

#[test]
fn ulottery_outputs_are_pinned() {
    check(|_| UnboundedLottery::new(), ULOTTERY);
}
