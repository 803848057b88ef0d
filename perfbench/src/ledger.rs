//! The per-layer ledger of the traced run: one election at a time through
//! `pp_engine::CountSimulation` with an attached `EngineObserver`, and
//! microbenchmarks of the `pp_rand` samplers and the protocols'
//! `transition`.

use crate::report::{median, quantile, Report};
use crate::spans::Spans;
use pp_core::Pll;
use pp_engine::{CountSimulation, EngineObserver, LeaderElection, Protocol};
use pp_protocols::{Fratricide, UnboundedLottery};
use pp_rand::{
    multivariate_hypergeometric, Binomial, Geometric, Hypergeometric, Rng64, SumTreeSampler,
    Xoshiro256PlusPlus,
};
use std::hint::black_box;
use std::time::Instant;

/// Whether an election of parallel time `t` at population `n` ran in the
/// slow mode: above 4·log₂ n.
pub fn is_slow(n: usize, t: f64) -> bool {
    t > 4.0 * (n as f64).log2()
}

/// Engine-layer totals over a replayed job list.
#[derive(Default)]
pub struct Replay {
    pub elections: u64,
    pub failed: u64,
    pub construct_s: f64,
    pub job_s: Vec<f64>,
    pub slow_s: f64,
    pub slow_runs: u64,
    pub timeline_s: f64,
    pub batch_s: f64,
    pub batch_interactions: u64,
    pub batch_episodes: u64,
    pub batch_segments: u64,
    pub exact_walks: u64,
    pub compiled_s: f64,
    pub compiled_interactions: u64,
    pub compiled_pairs: u64,
    pub distinct_states: u64,
    pub jump_s: f64,
    pub jump_interactions: u64,
    pub jump_episodes: u64,
    pub jump_skipped: u64,
}

impl Replay {
    /// Runs every `(n, seed)` job to a single leader on a fresh observed
    /// count engine, one election at a time, in job order.
    pub fn run<P, F>(make: &F, jobs: &[(usize, u64)], max_steps: u64, spans: &mut Spans) -> Self
    where
        P: LeaderElection,
        F: Fn(usize) -> P,
    {
        let mut r = Replay::default();
        spans.enter("engine.replay");
        for &(n, seed) in jobs {
            spans.enter(format!("engine.election n={n}"));
            let started = Instant::now();
            let mut sim = CountSimulation::new(make(n), n, Xoshiro256PlusPlus::seed_from_u64(seed))
                .expect("grid sizes are >= 2");
            sim.set_observer(EngineObserver::new());
            r.construct_s += started.elapsed().as_secs_f64();
            let run_started = Instant::now();
            let out = sim.run_until_single_leader(max_steps);
            let job_s = run_started.elapsed().as_secs_f64();
            spans.exit();
            let m = sim.metrics();
            r.elections += 1;
            if !out.converged || sim.leader_count() != 1 {
                r.failed += 1;
            }
            if is_slow(n, out.parallel_time(n)) {
                r.slow_runs += 1;
                r.slow_s += job_s;
            }
            r.job_s.push(job_s);
            let t = m.timeline.expect("an observer is attached");
            r.timeline_s += t.total_seconds();
            r.batch_s += t.batch.seconds;
            r.batch_interactions += m.tier_usage.batch;
            r.batch_episodes += m.batch.episodes;
            r.batch_segments += m.batch.episode_segments;
            r.exact_walks += m.batch.exact_walks;
            r.compiled_s += t.compiled.seconds + t.reference.seconds;
            r.compiled_interactions += m.tier_usage.compiled + m.tier_usage.reference;
            r.compiled_pairs += m.compiled_pairs;
            r.distinct_states = r.distinct_states.max(m.distinct_states_seen);
            r.jump_s += t.jump.seconds;
            r.jump_interactions += m.tier_usage.jump;
            r.jump_episodes += m.jump.episodes;
            r.jump_skipped += m.jump.skipped;
        }
        spans.exit();
        r
    }

    pub fn replay_s(&self) -> f64 {
        self.job_s.iter().sum()
    }

    /// Adds the `engine.*` rows to the report.
    pub fn report(&self, rep: &mut Report) {
        let replay_s = self.replay_s();
        rep.metric("engine.replay_s", replay_s, "s");
        rep.metric("engine.construct_s", self.construct_s, "s");
        rep.metric("engine.job_s.p50", median(&self.job_s), "s");
        rep.metric("engine.job_s.max", quantile(&self.job_s, 1.0), "s");
        rep.metric(
            "engine.timeline_coverage",
            self.timeline_s / replay_s,
            "ratio",
        );
        rep.metric("engine.slow_runs", self.slow_runs as f64, "count");
        rep.metric("engine.slow_s_frac", self.slow_s / replay_s, "ratio");
        rep.metric("engine.batch.s", self.batch_s, "s");
        rep.metric(
            "engine.batch.interactions",
            self.batch_interactions as f64,
            "count",
        );
        rep.metric("engine.batch.episodes", self.batch_episodes as f64, "count");
        rep.metric("engine.batch.exact_walks", self.exact_walks as f64, "count");
        // Exact walks resolve whole collision-free segments, so the share
        // is taken over segments (equal to episodes for single-round laws).
        let walk_frac = self.exact_walks as f64 / self.batch_segments.max(1) as f64;
        rep.metric("engine.batch.walk_frac", walk_frac, "ratio");
        rep.metric("engine.compiled.s", self.compiled_s, "s");
        rep.metric(
            "engine.compiled.interactions",
            self.compiled_interactions as f64,
            "count",
        );
        rep.metric(
            "engine.cache.compiled_pairs",
            self.compiled_pairs as f64,
            "count",
        );
        rep.metric(
            "engine.distinct_states",
            self.distinct_states as f64,
            "count",
        );
        // P_LL never dispatches to the jump tier; a time that is 0 on every
        // run stays out of the closing JSON object.
        rep.note("engine.jump.s", self.jump_s, "s");
        rep.metric(
            "engine.jump.interactions",
            self.jump_interactions as f64,
            "count",
        );
        rep.metric("engine.jump.episodes", self.jump_episodes as f64, "count");
        rep.metric("engine.jump.skipped", self.jump_skipped as f64, "count");
    }
}

/// Median nanoseconds per operation of `op`, over five timed blocks of
/// `iters` operations each (after one untimed warm-up block).
fn ns_per_op(iters: u64, mut op: impl FnMut() -> u64) -> f64 {
    let mut sink = 0u64;
    for _ in 0..iters {
        sink = sink.wrapping_add(op());
    }
    let mut blocks = Vec::with_capacity(5);
    for _ in 0..5 {
        let started = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(op());
        }
        blocks.push(started.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    black_box(sink);
    median(&blocks)
}

/// The live state counts of an election of `protocol` at population `n`,
/// stopped at parallel time 8 (mid-election for every grid protocol).
fn mid_election<P: Protocol>(protocol: P, n: usize, seed: u64) -> Vec<(P::State, u64)> {
    let mut sim =
        CountSimulation::new(protocol, n, Xoshiro256PlusPlus::seed_from_u64(seed)).expect("n >= 2");
    sim.run(8 * n as u64);
    let mut counts: Vec<(P::State, u64)> = sim.state_counts().into_iter().collect();
    // Hash-map order differs between runs; sort by count so inputs repeat.
    counts.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)))
    });
    counts
}

/// Nanoseconds per `transition` call over every ordered pair of (up to 64
/// of) the most populous mid-election states.
fn transition_ns<P: Protocol>(protocol: &P, n: usize, seed: u64) -> f64 {
    let states: Vec<P::State> = mid_election(protocol, n, seed)
        .into_iter()
        .take(64)
        .map(|(s, _)| s)
        .collect();
    let pairs: Vec<(&P::State, &P::State)> = states
        .iter()
        .flat_map(|a| states.iter().map(move |b| (a, b)))
        .collect();
    let mut k = 0usize;
    ns_per_op(200_000, || {
        let (a, b) = pairs[k % pairs.len()];
        k += 1;
        let (x, y) = protocol.transition(black_box(a), black_box(b));
        black_box((x, y));
        1
    })
}

/// Adds the `rand.*` and `protocol.*` rows: samplers at the workload's
/// largest population `n` with the mid-election support of its protocol
/// (`support_counts`), and every grid protocol's transition over its own
/// mid-election state pairs.
pub fn microbench(
    rep: &mut Report,
    spans: &mut Spans,
    n: usize,
    support_counts: &[u64],
    seed: u64,
) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let n64 = n as u64;
    let support = support_counts.len().max(1) as u64;
    let draws = (n as f64).sqrt() as u64;

    let v = spans.wrap("rand.xoshiro", || ns_per_op(2_000_000, || rng.next_u64()));
    rep.metric("rand.xoshiro.ns", v, "ns");
    let binomial = Binomial::new(n64, 1.0 / support as f64).expect("valid binomial");
    let v = spans.wrap("rand.binomial", || {
        ns_per_op(200_000, || binomial.sample(&mut rng))
    });
    rep.metric("rand.binomial.ns", v, "ns");
    let geometric = Geometric::new(1.0 / n as f64).expect("valid geometric");
    let v = spans.wrap("rand.geometric", || {
        ns_per_op(500_000, || geometric.sample(&mut rng))
    });
    rep.metric("rand.geometric.ns", v, "ns");
    let largest = support_counts
        .first()
        .copied()
        .unwrap_or(n64 / 2)
        .clamp(1, n64 - 1);
    let hyper = Hypergeometric::new(n64, largest, draws).expect("valid hypergeometric");
    let v = spans.wrap("rand.hypergeometric", || {
        ns_per_op(200_000, || hyper.sample(&mut rng))
    });
    rep.metric("rand.hypergeometric.ns", v, "ns");
    let mut out = vec![0u64; support_counts.len()];
    let total: u64 = support_counts.iter().sum();
    let v = spans.wrap("rand.mv_hypergeometric", || {
        ns_per_op(50_000, || {
            multivariate_hypergeometric(&mut rng, support_counts, draws.min(total), &mut out);
            out[0]
        })
    });
    rep.metric("rand.mv_hypergeometric.ns", v, "ns");
    let tree = SumTreeSampler::from_weights(support_counts).expect("positive weights");
    let v = spans.wrap("rand.sumtree", || {
        ns_per_op(500_000, || {
            let (a, b) = tree.sample_pair_distinct(&mut rng).expect("total >= 2");
            (a ^ b) as u64
        })
    });
    rep.metric("rand.sumtree.ns", v, "ns");

    let m = n.min(1 << 16);
    let pll = Pll::for_population(m).expect("n >= 2");
    let v = spans.wrap("protocol.pll", || transition_ns(&pll, m, seed));
    rep.metric("protocol.pll.transition_ns", v, "ns");
    let v = spans.wrap("protocol.ulottery", || {
        transition_ns(&UnboundedLottery, m, seed)
    });
    rep.metric("protocol.ulottery.transition_ns", v, "ns");
    let v = spans.wrap("protocol.fratricide", || {
        transition_ns(&Fratricide, m, seed)
    });
    rep.metric("protocol.fratricide.transition_ns", v, "ns");
}

/// The descending mid-election count vector of `protocol` at `n`: the
/// support the samplers are timed against.
pub fn support_counts<P: Protocol>(protocol: P, n: usize, seed: u64) -> Vec<u64> {
    mid_election(protocol, n.min(1 << 16), seed)
        .into_iter()
        .map(|(_, c)| c)
        .collect()
}
