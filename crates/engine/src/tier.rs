//! Execution-tier dispatch for the count engine.
//!
//! [`CountSimulation`](crate::CountSimulation) runs every workload through
//! one of four interchangeable execution tiers — same Markov chain, different
//! cost models:
//!
//! | Tier | Mechanism | Per-interaction cost | Wins when |
//! |------|-----------|----------------------|-----------|
//! | [`Reference`](EngineTier::Reference) | hash + clone + `transition` per step | `O(1)`, large constant | cache disabled (oracle baseline) |
//! | [`Compiled`](EngineTier::Compiled) | [pair cache](crate::compiled) + fused tree descents | ~100 cycles | dense transitions, large live support |
//! | [`Jump`](EngineTier::Jump) | null-run telescoping | `O(1)` per *episode* | known-null pairs ≥ 7/8 of scheduler weight |
//! | [`Batch`](EngineTier::Batch) | hypergeometric rounds | `O((k + √n)/√n)` amortized | small live support `k`, any null density |
//!
//! The tiers are selected *per workload phase*, not per simulation: reviews
//! at dispatch boundaries re-run the engage/disengage heuristics against the
//! current configuration (null weight for the jump tier, live support for
//! the batch tier), with hysteresis so the engine never flaps around a
//! threshold. The thresholds are the constants below; they have no runtime
//! knob, so every engine, snapshot and sweep runs the same rules.
//!
//! This module owns the dispatch state (the crate-private tier controller)
//! and the pure decision rules; the episode/chunk execution lives in
//! [`CountSimulation`](crate::CountSimulation)'s one dispatch loop.

use crate::batch::BatchState;
use crate::jump::NullLedger;

/// The jump scheduler engages when `W_active · JUMP_ENGAGE_FACTOR ≤ W_total`,
/// i.e. when known-null pairs carry at least 7/8 of the scheduler weight, so
/// each episode is expected to telescope at least 8 raw interactions.
const JUMP_ENGAGE_FACTOR: u64 = 8;

/// Hysteresis: an engaged jump scheduler disengages only once
/// `W_active · JUMP_EXIT_FACTOR > W_total`, so the engine does not flap
/// around the engagement boundary.
const JUMP_EXIT_FACTOR: u64 = 4;

/// The batch tier engages when
/// `support · BATCH_SUPPORT_DIVISOR ≤ E[collision-free run]`: a batch round
/// costs `O(support)` hypergeometric draws plus `O(run)` cheap per-slot
/// work, so it beats the compiled tier only while the live support is a
/// fraction of the expected `Θ(√n)` round length.
const BATCH_SUPPORT_DIVISOR: u64 = 3;

/// Populations below this never engage the batch tier: collision-free runs
/// of `E ≈ 0.62·√n` steps are too short to amortize a round's set-up below
/// it.
const BATCH_MIN_POPULATION: u64 = 4096;

/// The execution tier the count engine is currently dispatching to: jump
/// while known-null pairs carry at least 7/8 of the scheduler weight, else
/// batch while the live support is small against `√n`, else compiled (or
/// reference with the pair cache off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineTier {
    /// Uncached per-step fallback: hash, clone, and call
    /// [`Protocol::transition`](crate::Protocol::transition) every step.
    Reference,
    /// Compiled pair cache + fused pair sampling, one interaction at a time.
    Compiled,
    /// Null-run telescoping on top of the compiled cache.
    Jump,
    /// Collision-free hypergeometric batch rounds.
    Batch,
}

impl std::fmt::Display for EngineTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineTier::Reference => "reference",
            EngineTier::Compiled => "compiled",
            EngineTier::Jump => "jump",
            EngineTier::Batch => "batch",
        })
    }
}

/// Throughput counters of the jump scheduler (field `jump` of
/// [`CountSimulation::metrics`](crate::CountSimulation::metrics)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JumpStats {
    /// Jump episodes executed (each ends in one real interaction).
    pub episodes: u64,
    /// Null interactions telescoped past without being executed.
    pub skipped: u64,
}

/// Interactions executed per tier over the whole execution, maintained at
/// dispatch boundaries regardless of whether an observer is attached (the
/// counters are pure functions of the trajectory, so attaching one cannot
/// change them). Serialized in snapshots since format v3, so they survive
/// resume; wall-clock accounting, which cannot survive a resume, lives in
/// the observer-only [`TierTimeline`](crate::obs::TierTimeline) instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierUsage {
    /// Interactions executed on the uncached reference tier.
    pub reference: u64,
    /// Interactions executed on the compiled tier.
    pub compiled: u64,
    /// Interactions executed (or telescoped) by the jump scheduler.
    pub jump: u64,
    /// Interactions executed by hypergeometric batch rounds.
    pub batch: u64,
}

impl TierUsage {
    /// Accounts `interactions` interactions to `tier`.
    pub(crate) fn note(&mut self, tier: EngineTier, interactions: u64) {
        match tier {
            EngineTier::Reference => self.reference += interactions,
            EngineTier::Compiled => self.compiled += interactions,
            EngineTier::Jump => self.jump += interactions,
            EngineTier::Batch => self.batch += interactions,
        }
    }

    /// Total interactions across all tiers.
    pub fn total(&self) -> u64 {
        self.reference + self.compiled + self.jump + self.batch
    }
}

/// Jump-scheduler state riding along the count engine (see [`crate::jump`]).
#[derive(Debug, Clone)]
pub(crate) struct JumpState {
    /// User toggle ([`CountSimulation::set_jump_scheduler`]
    /// (crate::CountSimulation::set_jump_scheduler)); on by default.
    pub enabled: bool,
    /// Currently executing episodes instead of per-step chunks.
    pub engaged: bool,
    /// Test hook: pinned engaged regardless of the engage/exit thresholds.
    pub forced: bool,
    /// The known-null pair set with scheduler weights.
    pub ledger: NullLedger,
    pub stats: JumpStats,
}

impl JumpState {
    fn new() -> Self {
        Self {
            enabled: true,
            engaged: false,
            forced: false,
            ledger: NullLedger::new(),
            stats: JumpStats::default(),
        }
    }
}

/// The count engine's dispatch state: per-tier engage state and the step
/// count of the next heuristic review.
#[derive(Debug, Clone)]
pub(crate) struct TierController {
    pub jump: JumpState,
    pub batch: BatchState,
    /// Step count at which the next tier review (jump probe, batch
    /// engage/disengage, compaction check) runs.
    pub review_at: u64,
    /// Per-tier interaction counters (snapshot-persistent since format v3).
    pub usage: TierUsage,
}

impl TierController {
    pub(crate) fn new() -> Self {
        Self {
            jump: JumpState::new(),
            batch: BatchState::new(),
            review_at: 0,
            usage: TierUsage::default(),
        }
    }
}

/// Expected length of a collision-free run at population `n`: the birthday
/// bound gives `E ≈ √(πn/8) ≈ 0.627·√n`; the integer `5·√n/8` is within 1%
/// and exact-integer cheap. Floored at 1.
pub(crate) fn expected_run_length(n: u64) -> u64 {
    (isqrt(n) * 5 / 8).max(1)
}

/// Integer square root (`⌊√n⌋`); `u64::isqrt` needs a newer MSRV than the
/// workspace's 1.75. The f64 estimate is exact for n < 2^52 and the two
/// correction steps make it exact everywhere.
fn isqrt(n: u64) -> u64 {
    let mut root = (n as f64).sqrt() as u64;
    while root > 0 && root.checked_mul(root).map_or(true, |sq| sq > n) {
        root -= 1;
    }
    while (root + 1).checked_mul(root + 1).is_some_and(|sq| sq <= n) {
        root += 1;
    }
    root
}

/// The batch tier's population ceiling, shared with the jump scheduler's:
/// the collision round's exact integer category weights are bounded by
/// `n(n−1)`, which must fit a `u64`. Beyond the cap the heuristics simply
/// never engage and execution stays per-step.
pub(crate) const BATCH_MAX_POPULATION: u64 = u32::MAX as u64;

/// Jump engage rule (see [`JUMP_ENGAGE_FACTOR`]).
pub(crate) fn jump_engages(w_active: u64, w_total: u64) -> bool {
    w_active.saturating_mul(JUMP_ENGAGE_FACTOR) <= w_total
}

/// Jump exit rule (see [`JUMP_EXIT_FACTOR`]).
pub(crate) fn jump_exits(w_active: u64, w_total: u64) -> bool {
    w_active.saturating_mul(JUMP_EXIT_FACTOR) > w_total
}

/// Batch-tier engage rule (see [`BATCH_SUPPORT_DIVISOR`]).
pub(crate) fn batch_engages(support: usize, n: u64) -> bool {
    (BATCH_MIN_POPULATION..=BATCH_MAX_POPULATION).contains(&n)
        && (support as u64).saturating_mul(BATCH_SUPPORT_DIVISOR) <= expected_run_length(n)
}

/// Batch-tier exit rule: the engage inequality failed by more than the
/// factor-2 hysteresis band.
pub(crate) fn batch_exits(support: usize, n: u64) -> bool {
    !(BATCH_MIN_POPULATION..=BATCH_MAX_POPULATION).contains(&n)
        || (support as u64).saturating_mul(BATCH_SUPPORT_DIVISOR) > 2 * expected_run_length(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_historical_constants() {
        // Seeded outputs depend on every threshold: changing one changes
        // which tier runs and so which draws are made.
        assert_eq!(crate::compiled::MAX_COMPILED_STATES, 4096);
        assert_eq!(JUMP_ENGAGE_FACTOR, 8);
        assert_eq!(JUMP_EXIT_FACTOR, 4);
        assert_eq!(BATCH_SUPPORT_DIVISOR, 3);
        assert_eq!(BATCH_MIN_POPULATION, 4096);
    }

    #[test]
    fn jump_rules_have_hysteresis() {
        let w_total = 800;
        assert!(jump_engages(100, w_total)); // 100·8 = 800 ≤ 800
        assert!(!jump_engages(101, w_total));
        assert!(!jump_exits(101, w_total)); // inside the hysteresis band
        assert!(!jump_exits(200, w_total)); // 200·4 = 800 ≤ 800
        assert!(jump_exits(201, w_total));
        assert!(!jump_engages(u64::MAX, u64::MAX - 1), "saturates");
    }

    #[test]
    fn expected_run_tracks_sqrt() {
        assert_eq!(expected_run_length(1 << 20), 640);
        assert_eq!(expected_run_length(4), 1);
        // Within 2% of √(πn/8) across the practical range.
        for shift in [12u32, 16, 20, 24, 30] {
            let n = 1u64 << shift;
            let exact = (std::f64::consts::PI * n as f64 / 8.0).sqrt();
            let got = expected_run_length(n) as f64;
            assert!(
                (got / exact - 1.0).abs() < 0.02,
                "n=2^{shift}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn batch_rules_have_hysteresis() {
        let n = 1u64 << 20; // expected run 640
        assert!(batch_engages(213, n)); // 213·3 = 639 ≤ 640
        assert!(!batch_engages(214, n));
        assert!(!batch_exits(214, n)); // inside the hysteresis band
        assert!(!batch_exits(426, n)); // 426·3 = 1278 ≤ 1280
        assert!(batch_exits(427, n));
        assert!(!batch_engages(2, 1024), "below the population floor");
        assert!(batch_exits(2, 1024));
    }

    #[test]
    fn tier_names_render() {
        assert_eq!(EngineTier::Batch.to_string(), "batch");
        assert_eq!(EngineTier::Reference.to_string(), "reference");
    }
}
