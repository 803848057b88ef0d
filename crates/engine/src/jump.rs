//! The null-skipping **jump scheduler** behind the count engine's long-tail
//! performance.
//!
//! Most of a leader-election run — and, for sparse-transition protocols,
//! almost all of it — consists of *null* interactions: ordered state pairs
//! whose compiled transition leaves both participants unchanged. A null
//! interaction costs a full sampler draw yet does nothing to the
//! configuration, so a fratricide run at `n = 2^28` spends `Θ(n²)` steps to
//! perform only `n − 1` state changes. The jump scheduler removes that waste
//! *exactly*:
//!
//! 1. Partition the ordered state pairs into the **known-null set** `N`
//!    (pairs compiled as null — see [`crate::compiled`]) and the rest (the
//!    *active* candidates: genuinely non-null pairs plus pairs not compiled
//!    yet, whose effect is unknown). Every pair `(s, t)` carries the weight
//!    of the uniformly random scheduler,
//!    `w(s, t) = c_s · (c_t − [s = t])`, summing to `W_total = n(n−1)`.
//! 2. While the configuration is unchanged, each raw draw lands in `N`
//!    independently with probability `W_null / W_total`. The length of the
//!    run of consecutive known-null draws is therefore
//!    `Geometric(p = W_active / W_total)` — one [`pp_rand::Geometric`]
//!    sample replaces the whole run, advancing the step counter in `O(1)`.
//! 3. The interaction that ends the run is distributed over the active
//!    candidates with probability `w(s, t) / W_active`; it is drawn with one
//!    integer uniform and an exact scan of [`NullLedger`] (below) and then
//!    executed normally. If it turns out to be an uncompiled *null* pair,
//!    that is still the correct draw — the true chain would have drawn it
//!    too; it merely joins `N` afterwards.
//!
//! Conditioned on the configuration, raw scheduler draws are i.i.d. and null
//! draws change nothing, so this telescoping is **distribution-exact**: the
//! law of every future configuration (and of the exact step count at which
//! each change happens) is identical to the per-step engine's. The one
//! approximation anywhere in the pipeline is the `f64` resolution of the
//! geometric inverse-CDF sample, the same caveat `Geometric` itself carries.
//! The jump path does consume a *different* RNG stream than per-step
//! execution (two words per episode instead of one word per interaction), so
//! its executions are equal in law, not bit-identical — the equivalence
//! suite pins the law, and disabling the scheduler (or the compiled cache,
//! which it requires) falls back to the bit-exact per-step path.
//!
//! # The ledger
//!
//! [`NullLedger`] maintains `N` as a lexicographically sorted pair list with
//! per-pair weights, a per-state adjacency index, and the running total
//! `W_null`. Between configuration changes nothing moves; after an executed
//! interaction only pairs touching the (at most four) states whose counts
//! changed are recomputed — `O(deg)` per episode, driven by the engine's
//! count deltas. Sampling an active pair costs one `O(K + deg)` scan over
//! the `K` interned states: row `s` contributes active weight
//! `c_s · (n − 1 − Σ_{t : (s,t) ∈ N} (c_t − [s = t]))`, and the responder
//! is located inside the row after dividing out `c_s`. Both scans are exact
//! integer arithmetic; no floating point touches the pair selection.
//!
//! The engine engages the scheduler only when skipping pays: tier reviews
//! rebuild the ledger and compare
//! `W_active · 8 ≤ W_total` (an expected skip of ≥ 8 interactions per
//! episode), with hysteresis on exit at `W_active · 4 > W_total`. See
//! [`CountSimulation::set_jump_scheduler`](crate::CountSimulation::set_jump_scheduler)
//! for the engine-level contract; an engaged scheduler preempts the batch
//! tier in dispatch, since a null-dominated configuration telescopes in
//! `O(1)` per episode.

/// The known-null pair set with scheduler weights: membership, per-pair and
/// total weight, per-state adjacency, and exact active-pair sampling.
///
/// Weights are meaningful only while the ledger is *synced* (rebuilt or
/// incrementally updated against the current counts); registration of newly
/// discovered null pairs marks it dirty and the next sync rebuilds.
#[derive(Debug, Clone, Default)]
pub(crate) struct NullLedger {
    /// Known-null ordered state pairs, sorted lexicographically.
    pairs: Vec<(u32, u32)>,
    /// Scheduler weight of each pair under the counts of the last sync.
    weights: Vec<u64>,
    /// `row_start[s] .. row_start[s + 1]` indexes the pairs with initiator
    /// state `s` (rows are contiguous in the sorted order).
    row_start: Vec<u32>,
    /// For each state: indices (into `pairs`) of every pair containing it,
    /// as initiator or responder; `(s, s)` appears once.
    by_state: Vec<Vec<u32>>,
    /// Total weight of the known-null set under the counts of the last sync.
    w_null: u64,
    /// Pairs were registered since the last rebuild: weights, `row_start`,
    /// and `by_state` are stale until [`rebuild`](Self::rebuild) runs.
    dirty: bool,
}

/// Scheduler weight of the ordered state pair `(s, t)`: the number of
/// ordered agent pairs realizing it, `c_s · c_t` for distinct states and
/// `c_s · (c_s − 1)` for a self-pair.
#[inline]
fn pair_weight(counts: &[u64], s: usize, t: usize) -> u64 {
    // saturating: an unoccupied self-pair has count 0, not weight 0·(0−1).
    counts[s] * counts[t].saturating_sub(u64::from(s == t))
}

impl NullLedger {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of known-null pairs.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Total known-null weight as of the last sync.
    pub(crate) fn w_null(&self) -> u64 {
        self.w_null
    }

    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Forgets everything (used when the compiled cache deactivates or the
    /// scheduler is turned off).
    pub(crate) fn clear(&mut self) {
        self.pairs.clear();
        self.weights.clear();
        self.row_start.clear();
        self.by_state.clear();
        self.w_null = 0;
        self.dirty = false;
    }

    /// Registers a newly compiled null pair. Weights and indexes go stale
    /// (`dirty`) until the next [`rebuild`](Self::rebuild) — which is also
    /// where ordering and deduplication happen, keeping each registration
    /// `O(1)` (bulk seeding of `m` pairs costs one `O(m log m)` rebuild
    /// instead of `m` sorted insertions).
    pub(crate) fn register(&mut self, s: usize, t: usize) {
        self.pairs.push((s as u32, t as u32));
        self.dirty = true;
    }

    /// Marks the weights stale so the next [`sync`](Self::sync) rebuilds —
    /// used by the engine when counts change outside an episode (manual
    /// per-step execution between batched runs).
    pub(crate) fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Recomputes every pair weight, `w_null`, and the row/adjacency indexes
    /// against `counts` (`counts.len()` = number of interned states).
    pub(crate) fn rebuild(&mut self, counts: &[u64]) {
        self.pairs.sort_unstable();
        self.pairs.dedup();
        self.weights.clear();
        self.weights.resize(self.pairs.len(), 0);
        let states = counts.len();
        self.row_start.clear();
        self.row_start.resize(states + 1, 0);
        for &(s, _) in &self.pairs {
            self.row_start[s as usize + 1] += 1;
        }
        for i in 0..states {
            self.row_start[i + 1] += self.row_start[i];
        }
        if self.by_state.len() < states {
            self.by_state.resize(states, Vec::new());
        }
        for adj in &mut self.by_state {
            adj.clear();
        }
        self.w_null = 0;
        for (i, &(s, t)) in self.pairs.iter().enumerate() {
            let w = pair_weight(counts, s as usize, t as usize);
            self.weights[i] = w;
            self.w_null += w;
            self.by_state[s as usize].push(i as u32);
            if s != t {
                self.by_state[t as usize].push(i as u32);
            }
        }
        self.dirty = false;
    }

    /// Rebuilds only if [`register`](Self::register) ran since the last
    /// rebuild.
    pub(crate) fn sync(&mut self, counts: &[u64]) {
        if self.dirty {
            self.rebuild(counts);
        }
    }

    /// Refreshes the weights of every known-null pair containing state `x`
    /// after its count changed, keeping `w_null` exact. `O(deg(x))`;
    /// idempotent, so the engine may call it once per touched state without
    /// deduplicating pairs shared between two touched states.
    ///
    /// Must not be called while dirty (the engine syncs per episode).
    pub(crate) fn on_count_change(&mut self, x: usize, counts: &[u64]) {
        debug_assert!(!self.dirty);
        let Some(adj) = self.by_state.get(x) else {
            return;
        };
        for &i in adj {
            let i = i as usize;
            let (s, t) = self.pairs[i];
            let w = pair_weight(counts, s as usize, t as usize);
            self.w_null = self.w_null - self.weights[i] + w;
            self.weights[i] = w;
        }
    }

    /// Locates the active pair at position `u ∈ [0, W_active)` of the
    /// active-candidate distribution: pairs ordered lexicographically, each
    /// occupying a block of `w(s, t)` positions, known-null pairs excluded.
    ///
    /// Exact integer arithmetic throughout: rows are skipped by their active
    /// weight `c_s · (n − 1 − null_row)`, and within the chosen row the
    /// responder offset is `u_row / c_s` against responder weights
    /// `c_t − [t = s]` with null partners zeroed. `O(K + deg)`.
    ///
    /// Requires a synced ledger and `u < W_active`.
    pub(crate) fn sample_active(&self, counts: &[u64], n: u64, mut u: u64) -> (usize, usize) {
        debug_assert!(!self.dirty);
        let nm1 = n - 1;
        for s in 0..counts.len() {
            let cs = counts[s];
            if cs == 0 {
                continue;
            }
            let row = self.row(s);
            let mut null_row = 0u64;
            for &(_, t) in row {
                null_row += counts[t as usize] - u64::from(t as usize == s);
            }
            let active_row = cs * (nm1 - null_row);
            if u >= active_row {
                u -= active_row;
                continue;
            }
            // Inside row s: responder offset in units of one agent pair.
            let mut tau = u / cs;
            let mut nulls = row.iter();
            let mut next_null = nulls.next();
            for (t, &ct) in counts.iter().enumerate() {
                let mut w = ct - u64::from(t == s);
                if let Some(&&(_, nt)) = next_null.as_ref() {
                    if nt as usize == t {
                        w = 0;
                        next_null = nulls.next();
                    }
                }
                if tau < w {
                    return (s, t);
                }
                tau -= w;
            }
            debug_assert!(false, "active row weight exhausted before a responder");
        }
        unreachable!("u must lie below the total active weight");
    }

    /// The contiguous slice of known-null pairs with initiator `s`.
    fn row(&self, s: usize) -> &[(u32, u32)] {
        if s + 1 >= self.row_start.len() {
            return &[];
        }
        &self.pairs[self.row_start[s] as usize..self.row_start[s + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force enumeration of the active distribution: every ordered
    /// pair in lexicographic order with its weight, known-nulls excluded.
    fn brute_blocks(counts: &[u64], nulls: &[(usize, usize)]) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for s in 0..counts.len() {
            for t in 0..counts.len() {
                if nulls.contains(&(s, t)) {
                    continue;
                }
                let w = counts[s] * counts[t].saturating_sub(u64::from(s == t));
                if w > 0 {
                    out.push((s, t, w));
                }
            }
        }
        out
    }

    fn ledger_with(nulls: &[(usize, usize)], counts: &[u64]) -> NullLedger {
        let mut ledger = NullLedger::new();
        for &(s, t) in nulls {
            ledger.register(s, t);
        }
        ledger.rebuild(counts);
        ledger
    }

    #[test]
    fn w_null_matches_brute_force() {
        let counts = [5u64, 0, 3, 2];
        let nulls = [(0usize, 0usize), (0, 2), (2, 0), (3, 3), (1, 2)];
        let ledger = ledger_with(&nulls, &counts);
        let expect: u64 = nulls
            .iter()
            .map(|&(s, t)| counts[s] * counts[t].saturating_sub(u64::from(s == t)))
            .sum();
        assert_eq!(ledger.w_null(), expect);
        assert_eq!(ledger.len(), 5);
    }

    #[test]
    fn register_dedups_and_sorts_at_rebuild() {
        let mut ledger = NullLedger::new();
        ledger.register(2, 1);
        ledger.register(0, 3);
        ledger.register(2, 1);
        ledger.register(0, 0);
        assert!(ledger.is_dirty());
        ledger.rebuild(&[1, 1, 1, 1]);
        assert!(!ledger.is_dirty());
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.row(0).len(), 2);
        assert_eq!(ledger.row(2), &[(2, 1)]);
    }

    #[test]
    fn sample_active_enumerates_exactly_the_active_distribution() {
        // For every u in [0, W_active), sample_active must return the pair
        // whose block contains u — i.e. each active pair is hit exactly
        // w(s, t) times. This pins the sampler to the exact law.
        let counts = [4u64, 1, 0, 3, 2];
        let n: u64 = counts.iter().sum();
        let nulls = [(0usize, 0usize), (0, 3), (3, 0), (4, 4), (3, 3), (1, 4)];
        let ledger = ledger_with(&nulls, &counts);
        let blocks = brute_blocks(&counts, &nulls);
        let w_active: u64 = blocks.iter().map(|&(_, _, w)| w).sum();
        assert_eq!(ledger.w_null() + w_active, n * (n - 1));
        let mut u = 0u64;
        for &(s, t, w) in &blocks {
            for _ in 0..w {
                assert_eq!(ledger.sample_active(&counts, n, u), (s, t), "u = {u}");
                u += 1;
            }
        }
        assert_eq!(u, w_active);
    }

    #[test]
    fn on_count_change_tracks_weight_updates() {
        let mut counts = vec![4u64, 1, 3];
        let nulls = [(0usize, 1usize), (1, 0), (2, 2)];
        let mut ledger = ledger_with(&nulls, &counts);
        // Move one agent 2 -> 0 and resync only the touched states.
        counts[2] -= 1;
        counts[0] += 1;
        ledger.on_count_change(2, &counts);
        ledger.on_count_change(0, &counts);
        let mut fresh = ledger_with(&nulls, &counts);
        fresh.rebuild(&counts);
        assert_eq!(ledger.w_null(), fresh.w_null());
    }
}
