//! The compiled pair-transition cache behind the count engine's hot loop.
//!
//! [`Protocol::transition`](crate::Protocol::transition) is required to be a
//! *pure, deterministic* function of the ordered state pair (see the trait's
//! determinism contract), so its action on interned state ids can be compiled
//! once and replayed forever: the first time the count engine sees the
//! ordered id pair `(s, t)` it runs the real transition, interns the
//! successor states, and stores a packed entry
//!
//! ```text
//! (s, t)  →  (a, b, leader_delta, is_null)
//! ```
//!
//! in a dense `stride × stride` table (`stride` = capacity for state ids,
//! always a power of two so the lookup is a shift and an or). Every later
//! occurrence of the pair is one 4-byte load: **zero hashing, zero state
//! cloning, zero `transition` calls** in the steady state.
//!
//! # Memory trade-off and saturation
//!
//! The table is dense over *addressable states*, which is what makes the
//! lookup branch-free: `k` distinct states cost `4·k²` bytes after rounding
//! `k` up to a power of two. For bounded-state protocols this is trivial
//! (the paper's `P_LL` visits a few hundred states even at `n = 2^20`).
//! Protocols whose state space grows with the population (e.g. an unbounded
//! lottery) would blow the quadratic table up, so the addressable-id range is
//! capped at [`MAX_COMPILED_STATES`]: once more states than that have been
//! interned the cache **saturates** — pairs
//! whose ids fit keep their one-load fast path, pairs touching higher ids
//! fall back to calling `transition` per encounter. Saturation replaces the
//! old all-or-nothing self-deactivation: there is no cliff, and the engine's
//! [state-id compaction](crate::CountSimulation) reassigns the ids of
//! permanently-dead states at tier-review boundaries (largest counts first),
//! which pulls a saturated cache back to full coverage as soon as the *live*
//! support fits the cap again.
//!
//! Entries are packed into a `u32` as
//! `a | b << 12 | (leader_delta + 2) << 24 | is_null << 27 | 1 << 28`, with
//! `0` as the vacant sentinel: bit 28 marks a filled slot, so no packed
//! entry is zero. A zero sentinel lets large tables be zeroed allocations,
//! which the OS maps lazily — growth, compaction and restore touch only the
//! pages their filled slots land on, not all `4·stride²` bytes. The flag is
//! internal: `PairCache::for_each_filled` reports entries
//! without it, so snapshots store the flag-free words. The 12-bit id fields
//! are what cap the addressable range at 4096; the narrow entries keep the
//! dense table half the size it would be with `u64`, which matters because
//! the steady-state step's one table load is the only memory access in the
//! hot loop that can miss L1. Filled slots are additionally tracked in a
//! coordinate list, so iteration and compaction cost `O(compiled pairs)`,
//! never `O(stride²)`.

/// Vacant-slot sentinel: no packed entry can equal this (every packed
/// entry carries [`FILLED_BIT`]).
pub(crate) const EMPTY: u32 = 0;

/// State-id width inside a packed entry; caps addressable ids at `2^12`.
const ID_BITS: u32 = 12;
const ID_MASK: u32 = (1 << ID_BITS) - 1;
const DELTA_SHIFT: u32 = 2 * ID_BITS;
const NULL_BIT: u32 = DELTA_SHIFT + 3;
/// Set in every packed entry so that no entry equals [`EMPTY`].
const FILLED_BIT: u32 = 1 << (NULL_BIT + 1);

/// The cap on addressable interned states — the full reach of the packed
/// 12-bit id fields. The worst-case table is `4096² · 4 B = 64 MiB`, but the table is grown lazily
/// by doubling, so a protocol only ever pays for (the next power of two of)
/// the states it actually addresses.
pub const MAX_COMPILED_STATES: usize = 1 << ID_BITS;

/// Tables of at least this many slots (256 KiB) are allocated zeroed: an
/// allocation that size is a fresh mapping the OS zero-fills page by page
/// on first touch, so growth, compaction and restore only pay for the pages
/// their filled slots land on. Smaller tables are allocated and filled
/// eagerly, which the allocator's per-thread cache serves faster than a
/// zeroed allocation — the stride-16 table every engine starts with is
/// allocated once per election.
const LAZY_TABLE_SLOTS: usize = 1 << 16;

/// A table of `slots` vacant entries.
fn vacant_table(slots: usize) -> Vec<u32> {
    if slots >= LAZY_TABLE_SLOTS {
        vec![EMPTY; slots]
    } else {
        let mut table = Vec::with_capacity(slots);
        table.resize(slots, EMPTY);
        table
    }
}

/// Packs a compiled transition into one word.
///
/// `delta` is the leader-count change of the interaction and must lie in
/// `[-2, 2]`; `null` records `a == s && b == t` (the interaction changes no
/// count, so the engine can skip all tree updates).
#[inline]
pub(crate) fn pack(a: usize, b: usize, delta: i8, null: bool) -> u32 {
    debug_assert!(a as u32 <= ID_MASK && b as u32 <= ID_MASK);
    debug_assert!((-2..=2).contains(&delta));
    (a as u32)
        | ((b as u32) << ID_BITS)
        | (((delta + 2) as u32) << DELTA_SHIFT)
        | (u32::from(null) << NULL_BIT)
        | FILLED_BIT
}

/// Unpacks a compiled transition: `(a, b, leader_delta, is_null)`.
#[inline]
pub(crate) fn unpack(entry: u32) -> (usize, usize, i8, bool) {
    let a = (entry & ID_MASK) as usize;
    let b = ((entry >> ID_BITS) & ID_MASK) as usize;
    let delta = ((entry >> DELTA_SHIFT) & 0b111) as i8 - 2;
    let null = (entry >> NULL_BIT) & 1 == 1;
    (a, b, delta, null)
}

/// Growable dense cache from ordered state-id pairs to compiled transitions.
///
/// See the [module docs](self) for the packing scheme, the memory trade-off,
/// and the saturation semantics. The cache is purely an accelerator: a
/// disabled, saturated, or vacant cache only means the engine recomputes the
/// transition, never that it behaves differently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairCache {
    /// Dense `stride × stride` table; `EMPTY` marks vacant slots.
    table: Vec<u32>,
    /// `stride == 1 << shift`; index of `(s, t)` is `s << shift | t`.
    shift: u32,
    /// Cap on addressable state ids (`≤ MAX_COMPILED_STATES`).
    limit: usize,
    /// Coordinates of every filled slot, in fill order.
    filled: Vec<(u16, u16)>,
    /// Whether the cache compiles pairs at all (engine toggle).
    active: bool,
}

impl PairCache {
    /// Creates an empty cache that addresses at most `limit` states
    /// (clamped to [`MAX_COMPILED_STATES`]).
    pub(crate) fn new(limit: usize) -> Self {
        Self {
            table: Vec::new(),
            shift: 0,
            limit: limit.clamp(1, MAX_COMPILED_STATES),
            filled: Vec::new(),
            active: true,
        }
    }

    /// Whether the cache is enabled (the engine's explicit toggle; a
    /// saturated cache is still active).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Number of state ids the current table can address; pairs with any id
    /// at or above this fall back to per-encounter transitions until
    /// compaction frees ids.
    pub fn addressable_states(&self) -> usize {
        if self.active && !self.table.is_empty() {
            1 << self.shift
        } else {
            0
        }
    }

    /// Whether ids at or above the addressable range exist, i.e. some pairs
    /// currently bypass the cache (`states` = interned state count).
    pub fn is_saturated(&self, states: usize) -> bool {
        self.active && states > self.addressable_states()
    }

    /// Number of compiled (filled) pair entries, in `O(1)`.
    pub fn compiled_pairs(&self) -> usize {
        self.filled.len()
    }

    /// Bytes held by the dense table.
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }

    /// Deactivates the cache and releases the table.
    pub(crate) fn deactivate(&mut self) {
        self.active = false;
        self.table = Vec::new();
        self.filled = Vec::new();
        self.shift = 0;
    }

    /// Reactivates an explicitly disabled cache.
    pub(crate) fn reactivate(&mut self) {
        self.active = true;
    }

    /// Grows the table so ids `< min(states, limit)` are addressable.
    /// Returns whether every id below `states` is addressable (i.e. the
    /// cache is not saturated).
    pub(crate) fn ensure_states(&mut self, states: usize) -> bool {
        if !self.active {
            return false;
        }
        let covered = states.min(self.limit);
        let needed = covered.next_power_of_two().max(16);
        if (1usize << self.shift) < needed || self.table.is_empty() {
            self.grow(needed.trailing_zeros());
        }
        states <= (1 << self.shift)
    }

    fn grow(&mut self, new_shift: u32) {
        let old_shift = self.shift;
        let old = std::mem::replace(&mut self.table, vacant_table(1 << (2 * new_shift)));
        self.shift = new_shift;
        for &(s, t) in &self.filled {
            let (s, t) = (s as usize, t as usize);
            self.table[(s << new_shift) | t] = old[(s << old_shift) | t];
        }
    }

    /// The compiled entry for `(s, t)`, or `EMPTY` when vacant, out of the
    /// addressable range (saturated), or inactive.
    #[inline]
    pub(crate) fn get(&self, s: usize, t: usize) -> u32 {
        if !self.active {
            return EMPTY;
        }
        let stride = 1usize << self.shift;
        if (s | t) >= stride || self.table.is_empty() {
            return EMPTY;
        }
        self.table[(s << self.shift) | t]
    }

    /// Stores the compiled transition of `(s, t)` if it is representable:
    /// the key must lie in the addressable range and the successor ids must
    /// fit the packed id fields. Returns whether the entry was stored.
    ///
    /// The slot must be vacant — entries are immutable once compiled
    /// (rewriting goes through [`for_each_filled_mut`](Self::for_each_filled_mut)).
    #[inline]
    pub(crate) fn store(
        &mut self,
        s: usize,
        t: usize,
        a: usize,
        b: usize,
        delta: i8,
        null: bool,
    ) -> bool {
        if !self.active || self.table.is_empty() {
            return false;
        }
        let stride = 1usize << self.shift;
        if (s | t) >= stride || (a | b) > ID_MASK as usize {
            return false;
        }
        let slot = (s << self.shift) | t;
        debug_assert_eq!(self.table[slot], EMPTY, "pair ({s}, {t}) compiled twice");
        self.table[slot] = pack(a, b, delta, null);
        self.filled.push((s as u16, t as u16));
        true
    }

    /// Remaps every compiled entry through `map` (old id → new id, with
    /// `u32::MAX` marking ids that no longer exist) and shrinks the table to
    /// address `live` states. Entries touching a dropped id — or landing
    /// outside the new addressable range — are discarded; they recompile
    /// lazily if their pair ever occurs again.
    ///
    /// `O(compiled pairs)`, driven by the filled list.
    pub(crate) fn compact(&mut self, map: &[u32], live: usize) {
        if !self.active {
            return;
        }
        let old_shift = self.shift;
        let old = std::mem::take(&mut self.table);
        let old_filled = std::mem::take(&mut self.filled);
        let covered = live.min(self.limit);
        self.shift = covered.next_power_of_two().max(16).trailing_zeros();
        self.table = vacant_table(1 << (2 * self.shift));
        let stride = 1usize << self.shift;
        for &(s, t) in &old_filled {
            let entry = old[((s as usize) << old_shift) | t as usize];
            let (a, b, delta, null) = unpack(entry);
            let (Some(&ns), Some(&nt), Some(&na), Some(&nb)) = (
                map.get(s as usize),
                map.get(t as usize),
                map.get(a),
                map.get(b),
            ) else {
                continue;
            };
            if ns == u32::MAX || nt == u32::MAX || na == u32::MAX || nb == u32::MAX {
                continue;
            }
            let (ns, nt) = (ns as usize, nt as usize);
            if (ns | nt) >= stride || (na | nb) > ID_MASK {
                continue;
            }
            self.table[(ns << self.shift) | nt] = pack(na as usize, nb as usize, delta, null);
            self.filled.push((ns as u16, nt as u16));
        }
    }

    /// Visits every filled entry as `(s, t, &mut entry)` — used to recompute
    /// the cached leader deltas when role tracking is primed after pairs
    /// were already compiled.
    pub(crate) fn for_each_filled_mut(&mut self, mut f: impl FnMut(usize, usize, &mut u32)) {
        let shift = self.shift;
        for &(s, t) in &self.filled {
            f(
                s as usize,
                t as usize,
                &mut self.table[((s as usize) << shift) | t as usize],
            );
        }
    }

    /// Snapshot geometry: `(active, shift, has_table)`. Together with the
    /// filled entries from [`for_each_filled`](Self::for_each_filled) this is
    /// the cache's complete trajectory-relevant state — the stride in
    /// particular decides which pairs are addressable (and therefore which
    /// compile, feed the null ledger, and consume RNG), so it must be
    /// restored exactly rather than re-derived from the entry count.
    pub(crate) fn snapshot_geometry(&self) -> (bool, u32, bool) {
        (self.active, self.shift, !self.table.is_empty())
    }

    /// Rebuilds a cache from snapshot parts; the exact inverse of
    /// [`snapshot_geometry`](Self::snapshot_geometry) + the filled-entry
    /// list (in fill order). Returns `None` instead of panicking on
    /// inconsistent input — this is fed from deserialized bytes.
    pub(crate) fn restore(
        active: bool,
        shift: u32,
        has_table: bool,
        entries: &[(u16, u16, u32)],
    ) -> Option<Self> {
        let mut cache = Self::new(MAX_COMPILED_STATES);
        cache.active = active;
        if !has_table || !active {
            // An inactive cache never holds a table; a never-grown active
            // cache has neither table nor entries.
            if !entries.is_empty() || (!active && has_table) {
                return None;
            }
            return Some(cache);
        }
        if shift > ID_BITS {
            return None;
        }
        cache.shift = shift;
        cache.table = vacant_table(1 << (2 * shift));
        let stride = 1u16 << shift;
        for &(s, t, entry) in entries {
            // Snapshot entries are flag-free packed words: bits 28.. zero.
            if s >= stride || t >= stride || entry >> (NULL_BIT + 1) != 0 {
                return None;
            }
            let slot = ((s as usize) << shift) | t as usize;
            if cache.table[slot] != EMPTY {
                return None;
            }
            cache.table[slot] = entry | FILLED_BIT;
            cache.filled.push((s, t));
        }
        Some(cache)
    }

    /// Visits every filled entry as `(s, t, entry)`, with the entry's
    /// filled flag cleared — the form snapshots store and
    /// [`restore`](Self::restore) accepts. Also used to re-seed the jump
    /// scheduler's null ledger from already-compiled pairs when the
    /// scheduler is (re-)enabled mid-run.
    pub(crate) fn for_each_filled(&self, mut f: impl FnMut(usize, usize, u32)) {
        let shift = self.shift;
        for &(s, t) in &self.filled {
            f(
                s as usize,
                t as usize,
                self.table[((s as usize) << shift) | t as usize] & !FILLED_BIT,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (a, b, d, null) in [
            (0usize, 0usize, 0i8, true),
            (1, 2, -2, false),
            (5, 3, 2, false),
            ((1 << 12) - 1, 7, 1, false),
            (7, (1 << 12) - 1, -1, true),
        ] {
            let e = pack(a, b, d, null);
            assert_ne!(e, EMPTY);
            assert_eq!(unpack(e), (a, b, d, null));
        }
    }

    #[test]
    fn growth_remaps_entries() {
        let mut c = PairCache::new(MAX_COMPILED_STATES);
        assert!(c.ensure_states(2));
        assert!(c.store(0, 1, 1, 0, 0, false));
        assert!(c.store(1, 1, 1, 1, 0, true));
        // Force several growths past the initial 16-slot stride.
        assert!(c.ensure_states(100));
        assert_eq!(unpack(c.get(0, 1)), (1, 0, 0, false));
        assert_eq!(unpack(c.get(1, 1)), (1, 1, 0, true));
        assert_eq!(c.get(5, 5), EMPTY);
        assert!(c.store(90, 17, 17, 90, -1, false));
        assert!(c.ensure_states(1000));
        assert_eq!(unpack(c.get(90, 17)), (17, 90, -1, false));
        assert_eq!(c.compiled_pairs(), 3);
        assert_eq!(c.table_bytes(), 1024 * 1024 * 4);
    }

    #[test]
    fn saturates_past_limit_instead_of_deactivating() {
        let mut c = PairCache::new(8);
        assert!(c.ensure_states(8));
        assert!(c.store(0, 0, 0, 0, 0, true));
        // Past the limit the cache stays active but stops covering new ids
        // (the stride rounds up to the 16-slot minimum); the return value
        // reports the saturation.
        assert!(!c.ensure_states(40));
        assert!(c.is_active());
        assert!(c.is_saturated(40));
        assert_eq!(c.addressable_states(), 16);
        // In-range pairs keep their entries and accept new ones…
        assert_eq!(unpack(c.get(0, 0)), (0, 0, 0, true));
        assert!(c.store(3, 2, 2, 3, 0, false));
        // …while out-of-range keys read EMPTY and refuse stores.
        assert_eq!(c.get(17, 0), EMPTY);
        assert!(!c.store(17, 0, 0, 0, 0, true));
        assert!(!c.store(0, 39, 0, 0, 0, true));
        assert_eq!(c.compiled_pairs(), 2);
    }

    #[test]
    fn explicit_deactivation_clears_everything() {
        let mut c = PairCache::new(8);
        c.ensure_states(4);
        assert!(c.store(0, 0, 0, 0, 0, true));
        c.deactivate();
        assert!(!c.is_active());
        assert_eq!(c.get(0, 0), EMPTY);
        assert_eq!(c.table_bytes(), 0);
        assert_eq!(c.compiled_pairs(), 0);
        assert!(!c.store(0, 0, 0, 0, 0, true));
        c.reactivate();
        assert!(c.ensure_states(4));
        assert_eq!(c.get(0, 0), EMPTY, "deactivation dropped the entries");
    }

    #[test]
    fn compact_remaps_live_entries_and_drops_dead() {
        let mut c = PairCache::new(MAX_COMPILED_STATES);
        c.ensure_states(40);
        assert!(c.store(3, 19, 3, 19, 0, true));
        assert!(c.store(19, 3, 0, 0, -2, false));
        assert!(c.store(7, 7, 8, 7, 1, false)); // 8 is dead below
                                                // Live: {0, 3, 7, 19} → {0, 1, 2, 3}; everything else dies.
        let mut map = vec![u32::MAX; 40];
        map[0] = 0;
        map[3] = 1;
        map[7] = 2;
        map[19] = 3;
        c.compact(&map, 4);
        assert_eq!(c.compiled_pairs(), 2);
        assert_eq!(unpack(c.get(1, 3)), (1, 3, 0, true));
        assert_eq!(unpack(c.get(3, 1)), (0, 0, -2, false));
        // The (7,7) entry referenced dead id 8 and must be gone.
        assert_eq!(c.get(2, 2), EMPTY);
        // Shrunk to the 16-slot minimum stride.
        assert_eq!(c.addressable_states(), 16);
        assert_eq!(c.table_bytes(), 16 * 16 * 4);
    }

    #[test]
    fn for_each_filled_visits_coordinates() {
        let mut c = PairCache::new(64);
        c.ensure_states(20);
        assert!(c.store(3, 19, 3, 19, 2, false));
        assert!(c.store(19, 3, 0, 0, -2, false));
        let mut seen = Vec::new();
        c.for_each_filled_mut(|s, t, e| {
            seen.push((s, t));
            let (a, b, d, null) = unpack(*e);
            *e = pack(a, b, -d, null);
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![(3, 19), (19, 3)]);
        assert_eq!(unpack(c.get(3, 19)).2, -2);
        assert_eq!(unpack(c.get(19, 3)).2, 2);
    }
}
