//! Pluggable argmin selectors for the greedy placement loop.
//!
//! Every greedy family (Section 6.3) repeats the same *replace-top* access
//! pattern per placement round: pick the candidate with the smallest
//! `(score, id)` key, re-score exactly that candidate (pipelining one
//! more task onto it raises its completion time), and repeat — with an
//! occasional *wholesale* re-score when an Equation-(2) ceiling step
//! re-prices every candidate at once. This module isolates the data
//! structures answering those queries, with three implementations that
//! produce **bit-identical decision sequences** and differ only in access
//! pattern. The linear scan is also the reference the trees are checked
//! against:
//!
//! | selector | select | winner re-score | wholesale refresh | lifetime |
//! |---|---|---|---|---|
//! | [`SelectorKind::Linear`]     | `O(u)` dense scan | free | free | one round |
//! | [`SelectorKind::LoserTree`]  | `O(1)` read | one leaf-to-root path, `⌈log₂ u⌉` | bottom-up `O(u)` | one round |
//! | [`SelectorKind::WinnerTree`] | `O(1)` read | one leaf-to-root path, `⌈log₂ p⌉` | bottom-up `O(p)` | across rounds, per lane |
//!
//! The **loser tree** serves mid-sized rounds. A tournament tree over the
//! candidate positions stores, at each internal node, the *loser* of that
//! match (the winner keeps ascending); the overall winner sits at the root.
//! `select` is a single read. Re-scoring the winner replays exactly the
//! matches the winner won — one leaf-to-root path of `⌈log₂ u⌉`
//! comparisons against the stored losers, with **no sift-down fan-out**:
//! unlike a `d`-ary heap, no step examines `d` children to find a minimum,
//! so the comparison count is both smaller and branch-predictable. An
//! Equation-(2) ceiling step re-prices every leaf, so the refresh is
//! *round-batched*: the caller re-evaluates all scores in one dense pass
//! first, then one `O(u)` bottom-up rebuild touches each leaf once.
//!
//! The **winner tree** serves the rounds that carry a
//! [`ViewDelta`](crate::view::ViewDelta). It spans *every* processor, not
//! just the round's candidates — a non-candidate holds an `absent_key`
//! that sorts after every candidate — so it can outlive the round: the
//! greedy scheduler keeps one per placement lane and patches only the
//! processors that changed since the lane's previous round. Leaves sit in
//! buckets of eight under a tree whose nodes hold the minimum key of their
//! subtree, so any leaf — not just the winner's — can be re-keyed with one
//! bucket scan and a walk up that stops as soon as a minimum is unchanged.
//! Rounds without a delta have no lane to keep a tree in and use the
//! per-round selectors: rebuilt from scratch, the winner tree costs the
//! same as a loser tree at `u = p` (selector bench, `docs/selectors.md`)
//! and strictly more when `u ≪ p`, since its build spans all `p` leaves.
//!
//! ## Exactness
//!
//! All selectors order candidates by the same key: `(score, id)` under
//! [`f64::total_cmp`] then processor id. Ids are unique, so the key order
//! is total and the minimum is unique — which tree shape stores the entries
//! is unobservable. The per-round selectors index candidates by their
//! position in the ascending-id candidate list, which orders exactly like
//! the id. The id tie-break applies in every **internal node** too (every
//! match compares full keys, never bare scores), reproducing the linear
//! scan's strict-`<` lowest-id rule even when duplicate scores land in
//! different subtrees of a padded, non-power-of-two tournament. The
//! differential tests below and the greedy proptests (all 8 families × all
//! 3 selectors vs a cache-free naive model, and the persistent lanes vs a
//! fresh scheduler) pin this.
//!
//! ## Staleness contract
//!
//! The trees cache packed keys, so they must never be stale: the caller
//! re-score protocol — `Selector::rescore_winner` after each placement,
//! `Selector::refresh` after each wholesale re-price, `WinnerTree::update`
//! for every leaf whose inputs changed — is a hard contract, debug-asserted
//! where cheap.
//!
//! ## Storage
//!
//! Selector storage ([`LoserTree`], `WinnerTree`) lives in the owning
//! scheduler's persistent scratch, so steady-state rounds allocate nothing
//! once the backing vectors reach their high-water capacity (the
//! zero-allocation test in `vg-bench` pins this through the engine).

/// Which argmin structure a placement round uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// Dense strict-`<` rescan of the whole score row per placement.
    Linear,
    /// Loser (tournament) tree over the round's candidates, with
    /// replace-top path replay.
    LoserTree,
    /// Point-updatable winner tree over every processor, kept across
    /// rounds per placement lane and patched from the view's delta.
    WinnerTree,
}

/// Below this `count · u` product the dense linear rescan wins: it
/// vectorizes, the structured selectors' builds do not. Measured on the
/// slotloop and selector benches; flat between 2¹¹ and 2¹³.
pub(crate) const LINEAR_MAX_WORK: usize = 4096;

/// Rounds shorter than this stay linear regardless of `u`: the `O(u)`
/// build cannot amortize over so few placements.
pub(crate) const STRUCTURED_MIN_COUNT: usize = 4;

/// From this many candidates up, a round whose view carries a
/// [`ViewDelta`](crate::view::ViewDelta) builds its lane's persistent
/// winner tree instead of a per-round selector; once in sync, the lane
/// serves each later round of that lane whatever its size. A lane build
/// costs about one loser-tree round at `u = p` (selector bench,
/// `docs/selectors.md`), and from here on the per-round fill it replaces —
/// scan, score and build over every candidate — is the dominant slot cost
/// (`docs/scaling.md`). Smaller platforms stay on the per-round selectors.
pub const WINNER_TREE_MIN_UPS: usize = 8192;

impl SelectorKind {
    /// The measured crossover policy for a round placing `count` tasks over
    /// `u` candidates, when the view carries no
    /// [`ViewDelta`](crate::view::ViewDelta):
    ///
    /// * `count < 4` or `count · u < 4096` — **linear**: the dense scan's
    ///   vectorized `O(count · u)` beats any build cost.
    /// * otherwise — **loser tree**, built per round over the candidates.
    ///
    /// The winner tree is never chosen here: it lives in a placement lane,
    /// so only rounds with a delta reach it. The greedy scheduler uses a
    /// lane's tree whenever that lane is already in sync (using it costs
    /// nothing), or `u` reaches [`WINNER_TREE_MIN_UPS`] (the rebuild
    /// amortizes over the lane's later rounds); every other round follows
    /// this policy.
    #[must_use]
    pub fn choose(u: usize, count: usize) -> Self {
        if count < STRUCTURED_MIN_COUNT || count * u < LINEAR_MAX_WORK {
            Self::Linear
        } else {
            Self::LoserTree
        }
    }
}

/// Packs a `(score, pos)` key into one `u128` whose integer order is the
/// lexicographic `(total_cmp, pos)` order (`pos` is a candidate position
/// or, in the winner tree, a processor id): the score's bits are mapped
/// through the standard sign-magnitude fold (negative values bit-inverted,
/// positive values sign-flipped), which is strictly monotone with respect
/// to `total_cmp` over **all** bit patterns — every number, both zeros,
/// both infinity signs, every NaN payload — then the position occupies the
/// low 32 bits to break score ties toward the lower position. Tournament
/// matches thus cost one integer compare instead of a `total_cmp`
/// branch chain, with bit-identical outcomes (the unit tests below pin
/// the map against `key_less` exhaustively over crafted bit patterns).
#[inline]
#[must_use]
pub(crate) fn packed_key(score: f64, pos: u32) -> u128 {
    let b = score.to_bits();
    let mapped = if b >> 63 == 1 { !b } else { b | (1 << 63) };
    ((mapped as u128) << 32) | pos as u128
}

/// Sentinel key of the loser tree's padding leaves: larger than every real
/// leaf's packed key. The score half is the all-ones pattern (the maximum
/// of the mapped order — the only score folding there is the
/// maximal-payload *positive* NaN, `0x7FFF_FFFF_FFFF_FFFF`, the top of
/// the `total_cmp` order) and the position half is `u32::MAX`, which no
/// real leaf carries, so a real candidate always wins its match against
/// padding — by score half for every other value, by position half even
/// in the adversarial case of a real score carrying that exact payload.
const SENTINEL_KEY: u128 = ((u64::MAX as u128) << 32) | u32::MAX as u128;

/// Key of processor `id` while it is not a candidate of the round: bit 96
/// sits above the whole score half (bits 32..96) of every [`packed_key`],
/// so an absent processor sorts after every candidate — `+∞` and every NaN
/// payload included — while keeping a unique, id-ordered key.
#[inline]
#[must_use]
pub(crate) fn absent_key(id: u32) -> u128 {
    ABSENT_BIT | id as u128
}

/// The bit that marks an [`absent_key`].
const ABSENT_BIT: u128 = 1 << 96;

/// Whether `key` is an [`absent_key`] (or winner-tree padding).
#[inline]
#[must_use]
pub(crate) fn is_absent(key: u128) -> bool {
    key >= ABSENT_BIT
}

/// Processor id (or candidate position) carried in the low 32 bits of a
/// packed key.
#[inline]
#[must_use]
pub(crate) fn key_id(key: u128) -> usize {
    (key as u32) as usize
}

/// Winner-tree padding leaf: above every absent key.
const PAD_KEY: u128 = u128::MAX;

/// Marker for "runner-up unknown" — forces the next winner re-score to
/// replay its path (no key is ever strictly below it). The only real key
/// that can collide with it is position 0 holding the maximal-payload
/// *negative* NaN — unreachable from validated chains, and the collision
/// merely disables the shortcut (the replay path is always correct).
const RUNNER_UP_UNKNOWN: u128 = 0;

/// The loser-tree selector's persistent storage: a tournament over leaf
/// positions `0..u`, padded with sentinel leaves to the next power of two
/// `m`. `nodes[0]` is the overall winner's leaf, `nodes[1..m]` the *loser*
/// leaf of each internal match (children of node `i` are `2i`/`2i+1` in
/// the implicit complete tree whose leaves `m..2m` map to positions
/// `0..m`); `keys` caches each leaf's `packed_key`, refreshed whenever
/// the caller re-prices that leaf. A node is 4 bytes and a key 16, so the
/// whole `p = 1024` structure is cache-resident.
///
/// The replace-top fast path: after every full path replay that keeps the
/// winner, the minimum of the losers along the winner's path — exactly the
/// tournament's **runner-up** (the second-best candidate must have lost
/// directly to the winner, so it sits on that path) — is remembered. As
/// long as the re-scored winner's new key still beats the cached
/// runner-up, the winner is unchanged, no node moved, and the re-score is
/// a single integer compare; the `⌈log₂ m⌉` path is replayed only when
/// the winner's key crosses the runner-up's. Greedy rounds place long
/// same-winner streaks (a fast processor absorbs tasks until its
/// pipelined completion time passes the field), so most placements take
/// the one-compare path.
#[derive(Debug, Clone, Default)]
pub struct LoserTree {
    /// Real leaf count `u` of the current round.
    leaves: usize,
    /// Padded leaf count: `u.next_power_of_two()`.
    m: usize,
    /// `nodes[0]` winner leaf; `nodes[1..m]` per-match loser leaves.
    nodes: Vec<u32>,
    /// Packed key per leaf (sentinel beyond `leaves`).
    keys: Vec<u128>,
    /// Bottom-up build scratch: the winner of each subtree (`win[m + j] =
    /// j` for leaves, then upward). Persistent so rebuilds allocate
    /// nothing at steady state.
    win: Vec<u32>,
    /// Packed key of the tournament's second-best leaf, or
    /// [`RUNNER_UP_UNKNOWN`] right after a rebuild or a winner change.
    runner_up: u128,
}

impl LoserTree {
    /// Rebuilds the tournament bottom-up over `scores`, `O(m)` — the
    /// round-batched refresh: after a wholesale re-price the caller calls
    /// this once, touching each leaf exactly once, instead of paying one
    /// repair per stale entry. Also the per-round build.
    pub fn rebuild(&mut self, scores: &[f64]) {
        self.leaves = scores.len();
        self.m = self.leaves.next_power_of_two().max(1);
        self.nodes.clear();
        self.nodes.resize(self.m, 0);
        self.keys.clear();
        self.keys.extend(
            scores
                .iter()
                .enumerate()
                .map(|(j, &s)| packed_key(s, j as u32)),
        );
        self.keys.resize(self.m, SENTINEL_KEY);
        self.win.clear();
        self.win.resize(2 * self.m, 0);
        self.runner_up = RUNNER_UP_UNKNOWN;
        if self.m == 1 {
            // Single candidate: it is the winner, there are no matches.
            self.nodes[0] = 0;
            return;
        }
        for j in 0..self.m {
            self.win[self.m + j] = j as u32;
        }
        for i in (1..self.m).rev() {
            let a = self.win[2 * i];
            let b = self.win[2 * i + 1];
            // Strict key order: the right child must strictly beat the
            // left to win; packed keys are unique (positions differ), so
            // there is exactly one order.
            let (w, l) = if self.keys[b as usize] < self.keys[a as usize] {
                (b, a)
            } else {
                (a, b)
            };
            self.win[i] = w;
            self.nodes[i] = l;
        }
        self.nodes[0] = self.win[1];
    }

    /// The current winner's position. `O(1)`; exact provided the re-score
    /// contract (module docs) was honored.
    #[inline]
    #[must_use]
    fn winner(&self) -> usize {
        self.nodes[0] as usize
    }

    /// Re-prices the winner's leaf after *its* score changed and restores
    /// the tournament. Fast path: the new key still beats the cached
    /// runner-up, so nothing moved — one compare. Slow path: replay the
    /// winner's leaf-to-root path — the stored losers along it are exactly
    /// the opponents the winner beat, so re-running those `⌈log₂ m⌉`
    /// matches (demoting the ascending key whenever a stored loser beats
    /// it) restores every invariant, and the minimum loser seen along the
    /// way is the new runner-up whenever the winner defends its title.
    /// Only valid for the winner's leaf (other leaves' paths store losers
    /// the changed key never played), hence the debug assert.
    fn replay_winner(&mut self, leaf: usize, scores: &[f64]) {
        debug_assert_eq!(
            leaf, self.nodes[0] as usize,
            "path replay is only sound for the current winner's leaf"
        );
        let key = packed_key(scores[leaf], leaf as u32);
        self.keys[leaf] = key;
        if key < self.runner_up {
            // Still strictly better than the whole field (the runner-up is
            // the minimum over every other leaf): the winner defends, no
            // node changes. RUNNER_UP_UNKNOWN (0) never satisfies this.
            return;
        }
        let mut w = leaf as u32;
        let mut wk = key;
        // Minimum of the losers along the path = the field's best
        // non-winner key.
        let mut field_min = SENTINEL_KEY;
        let mut node = (self.m + leaf) >> 1;
        while node >= 1 {
            let l = self.nodes[node];
            let lk = self.keys[l as usize];
            field_min = field_min.min(lk);
            if lk < wk {
                self.nodes[node] = w;
                w = l;
                wk = lk;
            }
            node >>= 1;
        }
        self.nodes[0] = w;
        // If the old winner defended its title, the path losers are still
        // the whole non-winner field and their minimum is the runner-up;
        // if the title changed hands, the new winner's opponents live on a
        // different path, so the shortcut re-arms at its next re-score.
        self.runner_up = if w as usize == leaf {
            field_min
        } else {
            RUNNER_UP_UNKNOWN
        };
    }
}

/// Leaves per winner-tree bucket: 8 packed keys are two cache lines, so a
/// bucket's minimum is re-derived from lines the leaf write just touched.
const BUCKET: usize = 8;

/// The persistent selector: the packed keys of processors `0..len` (padded
/// to a power of two `m`), grouped into buckets of eight leaves, under
/// an implicit complete binary tree whose node `i` holds the minimum key of
/// its subtree (children `2i`/`2i+1`; node `nb + b` is bucket `b`'s
/// minimum, `nb = m / BUCKET`). Keys embed the processor id, so the root
/// *is* the winner — no index array. Any leaf can be re-keyed with one
/// bucket scan and one walk up ([`Self::update`]), which is what lets a
/// scheduler keep the tree across rounds and patch only the processors
/// that changed. The buckets keep the tree above them an eighth of the
/// leaves' size, and most re-keys end at the bucket: its minimum only moves
/// when the leaf was or becomes it.
#[derive(Debug, Clone, Default)]
pub(crate) struct WinnerTree {
    /// Real leaf count.
    len: usize,
    /// Bucket count `nb`: `m / BUCKET`, a power of two (≥ 1).
    nb: usize,
    /// Leaf keys, `m` of them (padding beyond `len`).
    keys: Vec<u128>,
    /// `nodes[1..nb]` subtree minima, `nodes[nb..2nb]` bucket minima.
    nodes: Vec<u128>,
}

impl WinnerTree {
    /// Number of real leaves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Resets the shape to `len` leaves, every one holding its
    /// [`absent_key`]; the minima are left for [`Self::fix_up`].
    pub fn reset_absent(&mut self, len: usize) {
        self.len = len;
        let m = len.next_power_of_two().max(BUCKET);
        self.nb = m / BUCKET;
        self.keys.clear();
        self.keys.extend((0..m).map(|j| {
            if j < len {
                // j < len ≤ u32::MAX: views index processors by u32 ids.
                absent_key(j as u32)
            } else {
                PAD_KEY
            }
        }));
        self.nodes.clear();
        self.nodes.resize(2 * self.nb, PAD_KEY);
    }

    /// Key of leaf `j`.
    #[inline]
    #[must_use]
    pub fn leaf(&self, j: usize) -> u128 {
        self.keys[j]
    }

    /// Overwrites leaf `j` without touching the minima — for batched
    /// writes followed by one [`Self::fix_up`].
    #[inline]
    pub fn set_leaf(&mut self, j: usize, key: u128) {
        debug_assert!(j < self.len);
        self.keys[j] = key;
    }

    /// Minimum key of bucket `b`.
    #[inline]
    fn bucket_min(&self, b: usize) -> u128 {
        let lo = b * BUCKET;
        self.keys[lo..lo + BUCKET]
            .iter()
            .copied()
            .min()
            .unwrap_or(PAD_KEY)
    }

    /// Recomputes every bucket minimum and internal node bottom-up,
    /// `O(m)`: the round-batched rebuild after [`Self::reset_absent`] /
    /// [`Self::set_leaf`] writes.
    pub fn fix_up(&mut self) {
        for b in 0..self.nb {
            self.nodes[self.nb + b] = self.bucket_min(b);
        }
        for i in (1..self.nb).rev() {
            self.nodes[i] = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
        }
    }

    /// Sets node `i` (a bucket minimum or internal node) to `v` and
    /// restores the minima above it, stopping at the first ancestor whose
    /// minimum is unchanged — every node above it is unchanged too.
    #[inline]
    fn lift(&mut self, mut i: usize, v: u128) {
        if self.nodes[i] == v {
            return;
        }
        self.nodes[i] = v;
        while i > 1 {
            let v = self.nodes[i].min(self.nodes[i ^ 1]);
            i >>= 1;
            if self.nodes[i] == v {
                break;
            }
            self.nodes[i] = v;
        }
    }

    /// Re-keys leaf `j`: one bucket scan, then a walk up that stops as
    /// soon as a minimum is unchanged — so re-keying a leaf that wins
    /// nothing costs the bucket scan alone.
    #[inline]
    fn update(&mut self, j: usize, key: u128) {
        debug_assert!(j < self.len);
        self.keys[j] = key;
        let b = j / BUCKET;
        let v = self.bucket_min(b);
        self.lift(self.nb + b, v);
    }

    /// Re-keys every `(leaf, key)` of `items`, then restores the minima
    /// level by level: each level recomputes only the parents of nodes
    /// whose minimum changed. The result equals one [`Self::update`] per
    /// item, but the work is grouped by level instead of chained
    /// leaf-to-root, so independent nodes' cache misses overlap and a
    /// batch sorted by leaf walks every level in address order. A leaf may
    /// appear more than once (its last key wins); `frontier` is
    /// caller-owned scratch. Returns how many leaves left the absent state
    /// minus how many entered it.
    pub fn update_batch(&mut self, items: &[(u32, u128)], frontier: &mut Vec<u32>) -> isize {
        frontier.clear();
        let mut present = 0isize;
        for &(j, key) in items {
            debug_assert!((j as usize) < self.len);
            let old = self.keys[j as usize];
            if old == key {
                continue;
            }
            present += isize::from(!is_absent(key)) - isize::from(!is_absent(old));
            self.keys[j as usize] = key;
            // nb + b < 2nb ≤ 2^30 for any u32-indexed platform.
            let node = (self.nb + j as usize / BUCKET) as u32;
            if frontier.last() != Some(&node) {
                frontier.push(node);
            }
        }
        // The bucket level: re-derive each touched bucket's minimum and
        // keep the parents of the buckets that moved.
        let mut w = 0;
        for r in 0..frontier.len() {
            let i = frontier[r] as usize;
            let v = self.bucket_min(i - self.nb);
            if self.nodes[i] == v {
                continue;
            }
            self.nodes[i] = v;
            let parent = (i >> 1) as u32;
            if parent >= 1 && (w == 0 || frontier[w - 1] != parent) {
                frontier[w] = parent;
                w += 1;
            }
        }
        frontier.truncate(w);
        while !frontier.is_empty() {
            // Every entry sits on the same level; compact the next level's
            // parents in place (each entry yields at most one).
            let mut w = 0;
            for r in 0..frontier.len() {
                let i = frontier[r] as usize;
                let v = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
                if self.nodes[i] == v {
                    continue;
                }
                self.nodes[i] = v;
                let parent = (i >> 1) as u32;
                if parent >= 1 && (w == 0 || frontier[w - 1] != parent) {
                    frontier[w] = parent;
                    w += 1;
                }
            }
            frontier.truncate(w);
        }
        present
    }

    /// The minimum key over every leaf: an [`absent_key`] (or padding)
    /// when no leaf holds a candidate, else the winner's packed key.
    #[inline]
    #[must_use]
    fn min_key(&self) -> u128 {
        self.nodes.get(1).copied().unwrap_or(PAD_KEY)
    }
}

/// The argmin strategy of one placement round. Every variant returns the
/// exact same winner sequence for the same score trajectory (the
/// differential tests and the greedy proptests pin it); they differ only
/// in access pattern, so the placement loop in `GreedyScheduler` is shared
/// and only winner selection, score write-back and the wholesale refresh
/// dispatch here.
///
/// The loop addresses candidates by **slot**. The list selectors' slots
/// are positions in the round's ascending-id candidate list and their
/// scores live in the caller's dense row; the winner tree's slots are
/// processor ids — its leaves span the whole platform, non-candidates
/// included — and its scores live in its own leaf keys, so the caller's
/// row stays empty. Both slot orders agree with processor-id order, so the
/// `(score, slot)` key order is the same everywhere.
pub(crate) enum Selector {
    /// Dense strict-`<` rescan of the whole score row per placement.
    Linear,
    /// Loser tree over candidate positions; owns the scheduler's
    /// persistent tree storage for the round.
    Loser(LoserTree),
    /// A lane's persistent tree over processor ids, whose leaves hold the
    /// round's base keys on entry; owned for the round and handed back.
    Winner(WinnerTree),
}

impl Selector {
    /// Number of slots the round addresses: the row length for the list
    /// selectors, the platform size for the winner tree.
    pub(crate) fn slots(&self, scores: &[f64]) -> usize {
        match self {
            Self::Winner(tree) => tree.len(),
            Self::Linear | Self::Loser(_) => scores.len(),
        }
    }

    /// Whether slot `j` holds one of the round's candidates (every slot of
    /// a list selector does; a winner-tree leaf does unless it is absent).
    #[inline]
    pub(crate) fn holds(&self, j: usize) -> bool {
        match self {
            Self::Winner(tree) => !is_absent(tree.leaf(j)),
            Self::Linear | Self::Loser(_) => true,
        }
    }

    /// Slot of the current argmin; the trees' winner is already at the
    /// root.
    pub(crate) fn select(&mut self, scores: &[f64]) -> usize {
        match self {
            Self::Loser(tree) => tree.winner(),
            Self::Winner(tree) => {
                let key = tree.min_key();
                // A round only runs with a candidate, and candidates never
                // leave the tree mid-round (a spent one is re-keyed to +inf).
                debug_assert!(!is_absent(key), "winner-tree round without a candidate");
                key_id(key)
            }
            Self::Linear => {
                let mut best_pos = 0usize;
                let mut best_score = f64::INFINITY;
                for (pos, &s) in scores.iter().enumerate() {
                    // Strict `<` keeps the lowest processor id on ties
                    // ([D9]); candidates are in ascending id order.
                    if s < best_score {
                        best_score = s;
                        best_pos = pos;
                    }
                }
                best_pos
            }
        }
    }

    /// Re-scores the winner at slot `j` to `score`: the loser tree replays
    /// the winner's path, the winner tree re-keys one leaf, the linear
    /// variant just stores the score.
    pub(crate) fn rescore_winner(&mut self, j: usize, score: f64, scores: &mut [f64]) {
        match self {
            Self::Winner(tree) => tree.update(j, packed_key(score, j as u32)),
            Self::Loser(tree) => {
                scores[j] = score;
                tree.replay_winner(j, scores);
            }
            Self::Linear => scores[j] = score,
        }
    }

    /// Stages slot `j`'s score during a wholesale re-price; the structure
    /// catches up in one [`Self::refresh`] after the dense pass.
    #[inline]
    pub(crate) fn stage(&mut self, j: usize, score: f64, scores: &mut [f64]) {
        match self {
            Self::Winner(tree) => tree.set_leaf(j, packed_key(score, j as u32)),
            Self::Linear | Self::Loser(_) => scores[j] = score,
        }
    }

    /// Round-batched wholesale refresh after every score changed at once
    /// (an Equation-(2) ceiling step): the caller has staged the whole row
    /// in one dense pass; the trees then rebuild bottom-up, touching each
    /// entry exactly once. The linear variant is stateless.
    pub(crate) fn refresh(&mut self, scores: &[f64]) {
        match self {
            Self::Loser(tree) => tree.rebuild(scores),
            Self::Winner(tree) => tree.fix_up(),
            Self::Linear => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key order shared by every selector: score via `total_cmp`, then
    /// position — the unique total order that reproduces the linear
    /// scan's lowest-id tie-break (for the non-NaN scores produced by
    /// validated chains, `total_cmp` agrees with `<`).
    fn key_less(a: (f64, u32), b: (f64, u32)) -> bool {
        match a.0.total_cmp(&b.0) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a.1 < b.1,
        }
    }

    /// Drives one selector through a scripted round and returns the winner
    /// sequence; `bumps` gives the score the winner is re-scored to after
    /// each placement. The winner tree gets one leaf per row position, every
    /// one a candidate.
    fn run_round(kind: SelectorKind, scores: &mut [f64], bumps: &[f64]) -> Vec<usize> {
        let mut sel = match kind {
            SelectorKind::Linear => Selector::Linear,
            SelectorKind::LoserTree => {
                let mut tree = LoserTree::default();
                tree.rebuild(scores);
                Selector::Loser(tree)
            }
            SelectorKind::WinnerTree => {
                let mut tree = WinnerTree::default();
                tree.reset_absent(scores.len());
                for (j, &s) in scores.iter().enumerate() {
                    tree.set_leaf(j, packed_key(s, j as u32));
                }
                tree.fix_up();
                Selector::Winner(tree)
            }
        };
        let mut picks = Vec::new();
        for &bump in bumps {
            let w = sel.select(scores);
            picks.push(w);
            sel.rescore_winner(w, bump, scores);
        }
        picks
    }

    /// All three selectors must agree with each other (and hence with the
    /// linear reference) on every scripted round.
    fn assert_all_agree(scores: &[f64], bumps: &[f64]) {
        let linear = run_round(SelectorKind::Linear, &mut scores.to_vec(), bumps);
        for kind in [SelectorKind::LoserTree, SelectorKind::WinnerTree] {
            let tree = run_round(kind, &mut scores.to_vec(), bumps);
            assert_eq!(linear, tree, "{kind:?} diverged on {scores:?} / {bumps:?}");
        }
    }

    #[test]
    fn loser_tree_basic_argmin() {
        let scores = [5.0, 3.0, 9.0, 4.0, 8.0];
        let mut tree = LoserTree::default();
        tree.rebuild(&scores);
        assert_eq!(tree.winner(), 1);
    }

    #[test]
    fn duplicate_scores_resolve_to_lowest_position_in_internal_nodes() {
        // The tie-break audit of the loser tree: the
        // duplicates land in *different subtrees* of the padded
        // tournament (u = 5 pads to m = 8: leaves {0..3} and {4..7} are
        // the two top-level subtrees), so the lowest-position rule must
        // hold in internal matches, not just at the leaves. A bare-score
        // comparison would let either duplicate through depending on
        // shape; the full-key comparison cannot.
        let scores = [7.0, 3.0, 9.0, 8.0, 3.0];
        let mut tree = LoserTree::default();
        tree.rebuild(&scores);
        assert_eq!(tree.winner(), 1, "3.0 appears at positions 1 and 4");

        // And across every subtree split of a non-power-of-two row: place
        // the duplicate pair at all position pairs and check the lower one
        // always wins, in the tree and in the full replace-top round.
        for u in [5usize, 6, 7, 11, 13] {
            for i in 0..u {
                for j in i + 1..u {
                    let mut scores = vec![10.0; u];
                    scores[i] = 1.0;
                    scores[j] = 1.0;
                    let mut tree = LoserTree::default();
                    tree.rebuild(&scores);
                    assert_eq!(tree.winner(), i, "u={u} duplicates at ({i},{j})");
                    // Re-score the winner above the duplicate: its twin
                    // must surface next, then the winner's path replay
                    // must keep ordering full keys.
                    let bumps = [2.0, 3.0, 4.0];
                    assert_all_agree(&scores, &bumps);
                }
            }
        }
    }

    #[test]
    fn all_equal_scores_drain_in_position_order() {
        // Every score identical: the selectors must pick positions
        // 0, 1, 2, … as each winner is re-scored upward — the pure
        // tie-break ordering, exercised across both subtree shapes of
        // every non-power-of-two size.
        for u in [3usize, 5, 6, 7, 9, 12] {
            let scores = vec![1.0; u];
            let bumps: Vec<f64> = (0..u).map(|k| 2.0 + k as f64).collect();
            let linear = run_round(SelectorKind::Linear, &mut scores.clone(), &bumps);
            assert_eq!(linear, (0..u).collect::<Vec<_>>(), "u={u}");
            assert_all_agree(&scores, &bumps);
        }
    }

    #[test]
    fn replay_winner_restores_the_tournament() {
        let mut scores = vec![5.0, 3.0, 9.0, 4.0, 8.0, 2.0, 7.0];
        let mut tree = LoserTree::default();
        tree.rebuild(&scores);
        let expected_order = [5usize, 1, 3, 0, 6, 4, 2];
        for &expect in &expected_order {
            assert_eq!(tree.winner(), expect);
            let w = tree.winner();
            scores[w] += 100.0; // push the winner to the back of the pack
            tree.replay_winner(w, &scores);
        }
    }

    #[test]
    fn wholesale_refresh_reprices_every_leaf() {
        let mut scores = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut tree = LoserTree::default();
        tree.rebuild(&scores);
        assert_eq!(tree.winner(), 0);
        // Invert the row — the old tournament is wholly wrong; one
        // round-batched rebuild must re-price everything.
        for (i, s) in scores.iter_mut().enumerate() {
            *s = -(i as f64);
        }
        tree.rebuild(&scores);
        assert_eq!(tree.winner(), 5);
    }

    #[test]
    fn single_candidate_and_power_of_two_shapes() {
        for u in [1usize, 2, 4, 8] {
            let scores: Vec<f64> = (0..u).map(|k| 10.0 - k as f64).collect();
            let mut tree = LoserTree::default();
            tree.rebuild(&scores);
            assert_eq!(tree.winner(), u - 1, "u={u}: smallest score is last");
        }
    }

    #[test]
    fn scripted_rounds_agree_across_selectors() {
        // Deterministic pseudo-random rounds over assorted sizes,
        // including re-scores that create fresh duplicates mid-round.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 97) as f64
        };
        for u in [2usize, 3, 5, 8, 13, 21, 64, 100] {
            let scores: Vec<f64> = (0..u).map(|_| next()).collect();
            let bumps: Vec<f64> = (0..2 * u).map(|_| 100.0 + next()).collect();
            assert_all_agree(&scores, &bumps);
        }
    }

    #[test]
    fn infinite_and_extreme_scores_still_beat_padding() {
        // Real leaves with +∞ scores must still win their matches against
        // the sentinel padding (position tie-break), so a row of
        // overflowed scores drains in position order instead of selecting
        // a padding leaf.
        let scores = vec![f64::INFINITY; 5];
        let mut tree = LoserTree::default();
        tree.rebuild(&scores);
        assert_eq!(tree.winner(), 0);
    }

    #[test]
    fn packed_key_order_matches_total_cmp_then_pos() {
        // The integer fold must agree with (total_cmp, pos) over every
        // class of bit pattern — numbers, both zeros, both infinities,
        // subnormals, NaNs of either sign — so tournament matches on
        // packed keys are bit-identical to `key_less` matches.
        let specimens = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE / 2.0, // negative subnormal
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            2.5,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // minimal positive NaN payload
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF), // maximal positive NaN payload
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF), // maximal negative NaN payload
        ];
        for &a in &specimens {
            for &b in &specimens {
                for (pa, pb) in [(0u32, 1u32), (1, 0), (3, 3)] {
                    assert_eq!(
                        packed_key(a, pa) < packed_key(b, pb),
                        key_less((a, pa), (b, pb)),
                        "a={a:?}({:#x}) pa={pa} b={b:?}({:#x}) pb={pb}",
                        a.to_bits(),
                        b.to_bits(),
                    );
                }
            }
        }
    }

    #[test]
    fn crossover_policy_boundaries() {
        use SelectorKind::*;
        // Short rounds stay linear regardless of platform size.
        assert_eq!(SelectorKind::choose(100_000, 3), Linear);
        // The count·u product gates the structured selector exactly at
        // LINEAR_MAX_WORK.
        assert_eq!(SelectorKind::choose(1023, 4), Linear); // 4092 < 4096
        assert_eq!(SelectorKind::choose(1024, 4), LoserTree); // 4096
        assert_eq!(SelectorKind::choose(1025, 4), LoserTree);
        assert_eq!(SelectorKind::choose(256, 15), Linear); // 3840
        assert_eq!(SelectorKind::choose(256, 16), LoserTree); // 4096
        assert_eq!(SelectorKind::choose(1024, 2048), LoserTree);
        // Without a delta there is no lane: large rounds stay on the
        // per-round loser tree.
        assert_eq!(SelectorKind::choose(8192, 4), LoserTree);
        assert_eq!(SelectorKind::choose(131_072, 100), LoserTree);
        // A huge platform with a too-short round still scans linearly.
        assert_eq!(SelectorKind::choose(131_072, 3), Linear);
    }

    #[test]
    fn absent_keys_sort_after_every_candidate_key() {
        // Candidates with +∞, the largest finite score and the largest
        // NaN payload must all beat every absent key, and absent keys
        // keep the id order among themselves.
        for score in [
            f64::INFINITY,
            f64::MAX,
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF),
        ] {
            let k = packed_key(score, u32::MAX);
            assert!(!is_absent(k));
            assert!(k < absent_key(0), "{score:?}");
        }
        assert!(absent_key(3) < absent_key(4));
        assert!(is_absent(absent_key(0)) && is_absent(PAD_KEY));
        assert_eq!(key_id(absent_key(17)), 17);
        assert_eq!(key_id(packed_key(2.5, 9)), 9);
    }

    #[test]
    fn winner_tree_point_updates_track_the_minimum() {
        // Arbitrary leaves (not just the winner) are re-keyed, including
        // to absent and back, across non-power-of-two shapes; the root
        // must always equal a brute-force minimum over the leaves.
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1usize, 2, 3, 5, 8, 13, 100] {
            let mut tree = WinnerTree::default();
            tree.reset_absent(len);
            tree.fix_up();
            assert!(is_absent(tree.min_key()), "empty candidate set");
            let mut keys: Vec<u128> = (0..len).map(|j| absent_key(j as u32)).collect();
            for _ in 0..20 * len {
                let j = (next() % len as u64) as usize;
                let r = next();
                let key = if r % 4 == 0 {
                    absent_key(j as u32)
                } else {
                    packed_key((r % 23) as f64, j as u32)
                };
                keys[j] = key;
                tree.update(j, key);
                assert_eq!(tree.min_key(), *keys.iter().min().unwrap(), "len={len}");
                assert_eq!(tree.leaf(j), key);
            }
        }
    }

    #[test]
    fn winner_tree_batches_match_single_updates() {
        // Batched re-keying — sorted, unsorted, with repeats, with no-op
        // keys — must leave every node exactly as one update per item.
        let mut state = 0x0bad_cafe_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut frontier = Vec::new();
        for len in [1usize, 2, 3, 7, 64, 100, 1000] {
            let mut single = WinnerTree::default();
            single.reset_absent(len);
            single.fix_up();
            let mut batched = single.clone();
            for round in 0..30 {
                let n = (next() % 40) as usize;
                let mut items: Vec<(u32, u128)> = (0..n)
                    .map(|_| {
                        let j = (next() % len as u64) as u32;
                        let r = next();
                        let key = if r % 3 == 0 {
                            absent_key(j)
                        } else {
                            packed_key((r % 17) as f64, j)
                        };
                        (j, key)
                    })
                    .collect();
                if round % 2 == 0 {
                    items.sort_unstable_by_key(|&(j, _)| j);
                }
                for &(j, key) in &items {
                    single.update(j as usize, key);
                }
                let before = (0..len).filter(|&j| !is_absent(batched.leaf(j))).count();
                let present = batched.update_batch(&items, &mut frontier);
                let after = (0..len).filter(|&j| !is_absent(batched.leaf(j))).count();
                assert_eq!(batched.keys, single.keys, "len={len} round={round}");
                assert_eq!(batched.nodes, single.nodes, "len={len} round={round}");
                assert_eq!(after as isize - before as isize, present);
            }
        }
    }

    #[test]
    fn winner_tree_reset_clears_a_larger_shape() {
        let mut tree = WinnerTree::default();
        tree.reset_absent(9);
        tree.set_leaf(8, packed_key(1.0, 8));
        tree.fix_up();
        assert_eq!(key_id(tree.min_key()), 8);
        // Shrinking must not leave the old winner behind.
        tree.reset_absent(3);
        tree.fix_up();
        assert!(is_absent(tree.min_key()));
        assert_eq!(tree.len(), 3);
    }
}
