//! The shared tree-search engine behind every hitting-set enumerator.
//!
//! Both the exact MMCS enumeration ([`crate::mmcs`]) and the approximate
//! `ADCEnum` core ([`crate::approx`]) explore the same search tree: a node is
//! a partial solution `S` together with the bookkeeping MMCS maintains —
//! `cand` (elements still allowed into `S`), `uncov` (subsets not yet hit),
//! and `crit` (per element of `S`, the subsets it alone hits — the minimality
//! invariant). The two algorithms differ only in *local* decisions: when a
//! node is terminal, whether a non-hitting branch exists, and how candidate
//! lists are thinned. This module owns the tree walk; the algorithms supply
//! those decisions through [`SearchDriver`].
//!
//! The walk is an **explicit frontier**, not recursion, which buys four
//! things the recursive implementations could not offer:
//!
//! * **Pluggable order** ([`SearchOrder`]): a LIFO stack reproduces the
//!   classic depth-first traversal; [`SearchOrder::ShortestFirst`] is a
//!   best-first priority queue keyed by `|S|` plus an admissible lower bound
//!   on the elements still needed ([`greedy_disjoint_lower_bound`]), which
//!   guarantees covers are emitted in nondecreasing size — so any output cap
//!   keeps the entire shortest frontier instead of an arbitrary DFS prefix.
//! * **Anytime budgets** ([`SearchBudget`]): node, wall-clock, and emission
//!   limits checked at every step, with a [`SearchOutcome`] reporting whether
//!   the run was exhaustive and, under shortest-first, up to which cover size
//!   the emitted frontier is provably complete.
//! * **Suspend / resume** ([`SuspendedSearch`]): a budget-cut run hands back
//!   its live frontier as an opaque token; [`Search::resume`] continues the
//!   traversal exactly where it stopped, and a cut-then-resumed run emits
//!   **the same cover sequence** as a single uncapped run.
//! * **Bounded memory** ([`SearchBudget::max_frontier_nodes`]): when the
//!   best-first frontier outgrows the cap, the deepest tail of the heap is
//!   spilled to a DFS lane and expanded in place, so the frontier never
//!   holds more than ~1.5× the cap while the nondecreasing-size emission
//!   guarantee degrades gracefully (the [`Truncation::complete_below`] bound
//!   stays honest throughout).
//!
//! One escape hatch remains from the recursion era: an **in-place undo walk**
//! ([`SearchDriver::supports_inplace_dfs`]) used for unbudgeted depth-first
//! exact enumeration, where per-child node snapshots would only cost — it
//! visits the identical tree in the identical order while mutating a single
//! node's state with O(1) undo instead of cloning it per child.
//!
//! A node holds `uncov` and its criticality sets as bitsets over subset
//! ids, packed into one buffer of `⌈subsets / 64⌉`-word regions. Each run
//! builds the element → subsets incidence once, as one bitset column per
//! element, so a hitting child for `e` costs a few word operations per
//! region (`crit & !col[e]`, `uncov & !col[e]`, `uncov & col[e]`) instead
//! of one membership test per subset. Set bits iterate in ascending subset
//! order, which fixes subset selection and hence the whole traversal.
//!
//! Every run goes through one value, [`Search`]: a branch strategy, a
//! frontier order, a budget, and where the walk starts — the root, optionally
//! confined to a set of allowed elements, or a suspended frontier. Its single
//! [`Search::run`] takes the algorithm as a driver ([`crate::ExactDriver`]
//! for MMCS, [`crate::ApproxDriver`] for `ADCEnum`).

#![doc = "conformance: ordered-output"]

use crate::{BranchStrategy, SetSystem};
use adc_data::fx::FxHashMap;
use adc_data::FixedBitSet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The order in which frontier nodes are expanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchOrder {
    /// Classic depth-first traversal (a LIFO stack): children are explored in
    /// the order the recursive algorithms visit them. Cheapest per node, but
    /// emission order is arbitrary, so truncated runs keep an arbitrary
    /// prefix of the answer set.
    #[default]
    Dfs,
    /// Best-first traversal keyed by `|S| +` an admissible lower bound on the
    /// elements still needed. Covers are emitted in nondecreasing size, and
    /// ties are broken by insertion order, so truncated runs keep exactly the
    /// shortest part of the minimal frontier, deterministically.
    ShortestFirst,
}

/// Resource limits for one search run (one *slice*, when resuming). The
/// default is unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchBudget {
    /// Stop after expanding this many nodes.
    pub max_nodes: Option<u64>,
    /// Stop once this much wall-clock time has elapsed since the search
    /// started (checked before each node expansion *and* periodically inside
    /// wide expansions, so a single huge subset-selection loop cannot
    /// overshoot the deadline unboundedly).
    pub deadline: Option<Duration>,
    /// Stop after emitting this many results.
    pub max_emitted: Option<usize>,
    /// Memory bound: maximum number of nodes the best-first frontier may
    /// hold. Exceeding it triggers a *contraction* — the deepest (largest
    /// key) half of the heap is spilled to a DFS lane and expanded in place
    /// before best-first popping resumes — so total held nodes stay within
    /// ~1.5× this cap plus transient DFS depth. Contractions trade the
    /// global nondecreasing-size emission guarantee for bounded memory;
    /// [`Truncation::complete_below`] remains a correct bound either way,
    /// and [`SearchOutcome::contractions`] reports how often it happened.
    /// Ignored under [`SearchOrder::Dfs`], whose stack is inherently bounded
    /// by tree depth × branching.
    pub max_frontier_nodes: Option<usize>,
}

impl SearchBudget {
    /// No limits (same as `Default`).
    pub fn unlimited() -> Self {
        SearchBudget::default()
    }

    /// Limit the number of expanded nodes.
    pub fn with_max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = Some(max_nodes);
        self
    }

    /// Limit the wall-clock time, measured from the start of the search.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Limit the number of emitted results.
    pub fn with_max_emitted(mut self, max_emitted: usize) -> Self {
        self.max_emitted = Some(max_emitted);
        self
    }

    /// Bound the number of nodes the best-first frontier may hold (see
    /// [`SearchBudget::max_frontier_nodes`] for the contraction policy).
    pub fn with_max_frontier_nodes(mut self, max_frontier_nodes: usize) -> Self {
        self.max_frontier_nodes = Some(max_frontier_nodes);
        self
    }

    /// `true` when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_nodes.is_none()
            && self.deadline.is_none()
            && self.max_emitted.is_none()
            && self.max_frontier_nodes.is_none()
    }
}

/// Why a search stopped before exhausting its frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// [`SearchBudget::max_nodes`] was reached.
    MaxNodes,
    /// [`SearchBudget::deadline`] passed.
    Deadline,
    /// [`SearchBudget::max_emitted`] was reached.
    MaxEmitted,
    /// The caller's callback returned `false`.
    Callback,
}

/// Description of a truncated (non-exhaustive) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// What cut the search short.
    pub reason: TruncationReason,
    /// Under [`SearchOrder::ShortestFirst`]: every cover of size *strictly
    /// below* this was emitted before the cut — the frontier is complete up
    /// to (but excluding) this size. The bound is the minimum admissible key
    /// over **every** pending node (heap, DFS spill lane, and any expansion
    /// aborted mid-flight), so it stays correct even after memory-bound
    /// contractions have perturbed the emission order. `None` under
    /// [`SearchOrder::Dfs`], where frontier priorities carry no admissible
    /// completeness information and no such guarantee exists.
    pub complete_below: Option<usize>,
}

/// What one search run (slice) did and whether it finished.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Number of results handed to the callback *by this run*. When
    /// resuming, the per-slice counters add up across slices;
    /// [`SuspendedSearch::total_emitted`] carries the running total.
    pub emitted: usize,
    /// Number of frontier nodes expanded by this run (the explicit-stack
    /// equivalent of the recursive call count).
    pub nodes_expanded: u64,
    /// `None` when the frontier was exhausted — the enumeration is complete.
    /// `Some` when a budget or the callback cut the run short.
    pub truncation: Option<Truncation>,
    /// High-water mark of simultaneously held frontier nodes (heap + spill
    /// lane + any in-flight node). Under the in-place undo walk, where
    /// pending siblings are implicit, this reports the maximum walk depth
    /// instead.
    pub peak_frontier: usize,
    /// Number of memory-bound frontier contractions performed by this run
    /// (always 0 unless [`SearchBudget::max_frontier_nodes`] is set). Any
    /// non-zero value means the nondecreasing-size emission guarantee of
    /// [`SearchOrder::ShortestFirst`] was locally relaxed to stay within
    /// the memory bound.
    pub contractions: u64,
    /// The live frontier of a cut run, for [`Search::resume`]. `Some` exactly
    /// when [`SearchOutcome::truncation`] is `Some`, with one exception: the
    /// in-place undo walk (unbudgeted exact DFS) does not materialise a
    /// frontier, so a callback stop there yields no token.
    pub suspended: Option<SuspendedSearch>,
}

impl SearchOutcome {
    /// `true` when the whole search space was explored.
    pub fn is_exhaustive(&self) -> bool {
        self.truncation.is_none()
    }
}

/// A node's `uncov` and `crit` sets as bitset regions over subset ids, packed
/// into one buffer: region 0 is `uncov`, region `i + 1` is `crit[i]`, and
/// each region is `stride = ⌈subsets / 64⌉` words (bits at or past the subset
/// count are always zero). The whole thing sits behind an `Rc` so children
/// that keep the sets unchanged (the non-hitting branch) share them for
/// free — this is what makes wide frontiers cheap enough to hold and suspend.
#[derive(Debug)]
struct NodeLists {
    words: Box<[u64]>,
    stride: usize,
}

impl NodeLists {
    fn root(num_subsets: usize) -> Self {
        NodeLists {
            words: FixedBitSet::full(num_subsets).as_words().into(),
            stride: num_subsets.div_ceil(64),
        }
    }

    fn region(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }
}

/// The element → subsets incidence of a system: per element, one bitset
/// column of `stride` words holding the subsets that contain it. Built once
/// per [`Search::run`], it answers "does element `e` hit subset `F`?" for a
/// whole region at a time.
struct Columns {
    words: Vec<u64>,
    stride: usize,
}

impl Columns {
    fn new(system: &SetSystem) -> Self {
        let stride = system.len().div_ceil(64);
        let mut words = vec![0u64; system.num_elements() * stride];
        for (fi, subset) in system.subsets().iter().enumerate() {
            for e in subset.iter() {
                words[e * stride + fi / 64] |= 1u64 << (fi % 64);
            }
        }
        Columns { words, stride }
    }

    /// The subsets element `e` hits.
    fn col(&self, e: usize) -> &[u64] {
        &self.words[e * self.stride..(e + 1) * self.stride]
    }
}

/// Set-bit positions of a word region, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                wi * 64 + bit
            })
        })
    })
}

/// `true` when a word region holds no set bit.
pub(crate) fn is_zero(words: &[u64]) -> bool {
    words.iter().all(|&w| w == 0)
}

/// The child-construction kernel shared by every walk: from a parent's
/// regions (`uncov` plus `crit_regions` criticality sets) and the column of
/// the element `e` entering the solution, write the child's regions into
/// `child` (`crit_regions + 2` regions):
///
/// * `crit'ᵢ = critᵢ & !col` — returns `false` as soon as one is empty: some
///   element of `S` would stop being critical, so no minimal solution
///   extends `S ∪ {e}` (`child` is then partially written);
/// * `uncov' = uncov & !col`;
/// * the new element's criticality set, `uncov & col`, last.
fn hit_child(parent: &[u64], crit_regions: usize, col: &[u64], child: &mut [u64]) -> bool {
    let stride = col.len();
    for i in 1..=crit_regions {
        let crit = &parent[i * stride..(i + 1) * stride];
        let out = &mut child[i * stride..(i + 1) * stride];
        let mut any = 0u64;
        for ((o, &c), &h) in out.iter_mut().zip(crit).zip(col) {
            *o = c & !h;
            any |= *o;
        }
        if any == 0 {
            return false;
        }
    }
    let (kept, rest) = child.split_at_mut(stride);
    let covered = &mut rest[crit_regions * stride..];
    for (((k, v), &u), &h) in kept.iter_mut().zip(covered).zip(parent).zip(col) {
        *k = u & !h;
        *v = u & h;
    }
    true
}

/// A frontier node: a partial solution plus the MMCS bookkeeping needed to
/// expand it independently of every other node.
#[derive(Debug, Clone)]
pub struct SearchNode {
    /// Elements of the partial solution, in insertion order.
    s: Vec<usize>,
    /// The partial solution as a bitset.
    s_set: FixedBitSet,
    /// Elements still allowed into the solution.
    cand: FixedBitSet,
    /// `uncov` (subsets not yet hit) and `crit[i]` (subsets for which `s[i]`
    /// is the only hitter; every region non-empty — the MMCS minimality
    /// invariant), as bitset regions in one buffer.
    lists: Rc<NodeLists>,
    /// Subsets still reachable by some candidate (only thinned by drivers
    /// that take the non-hitting branch; shared untouched otherwise).
    can_hit: Rc<FixedBitSet>,
}

impl SearchNode {
    /// Root node whose candidate set is confined to `allowed` (when given):
    /// the search then visits exactly the solutions contained in `allowed` —
    /// elements outside it can never enter a partial solution, and an
    /// uncovered subset none of whose elements are allowed kills the branch
    /// through the ordinary unhittable check.
    fn root_within(system: &SetSystem, allowed: Option<&FixedBitSet>) -> Self {
        let m = system.num_elements();
        SearchNode {
            s: Vec::new(),
            s_set: FixedBitSet::new(m),
            cand: allowed.cloned().unwrap_or_else(|| FixedBitSet::full(m)),
            lists: Rc::new(NodeLists::root(system.len())),
            can_hit: Rc::new(FixedBitSet::full(system.len())),
        }
    }

    /// The partial solution as a bitset.
    pub fn solution(&self) -> &FixedBitSet {
        &self.s_set
    }

    /// The partial solution's elements in insertion order.
    pub fn elements(&self) -> &[usize] {
        &self.s
    }

    /// Candidate elements still allowed into the solution.
    pub fn cand(&self) -> &FixedBitSet {
        &self.cand
    }

    /// The subsets not yet hit by the partial solution, as the words of a
    /// bitset over subset indexes: bit `fi % 64` of word `fi / 64` is set iff
    /// subset `fi` is uncovered. There are `⌈subsets / 64⌉` words, and bits
    /// at or past the subset count are zero, so the region is empty iff every
    /// word is zero.
    pub fn uncov(&self) -> &[u64] {
        self.lists.region(0)
    }

    /// `crit[i]`: the subsets for which `s[i]` is the only hitter, laid out
    /// like [`Self::uncov`]. `uncov` and `crit[i]` are disjoint, and together
    /// they are exactly the subsets the solution without `s[i]` leaves unhit.
    pub(crate) fn crit(&self, i: usize) -> &[u64] {
        self.lists.region(i + 1)
    }
}

/// What the engine should do with a freshly popped node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeDisposition {
    /// Terminal: hand the solution to the callback; do not expand.
    Emit,
    /// Terminal: neither emit nor expand (e.g. threshold met but not minimal).
    Discard,
    /// Interior: expand by branching on an uncovered subset.
    Expand,
}

/// The algorithm-specific decisions plugged into [`Search::run`].
///
/// The engine owns node expansion (candidate thinning, the criticality /
/// minimality invariant, subset selection, frontier discipline, budgets);
/// the driver decides when a node is terminal and which optional rules —
/// non-hitting branch, redundant-group suppression, lower bounds — apply.
pub trait SearchDriver {
    /// Classify a popped node: emit, discard, or expand.
    fn classify(&mut self, system: &SetSystem, node: &SearchNode) -> NodeDisposition;

    /// Whether expansion also produces the branch that does *not* hit the
    /// chosen subset (`ADCEnum`'s second branch). Defaults to `false` (exact
    /// MMCS: every hitting set must hit every subset).
    fn wants_skip_branch(&self) -> bool {
        false
    }

    /// Given the reduced candidate list of the non-hitting branch, decide
    /// whether that branch is worth exploring (the `WillCover` pruning).
    /// `unhittable` lists, in ascending order, exactly the subsets that
    /// `solution ∪ cand` leaves unhit: the uncovered subsets no remaining
    /// candidate can reach. Only called when [`Self::wants_skip_branch`] is
    /// `true`.
    fn explore_skip_branch(
        &mut self,
        _system: &SetSystem,
        _solution: &FixedBitSet,
        _cand: &FixedBitSet,
        _unhittable: &[u32],
    ) -> bool {
        true
    }

    /// The structure group of an element as a mask over the element
    /// universe, if redundant-group suppression applies: when an element
    /// enters the solution, the rest of its group leaves the candidate list
    /// for that branch. The mask may contain the element itself.
    fn group_peers(&self, _element: usize) -> Option<&FixedBitSet> {
        None
    }

    /// Admissible lower bound on how many more elements any solution emitted
    /// below `node` must add. Used by [`SearchOrder::ShortestFirst`] to order
    /// the frontier; must never overestimate. Defaults to 0 (always safe).
    fn lower_bound(&mut self, _system: &SetSystem, _node: &SearchNode) -> usize {
        0
    }

    /// Whether an uncovered subset that no candidate can hit makes the whole
    /// branch hopeless. `true` for exact enumeration (the subset can never be
    /// hit); `false` for approximate enumeration, where such subsets are
    /// tracked as unhittable and simply never branched on again.
    fn unhittable_is_fatal(&self) -> bool {
        true
    }

    /// Opt-in for the in-place undo walk used on unbudgeted DFS runs. A
    /// driver may return `true` only when its [`Self::classify`] is exactly
    /// the exact-MMCS rule — emit iff `uncov` is empty, expand otherwise —
    /// and [`Self::wants_skip_branch`] is `false`; the fast path inlines that
    /// classification instead of materialising nodes. Defaults to `false`.
    fn supports_inplace_dfs(&self) -> bool {
        false
    }
}

/// One run of the search engine: branch strategy, frontier order, budget,
/// and where the walk starts — the root (optionally confined to a set of
/// allowed elements) or a suspended frontier.
///
/// ```
/// use adc_hitting::{
///     BranchStrategy, ExactDriver, Search, SearchBudget, SearchOrder, SetSystem,
/// };
///
/// let system = SetSystem::from_indices(4, &[&[0, 1], &[1, 2], &[2, 3]]);
/// let mut found = Vec::new();
/// let mut collect = |cover: &adc_data::FixedBitSet| {
///     found.push(cover.to_vec());
///     true
/// };
/// // A one-node slice is cut short and hands back its frontier ...
/// let mut outcome = Search::new(BranchStrategy::default(), SearchOrder::ShortestFirst)
///     .budget(SearchBudget::unlimited().with_max_nodes(1))
///     .run(&system, &mut ExactDriver, &mut collect);
/// // ... which later slices continue until the frontier is exhausted.
/// while let Some(token) = outcome.suspended.take() {
///     outcome = Search::resume(token).run(&system, &mut ExactDriver, &mut collect);
/// }
/// assert!(outcome.is_exhaustive());
/// found.sort();
/// assert_eq!(found, vec![vec![0, 2], vec![1, 2], vec![1, 3]]);
/// ```
#[derive(Debug, Clone)]
pub struct Search<'a> {
    strategy: BranchStrategy,
    order: SearchOrder,
    budget: SearchBudget,
    within: Option<&'a FixedBitSet>,
    resume: Option<SuspendedSearch>,
}

impl<'a> Search<'a> {
    /// A fresh, unbudgeted search from the root.
    pub fn new(strategy: BranchStrategy, order: SearchOrder) -> Self {
        Search {
            strategy,
            order,
            budget: SearchBudget::unlimited(),
            within: None,
            resume: None,
        }
    }

    /// Continue the search `token` was cut from, with the order and strategy
    /// recorded in it. Run it with the same system and an identically
    /// configured driver, and the resumed traversal is byte-identical to the
    /// uncut one: the slices' emissions concatenate to the single-run
    /// sequence. The budget applies to this slice alone; keep
    /// [`SearchBudget::max_frontier_nodes`] identical across slices.
    pub fn resume(token: SuspendedSearch) -> Self {
        Search {
            strategy: token.strategy,
            order: token.order,
            budget: SearchBudget::unlimited(),
            within: None,
            resume: Some(token),
        }
    }

    /// Bound this run (one slice, when resuming) by nodes, wall-clock time,
    /// emitted results and/or frontier size.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Confine the root's candidate set to `allowed`: the run enumerates
    /// exactly the solutions **contained in** `allowed`. Restricting the root
    /// candidates is equivalent to running the unrestricted search on the
    /// system whose subsets are intersected with `allowed` — for the exact
    /// driver that means exactly the minimal hitting sets `τ ⊆ allowed` (a
    /// set `τ ⊆ allowed` hits `S` iff it hits `S ∩ allowed`, and minimality
    /// among subsets of `allowed` coincides with global minimality because
    /// every proper subset of a subset of `allowed` is itself a subset of
    /// `allowed`).
    ///
    /// This is the local-enumeration primitive behind
    /// [`crate::repair::repair_covers_removal`], where `allowed` is a removed
    /// subset's complement.
    ///
    /// # Panics
    /// Panics on a [`Search::resume`]d search, whose frontier already carries
    /// the restriction of the run that produced the token.
    pub fn within(mut self, allowed: &'a FixedBitSet) -> Self {
        assert!(
            self.resume.is_none(),
            "Search::within: a resumed frontier already carries its restriction"
        );
        self.within = Some(allowed);
        self
    }

    /// Run the search over `system` with `driver`, invoking `callback` once
    /// per emitted solution. The callback may return `false` to stop the
    /// search early; a cut run's frontier comes back in
    /// [`SearchOutcome::suspended`].
    ///
    /// An unbudgeted depth-first run from the root of a driver that opts in
    /// ([`SearchDriver::supports_inplace_dfs`], no skip branch) takes the
    /// in-place undo walk; every other run walks the explicit frontier.
    ///
    /// # Panics
    /// Panics if the [`Search::within`] restriction is over a different
    /// element universe than `system`, or the resumed token was produced
    /// over (or last patched to) a system with a different element or
    /// subset count.
    pub fn run<D, F>(
        mut self,
        system: &SetSystem,
        driver: &mut D,
        callback: &mut F,
    ) -> SearchOutcome
    where
        D: SearchDriver,
        F: FnMut(&FixedBitSet) -> bool,
    {
        if let Some(allowed) = self.within {
            assert_eq!(
                allowed.capacity(),
                system.num_elements(),
                "Search::within: the restriction must be over the system's element universe"
            );
        }
        let columns = Columns::new(system);
        match self.resume.take() {
            Some(token) => {
                let universe = token.universe().unwrap_or(system.num_elements());
                assert!(
                    universe == system.num_elements() && token.num_subsets == system.len(),
                    "Search::resume: the token was produced over a different set system"
                );
                drive(system, &columns, driver, &self, Some(token), callback)
            }
            None if self.order == SearchOrder::Dfs
                && self.budget.is_unlimited()
                && !driver.wants_skip_branch()
                && driver.supports_inplace_dfs() =>
            {
                run_dfs_inplace(
                    system,
                    &columns,
                    driver,
                    self.strategy,
                    self.within,
                    callback,
                )
            }
            None => drive(system, &columns, driver, &self, None, callback),
        }
    }
}

/// Which lane of the frontier a node came from / its children go to.
///
/// `Best` is the configured discipline (heap or DFS stack); `Spill` is the
/// DFS lane holding memory-bound contraction victims, whose whole subtrees
/// are expanded depth-first in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Best,
    Spill,
}

/// The live state of a budget-cut search: the entire pending frontier plus
/// the cumulative emission/node counters. Carried by
/// [`SearchOutcome::suspended`] when a [`SearchBudget`] (or the callback)
/// cuts a run short, and handed to [`Search::resume`] to continue the
/// traversal.
///
/// Resuming with the same system and driver configuration continues the
/// *identical* deterministic traversal: the concatenation of the cover
/// sequences emitted by the slices equals the sequence a single uncapped run
/// emits. The token is self-describing (it records the order and strategy
/// the resumed run uses) but deliberately opaque otherwise.
#[derive(Debug, Clone)]
pub struct SuspendedSearch {
    order: SearchOrder,
    strategy: BranchStrategy,
    /// Best-lane entries: heap content as `(node, priority, seq)` (sorted by
    /// key for determinism of the stored form), or the DFS stack bottom→top
    /// with `seq = 0`.
    entries: Vec<FrontierEntry>,
    /// The DFS spill lane, bottom→top (always empty under [`SearchOrder::Dfs`]).
    spill: Vec<SpillEntry>,
    /// A node that was popped but whose expansion was aborted mid-flight by
    /// the deadline; it is re-expanded (from scratch, deterministically)
    /// before the frontier is popped again.
    pending: Option<(SearchNode, usize, bool)>,
    /// Subset count of the system the frontier's regions are laid out for.
    num_subsets: usize,
    next_seq: u64,
    total_nodes_expanded: u64,
    total_emitted: usize,
    total_contractions: u64,
}

impl SuspendedSearch {
    /// Number of pending frontier nodes held by the token.
    pub fn frontier_len(&self) -> usize {
        self.entries.len() + self.spill.len() + usize::from(self.pending.is_some())
    }

    /// Results emitted so far across every slice of this search.
    pub fn total_emitted(&self) -> usize {
        self.total_emitted
    }

    /// Nodes expanded so far across every slice of this search.
    pub fn total_nodes_expanded(&self) -> u64 {
        self.total_nodes_expanded
    }

    /// Memory-bound frontier contractions performed so far across every
    /// slice of this search.
    pub fn total_contractions(&self) -> u64 {
        self.total_contractions
    }

    /// Size of the element universe the frontier was built over (`None`
    /// when the token holds no node).
    fn universe(&self) -> Option<usize> {
        self.entries
            .first()
            .map(|(n, _, _)| n)
            .or_else(|| self.spill.first().map(|(n, _)| n))
            .or_else(|| self.pending.as_ref().map(|(n, _, _)| n))
            .map(|node| node.cand.capacity())
    }

    /// Patch the suspended frontier in place after subsets were appended to
    /// the system (indexes `appended_from..system.len()`; existing subset
    /// indexes must be unchanged — see [`SetSystem::push_subset`]).
    ///
    /// Every pending node classifies each appended subset against its
    /// partial solution `S`: a subset `S` misses joins the node's `uncov`
    /// set, a subset hit by exactly one `s ∈ S` joins `s`'s criticality set,
    /// and a subset hit twice or more needs no bookkeeping. When the append
    /// crosses a multiple of 64 subsets, every node's regions are re-laid at
    /// the wider stride first. Existing subset indexes keep their bits, and
    /// node priorities stay admissible under [`SearchOrder::ShortestFirst`]
    /// (new subsets only increase the elements a branch still needs).
    /// Returns the number of pending nodes that gained at least one
    /// uncovered subset.
    ///
    /// Resuming the patched token is **sound**: every emission still passes
    /// the driver's classification against the grown system. It is **not
    /// complete** relative to a from-scratch run of the grown system —
    /// branches the original run pruned (criticality or candidate-discipline
    /// prunes justified by the *old* subsets only) are not re-opened, and
    /// covers emitted *before* the patch are not revisited. Callers wanting
    /// the exact grown answer must repair the emitted prefix separately
    /// ([`crate::repair::repair_covers`], which requires the previous run to
    /// have been exhaustive) or restart.
    ///
    /// # Panics
    /// Panics if `appended_from > system.len()`, if `appended_from` is not
    /// the subset count of the system the token was produced over (or last
    /// patched to), or if the token's element universe does not match
    /// `system`'s.
    pub fn patch(&mut self, system: &SetSystem, appended_from: usize) -> usize {
        assert!(
            appended_from <= system.len(),
            "patch: appended_from {appended_from} exceeds the {}-subset system",
            system.len()
        );
        if let Some(universe) = self.universe() {
            assert_eq!(
                universe,
                system.num_elements(),
                "patch: the token was produced over a different element universe"
            );
        }
        assert_eq!(
            appended_from, self.num_subsets,
            "patch: the token's frontier covers {} subsets, not {appended_from}",
            self.num_subsets
        );
        if appended_from == system.len() {
            return 0;
        }
        let num_subsets = system.len();
        self.num_subsets = num_subsets;
        let stride = num_subsets.div_ceil(64);
        // Nodes share `lists` only along skip-branch chains, which keep the
        // partial solution unchanged — so every sharer classifies the
        // appended subsets identically and the patched regions can be shared
        // again. `can_hit` carries no per-solution state at all. Caching by
        // the old Rc pointer preserves both sharing structures.
        let mut lists_cache: FxHashMap<usize, (Rc<NodeLists>, bool)> = FxHashMap::default();
        let mut can_hit_cache: FxHashMap<usize, Rc<FixedBitSet>> = FxHashMap::default();
        let mut reopened = 0usize;

        let mut patch_node = |node: &mut SearchNode| {
            let can_hit_key = Rc::as_ptr(&node.can_hit) as usize;
            let patched_can_hit = can_hit_cache
                .entry(can_hit_key)
                .or_insert_with(|| {
                    let mut grown = FixedBitSet::from_words(num_subsets, node.can_hit.as_words());
                    for fi in appended_from..num_subsets {
                        grown.insert(fi);
                    }
                    Rc::new(grown)
                })
                .clone();
            node.can_hit = patched_can_hit;

            let lists_key = Rc::as_ptr(&node.lists) as usize;
            let (patched_lists, gained_uncov) = lists_cache
                .entry(lists_key)
                .or_insert_with(|| {
                    // Re-lay every region at the grown stride, then add each
                    // appended subset to the region its hitters call for.
                    let old = &node.lists;
                    let regions = node.s.len() + 1;
                    let mut words = vec![0u64; regions * stride];
                    for r in 0..regions {
                        words[r * stride..r * stride + old.stride].copy_from_slice(old.region(r));
                    }
                    let mut gained = false;
                    for fi in appended_from..num_subsets {
                        let subset = &system.subsets()[fi];
                        let mut hitters = (0..node.s.len()).filter(|&i| subset.contains(node.s[i]));
                        let region = match (hitters.next(), hitters.next()) {
                            (None, _) => {
                                gained = true;
                                0
                            }
                            (Some(i), None) => i + 1,
                            (Some(_), Some(_)) => continue,
                        };
                        words[region * stride + fi / 64] |= 1u64 << (fi % 64);
                    }
                    let words = words.into_boxed_slice();
                    (Rc::new(NodeLists { words, stride }), gained)
                })
                .clone();
            node.lists = patched_lists;
            if gained_uncov {
                reopened += 1;
            }
        };

        for (node, _, _) in &mut self.entries {
            patch_node(node);
        }
        for (node, _) in &mut self.spill {
            patch_node(node);
        }
        if let Some((node, _, _)) = &mut self.pending {
            patch_node(node);
        }
        reopened
    }
}

/// Wall-clock deadline shared by the main loop and the expansion internals.
struct DeadlineGuard {
    start: Instant,
    limit: Duration,
}

impl DeadlineGuard {
    fn expired(&self) -> bool {
        self.start.elapsed() >= self.limit
    }
}

/// The explicit-frontier engine shared by fresh and resumed runs. A fresh
/// run starts from the root confined to `config.within`; a resumed frontier
/// already carries its restriction in every node's `cand`.
fn drive<D, F>(
    system: &SetSystem,
    columns: &Columns,
    driver: &mut D,
    config: &Search<'_>,
    resume: Option<SuspendedSearch>,
    callback: &mut F,
) -> SearchOutcome
where
    D: SearchDriver,
    F: FnMut(&FixedBitSet) -> bool,
{
    let guard = config.budget.deadline.map(|limit| DeadlineGuard {
        start: Instant::now(),
        limit,
    });

    let (mut frontier, mut pending, prior_nodes, prior_emitted, prior_contractions) = match resume {
        Some(token) => {
            let SuspendedSearch {
                entries,
                spill,
                pending,
                next_seq,
                total_nodes_expanded,
                total_emitted,
                total_contractions,
                ..
            } = token;
            let frontier = Frontier::restore(config, entries, spill, next_seq);
            let pending = pending.map(|(node, priority, spilled)| {
                (
                    node,
                    priority,
                    if spilled { Lane::Spill } else { Lane::Best },
                )
            });
            (
                frontier,
                pending,
                total_nodes_expanded,
                total_emitted,
                total_contractions,
            )
        }
        None => {
            let mut frontier = Frontier::new(config);
            let root = SearchNode::root_within(system, config.within);
            let root_priority = match config.order {
                SearchOrder::Dfs => 0,
                SearchOrder::ShortestFirst => driver.lower_bound(system, &root),
            };
            frontier.push_best(root, root_priority);
            (frontier, None, 0, 0, 0)
        }
    };

    let mut nodes_expanded: u64 = 0;
    let mut emitted: usize = 0;
    let mut stop: Option<TruncationReason> = None;
    let mut peak = frontier.len() + usize::from(pending.is_some());

    loop {
        // The emission cap is checked first, so a cap of 0 emits nothing.
        if let Some(max) = config.budget.max_emitted {
            if emitted >= max {
                stop = Some(TruncationReason::MaxEmitted);
                break;
            }
        }
        if let Some(max) = config.budget.max_nodes {
            if nodes_expanded >= max {
                stop = Some(TruncationReason::MaxNodes);
                break;
            }
        }
        if let Some(guard) = &guard {
            if guard.expired() {
                stop = Some(TruncationReason::Deadline);
                break;
            }
        }
        let Some((node, priority, lane)) = pending.take().or_else(|| frontier.pop()) else {
            break;
        };
        nodes_expanded += 1;
        match driver.classify(system, &node) {
            NodeDisposition::Emit => {
                emitted += 1;
                if !callback(&node.s_set) {
                    stop = Some(TruncationReason::Callback);
                    break;
                }
            }
            NodeDisposition::Discard => {}
            NodeDisposition::Expand => {
                match expand(
                    system,
                    columns,
                    driver,
                    config,
                    &node,
                    priority,
                    lane,
                    guard.as_ref(),
                    &mut frontier,
                ) {
                    ExpandOutcome::Done => peak = peak.max(frontier.len()),
                    ExpandOutcome::DeadlineAborted => {
                        // Nothing was pushed: undo the node count and park
                        // the in-flight node so the resumed slice re-expands
                        // it from scratch, deterministically.
                        nodes_expanded -= 1;
                        pending = Some((node, priority, lane));
                        stop = Some(TruncationReason::Deadline);
                        break;
                    }
                }
            }
        }
    }

    let contractions = frontier.contractions();
    let has_pending_work = pending.is_some() || !frontier.is_empty();
    let truncation = match stop {
        Some(reason) if has_pending_work => Some(Truncation {
            reason,
            complete_below: match config.order {
                SearchOrder::Dfs => None,
                SearchOrder::ShortestFirst => {
                    let frontier_min = frontier.min_priority();
                    let pending_min = pending.as_ref().map(|(_, p, _)| *p);
                    match (frontier_min, pending_min) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (Some(a), None) => Some(a),
                        (None, b) => b,
                    }
                }
            },
        }),
        // The frontier drained on the same step the cut fired: the
        // enumeration is in fact complete, so report it as exhaustive.
        _ => None,
    };

    let suspended = truncation.map(|_| {
        let (entries, spill, next_seq) = frontier.into_parts();
        SuspendedSearch {
            order: config.order,
            strategy: config.strategy,
            entries,
            spill,
            pending: pending.map(|(node, priority, lane)| (node, priority, lane == Lane::Spill)),
            num_subsets: system.len(),
            next_seq,
            total_nodes_expanded: prior_nodes + nodes_expanded,
            total_emitted: prior_emitted + emitted,
            total_contractions: prior_contractions + contractions,
        }
    });

    SearchOutcome {
        emitted,
        nodes_expanded,
        truncation,
        peak_frontier: peak,
        contractions,
        suspended,
    }
}

enum ExpandOutcome {
    /// Children generated and pushed.
    Done,
    /// The deadline fired mid-expansion; nothing was pushed.
    DeadlineAborted,
}

/// Expand one interior node: pick the subset to branch on, generate the
/// optional non-hitting child and one child per admissible hitting element
/// (enforcing the criticality invariant), and push them onto the frontier —
/// the spill lane when the node came from it, the configured discipline
/// otherwise. The deadline guard is consulted periodically so a wide
/// expansion aborts (atomically — no partial children) instead of
/// overshooting the budget.
#[allow(clippy::too_many_arguments)]
fn expand<D: SearchDriver>(
    system: &SetSystem,
    columns: &Columns,
    driver: &mut D,
    config: &Search<'_>,
    node: &SearchNode,
    node_priority: usize,
    lane: Lane,
    guard: Option<&DeadlineGuard>,
    frontier: &mut Frontier,
) -> ExpandOutcome {
    let chosen = match choose_branch_subset(
        system,
        node.uncov(),
        &node.cand,
        &node.can_hit,
        config.strategy,
        driver.unhittable_is_fatal(),
        guard,
    ) {
        Ok(Some(fi)) => fi,
        Ok(None) => return ExpandOutcome::Done,
        Err(DeadlineHit) => return ExpandOutcome::DeadlineAborted,
    };
    let subset = &system.subsets()[chosen];

    // Children are generated in the order the recursive algorithms visit
    // them: the non-hitting branch first, then each hitting element in
    // ascending order. The frontier restores that order for DFS.
    let mut children: Vec<SearchNode> = Vec::new();

    if driver.wants_skip_branch() {
        // Branch that does NOT hit the chosen subset: every element of the
        // subset leaves the candidate list, and any uncovered subset left
        // without candidates is marked unhittable (`UpdateCanCover`).
        // A subset already marked unhittable misses an ancestor's candidates,
        // and candidate lists only shrink down a path, so it misses
        // `skip_cand` too: `unhittable` collects exactly the uncovered
        // subsets that `S ∪ skip_cand` leaves unhit.
        let mut skip_cand = node.cand.clone();
        skip_cand.difference_with(subset);
        let mut skip_can_hit = node.can_hit.as_ref().clone();
        let mut unhittable: Vec<u32> = Vec::new();
        for fi in ones(node.uncov()) {
            if !skip_can_hit.contains(fi) {
                unhittable.push(fi as u32);
            } else if !system.subsets()[fi].intersects(&skip_cand) {
                skip_can_hit.remove(fi);
                unhittable.push(fi as u32);
            }
        }
        if driver.explore_skip_branch(system, &node.s_set, &skip_cand, &unhittable) {
            children.push(SearchNode {
                s: node.s.clone(),
                s_set: node.s_set.clone(),
                cand: skip_cand,
                // The partial solution is unchanged, so uncov and every
                // criticality set are too: share them.
                lists: Rc::clone(&node.lists),
                can_hit: Rc::new(skip_can_hit),
            });
        }
    }

    // Hitting children. `base_cand` reproduces the sequential candidate
    // discipline of MMCS: all of `C = cand ∩ F` leaves the pool first, and an
    // element re-enters it for *later* siblings only after passing the
    // criticality test (a non-critical element can never become critical for
    // a superset of S).
    let c: Vec<usize> = node.cand.intersection(subset).to_vec();
    let mut base_cand = node.cand.clone();
    for &e in &c {
        base_cand.remove(e);
    }
    // Each surviving child owns the buffer the kernel wrote; a pruned
    // child's buffer is reused for the next element.
    let crit_regions = node.s.len();
    let child_len = (crit_regions + 2) * columns.stride;
    let mut scratch: Vec<u64> = Vec::new();
    for &e in &c {
        if let Some(guard) = guard {
            if guard.expired() {
                return ExpandOutcome::DeadlineAborted;
            }
        }
        if scratch.is_empty() {
            scratch = vec![0u64; child_len];
        }
        if !hit_child(
            &node.lists.words,
            crit_regions,
            columns.col(e),
            &mut scratch,
        ) {
            // Some current element would stop being critical: no minimal
            // solution extends S ∪ {e}. The element does not return to
            // `base_cand` either.
            continue;
        }
        let lists = Rc::new(NodeLists {
            words: std::mem::take(&mut scratch).into_boxed_slice(),
            stride: columns.stride,
        });

        let mut cand = base_cand.clone();
        if let Some(peers) = driver.group_peers(e) {
            // RemoveRedundantPreds: same-group elements leave the candidate
            // list for this branch only (`e` itself is not in `base_cand`).
            cand.difference_with(peers);
        }
        let mut s = node.s.clone();
        s.push(e);
        let mut s_set = node.s_set.clone();
        s_set.insert(e);
        children.push(SearchNode {
            s,
            s_set,
            cand,
            lists,
            can_hit: Rc::clone(&node.can_hit),
        });
        base_cand.insert(e);
    }

    let scored: Vec<(SearchNode, usize)> = children
        .into_iter()
        .map(|child| {
            let priority = match config.order {
                SearchOrder::Dfs => 0,
                // Clamping to the parent's priority keeps the key monotone
                // along every path even if a driver's bound weakens as the
                // candidate pool shrinks — the best-first invariant needs
                // child keys ≥ parent keys.
                SearchOrder::ShortestFirst => {
                    node_priority.max(child.s.len() + driver.lower_bound(system, &child))
                }
            };
            (child, priority)
        })
        .collect();
    frontier.extend(scored, lane);
    ExpandOutcome::Done
}

/// Marker error: the deadline fired inside a wide loop.
struct DeadlineHit;

/// Select the next uncovered subset to branch on.
///
/// Shared by every driver; `strategy` picks among the still-hittable
/// uncovered subsets (iterated in the node's stable order):
///
/// * `MaxIntersection` / `MinIntersection` — extremal `|F ∩ cand|`;
/// * `First` — the first subset considered. When an unhittable subset is
///   fatal (exact enumeration) the scan still continues past the chosen
///   subset, because a later subset with an empty candidate intersection
///   proves the whole branch hopeless; otherwise the scan stops at the first
///   subset, since nothing later can change the choice.
///
/// Returns `Ok(None)` when there is nothing to branch on: either some subset
/// is unhittable and that is fatal, or (non-fatal mode) every uncovered
/// subset has already been marked unhittable. Returns `Err(DeadlineHit)`
/// when the guard expires mid-scan (checked every 128 subsets, so a huge
/// selection loop cannot overshoot the deadline unboundedly).
fn choose_branch_subset(
    system: &SetSystem,
    uncov: &[u64],
    cand: &FixedBitSet,
    can_hit: &FixedBitSet,
    strategy: BranchStrategy,
    unhittable_is_fatal: bool,
    guard: Option<&DeadlineGuard>,
) -> Result<Option<usize>, DeadlineHit> {
    let mut best: Option<(usize, usize)> = None;
    for (step, fi) in ones(uncov).enumerate() {
        if step % 128 == 127 {
            if let Some(guard) = guard {
                if guard.expired() {
                    return Err(DeadlineHit);
                }
            }
        }
        if !can_hit.contains(fi) {
            continue;
        }
        let inter = system.subsets()[fi].intersection_count(cand);
        if inter == 0 && unhittable_is_fatal {
            return Ok(None);
        }
        best = match (best, strategy) {
            (None, _) => Some((fi, inter)),
            (Some((_, b)), BranchStrategy::MaxIntersection) if inter > b => Some((fi, inter)),
            (Some((_, b)), BranchStrategy::MinIntersection) if inter < b => Some((fi, inter)),
            // `First` (and losing Max/Min comparisons) keep the incumbent.
            (prev, _) => prev,
        };
        if strategy == BranchStrategy::First && !unhittable_is_fatal {
            break;
        }
    }
    Ok(best.map(|(fi, _)| fi))
}

/// Admissible lower bound on the elements any cover below a node must still
/// add: the size of a greedily-built family of pairwise-disjoint uncovered
/// subsets (restricted to candidate elements). Each member of a disjoint
/// family needs its own element, and one element can hit at most one member,
/// so the bound never overestimates and decreases by at most 1 per added
/// element — exactly what best-first ordering requires.
///
/// `uncov` is the node's uncovered-subset region ([`SearchNode::uncov`]),
/// scanned in ascending subset order. Each subset's candidate part
/// `F ∩ cand` is tested word by word against the elements already claimed,
/// so the only allocation is that one claimed-elements buffer.
pub fn greedy_disjoint_lower_bound(system: &SetSystem, uncov: &[u64], cand: &FixedBitSet) -> usize {
    let cand = cand.as_words();
    let mut used = vec![0u64; cand.len()];
    let mut bound = 0;
    for fi in ones(uncov) {
        let subset = system.subsets()[fi].as_words();
        let (mut reachable, mut clash) = (0u64, 0u64);
        for ((&f, &c), &u) in subset.iter().zip(cand).zip(&used) {
            reachable |= f & c;
            clash |= f & c & u;
        }
        // A subset with no remaining candidates is a dead branch, not an
        // element demand; expansion prunes it.
        if reachable == 0 || clash != 0 {
            continue;
        }
        for ((u, &f), &c) in used.iter_mut().zip(subset).zip(cand) {
            *u |= f & c;
        }
        bound += 1;
    }
    bound
}

// ---------------------------------------------------------------------------
// In-place undo walk (unbudgeted exact DFS)
// ---------------------------------------------------------------------------

/// Shared mutable state of the in-place walk.
struct InplaceCtx<'a, D, F> {
    system: &'a SetSystem,
    columns: &'a Columns,
    driver: &'a mut D,
    callback: &'a mut F,
    strategy: BranchStrategy,
    nodes_expanded: u64,
    emitted: usize,
    stopped: bool,
    /// Whether, at stop time, any unexplored sibling anywhere on the path
    /// would have survived the criticality check (i.e. the explicit engine's
    /// frontier would be non-empty).
    unexplored: bool,
    peak_depth: usize,
}

/// The undo-hybrid fast path for unbudgeted DFS runs of drivers with exact
/// classification (see [`SearchDriver::supports_inplace_dfs`]): the same
/// tree, visited in the same order with the same prunes, but mutating one
/// node state in place (push/insert on entry, pop/remove on exit) instead of
/// snapshotting a `SearchNode` per child. This is what reclaims the
/// snapshot overhead of the explicit engine on the exact MMCS kernel.
fn run_dfs_inplace<D, F>(
    system: &SetSystem,
    columns: &Columns,
    driver: &mut D,
    strategy: BranchStrategy,
    restrict: Option<&FixedBitSet>,
    callback: &mut F,
) -> SearchOutcome
where
    D: SearchDriver,
    F: FnMut(&FixedBitSet) -> bool,
{
    let m = system.num_elements();
    let mut s: Vec<usize> = Vec::new();
    let mut s_set = FixedBitSet::new(m);
    let mut cand = restrict.cloned().unwrap_or_else(|| FixedBitSet::full(m));
    let can_hit = FixedBitSet::full(system.len());
    let root = NodeLists::root(system.len());
    let mut ctx = InplaceCtx {
        system,
        columns,
        driver,
        callback,
        strategy,
        nodes_expanded: 0,
        emitted: 0,
        stopped: false,
        unexplored: false,
        peak_depth: 0,
    };
    inplace_walk(
        &mut ctx,
        &mut s,
        &mut s_set,
        &mut cand,
        &root.words,
        &can_hit,
        1,
    );
    SearchOutcome {
        emitted: ctx.emitted,
        nodes_expanded: ctx.nodes_expanded,
        truncation: if ctx.stopped && ctx.unexplored {
            Some(Truncation {
                reason: TruncationReason::Callback,
                complete_below: None,
            })
        } else {
            None
        },
        peak_frontier: ctx.peak_depth,
        contractions: 0,
        suspended: None,
    }
}

/// One node of the in-place walk. `regions` holds the node's `uncov` and
/// its `s.len()` criticality sets, laid out as in [`NodeLists`].
fn inplace_walk<D, F>(
    ctx: &mut InplaceCtx<'_, D, F>,
    s: &mut Vec<usize>,
    s_set: &mut FixedBitSet,
    cand: &mut FixedBitSet,
    regions: &[u64],
    can_hit: &FixedBitSet,
    depth: usize,
) where
    D: SearchDriver,
    F: FnMut(&FixedBitSet) -> bool,
{
    ctx.nodes_expanded += 1;
    ctx.peak_depth = ctx.peak_depth.max(depth);
    let stride = ctx.columns.stride;
    let uncov = &regions[..stride];
    if is_zero(uncov) {
        // Criticality is maintained along every path, so a full cover is
        // automatically minimal (the exact classification the driver
        // promised via `supports_inplace_dfs`).
        ctx.emitted += 1;
        if !(ctx.callback)(s_set) {
            ctx.stopped = true;
        }
        return;
    }
    let chosen = match choose_branch_subset(
        ctx.system,
        uncov,
        cand,
        can_hit,
        ctx.strategy,
        ctx.driver.unhittable_is_fatal(),
        None,
    ) {
        Ok(Some(fi)) => fi,
        _ => return,
    };
    let subset = &ctx.system.subsets()[chosen];

    let c: Vec<usize> = cand.intersection(subset).to_vec();
    for &e in &c {
        cand.remove(e);
    }
    // One buffer for every child of this node: each child's regions are
    // only read while its subtree is walked.
    let crit_regions = s.len();
    let mut child = vec![0u64; (crit_regions + 2) * stride];
    let mut stopped_at: Option<usize> = None;
    for (idx, &e) in c.iter().enumerate() {
        if !hit_child(regions, crit_regions, ctx.columns.col(e), &mut child) {
            // `e` stays out of `cand` for later siblings, exactly as in the
            // explicit engine's `base_cand` discipline.
            continue;
        }
        let group_removed = ctx.driver.group_peers(e).map(|peers| {
            let removed = cand.intersection(peers);
            cand.difference_with(peers);
            removed
        });
        s.push(e);
        s_set.insert(e);
        inplace_walk(ctx, s, s_set, cand, &child, can_hit, depth + 1);
        s.pop();
        s_set.remove(e);
        if let Some(removed) = group_removed {
            cand.union_with(&removed);
        }
        cand.insert(e);
        if ctx.stopped {
            stopped_at = Some(idx);
            break;
        }
    }
    if let Some(idx) = stopped_at {
        // Mirror the explicit engine's truncation report: the run counts as
        // truncated iff its frontier would be non-empty, i.e. iff some
        // not-yet-visited sibling survives the criticality check (pruned
        // siblings are never materialised as frontier nodes).
        if !ctx.unexplored {
            ctx.unexplored = c[idx + 1..]
                .iter()
                .any(|&e| hit_child(regions, crit_regions, ctx.columns.col(e), &mut child));
        }
    }
    // Restore the candidate pool exactly (criticality-pruned elements did
    // not re-enter above; on an early stop later siblings did not either).
    for &e in &c {
        if !cand.contains(e) {
            cand.insert(e);
        }
    }
}

// ---------------------------------------------------------------------------
// Frontier
// ---------------------------------------------------------------------------

/// A best-lane frontier entry in suspended form: node, priority key, and
/// (shortest-first only) the heap insertion sequence number.
type FrontierEntry = (SearchNode, usize, u64);
/// A spill-lane entry: node plus its (still admissible) priority key.
type SpillEntry = (SearchNode, usize);

/// Heap entry for the best-first frontier: ordered by `(priority, seq)`, so
/// ties pop in insertion order and the traversal is deterministic.
struct HeapEntry {
    priority: usize,
    seq: u64,
    node: SearchNode,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, self.seq).cmp(&(other.priority, other.seq))
    }
}

/// The frontier disciplines behind one push/pop interface.
enum Frontier {
    /// LIFO stack (priorities are carried but ignored).
    Dfs(Vec<(SearchNode, usize)>),
    /// Min-heap on `(priority, insertion seq)` plus the memory-bound DFS
    /// spill lane, which is drained (LIFO) before the heap is popped.
    Shortest {
        heap: BinaryHeap<Reverse<HeapEntry>>,
        spill: Vec<(SearchNode, usize)>,
        next_seq: u64,
        cap: Option<usize>,
        contractions: u64,
    },
}

impl Frontier {
    fn new(config: &Search<'_>) -> Self {
        match config.order {
            SearchOrder::Dfs => Frontier::Dfs(Vec::new()),
            SearchOrder::ShortestFirst => Frontier::Shortest {
                heap: BinaryHeap::new(),
                spill: Vec::new(),
                next_seq: 0,
                cap: config.budget.max_frontier_nodes,
                contractions: 0,
            },
        }
    }

    /// Rebuild a frontier from a suspended run's parts. The memory cap comes
    /// from the *resuming* config; keep it identical across slices for the
    /// cut-and-resume determinism guarantee to hold.
    fn restore(
        config: &Search<'_>,
        entries: Vec<FrontierEntry>,
        spill: Vec<SpillEntry>,
        next_seq: u64,
    ) -> Self {
        match config.order {
            SearchOrder::Dfs => {
                Frontier::Dfs(entries.into_iter().map(|(n, p, _)| (n, p)).collect())
            }
            SearchOrder::ShortestFirst => {
                let heap = entries
                    .into_iter()
                    .map(|(node, priority, seq)| {
                        Reverse(HeapEntry {
                            priority,
                            seq,
                            node,
                        })
                    })
                    .collect();
                Frontier::Shortest {
                    heap,
                    spill,
                    next_seq,
                    cap: config.budget.max_frontier_nodes,
                    contractions: 0,
                }
            }
        }
    }

    /// Push a single node on the best lane (used for the root).
    fn push_best(&mut self, node: SearchNode, priority: usize) {
        match self {
            Frontier::Dfs(stack) => stack.push((node, priority)),
            Frontier::Shortest { heap, next_seq, .. } => {
                heap.push(Reverse(HeapEntry {
                    priority,
                    seq: *next_seq,
                    node,
                }));
                *next_seq += 1;
            }
        }
    }

    /// Add a sibling group in its natural processing order: DFS lanes get
    /// them reversed (so the first sibling pops first), the heap in order
    /// (so equal-priority siblings pop FIFO). Children of spill-lane nodes
    /// stay on the spill lane — their subtrees are expanded depth-first in
    /// place, which is what keeps memory bounded after a contraction.
    fn extend(&mut self, scored: Vec<(SearchNode, usize)>, lane: Lane) {
        match self {
            Frontier::Dfs(stack) => stack.extend(scored.into_iter().rev()),
            Frontier::Shortest { spill, .. } if lane == Lane::Spill => {
                spill.extend(scored.into_iter().rev());
            }
            Frontier::Shortest { .. } => {
                for (node, priority) in scored {
                    self.push_best(node, priority);
                }
                self.contract_if_needed();
            }
        }
    }

    /// Memory-bound contraction: when the heap outgrows the cap, keep the
    /// best half and spill the deepest tail to the DFS lane (smallest key on
    /// top, so the least-bad spilled subtree is expanded first). Halving —
    /// rather than trimming to the cap — amortises the `O(n log n)` drain
    /// over many pushes.
    fn contract_if_needed(&mut self) {
        let Frontier::Shortest {
            heap,
            spill,
            cap: Some(cap),
            contractions,
            ..
        } = self
        else {
            return;
        };
        if heap.len() <= *cap {
            return;
        }
        let keep = (*cap / 2).max(1);
        let mut entries: Vec<HeapEntry> = std::mem::take(heap)
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        entries.sort_unstable_by_key(|entry| (entry.priority, entry.seq));
        let tail = entries.split_off(keep);
        *heap = entries.into_iter().map(Reverse).collect();
        // Deepest first onto the LIFO lane, so the shallowest spilled node
        // is processed first.
        spill.extend(tail.into_iter().rev().map(|e| (e.node, e.priority)));
        *contractions += 1;
    }

    fn pop(&mut self) -> Option<(SearchNode, usize, Lane)> {
        match self {
            Frontier::Dfs(stack) => stack.pop().map(|(n, p)| (n, p, Lane::Best)),
            Frontier::Shortest { heap, spill, .. } => {
                if let Some((node, priority)) = spill.pop() {
                    return Some((node, priority, Lane::Spill));
                }
                heap.pop()
                    .map(|Reverse(entry)| (entry.node, entry.priority, Lane::Best))
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn len(&self) -> usize {
        match self {
            Frontier::Dfs(stack) => stack.len(),
            Frontier::Shortest { heap, spill, .. } => heap.len() + spill.len(),
        }
    }

    fn contractions(&self) -> u64 {
        match self {
            Frontier::Dfs(_) => 0,
            Frontier::Shortest { contractions, .. } => *contractions,
        }
    }

    /// Smallest priority still pending — only meaningful for the best-first
    /// frontier, where it bounds the size of every not-yet-emitted cover
    /// (the spill lane is included: its keys are admissible too).
    fn min_priority(&self) -> Option<usize> {
        match self {
            Frontier::Dfs(_) => None,
            Frontier::Shortest { heap, spill, .. } => {
                let heap_min = heap.peek().map(|Reverse(entry)| entry.priority);
                let spill_min = spill.iter().map(|(_, p)| *p).min();
                match (heap_min, spill_min) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, None) => a,
                    (None, b) => b,
                }
            }
        }
    }

    /// Decompose into suspendable parts: best-lane entries (heap sorted by
    /// key for a deterministic stored form; DFS stack bottom→top), the spill
    /// lane, and the sequence counter.
    fn into_parts(self) -> (Vec<FrontierEntry>, Vec<SpillEntry>, u64) {
        match self {
            Frontier::Dfs(stack) => (
                stack.into_iter().map(|(n, p)| (n, p, 0)).collect(),
                Vec::new(),
                0,
            ),
            Frontier::Shortest {
                heap,
                spill,
                next_seq,
                ..
            } => {
                let mut entries: Vec<FrontierEntry> = heap
                    .into_iter()
                    .map(|Reverse(e)| (e.node, e.priority, e.seq))
                    .collect();
                entries.sort_unstable_by_key(|&(_, priority, seq)| (priority, seq));
                (entries, spill, next_seq)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(m: usize) -> FixedBitSet {
        FixedBitSet::full(m)
    }

    /// Run subset selection over the uncovered subsets `uncov`.
    fn choose(
        system: &SetSystem,
        uncov: &[usize],
        cand: &FixedBitSet,
        can_hit: &FixedBitSet,
        strategy: BranchStrategy,
        fatal: bool,
    ) -> Option<usize> {
        let uncov = FixedBitSet::from_indices(system.len(), uncov.iter().copied());
        choose_branch_subset(
            system,
            uncov.as_words(),
            cand,
            can_hit,
            strategy,
            fatal,
            None,
        )
        .ok()
        .unwrap()
    }

    /// Exact-MMCS driver clone for engine-level tests (the real one lives in
    /// `crate::mmcs`).
    struct TestExactDriver;
    impl SearchDriver for TestExactDriver {
        fn classify(&mut self, _system: &SetSystem, node: &SearchNode) -> NodeDisposition {
            if is_zero(node.uncov()) {
                NodeDisposition::Emit
            } else {
                NodeDisposition::Expand
            }
        }
        fn lower_bound(&mut self, system: &SetSystem, node: &SearchNode) -> usize {
            greedy_disjoint_lower_bound(system, node.uncov(), node.cand())
        }
    }

    fn collect(system: &SetSystem, search: Search<'_>) -> (Vec<Vec<usize>>, SearchOutcome) {
        let mut out = Vec::new();
        let outcome = search.run(system, &mut TestExactDriver, &mut |s: &FixedBitSet| {
            out.push(s.to_vec());
            true
        });
        (out, outcome)
    }

    fn shortest_first() -> Search<'static> {
        Search::new(BranchStrategy::default(), SearchOrder::ShortestFirst)
    }

    #[test]
    fn first_strategy_picks_the_first_uncovered_subset() {
        // Pin the `BranchStrategy::First` semantics that the old MMCS
        // implementation obscured behind a shadowed match arm: the *first*
        // subset in `uncov` order wins regardless of intersection sizes.
        let sys = SetSystem::from_indices(5, &[&[0, 1, 2, 3], &[4], &[0, 4]]);
        let cand = full(5);
        let can_hit = full(3);
        let chosen = choose(
            &sys,
            &[0, 1, 2],
            &cand,
            &can_hit,
            BranchStrategy::First,
            true,
        );
        assert_eq!(chosen, Some(0));
        // Once subset 0 is covered, the next uncovered subset wins.
        let chosen = choose(&sys, &[1, 2], &cand, &can_hit, BranchStrategy::First, true);
        assert_eq!(chosen, Some(1));
    }

    #[test]
    fn first_strategy_still_detects_fatal_unhittable_subsets() {
        // Exact enumeration must keep scanning past the chosen subset: an
        // unhittable subset later in the list kills the branch.
        let sys = SetSystem::from_indices(3, &[&[0, 1], &[2]]);
        let mut cand = full(3);
        cand.remove(2); // subset {2} can no longer be hit
        let chosen = choose(&sys, &[0, 1], &cand, &full(2), BranchStrategy::First, true);
        assert_eq!(chosen, None, "fatal unhittable subset must kill the branch");
    }

    #[test]
    fn first_strategy_non_fatal_stops_at_the_first_selectable_subset() {
        // Approximate enumeration: unhittable subsets are skipped via
        // `can_hit`, and the scan stops at the first live subset.
        let sys = SetSystem::from_indices(3, &[&[0], &[1], &[2]]);
        let mut can_hit = full(3);
        can_hit.remove(0);
        let chosen = choose(
            &sys,
            &[0, 1, 2],
            &full(3),
            &can_hit,
            BranchStrategy::First,
            false,
        );
        assert_eq!(chosen, Some(1), "first *live* subset wins");
    }

    #[test]
    fn non_fatal_mode_accepts_subsets_with_empty_intersection() {
        // The approximate enumerator may select a subset no candidate hits —
        // its skip branch then marks the subset unhittable. Preserved here.
        let sys = SetSystem::from_indices(2, &[&[0]]);
        let cand = FixedBitSet::new(2); // nothing left
        let chosen = choose(
            &sys,
            &[0],
            &cand,
            &full(1),
            BranchStrategy::MaxIntersection,
            false,
        );
        assert_eq!(chosen, Some(0));
    }

    #[test]
    fn max_and_min_strategies_pick_extremal_intersections() {
        let sys = SetSystem::from_indices(4, &[&[0], &[0, 1, 2], &[2, 3]]);
        let cand = full(4);
        let can_hit = full(3);
        let max = choose(
            &sys,
            &[0, 1, 2],
            &cand,
            &can_hit,
            BranchStrategy::MaxIntersection,
            true,
        );
        assert_eq!(max, Some(1));
        let min = choose(
            &sys,
            &[0, 1, 2],
            &cand,
            &can_hit,
            BranchStrategy::MinIntersection,
            true,
        );
        assert_eq!(min, Some(0));
    }

    #[test]
    fn disjoint_lower_bound_counts_a_disjoint_family() {
        let sys = SetSystem::from_indices(6, &[&[0, 1], &[1, 2], &[3], &[4, 5]]);
        let all = full(4);
        let uncov = all.as_words();
        // {0,1}, {3}, {4,5} are pairwise disjoint; {1,2} overlaps the first.
        assert_eq!(greedy_disjoint_lower_bound(&sys, uncov, &full(6)), 3);
        // Restricting candidates merges demands: without element 1 the first
        // two subsets reduce to {0} and {2}, still disjoint — bound 4.
        let mut cand = full(6);
        cand.remove(1);
        assert_eq!(greedy_disjoint_lower_bound(&sys, uncov, &cand), 4);
        // A subset with no remaining candidates contributes nothing.
        let mut cand = full(6);
        cand.remove(3);
        assert_eq!(greedy_disjoint_lower_bound(&sys, uncov, &cand), 2);
    }

    #[test]
    fn budget_default_is_unlimited() {
        let budget = SearchBudget::default();
        assert!(budget.is_unlimited());
        let budget = budget
            .with_max_nodes(10)
            .with_deadline(Duration::from_secs(1))
            .with_max_emitted(5)
            .with_max_frontier_nodes(1000);
        assert!(!budget.is_unlimited());
        assert_eq!(budget.max_nodes, Some(10));
        assert_eq!(budget.max_emitted, Some(5));
        assert_eq!(budget.max_frontier_nodes, Some(1000));
        assert!(!SearchBudget::unlimited()
            .with_max_frontier_nodes(7)
            .is_unlimited());
    }

    #[test]
    fn dfs_truncation_reports_no_complete_below() {
        // Under DFS the frontier priorities are all zero — not an admissible
        // completeness bound — so a truncated DFS run must never claim a
        // "provably complete below k" size.
        let sys = SetSystem::from_indices(8, &[&[0, 1], &[2, 3], &[4, 5], &[6, 7]]);
        let search = Search::new(BranchStrategy::default(), SearchOrder::Dfs)
            .budget(SearchBudget::unlimited().with_max_nodes(3));
        let (_, outcome) = collect(&sys, search);
        let truncation = outcome.truncation.expect("run must be truncated");
        assert_eq!(truncation.reason, TruncationReason::MaxNodes);
        assert_eq!(
            truncation.complete_below, None,
            "DFS must not report a completeness bound"
        );
        assert!(
            outcome.suspended.is_some(),
            "budget cut must yield a resume token"
        );
    }

    #[test]
    fn mid_expansion_deadline_aborts_atomically() {
        // A deadline that is already expired when `expand` runs must abort
        // the expansion before pushing any child — the in-flight node is
        // parked and re-expanded on resume, so no child is lost or doubled.
        let indices: Vec<usize> = (0..512).collect();
        let sys = SetSystem::from_indices(512, &[&indices]);
        let node = SearchNode::root_within(&sys, None);
        let config =
            shortest_first().budget(SearchBudget::unlimited().with_deadline(Duration::ZERO));
        let mut frontier = Frontier::new(&config);
        let guard = DeadlineGuard {
            start: Instant::now(),
            limit: Duration::ZERO,
        };
        let outcome = expand(
            &sys,
            &Columns::new(&sys),
            &mut TestExactDriver,
            &config,
            &node,
            0,
            Lane::Best,
            Some(&guard),
            &mut frontier,
        );
        assert!(matches!(outcome, ExpandOutcome::DeadlineAborted));
        assert!(frontier.is_empty(), "no partial children may be pushed");
    }

    #[test]
    fn wide_expansion_deadline_overshoot_is_bounded_and_resumable() {
        // One subset with 3000 elements: a single expansion generates 3000
        // children. A tiny deadline must cut the run (at the loop top or
        // mid-expansion) well before the full expansion would complete, and
        // resuming to completion must emit exactly the uncapped sequence.
        let indices: Vec<usize> = (0..3000).collect();
        let sys = SetSystem::from_indices(3000, &[&indices]);
        let (uncapped, outcome) = collect(&sys, shortest_first());
        assert!(outcome.is_exhaustive());
        assert_eq!(uncapped.len(), 3000);

        let cut = shortest_first()
            .budget(SearchBudget::unlimited().with_deadline(Duration::from_nanos(1)));
        let clock = Instant::now();
        let (mut covers, outcome) = collect(&sys, cut);
        assert!(
            clock.elapsed() < Duration::from_secs(2),
            "deadline overshoot must stay bounded"
        );
        assert_eq!(
            outcome.truncation.map(|t| t.reason),
            Some(TruncationReason::Deadline)
        );
        let mut suspended = outcome.suspended;
        let mut guard_iters = 0;
        while let Some(token) = suspended.take() {
            guard_iters += 1;
            assert!(guard_iters < 10, "resume failed to make progress");
            let (more, next) = collect(&sys, Search::resume(token));
            covers.extend(more);
            suspended = next.suspended;
        }
        assert_eq!(covers, uncapped, "cut + resume must replay the sequence");
    }

    #[test]
    fn memory_bound_contracts_and_preserves_the_answer_set() {
        // 8 disjoint pairs: 2^8 = 256 covers; the unbounded shortest-first
        // frontier grows into the hundreds. With a 16-node cap the frontier
        // must stay within cap + spilled half + transient DFS depth, the
        // run must report contractions, and the emitted family must be
        // unchanged (only its order may degrade).
        let pairs: Vec<Vec<usize>> = (0..8).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let refs: Vec<&[usize]> = pairs.iter().map(|p| p.as_slice()).collect();
        let sys = SetSystem::from_indices(16, &refs);
        let (unbounded, outcome) = collect(&sys, shortest_first());
        assert_eq!(unbounded.len(), 256);
        assert!(outcome.contractions == 0);
        assert!(
            outcome.peak_frontier > 48,
            "test instance too small to exercise the bound (peak {})",
            outcome.peak_frontier
        );

        let cap = 16;
        let bounded =
            shortest_first().budget(SearchBudget::unlimited().with_max_frontier_nodes(cap));
        let (bounded, outcome) = collect(&sys, bounded);
        assert!(outcome.suspended.is_none());
        assert!(outcome.is_exhaustive());
        assert!(outcome.contractions > 0, "the cap must have fired");
        assert!(
            outcome.peak_frontier <= 3 * cap,
            "peak frontier {} exceeds the documented bound for cap {cap}",
            outcome.peak_frontier
        );
        let canon = |mut v: Vec<Vec<usize>>| {
            v.sort();
            v
        };
        assert_eq!(canon(bounded), canon(unbounded));
    }

    #[test]
    fn memory_bounded_run_is_still_resumable_deterministically() {
        let pairs: Vec<Vec<usize>> = (0..7).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let refs: Vec<&[usize]> = pairs.iter().map(|p| p.as_slice()).collect();
        let sys = SetSystem::from_indices(14, &refs);
        let budget = SearchBudget::unlimited().with_max_frontier_nodes(8);
        let (reference, outcome) = collect(&sys, shortest_first().budget(budget));
        assert!(outcome.is_exhaustive());

        let slice = budget.with_max_nodes(13);
        let (mut covers, outcome) = collect(&sys, shortest_first().budget(slice));
        let mut suspended = outcome.suspended;
        let mut slices = 1;
        while let Some(token) = suspended.take() {
            slices += 1;
            assert!(slices < 10_000, "runaway resume loop");
            assert_eq!(token.total_emitted(), covers.len());
            let (more, next) = collect(&sys, Search::resume(token).budget(slice));
            covers.extend(more);
            suspended = next.suspended;
        }
        assert!(slices > 2, "the slice budget never fired");
        assert_eq!(
            covers, reference,
            "sliced memory-bounded run must replay the single-run sequence"
        );
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        // Order and strategy come from the token, so only the system can
        // mismatch: a token cut over one element universe must not resume
        // over another.
        let sys = SetSystem::from_indices(4, &[&[0, 1], &[2, 3]]);
        let one_node = shortest_first().budget(SearchBudget::unlimited().with_max_nodes(1));
        let (_, outcome) = collect(&sys, one_node);
        let token = outcome.suspended.expect("one-node budget must suspend");
        assert_eq!(
            Search::resume(token.clone()).order,
            SearchOrder::ShortestFirst
        );
        let wider = SetSystem::from_indices(5, &[&[0, 1], &[2, 3]]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            collect(&wider, Search::resume(token))
        }));
        assert!(result.is_err(), "universe mismatch must be rejected");
    }
}
