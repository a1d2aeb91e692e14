use std::collections::{HashMap, HashSet};

use cuba_automata::{language_subset, post_star_with, CanonicalDfa, Psa, RuleTable};
use cuba_pds::{Cpds, GlobalState, SharedState, StackSym, VisibleState};
use cuba_telemetry::metrics::METRICS;

use crate::{ExploreBudget, ExploreError, Interrupt, LayerStore};

/// A symbolic state `τ = ⟨q|A1,…,An⟩` (paper App. E): the current
/// shared state plus, per thread, a regular language of possible stack
/// contents, kept as a *canonical minimal DFA* so that language
/// equality is structural equality (and symbolic states are hashable).
///
/// Its concretization is
/// `γ(τ) = {⟨q|w1,…,wn⟩ : ∀i wi ∈ L(Ai)}` (Eq. 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymbolicState {
    /// The shared state `q`.
    pub q: SharedState,
    /// Per-thread stack languages (top-of-stack first).
    pub stacks: Vec<CanonicalDfa>,
}

impl SymbolicState {
    /// The symbolic state whose concretization is exactly `{state}`.
    pub fn singleton(state: &GlobalState) -> Self {
        SymbolicState {
            q: state.q,
            stacks: state
                .stacks
                .iter()
                .map(|s| {
                    let word: Vec<u32> = s.iter_top_down().map(|x| x.0).collect();
                    CanonicalDfa::single_word(&word)
                })
                .collect(),
        }
    }

    /// Whether `state ∈ γ(τ)`.
    pub fn contains(&self, state: &GlobalState) -> bool {
        if state.q != self.q || state.stacks.len() != self.stacks.len() {
            return false;
        }
        state.stacks.iter().zip(&self.stacks).all(|(w, a)| {
            let word: Vec<u32> = w.iter_top_down().map(|x| x.0).collect();
            a.accepts(&word)
        })
    }

    /// The visible-state projection `T(τ)` (Eq. 4, computed per thread
    /// by the paper's Alg. 4): the finite set
    /// `{q} × T(A1) × … × T(An)`.
    pub fn visible_states(&self) -> Vec<VisibleState> {
        let tops: Vec<Vec<Option<StackSym>>> = self.stacks.iter().map(top_set).collect();
        let domains: Vec<&[Option<StackSym>]> = tops.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        for_each_visible(self.q, &domains, &mut |v| out.push(v));
        out
    }

    /// Whether `γ(τ)` is empty (some thread's stack language is empty).
    pub fn is_empty(&self) -> bool {
        self.stacks.iter().any(|a| a.is_empty_language())
    }
}

impl std::fmt::Display for SymbolicState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{}|", self.q)?;
        for (i, a) in self.stacks.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "dfa[{}]", a.num_states())?;
        }
        write!(f, ">")
    }
}

/// The top-of-stack set `T(A)` of one stack language (Alg. 4): `None`
/// first when the empty stack is accepted, then every possible first
/// symbol in ascending order. Empty exactly when the language is.
fn top_set(dfa: &CanonicalDfa) -> Vec<Option<StackSym>> {
    let (firsts, eps) = dfa.first_symbols();
    let mut tops = Vec::with_capacity(firsts.len() + usize::from(eps));
    if eps {
        tops.push(None);
    }
    tops.extend(firsts.into_iter().map(|s| Some(StackSym(s))));
    tops
}

/// Calls `f` on every visible state of `{q} × domains[0] × … ×
/// domains[n−1]`, thread 0 varying slowest; on none when some domain
/// is empty (an empty stack language has no visible states).
fn for_each_visible(
    q: SharedState,
    domains: &[&[Option<StackSym>]],
    f: &mut impl FnMut(VisibleState),
) {
    fn rec(
        domains: &[&[Option<StackSym>]],
        i: usize,
        q: SharedState,
        tuple: &mut Vec<Option<StackSym>>,
        f: &mut impl FnMut(VisibleState),
    ) {
        if i == domains.len() {
            f(VisibleState::new(q, tuple.clone()));
            return;
        }
        for &choice in domains[i] {
            tuple[i] = choice;
            rec(domains, i + 1, q, tuple, f);
        }
    }
    if domains.iter().any(|d| d.is_empty()) {
        return;
    }
    let mut tuple = vec![None; domains.len()];
    rec(domains, 0, q, &mut tuple, f);
}

/// How the symbolic engine deduplicates newly produced symbolic states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubsumptionMode {
    /// Keep a state unless an *identical* (canonical) state exists.
    /// Cheap; plateau detection means `Sk+1 = Sk` exactly.
    #[default]
    Exact,
    /// Additionally drop states pointwise subsumed by an existing state
    /// (`γ(new) ⊆ γ(old)`). More work per state, earlier convergence —
    /// this is the ablation §8 alludes to ("symbolic representations …
    /// make convergence detection more difficult").
    Pointwise,
}

/// Summary of one symbolic round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicLayerSummary {
    /// The context bound of the new layer.
    pub k: usize,
    /// Symbolic states new at this bound.
    pub new_symbolic: usize,
    /// Visible states new at this bound.
    pub new_visible: usize,
}

/// Work counters of the symbolic context step. They count what the
/// exploration did, not how long it took, so they are identical at
/// every saturation thread count. Failed rounds are counted too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbolicWork {
    /// Context steps taken: one per (frontier state, thread).
    pub context_steps: u64,
    /// Context steps answered from the summary table.
    pub summary_hits: u64,
    /// Context steps that ran `post*` to fill a summary.
    pub summary_misses: u64,
    /// Visible tuples offered to the layer store. Products already
    /// recorded in full are skipped and not counted.
    pub visible_tuples: u64,
}

/// One memoised context step (see [`SymbolicEngine::summaries`]): a
/// context of `thread` from shared state `q` with stack language
/// `stack` ends in exactly the `successors`, each a shared state with
/// the thread's new stack language.
#[derive(Debug, Clone)]
pub struct ContextSummary<'a> {
    /// The thread that runs the context.
    pub thread: usize,
    /// The shared state the context starts in.
    pub q: SharedState,
    /// The thread's stack language when the context starts.
    pub stack: &'a CanonicalDfa,
    /// Every `(q', language)` with a non-empty language, in
    /// `nonempty_controls()` order.
    pub successors: Vec<(SharedState, &'a CanonicalDfa)>,
}

/// Every distinct stack language the engine has produced, stored once
/// and named by its index, together with its interned top-of-stack
/// set. Append-only: ids stay valid for the engine's lifetime.
#[derive(Debug, Default)]
struct DfaTable {
    dfas: Vec<CanonicalDfa>,
    ids: HashMap<CanonicalDfa, u32>,
    /// Per DFA id, the id of its top-of-stack set.
    top_of: Vec<u32>,
    top_sets: Vec<Vec<Option<StackSym>>>,
    top_ids: HashMap<Vec<Option<StackSym>>, u32>,
}

impl DfaTable {
    fn intern(&mut self, dfa: CanonicalDfa) -> u32 {
        if let Some(&id) = self.ids.get(&dfa) {
            return id;
        }
        let tops = top_set(&dfa);
        let top = match self.top_ids.get(&tops) {
            Some(&top) => top,
            None => {
                let top = self.top_sets.len() as u32;
                self.top_ids.insert(tops.clone(), top);
                self.top_sets.push(tops);
                top
            }
        };
        let id = self.dfas.len() as u32;
        self.ids.insert(dfa.clone(), id);
        self.dfas.push(dfa);
        self.top_of.push(top);
        id
    }

    fn get(&self, id: u32) -> &CanonicalDfa {
        &self.dfas[id as usize]
    }

    fn tops(&self, id: u32) -> &[Option<StackSym>] {
        &self.top_sets[self.top_of[id as usize] as usize]
    }
}

/// What a round registered so far: sealed into the store on success,
/// undone by [`SymbolicEngine::rollback`] on failure.
#[derive(Debug, Default)]
struct Round {
    new_layer: Vec<u32>,
    new_visible: Vec<VisibleState>,
    /// Keys this round added to `SymbolicEngine::projected`.
    projected: Vec<Box<[u32]>>,
}

/// Symbolic layered exploration of `S0, S1, …` with PSA-based context
/// steps (the paper's third approach, Alg. 3(T(Sk)), App. E).
///
/// One context of thread `i` from `τ = ⟨q|A1,…,An⟩`:
///
/// 1. build the P-automaton accepting `{⟨q|w⟩ : w ∈ L(Ai)}`,
/// 2. saturate with `post*` over `Δi`,
/// 3. for every shared state `q'` with non-empty stack language,
///    emit `⟨q'|A1,…,post*|q',…,An⟩` — the other threads' stacks are
///    unchanged, merely re-associated with the new shared state.
///
/// Steps 1–2 and the canonicalisation of step 3 depend on `(i, q, Ai)`
/// only, so each distinct triple is computed once and kept in a
/// summary table. Stack languages are interned: a stored state is `q`
/// plus one DFA id per thread, and deduplication compares ids.
///
/// Collapse (`no new symbolic states in a round`) soundly implies
/// `Rk+1 ⊆ Rk` and hence, by Lemma 7, convergence of `(Rk)`.
#[derive(Debug)]
pub struct SymbolicEngine {
    cpds: Cpds,
    budget: ExploreBudget,
    mode: SubsumptionMode,
    dfas: DfaTable,
    /// The stored states in discovery order, `1 + n` words each: the
    /// shared state, then one DFA id per thread.
    rows: Vec<u32>,
    /// Row → state id, the deduplication index.
    index: HashMap<Box<[u32]>, u32>,
    /// Ids grouped by shared state, for pointwise subsumption lookups.
    by_shared: HashMap<SharedState, Vec<u32>>,
    /// The property-independent layer record (shared vocabulary with
    /// the explicit engine; see [`LayerStore`]).
    store: LayerStore,
    /// One CSR rule index per thread-PDS, built once at construction
    /// and shared by every saturation.
    tables: Vec<RuleTable>,
    /// Context-step summaries: `(thread, q, dfa id)` → a range of
    /// `successors`. A pure function of the key, so it survives
    /// rolled-back rounds; it is never persisted.
    summaries: HashMap<(u32, SharedState, u32), (u32, u32)>,
    successors: Vec<(SharedState, u32)>,
    /// Products `q, top-set id per thread` whose visible tuples are
    /// all in the store already, so projecting them again records
    /// nothing.
    projected: HashSet<Box<[u32]>>,
    /// Memoised `L(a) ⊆ L(b)` over DFA ids (pointwise mode).
    subset: HashMap<(u32, u32), bool>,
    work: SymbolicWork,
}

impl SymbolicEngine {
    /// Creates an engine positioned at `S0 = {singleton(initial)}`.
    pub fn new(cpds: Cpds, budget: ExploreBudget, mode: SubsumptionMode) -> Self {
        let initial = cpds.initial_state();
        let store = LayerStore::new(initial.visible());
        let mut engine = SymbolicEngine::empty(cpds, budget, mode, store);
        let row = engine.intern_state(SymbolicState::singleton(&initial));
        engine.push_row(&row);
        engine
    }

    /// Rebuilds an engine from deserialized parts: the symbolic-state
    /// table in discovery order plus an already-validated layer record.
    /// The DFA interner, lookup index, per-shared-state grouping and
    /// CSR rule tables are derived, so a restored engine explores
    /// exactly like one that computed the same layers live. Context
    /// summaries, subset results and the projected-product set start
    /// empty and refill on demand: the snapshot is not trusted to say
    /// which visible tuples a product has recorded.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency between the
    /// state table and the layer record, without echoing state content.
    pub(crate) fn from_parts(
        cpds: Cpds,
        budget: ExploreBudget,
        mode: SubsumptionMode,
        states: Vec<SymbolicState>,
        store: LayerStore,
    ) -> Result<Self, String> {
        if states.len() != store.state_count_at(store.current_k()) {
            return Err("state table does not match the layer record".to_owned());
        }
        if states[0] != SymbolicState::singleton(&cpds.initial_state()) {
            return Err("state 0 is not the initial symbolic state".to_owned());
        }
        let mut engine = SymbolicEngine::empty(cpds, budget, mode, store);
        for state in states {
            let row = engine.intern_state(state);
            if engine.index.contains_key(&row[..]) {
                return Err("duplicate symbolic state in state table".to_owned());
            }
            engine.push_row(&row);
        }
        Ok(engine)
    }

    /// An engine with `store` and no states yet.
    fn empty(cpds: Cpds, budget: ExploreBudget, mode: SubsumptionMode, store: LayerStore) -> Self {
        let tables = (0..cpds.num_threads())
            .map(|i| RuleTable::new(cpds.thread(i)))
            .collect();
        SymbolicEngine {
            cpds,
            budget,
            mode,
            dfas: DfaTable::default(),
            rows: Vec::new(),
            index: HashMap::new(),
            by_shared: HashMap::new(),
            store,
            tables,
            summaries: HashMap::new(),
            successors: Vec::new(),
            projected: HashSet::new(),
            subset: HashMap::new(),
            work: SymbolicWork::default(),
        }
    }

    /// Interns the stack languages of `state` into a row.
    fn intern_state(&mut self, state: SymbolicState) -> Vec<u32> {
        let mut row = Vec::with_capacity(1 + state.stacks.len());
        row.push(state.q.0);
        for dfa in state.stacks {
            row.push(self.dfas.intern(dfa));
        }
        row
    }

    /// Appends `row` as the next state id.
    fn push_row(&mut self, row: &[u32]) {
        let id = self.num_symbolic_states() as u32;
        self.rows.extend_from_slice(row);
        self.index.insert(row.into(), id);
        self.by_shared
            .entry(SharedState(row[0]))
            .or_default()
            .push(id);
    }

    /// The row of state `id`.
    fn row(&self, id: u32) -> &[u32] {
        let width = 1 + self.cpds.num_threads();
        &self.rows[id as usize * width..(id as usize + 1) * width]
    }

    /// The visible product of a row, named by its shared state and
    /// per-thread top-set ids.
    fn product_key(&self, row: &[u32]) -> Box<[u32]> {
        std::iter::once(row[0])
            .chain(row[1..].iter().map(|&d| self.dfas.top_of[d as usize]))
            .collect()
    }

    /// The subsumption mode the engine deduplicates with.
    pub fn mode(&self) -> SubsumptionMode {
        self.mode
    }

    /// State `id`'s shared state and per-thread stack languages
    /// (serialization).
    pub(crate) fn state_parts(
        &self,
        id: u32,
    ) -> (SharedState, impl Iterator<Item = &CanonicalDfa> + '_) {
        let row = self.row(id);
        (
            SharedState(row[0]),
            row[1..].iter().map(|&d| self.dfas.get(d)),
        )
    }

    /// Stored symbolic state `id`, materialized.
    fn state(&self, id: u32) -> SymbolicState {
        let (q, stacks) = self.state_parts(id);
        SymbolicState {
            q,
            stacks: stacks.cloned().collect(),
        }
    }

    /// The CPDS being explored.
    pub fn cpds(&self) -> &Cpds {
        &self.cpds
    }

    /// The highest context bound computed so far.
    pub fn current_k(&self) -> usize {
        self.store.current_k()
    }

    /// Whether a round added no symbolic states (so `Rk` collapsed).
    pub fn is_collapsed(&self) -> bool {
        self.store.is_collapsed()
    }

    /// The bound-indexed layer record.
    pub fn store(&self) -> &LayerStore {
        &self.store
    }

    /// The work counters accumulated so far.
    pub fn work(&self) -> SymbolicWork {
        self.work
    }

    /// Every context-step summary computed so far, in no particular
    /// order — for inspecting the memo table against fresh `post*`
    /// runs.
    pub fn summaries(&self) -> impl Iterator<Item = ContextSummary<'_>> + '_ {
        self.summaries
            .iter()
            .map(|(&(thread, q, dfa), &(start, end))| ContextSummary {
                thread: thread as usize,
                q,
                stack: self.dfas.get(dfa),
                successors: self.successors[start as usize..end as usize]
                    .iter()
                    .map(|&(q2, d)| (q2, self.dfas.get(d)))
                    .collect(),
            })
    }

    /// Replaces the interrupt wiring of the engine's budget (a
    /// [`SharedExplorer`](crate::SharedExplorer) installs each caller's
    /// interrupt for the duration of its request).
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.budget.interrupt = interrupt;
    }

    /// Total number of symbolic states stored.
    pub fn num_symbolic_states(&self) -> usize {
        self.rows.len() / (1 + self.cpds.num_threads())
    }

    /// Symbolic states first produced at context bound `k`.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn layer(&self, k: usize) -> impl Iterator<Item = SymbolicState> + '_ {
        self.store.layer_ids(k).iter().map(|&id| self.state(id))
    }

    /// Visible states first seen at context bound `k`
    /// (`T(Sk) \ T(Sk−1)`).
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn visible_layer(&self, k: usize) -> &[VisibleState] {
        self.store.visible_layer(k)
    }

    /// All visible states seen so far (`T(Sk)` at the current bound).
    pub fn visible_total(&self) -> impl Iterator<Item = &VisibleState> + '_ {
        self.store.visible_iter()
    }

    /// Number of visible states seen so far.
    pub fn num_visible(&self) -> usize {
        self.store.num_visible()
    }

    /// Whether a concrete global state is covered by any stored
    /// symbolic state (i.e. is context-bounded reachable at the
    /// current bound). Used in cross-validation tests.
    pub fn covers(&self, state: &GlobalState) -> bool {
        (0..self.num_symbolic_states() as u32).any(|id| self.state(id).contains(state))
    }

    /// Computes the next layer `Sk+1 \ Sk`.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::SymbolicBudgetExceeded`] when the
    /// symbolic state budget is exhausted — the analogue of the
    /// paper's out-of-memory outcome on Stefan-1 with 8 threads.
    pub fn advance(&mut self) -> Result<SymbolicLayerSummary, ExploreError> {
        self.budget.interrupt.check()?;
        let k = self.store.current_k() + 1;
        if self.store.is_collapsed() {
            self.store
                .push_layer(Vec::new(), Vec::new(), self.num_symbolic_states());
            return Ok(SymbolicLayerSummary {
                k,
                new_symbolic: 0,
                new_visible: 0,
            });
        }
        let frontier: Vec<u32> = self.store.layer_ids(k - 1).to_vec();
        let round_start = self.num_symbolic_states() as u32;
        let mut round = Round::default();

        for &tau_id in &frontier {
            for thread in 0..self.cpds.num_threads() {
                let step = self
                    .budget
                    .interrupt
                    .check()
                    .and_then(|()| self.context_step(tau_id, thread, &mut round));
                if let Err(e) = step {
                    self.rollback(round_start, round);
                    return Err(e);
                }
            }
        }

        let summary = SymbolicLayerSummary {
            k,
            new_symbolic: round.new_layer.len(),
            new_visible: round.new_visible.len(),
        };
        self.store.push_layer(
            round.new_layer,
            round.new_visible,
            self.num_symbolic_states(),
        );
        Ok(summary)
    }

    /// Removes every symbolic state (ids `round_start..`), projected
    /// product and visible state registered by a failed round, leaving
    /// the engine exactly at the previous bound so `advance` may be
    /// retried. Interned DFAs and summaries stay: they are pure
    /// functions of their keys.
    fn rollback(&mut self, round_start: u32, round: Round) {
        let width = 1 + self.cpds.num_threads();
        for row in self
            .rows
            .split_off(round_start as usize * width)
            .chunks(width)
        {
            self.index.remove(row);
            if let Some(ids) = self.by_shared.get_mut(&SharedState(row[0])) {
                ids.retain(|&id| id < round_start);
            }
        }
        for key in &round.projected {
            self.projected.remove(key);
        }
        self.store.rollback_round(&round.new_visible);
    }

    /// One full context of `thread` from symbolic state `tau_id`: its
    /// summary, each successor registered in summary order.
    fn context_step(
        &mut self,
        tau_id: u32,
        thread: usize,
        round: &mut Round,
    ) -> Result<(), ExploreError> {
        let (start, end) = self.summary(tau_id, thread)?;
        let mut row = self.row(tau_id).to_vec();
        for i in start..end {
            let (q2, dfa) = self.successors[i as usize];
            row[0] = q2.0;
            row[1 + thread] = dfa;
            self.register(&row, round)?;
        }
        Ok(())
    }

    /// The summary of `thread`'s context from state `tau_id`, computed
    /// by [`context_post`](Self::context_post) on the first request.
    fn summary(&mut self, tau_id: u32, thread: usize) -> Result<(u32, u32), ExploreError> {
        let row = self.row(tau_id);
        let key = (thread as u32, SharedState(row[0]), row[1 + thread]);
        self.work.context_steps += 1;
        METRICS.context_steps.inc();
        if let Some(&range) = self.summaries.get(&key) {
            self.work.summary_hits += 1;
            METRICS.summary_hits.inc();
            return Ok(range);
        }
        self.work.summary_misses += 1;
        METRICS.summary_misses.inc();
        let successors = self.context_post(thread, key.1, self.dfas.get(key.2))?;
        let start = self.successors.len() as u32;
        for (q2, dfa) in successors {
            let id = self.dfas.intern(dfa);
            self.successors.push((q2, id));
        }
        let range = (start, self.successors.len() as u32);
        self.summaries.insert(key, range);
        Ok(range)
    }

    /// One context of `thread` from `⟨q|stack⟩`: every shared state
    /// `q'` reachable with a non-empty stack language, paired with
    /// that canonical language.
    ///
    /// The `post*` saturation itself polls the budget's interrupt
    /// every few transition insertions — on every shard when the
    /// sharded backend is active — so even a single pathological
    /// context step cannot overshoot a deadline by more than a poll
    /// interval.
    fn context_post(
        &self,
        thread: usize,
        q: SharedState,
        stack: &CanonicalDfa,
    ) -> Result<Vec<(SharedState, CanonicalDfa)>, ExploreError> {
        let num_controls = self.cpds.num_shared();
        let init = match Psa::from_stack_nfa(num_controls, q, &stack.to_nfa()) {
            Ok(p) => p,
            Err(_) => return Ok(Vec::new()),
        };
        let interrupt = &self.budget.interrupt;
        let saturated = post_star_with(
            self.cpds.thread(thread),
            &self.tables[thread],
            &init,
            self.budget.effective_threads(),
            &|| interrupt.check().is_ok(),
        )
        .map_err(|_| interrupt.check().err().unwrap_or(ExploreError::Cancelled))?;
        Ok(saturated
            .nonempty_controls()
            .into_iter()
            .map(|q2| (q2, CanonicalDfa::from_nfa(&saturated.stack_language(q2))))
            .filter(|(_, dfa)| !dfa.is_empty_language())
            .collect())
    }

    /// Stores a successor unless deduplicated/subsumed.
    fn register(&mut self, row: &[u32], round: &mut Round) -> Result<(), ExploreError> {
        let q = SharedState(row[0]);
        if row[1..]
            .iter()
            .any(|&d| self.dfas.get(d).is_empty_language())
            || self.index.contains_key(row)
        {
            return Ok(());
        }
        if self.mode == SubsumptionMode::Pointwise {
            // Drop the successor when some stored state with the same
            // `q` contains it thread by thread: γ(new) ⊆ γ(old).
            let (rows, dfas, subset) = (&self.rows, &self.dfas, &mut self.subset);
            let width = row.len();
            let subsumed = self.by_shared.get(&q).is_some_and(|ids| {
                ids.iter().any(|&id| {
                    let old = &rows[id as usize * width + 1..(id as usize + 1) * width];
                    row[1..].iter().zip(old).all(|(&a, &b)| {
                        a == b
                            || *subset.entry((a, b)).or_insert_with(|| {
                                language_subset(&dfas.get(a).to_nfa(), &dfas.get(b).to_nfa())
                            })
                    })
                })
            });
            if subsumed {
                return Ok(());
            }
        }
        if self.num_symbolic_states() >= self.budget.max_symbolic_states {
            return Err(ExploreError::SymbolicBudgetExceeded {
                limit: self.budget.max_symbolic_states,
            });
        }
        let key = self.product_key(row);
        if !self.projected.contains(&key) {
            let domains: Vec<&[Option<StackSym>]> =
                row[1..].iter().map(|&d| self.dfas.tops(d)).collect();
            let (store, work) = (&mut self.store, &mut self.work);
            let new_visible = &mut round.new_visible;
            let before = work.visible_tuples;
            for_each_visible(q, &domains, &mut |v| {
                work.visible_tuples += 1;
                if store.record_visible(v.clone()) {
                    new_visible.push(v);
                }
            });
            METRICS.visible_tuples.add(work.visible_tuples - before);
            self.projected.insert(key.clone());
            round.projected.push(key);
        }
        round.new_layer.push(self.num_symbolic_states() as u32);
        self.push_row(row);
        Ok(())
    }

    /// Runs rounds until collapse or `max_k`; returns the final bound.
    ///
    /// # Errors
    ///
    /// Propagates budget exhaustion from [`advance`](Self::advance).
    pub fn run_until_collapse(&mut self, max_k: usize) -> Result<usize, ExploreError> {
        while !self.is_collapsed() && self.current_k() < max_k {
            self.advance()?;
        }
        Ok(self.current_k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_pds::{CpdsBuilder, PdsBuilder, Stack};

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }

    /// The CPDS of Fig. 1.
    fn fig1() -> Cpds {
        let mut p1 = PdsBuilder::new(4, 3);
        p1.overwrite(q(0), s(1), q(1), s(2)).unwrap();
        p1.overwrite(q(3), s(2), q(0), s(1)).unwrap();
        let mut p2 = PdsBuilder::new(4, 7);
        p2.pop(q(0), s(4), q(0)).unwrap();
        p2.overwrite(q(1), s(4), q(2), s(5)).unwrap();
        p2.push(q(2), s(5), q(3), s(4), s(6)).unwrap();
        CpdsBuilder::new(4, q(0))
            .thread(p1.build().unwrap(), [s(1)])
            .thread(p2.build().unwrap(), [s(4)])
            .build()
            .unwrap()
    }

    /// The CPDS of Fig. 2 (foo/bar; does not satisfy FCR).
    /// Q = {⊥,0,1} encoded as {0,1,2}; Σ1 = {2,3,4,5}, Σ2 = {6,7,8,9}.
    fn fig2() -> Cpds {
        let bot = q(0);
        let x0 = q(1);
        let x1 = q(2);
        let mut p1 = PdsBuilder::new(3, 6);
        p1.overwrite(bot, s(2), x0, s(2)).unwrap(); // f0 (x := 0)
        p1.overwrite(bot, s(2), x1, s(2)).unwrap(); // f0 (x := 1)
        for x in [x0, x1] {
            p1.overwrite(x, s(2), x, s(3)).unwrap(); // f2a
            p1.overwrite(x, s(2), x, s(4)).unwrap(); // f2b
            p1.push(x, s(3), x, s(2), s(4)).unwrap(); // f3
            p1.pop(x, s(5), x1).unwrap(); // f5 (x := 1, return)
        }
        p1.overwrite(x1, s(4), x1, s(4)).unwrap(); // f4a spin while x
        p1.overwrite(x0, s(4), x0, s(5)).unwrap(); // f4b exit loop
        let mut p2 = PdsBuilder::new(3, 10);
        p2.overwrite(bot, s(6), x0, s(6)).unwrap(); // b0
        p2.overwrite(bot, s(6), x1, s(6)).unwrap(); // b0
        for x in [x0, x1] {
            p2.overwrite(x, s(6), x, s(7)).unwrap(); // b6a
            p2.overwrite(x, s(6), x, s(8)).unwrap(); // b6b
            p2.push(x, s(7), x, s(6), s(8)).unwrap(); // b7
            p2.pop(x, s(9), x0).unwrap(); // b9 (x := 0, return)
        }
        p2.overwrite(x0, s(8), x0, s(8)).unwrap(); // b8a spin while !x
        p2.overwrite(x1, s(8), x1, s(9)).unwrap(); // b8b exit loop
        CpdsBuilder::new(3, bot)
            .thread(p1.build().unwrap(), [s(2)])
            .thread(p2.build().unwrap(), [s(6)])
            .build()
            .unwrap()
    }

    #[test]
    fn singleton_contains_exactly_its_state() {
        let cpds = fig1();
        let init = cpds.initial_state();
        let tau = SymbolicState::singleton(&init);
        assert!(tau.contains(&init));
        let other = GlobalState::new(q(1), init.stacks.clone());
        assert!(!tau.contains(&other));
        assert!(!tau.is_empty());
        assert_eq!(tau.visible_states(), vec![init.visible()]);
    }

    #[test]
    fn symbolic_matches_explicit_on_fig1() {
        let cpds = fig1();
        let mut sym = SymbolicEngine::new(
            cpds.clone(),
            ExploreBudget::default(),
            SubsumptionMode::Exact,
        );
        let mut exp = crate::ExplicitEngine::new(cpds, ExploreBudget::default());
        for _ in 0..6 {
            sym.advance().unwrap();
            exp.advance().unwrap();
            // T(Sk) must equal T(Rk) at every bound.
            let sv: std::collections::HashSet<_> = sym.visible_total().cloned().collect();
            let ev: std::collections::HashSet<_> = exp.visible_total().cloned().collect();
            assert_eq!(sv, ev, "visible mismatch at k={}", sym.current_k());
        }
        // Every concrete state of R6 is covered symbolically.
        for state in exp.states() {
            assert!(sym.covers(state), "symbolic misses {state}");
        }
    }

    #[test]
    fn symbolic_handles_fig2_where_explicit_cannot() {
        let cpds = fig2();
        // Explicit exploration must hit its budget (no FCR)…
        let mut exp = crate::ExplicitEngine::new(cpds.clone(), ExploreBudget::tiny());
        assert!(exp.advance().is_err());
        // …while the symbolic engine computes rounds without trouble.
        let mut sym = SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Exact);
        for _ in 0..3 {
            sym.advance().unwrap();
        }
        assert!(sym.num_visible() > 1);
    }

    #[test]
    fn fig2_collapses_like_example8() {
        // Ex. 8: R1 ⊊ R2 and R2 = R3 — the symbolic sequence collapses
        // by a small bound even though stacks are unbounded.
        let cpds = fig2();
        let mut sym = SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Exact);
        let k = sym.run_until_collapse(8).unwrap();
        assert!(sym.is_collapsed(), "expected collapse, got k={k}");
        assert!(k <= 6, "collapse bound too large: {k}");
    }

    #[test]
    fn covers_example8_state() {
        // ⟨1|4,9⟩ in the paper's encoding is ⟨x=1|4,9⟩ = our ⟨2|4,9⟩,
        // reachable within two contexts.
        let cpds = fig2();
        let mut sym = SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Exact);
        sym.advance().unwrap();
        sym.advance().unwrap();
        let state = GlobalState::new(
            q(2),
            vec![Stack::from_top_down([s(4)]), Stack::from_top_down([s(9)])],
        );
        assert!(sym.covers(&state));
    }

    #[test]
    fn pointwise_subsumption_never_grows_slower_than_exact() {
        let cpds = fig1();
        let mut exact = SymbolicEngine::new(
            cpds.clone(),
            ExploreBudget::default(),
            SubsumptionMode::Exact,
        );
        let mut pw =
            SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Pointwise);
        for _ in 0..5 {
            exact.advance().unwrap();
            pw.advance().unwrap();
            let pv: std::collections::HashSet<_> = pw.visible_total().cloned().collect();
            let xv: std::collections::HashSet<_> = exact.visible_total().cloned().collect();
            assert_eq!(pv, xv);
            assert!(pw.num_symbolic_states() <= exact.num_symbolic_states());
        }
    }

    #[test]
    fn symbolic_budget_error() {
        let cpds = fig2();
        let mut sym = SymbolicEngine::new(
            cpds,
            ExploreBudget {
                max_symbolic_states: 3,
                ..ExploreBudget::default()
            },
            SubsumptionMode::Exact,
        );
        let mut got_err = false;
        for _ in 0..4 {
            if sym.advance().is_err() {
                got_err = true;
                break;
            }
        }
        assert!(got_err);
    }

    #[test]
    fn advancing_after_collapse_is_noop() {
        // Single thread, single overwrite: collapses immediately.
        let mut p = PdsBuilder::new(2, 1);
        p.overwrite(q(0), s(0), q(1), s(0)).unwrap();
        let cpds = CpdsBuilder::new(2, q(0))
            .thread(p.build().unwrap(), [s(0)])
            .build()
            .unwrap();
        let mut sym = SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Exact);
        sym.run_until_collapse(10).unwrap();
        assert!(sym.is_collapsed());
        let summary = sym.advance().unwrap();
        assert_eq!(summary.new_symbolic, 0);
    }
}
