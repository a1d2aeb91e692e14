//! Context-step summaries and interned stack languages on the symbolic
//! `(Sk)` backend change how much work a round does, never what it
//! produces.
//!
//! * Every memoised summary equals a fresh, unsharded `post*` plus
//!   canonicalisation of its key `(thread, q, stack language)`.
//! * The layer store serializes to the same snapshot bytes as before
//!   the summaries existed: the FNV-1a digests below were recorded by
//!   the engine that reran `post*` for every frontier state, so state
//!   ids, layers, `new_visible` order and the budget-error point are
//!   all pinned.
//!
//! Both subsumption modes are covered on the non-FCR rows of Table 2
//! and on 64 seeded random systems of each of two shapes.

use cuba::automata::{post_star, CanonicalDfa, Psa};
use cuba::benchmarks::random::{random_cpds, RandomCpdsConfig};
use cuba::benchmarks::suite::table2_suite;
use cuba::explore::{
    ExploreBudget, ExploreError, Interrupt, SharedExplorer, SubsumptionMode, SymbolicEngine,
};
use cuba::pds::{Cpds, SharedState};

/// `(row, mode, snapshot digest)`, recorded before the summary table
/// existed. Each row is driven to collapse, or to its budget error.
const ROW_DIGESTS: [(&str, SubsumptionMode, u64); 10] = [
    (
        "k-induction/1+1",
        SubsumptionMode::Exact,
        0x4864_feac_f3b4_7680,
    ),
    ("proc-2/2+2*", SubsumptionMode::Exact, 0x89cd_569b_1f96_f9c8),
    ("stefan-1/2", SubsumptionMode::Exact, 0x86ef_d9e8_e443_b24e),
    ("stefan-1/4", SubsumptionMode::Exact, 0x15d0_fdca_d551_377f),
    ("stefan-1/8", SubsumptionMode::Exact, 0xaa13_b705_93c6_4f41),
    (
        "k-induction/1+1",
        SubsumptionMode::Pointwise,
        0xfe7f_234e_57b5_a6fa,
    ),
    (
        "proc-2/2+2*",
        SubsumptionMode::Pointwise,
        0xa8ab_c57f_78cc_a9f5,
    ),
    (
        "stefan-1/2",
        SubsumptionMode::Pointwise,
        0xf105_2f4c_7e02_429a,
    ),
    (
        "stefan-1/4",
        SubsumptionMode::Pointwise,
        0xac09_c47e_2ddd_8ece,
    ),
    (
        "stefan-1/8",
        SubsumptionMode::Pointwise,
        0x4ba0_1b59_4896_46bf,
    ),
];

/// One digest per random shape and mode over its 64 seeds (depth,
/// then snapshot bytes, per seed).
const RANDOM_DIGESTS: [(&str, SubsumptionMode, u64); 4] = [
    ("small", SubsumptionMode::Exact, 0xba4b_4851_94a6_c155),
    ("small", SubsumptionMode::Pointwise, 0x1570_3134_b3e1_c0fe),
    ("wide", SubsumptionMode::Exact, 0x1cff_76b5_cb8a_2361),
    ("wide", SubsumptionMode::Pointwise, 0x020b_443e_c6d3_4e7a),
];

/// The random shapes: the generator's default, and a wider one with
/// three threads and more pushes.
fn random_shape(name: &str) -> RandomCpdsConfig {
    match name {
        "small" => RandomCpdsConfig::default(),
        _ => RandomCpdsConfig {
            num_shared: 4,
            num_threads: 3,
            alphabet: 4,
            actions_per_thread: 10,
            push_probability: 0.3,
        },
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A symbolic explorer driven bound by bound until collapse, `max_k`,
/// or its first error.
fn explore(
    cpds: Cpds,
    mode: SubsumptionMode,
    limit: usize,
    max_k: usize,
) -> (SharedExplorer, Result<(), ExploreError>) {
    let budget = ExploreBudget {
        max_symbolic_states: limit,
        ..ExploreBudget::default()
    };
    let explorer = SharedExplorer::symbolic(cpds, budget, mode);
    let mut result = Ok(());
    for k in 1..=max_k {
        if let Err(e) = explorer.ensure_layer(k, &Interrupt::none()) {
            result = Err(e);
            break;
        }
        if explorer.view(k).collapsed {
            break;
        }
    }
    (explorer, result)
}

/// Checks every summary of `explorer` against a fresh sequential
/// `post*` of its key; returns how many were checked.
fn check_summaries(label: &str, explorer: &SharedExplorer) -> usize {
    explorer
        .with_symbolic(|engine: &SymbolicEngine| {
            let cpds = engine.cpds();
            let mut checked = 0;
            for summary in engine.summaries() {
                let init =
                    Psa::from_stack_nfa(cpds.num_shared(), summary.q, &summary.stack.to_nfa())
                        .expect("summary keys are valid control states");
                let saturated = post_star(cpds.thread(summary.thread), &init);
                let fresh: Vec<(SharedState, CanonicalDfa)> = saturated
                    .nonempty_controls()
                    .into_iter()
                    .map(|q2| (q2, CanonicalDfa::from_nfa(&saturated.stack_language(q2))))
                    .filter(|(_, dfa)| !dfa.is_empty_language())
                    .collect();
                let memo: Vec<(SharedState, CanonicalDfa)> = summary
                    .successors
                    .iter()
                    .map(|&(q2, dfa)| (q2, dfa.clone()))
                    .collect();
                assert_eq!(
                    memo, fresh,
                    "{label}: summary of thread {} from q={} differs from a fresh post*",
                    summary.thread, summary.q
                );
                checked += 1;
            }
            checked
        })
        .expect("symbolic explorer")
}

/// The non-FCR Table 2 rows in both modes: pinned snapshot bytes,
/// summaries equal to fresh `post*`, and stefan-1/8's budget error at
/// the recorded point.
#[test]
fn table2_symbolic_rows_keep_their_snapshot_bytes() {
    let suite = table2_suite();
    for (label, mode, digest) in ROW_DIGESTS {
        let bench = suite
            .iter()
            .find(|b| b.label() == label)
            .unwrap_or_else(|| panic!("suite row {label} missing"));
        let (explorer, result) = explore(bench.cpds.clone(), mode, 20_000, 12);
        if label == "stefan-1/8" && mode == SubsumptionMode::Exact {
            assert_eq!(
                result,
                Err(ExploreError::SymbolicBudgetExceeded { limit: 20_000 }),
                "{label}: the paper's out-of-memory row"
            );
            assert_eq!(explorer.depth(), 6, "{label}: store depth at the error");
        } else {
            assert_eq!(result, Ok(()), "{label} {mode:?}");
        }
        let mut hash = FNV_OFFSET;
        fnv1a(&mut hash, &explorer.snapshot(0));
        assert_eq!(hash, digest, "{label} {mode:?}: snapshot bytes changed");

        let checked = check_summaries(label, &explorer);
        let work = explorer
            .with_symbolic(SymbolicEngine::work)
            .expect("symbolic explorer");
        assert_eq!(work.summary_misses as usize, checked, "{label} {mode:?}");
        assert_eq!(
            work.context_steps,
            work.summary_hits + work.summary_misses,
            "{label} {mode:?}"
        );
    }
}

/// 64 seeded random systems per shape and mode: the combined snapshot
/// digest is the recorded one and every summary matches a fresh
/// `post*`.
#[test]
fn random_systems_keep_their_snapshot_bytes() {
    for (shape, mode, digest) in RANDOM_DIGESTS {
        let mut hash = FNV_OFFSET;
        for seed in 0..64u64 {
            let cpds = random_cpds(&random_shape(shape), seed);
            let (explorer, result) = explore(cpds, mode, 2_000, 8);
            assert_eq!(result, Ok(()), "{shape} seed {seed} {mode:?}");
            fnv1a(&mut hash, &(explorer.depth() as u64).to_le_bytes());
            fnv1a(&mut hash, &explorer.snapshot(0));
            check_summaries(&format!("{shape} seed {seed}"), &explorer);
        }
        assert_eq!(hash, digest, "{shape} {mode:?}: snapshot bytes changed");
    }
}

/// A restored explorer starts with no summaries, yet extends its
/// layers to the same bytes as one that never stopped.
#[test]
fn restored_explorer_extends_to_identical_bytes() {
    let bench = table2_suite()
        .into_iter()
        .find(|b| b.label() == "stefan-1/4")
        .expect("stefan-1/4 row");
    for mode in [SubsumptionMode::Exact, SubsumptionMode::Pointwise] {
        let budget = ExploreBudget::default();
        let live = SharedExplorer::symbolic(bench.cpds.clone(), budget.clone(), mode);
        live.ensure_layer(3, &Interrupt::none()).unwrap();
        let bytes = live.snapshot(7);
        let restored = SharedExplorer::restore(bench.cpds.clone(), budget, 7, &bytes).unwrap();
        assert_eq!(
            restored.with_symbolic(|e| e.summaries().count()),
            Some(0),
            "summaries are never persisted"
        );
        live.ensure_layer(6, &Interrupt::none()).unwrap();
        restored.ensure_layer(6, &Interrupt::none()).unwrap();
        assert_eq!(restored.snapshot(7), live.snapshot(7), "{mode:?}");
    }
}
