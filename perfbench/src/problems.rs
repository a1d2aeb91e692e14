//! The benchmark's inputs and its correctness oracle.
//!
//! Models come from the Table 2 registry and the Fig. 1 example. The
//! expected verdict of every problem is taken from the paper's tables
//! (Table 2's `Safe?` column, the Fig. 1 reachability table), never
//! from a run of the program under test.

use cuba_benchmarks::fig1;
use cuba_benchmarks::suite::table2_suite;
use cuba_core::{CubaError, CubaOutcome, Property, Verdict};
use cuba_explore::ExploreError;
use cuba_pds::{Cpds, SharedState, StackSym, VisibleState};

/// The outcome the paper reports for a problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    Safe,
    Unsafe,
    /// The paper's out-of-memory row: the symbolic state budget runs
    /// out before the sequence converges.
    BudgetError,
}

impl Expected {
    pub fn word(self) -> &'static str {
        match self {
            Expected::Safe => "safe",
            Expected::Unsafe => "unsafe",
            Expected::BudgetError => "budget-error",
        }
    }
}

/// One verification problem: a model, a property and its known answer.
#[derive(Debug, Clone)]
pub struct Problem {
    pub label: String,
    pub cpds: Cpds,
    pub property: Property,
    pub expected: Expected,
}

/// The Table 2 rows whose `FCR?` column equals `fcr`, in registry
/// order. With `fcr` the Fig. 1 three-property block is appended.
pub fn suite_problems(fcr: bool) -> Vec<Problem> {
    let mut problems: Vec<Problem> = table2_suite()
        .into_iter()
        .filter(|row| row.expect.fcr == fcr)
        .map(|row| Problem {
            label: row.label(),
            expected: match row.expect.safe {
                Some(true) => Expected::Safe,
                Some(false) => Expected::Unsafe,
                None => Expected::BudgetError,
            },
            cpds: row.cpds,
            property: row.property,
        })
        .collect();
    if fcr {
        problems.extend(fig1_block());
    }
    problems
}

/// One system, three properties, answers read off the Fig. 1 table:
/// plain reachability converges (p0), ⟨1|2,6⟩ first appears at k = 5
/// (p1), ⟨2|1,5⟩ never appears (p2).
fn fig1_block() -> Vec<Problem> {
    let visible = |q: u32, tops: [u32; 2]| {
        VisibleState::new(
            SharedState(q),
            tops.iter().map(|&t| Some(StackSym(t))).collect(),
        )
    };
    [
        ("fig1-multi/p0-true", Property::True, Expected::Safe),
        (
            "fig1-multi/p1-bug",
            Property::never_visible(visible(1, [2, 6])),
            Expected::Unsafe,
        ),
        (
            "fig1-multi/p2-unreach",
            Property::never_visible(visible(2, [1, 5])),
            Expected::Safe,
        ),
    ]
    .into_iter()
    .map(|(label, property, expected)| Problem {
        label: label.to_owned(),
        cpds: fig1::build(),
        property,
        expected,
    })
    .collect()
}

/// The outcome word of a finished problem, comparable to
/// [`Expected::word`].
pub fn outcome_word(result: &Result<CubaOutcome, CubaError>) -> &'static str {
    match result {
        Ok(outcome) => match outcome.verdict {
            Verdict::Safe { .. } => "safe",
            Verdict::Unsafe { .. } => "unsafe",
            Verdict::Undetermined { .. } => "undetermined",
        },
        Err(CubaError::Explore(ExploreError::SymbolicBudgetExceeded { .. })) => "budget-error",
        Err(_) => "error",
    }
}

/// Checks one outcome against the paper: the outcome word must match,
/// and an unsafe verdict must carry a witness that replays on the
/// system.
pub fn check(problem: &Problem, result: &Result<CubaOutcome, CubaError>) -> Result<(), String> {
    let got = outcome_word(result);
    if got != problem.expected.word() {
        let detail = match result {
            Ok(outcome) => outcome.verdict.to_string(),
            Err(error) => error.to_string(),
        };
        return Err(format!(
            "expected {}, got {got} ({detail})",
            problem.expected.word()
        ));
    }
    if let Ok(CubaOutcome {
        verdict: Verdict::Unsafe { witness, .. },
        ..
    }) = result
    {
        match witness {
            None => return Err("unsafe verdict without a witness".to_owned()),
            Some(witness) if !witness.replay(&problem.cpds) => {
                return Err("witness does not replay on the system".to_owned())
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// SplitMix64: a small, seedable generator for problem orders and
/// request streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}
