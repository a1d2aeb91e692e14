//! The two suite workloads: Table 2 problems run one at a time through
//! `Portfolio::auto()`, each pass over a fresh `SuiteCache`.
//!
//! The untraced run times every problem from the `Portfolio` call to
//! its outcome, error outcomes included. The traced run alternates
//! untraced passes with traced ones, which call each layer's public
//! entry point in the order a session uses them, with a benchmark-side
//! span around each call and the telemetry counters read at the same
//! boundaries.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cuba_bench::harness::bench_config;
use cuba_bench::stats::quantile;
use cuba_core::{
    fingerprint, CubaError, CubaOutcome, EngineUsed, Portfolio, SchedulePolicy, SessionEvent,
    SuiteCache, SystemArtifacts, Verdict,
};
use cuba_explore::{Interrupt, SharedExplorer};
use cuba_telemetry::metrics::METRICS;

use crate::problems::{check, outcome_word, suite_problems, Expected, Problem, Rng};
use crate::report::{geomean, peak_rss_mb, trimmed_mean, Report};
use crate::spans::{write_checked, Spans};

/// Timed samples a problem should get in one run.
const MIN_SAMPLES: usize = 12;
/// Problems under this share of a pass count as cheap.
const CHEAP_SHARE: f64 = 0.02;

/// The portfolio every suite problem runs through: the paper's §6
/// lineup with the suite limits `cuba bench` uses (the symbolic state
/// cap makes `stefan-1/8` end in its budget error), default
/// saturation thread count.
fn portfolio() -> Portfolio {
    Portfolio::auto().with_config(bench_config(SchedulePolicy::default()))
}

/// Builds the workload's models; returns them and when the build
/// started and ended. Runs sample this after every pass as well, so
/// `setup_s` averages over the whole run rather than its first
/// milliseconds.
fn build(fcr: bool) -> (Vec<Problem>, Instant, Instant) {
    let start = Instant::now();
    let problems = suite_problems(fcr);
    (problems, start, Instant::now())
}

/// One problem of one untraced pass.
struct Timed {
    index: usize,
    elapsed: Duration,
    result: Result<CubaOutcome, CubaError>,
    artifacts: Arc<SystemArtifacts>,
}

/// One sequential pass in `order` over a fresh cache. Returns the pass
/// wall time and the per-problem results.
fn untraced_pass(
    portfolio: &Portfolio,
    problems: &[Problem],
    order: &[usize],
) -> (Duration, Vec<Timed>) {
    let cache = SuiteCache::new();
    let inputs: Vec<_> = order
        .iter()
        .map(|&i| (i, problems[i].cpds.clone(), problems[i].property.clone()))
        .collect();
    let mut timed = Vec::with_capacity(inputs.len());
    let pass_start = Instant::now();
    for (index, cpds, property) in inputs {
        let start = Instant::now();
        let artifacts = cache.artifacts(&cpds);
        let result = portfolio
            .session_with(cpds, property, &artifacts)
            .and_then(|mut session| {
                while session.next_event().is_some() {}
                session.into_outcome()
            });
        timed.push(Timed {
            index,
            elapsed: start.elapsed(),
            result,
            artifacts,
        });
    }
    (pass_start.elapsed(), timed)
}

/// Checks one outcome against the oracle, and its word against the
/// word the same problem got earlier in the run (orders differ between
/// passes, so words must not).
fn check_outcome(
    problem: &Problem,
    index: usize,
    result: &Result<CubaOutcome, CubaError>,
    words: &mut HashMap<usize, &'static str>,
    report: &mut Report,
) {
    report.attempted += 1;
    if let Err(reason) = check(problem, result) {
        report.fail(&problem.label, &reason);
    }
    let word = outcome_word(result);
    if *words.entry(index).or_insert(word) != word {
        report.fail(
            &problem.label,
            "outcome word changed with the problem order",
        );
    }
}

/// The untraced run: sequential passes in seed-drawn orders until the
/// time budget would be exceeded (at least one pass).
///
/// When the first pass shows that fewer than `MIN_SAMPLES` passes fit
/// the budget, each pass is followed by extra passes over the problems
/// that took under `CHEAP_SHARE` of it (fresh cache each, seed-drawn
/// order, not part of `pass_s`). Without them, a workload whose pass is
/// one heavy row gives its cheap rows too few samples for a steady
/// figure.
pub fn run(fcr: bool, seed: u64, seconds: f64) -> Result<Report, String> {
    let (problems, start, end) = build(fcr);
    let mut setup_s = vec![(end - start).as_secs_f64()];
    let portfolio = portfolio();
    let mut report = Report::default();
    let mut words = HashMap::new();
    let mut pass_s = Vec::new();
    let mut per_problem: Vec<Vec<f64>> = vec![Vec::new(); problems.len()];
    let mut extra_passes = None;
    let run_start = Instant::now();
    loop {
        let mut rng = Rng::new(seed, pass_s.len() as u64);
        let (wall, mut timed) =
            untraced_pass(&portfolio, &problems, &rng.permutation(problems.len()));
        pass_s.push(wall.as_secs_f64());
        let fit = (seconds / wall.as_secs_f64()).floor().max(1.0) as usize;
        let extra = *extra_passes.get_or_insert(MIN_SAMPLES.div_ceil(fit) - 1);
        let cheap: Vec<usize> = timed
            .iter()
            .filter(|t| t.elapsed.as_secs_f64() < CHEAP_SHARE * wall.as_secs_f64())
            .map(|t| t.index)
            .collect();
        for _ in 0..extra {
            let order: Vec<usize> = rng
                .permutation(cheap.len())
                .iter()
                .map(|&i| cheap[i])
                .collect();
            timed.extend(untraced_pass(&portfolio, &problems, &order).1);
            let (_, start, end) = build(fcr);
            setup_s.push((end - start).as_secs_f64());
        }
        for t in timed {
            per_problem[t.index].push(t.elapsed.as_secs_f64() * 1e3);
            check_outcome(
                &problems[t.index],
                t.index,
                &t.result,
                &mut words,
                &mut report,
            );
        }
        let (_, start, end) = build(fcr);
        setup_s.push((end - start).as_secs_f64());
        let mean_pass = run_start.elapsed().as_secs_f64() / pass_s.len() as f64;
        if run_start.elapsed().as_secs_f64() + mean_pass > seconds {
            break;
        }
    }
    let times: Vec<f64> = per_problem.iter().map(|xs| trimmed_mean(xs)).collect();
    let n = problems.len();
    report.metric("setup_s", trimmed_mean(&setup_s), "s", setup_s.len());
    report.metric("pass_s", trimmed_mean(&pass_s), "s", pass_s.len());
    report.metric("verdict_ms_geomean", geomean(&times), "ms", n);
    report.metric(
        "req_per_s",
        (n * pass_s.len()) as f64 / pass_s.iter().sum::<f64>(),
        "1/s",
        n * pass_s.len(),
    );
    report.metric("req_ms_p50", quantile(&times, 0.5), "ms", n);
    report.metric("req_ms_p90", quantile(&times, 0.9), "ms", n);
    report.metric("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    for (problem, ms) in problems.iter().zip(&times) {
        report
            .notes
            .push(format!("{:<24} {ms:>10.3} ms", problem.label));
    }
    Ok(report)
}

/// Per-layer sums over one traced pass.
#[derive(Debug, Default)]
struct Layers {
    fcr_us: f64,
    gz_us: f64,
    gz_states: u64,
    explore_us: f64,
    explore_rounds: u64,
    explore_states: u64,
    explore_waves: u64,
    explore_frontier_edges: u64,
    explore_budget_errors: u64,
    session_us: f64,
    /// Summed `RoundCompleted.elapsed` per arm: Alg. 3, Scheme 1, CBA.
    arm_us: [f64; 3],
    /// Rounds per arm, and rounds of the arm that decided.
    arm_rounds: [u64; 3],
    winner_rounds: u64,
    session_rounds_explored: u64,
    session_rounds_replayed: u64,
    witness_steps: u64,
    witness_us: f64,
    snapshot_encode_us: f64,
    snapshot_decode_us: f64,
    snapshot_bytes: u64,
    /// Sum of the per-problem spans (steps 1–6) and of the uncovered
    /// remainder inside them.
    problem_us: f64,
    other_us: f64,
    /// Traced time from the first layer call to the outcome, to compare
    /// with the untraced time to outcome.
    to_outcome_us: f64,
    /// The traced pass's extra attempt at the layer that failed on the
    /// budget-error row; not tracing overhead.
    extra_us: f64,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Layers {
    /// The counters that must repeat exactly at a fixed thread count.
    fn deterministic(&self) -> [(&'static str, u64); 9] {
        [
            ("explore.rounds", self.explore_rounds),
            ("explore.states", self.explore_states),
            ("explore.waves", self.explore_waves),
            ("explore.frontier_edges", self.explore_frontier_edges),
            ("gz.states", self.gz_states),
            ("session.rounds_explored", self.session_rounds_explored),
            ("session.rounds_replayed", self.session_rounds_replayed),
            ("witness.steps", self.witness_steps),
            ("snapshot.bytes", self.snapshot_bytes),
        ]
    }
}

fn arm(engine: EngineUsed) -> usize {
    match engine {
        EngineUsed::Alg3Explicit | EngineUsed::Alg3Symbolic => 0,
        EngineUsed::Scheme1Explicit | EngineUsed::Scheme1Symbolic => 1,
        EngineUsed::CbaBaseline => 2,
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}

/// Runs `f` inside a span `name` of problem `item`; returns its value
/// and the span's length in microseconds.
fn timed<T>(
    spans: &Spans,
    name: &'static str,
    (item, label): (usize, &str),
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    spans.record(name, 1, item, label, start, end);
    (value, us(end - start))
}

/// The shared explorer a session of this system drives, if started:
/// explicit `(Rk)` under FCR, symbolic `(Sk)` otherwise.
fn session_explorer(
    artifacts: &SystemArtifacts,
    portfolio: &Portfolio,
) -> Option<Arc<SharedExplorer>> {
    if artifacts.fcr_if_checked()?.holds() {
        artifacts.explicit_explorer_if_started()
    } else {
        artifacts.symbolic_explorer_if_started(portfolio.config().subsumption)
    }
}

/// One traced pass in `order` over a fresh cache. Per problem, the
/// layers are called in the order a session uses them, each in a span
/// of that problem: FCR, `G ∩ Z`, `ensure_layer` up to `depths[i]`
/// (the depth the untraced pass reached), the session over the warm
/// explorer, witness replay, snapshot encode and restore.
fn traced_pass(
    portfolio: &Portfolio,
    problems: &[Problem],
    order: &[usize],
    depths: &[usize],
    first_item: usize,
    spans: &Spans,
) -> Result<(Layers, Vec<Result<CubaOutcome, CubaError>>), String> {
    let config = portfolio.config();
    let cache = SuiteCache::new();
    let none = Interrupt::none();
    let mut layers = Layers::default();
    let mut results = Vec::with_capacity(order.len());
    for (item, &index) in (first_item..).zip(order) {
        let problem = &problems[index];
        let label = problem.label.as_str();
        let (cpds, property) = (problem.cpds.clone(), problem.property.clone());
        let restore_cpds = problem.cpds.clone();
        let key = fingerprint(&cpds);
        let at = (item, label);
        let problem_start = Instant::now();

        let (artifacts, hit) = cache.lookup(&cpds);
        layers.cache_lookups += 1;
        layers.cache_hits += u64::from(hit);

        let (fcr, fcr_us) = timed(spans, "fcr", at, || artifacts.fcr(&cpds).holds());
        let (_, gz_us) = timed(spans, "g_cap_z", at, || artifacts.g_cap_z(&cpds));

        let explorer = if fcr {
            artifacts.explicit_explorer(&cpds, &config.budget)
        } else {
            artifacts.symbolic_explorer(&cpds, &config.budget, config.subsumption)
        };
        let (waves, edges) = (METRICS.waves.get(), METRICS.frontier_edges.sum());
        let rounds = explorer.rounds_explored();
        let depth = depths[index];
        let (explored, explore_us) = timed(spans, "ensure_layer", at, || {
            explorer.ensure_layer(depth, &none)?;
            // The budget-error row: demand the layer that failed in the
            // untraced pass too, so its exploration is booked here. The
            // session fails on it again afterwards, so this attempt is
            // work the untraced pass did not do.
            let extra = Instant::now();
            let failed = problem.expected == Expected::BudgetError
                && explorer.ensure_layer(depth + 1, &none).is_err();
            Ok::<_, cuba_explore::ExploreError>((
                failed,
                if failed { us(extra.elapsed()) } else { 0.0 },
            ))
        });
        let (budget_error, extra_us) =
            explored.map_err(|e| format!("{label}: ensure_layer({depth}): {e}"))?;
        layers.extra_us += extra_us;
        layers.explore_rounds += (explorer.rounds_explored() - rounds) as u64;
        layers.explore_waves += METRICS.waves.get() - waves;
        layers.explore_frontier_edges += METRICS.frontier_edges.sum() - edges;
        layers.explore_budget_errors += u64::from(budget_error);

        let (explored, replayed) = (METRICS.rounds_explored.get(), METRICS.rounds_replayed.get());
        let mut arm_us = [0.0; 3];
        let mut arm_rounds = [0u64; 3];
        let (result, session_us) = timed(spans, "session", at, || {
            let mut session = portfolio.session_with(cpds, property, &artifacts)?;
            while let Some(event) = session.next_event() {
                if let SessionEvent::RoundCompleted {
                    engine, elapsed, ..
                } = event
                {
                    arm_us[arm(engine)] += us(elapsed);
                    arm_rounds[arm(engine)] += 1;
                }
            }
            session.into_outcome()
        });
        let outcome_at = Instant::now();
        layers.session_rounds_explored += METRICS.rounds_explored.get() - explored;
        layers.session_rounds_replayed += METRICS.rounds_replayed.get() - replayed;
        for a in 0..3 {
            layers.arm_us[a] += arm_us[a];
            layers.arm_rounds[a] += arm_rounds[a];
        }
        if let Ok(outcome) = &result {
            layers.winner_rounds += arm_rounds[arm(outcome.engine)];
        }

        let mut witness_us = 0.0;
        if let Ok(CubaOutcome {
            verdict:
                Verdict::Unsafe {
                    witness: Some(witness),
                    ..
                },
            ..
        }) = &result
        {
            witness_us = timed(spans, "witness", at, || witness.replay(&problem.cpds)).1;
            layers.witness_steps += witness.len() as u64;
        }

        let (bytes, encode_us) = timed(spans, "snapshot_encode", at, || explorer.snapshot(key));
        let (restored, decode_us) = timed(spans, "snapshot_decode", at, || {
            SharedExplorer::restore(restore_cpds, config.budget.clone(), key, &bytes).map(drop)
        });
        restored.map_err(|e| format!("{label}: snapshot does not restore: {e}"))?;
        layers.snapshot_bytes += bytes.len() as u64;

        let problem_end = Instant::now();
        spans.record("problem", 1, item, label, problem_start, problem_end);
        let problem_us = us(problem_end - problem_start);
        let covered = fcr_us + gz_us + explore_us + session_us + witness_us + encode_us + decode_us;
        // Sequential spans inside one problem span: the remainder can
        // only be negative if two spans overlapped.
        if covered > problem_us {
            return Err(format!(
                "{label}: layer spans cover {covered:.1} us of a {problem_us:.1} us problem"
            ));
        }
        layers.fcr_us += fcr_us;
        layers.gz_us += gz_us;
        layers.explore_us += explore_us;
        layers.session_us += session_us;
        layers.witness_us += witness_us;
        layers.snapshot_encode_us += encode_us;
        layers.snapshot_decode_us += decode_us;
        layers.problem_us += problem_us;
        layers.other_us += problem_us - covered;
        layers.to_outcome_us += us(outcome_at - problem_start);
        results.push(result);
    }
    // Per distinct system, whichever property reached it first:
    // |G ∩ Z| and the states its explorer holds at its depth.
    for entry in cache.entries() {
        layers.gz_states += entry.artifacts.g_cap_z(&entry.system).len() as u64;
        if let Some(explorer) = session_explorer(&entry.artifacts, portfolio) {
            layers.explore_states += explorer.view(explorer.depth()).states as u64;
        }
    }
    Ok((layers, results))
}

/// The traced run: pairs of one untraced pass (which gives each
/// system's explorer depth and the untraced time to outcome) and one
/// traced pass in the same order, until the time budget would be
/// exceeded (at least one pair). Writes the spans as a Chrome trace.
pub fn run_traced(fcr: bool, seed: u64, seconds: f64, workload: &str) -> Result<Report, String> {
    let spans = Spans::new();
    let (problems, start, end) = build(fcr);
    spans.record("model", 1, 0, "setup", start, end);
    let mut model_us = vec![us(end - start)];
    let portfolio = portfolio();
    let n = problems.len();
    let mut report = Report::default();
    let mut words = HashMap::new();
    let mut passes: Vec<Layers> = Vec::new();
    let mut untraced_us = Vec::new();
    let run_start = Instant::now();
    loop {
        let order = Rng::new(seed, passes.len() as u64).permutation(n);
        let (_, timed) = untraced_pass(&portfolio, &problems, &order);
        let mut depths = vec![0; n];
        let mut to_outcome = 0.0;
        for t in timed {
            depths[t.index] = session_explorer(&t.artifacts, &portfolio).map_or(0, |e| e.depth());
            to_outcome += us(t.elapsed);
            check_outcome(
                &problems[t.index],
                t.index,
                &t.result,
                &mut words,
                &mut report,
            );
        }
        untraced_us.push(to_outcome);

        let first_item = passes.len() * n;
        let (layers, results) =
            traced_pass(&portfolio, &problems, &order, &depths, first_item, &spans)?;
        for (&index, result) in order.iter().zip(&results) {
            check_outcome(&problems[index], index, result, &mut words, &mut report);
        }
        drop(results);
        if let Some(first) = passes.first() {
            for ((name, a), (_, b)) in first
                .deterministic()
                .into_iter()
                .zip(layers.deterministic())
            {
                if a != b {
                    report.notes.push(format!(
                        "{name} differs between traced passes: {a} vs {b} (pass {})",
                        passes.len()
                    ));
                }
            }
        }
        passes.push(layers);
        let (_, start, end) = build(fcr);
        spans.record("model", 1, passes.len(), "setup", start, end);
        model_us.push(us(end - start));
        let mean_pair = run_start.elapsed().as_secs_f64() / passes.len() as f64;
        if run_start.elapsed().as_secs_f64() + mean_pair > seconds {
            break;
        }
    }

    let (path, span_count) = write_checked(&spans.chrome_json(), workload, seed)?;
    report
        .notes
        .push(format!("trace: {path} ({span_count} spans)"));
    let time =
        |field: fn(&Layers) -> f64| trimmed_mean(&passes.iter().map(field).collect::<Vec<_>>());
    let traced_us = time(|l| l.to_outcome_us - l.extra_us);
    report.notes.push(format!(
        "time to outcome over {} passes: traced {:.1} ms (less {:.1} ms of extra \
         budget-error exploration), untraced {:.1} ms",
        passes.len(),
        traced_us / 1e3,
        time(|l| l.extra_us) / 1e3,
        trimmed_mean(&untraced_us) / 1e3
    ));
    let p = passes.len();
    let first = &passes[0];
    let all_rounds: u64 = first.arm_rounds.iter().sum();
    report.metric("model.us", trimmed_mean(&model_us), "us", model_us.len());
    report.metric("fcr.us", time(|l| l.fcr_us), "us", p);
    report.metric("gz.us", time(|l| l.gz_us), "us", p);
    report.metric("gz.states", first.gz_states as f64, "count", 1);
    report.metric("explore.us", time(|l| l.explore_us), "us", p);
    report.metric("explore.rounds", first.explore_rounds as f64, "count", 1);
    report.metric("explore.states", first.explore_states as f64, "count", 1);
    report.metric("explore.waves", first.explore_waves as f64, "count", 1);
    report.metric(
        "explore.frontier_edges",
        first.explore_frontier_edges as f64,
        "count",
        1,
    );
    report.metric(
        "explore.budget_errors",
        first.explore_budget_errors as f64,
        "count",
        1,
    );
    report.metric("session.us", time(|l| l.session_us), "us", p);
    report.metric("session.arm_us.alg3", time(|l| l.arm_us[0]), "us", p);
    report.metric("session.arm_us.scheme1", time(|l| l.arm_us[1]), "us", p);
    report.metric("session.arm_us.cba", time(|l| l.arm_us[2]), "us", p);
    report.metric(
        "session.rounds_explored",
        first.session_rounds_explored as f64,
        "count",
        1,
    );
    report.metric(
        "session.rounds_replayed",
        first.session_rounds_replayed as f64,
        "count",
        1,
    );
    report.metric(
        "session.useful_share",
        first.winner_rounds as f64 / all_rounds.max(1) as f64,
        "ratio",
        1,
    );
    report.metric("witness.steps", first.witness_steps as f64, "count", 1);
    report.metric("witness.replay_us", time(|l| l.witness_us), "us", p);
    report.metric(
        "cache.hit_share",
        first.cache_hits as f64 / first.cache_lookups.max(1) as f64,
        "ratio",
        1,
    );
    report.metric(
        "snapshot.encode_us",
        time(|l| l.snapshot_encode_us),
        "us",
        p,
    );
    report.metric(
        "snapshot.decode_us",
        time(|l| l.snapshot_decode_us),
        "us",
        p,
    );
    report.metric("snapshot.bytes", first.snapshot_bytes as f64, "count", 1);
    report.metric(
        "other_share",
        time(|l| l.other_us / l.problem_us),
        "ratio",
        p,
    );
    report.metric(
        "trace_overhead_share",
        traced_us / trimmed_mean(&untraced_us) - 1.0,
        "ratio",
        p,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deterministic counters of one short traced pass over cheap
    /// problems: both backends, an unsafe row with a witness, and the
    /// Fig. 1 block whose later properties replay the first one's
    /// layers.
    fn counters(seed: u64) -> [(&'static str, u64); 9] {
        let cheap = [
            "bluetooth-1/1+1",
            "dekker/2*",
            "k-induction/1+1",
            "stefan-1/2",
            "proc-2/2+2*",
        ];
        let problems: Vec<Problem> = suite_problems(true)
            .into_iter()
            .chain(suite_problems(false))
            .filter(|p| cheap.contains(&p.label.as_str()) || p.label.starts_with("fig1-multi/"))
            .collect();
        let portfolio = portfolio();
        let order = Rng::new(seed, 0).permutation(problems.len());
        let (_, timed) = untraced_pass(&portfolio, &problems, &order);
        let mut depths = vec![0; problems.len()];
        for t in timed {
            check(&problems[t.index], &t.result).expect("untraced outcome");
            depths[t.index] = session_explorer(&t.artifacts, &portfolio).map_or(0, |e| e.depth());
        }
        let (layers, results) =
            traced_pass(&portfolio, &problems, &order, &depths, 0, &Spans::new())
                .expect("traced pass");
        for (&index, result) in order.iter().zip(&results) {
            check(&problems[index], result).expect("traced outcome");
        }
        layers.deterministic()
    }

    #[test]
    fn deterministic_counters_repeat_at_one_seed_and_across_seeds() {
        let first = counters(7);
        assert_eq!(first, counters(7), "two runs at one seed");
        assert_eq!(first, counters(8), "a second seed (another order)");
        let zero: Vec<_> = first.iter().filter(|(_, v)| *v == 0).collect();
        assert!(zero.is_empty(), "counters that measured nothing: {zero:?}");
    }
}
