//! `cuba-perfbench`: the repository benchmark.
//!
//! ```text
//! cuba-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see README.md for why each was chosen):
//!
//! * `fcr-explicit` — the 14 FCR rows of Table 2 plus the Fig. 1
//!   three-property block, one problem at a time;
//! * `nonfcr-symbolic` — the 5 rows without FCR, the budget-error row
//!   `stefan-1/8` included;
//! * `serve-replay` — an in-process `cuba serve` on loopback, two
//!   closed-loop clients posting `/v1/analyze` requests.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics and writes a Chrome
//! trace under `.perfbench/`. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod problems;
mod report;
mod serve;
mod spans;
mod suite;

use std::process::ExitCode;

use report::Report;

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "pass_s",
    "verdict_ms_geomean",
    "req_per_s",
    "req_ms_p50",
    "req_ms_p90",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("model.us", "us"),
    ("fcr.us", "us"),
    ("gz.us", "us"),
    ("gz.states", "count"),
    ("explore.us", "us"),
    ("explore.rounds", "count"),
    ("explore.states", "count"),
    ("explore.waves", "count"),
    ("explore.frontier_edges", "count"),
    ("explore.budget_errors", "count"),
    ("session.us", "us"),
    ("session.arm_us.alg3", "us"),
    ("session.arm_us.scheme1", "us"),
    ("session.arm_us.cba", "us"),
    ("session.rounds_explored", "count"),
    ("session.rounds_replayed", "count"),
    ("session.useful_share", "ratio"),
    ("witness.steps", "count"),
    ("witness.replay_us", "us"),
    ("cache.hit_share", "ratio"),
    ("snapshot.encode_us", "us"),
    ("snapshot.decode_us", "us"),
    ("snapshot.bytes", "count"),
    ("serve.queue_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.spills", "count"),
    ("serve.reloads", "count"),
    ("serve.rounds_explored", "count"),
    ("serve.rounds_replayed", "count"),
    ("other_share", "ratio"),
    ("trace_overhead_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number".to_owned())?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload.as_str();
    let mut report = match (workload, args.trace) {
        ("fcr-explicit", false) => suite::run(true, args.seed, args.seconds),
        ("nonfcr-symbolic", false) => suite::run(false, args.seed, args.seconds),
        ("fcr-explicit", true) => suite::run_traced(true, args.seed, args.seconds, workload),
        ("nonfcr-symbolic", true) => suite::run_traced(false, args.seed, args.seconds, workload),
        ("serve-replay", false) => serve::run(args.seed, args.seconds),
        ("serve-replay", true) => serve::run_traced(args.seed, args.seconds),
        _ => Err(format!(
            "unknown workload '{workload}' (fcr-explicit, nonfcr-symbolic, serve-replay)"
        )),
    }?;
    if args.trace {
        // Every per-layer name, in one order, on every workload.
        let mut measured = std::mem::take(&mut report.metrics);
        for (name, unit) in PER_LAYER {
            match measured.iter().position(|m| m.name == name) {
                Some(at) => report.metrics.push(measured.remove(at)),
                None => report.metric(name, 0.0, unit, 0),
            }
        }
        if let Some(extra) = measured.first() {
            return Err(format!("per-layer metric '{}' is not listed", extra.name));
        }
    } else {
        for name in END_TO_END {
            if !report.metrics.iter().any(|m| m.name == name) {
                return Err(format!("end-to-end metric '{name}' was not measured"));
            }
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cuba-perfbench: {message}");
            eprintln!(
                "usage: cuba-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("cuba-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
