//! The `serve-replay` workload: an in-process `cuba serve` on loopback
//! with a temporary state directory and a registry cap below the number
//! of distinct systems, so systems spill to disk and reload. Two
//! closed-loop clients post `/v1/analyze` requests; most of them repeat
//! a system the server has already explored.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cuba_bench::compare::{extract_number, extract_string};
use cuba_bench::harness::bench_config;
use cuba_bench::stats::{median, quantile};
use cuba_benchmarks::textfmt::print_cpds;
use cuba_core::{Property, SchedulePolicy};
use cuba_serve::{ServeConfig, Server, ServerHandle};

use crate::problems::{suite_problems, Expected, Problem, Rng};
use crate::report::{geomean, peak_rss_mb, trimmed_mean, Report};
use crate::spans::{write_checked, Spans};

/// Closed-loop clients, one connection each at a time (`nproc` on the
/// machine the benchmark was tuned on).
const CLIENTS: usize = 2;
/// Registry cap, below the 12 distinct systems of the mix.
const MAX_SYSTEMS: usize = 6;

/// The request mix: Table 2 rows and Fig. 1 properties, with how often
/// each appears in one pass. Heavy weights sit on cheap systems, so
/// most requests replay layers the server already holds.
const MIX: [(&str, usize); 14] = [
    ("fig1-multi/p0-true", 4),
    ("fig1-multi/p1-bug", 4),
    ("fig1-multi/p2-unreach", 4),
    ("dekker/2*", 4),
    ("bst-insert/1+1", 4),
    ("stefan-1/2", 4),
    ("k-induction/1+1", 3),
    ("bluetooth-3/1+1", 2),
    ("filecrawler/1*+2", 2),
    ("proc-2/2+2*", 2),
    ("bst-insert/2+1", 1),
    ("stefan-1/4", 1),
    ("bluetooth-1/1+1", 1),
    ("bluetooth-2/1+1", 1),
];

/// One request kind: the request path (with its property specs), the
/// model text, and the paper's answer for the conjunction of the specs.
struct Kind {
    label: String,
    path: String,
    body: String,
    specs: usize,
    expected: Expected,
}

/// The property-spec grammar of `?property=` for `property`. A
/// property the grammar has no single spec for (several targets, a
/// conjunction) becomes one spec per part: the request is violated iff
/// some part is, so its worst verdict is the property's verdict.
fn specs(property: &Property) -> Vec<String> {
    match property {
        Property::True => vec!["true".to_owned()],
        Property::NeverShared(states) => states
            .iter()
            .map(|q| format!("never-shared:{}", q.0))
            .collect(),
        Property::NeverVisible(targets) => targets
            .iter()
            .map(|v| {
                let tops: Vec<String> = v
                    .tops
                    .iter()
                    .map(|t| t.map_or("-".to_owned(), |s| s.0.to_string()))
                    .collect();
                format!("never-visible:{}|{}", v.q.0, tops.join(","))
            })
            .collect(),
        Property::MutualExclusion(pins) => {
            let pins: Vec<String> = pins.iter().map(|(t, s)| format!("{t}@{}", s.0)).collect();
            vec![format!("mutex:{}", pins.join(","))]
        }
        Property::All(parts) => parts.iter().flat_map(specs).collect(),
    }
}

/// Percent-encodes a query value.
fn encode(value: &str) -> String {
    value
        .bytes()
        .map(|b| match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// The request kinds of [`MIX`], in mix order.
fn kinds() -> Result<Vec<Kind>, String> {
    let mut problems: Vec<Problem> = suite_problems(true);
    problems.extend(suite_problems(false));
    MIX.iter()
        .map(|(label, _)| {
            let problem = problems
                .iter()
                .find(|p| p.label == *label)
                .ok_or_else(|| format!("mix names unknown problem '{label}'"))?;
            let specs = specs(&problem.property);
            let query: Vec<String> = specs
                .iter()
                .map(|s| format!("property={}", encode(s)))
                .collect();
            Ok(Kind {
                label: problem.label.clone(),
                path: format!("/v1/analyze?{}", query.join("&")),
                body: print_cpds(&problem.cpds),
                specs: specs.len(),
                expected: problem.expected,
            })
        })
        .collect()
}

/// A running in-process server and its state directory.
struct Service {
    handle: ServerHandle,
    state_dir: String,
}

impl Service {
    /// Binds a server on an ephemeral loopback port with a fresh state
    /// directory under `.perfbench/` and waits until `/v1/healthz`
    /// answers.
    fn start(tag: usize) -> Result<Service, String> {
        let state_dir = format!(".perfbench/serve-state-{}-{tag}", std::process::id());
        let _ = std::fs::remove_dir_all(&state_dir);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_systems: MAX_SYSTEMS,
            session: bench_config(SchedulePolicy::default()),
            state_dir: Some(state_dir.clone()),
            ..ServeConfig::default()
        };
        let server = Server::bind(config).map_err(|e| format!("cannot bind the server: {e}"))?;
        let handle = server
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let service = Service { handle, state_dir };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match request(service.addr(), "GET", "/v1/healthz", "") {
                Ok((200, _)) => return Ok(service),
                _ if Instant::now() > deadline => {
                    service.stop()?;
                    return Err("the server never answered /v1/healthz".to_owned());
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Shuts the server down, waits for it, and removes its state.
    fn stop(self) -> Result<(), String> {
        let shutdown = request(self.addr(), "POST", "/v1/shutdown", "");
        let joined = self.handle.join();
        let _ = std::fs::remove_dir_all(&self.state_dir);
        shutdown.map_err(|e| format!("shutdown: {e}"))?;
        joined.map_err(|e| format!("server: {e}"))
    }
}

/// Sends one request with a close-delimited answer; returns the status
/// and the raw body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header terminator")?;
    Ok((status_of(head)?, body.to_owned()))
}

fn status_of(head: &str) -> Result<u16, String> {
    head.split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| "malformed status line".to_owned())
}

/// One answered `/v1/analyze` request, as the client saw it.
struct Answer {
    begin: Instant,
    /// The first `start` line and the last `done` line.
    started: Instant,
    done: Instant,
    closed: Instant,
    rounds_explored: u64,
    rounds_replayed: u64,
}

/// Posts `kind` and checks the stream: status 200, one `start`,
/// `verdict` and `done` line per spec, no `error` line, and a worst
/// verdict equal to the paper's answer.
fn analyze(addr: SocketAddr, kind: &Kind) -> Result<Answer, String> {
    let begin = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        stream,
        "POST {} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        kind.path,
        kind.body.len()
    )
    .and_then(|()| stream.write_all(kind.body.as_bytes()))
    .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let read = |reader: &mut BufReader<TcpStream>, line: &mut String| {
        line.clear();
        reader.read_line(line).map_err(|e| format!("read: {e}"))
    };
    read(&mut reader, &mut line)?;
    let status = status_of(&line)?;
    loop {
        if read(&mut reader, &mut line)? == 0 {
            return Err(format!("status {status}: stream ended inside the headers"));
        }
        if line == "\r\n" {
            break;
        }
    }
    if status != 200 {
        let mut body = String::new();
        let _ = reader.read_to_string(&mut body);
        return Err(format!("status {status}: {}", body.trim()));
    }
    let (mut starts, mut dones, mut verdicts) = (0, 0, Vec::new());
    let (mut started, mut done) = (None, None);
    let (mut rounds_explored, mut rounds_replayed) = (0u64, 0u64);
    while read(&mut reader, &mut line)? > 0 {
        let at = Instant::now();
        let kind_of = extract_string(&line, "type").ok_or("a stream line without a type")?;
        match kind_of.as_str() {
            "start" => {
                starts += 1;
                started.get_or_insert(at);
            }
            "verdict" => verdicts
                .push(extract_string(&line, "verdict").ok_or("a verdict line without a verdict")?),
            "done" => {
                dones += 1;
                done = Some(at);
                rounds_explored +=
                    extract_number(&line, "rounds_explored").ok_or("done without rounds")? as u64;
                rounds_replayed +=
                    extract_number(&line, "rounds_replayed").ok_or("done without rounds")? as u64;
            }
            "error" => return Err(format!("error line: {}", line.trim())),
            _ => {}
        }
    }
    let closed = Instant::now();
    if (starts, verdicts.len(), dones) != (kind.specs, kind.specs, kind.specs) {
        return Err(format!(
            "malformed stream: {starts} start, {} verdict, {dones} done lines for {} properties",
            verdicts.len(),
            kind.specs
        ));
    }
    let worst = if verdicts.iter().any(|v| v == "unsafe") {
        "unsafe"
    } else if verdicts.iter().all(|v| v == "safe") {
        "safe"
    } else {
        "undetermined"
    };
    if worst != kind.expected.word() {
        return Err(format!("expected {}, got {worst}", kind.expected.word()));
    }
    Ok(Answer {
        begin,
        started: started.expect("starts == specs > 0"),
        done: done.expect("dones == specs > 0"),
        closed,
        rounds_explored,
        rounds_replayed,
    })
}

/// Per request of a pass: its kind and what the client got.
type Answers = Vec<(usize, Result<Answer, String>)>;

/// One pass: the mix in a seed-drawn order, served to `CLIENTS`
/// closed-loop clients. Returns the pass wall time and every request's
/// kind and answer, with spans when `spans` is given.
fn pass(
    addr: SocketAddr,
    kinds: &[Kind],
    order: &[usize],
    spans: Option<(&Spans, usize)>,
) -> (Duration, Answers) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let answers = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut answers = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&k) = order.get(i) else { break };
                        let answer = analyze(addr, &kinds[k]);
                        if let (Some((spans, first_item)), Ok(a)) = (spans, &answer) {
                            let (tid, item, label) =
                                (client as u32 + 1, first_item + i, &kinds[k].label);
                            spans.record("request", tid, item, label, a.begin, a.closed);
                            spans.record("queue", tid, item, label, a.begin, a.started);
                            spans.record("stream", tid, item, label, a.started, a.done);
                        }
                        answers.push((k, answer));
                    }
                    answers
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (start.elapsed(), answers)
}

/// The pass's request list: every kind as often as its weight.
fn mix_list() -> Vec<usize> {
    MIX.iter()
        .enumerate()
        .flat_map(|(k, (_, weight))| std::iter::repeat_n(k, *weight))
        .collect()
}

/// Builds the request kinds and starts a server; returns both and the
/// time that took.
fn setup(tag: usize) -> Result<(Vec<Kind>, Service, f64), String> {
    let start = Instant::now();
    let kinds = kinds()?;
    let service = Service::start(tag)?;
    Ok((kinds, service, start.elapsed().as_secs_f64()))
}

/// Everything measured over a window of passes on one server.
#[derive(Default)]
struct Window {
    pass_s: Vec<f64>,
    /// Per request: kind and latency in ms (infinite when it failed).
    latencies: Vec<(usize, f64)>,
    queue_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    other_ms: f64,
    total_ms: f64,
    rounds_explored: u64,
    rounds_replayed: u64,
}

/// Runs passes on `service` until `seconds` would be exceeded (at
/// least one pass). With `setup_s`, a further set-up (kinds, server,
/// `/v1/healthz`) is timed and torn down after every pass, while the
/// clients are idle, so the set-up figure averages over the run.
fn window(
    service: &Service,
    kinds: &[Kind],
    seed: u64,
    seconds: f64,
    spans: Option<&Spans>,
    mut setup_s: Option<&mut Vec<f64>>,
    report: &mut Report,
) -> Result<Window, String> {
    let list = mix_list();
    let mut w = Window::default();
    let start = Instant::now();
    loop {
        let shuffle = Rng::new(seed, w.pass_s.len() as u64).permutation(list.len());
        let order: Vec<usize> = shuffle.iter().map(|&i| list[i]).collect();
        let first_item = w.pass_s.len() * list.len();
        let (wall, answers) = pass(
            service.addr(),
            kinds,
            &order,
            spans.map(|s| (s, first_item)),
        );
        w.pass_s.push(wall.as_secs_f64());
        for (k, answer) in answers {
            report.attempted += 1;
            match answer {
                Ok(a) => {
                    let ms = |d: Duration| d.as_secs_f64() * 1e3;
                    w.latencies.push((k, ms(a.done - a.begin)));
                    w.queue_ms.push(ms(a.started - a.begin));
                    w.stream_ms.push(ms(a.done - a.started));
                    w.other_ms += ms(a.closed - a.done);
                    w.total_ms += ms(a.closed - a.begin);
                    w.rounds_explored += a.rounds_explored;
                    w.rounds_replayed += a.rounds_replayed;
                }
                Err(reason) => {
                    w.latencies.push((k, f64::INFINITY));
                    report.fail(&kinds[k].label, &reason);
                }
            }
        }
        if let Some(setup_s) = setup_s.as_deref_mut() {
            let (_, extra, secs) = setup(setup_s.len())?;
            extra.stop()?;
            setup_s.push(secs);
        }
        let mean_pass = start.elapsed().as_secs_f64() / w.pass_s.len() as f64;
        if start.elapsed().as_secs_f64() + mean_pass > seconds {
            return Ok(w);
        }
    }
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let (kinds, service, first) = setup(0)?;
    let mut setup_s = vec![first];
    let mut report = Report::default();
    let w = window(
        &service,
        &kinds,
        seed,
        seconds,
        None,
        Some(&mut setup_s),
        &mut report,
    )?;
    service.stop()?;
    let all: Vec<f64> = w.latencies.iter().map(|(_, ms)| *ms).collect();
    let per_kind: Vec<f64> = (0..kinds.len())
        .map(|k| {
            let ms: Vec<f64> = w
                .latencies
                .iter()
                .filter(|(kk, _)| *kk == k)
                .map(|(_, ms)| *ms)
                .collect();
            trimmed_mean(&ms)
        })
        .collect();
    report.metric("setup_s", trimmed_mean(&setup_s), "s", setup_s.len());
    report.metric("pass_s", trimmed_mean(&w.pass_s), "s", w.pass_s.len());
    report.metric("verdict_ms_geomean", geomean(&per_kind), "ms", kinds.len());
    report.metric(
        "req_per_s",
        all.len() as f64 / w.pass_s.iter().sum::<f64>(),
        "1/s",
        all.len(),
    );
    report.metric("req_ms_p50", quantile(&all, 0.5), "ms", all.len());
    report.metric("req_ms_p90", quantile(&all, 0.9), "ms", all.len());
    report.metric("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    for (kind, ms) in kinds.iter().zip(&per_kind) {
        report
            .notes
            .push(format!("{:<24} {ms:>10.3} ms", kind.label));
    }
    Ok(report)
}

/// The traced run: an untraced window and a traced window of half the
/// budget each, each on a fresh server, so the tracing overhead is the
/// difference of their median latencies.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let start = Instant::now();
    let kinds = kinds()?;
    let model_us = start.elapsed().as_secs_f64() * 1e6;
    let mut report = Report::default();
    report.metric("model.us", model_us, "us", 1);
    let service = Service::start(0)?;
    let untraced = window(
        &service,
        &kinds,
        seed,
        seconds / 2.0,
        None,
        None,
        &mut report,
    )?;
    service.stop()?;

    let spans = Spans::new();
    let service = Service::start(1)?;
    let traced = window(
        &service,
        &kinds,
        seed,
        seconds / 2.0,
        Some(&spans),
        None,
        &mut report,
    )?;
    let systems = request(service.addr(), "GET", "/v1/systems", "")
        .map_err(|e| format!("/v1/systems: {e}"))?;
    service.stop()?;
    if systems.0 != 200 {
        return Err(format!("/v1/systems answered {}", systems.0));
    }
    let counter = |key: &str| {
        extract_number(&systems.1, key).ok_or_else(|| format!("/v1/systems has no {key}"))
    };
    let (hits, misses) = (counter("cache_hits")?, counter("cache_misses")?);
    let passes = traced.pass_s.len() as f64;

    let (path, span_count) = write_checked(&spans.chrome_json(), "serve-replay", seed)?;
    report
        .notes
        .push(format!("trace: {path} ({span_count} spans)"));
    let latency = |w: &Window| median(&w.latencies.iter().map(|(_, ms)| *ms).collect::<Vec<_>>());
    let p = traced.pass_s.len();
    report.metric(
        "serve.queue_ms",
        median(&traced.queue_ms),
        "ms",
        traced.queue_ms.len(),
    );
    report.metric(
        "serve.stream_ms",
        median(&traced.stream_ms),
        "ms",
        traced.stream_ms.len(),
    );
    report.metric(
        "serve.spills",
        counter("spills_total")? / passes,
        "count",
        p,
    );
    report.metric(
        "serve.reloads",
        counter("snapshot_reloads_total")? / passes,
        "count",
        p,
    );
    report.metric(
        "serve.rounds_explored",
        traced.rounds_explored as f64 / passes,
        "count",
        p,
    );
    report.metric(
        "serve.rounds_replayed",
        traced.rounds_replayed as f64 / passes,
        "count",
        p,
    );
    report.metric(
        "cache.hit_share",
        hits / (hits + misses).max(1.0),
        "ratio",
        p,
    );
    report.metric(
        "other_share",
        traced.other_ms / traced.total_ms,
        "ratio",
        traced.queue_ms.len(),
    );
    report.metric(
        "trace_overhead_share",
        latency(&traced) / latency(&untraced) - 1.0,
        "ratio",
        traced.latencies.len(),
    );
    Ok(report)
}
