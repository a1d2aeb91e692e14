//! Benchmark-side spans: recorded in memory around the calls into each
//! layer, written once at the end as a Chrome trace-event document.
//! The program's own tracing stays off, so the trace holds only these
//! spans.

use std::sync::Mutex;
use std::time::Instant;

use cuba_bench::{json_escape, JsonObject};

#[derive(Debug, Clone)]
struct Record {
    name: &'static str,
    /// Track: 1 for the sequential suite, the client number for serve.
    tid: u32,
    /// The problem or request every span of one item shares.
    item: usize,
    label: String,
    start_us: f64,
    end_us: f64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    records: Mutex<Vec<Record>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        tid: u32,
        item: usize,
        label: &str,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as f64 / 1000.0;
        self.records
            .lock()
            .expect("span log poisoned by a panicking client")
            .push(Record {
                name,
                tid,
                item,
                label: label.to_owned(),
                start_us: us(start),
                end_us: us(end),
            });
    }

    /// The spans as a Chrome trace-event document: one `B`/`E` pair per
    /// span, nested per track by time (a child starts no earlier and
    /// ends no later than its parent).
    pub fn chrome_json(&self) -> String {
        let mut records = self
            .records
            .lock()
            .expect("span log poisoned by a panicking client")
            .clone();
        // Per track by start time; of two spans starting together the
        // longer (the parent) opens first.
        records.sort_by(|a, b| {
            (a.tid, a.start_us)
                .partial_cmp(&(b.tid, b.start_us))
                .expect("finite timestamps")
                .then(b.end_us.total_cmp(&a.end_us))
        });
        let pid = std::process::id();
        let mut events = Vec::with_capacity(records.len() * 2);
        let mut open: Vec<&Record> = Vec::new();
        let end_event = |r: &Record| event(r.name, "E", r.end_us, pid, r.tid, None);
        for record in &records {
            while let Some(top) = open.last() {
                if top.tid == record.tid && top.end_us > record.start_us {
                    break;
                }
                events.push(end_event(top));
                open.pop();
            }
            let mut args = JsonObject::new();
            args.number("item", record.item as f64);
            args.string("label", &record.label);
            events.push(event(
                record.name,
                "B",
                record.start_us,
                pid,
                record.tid,
                Some(args.finish()),
            ));
            open.push(record);
        }
        while let Some(top) = open.pop() {
            events.push(end_event(top));
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }
}

fn event(name: &str, ph: &str, ts: f64, pid: u32, tid: u32, args: Option<String>) -> String {
    let mut obj = JsonObject::new();
    obj.raw("name", json_escape(name));
    obj.string("ph", ph);
    obj.raw("ts", format!("{ts:.3}"));
    obj.number("pid", pid as f64);
    obj.number("tid", tid as f64);
    if let Some(args) = args {
        obj.raw("args", args);
    }
    obj.finish()
}

/// Checks `json` with the validator behind `cuba trace-check` and
/// writes it to `.perfbench/trace-<workload>-seed<seed>.json` under the
/// working directory. Returns the path and the validator's span count.
pub fn write_checked(json: &str, workload: &str, seed: u64) -> Result<(String, usize), String> {
    let summary = cuba_telemetry::trace::validate_chrome_trace(json)
        .map_err(|e| format!("benchmark trace rejected by the trace checker: {e}"))?;
    std::fs::create_dir_all(".perfbench").map_err(|e| format!("cannot create .perfbench: {e}"))?;
    let path = format!(".perfbench/trace-{workload}-seed{seed}.json");
    std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok((path, summary.spans))
}
