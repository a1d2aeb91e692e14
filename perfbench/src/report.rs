//! What one benchmark run reports: metrics with units and sample
//! counts, the failures found by the oracle, and the final JSON line.

use cuba_bench::JsonObject;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measured samples the value summarizes.
    pub samples: usize,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Problems or requests attempted.
    pub attempted: usize,
    /// One `label: reason` line per failed problem or request.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (trace path, overhead, layout).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn fail(&mut self, label: &str, reason: &str) {
        self.failures.push(format!("{label}: {reason}"));
    }

    /// Failed divided by attempted.
    pub fn fail_share(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable lines, then the result object as the last
    /// line of standard output.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for failure in &self.failures {
            println!("# FAILED {failure}");
        }
        println!(
            "# fail_share = {} ratio ({} failed of {} attempted)",
            self.fail_share(),
            self.failures.len(),
            self.attempted
        );
        for m in &self.metrics {
            println!("# {} = {} {} (n = {})", m.name, m.value, m.unit, m.samples);
        }
        let mut metrics = JsonObject::new();
        for m in &self.metrics {
            let mut entry = JsonObject::new();
            entry.raw("value", json_number(m.value));
            entry.string("unit", m.unit);
            metrics.raw(m.name, entry.finish());
        }
        let mut out = JsonObject::new();
        out.bool("correct", self.failures.is_empty());
        out.number("attempted", self.attempted as f64);
        out.number("failed", self.failures.len() as f64);
        out.raw("metrics", metrics.finish());
        println!("{}", out.finish());
    }
}

/// A finite JSON number with every digit of `value`. Non-finite values
/// (a percentile that lands on a failed request) print as the largest
/// finite double, so the line stays valid JSON.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// The mean of `xs` without its lowest and highest tenth (by count).
///
/// The central value every timing is summarized by. On a machine shared
/// with other tenants, cache-heavy code runs in fast and slow regimes
/// lasting seconds; a median jumps between the two as their mix in a
/// run shifts, while this mean moves with the mix and still ignores
/// rare spikes.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: f64 = xs.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (logs / xs.len().max(1) as f64).exp()
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("unreadable VmHWM line '{line}'"))?;
    Ok(kb / 1024.0)
}
