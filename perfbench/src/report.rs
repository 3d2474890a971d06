//! Sample statistics, provenance and the result line.

use std::fmt::Write as _;

/// SplitMix64: a tiny seeded generator for the benchmark's own choices
/// (entity lengths, query targets), independent of the library's RNGs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Linear-interpolation quantile `q ∈ [0, 1]` of `values` (any order).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One reported metric: its samples within this run, reported by median.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn samples(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        assert!(!samples.is_empty(), "metric {name} has no samples");
        self.0.push(Metric { name, unit, samples });
    }

    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.samples(name, unit, vec![value]);
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Commit of the checkout, read from `.git` without running git; the
/// benchmark may run in a plain copy of the tree, which has none.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The provenance and per-metric quartiles of a run, as one JSON object.
pub fn details_json(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    metrics: &Metrics,
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = format!(
        "{{\"provenance\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"commit\": \"{}\", \"cpu\": \"{}\", \"cores\": {cores}, \
         \"rustc\": \"{}\"}}, \"metrics\": {{",
        escape(&commit()),
        escape(&cpu_model()),
        escape(env!("PERFBENCH_RUSTC_VERSION")),
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"unit\": \"{}\", \"repeats\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit,
            m.samples.len(),
            json_num(median(&m.samples)),
            json_num(quantile(&m.samples, 0.25)),
            json_num(quantile(&m.samples, 0.75)),
        );
    }
    out.push_str("}}");
    out
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// median with its unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_num(median(&m.samples)),
            m.unit,
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
