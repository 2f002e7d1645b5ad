//! `perfbench` — the repository benchmark.
//!
//! Measures the two journeys of the system: a request to a spawned
//! release `unitsd` over its Unix socket (`serve_hot`, `serve_fresh`),
//! and an `Engine::invoke` from raw source (`compile_cold`,
//! `store_warm`). An untraced run prints the end-to-end metrics; a
//! traced run replays the same seeded inputs through each crate's
//! public entry points and prints the per-layer metrics. See
//! `README.md` beside this crate for the workloads and the metric map.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --unitsd PATH
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod corpus;
mod daemon;
mod inproc;
mod layers;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use stats::Tally;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeFresh,
    CompileCold,
    StoreWarm,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "serve_hot" => Workload::ServeHot,
            "serve_fresh" => Workload::ServeFresh,
            "compile_cold" => Workload::CompileCold,
            "store_warm" => Workload::StoreWarm,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeFresh => "serve_fresh",
            Workload::CompileCold => "compile_cold",
            Workload::StoreWarm => "store_warm",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub measure: Duration,
    pub trace: bool,
    pub unitsd: PathBuf,
    /// Scratch space for sockets, stores and span dumps.
    pub work: PathBuf,
}

impl Config {
    /// A fresh run directory named `tag`, unique to this process.
    pub fn run_dir(&self, tag: &str) -> PathBuf {
        self.work.join(format!(
            "{}-{}-{tag}",
            self.workload.name(),
            std::process::id()
        ))
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained, for the human-readable report.
    pub samples: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: String) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every answer matched its oracle and every self-check held.
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Self-check and context lines for the report.
    pub notes: Vec<String>,
}

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 31;

/// Flushes pending writeback before a set-up, so the store's fsyncs in
/// it do not wait on writes of earlier set-ups, runs or builds. Best
/// effort and untimed: a host without `sync` just skips it.
pub fn settle_disk() {
    let _ = std::process::Command::new("sync").status();
}

/// A measured run is cut into windows of about this many seconds,
/// and into no fewer than [`MIN_WINDOWS`].
const WINDOW_SECONDS: f64 = 1.0;
const MIN_WINDOWS: usize = 8;

/// The end-to-end metrics of one measured run, plus a note listing the
/// window values: the run is cut into equal windows and each metric is
/// the median of its window values.
pub fn end_to_end(
    samples: &[(u64, u64)],
    measured: Duration,
    tally: &Tally,
    setups: &[f64],
    rss_mb: f64,
    op_word: &str,
) -> Result<(Vec<Metric>, String), String> {
    let n = samples.len();
    let total_ns = measured.as_nanos().max(1) as u64;
    let mut windows = ((measured.as_secs_f64() / WINDOW_SECONDS) as usize).max(MIN_WINDOWS);
    let split = |w: usize| {
        let mut bins: Vec<Vec<u64>> = vec![Vec::new(); w];
        for &(start, lat) in samples {
            let i = ((start as u128 * w as u128) / total_ns as u128).min(w as u128 - 1) as usize;
            bins[i].push(lat);
        }
        bins
    };
    let mut bins = split(windows);
    while windows > 1 && bins.iter().any(|b| !stats::supports(b.len(), 99.0)) {
        windows -= 1;
        bins = split(windows);
    }
    if bins.iter().any(|b| !stats::supports(b.len(), 99.0)) {
        return Err(format!(
            "{n} samples do not support a p99 (need {} beyond it); lengthen the run",
            stats::MIN_BEYOND
        ));
    }
    let window_s = measured.as_secs_f64() / windows as f64;
    let mut thr = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for bin in &mut bins {
        bin.sort_unstable();
        thr.push(bin.len() as f64 / window_s);
        p50.push(stats::percentile(bin, 50.0) as f64 / 1e3);
        p99.push(stats::percentile(bin, 99.0) as f64 / 1e3);
    }
    let smallest = bins.iter().map(Vec::len).min().unwrap_or(0);
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let note = format!(
        "windows: throughput [{}], p50 [{}], p99 [{}]",
        list(&thr),
        list(&p50),
        list(&p99)
    );
    let per_window = format!(
        "median of {windows} windows of {window_s:.2} s; {n} samples, >= {smallest} per window, >= {} beyond p99 (highest supported: p{})",
        stats::beyond(smallest, 99.0),
        stats::highest_supported(smallest).unwrap_or(0.0)
    );
    let metrics = vec![
        Metric::new(
            "throughput_per_s",
            stats::median(&thr),
            "1/s",
            format!("{op_word} per second, {per_window}"),
        ),
        Metric::new(
            "latency_p50_us",
            stats::median(&p50),
            "us",
            per_window.clone(),
        ),
        Metric::new("latency_p99_us", stats::median(&p99), "us", per_window),
        Metric::new(
            "error_rate",
            tally.error_rate(),
            "ratio",
            format!(
                "{} attempted: {} failed, {} refused, {} wrong",
                tally.attempted, tally.failed, tally.refused, tally.wrong
            ),
        ),
        Metric::new(
            "setup_s",
            stats::median(setups),
            "s",
            format!(
                "median of {} set-ups [{}] ms",
                setups.len(),
                setups
                    .iter()
                    .map(|s| format!("{:.1}", s * 1e3))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        ),
        Metric::new(
            "rss_peak_mb",
            rss_mb,
            "MiB",
            "VmHWM of the process under test".to_string(),
        ),
    ];
    Ok((metrics, note))
}

/// Plain and span-recording slices alternate this many times each, so
/// host drift during a traced run hits both modes alike.
const OVERHEAD_SLICES: u32 = 6;

/// Runs `slice(traced, length)` alternately untraced and traced over
/// `total` and returns traced throughput over untraced throughput —
/// `bench.trace_overhead`. `slice` returns the ops it attempted.
pub fn trace_overhead(total: Duration, mut slice: impl FnMut(bool, Duration) -> u64) -> Metric {
    let each = total / (2 * OVERHEAD_SLICES);
    let mut ops = [0u64; 2];
    let mut secs = [0f64; 2];
    for i in 0..2 * OVERHEAD_SLICES {
        let traced = usize::from(i % 2 == 1);
        let start = std::time::Instant::now();
        ops[traced] += slice(traced == 1, each);
        secs[traced] += start.elapsed().as_secs_f64();
    }
    let [plain, traced] = [0, 1].map(|i| ops[i] as f64 / secs[i]);
    Metric::new(
        "bench.trace_overhead",
        traced / plain,
        "ratio",
        format!("span-recording {traced:.0}/s over plain {plain:.0}/s, {OVERHEAD_SLICES} alternating slices each"),
    )
}

/// Metrics the final JSON line carries. `error_rate` is 0 in a passing
/// run, so it travels as `failed / attempted` rather than as a metric.
fn in_json(metric: &Metric) -> bool {
    metric.name != "error_rate"
}

fn render_json(result: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        result.correct,
        result.tally.attempted,
        result.tally.bad()
    );
    for (i, m) in result.metrics.iter().filter(|m| in_json(m)).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

const USAGE: &str =
    "usage: perfbench --workload serve_hot|serve_fresh|compile_cold|store_warm --seed N --seconds S --trace 0|1 --unitsd PATH [--work-dir DIR]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut unitsd = None;
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed needs an integer")?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--unitsd" => unitsd = Some(PathBuf::from(value)),
            "--work-dir" => work = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        measure: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace,
        unitsd: unitsd.ok_or("--unitsd is required")?,
        work,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&config.work) {
        eprintln!("perfbench: cannot create {}: {e}", config.work.display());
        return ExitCode::FAILURE;
    }
    let result = match config.workload {
        Workload::ServeHot | Workload::ServeFresh => serve::run(&config),
        Workload::CompileCold | Workload::StoreWarm => inproc::run(&config),
    };
    let result = match result {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", config.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "perfbench: {}: metric {} was not measured",
            config.workload.name(),
            m.name
        );
        return ExitCode::FAILURE;
    }
    println!(
        "workload {} seed {} {} run, {:.1} s measured",
        config.workload.name(),
        config.seed,
        if config.trace { "traced" } else { "untraced" },
        config.measure.as_secs_f64()
    );
    for m in &result.metrics {
        println!(
            "  {:<28} {:>14.4} {:<9} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &result.notes {
        println!("  {note}");
    }
    println!("{}", render_json(&result));
    ExitCode::SUCCESS
}
