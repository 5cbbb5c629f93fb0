//! `perfbench`: the fragdroid benchmark. One command runs one named,
//! seeded workload, checks every output against a reference computed in
//! set-up, and prints its metrics by name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus --seed 1 --seconds 24 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! of a timed run; with `--trace 1` it carries the per-layer waterfall
//! of a separate traced run. The line before it stamps the host and
//! lists every per-run value and sample count. See `perfbench/README.md`.

mod corpus;
mod farm;
mod fetchlog;
mod gen;
mod host;
mod layers;
mod relay;
mod serve;
mod server;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics every timed run prints: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("apps_per_s", "1/s"),
    ("resume_s", "s"),
    ("p50_ms", "ms"),
    ("max_rate_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every traced run prints: name, unit. A layer the
/// workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fd-apk.decompile_us.p50", "us"),
    ("fd-apk.decompile_us.sum", "us"),
    ("fd-apk.mib_per_s", "MiB/s"),
    ("fd-apk.rejected", "count"),
    ("fd-static.extract_us.p50", "us"),
    ("fd-static.extract_us.sum", "us"),
    ("driver.run_us.p50", "us"),
    ("driver.run_us.p99", "us"),
    ("driver.self_us.sum", "us"),
    ("driver.events", "count"),
    ("driver.cases_run_per_generated", "ratio"),
    ("driver.retries", "count"),
    ("suite.busy_ms", "ms"),
    ("suite.idle_ms", "ms"),
    ("suite.utilization", "ratio"),
    ("checkpoint.overhead_pct", "%"),
    ("checkpoint.journal_bytes", "bytes"),
    ("checkpoint.load_ms", "ms"),
    ("report.to_json_us.p50", "us"),
    ("report.bytes.p50", "bytes"),
    ("serve.admit_ms.p50", "ms"),
    ("serve.admit_ms.p99", "ms"),
    ("serve.settle_ms.p50", "ms"),
    ("serve.settle_ms.p99", "ms"),
    ("serve.wait_ms.p50", "ms"),
    ("serve.polls_per_job", "ratio"),
    ("serve.busy_retries", "count"),
    ("serve.wire_bytes_per_job", "bytes"),
    ("serve.status_ms.p50", "ms"),
    ("serve.journal_bytes", "bytes"),
    ("dispatch.reassignments", "count"),
    ("dispatch.straggler_redispatches", "count"),
    ("dispatch.useful_ratio", "ratio"),
    ("dispatch.cpu_util", "ratio"),
    ("gen.late_ms.p99", "ms"),
    ("gen.sent", "count"),
    ("gen.ok", "count"),
    ("gen.failed", "count"),
    ("fd-trace.phase_us.sum", "us"),
    ("trace.overhead_pct", "%"),
    ("unaccounted_pct", "%"),
];

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["corpus", "serve", "serve-replay", "farm"];

/// Times each workload sets itself up; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Load-generating threads, connections, suite workers and serve workers
/// never exceed this, nor the host's CPU count.
pub const MAX_THREADS: usize = 2;

/// What every workload gets.
pub struct Ctx {
    /// The workload name.
    pub workload: String,
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker / sender threads: `min(2, nproc)`.
    pub threads: usize,
    /// Scratch directory inside the working directory, removed at exit.
    pub work: PathBuf,
    /// The exploration configuration every run uses.
    pub config: fragdroid::FragDroidConfig,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// Metric values by name (end-to-end on timed runs, per-layer on
    /// traced runs).
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample count behind each percentile.
    pub samples: Vec<(String, usize)>,
    /// Every per-pass or per-rep value behind a median.
    pub per_run: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Records the values behind a median.
    pub fn runs(&mut self, name: &str, values: &[f64]) {
        self.per_run.push((name.to_string(), values.to_vec()));
    }

    /// Records a sample count.
    pub fn samples(&mut self, name: &str, n: usize) {
        self.samples.push((name.to_string(), n));
    }

    /// Publishes a latency distribution on the stamp line: its sample
    /// count, and its p90 and p99 where at least ten samples lie beyond.
    pub fn tails(&mut self, name: &str, latency: &stats::Dist) {
        self.samples(name, latency.n());
        for pct in [90, 99] {
            if let Some(value) = latency.tail(pct) {
                self.runs(&format!("{name}.p{pct}"), &[value]);
            }
        }
    }
}

/// Runs `make` [`SETUP_REPS`] times, timing each; every result but the
/// last goes to `discard` (untimed). `key` must agree across reps — set-up
/// is deterministic in the seed. Returns the last result and the times.
pub fn repeat_setup<T>(
    mut make: impl FnMut(usize) -> Result<T, String>,
    key: impl Fn(&T) -> u64,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut first_key = None;
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            discard(previous)?;
        }
        let started = Instant::now();
        let made = make(rep)?;
        times.push(started.elapsed().as_secs_f64());
        let k = key(&made);
        if *first_key.get_or_insert(k) != k {
            return Err(format!("set-up rep {rep} is not deterministic in the seed"));
        }
        kept = Some(made);
    }
    Ok((kept.expect("SETUP_REPS is at least 1"), times))
}

/// Nearest-rank median of `values`.
pub fn median(values: &[f64]) -> f64 {
    stats::Dist::new(values.to_vec()).p50()
}

/// Runs passes of `pass` until `budget` has elapsed (at least `min`).
pub fn for_budget(
    budget: Duration,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut passes = 0;
    while passes < min || started.elapsed() < budget {
        pass(passes)?;
        passes += 1;
    }
    Ok(())
}

/// Writes a traced run's spans as JSON lines to
/// `.perfbench_out/spans-<workload>-<seed>.jsonl` in the working
/// directory; a failure to write only costs the file.
pub fn write_spans(ctx: &Ctx, spans: &[spans::Span]) {
    let dir = PathBuf::from(".perfbench_out");
    let path = dir.join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    if let Err(error) =
        std::fs::create_dir_all(&dir).and_then(|()| spans::write_jsonl(&path, spans))
    {
        eprintln!("perfbench: could not write {}: {error}", path.display());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 24, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = value.parse::<u8>().map_err(|e| format!("--trace: {e}"))? != 0
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// A JSON number with every digit; non-finite values (never measured)
/// become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"\"".to_string())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let work = PathBuf::from(format!(".perfbench_work/{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        threads: MAX_THREADS.min(host::nproc()),
        work: work.clone(),
        config: fragdroid::FragDroidConfig::default(),
    };
    let steal_before = host::steal_ticks();
    let result = match args.workload.as_str() {
        "corpus" => corpus::run(&ctx),
        "serve" => serve::run(&ctx, false),
        "serve-replay" => serve::run(&ctx, true),
        "farm" => farm::run(&ctx),
        _ => unreachable!("parse_args checked the name"),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    let mut outcome = result?;
    if outcome.attempted == 0 {
        return Err("the workload attempted nothing".to_string());
    }

    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        outcome.set("peak_rss_mib", host::peak_rss_mib());
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in expected.iter().enumerate() {
        let value = outcome.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let value = match (value, args.trace) {
            (Some(v), _) => v,
            // A layer the workload bypasses did no work.
            (None, true) => 0.0,
            (None, false) => return Err(format!("end-to-end metric {name} was not measured")),
        };
        let measured = value.is_finite() && value > 0.0;
        if !args.trace && !measured {
            return Err(format!("end-to-end metric {name} reads {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(metrics, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(value));
    }

    let mut stamp = String::new();
    for (i, (k, v)) in host::stamp().iter().enumerate() {
        let _ = write!(stamp, "{}\"{k}\": {}", if i == 0 { "" } else { ", " }, json_str(v));
    }
    let samples: Vec<String> =
        outcome.samples.iter().map(|(k, n)| format!("{}: {n}", json_str(k))).collect();
    let per_run: Vec<String> = outcome
        .per_run
        .iter()
        .map(|(k, vs)| {
            let vs: Vec<String> = vs.iter().map(|v| num(*v)).collect();
            format!("{}: [{}]", json_str(k), vs.join(", "))
        })
        .collect();
    let failed_frac = outcome.failed as f64 / outcome.attempted as f64;
    let steal_after = host::steal_ticks();
    let total = steal_after.1.saturating_sub(steal_before.1).max(1);
    let steal_pct = steal_after.0.saturating_sub(steal_before.0) as f64 * 100.0 / total as f64;
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{stamp}}}, \"steal_pct\": {}, \"failed_frac\": {}, \"samples\": {{{}}}, \"per_run\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        num(steal_pct),
        num(failed_frac),
        samples.join(", "),
        per_run.join(", "),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    Ok(())
}

fn main() {
    if let Err(error) = run() {
        eprintln!("perfbench: {error}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let get = |v: &'_ serde_json::Value, key: &str| -> Option<serde_json::Value> {
            v.as_object().and_then(|o| o.get(key)).cloned()
        };
        let list = |key: &str| -> Vec<serde_json::Value> {
            get(&spec, key).and_then(|v| v.as_array().cloned()).expect("a list")
        };
        let field = |m: &serde_json::Value, f: &str| -> String {
            get(m, f).and_then(|v| v.as_str().map(str::to_string)).unwrap_or_default()
        };
        let listed = |key: &str| -> Vec<(String, String)> {
            list(key).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads = list("workloads");
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
        // The serve latency limit is recorded in the serve workload's why.
        let limit = format!("p99 limit {} ms", serve::P99_LIMIT_MS);
        assert!(field(&workloads[1], "why").contains(&limit), "serve why must say {limit}");
    }
}
