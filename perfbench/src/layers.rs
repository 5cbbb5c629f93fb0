//! The per-app layer pass of a traced run: every container goes through
//! the program's public stages one call at a time — `fd_apk::decompile`,
//! `fd_static::extract`, `FragDroid::run_traced_on`, and the report's
//! `to_string_pretty` — each inside its own span, on the same number of
//! threads the workload uses.

use crate::spans::{Recorder, SpanId};
use crate::stats::Dist;
use crate::Outcome;
use fragdroid::suite::SuiteContainer;
use fragdroid::{FragDroid, FragDroidConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What one app's pass through the layers measured.
#[derive(Clone, Debug, Default)]
struct AppLayers {
    index: usize,
    bytes: usize,
    rejected: bool,
    decode_us: f64,
    extract_us: f64,
    run_us: f64,
    events: usize,
    cases_run: usize,
    cases_generated: usize,
    retries: usize,
    json_us: f64,
    json_bytes: usize,
}

/// Everything the layer pass measured, over every app of every pass.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    apps: Vec<AppLayers>,
}

impl LayerStats {
    fn ran(&self) -> impl Iterator<Item = &AppLayers> {
        self.apps.iter().filter(|a| !a.rejected)
    }

    fn dist(&self, f: impl Fn(&AppLayers) -> f64) -> Dist {
        Dist::new(self.ran().map(f).collect())
    }

    /// Median `driver.run_us` of each container index below `n`.
    pub fn run_us_by_index(&self, n: usize) -> Vec<f64> {
        let mut by: Vec<Vec<f64>> = vec![Vec::new(); n];
        for a in self.ran().filter(|a| a.index < n) {
            by[a.index].push(a.run_us);
        }
        by.into_iter().map(|v| Dist::new(v).p50()).collect()
    }

    /// Sets the `fd-apk`, `fd-static`, `driver` and `report` metrics and
    /// their sample counts.
    pub fn publish(&self, out: &mut Outcome) {
        for (name, value) in self.metrics() {
            out.set(name, value);
        }
        out.samples("fd-apk.decompile_us", self.apps.len());
        out.samples("driver.run_us", self.ran().count());
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let decode = Dist::new(self.apps.iter().map(|a| a.decode_us).collect());
        let decode_s = decode.sum() / 1e6;
        let bytes: usize = self.apps.iter().map(|a| a.bytes).sum();
        let run = self.dist(|a| a.run_us);
        let generated: usize = self.ran().map(|a| a.cases_generated).sum();
        let ratio = |num: usize, den: usize| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        vec![
            ("fd-apk.decompile_us.p50", decode.p50()),
            ("fd-apk.decompile_us.sum", decode.sum()),
            ("fd-apk.mib_per_s", if decode_s > 0.0 { bytes as f64 / MIB / decode_s } else { 0.0 }),
            ("fd-apk.rejected", self.apps.iter().filter(|a| a.rejected).count() as f64),
            ("fd-static.extract_us.p50", self.dist(|a| a.extract_us).p50()),
            ("fd-static.extract_us.sum", self.dist(|a| a.extract_us).sum()),
            ("driver.run_us.p50", run.p50()),
            ("driver.run_us.p99", run.tail(99).unwrap_or(0.0)),
            ("driver.self_us.sum", self.dist(|a| (a.run_us - a.extract_us).max(0.0)).sum()),
            ("driver.events", self.ran().map(|a| a.events).sum::<usize>() as f64),
            (
                "driver.cases_run_per_generated",
                ratio(self.ran().map(|a| a.cases_run).sum(), generated),
            ),
            ("driver.retries", self.ran().map(|a| a.retries).sum::<usize>() as f64),
            ("report.to_json_us.p50", self.dist(|a| a.json_us).p50()),
            ("report.bytes.p50", self.dist(|a| a.json_bytes as f64).p50()),
        ]
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Apps a standalone layer measurement covers at least: enough for a
/// published `driver.run_us.p99`.
const MIN_APPS: usize = 1000;

/// Repeats [`layer_pass`] over `containers` under one root `layers` span
/// until at least [`MIN_APPS`] apps are measured.
pub fn measure(
    rec: &Recorder,
    containers: &[SuiteContainer],
    config: &FragDroidConfig,
    threads: usize,
) -> LayerStats {
    let mut stats = LayerStats::default();
    let root = rec.open("layers", None, 0);
    while stats.apps.len() < MIN_APPS {
        layer_pass(rec, root, containers, config, threads, &mut stats);
    }
    rec.close(root);
    stats
}

/// Runs `containers` through the layers on `threads` threads, recording
/// spans under `parent`, and appends the measurements to `stats`.
pub fn layer_pass(
    rec: &Recorder,
    parent: SpanId,
    containers: &[SuiteContainer],
    config: &FragDroidConfig,
    threads: usize,
    stats: &mut LayerStats,
) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(containers.len()));
    let tool = FragDroid::new(config.clone());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut device = fragdroid::build_backend(config.backend);
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some((bytes, inputs)) = containers.get(index) else { break };
                    let app_span = rec.open("app", Some(parent), index as u64);
                    let measured =
                        one_app(rec, app_span, index as u64, &tool, bytes, inputs, &mut *device);
                    rec.close(app_span);
                    out.lock().expect("layer log poisoned").push(measured);
                }
            });
        }
    });
    stats.apps.extend(out.into_inner().expect("layer log poisoned"));
}

fn one_app(
    rec: &Recorder,
    parent: SpanId,
    request: u64,
    tool: &FragDroid,
    bytes: &bytes::Bytes,
    inputs: &std::collections::BTreeMap<String, String>,
    device: &mut dyn fd_droidsim::DeviceApi,
) -> AppLayers {
    let mut m = AppLayers { index: request as usize, bytes: bytes.len(), ..AppLayers::default() };
    let timed = |name: &'static str, f: &mut dyn FnMut()| {
        let start = rec.now_us();
        f();
        let end = rec.now_us();
        rec.record(name, start, end, Some(parent), request);
        (end - start) as f64
    };
    let mut app = None;
    m.decode_us = timed("fd-apk.decompile", &mut || app = fd_apk::decompile(bytes).ok());
    let Some(app) = app else {
        m.rejected = true;
        return m;
    };
    m.extract_us = timed("fd-static.extract", &mut || {
        std::hint::black_box(fd_static::extract(&app, inputs));
    });
    let mut report = None;
    let disabled = fd_trace::Tracer::disabled();
    m.run_us = timed("driver.run", &mut || {
        report = Some(tool.run_traced_on(&app, inputs, &disabled, &mut *device));
    });
    let report = report.expect("the driver span ran");
    m.events = report.events_injected;
    m.cases_run = report.test_cases_run;
    m.cases_generated = report.test_cases_generated;
    m.retries = report.retries;
    let mut json = String::new();
    m.json_us = timed("report.to_json", &mut || {
        json = serde_json::to_string_pretty(&report).unwrap_or_default();
    });
    m.json_bytes = json.len();
    m
}
