//! Benchmark harness for the FragDroid reproduction.
//!
//! The experiment *binaries* regenerate the paper's tables and figures:
//!
//! | Target | Regenerates |
//! |---|---|
//! | `cargo run -p fd-bench --bin study_corpus` | §VII-A corpus study (91% fragment usage) |
//! | `cargo run -p fd-bench --bin table1` | Table I (coverage), with paper-vs-measured deltas |
//! | `cargo run -p fd-bench --bin table2` | Table II (sensitive operations matrix) |
//! | `cargo run -p fd-bench --bin comparison` | FragDroid vs baselines (§IX, quantified) |
//! | `cargo run -p fd-bench --bin ablation` | design-choice ablations (reflection / forced start / input deps) |
//! | `cargo run -p fd-bench --bin corpus_run` | §IX scalability: the whole corpus through the suite runner |
//!
//! The Criterion *benches* (`cargo bench -p fd-bench`) measure the
//! substrate: static-phase throughput vs app size, full exploration
//! wall-time per tool, and APK container pack/decompile throughput.

use fragdroid::suite::SuiteApp;
use fragdroid::{FragDroidConfig, SuiteMetrics, SuiteOptions, SuiteSource};

/// Standard set of template apps used by comparison-style experiments.
pub fn comparison_apps() -> Vec<fd_appgen::GeneratedApp> {
    vec![
        fd_appgen::templates::quickstart(),
        fd_appgen::templates::nav_drawer_wallpapers(),
        fd_appgen::templates::tabbed_categories(),
    ]
}

/// Corpus-wide aggregates from one suite run (what `corpus_run` prints).
#[derive(Clone, Debug, Default)]
pub struct CorpusSummary {
    /// Apps that went through the runner.
    pub apps: usize,
    /// Apps whose run panicked (isolated, not counted in the coverage
    /// sums).
    pub panicked: usize,
    /// Apps stopped by the per-app deadline (their partial coverage *is*
    /// counted).
    pub deadline_exceeded: usize,
    /// Activities visited across the corpus.
    pub acts_visited: usize,
    /// Activities found by static extraction across the corpus.
    pub acts_sum: usize,
    /// Fragments visited across the corpus.
    pub frags_visited: usize,
    /// Fragments found across the corpus.
    pub frags_sum: usize,
    /// Total UI events injected.
    pub events: usize,
    /// The run's observability record.
    pub metrics: Option<SuiteMetrics>,
}

/// Runs FragDroid over every given app on the shared work-stealing suite
/// runner and aggregates corpus-wide coverage. An empty corpus returns a
/// zeroed summary (this used to panic in the chunked harness).
pub fn run_corpus(apps: &[SuiteApp], config: &FragDroidConfig) -> CorpusSummary {
    let (suite, _) =
        fragdroid::suite::run(SuiteSource::Apps(apps), config, &SuiteOptions::default())
            .expect("a suite run without a journal has nothing to fail");
    let run = suite.run;
    let mut summary = CorpusSummary { apps: apps.len(), ..CorpusSummary::default() };
    for outcome in &run.outcomes {
        match outcome.report() {
            Some(report) => {
                let a = report.activity_coverage();
                let f = report.fragment_coverage();
                summary.acts_visited += a.visited;
                summary.acts_sum += a.sum;
                summary.frags_visited += f.visited;
                summary.frags_sum += f.sum;
                summary.events += report.events_injected;
                if report.deadline_exceeded {
                    summary.deadline_exceeded += 1;
                }
            }
            None => summary.panicked += 1,
        }
    }
    summary.metrics = Some(run.metrics);
    summary
}

/// The analyzable (non-packed) slice of the 217-app corpus as suite
/// inputs.
pub fn analyzable_corpus(seed: u64) -> Vec<SuiteApp> {
    fd_appgen::corpus::corpus_217(seed)
        .into_iter()
        .filter(|g| !g.app.meta.packed)
        .map(|g| (g.app, g.known_inputs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: the old harness computed `n.div_ceil(workers)` without
    /// `.max(1)` and panicked on `slice::chunks(0)` for an empty corpus.
    #[test]
    fn empty_corpus_runs_cleanly() {
        let summary = run_corpus(&[], &FragDroidConfig::default());
        assert_eq!(summary.apps, 0);
        assert_eq!(summary.panicked, 0);
        assert_eq!(summary.events, 0);
        assert!(summary.metrics.expect("metrics always present").apps.is_empty());
    }

    #[test]
    fn template_corpus_aggregates_coverage() {
        let apps: Vec<SuiteApp> =
            comparison_apps().into_iter().map(|g| (g.app, g.known_inputs)).collect();
        let summary = run_corpus(&apps, &FragDroidConfig::default());
        assert_eq!(summary.apps, 3);
        assert_eq!(summary.panicked, 0);
        assert!(summary.acts_visited > 0 && summary.acts_visited <= summary.acts_sum);
        assert!(summary.events > 0);
    }
}
