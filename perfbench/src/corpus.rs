//! `corpus`: a seeded paper-profile FDCS corpus on disk, streamed through
//! the checkpointed suite at 2 workers, then resumed with zero work left.
//! Decode, static, explore, the suite engine and the checkpoint journal
//! do all the work; sockets none.

use crate::fetchlog::{intervals, Logged};
use crate::layers::{layer_pass, LayerStats};
use crate::spans::{unaccounted_pct, Recorder};
use crate::stats::Dist;
use crate::{for_budget, host, median, repeat_setup, Ctx, Outcome};
use fd_apk::corpus::CorpusReader;
use fd_appgen::stream::{write_corpus, Profile, StreamConfig};
use fd_trace::TraceConfig;
use fragdroid::suite::SuiteContainer;
use fragdroid::{
    load_journal, run_corpus_suite_checkpointed, CheckpointOptions, CorpusSource, SuiteRun,
};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Apps in the corpus.
const APPS: usize = 1200;

/// Apps per shard file.
const SHARD_SIZE: usize = 200;

/// A generated corpus and its reference outcomes.
pub struct Corpus {
    /// The corpus directory.
    pub dir: PathBuf,
    /// The lazy reader over it.
    pub reader: CorpusReader,
    /// Per-app hash of the reference outcome.
    pub reference: Vec<u64>,
    /// The reference run's outcome digest.
    pub digest: u64,
}

/// Generates `apps` paper-profile apps into `dir` and runs the
/// single-worker in-memory reference over them.
pub fn generate(ctx: &Ctx, dir: PathBuf, apps: usize) -> Result<Corpus, String> {
    let config =
        StreamConfig { apps, seed: ctx.seed, profile: Profile::Paper, shard_size: SHARD_SIZE };
    write_corpus(&dir, &config).map_err(|e| format!("generate corpus: {e}"))?;
    let reader = CorpusReader::open(&dir).map_err(|e| format!("open corpus: {e}"))?;
    let containers = load(&reader)?;
    let (run, _) =
        fragdroid::run_container_suite_traced(&containers, &ctx.config, 1, &TraceConfig::off());
    Ok(Corpus { dir, reader, reference: outcome_hashes(&run), digest: run.outcome_digest() })
}

/// Every entry of a source, in memory.
pub fn load(source: &dyn CorpusSource) -> Result<Vec<SuiteContainer>, String> {
    (0..source.len()).map(|i| source.fetch(i)).collect()
}

/// Per-app hash of each outcome's serialized form.
pub fn outcome_hashes(run: &SuiteRun) -> Vec<u64> {
    run.outcomes
        .iter()
        .map(|outcome| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            serde_json::to_string(outcome).unwrap_or_default().hash(&mut h);
            h.finish()
        })
        .collect()
}

/// Apps whose outcome differs from the reference (missing ones count);
/// every app counts when the run's digest differs but no slot does.
pub fn mismatches(run: &SuiteRun, corpus: &Corpus) -> u64 {
    let got = outcome_hashes(run);
    let missing = corpus.reference.len().abs_diff(got.len()) as u64;
    let wrong = got.iter().zip(&corpus.reference).filter(|(a, b)| a != b).count() as u64;
    match missing + wrong {
        0 if run.outcome_digest() != corpus.digest => corpus.reference.len() as u64,
        bad => bad,
    }
}

/// Failures of a zero-work resume: every app when anything re-ran or is
/// missing, else the outcome mismatches.
fn resume_failures(resumed: &fragdroid::CheckpointedSuite, corpus: &Corpus) -> u64 {
    if resumed.fresh == 0 && resumed.resumed == corpus.reference.len() {
        mismatches(&resumed.run, corpus)
    } else {
        corpus.reference.len() as u64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn checkpointed(
    ctx: &Ctx,
    source: &dyn CorpusSource,
    journal: &Path,
    resume: bool,
    trace: &TraceConfig,
) -> Result<(fragdroid::CheckpointedSuite, fd_trace::Trace, Duration), String> {
    let options = CheckpointOptions::new(journal).with_resume(resume);
    let started = Instant::now();
    let (suite, trace) =
        run_corpus_suite_checkpointed(source, &ctx.config, ctx.threads, trace, Some(&options), 0)
            .map_err(|e| format!("checkpointed suite: {e}"))?;
    Ok((suite, trace, started.elapsed()))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (corpus, setup) = repeat_setup(
        |rep| generate(ctx, ctx.work.join(format!("corpus-{rep}")), APPS),
        |c| c.digest,
        |c| std::fs::remove_dir_all(&c.dir).map_err(|e| e.to_string()),
    )?;
    let apps = corpus.reader.len();
    let mut out = Outcome::default();
    out.runs("setup_s", &setup);
    out.set("setup_s", median(&setup));

    // Timed phase: checkpointed passes, each followed by a zero-work
    // resume. Pass 0 warms the page cache, the allocator and the code
    // paths; its outputs are checked like every other pass, but it is not
    // timed.
    let budget = if ctx.trace { ctx.seconds / 2 } else { ctx.seconds };
    let logged = Logged::new(&corpus.reader);
    let (mut rates, mut walls, mut resumes, mut latencies) = (vec![], vec![], vec![], vec![]);
    let mut cpus = vec![];
    let (mut busy, mut idle, mut util) = (vec![], vec![], vec![]);
    for_budget(budget, 1 + 3, |pass| {
        let journal = ctx.work.join(format!("journal-{pass}"));
        logged.take();
        let cpu = host::cpu_seconds();
        let (suite, _, wall) = checkpointed(ctx, &logged, &journal, false, &TraceConfig::off())?;
        let cpu = host::cpu_seconds() - cpu;
        let log = logged.take();
        let bad = if suite.is_complete() { mismatches(&suite.run, &corpus) } else { apps as u64 };
        out.attempted += apps as u64;
        out.failed += bad;

        let (resumed, _, resume) =
            checkpointed(ctx, &corpus.reader, &journal, true, &TraceConfig::off())?;
        out.attempted += apps as u64;
        out.failed += resume_failures(&resumed, &corpus);
        std::fs::remove_file(&journal).map_err(|e| e.to_string())?;
        if pass == 0 {
            return Ok(());
        }
        rates.push((apps as u64 - bad.min(apps as u64)) as f64 / wall.as_secs_f64());
        walls.push(wall.as_secs_f64());
        cpus.push(cpu);
        resumes.push(resume.as_secs_f64());
        latencies.extend(intervals(&log, None).iter().map(|(a, b, _)| ms(*b - *a)));
        let m = &suite.run.metrics;
        let capacity = m.wall_ms as f64 * m.workers as f64;
        busy.push(m.busy_ms as f64);
        idle.push((capacity - m.busy_ms as f64).max(0.0));
        util.push(if capacity > 0.0 { m.busy_ms as f64 / capacity } else { 0.0 });
        Ok(())
    })?;
    out.runs("apps_per_s", &rates);
    out.runs("resume_s", &resumes);
    out.runs("pass_cpu_s", &cpus);
    let latency = Dist::new(latencies);
    out.tails("latency_ms", &latency);

    if !ctx.trace {
        // The median pass's rate of correct apps: a burst of host
        // contention during one pass moves one sample, not the result.
        let rate = median(&rates);
        out.set("apps_per_s", rate);
        // A closed loop cannot build a backlog: its highest sustainable
        // rate is the rate it completed apps at.
        out.set("max_rate_per_s", rate);
        out.set("resume_s", median(&resumes));
        out.set("p50_ms", latency.p50());
        return Ok(out);
    }

    // Traced phase.
    let containers = load(&corpus.reader)?;
    let rec = Recorder::new();
    let mut layers = LayerStats::default();
    let (mut traced, mut plain, mut loads, mut phase_us, mut journal_bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    for_budget(ctx.seconds / 2, 1, |i| {
        // The root span holds only calls into the program; checking their
        // outputs happens after it closes.
        let i = i as u64;
        let journal = ctx.work.join(format!("traced-{i}"));
        let root = rec.open("pass", None, i);
        let span = rec.open("suite.checkpointed", Some(root), i);
        let (suite, trace, wall) =
            checkpointed(ctx, &corpus.reader, &journal, false, &TraceConfig::on())?;
        rec.close(span);
        let started = Instant::now();
        let loaded = rec.time("checkpoint.load", Some(root), i, || load_journal(&journal));
        loads.push(ms(started.elapsed()));
        let span = rec.open("checkpoint.resume", Some(root), i);
        let (resumed, _, _) =
            checkpointed(ctx, &corpus.reader, &journal, true, &TraceConfig::off())?;
        rec.close(span);
        let started = Instant::now();
        let (run, _) = rec.time("suite.plain", Some(root), i, || {
            fragdroid::run_corpus_suite_traced(
                &corpus.reader,
                &ctx.config,
                ctx.threads,
                &TraceConfig::on(),
            )
        });
        plain.push(started.elapsed().as_secs_f64());
        let span = rec.open("layers", Some(root), i);
        layer_pass(&rec, span, &containers, &ctx.config, ctx.threads, &mut layers);
        rec.close(span);
        rec.close(root);

        traced.push(wall.as_secs_f64());
        phase_us.push(fd_trace::TraceSummary::compute(&trace).top_level_phase_total_us() as f64);
        journal_bytes.push(std::fs::metadata(&journal).map_or(0, |m| m.len()) as f64);
        std::fs::remove_file(&journal).map_err(|e| e.to_string())?;
        out.attempted += 3 * apps as u64 + 1;
        out.failed += mismatches(&suite.run, &corpus)
            + u64::from(loaded.map_or(true, |l| l.slots.len() != apps))
            + resume_failures(&resumed, &corpus)
            + mismatches(&run, &corpus);
        Ok(())
    })?;
    out.runs("traced_pass_s", &traced);
    out.runs("plain_pass_s", &plain);
    let pct = |a: f64, b: f64| if b > 0.0 { (a / b - 1.0) * 100.0 } else { 0.0 };
    layers.publish(&mut out);
    out.set("suite.busy_ms", median(&busy));
    out.set("suite.idle_ms", median(&idle));
    out.set("suite.utilization", median(&util));
    // Journaled vs plain suite, both traced, interleaved in one loop.
    out.set("checkpoint.overhead_pct", pct(median(&traced), median(&plain)));
    out.set("checkpoint.journal_bytes", median(&journal_bytes));
    out.set("checkpoint.load_ms", median(&loads));
    out.set("fd-trace.phase_us.sum", median(&phase_us));
    out.set("trace.overhead_pct", pct(median(&traced), median(&walls)));
    let spans = rec.snapshot();
    out.set("unaccounted_pct", unaccounted_pct(&spans, "pass"));
    crate::write_spans(ctx, &spans);
    Ok(out)
}
