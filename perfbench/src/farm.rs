//! `farm`: a seeded paper-profile corpus goes through `dispatch` over two
//! in-process serve endpoints of one worker each, with the coordinator
//! journal on. The lease / heartbeat / merge layer and the serve client
//! path do the work. Every pass gets fresh endpoints, so no job is a
//! dedup hit of an earlier pass.

use crate::corpus::{generate, mismatches, Corpus};
use crate::fetchlog::{intervals, Logged};
use crate::layers;
use crate::server::{self, Endpoint};
use crate::spans::{unaccounted_pct, Recorder, SpanId};
use crate::stats::Dist;
use crate::{for_budget, host, median, repeat_setup, Ctx, Outcome};
use fd_trace::TraceConfig;
use fragdroid::{dispatch, DispatchOptions, DispatchRun, ServeOptions};
use std::time::{Duration, Instant};

/// Apps in the farm corpus.
const APPS: usize = 160;

/// Serve endpoints in the farm.
const ENDPOINTS: usize = 2;

/// Shards per endpoint.
const SHARDS_PER_ENDPOINT: usize = 2;

struct Pass {
    run: DispatchRun,
    wall: Duration,
    cpu_s: f64,
    resume: Duration,
    resumed_ok: bool,
    fetch_log: Vec<crate::fetchlog::Fetch>,
    /// The `dispatch` span, on a traced pass.
    span: Option<SpanId>,
}

/// One dispatch over fresh endpoints, then a zero-work `resume` over the
/// coordinator journal it wrote. With `traced`, the program's trace is on
/// and each step gets a span under the given root.
fn pass(
    ctx: &Ctx,
    corpus: &Corpus,
    logged: &Logged,
    n: usize,
    traced: Option<(&Recorder, SpanId)>,
) -> Result<Pass, String> {
    let span = |name: &'static str, from: Instant| {
        traced.map(|(rec, root)| rec.record(name, rec.us(from), rec.now_us(), Some(root), n as u64))
    };
    let dir = ctx.work.join(format!("farm-pass-{n}"));
    let started = Instant::now();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let endpoints: Vec<Endpoint> = (0..ENDPOINTS)
        .map(|_| {
            server::spawn(ServeOptions {
                workers: 1,
                config: ctx.config.clone(),
                ..ServeOptions::default()
            })
        })
        .collect::<Result<_, _>>()?;
    let mut options = DispatchOptions::new(endpoints.iter().map(|e| e.addr.clone()).collect());
    options.shards = ENDPOINTS * SHARDS_PER_ENDPOINT;
    options.journal = Some(dir.join("coordinator"));
    options.job_deadline = Duration::from_secs(30);
    span("farm.spawn", started);

    logged.take();
    let trace = if traced.is_some() { TraceConfig::on() } else { TraceConfig::off() };
    let cpu = host::cpu_seconds();
    let started = Instant::now();
    let run =
        dispatch(logged, &ctx.config, &options, &trace).map_err(|e| format!("dispatch: {e}"))?;
    let wall = started.elapsed();
    let cpu_s = host::cpu_seconds() - cpu;
    let call = span("dispatch", started);
    let fetch_log = logged.take();

    options.resume = true;
    let started = Instant::now();
    let resumed = dispatch(&corpus.reader, &ctx.config, &options, &TraceConfig::off())
        .map_err(|e| format!("dispatch resume: {e}"))?;
    let resume = started.elapsed();
    span("dispatch.resume", started);
    let resumed_ok = resumed.summary.resumed_shards == options.shards
        && resumed.merged.run.outcome_digest() == corpus.digest;
    let started = Instant::now();
    for endpoint in endpoints {
        endpoint.stop()?;
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    span("farm.stop", started);
    Ok(Pass { run, wall, cpu_s, resume, resumed_ok, fetch_log, span: call })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (corpus, setup) = repeat_setup(
        |rep| generate(ctx, ctx.work.join(format!("farm-corpus-{rep}")), APPS),
        |c| c.digest,
        |c| std::fs::remove_dir_all(&c.dir).map_err(|e| e.to_string()),
    )?;
    let apps = corpus.reader.len() as u64;
    let mut out = Outcome::default();
    out.runs("setup_s", &setup);
    out.set("setup_s", median(&setup));
    let logged = Logged::new(&corpus.reader);
    let me = std::thread::current().id();
    let score = |out: &mut Outcome, p: &Pass| -> u64 {
        let bad = mismatches(&p.run.merged.run, &corpus);
        out.attempted += 2 * apps;
        out.failed += bad + if p.resumed_ok { 0 } else { apps };
        apps - bad.min(apps)
    };

    // Timed phase. Pass 0 warms the endpoints' code paths and the page
    // cache; its outputs are checked, but it is not timed.
    let budget = if ctx.trace { ctx.seconds / 2 } else { ctx.seconds };
    let (mut rates, mut walls, mut resumes, mut cpu, mut latencies) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut n = 0;
    for_budget(budget, 1 + 3, |i| {
        let p = pass(ctx, &corpus, &logged, n, None)?;
        n += 1;
        let correct = score(&mut out, &p);
        if i == 0 {
            return Ok(());
        }
        rates.push(correct as f64 / p.wall.as_secs_f64());
        walls.push(p.wall.as_secs_f64());
        resumes.push(p.resume.as_secs_f64());
        cpu.push(p.cpu_s / p.wall.as_secs_f64());
        let jobs = intervals(&p.fetch_log, Some(me));
        latencies.extend(jobs.iter().map(|(a, b, _)| (*b - *a).as_secs_f64() * 1e3));
        Ok(())
    })?;
    out.runs("apps_per_s", &rates);
    out.runs("resume_s", &resumes);
    let latency = Dist::new(latencies);
    out.tails("latency_ms", &latency);
    if !ctx.trace {
        // The median dispatch call's rate of correct apps (endpoint
        // start-up and the resume are outside the call).
        let rate = median(&rates);
        out.set("apps_per_s", rate);
        // A closed loop cannot build a backlog: its highest sustainable
        // rate is the rate it completed apps at.
        out.set("max_rate_per_s", rate);
        out.set("resume_s", median(&resumes));
        out.set("p50_ms", latency.p50());
        return Ok(out);
    }

    // Traced phase: the same passes with the program's own trace on, a
    // span per dispatch, per fingerprinting sweep and per job (the gap
    // between one worker's consecutive fetches), plus a layer pass.
    let rec = Recorder::new();
    let (mut traced, mut phase_us) = (vec![], vec![]);
    let (mut reassignments, mut stragglers, mut shards, mut wasted) = (0, 0, 0, 0);
    for_budget(ctx.seconds / 2, 1, |i| {
        let i = i as u64;
        let root = rec.open("pass", None, i);
        let p = pass(ctx, &corpus, &logged, n, Some((&rec, root)))?;
        rec.close(root);
        n += 1;
        score(&mut out, &p);
        traced.push(p.wall.as_secs_f64());
        phase_us
            .push(fd_trace::TraceSummary::compute(&p.run.trace).top_level_phase_total_us() as f64);
        let s = &p.run.summary;
        reassignments += s.reassignments;
        stragglers += s.straggler_redispatches;
        shards += s.shards;
        wasted += s.wasted_completions;
        let call = p.span.expect("a traced pass records its dispatch span");
        let mine: Vec<_> = p.fetch_log.iter().filter(|f| f.thread == me).collect();
        if let (Some(a), Some(b)) = (mine.first(), mine.last()) {
            rec.record("dispatch.fingerprint", rec.us(a.at), rec.us(b.at), Some(call), i);
        }
        for (a, b, index) in intervals(&p.fetch_log, Some(me)) {
            rec.record("dispatch.job", rec.us(a), rec.us(b), Some(call), index as u64);
        }
        Ok(())
    })?;
    out.runs("traced_pass_s", &traced);

    let containers = crate::corpus::load(&corpus.reader)?;
    let layers = layers::measure(&rec, &containers, &ctx.config, ctx.threads);
    layers.publish(&mut out);
    out.set("dispatch.reassignments", reassignments as f64);
    out.set("dispatch.straggler_redispatches", stragglers as f64);
    out.set("dispatch.useful_ratio", shards as f64 / (shards + wasted).max(1) as f64);
    out.set("dispatch.cpu_util", median(&cpu));
    out.set("fd-trace.phase_us.sum", median(&phase_us));
    let pct = (median(&traced) / median(&walls) - 1.0) * 100.0;
    out.set("trace.overhead_pct", pct);
    let spans = rec.snapshot();
    out.set("unaccounted_pct", unaccounted_pct(&spans, "pass"));
    crate::write_spans(ctx, &spans);
    Ok(out)
}
