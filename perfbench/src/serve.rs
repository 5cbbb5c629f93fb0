//! `serve` and `serve-replay`: open-loop traffic into a journaled
//! `serve_listener` over TCP loopback through `SubmitClient`.
//!
//! - `serve`: every request is a unique job (fresh id, a container drawn
//!   from a seeded pool). Admission, the journal fsync, queue wait and the
//!   poll ticks dominate; the app itself runs in about a millisecond.
//! - `serve-replay`: after a pre-fill of completed jobs, 9 in 10 submits
//!   resubmit a completed id with identical content (a dedup hit served
//!   from stored reports), 1 in 10 is fresh, and every 10th request is a
//!   `Status` probe. Identity/dedup, the stored-report read path and
//!   `Status` dominate.
//!
//! Both run a fixed offered rate (latency from due time), then a rate
//! ladder for `max_rate_per_s`, then restart the server on its journal
//! (`resume_s`). Every report must be byte-identical to
//! `FragDroid::run_apk` + `to_string_pretty` on the same container.

use crate::gen::{arrival_schedule, run_open_loop, Sent};
use crate::layers;
use crate::relay::{Frame, Kind, Relay};
use crate::server::{self, Endpoint};
use crate::spans::{unaccounted_pct, Recorder};
use crate::stats::Dist;
use crate::{for_budget, median, repeat_setup, Ctx, Outcome};
use fd_appgen::stream::{generate_stream_app, Profile};
use fd_droidsim::proto::to_hex;
use fragdroid::suite::SuiteContainer;
use fragdroid::{FragDroid, JobOutcome, ListenAddr, ServeOptions, SubmitClient};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The serve latency limit: a ladder rung passes only if its p99 stays at
/// or below it. Recorded in `BENCHMARK.json`.
pub const P99_LIMIT_MS: f64 = 250.0;

/// Distinct valid containers jobs draw from.
const POOL: usize = 96;

/// Jobs submitted (and checked) before timing starts.
const WARMUP: u64 = 8;

/// Completed jobs `serve-replay` pre-fills before timing starts.
const PREFILL: u64 = 256;

/// Offered rate of the fixed-rate phase, requests per second: low enough
/// that the two synchronous senders rarely queue.
const FIXED_RATE: f64 = 64.0;

/// The rate ladders, requests per second, for `max_rate_per_s` (`serve`,
/// `serve-replay`). Rungs a factor 3 apart keep the passing rung well
/// below capacity and the failing one far past it, so a rung passes or
/// fails by the code, not by host noise: `serve` sustains about 110-160
/// requests/s, `serve-replay` about 180-280.
const LADDER: [[f64; 4]; 2] = [[25.0, 75.0, 225.0, 675.0], [33.0, 100.0, 300.0, 900.0]];

/// Share of the measured time the fixed-rate phase gets; the ladder
/// splits the rest.
const FIXED_SHARE: f64 = 0.6;

/// Share of a traced run's measured time the untraced baseline gets; the
/// traced phase runs the rest, long enough for the per-layer p99s.
const UNTRACED_SHARE: f64 = 0.2;

/// Server restarts timed for `resume_s`: at least this many, and more
/// until [`RESTART_BUDGET`] has passed (a small journal restarts in about
/// 0.1 s, and one restart's time varies by some 15%).
const RESTARTS: usize = 11;

/// Time the restarts run for at least.
const RESTART_BUDGET: Duration = Duration::from_secs(4);

/// One container of the pool and its reference report.
struct Job {
    hex: String,
    inputs: BTreeMap<String, String>,
    reference: String,
}

/// A request of the plan.
#[derive(Clone, Copy, Debug)]
enum Req {
    /// A new job id for pool container `k`.
    Fresh(usize),
    /// Resubmit pre-filled job `job` (container `k`).
    Replay(u64, usize),
    /// A `Status` probe.
    Status,
}

struct Setup {
    pool: Vec<Job>,
    containers: Vec<SuiteContainer>,
    endpoint: Endpoint,
    journal: PathBuf,
    /// Pre-filled `(job, container)` pairs.
    prefilled: Vec<(u64, usize)>,
    key: u64,
}

fn options(ctx: &Ctx, journal: &Path) -> ServeOptions {
    ServeOptions {
        workers: ctx.threads,
        config: ctx.config.clone(),
        journal: Some(journal.to_path_buf()),
        ..ServeOptions::default()
    }
}

fn submit(addr: &ListenAddr, job: u64, j: &Job) -> bool {
    let outcome = SubmitClient::new(addr.clone())
        .with_deadline(Duration::from_secs(30))
        .submit(job, &j.hex, &j.inputs);
    matches!(outcome, Ok(JobOutcome::Report { json }) if json == j.reference)
}

/// Generates the pool (valid containers only: a packed app is refused by
/// design, and a refusal counts as a failure here), computes each
/// reference report, starts the server and warms it up.
fn setup(ctx: &Ctx, rep: usize, replay: bool) -> Result<Setup, String> {
    let tool = FragDroid::new(ctx.config.clone());
    let (mut pool, mut containers) = (Vec::new(), Vec::new());
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let mut index = 0;
    while pool.len() < POOL {
        let gen = generate_stream_app(Profile::Paper, ctx.seed, index);
        index += 1;
        if gen.app.meta.packed {
            continue;
        }
        let bytes = fd_apk::pack(&gen.app);
        let report = tool.run_apk(&bytes, &gen.known_inputs).map_err(|e| e.to_string())?;
        let reference = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        reference.hash(&mut hasher);
        pool.push(Job { hex: to_hex(&bytes), inputs: gen.known_inputs.clone(), reference });
        containers.push((bytes, gen.known_inputs));
    }
    let journal = ctx.work.join(format!("serve-journal-{rep}"));
    let endpoint = server::spawn(options(ctx, &journal))?;
    for job in 1..=WARMUP {
        if !submit(&endpoint.addr, job, &pool[job as usize % POOL]) {
            return Err(format!("warm-up job {job} did not report correctly"));
        }
    }
    let mut prefilled = Vec::new();
    if replay {
        prefilled = (0..PREFILL).map(|i| (WARMUP + 1 + i, i as usize % POOL)).collect();
        let next = AtomicU64::new(0);
        let failed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..ctx.threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(&(job, k)) = prefilled.get(i) else { break };
                    let j = &pool[k];
                    let accepted = SubmitClient::new(endpoint.addr.clone())
                        .with_deadline(Duration::from_secs(30))
                        .submit_async(job, &j.hex, &j.inputs);
                    failed.fetch_add(u64::from(accepted.is_err()), Ordering::Relaxed);
                });
            }
        });
        if failed.into_inner() > 0 {
            return Err("pre-fill submissions were refused".to_string());
        }
        server::wait_completed(&endpoint.addr, WARMUP + PREFILL)?;
    }
    Ok(Setup { pool, containers, endpoint, journal, prefilled, key: hasher.finish() })
}

/// The seeded request plan for `n` arrivals.
fn plan(seed: u64, n: usize, replay: bool, prefilled: &[(u64, usize)]) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if !replay {
                return Req::Fresh(rng.gen_range(0..POOL));
            }
            if i % 10 == 9 {
                return Req::Status;
            }
            if rng.gen_bool(0.1) {
                Req::Fresh(rng.gen_range(0..POOL))
            } else {
                let (job, k) = prefilled[rng.gen_range(0..prefilled.len())];
                Req::Replay(job, k)
            }
        })
        .collect()
}

/// Runs one open-loop phase against `addr`. Returns what each request
/// did and the job id each one used (0 for `Status`).
fn phase(
    ctx: &Ctx,
    s: &Setup,
    addr: &ListenAddr,
    start: Instant,
    schedule: &[Duration],
    reqs: &[Req],
    next_id: &AtomicU64,
) -> (Vec<Sent>, Vec<u64>) {
    let jobs: Vec<AtomicU64> = reqs.iter().map(|_| AtomicU64::new(0)).collect();
    let sent = run_open_loop(start, schedule, ctx.threads, |i| match reqs[i] {
        Req::Fresh(k) => {
            let job = next_id.fetch_add(1, Ordering::Relaxed);
            jobs[i].store(job, Ordering::Relaxed);
            submit(addr, job, &s.pool[k])
        }
        Req::Replay(job, k) => {
            jobs[i].store(job, Ordering::Relaxed);
            submit(addr, job, &s.pool[k])
        }
        Req::Status => server::status(addr).is_ok(),
    });
    (sent, jobs.into_iter().map(AtomicU64::into_inner).collect())
}

fn latencies(sent: &[Sent]) -> Dist {
    Dist::new(sent.iter().map(Sent::latency_ms).collect())
}

/// Runs the workload; `replay` selects `serve-replay`.
pub fn run(ctx: &Ctx, replay: bool) -> Result<Outcome, String> {
    let (s, setup_times) = repeat_setup(
        |rep| setup(ctx, rep, replay),
        |s| s.key,
        |s| {
            s.endpoint.stop()?;
            std::fs::remove_file(&s.journal).map_err(|e| e.to_string())
        },
    )?;
    let mut out = Outcome::default();
    out.runs("setup_s", &setup_times);
    out.set("setup_s", median(&setup_times));
    let next_id = AtomicU64::new(WARMUP + PREFILL + 1);
    let seed = ctx.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);

    // Fixed offered rate.
    let share = if ctx.trace { UNTRACED_SHARE } else { FIXED_SHARE };
    let fixed_secs = ctx.seconds.mul_f64(share);
    let schedule = arrival_schedule(seed ^ 1, FIXED_RATE, fixed_secs);
    let reqs = plan(seed ^ 2, schedule.len(), replay, &s.prefilled);
    let start = Instant::now();
    let (sent, _) = phase(ctx, &s, &s.endpoint.addr, start, &schedule, &reqs, &next_id);
    let wall = sent.iter().map(|x| x.end_us).max().unwrap_or(1) as f64 / 1e6;
    let ok = sent.iter().filter(|x| x.ok).count();
    out.attempted += sent.len() as u64;
    out.failed += (sent.len() - ok) as u64;
    let lat = latencies(&sent);
    out.tails("latency_ms", &lat);
    out.tails("gen.late_ms", &Dist::new(sent.iter().map(Sent::late_ms).collect()));
    out.set("apps_per_s", ok as f64 / wall);
    out.set("p50_ms", lat.p50());

    if ctx.trace {
        traced(ctx, &s, replay, &next_id, seed, lat.p50(), &mut out)?;
    } else {
        // The ladder: the highest rung with every request correct, p99
        // within the limit, and no growing backlog (the last request sent
        // no later than the limit).
        let ladder = LADDER[usize::from(replay)];
        let rung_time = ctx.seconds.mul_f64((1.0 - FIXED_SHARE) / ladder.len() as f64);
        let mut best = None;
        let mut rung_rates = Vec::new();
        for (r, rate) in ladder.iter().enumerate() {
            let schedule = arrival_schedule(seed ^ (16 + r as u64), *rate, rung_time);
            let reqs = plan(seed ^ (32 + r as u64), schedule.len(), replay, &s.prefilled);
            let (sent, _) =
                phase(ctx, &s, &s.endpoint.addr, Instant::now(), &schedule, &reqs, &next_id);
            let ok = sent.iter().filter(|x| x.ok).count();
            out.attempted += sent.len() as u64;
            out.failed += (sent.len() - ok) as u64;
            let p99 = latencies(&sent).pct(99).unwrap_or(f64::INFINITY);
            let backlog = sent.last().map_or(0.0, Sent::late_ms);
            let first = sent.first().map_or(0, |x| x.due_us);
            let last = sent.iter().map(|x| x.end_us).max().unwrap_or(first + 1);
            let achieved = sent.len() as f64 * 1e6 / (last - first).max(1) as f64;
            rung_rates.push(achieved);
            let passed = ok == sent.len() && p99 <= P99_LIMIT_MS && backlog <= P99_LIMIT_MS;
            if !passed {
                break;
            }
            best = Some(achieved);
        }
        out.runs("ladder_achieved_per_s", &rung_rates);
        out.set("max_rate_per_s", best.ok_or("even the lowest ladder rung missed the limit")?);
    }

    // Restart on the journal: time from spawn to the first Status reply
    // that shows every job the run completed.
    let fresh = next_id.load(Ordering::Relaxed) - (WARMUP + PREFILL + 1);
    let total = WARMUP + s.prefilled.len() as u64 + fresh;
    s.endpoint.stop()?;
    let journal_bytes = std::fs::metadata(&s.journal).map_or(0, |m| m.len());
    let mut resumes = Vec::new();
    for_budget(RESTART_BUDGET, RESTARTS, |_| {
        let started = Instant::now();
        let endpoint = server::spawn(options(ctx, &s.journal))?;
        let recovered = server::status(&endpoint.addr).map(|(done, _, _)| done);
        resumes.push(started.elapsed().as_secs_f64());
        endpoint.stop()?;
        out.attempted += 1;
        out.failed += u64::from(recovered != Ok(total));
        Ok(())
    })?;
    out.runs("resume_s", &resumes);
    out.set("resume_s", median(&resumes));
    out.set("serve.journal_bytes", journal_bytes as f64);
    Ok(out)
}

/// The traced phase: the same fixed-rate traffic through the counting
/// relay, with a span per request and per layer, plus a layer pass over
/// the pool.
fn traced(
    ctx: &Ctx,
    s: &Setup,
    replay: bool,
    next_id: &AtomicU64,
    seed: u64,
    untraced_p50: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let rec = Recorder::new();
    let layers = layers::measure(&rec, &s.containers, &ctx.config, ctx.threads);
    let run_us_by_container = layers.run_us_by_index(POOL);

    let schedule =
        arrival_schedule(seed ^ 3, FIXED_RATE, ctx.seconds.mul_f64(1.0 - UNTRACED_SHARE));
    let reqs = plan(seed ^ 4, schedule.len(), replay, &s.prefilled);
    let relay = Relay::start(&s.endpoint.addr)?;
    let start = Instant::now();
    let (sent, jobs) = phase(ctx, s, &relay.addr, start, &schedule, &reqs, next_id);
    let frames = relay.stop();
    let ok = sent.iter().filter(|x| x.ok).count();
    out.attempted += sent.len() as u64;
    out.failed += (sent.len() - ok) as u64;
    let late = Dist::new(sent.iter().map(Sent::late_ms).collect());
    out.set("gen.late_ms.p99", late.tail(99).unwrap_or(0.0));
    out.set("gen.sent", sent.len() as f64);
    out.set("gen.ok", ok as f64);
    out.set("gen.failed", (sent.len() - ok) as f64);

    // Connections by job, each with its frames in order.
    let mut conns: HashMap<u64, Vec<Frame>> = HashMap::new();
    for f in &frames {
        conns.entry(f.conn).or_default().push(*f);
    }
    let mut by_job: HashMap<u64, Vec<Vec<Frame>>> = HashMap::new();
    for (_, list) in conns {
        if let Some(job) = list.iter().find_map(|f| f.job) {
            by_job.entry(job).or_default().push(list);
        }
    }
    let base = rec.us(start);
    let at = |f: &Frame| rec.us(f.at);
    let (mut admit, mut settle, mut wait, mut status) = (vec![], vec![], vec![], vec![]);
    let (mut polls, mut busy, mut bytes, mut submits) = (0usize, 0usize, 0usize, 0usize);
    let mut traced_lat = Vec::new();
    for x in &sent {
        let (due, issued, end) = (base + x.due_us, base + x.start_us, base + x.end_us);
        traced_lat.push(x.latency_ms());
        let root = rec.record("request", due, end, None, x.index as u64);
        rec.record("gen.late", due, issued, Some(root), x.index as u64);
        let job = jobs[x.index];
        if job == 0 {
            rec.record("serve.status", issued, end, Some(root), x.index as u64);
            status.push((end - issued) as f64 / 1e3);
            continue;
        }
        let own: Vec<&Frame> = by_job
            .get(&job)
            .into_iter()
            .flatten()
            .filter(|list| list.first().is_some_and(|f| at(f) >= issued && at(f) <= end))
            .flatten()
            .collect();
        let first = |kind: Kind| own.iter().find(|f| f.kind == kind).map(|f| at(f));
        let (Some(sub), Some(acc), Some(done)) =
            (first(Kind::Submit), first(Kind::Accepted), first(Kind::Settled))
        else {
            continue;
        };
        submits += 1;
        polls += own.iter().filter(|f| f.kind == Kind::Poll).count();
        busy += own.iter().filter(|f| f.kind == Kind::Busy).count();
        bytes += own.iter().map(|f| f.bytes).sum::<usize>();
        rec.record("serve.connect", issued, sub, Some(root), x.index as u64);
        rec.record("serve.admit", sub, acc, Some(root), x.index as u64);
        rec.record("serve.settle", acc, done, Some(root), x.index as u64);
        rec.record("serve.reply", done, end, Some(root), x.index as u64);
        admit.push((acc - sub) as f64 / 1e3);
        settle.push((done - acc) as f64 / 1e3);
        if let Req::Fresh(k) = reqs[x.index] {
            wait.push((done - acc) as f64 / 1e3 - run_us_by_container[k] / 1e3);
        }
    }
    let admit = Dist::new(admit);
    let settle = Dist::new(settle);
    let per = |n: usize| if submits == 0 { 0.0 } else { n as f64 / submits as f64 };
    out.set("serve.admit_ms.p50", admit.p50());
    out.set("serve.admit_ms.p99", admit.tail(99).unwrap_or(0.0));
    out.set("serve.settle_ms.p50", settle.p50());
    out.set("serve.settle_ms.p99", settle.tail(99).unwrap_or(0.0));
    out.samples("serve.admit_ms", admit.n());
    out.samples("serve.settle_ms", settle.n());
    out.set("serve.wait_ms.p50", Dist::new(wait).p50());
    out.set("serve.polls_per_job", per(polls));
    out.set("serve.busy_retries", busy as f64);
    out.set("serve.wire_bytes_per_job", per(bytes));
    out.set("serve.status_ms.p50", Dist::new(status).p50());
    layers.publish(out);
    let traced_p50 = Dist::new(traced_lat).p50();
    out.set(
        "trace.overhead_pct",
        if untraced_p50 > 0.0 { (traced_p50 / untraced_p50 - 1.0) * 100.0 } else { 0.0 },
    );
    let spans = rec.snapshot();
    out.set("unaccounted_pct", unaccounted_pct(&spans, "request"));
    crate::write_spans(ctx, &spans);
    Ok(())
}
