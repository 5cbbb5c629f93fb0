//! The dispatch coordinator: drive a sharded corpus across N serve
//! endpoints with lease-based fault tolerance, and merge the results
//! back into one byte-identical run.
//!
//! This is [`crate::shard`] lifted across machines. The corpus is split
//! with [`shard_range`](crate::shard::shard_range); each shard is
//! *leased* to one endpoint and driven job-by-job over the
//! [`SubmitClient`] frame protocol. Worker death is the common case,
//! not the exception:
//!
//! * **Leases, not assignments.** A grant is time-bounded and carries a
//!   globally monotonic generation counter (the
//!   [`DevicePool`](crate::pool::DevicePool) pattern, one level up). A
//!   lease that expires, or whose holder's jobs fail, is revoked and
//!   its shard goes back to the front of the queue. Stale holders
//!   notice mid-shard (every job re-checks the lease) and abandon their
//!   work; if a stale holder finishes anyway, first-wins completion
//!   makes the duplicate harmless.
//! * **No coordinator thread.** There is one thread per endpoint and no
//!   heartbeat: the jobs a holder sends are its liveness signal (a
//!   `Wait` reply at least every 500 ms, a typed error when its client
//!   gives up). Idle workers run the farm's timeouts (lease expiry,
//!   straggler backup, stall) under the farm lock and sleep until the
//!   earliest of them is due.
//! * **Quarantine with revival.** An endpoint that fails
//!   `quarantine_after` shard attempts in a row is benched for
//!   `quarantine_backoff` and must pass a clean-transport `Status`
//!   probe before it is leased work again.
//! * **Stragglers.** Once the queue drains, the last in-flight shards
//!   are re-dispatched to idle endpoints; whoever finishes first
//!   commits, the other attempt is counted as wasted.
//! * **Idempotency by construction.** Job ids are global corpus
//!   indexes, so the server's `(id, digest)` dedup makes re-execution
//!   safe; shard journals are written atomically (tmp + rename) with
//!   content derived only from deterministic outcomes, so re-writing
//!   one replaces it with identical bytes.
//! * **A crash-safe coordinator journal.** Every grant, revocation,
//!   quarantine, and shard completion is a [`crate::journal`] record;
//!   `ShardDone` is appended only *after* the shard's own journal is
//!   durable. `dispatch --resume` replays the journal, re-validates
//!   every completed shard's file, and re-runs only what does not check
//!   out — so SIGKILL of the coordinator itself loses at most in-flight
//!   work.
//!
//! Completed shards merge through
//! [`merge_shards`](crate::shard::merge_shards), so the merged
//! [`SuiteRun::outcome_digest`](crate::suite::SuiteRun) is
//! byte-identical to an unsharded run of the same corpus and config.
//!
//! One operator responsibility remains: every serve endpoint must run
//! the *same* engine config as the coordinator passes to `dispatch` —
//! the `Status` probe carries no config digest, so a mismatched worker
//! is only caught by the report digest at merge time.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read as _, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::checkpoint::{load_journal, write_complete_journal, Fingerprint, JournalError};
use crate::config::FragDroidConfig;
use crate::journal::{encode_line, scan, Journal, Opened, Record, Scan};
use crate::lock;
use crate::report::RunReport;
use crate::serve::{
    AnyStream, ChaosConfig, JobOutcome, ListenAddr, ServeRequest, ServeResponse, SubmitClient,
};
use crate::shard::{merge_shards, shard_journal_path, MergedRun, ShardError, ShardSlice};
use crate::suite::{slot_metrics, AppMetrics, AppOutcome, CorpusSource, SuiteSource};
use fd_droidsim::proto::{decode_payload, encode_frame, to_hex, Envelope, FrameBuffer};

/// Format version of the coordinator journal.
pub const DISPATCH_JOURNAL_VERSION: u64 = 1;

/// Clean-transport budget for one revival probe.
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------------
// Options

/// Knobs for one dispatch run.
#[derive(Clone, Debug)]
pub struct DispatchOptions {
    /// The serve endpoints to drive (one worker thread each).
    pub endpoints: Vec<ListenAddr>,
    /// Shards to split the corpus into; `0` means one per endpoint.
    pub shards: usize,
    /// Coordinator journal path. `None` disables crash-safety (shard
    /// journals go to a scratch path and are removed after the merge).
    pub journal: Option<PathBuf>,
    /// Resume a previous coordinator journal instead of starting fresh.
    pub resume: bool,
    /// A lease older than this is revoked and its shard re-queued; once
    /// the queue is empty, a lease half this old gets a straggler backup.
    pub lease_timeout: Duration,
    /// Consecutive shard failures before an endpoint is quarantined.
    pub quarantine_after: u32,
    /// How long a quarantined endpoint sits out before a revival probe.
    pub quarantine_backoff: Duration,
    /// Per-job submit deadline (passed to [`SubmitClient`]).
    pub job_deadline: Duration,
    /// Per-job reconnect-attempt budget.
    pub job_attempts: u32,
    /// With no progress (grant, job, or shard completion) for this
    /// long, the run fails typed instead of hanging forever.
    pub stall_timeout: Duration,
    /// Wrap every job's connection in the seeded chaos proxy; each job
    /// and generation derives its own schedule.
    pub chaos: Option<ChaosConfig>,
    /// Seed for the clients' retry-backoff jitter.
    pub jitter_seed: u64,
}

impl DispatchOptions {
    /// Defaults for `endpoints`: one shard per endpoint, no journal,
    /// 120 s leases (straggler backups after 60 s), quarantine after 3
    /// straight failures for 500 ms, 60 s / 8-attempt jobs, 300 s stall
    /// guard.
    pub fn new(endpoints: Vec<ListenAddr>) -> DispatchOptions {
        DispatchOptions {
            endpoints,
            shards: 0,
            journal: None,
            resume: false,
            lease_timeout: Duration::from_secs(120),
            quarantine_after: 3,
            quarantine_backoff: Duration::from_millis(500),
            job_deadline: Duration::from_secs(60),
            job_attempts: 8,
            stall_timeout: Duration::from_secs(300),
            chaos: None,
            jitter_seed: 0xD15_9A7C,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors

/// A typed dispatch failure. `fd-cli` maps these to exit code 6.
#[derive(Clone, Debug, PartialEq)]
pub enum DispatchError {
    /// No endpoints were given.
    NoEndpoints,
    /// `--resume` without a journal path: there is nothing to resume.
    ResumeWithoutJournal,
    /// The coordinator journal failed (create, append, parse, resume).
    Journal(JournalError),
    /// The split or the merge failed.
    Shard(ShardError),
    /// The corpus source could not be streamed to fingerprint the run.
    Source {
        /// The streaming failure, rendered.
        detail: String,
    },
    /// A resumed journal was written for a different shard count.
    ShardCountMismatch {
        /// Shards recorded in the journal.
        journal: usize,
        /// Shards this invocation asked for.
        requested: usize,
    },
    /// No grant, job, or completion for `stall_timeout`: every endpoint
    /// is dead or quarantined and nothing can make progress.
    Stalled {
        /// Shards completed before the stall.
        completed: usize,
        /// Total shards in the run.
        shards: usize,
        /// What the coordinator was waiting on, rendered.
        detail: String,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::NoEndpoints => {
                write!(f, "dispatch needs at least one serve endpoint (--connect)")
            }
            DispatchError::ResumeWithoutJournal => {
                write!(f, "--resume needs a coordinator journal path (--checkpoint)")
            }
            DispatchError::Journal(error) => write!(f, "coordinator journal: {error}"),
            DispatchError::Shard(error) => write!(f, "{error}"),
            DispatchError::Source { detail } => write!(f, "corpus source failed: {detail}"),
            DispatchError::ShardCountMismatch { journal, requested } => write!(
                f,
                "coordinator journal records {journal} shards, this invocation asked for \
                 {requested}; shard counts must match to resume"
            ),
            DispatchError::Stalled { completed, shards, detail } => {
                write!(f, "dispatch stalled at {completed}/{shards} shards: {detail}")
            }
        }
    }
}

impl std::error::Error for DispatchError {}

impl From<JournalError> for DispatchError {
    fn from(error: JournalError) -> Self {
        DispatchError::Journal(error)
    }
}

impl From<ShardError> for DispatchError {
    fn from(error: ShardError) -> Self {
        DispatchError::Shard(error)
    }
}

// ---------------------------------------------------------------------------
// Coordinator journal

/// Header record of the coordinator journal.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct DispatchHeader {
    /// Format version ([`DISPATCH_JOURNAL_VERSION`]).
    version: u64,
    /// Fingerprint of the whole (unsharded) invocation.
    fingerprint: Fingerprint,
    /// Shards the corpus was split into.
    shards: usize,
}

/// One checksummed line in the coordinator journal. `Granted`,
/// `Revoked`, and `Quarantined` are an advisory audit trail; only
/// `Header` and `ShardDone` decide what a resume re-runs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) enum DispatchRecord {
    /// The journal's identity; always the first record.
    Header(DispatchHeader),
    /// A lease was granted.
    Granted {
        /// The shard leased.
        shard: usize,
        /// The endpoint index it went to.
        worker: usize,
        /// The lease's generation counter.
        generation: u64,
    },
    /// A lease was revoked (expiry, or its holder's jobs failed).
    Revoked {
        /// The shard whose lease was revoked.
        shard: usize,
        /// The endpoint index that held it.
        worker: usize,
        /// The revoked lease's generation.
        generation: u64,
    },
    /// An endpoint was quarantined after consecutive failures.
    Quarantined {
        /// The quarantined endpoint index.
        worker: usize,
    },
    /// A shard's journal is durable and complete. Appended only after
    /// the shard journal's fsync returns.
    ShardDone {
        /// The completed shard.
        shard: usize,
        /// The endpoint index that completed it.
        worker: usize,
        /// The winning lease's generation.
        generation: u64,
        /// Apps the shard covered.
        apps: usize,
    },
}

impl Record for DispatchRecord {
    fn header_version(&self) -> Option<u64> {
        match self {
            DispatchRecord::Header(header) => Some(header.version),
            _ => None,
        }
    }
}

/// What a parsed coordinator journal says about a run.
#[derive(Clone, Debug, PartialEq)]
pub struct DispatchJournal {
    /// Fingerprint of the invocation that wrote the journal.
    pub fingerprint: Fingerprint,
    /// Shards the corpus was split into.
    pub shards: usize,
    /// Completed shards, by index, with the app count each covered.
    pub done: BTreeMap<usize, usize>,
    /// Lease grants recorded.
    pub grants: u64,
    /// Lease revocations recorded.
    pub revocations: u64,
    /// Quarantines recorded.
    pub quarantines: u64,
    /// Bytes of complete, checksummed records.
    pub valid_len: u64,
    /// Bytes of torn tail past `valid_len` (0 for a clean file).
    pub torn_tail_bytes: u64,
}

/// Parses a coordinator journal. A torn tail (the coordinator died
/// mid-append) is tolerated and measured; everything else that is wrong
/// — corrupt checksums, a missing or foreign header, duplicate
/// completions — is a typed [`JournalError`].
pub fn parse_dispatch_journal(data: &[u8]) -> Result<DispatchJournal, JournalError> {
    fold(scan(data, DISPATCH_JOURNAL_VERSION)?)
}

/// Folds a scanned coordinator journal into its done-set and counters.
pub(crate) fn fold(scan: Scan<DispatchRecord>) -> Result<DispatchJournal, JournalError> {
    let DispatchRecord::Header(header) = scan.header else {
        return Err(JournalError::MissingHeader);
    };
    let shards = header.shards;
    let mut done = BTreeMap::new();
    let (mut grants, mut revocations, mut quarantines) = (0u64, 0u64, 0u64);
    for (_, record) in scan.records {
        match record {
            // The scanner refuses a second header.
            DispatchRecord::Header(_) => {}
            DispatchRecord::Granted { .. } => grants += 1,
            DispatchRecord::Revoked { .. } => revocations += 1,
            DispatchRecord::Quarantined { .. } => quarantines += 1,
            DispatchRecord::ShardDone { shard, apps, .. } => {
                if shard >= shards {
                    return Err(JournalError::IndexOutOfRange { index: shard, total: shards });
                }
                if done.insert(shard, apps).is_some() {
                    return Err(JournalError::DuplicateIndex { index: shard });
                }
            }
        }
    }

    Ok(DispatchJournal {
        fingerprint: header.fingerprint,
        shards,
        done,
        grants,
        revocations,
        quarantines,
        valid_len: scan.valid_len,
        torn_tail_bytes: scan.torn_tail_bytes,
    })
}

/// A small, well-formed coordinator journal for fuzz seeds: a header, a
/// grant per shard, one revoke/quarantine/re-grant episode, and every
/// shard completed. Pure — no clock, no filesystem.
pub(crate) fn demo_dispatch_journal(seed: u64, shards: usize) -> Vec<u8> {
    let fingerprint = Fingerprint {
        apps: (shards as u64) * 2,
        corpus_digest: 0xfd15_7a7c_0000_0000 ^ seed,
        config_digest: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        flake_retries: 0,
    };
    let mut out = String::new();
    out.push_str(&encode_line(&DispatchRecord::Header(DispatchHeader {
        version: DISPATCH_JOURNAL_VERSION,
        fingerprint,
        shards,
    })));
    for shard in 0..shards {
        let worker = shard % 2;
        let generation = shard as u64;
        out.push_str(&encode_line(&DispatchRecord::Granted { shard, worker, generation }));
        if shard % 3 == 1 {
            out.push_str(&encode_line(&DispatchRecord::Revoked { shard, worker, generation }));
            out.push_str(&encode_line(&DispatchRecord::Quarantined { worker }));
            out.push_str(&encode_line(&DispatchRecord::Granted {
                shard,
                worker: (worker + 1) % 2,
                generation: generation + shards as u64,
            }));
        }
        out.push_str(&encode_line(&DispatchRecord::ShardDone {
            shard,
            worker,
            generation,
            apps: 2,
        }));
    }
    out.into_bytes()
}

// ---------------------------------------------------------------------------
// Results

/// Per-endpoint accounting for the dispatch summary.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct WorkerStat {
    /// The endpoint, rendered (`host:port` or `unix:path`).
    pub endpoint: String,
    /// Leases granted to this endpoint.
    pub assignments: usize,
    /// Shards it completed first.
    pub shards_completed: usize,
    /// Shard attempts that failed (transport death, revocation).
    pub failures: usize,
    /// Times it was quarantined.
    pub quarantines: usize,
}

/// What happened operationally, alongside the merged result.
#[derive(Clone, Debug, Serialize)]
pub struct DispatchSummary {
    /// Shards the corpus was split into.
    pub shards: usize,
    /// Shards skipped on `--resume` because their journals validated.
    pub resumed_shards: usize,
    /// Shards re-granted after a revocation.
    pub reassignments: usize,
    /// Backup grants issued for stragglers after the queue drained.
    pub straggler_redispatches: usize,
    /// Completed shard attempts that lost the first-wins commit.
    pub wasted_completions: usize,
    /// Revocation→re-grant latency of each reassignment, milliseconds.
    pub reassignment_latencies_ms: Vec<u64>,
    /// Per-endpoint accounting, in `--connect` order.
    pub workers: Vec<WorkerStat>,
}

/// A completed dispatch: the merged run plus operational accounting.
#[derive(Debug)]
pub struct DispatchRun {
    /// The merged result; `merged.run.outcome_digest()` is
    /// byte-identical to an unsharded run.
    pub merged: MergedRun,
    /// Leases, reassignments, quarantines, waste.
    pub summary: DispatchSummary,
    /// One track per endpoint (track `i + 1` for endpoint `i`); a lease
    /// sweep's events land on the track of the worker that ran it.
    pub trace: fd_trace::Trace,
}

// ---------------------------------------------------------------------------
// Farm state

/// One live lease.
struct Lease {
    shard: usize,
    worker: usize,
    generation: u64,
    granted_at: Instant,
}

/// One endpoint's health and accounting.
#[derive(Clone)]
struct WorkerSlot {
    consecutive_failures: u32,
    quarantined_until: Option<Instant>,
    /// Set when leaving quarantine: a clean `Status` probe must pass
    /// before this endpoint is leased work again.
    needs_probe: bool,
    assignments: usize,
    completed: usize,
    failures: usize,
    quarantines: usize,
}

impl WorkerSlot {
    fn new() -> WorkerSlot {
        WorkerSlot {
            consecutive_failures: 0,
            quarantined_until: None,
            needs_probe: false,
            assignments: 0,
            completed: 0,
            failures: 0,
            quarantines: 0,
        }
    }
}

/// The shared lease machine, guarded by one mutex.
struct Farm {
    shards: usize,
    pending: VecDeque<usize>,
    leases: Vec<Lease>,
    done: BTreeSet<usize>,
    /// When each shard's last lease was revoked, for reassignment
    /// latency; cleared at the re-grant that consumes it.
    revoked_at: Vec<Option<Instant>>,
    workers: Vec<WorkerSlot>,
    next_generation: u64,
    fatal: Option<DispatchError>,
    last_progress: Instant,
    reassignments: usize,
    stragglers: usize,
    wasted: usize,
    reassignment_latencies: Vec<Duration>,
}

impl Farm {
    /// A farm of `endpoints` workers with every shard not in `done`
    /// queued, in order.
    fn new(shards: usize, done: BTreeSet<usize>, endpoints: usize, now: Instant) -> Farm {
        Farm {
            shards,
            pending: (0..shards).filter(|s| !done.contains(s)).collect(),
            leases: Vec::new(),
            done,
            revoked_at: vec![None; shards],
            workers: vec![WorkerSlot::new(); endpoints],
            next_generation: 0,
            fatal: None,
            last_progress: now,
            reassignments: 0,
            stragglers: 0,
            wasted: 0,
            reassignment_latencies: Vec::new(),
        }
    }

    /// Every shard is done or the run failed: workers stop.
    fn over(&self) -> bool {
        self.fatal.is_some() || self.done.len() == self.shards
    }
}

/// Everything worker threads share by reference.
struct DispatchCtx<'a> {
    source: &'a dyn CorpusSource,
    options: &'a DispatchOptions,
    shards: usize,
    base: &'a Path,
    shard_fingerprints: &'a [Fingerprint],
    ranges: &'a [Range<usize>],
    /// Shards whose `ShardDone` is already in the resumed journal;
    /// completing one again must not append a duplicate record.
    journaled_done: &'a BTreeSet<usize>,
    farm: &'a Mutex<Farm>,
    cv: &'a Condvar,
    writer: &'a Option<Mutex<Journal<DispatchRecord>>>,
}

impl DispatchCtx<'_> {
    /// Appends `record` to the coordinator journal (fsync'd per record)
    /// and traces it on `tracer`'s track. Call it off the farm lock. An
    /// append failure is fatal: a journal whose durability cannot be
    /// trusted is worse than stopping.
    fn publish(&self, tracer: &fd_trace::Tracer, record: &DispatchRecord) {
        use fd_trace::TraceEvent::{LeaseGranted, LeaseRevoked, WorkerQuarantined};
        if let Some(writer) = self.writer {
            if let Err(error) = lock(writer).append(record) {
                self.fail(error);
            }
        }
        let event = match *record {
            DispatchRecord::Granted { shard, worker, generation } => {
                LeaseGranted { shard: shard as u64, worker: worker as u64, generation }
            }
            DispatchRecord::Revoked { shard, worker, generation } => {
                LeaseRevoked { shard: shard as u64, worker: worker as u64, generation }
            }
            DispatchRecord::Quarantined { worker } => WorkerQuarantined { worker: worker as u64 },
            DispatchRecord::Header(_) | DispatchRecord::ShardDone { .. } => return,
        };
        tracer.event(|| event);
    }

    /// Stops the run on a journal failure, keeping the first one.
    fn fail(&self, error: JournalError) {
        let mut g = lock(self.farm);
        g.fatal.get_or_insert(DispatchError::Journal(error));
        self.cv.notify_all();
    }
}

/// What an idle worker thread should do next, decided under the lock.
#[derive(Debug, PartialEq)]
enum Action {
    Exit,
    Wait(Duration),
    Probe,
    Run { shard: usize, generation: u64, reassigned: bool },
}

/// Removes `worker`'s lease on `(shard, generation)` if it still holds
/// it; `None` means a sweep already revoked it.
fn remove_lease(g: &mut Farm, shard: usize, worker: usize, generation: u64) -> Option<Lease> {
    let at = g
        .leases
        .iter()
        .position(|l| l.shard == shard && l.worker == worker && l.generation == generation)?;
    Some(g.leases.remove(at))
}

/// Settles a lease already removed from the farm as failed: puts its
/// shard back at the front of the queue (unless it is done, leased
/// elsewhere, or already queued), stamping the clock its reassignment
/// latency is measured from, and counts a failure against its holder,
/// benching it after `quarantine_after` in a row. Pushes the `Revoked`
/// (and `Quarantined`) records for the caller to publish off the lock.
fn revoke(
    g: &mut Farm,
    lease: Lease,
    options: &DispatchOptions,
    now: Instant,
    records: &mut Vec<DispatchRecord>,
) {
    let Lease { shard, worker, generation, .. } = lease;
    if !(g.done.contains(&shard)
        || g.leases.iter().any(|l| l.shard == shard)
        || g.pending.contains(&shard))
    {
        g.revoked_at[shard] = Some(now);
        g.pending.push_front(shard);
    }
    records.push(DispatchRecord::Revoked { shard, worker, generation });
    let slot = &mut g.workers[worker];
    slot.failures += 1;
    slot.consecutive_failures += 1;
    if slot.consecutive_failures >= options.quarantine_after {
        slot.consecutive_failures = 0;
        slot.quarantines += 1;
        slot.quarantined_until = Some(now + options.quarantine_backoff);
        slot.needs_probe = true;
        records.push(DispatchRecord::Quarantined { worker });
    }
}

/// The farm's timeouts, due at `now`: expired leases are revoked,
/// stragglers get a backup once the queue is empty, and a run with no
/// progress for `stall_timeout` fails typed.
fn sweep(g: &mut Farm, options: &DispatchOptions, now: Instant, records: &mut Vec<DispatchRecord>) {
    // Expired leases: the holder is presumed dead or wedged.
    let (expired, live) = std::mem::take(&mut g.leases)
        .into_iter()
        .partition(|l| now.duration_since(l.granted_at) >= options.lease_timeout);
    g.leases = live;
    for lease in expired {
        revoke(g, lease, options, now, records);
    }
    // Stragglers: the queue is dry, so idle endpoints may as well race
    // the slowest in-flight shards.
    if g.pending.is_empty() {
        let marked: Vec<usize> = g
            .leases
            .iter()
            .filter(|l| now.duration_since(l.granted_at) >= options.lease_timeout / 2)
            .map(|l| l.shard)
            .collect();
        for shard in marked {
            if g.done.contains(&shard)
                || g.pending.contains(&shard)
                || g.leases.iter().filter(|l| l.shard == shard).count() != 1
            {
                continue;
            }
            g.pending.push_back(shard);
            g.stragglers += 1;
        }
    }
    // Total stall: nothing has moved for stall_timeout.
    if now.duration_since(g.last_progress) >= options.stall_timeout {
        let (leased, queued) = (g.leases.len(), g.pending.len());
        g.fatal = Some(DispatchError::Stalled {
            completed: g.done.len(),
            shards: g.shards,
            detail: format!(
                "no progress for {:?} ({leased} leases in flight, {queued} shards queued, \
                 every endpoint dead or quarantined)",
                options.stall_timeout
            ),
        });
    }
}

/// How long an idle worker may sleep after a sweep at `now`: until the
/// next lease expiry, straggler mark, or the stall deadline. A mark
/// already passed is skipped: the sweep backed its shard up, or the
/// shard is done or backed up already, or the queue was not empty —
/// and while it is not, only a benched worker waits, which wakes when
/// its quarantine ends.
fn next_deadline(g: &Farm, options: &DispatchOptions, now: Instant) -> Duration {
    let stall = options.stall_timeout.saturating_sub(now.duration_since(g.last_progress));
    g.leases
        .iter()
        .flat_map(|l| {
            let age = now.duration_since(l.granted_at);
            [options.lease_timeout, options.lease_timeout / 2].map(|t| t.saturating_sub(age))
        })
        .filter(|left| !left.is_zero())
        .fold(stall, Duration::min)
}

/// Decides what idle `worker` does next at `now`, under the farm lock.
/// It runs the farm's timeouts first ([`sweep`]), pushing the records
/// they produce onto `records` for the caller to publish once the lock
/// is released; a `Wait` lasts until the earliest deadline still ahead.
fn next_action(
    g: &mut Farm,
    worker: usize,
    options: &DispatchOptions,
    now: Instant,
    records: &mut Vec<DispatchRecord>,
) -> Action {
    if !g.over() {
        sweep(g, options, now, records);
    }
    if g.over() {
        return Action::Exit;
    }
    if let Some(until) = g.workers[worker].quarantined_until {
        if now < until {
            return Action::Wait(next_deadline(g, options, now).min(until.duration_since(now)));
        }
        // Quarantine elapsed: the endpoint earns its way back with a
        // clean probe before any lease.
        g.workers[worker].quarantined_until = None;
        g.workers[worker].needs_probe = true;
    }
    if g.workers[worker].needs_probe {
        return Action::Probe;
    }
    // An idle worker holds no lease, so any queued shard not yet done
    // is its to take, straggler backups included.
    while let Some(shard) = g.pending.pop_front() {
        if g.done.contains(&shard) {
            continue;
        }
        let generation = g.next_generation;
        g.next_generation += 1;
        g.leases.push(Lease { shard, worker, generation, granted_at: now });
        g.workers[worker].assignments += 1;
        g.last_progress = now;
        let mut reassigned = false;
        if let Some(revoked) = g.revoked_at[shard].take() {
            g.reassignments += 1;
            g.reassignment_latencies.push(now.duration_since(revoked));
            reassigned = true;
        }
        return Action::Run { shard, generation, reassigned };
    }
    Action::Wait(next_deadline(g, options, now))
}

// ---------------------------------------------------------------------------
// Health probes

/// Clean-transport liveness probe: connect, send `Status`, expect any
/// coherent reply from a server that will still take work. `Busy` means
/// alive-but-saturated (fine); `Draining` means it is dying (not fine).
fn probe_endpoint(addr: &ListenAddr, timeout: Duration) -> Result<(), String> {
    let mut stream = AnyStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| format!("set read timeout: {e}"))?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| format!("set write timeout: {e}"))?;
    stream
        .write_all(&encode_frame(&Envelope { id: 1, body: ServeRequest::Status }))
        .map_err(|e| format!("send status: {e}"))?;
    stream.flush().map_err(|e| format!("flush status: {e}"))?;
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    let started = Instant::now();
    loop {
        if let Some(payload) = frames.next_frame().map_err(|e| format!("bad frame: {e}"))? {
            let reply: Envelope<ServeResponse> =
                decode_payload(&payload).map_err(|e| format!("bad reply: {e}"))?;
            return match reply.body {
                ServeResponse::Status { .. } | ServeResponse::Busy { .. } => Ok(()),
                other => Err(format!("unhealthy reply: {other:?}")),
            };
        }
        if started.elapsed() >= timeout {
            return Err("probe timed out".to_string());
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read status reply: {e}"))?;
        if n == 0 {
            return Err("server hung up during probe".to_string());
        }
        frames.push(&chunk[..n]);
    }
}

// ---------------------------------------------------------------------------
// Worker threads

/// Drives one shard's jobs over the wire against `worker`'s endpoint.
/// Every job re-checks the lease first, so a stale holder abandons the
/// shard instead of burning a dead generation's budget.
fn run_shard_over_wire(
    ctx: &DispatchCtx<'_>,
    worker: usize,
    shard: usize,
    generation: u64,
) -> Result<Vec<(usize, AppOutcome, AppMetrics)>, String> {
    let range = ctx.ranges[shard].clone();
    let addr = ctx.options.endpoints[worker].clone();
    let mut outcomes = Vec::with_capacity(range.len());
    for (local, global) in range.enumerate() {
        {
            let g = lock(ctx.farm);
            if g.over() {
                return Err("dispatch ended mid-shard".to_string());
            }
            if !g
                .leases
                .iter()
                .any(|l| l.shard == shard && l.worker == worker && l.generation == generation)
            {
                return Err("lease revoked mid-shard".to_string());
            }
        }
        let started = Instant::now();
        let (outcome, package) = match ctx.source.fetch(global) {
            // A source-side rejection needs no server round trip; the
            // reason string matches what the in-process runner records.
            Err(reason) => (AppOutcome::Rejected { reason }, format!("container[{local}]")),
            Ok((bytes, inputs)) => {
                // The job id is the global corpus index: the server's
                // (id, digest) idempotency key, so a re-dispatched
                // shard replays the same jobs and dedups server-side.
                let job = global as u64 + 1;
                let mut client = SubmitClient::new(addr.clone())
                    .with_deadline(ctx.options.job_deadline)
                    .with_max_attempts(ctx.options.job_attempts)
                    .with_backoff_jitter(ctx.options.jitter_seed ^ job ^ (generation << 20));
                if let Some(base) = &ctx.options.chaos {
                    // Vary the schedule by job *and* generation, so a
                    // reassigned shard does not replay the exact chaos
                    // that killed its first attempt.
                    client = client.with_chaos(ChaosConfig {
                        seed: base.seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ generation,
                        ..base.clone()
                    });
                }
                match client.submit(job, &to_hex(&bytes), &inputs) {
                    Err(error) => return Err(format!("job {job}: {error}")),
                    Ok(JobOutcome::Rejected { reason }) => {
                        (AppOutcome::Rejected { reason }, format!("container[{local}]"))
                    }
                    Ok(JobOutcome::Report { json }) => {
                        match serde_json::from_str::<RunReport>(&json) {
                            Err(error) => {
                                return Err(format!("job {job}: undecodable report: {error}"))
                            }
                            Ok(report) => {
                                let package = report
                                    .static_info
                                    .aftm
                                    .entry()
                                    .map(|c| c.package().to_string())
                                    .unwrap_or_else(|| "generated".to_string());
                                let outcome = if report.deadline_exceeded {
                                    AppOutcome::DeadlineExceeded(report)
                                } else {
                                    AppOutcome::Completed(report)
                                };
                                (outcome, package)
                            }
                        }
                    }
                }
            }
        };
        let metrics = slot_metrics(&outcome, package, started.elapsed());
        outcomes.push((local, outcome, metrics));
        lock(ctx.farm).last_progress = Instant::now();
    }
    Ok(outcomes)
}

/// One endpoint's worker thread: claim a shard, drive it, commit or
/// fail, repeat until every shard is done or the run fails. While idle
/// it runs the farm's timeouts ([`next_action`]) and publishes what
/// they revoke on its own trace track.
fn worker_loop(
    ctx: &DispatchCtx<'_>,
    worker: usize,
    clock: fd_trace::TraceClock,
    trace_config: &fd_trace::TraceConfig,
) -> fd_trace::TrackTrace {
    let tracer = fd_trace::Tracer::new(trace_config, clock, worker as u64 + 1);
    let mut records = Vec::new();
    loop {
        let action = {
            let mut g = lock(ctx.farm);
            let mut action = next_action(&mut g, worker, ctx.options, Instant::now(), &mut records);
            // Sleep without releasing the lock after deciding, so no
            // notify is lost; a sweep's records are published first.
            while records.is_empty() {
                let Action::Wait(timeout) = action else { break };
                g = ctx.cv.wait_timeout(g, timeout).unwrap_or_else(PoisonError::into_inner).0;
                action = next_action(&mut g, worker, ctx.options, Instant::now(), &mut records);
            }
            if !records.is_empty() || action == Action::Exit {
                ctx.cv.notify_all();
            }
            action
        };
        for record in records.drain(..) {
            ctx.publish(&tracer, &record);
        }
        match action {
            Action::Exit => break,
            // The sweep's records are published; decide again.
            Action::Wait(_) => {}
            Action::Probe => {
                let healthy = probe_endpoint(&ctx.options.endpoints[worker], PROBE_TIMEOUT);
                let mut g = lock(ctx.farm);
                match healthy {
                    Ok(()) => {
                        g.workers[worker].needs_probe = false;
                        g.workers[worker].consecutive_failures = 0;
                    }
                    // Still dead: back to the bench, probe again after
                    // the backoff. The original quarantine was already
                    // journaled; re-probing is not a new event.
                    Err(_) => {
                        g.workers[worker].quarantined_until =
                            Some(Instant::now() + ctx.options.quarantine_backoff);
                    }
                }
            }
            Action::Run { shard, generation, reassigned } => {
                ctx.publish(&tracer, &DispatchRecord::Granted { shard, worker, generation });
                if reassigned {
                    tracer.event(|| fd_trace::TraceEvent::ShardReassigned {
                        shard: shard as u64,
                        worker: worker as u64,
                    });
                }
                match run_shard_over_wire(ctx, worker, shard, generation) {
                    Ok(outcomes) => {
                        // Durability order is the whole invariant:
                        // shard journal fsync'd first, ShardDone after.
                        let path = shard_journal_path(ctx.base, shard, ctx.shards);
                        let written = write_complete_journal(
                            &path,
                            ctx.shard_fingerprints[shard],
                            outcomes.iter().map(|(i, o, m)| (*i, o, m)),
                        );
                        if let Err(error) = written {
                            ctx.fail(error);
                            continue;
                        }
                        let won = {
                            let mut g = lock(ctx.farm);
                            remove_lease(&mut g, shard, worker, generation);
                            let won = g.done.insert(shard);
                            if won {
                                g.workers[worker].completed += 1;
                                g.workers[worker].consecutive_failures = 0;
                                g.last_progress = Instant::now();
                            } else {
                                // A straggler race we lost; the shard
                                // journal we rewrote holds identical
                                // bytes, so no harm done.
                                g.wasted += 1;
                            }
                            ctx.cv.notify_all();
                            won
                        };
                        if won && !ctx.journaled_done.contains(&shard) {
                            let apps = outcomes.len();
                            let done =
                                DispatchRecord::ShardDone { shard, worker, generation, apps };
                            ctx.publish(&tracer, &done);
                        }
                    }
                    Err(_reason) => {
                        {
                            let mut g = lock(ctx.farm);
                            // If a sweep revoked the lease first it also
                            // journaled the revocation; only a failure
                            // we discovered ourselves is ours to record.
                            if let Some(lease) = remove_lease(&mut g, shard, worker, generation) {
                                revoke(&mut g, lease, ctx.options, Instant::now(), &mut records);
                                ctx.cv.notify_all();
                            }
                        }
                        for record in records.drain(..) {
                            ctx.publish(&tracer, &record);
                        }
                    }
                }
            }
        }
    }
    tracer.finish()
}

// ---------------------------------------------------------------------------
// Entry point

/// Distinguishes concurrent scratch journals within one process.
static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// Dispatches `source` across `options.endpoints`, drives every shard
/// to completion with lease-based fault tolerance, and merges the shard
/// journals into one run whose `outcome_digest` is byte-identical to an
/// unsharded run of the same corpus and config.
///
/// # Errors
/// [`DispatchError::NoEndpoints`] / [`DispatchError::ResumeWithoutJournal`]
/// for invalid invocations; [`DispatchError::Journal`] when the
/// coordinator journal cannot be created, resumed, or appended;
/// [`DispatchError::Stalled`] when every endpoint is dead and nothing
/// can progress; [`DispatchError::Shard`] when the final merge fails.
pub fn dispatch(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    options: &DispatchOptions,
    trace_config: &fd_trace::TraceConfig,
) -> Result<DispatchRun, DispatchError> {
    if options.endpoints.is_empty() {
        return Err(DispatchError::NoEndpoints);
    }
    if options.resume && options.journal.is_none() {
        return Err(DispatchError::ResumeWithoutJournal);
    }
    let shards = if options.shards == 0 { options.endpoints.len() } else { options.shards };
    let fingerprint = Fingerprint::of(&SuiteSource::Corpus(source), config, 0)
        .map_err(|detail| DispatchError::Source { detail })?;

    let mut ranges = Vec::with_capacity(shards);
    let mut shard_fingerprints = Vec::with_capacity(shards);
    for index in 0..shards {
        let slice = ShardSlice::new(source, shards, index)?;
        let fp = Fingerprint::of(&SuiteSource::Corpus(&slice), config, 0)
            .map_err(|detail| DispatchError::Source { detail })?;
        ranges.push(slice.range());
        shard_fingerprints.push(fp);
    }

    let scratch = options.journal.is_none();
    let base: PathBuf = match &options.journal {
        Some(path) => path.clone(),
        None => std::env::temp_dir().join(format!(
            "fragdroid-dispatch-{}-{}",
            std::process::id(),
            SCRATCH.fetch_add(1, Ordering::Relaxed)
        )),
    };

    let mut done = BTreeSet::new();
    let mut journaled_done = BTreeSet::new();
    let mut resumed_shards = 0usize;
    let writer = match &options.journal {
        None => None,
        Some(path) => {
            let header = DispatchRecord::Header(DispatchHeader {
                version: DISPATCH_JOURNAL_VERSION,
                fingerprint,
                shards,
            });
            let journal = match Journal::open(path, options.resume, &header, 1)? {
                Opened::Created(journal) => journal,
                Opened::Found(scan) => {
                    let loaded = fold(scan)?;
                    if loaded.fingerprint != fingerprint {
                        return Err(DispatchError::Journal(JournalError::FingerprintMismatch {
                            expected: fingerprint,
                            found: loaded.fingerprint,
                        }));
                    }
                    if loaded.shards != shards {
                        return Err(DispatchError::ShardCountMismatch {
                            journal: loaded.shards,
                            requested: shards,
                        });
                    }
                    for &shard in loaded.done.keys() {
                        journaled_done.insert(shard);
                        // ShardDone is a claim, not proof: trust only shard
                        // journals that still load, fingerprint-match, and
                        // cover their whole slice. Anything else re-runs.
                        match load_journal(&shard_journal_path(&base, shard, shards)) {
                            Ok(l)
                                if l.fingerprint == shard_fingerprints[shard]
                                    && l.slots.len() == ranges[shard].len() =>
                            {
                                done.insert(shard);
                                resumed_shards += 1;
                            }
                            _ => {}
                        }
                    }
                    Journal::resume(path, loaded.valid_len, 1)?
                }
            };
            Some(Mutex::new(journal))
        }
    };

    let farm = Mutex::new(Farm::new(shards, done, options.endpoints.len(), Instant::now()));
    let cv = Condvar::new();
    let ctx = DispatchCtx {
        source,
        options,
        shards,
        base: &base,
        shard_fingerprints: &shard_fingerprints,
        ranges: &ranges,
        journaled_done: &journaled_done,
        farm: &farm,
        cv: &cv,
        writer: &writer,
    };

    let clock = fd_trace::TraceClock::start();
    let tracks: Vec<fd_trace::TrackTrace> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.endpoints.len())
            .map(|worker| {
                let ctx = &ctx;
                scope.spawn(move || worker_loop(ctx, worker, clock, trace_config))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("dispatch worker thread must not panic"))
            .collect()
    });

    let summary = {
        let mut g = lock(&farm);
        if let Some(error) = g.fatal.take() {
            return Err(error);
        }
        DispatchSummary {
            shards,
            resumed_shards,
            reassignments: g.reassignments,
            straggler_redispatches: g.stragglers,
            wasted_completions: g.wasted,
            reassignment_latencies_ms: g
                .reassignment_latencies
                .iter()
                .map(|d| d.as_millis() as u64)
                .collect(),
            workers: options
                .endpoints
                .iter()
                .zip(g.workers.iter())
                .map(|(addr, slot)| WorkerStat {
                    endpoint: addr.to_string(),
                    assignments: slot.assignments,
                    shards_completed: slot.completed,
                    failures: slot.failures,
                    quarantines: slot.quarantines,
                })
                .collect(),
        }
    };

    let (merged, _merge_trace) = merge_shards(source, config, 0, &base, shards, trace_config)?;
    if scratch {
        for shard in 0..shards {
            drop(std::fs::remove_file(shard_journal_path(&base, shard, shards)));
        }
    }

    let mut trace = fd_trace::Trace::new("fragdroid-dispatch");
    for track in tracks {
        trace.absorb(track);
    }
    Ok(DispatchRun { merged, summary, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{serve_listener, ServeListener, ServeOptions};
    use crate::suite::{run, SuiteContainer, SuiteOptions};
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn scratch(name: &str) -> PathBuf {
        static NEXT: TestCounter = TestCounter::new(0);
        std::env::temp_dir().join(format!(
            "fragdroid-dispatch-test-{}-{}-{name}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn corpus(n: usize) -> Vec<SuiteContainer> {
        fd_appgen::corpus::corpus_217(41)
            .into_iter()
            .take(n)
            .map(|g| (fd_apk::pack(&g.app), g.known_inputs))
            .collect()
    }

    fn spawn_server(workers: usize) -> (ListenAddr, std::thread::JoinHandle<()>) {
        let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string()))
            .expect("bind a loopback test server");
        let addr = listener.local_addr().clone();
        let options = ServeOptions { workers, ..ServeOptions::default() };
        let handle = std::thread::spawn(move || {
            serve_listener(listener, &options, &fd_trace::TraceConfig::off())
                .expect("test server runs to clean shutdown");
        });
        (addr, handle)
    }

    fn shutdown(addr: &ListenAddr, handle: std::thread::JoinHandle<()>) {
        let mut stream = AnyStream::connect(addr).expect("connect for shutdown");
        stream
            .write_all(&encode_frame(&Envelope { id: u64::MAX, body: ServeRequest::Shutdown }))
            .expect("send shutdown");
        stream.flush().expect("flush shutdown");
        let mut frames = FrameBuffer::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(payload) = frames.next_frame().expect("well-formed reply") {
                let reply: Envelope<ServeResponse> =
                    decode_payload(&payload).expect("decodable reply");
                assert!(matches!(reply.body, ServeResponse::Bye));
                break;
            }
            let n = stream.read(&mut chunk).expect("read shutdown reply");
            assert!(n > 0, "server hung up before Bye");
            frames.push(&chunk[..n]);
        }
        handle.join().expect("test server thread exits");
    }

    #[test]
    fn invalid_invocations_are_typed() {
        let corpus: Vec<SuiteContainer> = Vec::new();
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        assert_eq!(
            dispatch(&corpus, &config, &DispatchOptions::new(Vec::new()), &off).unwrap_err(),
            DispatchError::NoEndpoints
        );
        let mut options = DispatchOptions::new(vec![ListenAddr::Tcp("127.0.0.1:1".to_string())]);
        options.resume = true;
        assert_eq!(
            dispatch(&corpus, &config, &options, &off).unwrap_err(),
            DispatchError::ResumeWithoutJournal
        );
    }

    #[test]
    fn demo_journal_roundtrips_and_counts() {
        let bytes = demo_dispatch_journal(7, 5);
        let parsed = parse_dispatch_journal(&bytes).expect("demo journal parses");
        assert_eq!(parsed.shards, 5);
        assert_eq!(parsed.done.len(), 5);
        assert_eq!(parsed.torn_tail_bytes, 0);
        assert_eq!(parsed.valid_len, bytes.len() as u64);
        assert!(parsed.grants > parsed.done.len() as u64 - 1, "re-grants recorded");
        assert!(parsed.revocations >= 1 && parsed.quarantines >= 1);
        // Every line decodes on its own too.
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let decoded = crate::journal::decode_line::<DispatchRecord>(line);
            assert!(decoded.is_ok(), "each demo line decodes");
        }
    }

    #[test]
    fn parse_failures_are_typed() {
        let bytes = demo_dispatch_journal(3, 4);
        // Torn tail after the header: tolerated and measured.
        let torn = &bytes[..bytes.len() - 3];
        let parsed = parse_dispatch_journal(torn).expect("torn tail is tolerated");
        assert!(parsed.torn_tail_bytes > 0);
        // Torn mid-header: nothing can be trusted.
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        assert!(matches!(
            parse_dispatch_journal(&bytes[..header_end / 2]),
            Err(JournalError::TornTail { .. })
        ));
        // Empty: missing header.
        assert_eq!(parse_dispatch_journal(b""), Err(JournalError::MissingHeader));
        // A flipped payload byte: checksum mismatch at that line.
        let mut corrupt = bytes.clone();
        let target = header_end + 20;
        corrupt[target] ^= 0x01;
        assert!(matches!(
            parse_dispatch_journal(&corrupt),
            Err(JournalError::ChecksumMismatch { .. } | JournalError::BadRecord { .. })
        ));
        // A non-header first record: missing header.
        let second_line = bytes[header_end + 1..].to_vec();
        assert_eq!(parse_dispatch_journal(&second_line), Err(JournalError::MissingHeader));
        // Duplicate ShardDone: DuplicateIndex.
        let mut dup = String::from_utf8(bytes.clone()).unwrap();
        dup.push_str(&encode_line(&DispatchRecord::ShardDone {
            shard: 0,
            worker: 0,
            generation: 99,
            apps: 2,
        }));
        assert_eq!(
            parse_dispatch_journal(dup.as_bytes()),
            Err(JournalError::DuplicateIndex { index: 0 })
        );
        // ShardDone outside the split: IndexOutOfRange.
        let mut oob = String::from_utf8(bytes.clone()).unwrap();
        oob.push_str(&encode_line(&DispatchRecord::ShardDone {
            shard: 9,
            worker: 0,
            generation: 99,
            apps: 2,
        }));
        assert_eq!(
            parse_dispatch_journal(oob.as_bytes()),
            Err(JournalError::IndexOutOfRange { index: 9, total: 4 })
        );
        // A future format version is refused.
        let future = encode_line(&DispatchRecord::Header(DispatchHeader {
            version: DISPATCH_JOURNAL_VERSION + 1,
            fingerprint: Fingerprint {
                apps: 1,
                corpus_digest: 2,
                config_digest: 3,
                flake_retries: 0,
            },
            shards: 1,
        }));
        assert_eq!(
            parse_dispatch_journal(future.as_bytes()),
            Err(JournalError::VersionMismatch { found: DISPATCH_JOURNAL_VERSION + 1 })
        );
    }

    #[test]
    fn dispatched_digest_matches_unsharded_run() {
        let corpus = corpus(6);
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let options = SuiteOptions { workers: 2, ..SuiteOptions::default() };
        let (reference, _) =
            run(SuiteSource::Corpus(&corpus), &config, &options).expect("no journal");
        let reference = reference.run;

        let (addr_a, server_a) = spawn_server(1);
        let (addr_b, server_b) = spawn_server(1);
        let mut options = DispatchOptions::new(vec![addr_a.clone(), addr_b.clone()]);
        options.shards = 3;
        let run = dispatch(&corpus, &config, &options, &off).expect("dispatch completes");
        shutdown(&addr_a, server_a);
        shutdown(&addr_b, server_b);

        assert_eq!(run.merged.run.outcome_digest(), reference.outcome_digest());
        assert_eq!(run.summary.shards, 3);
        assert_eq!(run.summary.resumed_shards, 0);
        let completed: usize = run.summary.workers.iter().map(|w| w.shards_completed).sum();
        assert_eq!(completed, 3, "every shard committed exactly once");
    }

    #[test]
    fn dead_endpoint_is_quarantined_and_its_shards_reassigned() {
        let corpus = corpus(4);
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let options = SuiteOptions { workers: 2, ..SuiteOptions::default() };
        let (reference, _) =
            run(SuiteSource::Corpus(&corpus), &config, &options).expect("no journal");
        let reference = reference.run;

        let (live, server) = spawn_server(1);
        // Port 1 on loopback is essentially never bound: instant refusal.
        let dead = ListenAddr::Tcp("127.0.0.1:1".to_string());
        let mut options = DispatchOptions::new(vec![dead, live.clone()]);
        options.shards = 2;
        options.job_deadline = Duration::from_secs(5);
        options.job_attempts = 2;
        options.quarantine_backoff = Duration::from_millis(100);
        options.stall_timeout = Duration::from_secs(60);
        let run = dispatch(&corpus, &config, &options, &off).expect("dispatch completes");
        shutdown(&live, server);

        assert_eq!(run.merged.run.outcome_digest(), reference.outcome_digest());
        assert!(
            run.summary.workers[0].failures > 0,
            "the dead endpoint must have recorded failures: {:?}",
            run.summary
        );
        assert_eq!(
            run.summary.workers[1].shards_completed, 2,
            "the live endpoint completes everything: {:?}",
            run.summary
        );
    }

    #[test]
    fn wedged_endpoint_shard_is_taken_over_while_its_holder_blocks() {
        let corpus = corpus(4);
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let options = SuiteOptions { workers: 2, ..SuiteOptions::default() };
        let (reference, _) =
            run(SuiteSource::Corpus(&corpus), &config, &options).expect("no journal");
        let reference = reference.run;

        let (live, server) = spawn_server(1);
        // Held open but never accepted from: the kernel completes every
        // handshake and nothing ever replies, so a job sent there blocks
        // until its client gives up.
        let wedged = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a wedged listener");
        let wedged_addr = wedged.local_addr().expect("wedged listener address").to_string();
        let mut options = DispatchOptions::new(vec![ListenAddr::Tcp(wedged_addr), live.clone()]);
        options.shards = 2;
        options.lease_timeout = Duration::from_secs(2);
        options.job_attempts = 1;
        options.job_deadline = Duration::from_secs(3);
        let run = dispatch(&corpus, &config, &options, &off).expect("dispatch completes");
        shutdown(&live, server);
        drop(wedged);

        assert_eq!(run.merged.run.outcome_digest(), reference.outcome_digest());
        assert!(run.summary.workers[0].assignments > 0, "the wedged endpoint held a lease");
        assert_eq!(
            run.summary.workers[1].shards_completed, 2,
            "the live endpoint commits every shard: {:?}",
            run.summary
        );
    }

    #[test]
    fn idle_workers_sweep_expiry_stragglers_and_stalls() {
        let t0 = Instant::now();
        let at = |secs: u64| t0 + Duration::from_secs(secs);
        let secs = Duration::from_secs;
        let mut options = DispatchOptions::new(Vec::new());
        options.lease_timeout = secs(10);
        options.stall_timeout = secs(100);
        options.quarantine_backoff = secs(30);
        let mut records = Vec::new();
        let granted = |shard, generation| Action::Run { shard, generation, reassigned: false };

        // Straggler backup: only once the queue is empty and the lease
        // is at least lease_timeout / 2 old; the wait ends at that mark.
        let mut g = Farm::new(2, BTreeSet::new(), 3, t0);
        assert_eq!(next_action(&mut g, 0, &options, at(0), &mut records), granted(0, 0));
        assert_eq!(next_action(&mut g, 1, &options, at(2), &mut records), granted(1, 1));
        assert_eq!(next_action(&mut g, 2, &options, at(4), &mut records), Action::Wait(secs(1)));
        assert_eq!(g.stragglers, 0);
        assert_eq!(next_action(&mut g, 2, &options, at(5), &mut records), granted(0, 2));
        assert_eq!(g.stragglers, 1);
        // A queued shard holds the backup back; a benched worker waits
        // for the earliest of expiry (4 s), stall and its quarantine.
        let mut g = Farm::new(3, BTreeSet::new(), 3, t0);
        assert_eq!(next_action(&mut g, 0, &options, at(0), &mut records), granted(0, 0));
        assert_eq!(next_action(&mut g, 1, &options, at(0), &mut records), granted(1, 1));
        g.workers[2].quarantined_until = Some(at(40));
        assert_eq!(next_action(&mut g, 2, &options, at(6), &mut records), Action::Wait(secs(4)));
        assert_eq!((g.stragglers, g.pending.iter().copied().collect::<Vec<_>>()), (0, vec![2]));
        assert!(records.is_empty());

        // Lease expiry: requeued at the front, a failure against the
        // holder, Revoked journaled, and Quarantined once it is benched.
        options.quarantine_after = 1;
        assert_eq!(next_action(&mut g, 2, &options, at(10), &mut records), Action::Wait(secs(30)));
        assert_eq!(g.pending.iter().copied().collect::<Vec<_>>(), vec![1, 0, 2]);
        assert_eq!((g.workers[0].failures, g.workers[1].failures), (1, 1));
        assert_eq!(g.workers[0].quarantined_until, Some(at(40)));
        assert!(matches!(
            records[..],
            [
                DispatchRecord::Revoked { shard: 0, worker: 0, generation: 0 },
                DispatchRecord::Quarantined { worker: 0 },
                DispatchRecord::Revoked { shard: 1, worker: 1, generation: 1 },
                DispatchRecord::Quarantined { worker: 1 },
            ]
        ));
        g.workers[2].quarantined_until = None;
        let regrant = next_action(&mut g, 2, &options, at(11), &mut records);
        assert_eq!(regrant, Action::Run { shard: 1, generation: 2, reassigned: true });
        assert_eq!(g.reassignment_latencies, vec![secs(1)]);

        // Stall: no grant, job or completion for stall_timeout.
        let mut g = Farm::new(1, BTreeSet::new(), 1, t0);
        g.workers[0].quarantined_until = Some(at(200));
        assert_eq!(next_action(&mut g, 0, &options, at(99), &mut records), Action::Wait(secs(1)));
        assert_eq!(next_action(&mut g, 0, &options, at(100), &mut records), Action::Exit);
        assert!(matches!(g.fatal, Some(DispatchError::Stalled { completed: 0, shards: 1, .. })));
    }

    #[test]
    fn resume_skips_validated_shards_and_preserves_the_digest() {
        let corpus = corpus(4);
        let config = FragDroidConfig::default();
        let off = fd_trace::TraceConfig::off();
        let journal = scratch("resume");

        let (addr, server) = spawn_server(1);
        let mut options = DispatchOptions::new(vec![addr.clone()]);
        options.shards = 2;
        options.journal = Some(journal.clone());
        let first = dispatch(&corpus, &config, &options, &off).expect("first dispatch");

        // A second fresh run refuses the existing journal.
        assert!(matches!(
            dispatch(&corpus, &config, &options, &off),
            Err(DispatchError::Journal(JournalError::AlreadyExists { .. }))
        ));

        // Resume re-validates both shard journals and re-runs nothing.
        options.resume = true;
        let second = dispatch(&corpus, &config, &options, &off).expect("resumed dispatch");
        shutdown(&addr, server);
        assert_eq!(second.summary.resumed_shards, 2);
        assert_eq!(
            second.summary.workers[0].assignments, 0,
            "nothing re-leased on a complete journal"
        );
        assert_eq!(second.merged.run.outcome_digest(), first.merged.run.outcome_digest());

        for shard in 0..2 {
            drop(std::fs::remove_file(shard_journal_path(&journal, shard, 2)));
        }
        drop(std::fs::remove_file(&journal));
    }
}
