//! Library backing the `fragdroid` command-line interface (testable
//! without spawning the binary).
//!
//! ```text
//! fragdroid gen <out.fapk> [--template NAME | --random --seed N --size N]
//! fragdroid info <app.fapk>
//! fragdroid static <app.fapk> [--inputs inputs.json]
//! fragdroid dot <app.fapk>
//! fragdroid run <app.fapk> [--inputs inputs.json] [--budget N] [--fault-rate R] [--fault-seed N] [--json]
//! fragdroid dump <app.fapk>
//! fragdroid fuzz [--seed N] [--mutants N] [--target T] [--out DIR]
//! fragdroid templates
//! ```
//!
//! `.fapk` files are the binary APK containers of `fd-apk`; `gen` writes
//! one (alongside an `<out>.inputs.json` with the known gate secrets) so
//! every other subcommand has something to chew on.

use bytes::Bytes;
use std::collections::BTreeMap;

pub mod args;
pub mod cmds;

/// A CLI failure, carrying the process exit code it maps to.
///
/// The split lets scripts (and CI) distinguish quarantined *inputs* and
/// broken *checkpoints* from *tool* failures: a malformed container
/// exits with code 2, a journal problem (fingerprint mismatch, corrupt
/// record, unwritable checkpoint) with code 3, every other error with
/// code 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// Generic failure (bad usage, IO, internal error) — exit code 1.
    Failure(String),
    /// Input rejected at the ingestion frontier (malformed or
    /// packer-protected container) — exit code 2.
    Rejected(String),
    /// Checkpoint journal error (corrupt or mismatched journal, full
    /// disk mid-append, refused overwrite) — exit code 3.
    Checkpoint(String),
    /// Shard error (invalid split, or a missing/incomplete/mismatched
    /// shard journal) — exit code 4.
    Shard(String),
    /// Serve service error (bad listen address, socket/session failure,
    /// job journal problem, or an exhausted/conflicted submit client) —
    /// exit code 5.
    Serve(String),
    /// Dispatch coordinator error (no endpoints, a coordinator-journal
    /// problem, or a stalled farm) — exit code 6.
    Dispatch(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Failure(_) => 1,
            CliError::Rejected(_) => 2,
            CliError::Checkpoint(_) => 3,
            CliError::Shard(_) => 4,
            CliError::Serve(_) => 5,
            CliError::Dispatch(_) => 6,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Failure(message) => write!(f, "{message}"),
            CliError::Rejected(message) => write!(f, "rejected input: {message}"),
            CliError::Checkpoint(message) => write!(f, "checkpoint: {message}"),
            CliError::Shard(message) => write!(f, "shard merge: {message}"),
            CliError::Serve(message) => write!(f, "serve: {message}"),
            CliError::Dispatch(message) => write!(f, "dispatch: {message}"),
        }
    }
}

impl From<fragdroid::JournalError> for CliError {
    fn from(error: fragdroid::JournalError) -> Self {
        CliError::Checkpoint(error.to_string())
    }
}

impl From<fragdroid::ShardError> for CliError {
    fn from(error: fragdroid::ShardError) -> Self {
        CliError::Shard(error.to_string())
    }
}

impl From<fragdroid::ServeError> for CliError {
    fn from(error: fragdroid::ServeError) -> Self {
        CliError::Serve(error.to_string())
    }
}

impl From<fragdroid::ClientError> for CliError {
    fn from(error: fragdroid::ClientError) -> Self {
        CliError::Serve(error.to_string())
    }
}

impl From<fragdroid::DispatchError> for CliError {
    fn from(error: fragdroid::DispatchError) -> Self {
        // Shard and journal causes keep their own exit codes so scripts
        // can tell a broken merge from a dead farm.
        match error {
            fragdroid::DispatchError::Shard(e) => CliError::Shard(e.to_string()),
            fragdroid::DispatchError::Journal(e) => {
                CliError::Checkpoint(format!("coordinator journal: {e}"))
            }
            other => CliError::Dispatch(other.to_string()),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failure(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Failure(message.to_string())
    }
}

/// Dispatches one CLI invocation (everything after the binary name).
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "gen" => cmds::gen(rest),
        "info" => cmds::info(rest),
        "static" => cmds::static_info(rest),
        "dot" => cmds::dot(rest),
        "run" => cmds::run(rest),
        "dump" => cmds::dump(rest),
        "unpack" => cmds::unpack(rest),
        "replay" => cmds::replay(rest),
        "java" => cmds::java(rest),
        "repack" => cmds::repack(rest),
        "corpus" => cmds::corpus(rest),
        "gen-corpus" => cmds::gen_corpus(rest),
        "serve" => cmds::serve(rest),
        "submit" => cmds::submit(rest),
        "dispatch" => cmds::dispatch(rest),
        "device-agent" => cmds::device_agent(rest),
        "fuzz" => cmds::fuzz(rest),
        "trace" => cmds::trace(rest),
        "templates" => {
            println!("quickstart\nfig1-tabs\nfig2-drawer");
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => {
            Err(CliError::Failure(format!("unknown subcommand '{other}' (try 'fragdroid help')")))
        }
    }
}

fn print_usage() {
    println!(
        "fragdroid — Fragment-aware automated UI exploration (DSN'18 reproduction)

USAGE:
  fragdroid gen <out.fapk> [--template NAME] [--random] [--seed N] [--size N]
  fragdroid info <app.fapk>               manifest, classes, layouts, metadata
  fragdroid static <app.fapk> [--inputs F]  static extraction as JSON
  fragdroid dot <app.fapk>                initial AFTM as Graphviz DOT
  fragdroid run <app.fapk> [--inputs F] [--budget N] [--json] [--find-api g/n]
                [--fault-rate R] [--fault-seed N] [--trace-out T.jsonl]
                [--checkpoint J] [--resume] [--flake-retries N]
                [--backend in-process|subprocess|mock-adb]
                                          full exploration + coverage report
  fragdroid dump <app.fapk>               launch and print the UI hierarchy
  fragdroid unpack <app.fapk> --out DIR   apktool-style decompile to a directory
  fragdroid repack <DIR> --out <app.fapk> rebuild a container from a directory
  fragdroid replay <app.fapk> <trace.json> replay a recorded session (R&R)
  fragdroid java <app.fapk> [--inputs F]  emit the generated Robotium test class
  fragdroid corpus [--seed N] [--limit N] [--workers N] [--deadline-ms N]
                [--fault-rate R] [--fault-seed N] [--json] [--trace-out T.jsonl]
                [--checkpoint J] [--resume] [--flake-retries N] [--app-budget N]
                [--backend B] [--agent-die-after N] [--corpus DIR]
                [--shards N --shard-index I | --shards N --merge]
                                          run the synthetic corpus on the suite runner
                                          (journal progress to J; --resume continues
                                          an interrupted journal; --app-budget stops
                                          after N fresh apps, leaving J partial;
                                          --agent-die-after kills each lane's first
                                          subprocess agent after N requests to
                                          exercise device-pool recovery;
                                          --corpus streams an on-disk gen-corpus
                                          directory instead of the in-memory 217;
                                          --shards/--shard-index runs one shard
                                          journaling to J.shard-I-of-N; --merge
                                          combines the per-shard journals into the
                                          single-run report + outcome digest)
  fragdroid gen-corpus <DIR> [--apps N] [--seed N] [--profile tiny|paper]
                [--shard-size N]
                                          write a seeded synthetic corpus to DIR as
                                          sharded packed containers + manifest
  fragdroid serve [--workers N] [--budget N] [--fault-rate R] [--fault-seed N]
                [--backend B] [--trace-out T.jsonl] [--listen ADDR]
                [--journal J] [--queue-cap N] [--max-conns N]
                [--idle-timeout-ms N] [--write-timeout-ms N]
                                          job-queue mode: submit a container frame,
                                          poll the job id for the same report bytes
                                          'run --json' prints. Default is a single
                                          stdin/stdout session; --listen (unix:PATH
                                          or HOST:PORT) serves many concurrent
                                          socket sessions with a bounded queue
                                          (Busy + retry-after when full), a
                                          connection cap, idle timeouts, and
                                          graceful drain on Shutdown; --journal
                                          makes admission crash-safe — a restarted
                                          server recovers submitted jobs and serves
                                          finished reports byte-identically
  fragdroid submit <app.fapk> --connect ADDR [--job N] [--inputs F] [--async]
                [--timeout-ms N] [--retries N] [--chaos-seed N]
                                          submit one container to a serve socket
                                          with retry + exponential backoff, print
                                          the report JSON (or wait only for the
                                          durable accept with --async); job ids are
                                          idempotent resubmission keys
  fragdroid dispatch --connect ADDR[,ADDR...] [--seed N] [--limit N]
                [--corpus DIR] [--shards N] [--checkpoint J] [--resume]
                [--deadline-ms N] [--fault-rate R] [--fault-seed N]
                [--lease-timeout-ms N] [--heartbeat-ms N] [--stall-timeout-ms N]
                [--quarantine-after N] [--quarantine-backoff-ms N]
                [--job-timeout-ms N] [--job-retries N] [--jitter-seed N]
                [--chaos-seed N] [--json] [--trace-out T.jsonl]
                                          farm coordinator: shard the corpus
                                          across serve endpoints with
                                          time-bounded leases, heartbeat
                                          probes, quarantine, and automatic
                                          reassignment; merges the shard
                                          journals to the unsharded outcome
                                          digest, renders Table 1 from the
                                          merged run plus a per-worker
                                          dispatch summary; --checkpoint J
                                          journals coordinator progress and
                                          --resume survives SIGKILL of the
                                          coordinator itself (endpoints must
                                          run the same engine config)
  fragdroid device-agent [--die-after N]  serve the device wire protocol on
                                          stdin/stdout (spawned by the subprocess
                                          backend; not for interactive use)
  fragdroid fuzz [--seed N] [--mutants N]
                [--target container|smali|json|protocol|corpus|serve|journal]
                [--out DIR] [--trace-out T.jsonl] [--json]
                                          deterministic ingestion-frontier fuzz campaign
  fragdroid trace <trace.jsonl> [--json]  per-phase/per-app profile of a trace
  fragdroid templates                     list template names for 'gen'

EXIT CODES:
  0  success
  1  failure (bad usage, IO error, internal error, fuzz violation)
  2  input rejected at the ingestion frontier (malformed/packed container)
  3  checkpoint journal error (corrupt or mismatched journal, refused
     overwrite, unwritable checkpoint path)
  4  shard error (invalid split, or a missing, incomplete, or
     fingerprint-mismatched shard journal)
  5  serve error (bad listen address, socket failure, job-journal
     corruption, or a submit client out of retries/conflicted)
  6  dispatch error (no endpoints, resume without a checkpoint, shard
     count mismatch, or a stalled farm with every endpoint dead)"
    );
}

/// Reads and decompiles a container file.
///
/// (Used by the subcommands; public so tests can drive them directly.)
pub fn load_app(path: &str) -> Result<fd_apk::AndroidApp, CliError> {
    load_app_traced(path, &fd_trace::Tracer::disabled())
}

/// [`load_app`] under a tracer, so `--trace-out` runs capture the
/// decompile phase too.
///
/// A container the decoder refuses maps to [`CliError::Rejected`] (exit
/// code 2) with a one-line diagnostic carrying the typed error and, when
/// the error tracks one, the byte offset it was detected at. An
/// unreadable file stays a plain [`CliError::Failure`].
pub fn load_app_traced(
    path: &str,
    tracer: &fd_trace::Tracer,
) -> Result<fd_apk::AndroidApp, CliError> {
    let raw =
        std::fs::read(path).map_err(|e| CliError::Failure(format!("cannot read {path}: {e}")))?;
    fd_apk::decompile_traced(&Bytes::from(raw), tracer).map_err(|e| {
        let at = e.offset().map(|o| format!(" (at byte {o})")).unwrap_or_default();
        CliError::Rejected(format!("{path}: {e}{at}"))
    })
}

/// Writes a drained trace to `path` (JSON Lines) and `<path>.chrome.json`
/// (Chrome `trace_event` format for `chrome://tracing` / Perfetto).
pub fn write_trace(path: &str, trace: &fd_trace::Trace) -> Result<(), String> {
    std::fs::write(path, trace.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    let chrome_path = format!("{path}.chrome.json");
    std::fs::write(&chrome_path, fd_trace::chrome::to_chrome_json(trace))
        .map_err(|e| format!("cannot write {chrome_path}: {e}"))?;
    eprintln!("trace: {path} (JSONL) and {chrome_path} (chrome://tracing)");
    Ok(())
}

/// Reads an optional `--inputs` JSON file (widget-ID → value map).
pub fn load_inputs(path: Option<&str>) -> Result<BTreeMap<String, String>, String> {
    match path {
        None => Ok(BTreeMap::new()),
        Some(p) => {
            let raw = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            serde_json::from_str(&raw).map_err(|e| format!("bad inputs file {p}: {e}"))
        }
    }
}
