//! End-to-end tests of the farm coordinator against the *real*
//! `fragdroid` binary: `dispatch --connect` must drive three child
//! `serve` worker processes — one of them SIGKILLed mid-run — to a
//! rendered Table 1 whose outcome digest is byte-identical to the
//! unsharded `corpus` run, and `--json` must emit the machine-readable
//! metrics + farm summary pair.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::Duration;

fn fragdroid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fragdroid"))
        .args(args)
        .output()
        .expect("spawn fragdroid binary")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "fragdroid failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fd-dispatch-socket-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// The `outcome digest: 0x…` line of a rendered run.
fn digest_line(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.starts_with("outcome digest:"))
        .unwrap_or_else(|| panic!("no outcome digest line in:\n{stdout}"))
        .to_string()
}

/// A `fragdroid serve --listen 127.0.0.1:0` child worker plus the
/// resolved address parsed from its "listening on" banner.
struct ServeProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    spec: String,
}

impl ServeProc {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fragdroid"))
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fragdroid serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read the listening banner");
        let spec = line
            .trim()
            .strip_prefix("serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
            .to_string();
        ServeProc { child, stdout, spec }
    }

    /// SIGKILL — the worker-machine crash dispatch must survive.
    fn kill(mut self) {
        self.child.kill().expect("kill serve worker");
        let _ = self.child.wait();
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
    }
}

fn cleanup_journals(checkpoint: &std::path::Path, shards: usize) {
    for shard in 0..shards {
        drop(std::fs::remove_file(fragdroid::shard_journal_path(checkpoint, shard, shards)));
    }
    drop(std::fs::remove_file(checkpoint));
}

#[test]
fn three_workers_one_sigkilled_mid_run_still_render_table1_with_the_unsharded_digest() {
    // The digest the farm must reproduce: the same corpus slice run
    // unsharded in one process.
    let reference = digest_line(&stdout_of(&fragdroid(&["corpus", "--limit", "4"])));

    let workers: Vec<ServeProc> = (0..3).map(|_| ServeProc::spawn()).collect();
    let connect = workers.iter().map(|w| w.spec.as_str()).collect::<Vec<_>>().join(",");
    let checkpoint = tmp("sigkill.journal");
    drop(std::fs::remove_file(&checkpoint));

    // Chaos on the submit transport slows the run enough that the
    // SIGKILL below lands mid-shard instead of after the finish line.
    let dispatch = Command::new(env!("CARGO_BIN_EXE_fragdroid"))
        .args(["dispatch", "--connect", &connect, "--limit", "4", "--shards", "4"])
        .args(["--checkpoint", checkpoint.to_str().unwrap()])
        .args(["--chaos-seed", "7"])
        .args(["--quarantine-backoff-ms", "300", "--job-retries", "64"])
        .args(["--job-timeout-ms", "120000"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fragdroid dispatch");

    std::thread::sleep(Duration::from_millis(1500));
    let mut workers = workers;
    workers.pop().expect("three workers spawned").kill();

    let out = dispatch.wait_with_output().expect("dispatch exits");
    for worker in workers {
        worker.kill();
    }
    let stdout = stdout_of(&out);

    // Table 1 rendered straight from the merged farm run …
    assert!(stdout.contains("Package Name"), "Table 1 header missing:\n{stdout}");
    assert!(stdout.contains("FiVA:Rate"), "Table 1 coverage columns missing:\n{stdout}");
    assert!(stdout.contains("AVERAGE"), "Table 1 averages row missing:\n{stdout}");
    // … plus the farm appendix …
    assert!(stdout.contains("endpoint"), "farm appendix missing:\n{stdout}");
    assert!(stdout.contains("dispatch: 4 shards"), "farm counters missing:\n{stdout}");
    // … and the digest is byte-identical to the unsharded run.
    assert_eq!(digest_line(&stdout), reference, "merged digest diverged:\n{stdout}");

    cleanup_journals(&checkpoint, 4);
}

#[test]
fn json_mode_emits_metrics_and_farm_summary() {
    let workers: Vec<ServeProc> = (0..3).map(|_| ServeProc::spawn()).collect();
    let connect = workers.iter().map(|w| w.spec.as_str()).collect::<Vec<_>>().join(",");

    let out =
        fragdroid(&["dispatch", "--connect", &connect, "--limit", "3", "--shards", "3", "--json"]);
    for worker in workers {
        worker.kill();
    }
    let stdout = stdout_of(&out);

    fn field<'a>(value: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
        value.as_object().and_then(|object| object.get(key))
    }
    fn uint(value: &serde_json::Value) -> Option<u64> {
        match value {
            serde_json::Value::Number(number) => number.as_u64(),
            _ => None,
        }
    }
    let value: serde_json::Value = serde_json::from_str(stdout.trim()).expect("json output");
    let summary = field(&value, "dispatch").expect("dispatch summary present");
    assert_eq!(field(summary, "shards").and_then(uint), Some(3), "{stdout}");
    assert_eq!(field(summary, "resumed_shards").and_then(uint), Some(0), "{stdout}");
    assert_eq!(
        field(summary, "workers").and_then(|w| w.as_array()).map(|w| w.len()),
        Some(3),
        "one worker stat per endpoint: {stdout}"
    );
    assert_eq!(
        field(&value, "metrics")
            .and_then(|m| field(m, "apps"))
            .and_then(|a| a.as_array())
            .map(|a| a.len()),
        Some(3),
        "three apps in the merged metrics: {stdout}"
    );
}
