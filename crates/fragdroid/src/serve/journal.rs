//! The serve job journal: a [`crate::journal`] of every accepted
//! submission and every finished result, so a killed server restarts
//! where it died. A `Header` binds the config digest; one `Submitted`
//! per job is fsynced **before** the client sees `Accepted`; one
//! `Completed` per job is fsynced before the in-memory table flips to
//! done. Recovery serves `Completed` jobs byte-identically, re-queues
//! `Submitted`-only ones (the engine is deterministic) and truncates a
//! torn tail; a corrupt *complete* line is a typed error and the file
//! is left untouched.

use crate::checkpoint::JournalError;
use crate::journal::{encode_line, Journal, Opened, Record, Scan};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Job-journal format version; bumped whenever a record shape changes
/// incompatibly.
pub(crate) const JOB_JOURNAL_VERSION: u64 = 1;

/// One journal line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) enum JobRecord {
    /// First line of every journal.
    Header { config_digest: u64, version: u64 },
    /// An accepted submission, written before the `Accepted` reply.
    Submitted { container_hex: String, digest: u64, inputs: BTreeMap<String, String>, job: u64 },
    /// A finished job: `ok` selects report (`true`) vs refusal.
    Completed { job: u64, ok: bool, payload: String },
}

impl Record for JobRecord {
    fn header_version(&self) -> Option<u64> {
        match self {
            JobRecord::Header { version, .. } => Some(*version),
            JobRecord::Submitted { .. } | JobRecord::Completed { .. } => None,
        }
    }
}

/// One job restored from the journal.
pub(crate) struct RecoveredJob {
    pub job: u64,
    pub digest: u64,
    pub container_hex: String,
    pub inputs: BTreeMap<String, String>,
    /// `Some` when a `Completed` record survived: `Ok(report_json)` or
    /// `Err(refusal)`. `None` means the job must be re-queued.
    pub result: Option<Result<String, String>>,
}

/// Everything recovery found.
#[derive(Default)]
pub(crate) struct Recovery {
    /// Restored jobs in job-id order.
    pub jobs: Vec<RecoveredJob>,
    /// Bytes of torn tail truncated away (0 for a clean journal).
    pub torn_tail_bytes: u64,
}

/// An open job journal. Every record is fsynced on its own; after a
/// failed append every later one returns the same error until restart.
pub(crate) type JobJournal = Journal<JobRecord>;

impl JobJournal {
    /// Opens the journal at `path`, recovering its contents, or creates
    /// a fresh one when the path does not exist.
    pub fn open_or_create(
        path: &Path,
        config_digest: u64,
    ) -> Result<(JobJournal, Recovery), JournalError> {
        let header = JobRecord::Header { config_digest, version: JOB_JOURNAL_VERSION };
        let scan = match Journal::open(path, true, &header, 1)? {
            Opened::Created(journal) => return Ok((journal, Recovery::default())),
            Opened::Found(scan) => scan,
        };
        if let JobRecord::Header { config_digest: found, .. } = scan.header {
            if found != config_digest {
                return Err(JournalError::FingerprintMismatch {
                    expected: digest_fingerprint(config_digest),
                    found: digest_fingerprint(found),
                });
            }
        }
        let (valid_len, torn_tail_bytes) = (scan.valid_len, scan.torn_tail_bytes);
        let jobs = fold(scan)?;
        Ok((Journal::resume(path, valid_len, 1)?, Recovery { jobs, torn_tail_bytes }))
    }

    /// Appends (and fsyncs) one `Submitted` record. Called before the
    /// `Accepted` reply — an error here refuses the submission.
    pub fn append_submitted(
        &mut self,
        job: u64,
        digest: u64,
        container_hex: &str,
        inputs: &BTreeMap<String, String>,
    ) -> Result<(), JournalError> {
        self.append(&JobRecord::Submitted {
            container_hex: container_hex.to_string(),
            digest,
            inputs: inputs.clone(),
            job,
        })
    }

    /// Appends (and fsyncs) one `Completed` record.
    pub fn append_completed(
        &mut self,
        job: u64,
        ok: bool,
        payload: &str,
    ) -> Result<(), JournalError> {
        self.append(&JobRecord::Completed { job, ok, payload: payload.to_string() })
    }
}

/// Folds a scanned job journal into its job table, in job-id order.
pub(crate) fn fold(scan: Scan<JobRecord>) -> Result<Vec<RecoveredJob>, JournalError> {
    let mut jobs: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
    for (line, record) in scan.records {
        match record {
            // The scanner refuses a second header.
            JobRecord::Header { .. } => {}
            JobRecord::Submitted { container_hex, digest, inputs, job } => {
                if jobs.contains_key(&job) {
                    return Err(JournalError::DuplicateIndex { index: job as usize });
                }
                jobs.insert(job, RecoveredJob { job, digest, container_hex, inputs, result: None });
            }
            JobRecord::Completed { job, ok, payload } => {
                let Some(entry) = jobs.get_mut(&job) else {
                    return Err(JournalError::BadRecord {
                        line,
                        error: format!("Completed record for unsubmitted job {job}"),
                    });
                };
                entry.result = Some(if ok { Ok(payload) } else { Err(payload) });
            }
        }
    }
    Ok(jobs.into_values().collect())
}

/// A small, well-formed job journal for fuzz seeds: a header, `jobs`
/// submissions, and a completion (report or refusal) for every other
/// one. Pure — no clock, no filesystem.
pub(crate) fn demo_journal(seed: u64, jobs: usize) -> Vec<u8> {
    let mut out =
        encode_line(&JobRecord::Header { config_digest: seed, version: JOB_JOURNAL_VERSION });
    for job in 0..jobs as u64 {
        let inputs = BTreeMap::from([("field".to_string(), format!("value-{seed}"))]);
        let container_hex = format!("{:016x}", seed ^ job);
        let digest = seed.wrapping_add(job);
        out.push_str(&encode_line(&JobRecord::Submitted { container_hex, digest, inputs, job }));
        if job % 2 == 0 {
            let (ok, payload) = (job % 4 == 0, format!("{{\"job\":{job}}}"));
            out.push_str(&encode_line(&JobRecord::Completed { job, ok, payload }));
        }
    }
    out.into_bytes()
}

/// Wraps a bare config digest in the checkpoint [`Fingerprint`] shape
/// so the mismatch error renders through the same Display path. The
/// job journal has no corpus or flake budget, so those fields are 0.
///
/// [`Fingerprint`]: crate::checkpoint::Fingerprint
fn digest_fingerprint(config_digest: u64) -> crate::checkpoint::Fingerprint {
    crate::checkpoint::Fingerprint { apps: 0, corpus_digest: 0, config_digest, flake_retries: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fd-serve-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn inputs() -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("field".to_string(), "value".to_string());
        m
    }

    #[test]
    fn create_append_recover_round_trip() {
        let path = tmp("roundtrip.jobs");
        let _ = std::fs::remove_file(&path);
        let (mut journal, recovery) = JobJournal::open_or_create(&path, 7).expect("create");
        assert!(recovery.jobs.is_empty());
        journal.append_submitted(3, 11, "aabb", &inputs()).expect("submit 3");
        journal.append_submitted(1, 12, "ccdd", &BTreeMap::new()).expect("submit 1");
        journal.append_completed(3, true, "{\"report\":1}").expect("complete 3");
        drop(journal);

        let (_journal, recovery) = JobJournal::open_or_create(&path, 7).expect("recover");
        assert_eq!(recovery.torn_tail_bytes, 0);
        assert_eq!(recovery.jobs.len(), 2);
        // Job-id order: job 1 (pending) then job 3 (completed).
        assert_eq!(recovery.jobs[0].job, 1);
        assert!(recovery.jobs[0].result.is_none());
        assert_eq!(recovery.jobs[0].container_hex, "ccdd");
        assert_eq!(recovery.jobs[1].job, 3);
        assert_eq!(recovery.jobs[1].digest, 11);
        assert_eq!(recovery.jobs[1].inputs, inputs());
        assert_eq!(recovery.jobs[1].result, Some(Ok("{\"report\":1}".to_string())));
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let path = tmp("torn.jobs");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = JobJournal::open_or_create(&path, 1).expect("create");
        journal.append_submitted(0, 5, "aa", &BTreeMap::new()).expect("submit");
        journal.append_completed(0, false, "refused").expect("complete");
        drop(journal);

        let clean_len = std::fs::metadata(&path).expect("meta").len();
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"0123456789abcdef torn-half-written-line");
        std::fs::write(&path, &bytes).expect("tear");

        let (_journal, recovery) = JobJournal::open_or_create(&path, 1).expect("recover");
        assert_eq!(recovery.torn_tail_bytes, 39);
        assert_eq!(recovery.jobs.len(), 1);
        assert_eq!(recovery.jobs[0].result, Some(Err("refused".to_string())));
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), clean_len, "tail truncated");
    }

    /// A checksum-failing *complete* line is corruption, not a torn
    /// tail: recovery refuses it typed and leaves every durable record
    /// after it on disk.
    #[test]
    fn mid_file_corruption_is_typed_and_the_file_untouched() {
        let path = tmp("corrupt.jobs");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = JobJournal::open_or_create(&path, 5).expect("create");
        journal.append_submitted(1, 10, "aa", &inputs()).expect("submit 1");
        journal.append_submitted(2, 20, "bb", &BTreeMap::new()).expect("submit 2");
        journal.append_completed(1, true, "{}").expect("complete 1");
        drop(journal);

        let mut bytes = std::fs::read(&path).expect("read");
        let line_two = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
        bytes[line_two + 20] ^= 1;
        std::fs::write(&path, &bytes).expect("corrupt");
        let len = bytes.len() as u64;

        assert!(matches!(
            JobJournal::open_or_create(&path, 5),
            Err(JournalError::ChecksumMismatch { line: 2 })
        ));
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), len, "file untouched");
    }

    #[test]
    fn config_mismatch_and_version_are_refused() {
        let path = tmp("mismatch.jobs");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = JobJournal::open_or_create(&path, 42).expect("create");
        drop(journal);
        match JobJournal::open_or_create(&path, 43) {
            Err(JournalError::FingerprintMismatch { expected, found }) => {
                assert_eq!(expected.config_digest, 43);
                assert_eq!(found.config_digest, 42);
            }
            other => panic!("expected FingerprintMismatch, got {other:?}", other = other.err()),
        }
    }

    /// A job journal written by an earlier build (one completed job,
    /// one pending) recovers to the same job table.
    #[test]
    fn fixture_recovers_to_the_same_jobs() {
        let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve.jobs");
        let path = tmp("fixture.jobs");
        std::fs::copy(&fixture, &path).expect("copy fixture");
        let (_journal, recovery) = JobJournal::open_or_create(&path, 0x5eed).expect("recover");
        assert_eq!(recovery.torn_tail_bytes, 0);
        let jobs: Vec<_> = recovery
            .jobs
            .iter()
            .map(|j| (j.job, j.digest, j.container_hex.as_str(), j.inputs.len(), j.result.clone()))
            .collect();
        let report = "{\n  \"package\": \"com.example.fixture\"\n}".to_string();
        assert_eq!(
            jobs,
            vec![(4, 0xabcd, "46444150", 1, Some(Ok(report))), (9, 0x1234, "46444151", 0, None)]
        );
        assert_eq!(recovery.jobs[0].inputs["username"], "alice");
        assert_eq!(std::fs::read(&path).ok(), std::fs::read(&fixture).ok(), "file untouched");
    }

    #[test]
    fn completed_without_submitted_is_a_bad_record() {
        let path = tmp("orphan.jobs");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = JobJournal::open_or_create(&path, 9).expect("create");
        journal.append_completed(8, true, "{}").expect("orphan complete");
        drop(journal);
        assert!(matches!(
            JobJournal::open_or_create(&path, 9),
            Err(JournalError::BadRecord { line: 2, .. })
        ));
    }
}
