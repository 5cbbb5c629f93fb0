//! The serve job journal: a [`crate::journal`] of every accepted
//! submission and every finished result, so a killed server restarts
//! where it died. A `Header` binds the config digest; one `Submitted`
//! per job is fsynced **before** the client sees `Accepted`; one
//! `Completed` per job is fsynced before the in-memory table flips to
//! done. Recovery serves `Completed` jobs byte-identically, re-queues
//! `Submitted`-only ones (the engine is deterministic) and truncates a
//! torn tail; a corrupt *complete* line is a typed error and the file
//! is left untouched.
//!
//! A clean drain compacts the journal ([`JobJournal::compact`]): every
//! job is settled by then, so the file is atomically rewritten as the
//! header plus one `Settled` record per job, dropping the container hex
//! each `Submitted` carried. Restart cost then follows the job table,
//! not the traffic history.

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
    /// A compacted job: its `Submitted` and `Completed` in one record.
    Settled { job: u64, digest: u64, ok: bool, payload: String },
}

impl Record for JobRecord {
    fn header_version(&self) -> Option<u64> {
        match self {
            JobRecord::Header { version, .. } => Some(*version),
            JobRecord::Submitted { .. }
            | JobRecord::Completed { .. }
            | JobRecord::Settled { .. } => None,
        }
    }
}

/// One job restored from the journal.
pub(crate) struct RecoveredJob {
    pub job: u64,
    pub digest: u64,
    /// Empty for a `Settled` job: it never runs again.
    pub container_hex: String,
    pub inputs: BTreeMap<String, String>,
    /// `Some` when a `Completed` record survived: `Ok(report_json)` or
    /// `Err(refusal)`. `None` means the job must be re-queued.
    pub result: Option<Result<String, String>>,
}

/// Everything recovery found.
pub(crate) struct Recovery {
    /// Restored jobs in job-id order.
    pub jobs: Vec<RecoveredJob>,
    /// Bytes of torn tail truncated away (0 for a clean journal).
    pub torn_tail_bytes: u64,
    /// The journal is already compact: no record but the header and
    /// `Settled` ones (true for a fresh journal).
    pub compact: bool,
}

impl Default for Recovery {
    fn default() -> Self {
        Recovery { jobs: Vec::new(), torn_tail_bytes: 0, compact: true }
    }
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
        let compact = scan.records.iter().all(|(_, r)| matches!(r, JobRecord::Settled { .. }));
        let jobs = fold(scan)?;
        Ok((Journal::resume(path, valid_len, 1)?, Recovery { jobs, torn_tail_bytes, compact }))
    }

    /// Atomically rewrites the journal at `path` as the header plus one
    /// `Settled` record per `(job, digest, result)`, in the given order.
    /// The caller guarantees every job is settled; the old file stays in
    /// place until the new one is complete and durable.
    pub fn compact<'a>(
        path: &Path,
        config_digest: u64,
        jobs: impl IntoIterator<Item = (u64, u64, &'a Result<String, String>)>,
    ) -> Result<(), JournalError> {
        let header = JobRecord::Header { config_digest, version: JOB_JOURNAL_VERSION };
        let settled = jobs.into_iter().map(|(job, digest, result)| {
            let (ok, payload) = match result {
                Ok(json) => (true, json.clone()),
                Err(reason) => (false, reason.clone()),
            };
            JobRecord::Settled { job, digest, ok, payload }
        });
        Journal::replace(path, &header, settled)
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
            JobRecord::Settled { job, digest, ok, payload } => {
                if jobs.contains_key(&job) {
                    return Err(JournalError::DuplicateIndex { index: job as usize });
                }
                let result = Some(if ok { Ok(payload) } else { Err(payload) });
                let (container_hex, inputs) = (String::new(), BTreeMap::new());
                jobs.insert(job, RecoveredJob { job, digest, container_hex, inputs, result });
            }
        }
    }
    Ok(jobs.into_values().collect())
}

/// A small, well-formed job journal for fuzz seeds: a header, a
/// compacted prefix of `Settled` jobs, then `jobs` submissions and a
/// completion (report or refusal) for every other one. Pure — no
/// clock, no filesystem.
pub(crate) fn demo_journal(seed: u64, jobs: usize) -> Vec<u8> {
    let mut out =
        encode_line(&JobRecord::Header { config_digest: seed, version: JOB_JOURNAL_VERSION });
    let settled = (jobs as u64 / 2).max(1);
    for job in 0..settled {
        let (ok, payload) = (job % 2 == 0, format!("{{\"settled\":{job}}}"));
        let digest = seed.wrapping_sub(job);
        out.push_str(&encode_line(&JobRecord::Settled { job, digest, ok, payload }));
    }
    for job in settled..settled + jobs as u64 {
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

    /// `(job, digest, result)` of one job: what compaction keeps.
    type Row = (u64, u64, Option<Result<String, String>>);

    fn table(recovery: &Recovery) -> Vec<Row> {
        recovery.jobs.iter().map(|j| (j.job, j.digest, j.result.clone())).collect()
    }

    /// A small settled journal: two reports, one refusal.
    fn settled_journal(path: &Path) {
        let _ = std::fs::remove_file(path);
        let (mut journal, _) = JobJournal::open_or_create(path, 3).expect("create");
        journal.append_submitted(2, 20, "aa", &inputs()).expect("submit 2");
        journal.append_submitted(1, 10, "bb", &BTreeMap::new()).expect("submit 1");
        journal.append_submitted(5, 50, "cc", &BTreeMap::new()).expect("submit 5");
        journal.append_completed(1, true, "{\n  \"report\": \"one\"\n}").expect("complete 1");
        journal.append_completed(5, false, "refused: \"packed\"").expect("complete 5");
        journal.append_completed(2, true, "{}").expect("complete 2");
    }

    /// Compacts the journal at `path` from its own recovered table.
    fn compact_in_place(path: &Path) {
        let (_journal, recovery) = JobJournal::open_or_create(path, 3).expect("recover");
        let jobs =
            recovery.jobs.iter().map(|j| (j.job, j.digest, j.result.as_ref().expect("settled")));
        JobJournal::compact(path, 3, jobs).expect("compact");
    }

    #[test]
    fn compaction_keeps_the_job_table_and_only_settled_records() {
        let path = tmp("compact.jobs");
        settled_journal(&path);
        let original_len = std::fs::metadata(&path).expect("meta").len();
        let (_journal, before) = JobJournal::open_or_create(&path, 3).expect("recover original");
        assert!(!before.compact);
        compact_in_place(&path);
        let (_journal, after) = JobJournal::open_or_create(&path, 3).expect("recover compacted");
        assert!(after.compact);
        assert_eq!(table(&after), table(&before));
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 4, "header plus one record per job");
        assert!(text.lines().skip(1).all(|l| l.contains("\"Settled\"")));
        assert!((text.len() as u64) < original_len);
        assert!(!crate::journal::tmp_path(&path).exists(), "the temp file was renamed");

        // Compacting a compacted journal changes nothing.
        compact_in_place(&path);
        assert_eq!(std::fs::read_to_string(&path).expect("read"), text);

        // Appends after a compacting restart fold on top of it.
        let (mut journal, _) = JobJournal::open_or_create(&path, 3).expect("reopen");
        journal.append_submitted(7, 70, "dd", &BTreeMap::new()).expect("submit 7");
        drop(journal);
        let (_journal, grown) = JobJournal::open_or_create(&path, 3).expect("recover grown");
        assert!(!grown.compact);
        assert_eq!(grown.jobs.len(), 4);
        assert!(grown.jobs[3].result.is_none(), "job 7 re-queues");
        assert_eq!(grown.jobs[3].container_hex, "dd");
    }

    /// A crash mid-compaction leaves a partial temp file next to the
    /// untouched journal: at every byte offset of the temp file, the
    /// journal recovers exactly as before, and the next compaction
    /// overwrites the leftover.
    #[test]
    fn a_torn_compaction_temp_file_leaves_the_original_recovering() {
        let path = tmp("torn-compact.jobs");
        settled_journal(&path);
        let original = std::fs::read(&path).expect("read original");
        let (_journal, before) = JobJournal::open_or_create(&path, 3).expect("recover original");
        compact_in_place(&path);
        let compacted = std::fs::read(&path).expect("read compacted");
        let tmp_file = crate::journal::tmp_path(&path);
        for cut in 0..=compacted.len() {
            std::fs::write(&path, &original).expect("restore original");
            std::fs::write(&tmp_file, &compacted[..cut]).expect("partial temp file");
            let (_journal, recovered) = JobJournal::open_or_create(&path, 3).expect("recover");
            assert_eq!(table(&recovered), table(&before), "temp file cut at {cut}");
            assert_eq!(std::fs::read(&path).expect("read"), original, "cut at {cut}");
        }
        compact_in_place(&path);
        assert_eq!(std::fs::read(&path).expect("read"), compacted);
        assert!(!tmp_file.exists());
    }

    /// A compacted journal written by an earlier build (the settled
    /// twin of `serve.jobs`: job 4's report, job 9 refused) recovers to
    /// the same jobs, and compacting that table again reproduces it
    /// byte for byte.
    #[test]
    fn compacted_fixture_recovers_to_the_same_jobs() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        let fixture = std::fs::read(dir.join("serve-compacted.jobs")).expect("fixture");
        let path = tmp("compacted-fixture.jobs");
        std::fs::write(&path, &fixture).expect("copy fixture");
        let (_journal, recovery) = JobJournal::open_or_create(&path, 0x5eed).expect("recover");
        assert!(recovery.compact);
        let report = "{\n  \"package\": \"com.example.fixture\"\n}".to_string();
        let refusal = "bad container hex: odd length".to_string();
        assert_eq!(
            table(&recovery),
            vec![(4, 0xabcd, Some(Ok(report))), (9, 0x1234, Some(Err(refusal)))]
        );
        assert_eq!(std::fs::read(&path).expect("read"), fixture, "file untouched");
        let jobs =
            recovery.jobs.iter().map(|j| (j.job, j.digest, j.result.as_ref().expect("settled")));
        JobJournal::compact(&path, 0x5eed, jobs).expect("compact");
        assert_eq!(std::fs::read(&path).expect("read"), fixture, "same bytes");
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
