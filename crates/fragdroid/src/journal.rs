//! The crash-safe, append-only journal under the checkpoint
//! ([`crate::checkpoint`]), serve job ([`mod@crate::serve`]) and
//! dispatch coordinator ([`mod@crate::dispatch`]) logs, which keep only
//! their record enums and per-record folds. One record per line,
//! `"<fnv16hex> <json>\n"`, the checksum over the JSON payload. Only an
//! unterminated final line is a torn tail (dropped); any other damage
//! is a typed [`JournalError`]. Creation is atomic, resume truncates
//! the torn tail, and appends group-commit with the first failure
//! latched (DESIGN.md §16).

use crate::checkpoint::{fnv1a, JournalError, FNV_OFFSET};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// One journal line's payload. Every journal starts with exactly one
/// header record.
pub trait Record: serde::Serialize + serde::Deserialize {
    /// The format version when this record is a header, `None` for
    /// every other record.
    fn header_version(&self) -> Option<u64>;
}

// ---------------------------------------------------------------------------
// Line codec

/// Encodes one record as `"<fnv16hex> <json>\n"`, appended to `out`.
/// `json` is a caller-owned scratch buffer: the record streams into it
/// (no `Value` tree, no per-record `String`), the checksum is taken over
/// it, and both buffers keep their capacity for the next record.
pub(crate) fn encode_line_into<T: serde::Serialize + ?Sized>(
    record: &T,
    json: &mut String,
    out: &mut String,
) {
    use std::fmt::Write as _;
    json.clear();
    serde::Serialize::write_json(record, json);
    let _ = write!(out, "{:016x} ", fnv1a(FNV_OFFSET, json.as_bytes()));
    out.push_str(json);
    out.push('\n');
}

/// One-shot [`encode_line_into`] for cold paths (demo journals, tests).
pub(crate) fn encode_line<T: serde::Serialize + ?Sized>(record: &T) -> String {
    let mut out = String::new();
    encode_line_into(record, &mut String::new(), &mut out);
    out
}

/// Why one complete line did not decode.
pub(crate) enum LineError {
    /// The checksum prefix does not match the payload.
    Checksum,
    /// The line shape or JSON payload is invalid.
    Malformed(String),
}

/// Decodes one newline-stripped journal line.
pub(crate) fn decode_line<T: serde::Deserialize>(line: &[u8]) -> Result<T, LineError> {
    if line.len() < 18 || line[16] != b' ' {
        return Err(LineError::Malformed("line shorter than checksum prefix".into()));
    }
    let hex = std::str::from_utf8(&line[..16])
        .map_err(|_| LineError::Malformed("non-UTF-8 checksum".into()))?;
    // The writer emits exactly lowercase hex; accepting any other form
    // would let a flipped bit in the checksum field itself go unnoticed.
    if hex.bytes().any(|b| !matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(LineError::Malformed(format!("non-canonical checksum field '{hex}'")));
    }
    let expected = u64::from_str_radix(hex, 16)
        .map_err(|_| LineError::Malformed(format!("bad checksum field '{hex}'")))?;
    let payload = &line[17..];
    if fnv1a(FNV_OFFSET, payload) != expected {
        return Err(LineError::Checksum);
    }
    let json = std::str::from_utf8(payload)
        .map_err(|_| LineError::Malformed("non-UTF-8 payload".into()))?;
    serde_json::from_str(json).map_err(|e| LineError::Malformed(e.to_string()))
}

// ---------------------------------------------------------------------------
// Scanning

/// A journal's bytes, scanned.
pub(crate) struct Scan<R> {
    /// The first record, a header of the expected version.
    pub header: R,
    /// Every later record with its 1-based line number.
    pub records: Vec<(usize, R)>,
    /// Length of the complete-record prefix, in bytes.
    pub valid_len: u64,
    /// Bytes of torn tail past `valid_len` (0 for a clean journal).
    pub torn_tail_bytes: u64,
}

/// The one line scanner: each line is decoded as its newline arrives,
/// so every chunking of the bytes yields the same [`Scan`].
pub(crate) struct Scanner<R> {
    /// The unterminated line so far.
    partial: Vec<u8>,
    /// Complete lines seen.
    line: usize,
    valid_len: u64,
    records: Vec<(usize, R)>,
}

impl<R: Record> Scanner<R> {
    pub(crate) fn new() -> Self {
        Scanner { partial: Vec::new(), line: 0, valid_len: 0, records: Vec::new() }
    }

    /// Feeds the next bytes. A complete line that does not decode is a
    /// typed error at its 1-based line number.
    pub(crate) fn feed(&mut self, mut chunk: &[u8]) -> Result<(), JournalError> {
        while let Some(newline) = chunk.iter().position(|&b| b == b'\n') {
            self.line += 1;
            let line_len = self.partial.len() + newline + 1;
            let decoded = if self.partial.is_empty() {
                decode_line(&chunk[..newline])
            } else {
                self.partial.extend_from_slice(&chunk[..newline]);
                let decoded = decode_line(&self.partial);
                self.partial.clear();
                decoded
            };
            let record = decoded.map_err(|error| match error {
                LineError::Checksum => JournalError::ChecksumMismatch { line: self.line },
                LineError::Malformed(error) => JournalError::BadRecord { line: self.line, error },
            })?;
            self.records.push((self.line, record));
            self.valid_len += line_len as u64;
            chunk = &chunk[newline + 1..];
        }
        self.partial.extend_from_slice(chunk);
        Ok(())
    }

    /// Ends the scan: the unterminated rest is the torn tail, the first
    /// record must be a `version` header, and no later record may be one.
    pub(crate) fn finish(self, version: u64) -> Result<Scan<R>, JournalError> {
        let torn_tail_bytes = self.partial.len() as u64;
        let mut records = self.records.into_iter();
        let header = match records.next() {
            Some((_, header)) => match header.header_version() {
                Some(found) if found == version => header,
                Some(found) => return Err(JournalError::VersionMismatch { found }),
                None => return Err(JournalError::MissingHeader),
            },
            // Bytes but not one complete record: the header itself is
            // torn, so nothing about the file can be trusted.
            None if torn_tail_bytes > 0 => {
                return Err(JournalError::TornTail { bytes: torn_tail_bytes })
            }
            None => return Err(JournalError::MissingHeader),
        };
        let records: Vec<(usize, R)> = records.collect();
        if let Some((line, _)) = records.iter().find(|(_, r)| r.header_version().is_some()) {
            let error = "second header record".to_string();
            return Err(JournalError::BadRecord { line: *line, error });
        }
        Ok(Scan { header, records, valid_len: self.valid_len, torn_tail_bytes })
    }
}

/// Scans a whole journal held in memory.
pub(crate) fn scan<R: Record>(data: &[u8], version: u64) -> Result<Scan<R>, JournalError> {
    let mut scanner = Scanner::new();
    scanner.feed(data)?;
    scanner.finish(version)
}

// ---------------------------------------------------------------------------
// Writing

/// What [`Journal::open`] found at the path.
pub(crate) enum Opened<R> {
    /// No journal existed; a fresh one now holds just the header.
    Created(Journal<R>),
    /// An existing journal, scanned, for the caller to check and fold
    /// before [`Journal::resume`]. A refused journal is never modified.
    Found(Scan<R>),
}

/// An open journal, positioned for appending.
pub(crate) struct Journal<R> {
    file: File,
    path: PathBuf,
    /// Encoded-but-unwritten lines (`pending` of them), one write.
    buf: String,
    /// Reusable per-record JSON scratch (see [`encode_line_into`]).
    json: String,
    pending: usize,
    fsync_every: usize,
    /// The first write or fsync failure; once set, nothing is written.
    failed: Option<JournalError>,
    record: PhantomData<fn(&R)>,
}

impl<R: Record> Journal<R> {
    /// Opens the journal at `path`: a missing one is created with
    /// `header` as its first line; an existing one is refused
    /// ([`JournalError::AlreadyExists`]) unless `resume`, and then
    /// scanned against `header`'s version.
    pub(crate) fn open(
        path: &Path,
        resume: bool,
        header: &R,
        fsync_every: usize,
    ) -> Result<Opened<R>, JournalError> {
        if !path.exists() {
            return Journal::create(path, header, fsync_every).map(Opened::Created);
        }
        if !resume {
            return Err(JournalError::AlreadyExists { path: path.display().to_string() });
        }
        let data = std::fs::read(path).map_err(|e| JournalError::io(path, "read", e))?;
        scan(&data, header.header_version().unwrap_or_default()).map(Opened::Found)
    }

    /// Creates (or atomically replaces) the journal at `path` holding
    /// just `header`: tmp file, fsync, rename, directory fsync. A crash
    /// at any point leaves either the old file or the new header.
    pub(crate) fn create(
        path: &Path,
        header: &R,
        fsync_every: usize,
    ) -> Result<Self, JournalError> {
        let io = JournalError::io;
        let tmp = PathBuf::from(format!("{}.tmp", path.display()));
        {
            let mut file = File::create(&tmp).map_err(|e| io(&tmp, "create", e))?;
            file.write_all(encode_line(header).as_bytes())
                .map_err(|e| io(&tmp, "write header", e))?;
            file.sync_all().map_err(|e| io(&tmp, "fsync header", e))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| io(path, "rename into place", e))?;
        // Until the directory entry is on stable storage a crash can
        // lose the rename, so a failure here is an error, not a shrug.
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
            File::open(dir)
                .and_then(|handle| handle.sync_all())
                .map_err(|e| io(dir, "fsync directory", e))?;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io(path, "open for append", e))?;
        Ok(Journal::over(file, path, fsync_every))
    }

    /// Reopens a scanned journal for appending, first truncating (and
    /// fsyncing) away everything past its `valid_len`.
    pub(crate) fn resume(
        path: &Path,
        valid_len: u64,
        fsync_every: usize,
    ) -> Result<Self, JournalError> {
        let io = JournalError::io;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io(path, "open for append", e))?;
        if file.metadata().map_err(|e| io(path, "stat", e))?.len() > valid_len {
            file.set_len(valid_len).map_err(|e| io(path, "truncate torn tail", e))?;
            file.sync_all().map_err(|e| io(path, "fsync truncation", e))?;
        }
        Ok(Journal::over(file, path, fsync_every))
    }

    /// A journal over an already-positioned append handle.
    fn over(file: File, path: &Path, fsync_every: usize) -> Self {
        Journal {
            file,
            path: path.to_path_buf(),
            buf: String::new(),
            json: String::new(),
            pending: 0,
            fsync_every,
            failed: None,
            record: PhantomData,
        }
    }

    /// Appends one record — an `R`, or any value that serializes as one
    /// (a borrowed mirror, say) — and group-commits when the batch fills.
    pub(crate) fn append<T: serde::Serialize + ?Sized>(
        &mut self,
        record: &T,
    ) -> Result<(), JournalError> {
        self.latched()?;
        encode_line_into(record, &mut self.json, &mut self.buf);
        self.pending += 1;
        if self.pending >= self.fsync_every.max(1) {
            self.sync()?;
        }
        Ok(())
    }

    /// Group commit: the batch as one `write_all` plus one `sync_data`
    /// (the file is append-only, so data plus size is all that must
    /// reach stable storage). The first failure is latched.
    pub(crate) fn sync(&mut self) -> Result<(), JournalError> {
        self.latched()?;
        if self.pending == 0 {
            return Ok(());
        }
        let (file, path) = (&mut self.file, &self.path);
        let written = file
            .write_all(self.buf.as_bytes())
            .map_err(|e| JournalError::io(path, "append", e))
            .and_then(|()| file.sync_data().map_err(|e| JournalError::io(path, "fsync", e)));
        self.buf.clear();
        self.pending = 0;
        if let Err(error) = &written {
            self.failed = Some(error.clone());
        }
        written
    }

    /// The latched failure, if any.
    fn latched(&self) -> Result<(), JournalError> {
        self.failed.clone().map_or(Ok(()), Err)
    }
}

// ---------------------------------------------------------------------------
// Raw replay, for tools (the fd-fuzz `journal` target)

/// The three on-disk journal formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalKind {
    /// The suite checkpoint journal ([`crate::load_journal`]).
    Checkpoint,
    /// The `fragdroid serve` job journal.
    Serve,
    /// The dispatch coordinator journal ([`crate::parse_dispatch_journal`]).
    Dispatch,
}

/// What a raw replay found: records (header included), valid-prefix
/// bytes, torn-tail bytes.
pub type Replayed = (usize, u64, u64);

impl JournalKind {
    /// Every kind.
    pub const ALL: [JournalKind; 3] =
        [JournalKind::Checkpoint, JournalKind::Serve, JournalKind::Dispatch];

    /// Replays `data` as this kind, fed to the scanner `chunk` bytes at
    /// a time (0: all at once), then folded as a resume folds it.
    pub fn replay(self, data: &[u8], chunk: usize) -> Result<Replayed, JournalError> {
        use crate::{checkpoint, dispatch, serve::journal as serve};
        match self {
            JournalKind::Checkpoint => {
                replay_with(data, chunk, checkpoint::JOURNAL_VERSION, checkpoint::fold)
            }
            JournalKind::Serve => replay_with(data, chunk, serve::JOB_JOURNAL_VERSION, serve::fold),
            JournalKind::Dispatch => {
                replay_with(data, chunk, dispatch::DISPATCH_JOURNAL_VERSION, dispatch::fold)
            }
        }
    }

    /// A small well-formed journal of about `records` records (fuzz
    /// seeds). Pure: no clock, no filesystem.
    pub fn demo(self, seed: u64, records: usize) -> Vec<u8> {
        match self {
            JournalKind::Checkpoint => crate::checkpoint::demo_journal(seed, records),
            JournalKind::Serve => crate::serve::journal::demo_journal(seed, records),
            JournalKind::Dispatch => crate::dispatch::demo_dispatch_journal(seed, records),
        }
    }
}

fn replay_with<R: Record, T>(
    data: &[u8],
    chunk: usize,
    version: u64,
    fold: impl FnOnce(Scan<R>) -> Result<T, JournalError>,
) -> Result<Replayed, JournalError> {
    let mut scanner = Scanner::new();
    for piece in data.chunks(if chunk == 0 { data.len().max(1) } else { chunk }) {
        scanner.feed(piece)?;
    }
    let scan = scanner.finish(version)?;
    let replayed = (scan.records.len() + 1, scan.valid_len, scan.torn_tail_bytes);
    fold(scan)?;
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    enum TestRecord {
        Header { version: u64 },
        Entry { value: u64 },
    }

    impl Record for TestRecord {
        fn header_version(&self) -> Option<u64> {
            match self {
                TestRecord::Header { version } => Some(*version),
                TestRecord::Entry { .. } => None,
            }
        }
    }

    fn line(record: &TestRecord) -> String {
        let (mut json, mut out) = (String::new(), String::new());
        encode_line_into(record, &mut json, &mut out);
        out
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fd-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn scan_policy_only_forgives_an_unterminated_tail() {
        let mut text = line(&TestRecord::Header { version: 1 });
        for value in 0..3 {
            text.push_str(&line(&TestRecord::Entry { value }));
        }
        let bytes = text.as_bytes();
        let clean = scan::<TestRecord>(bytes, 1).expect("clean journal scans");
        assert_eq!((clean.records.len(), clean.torn_tail_bytes), (3, 0));
        assert_eq!(clean.valid_len, bytes.len() as u64);

        // Every chunking scans identically.
        for chunk in [1, 2, 7, 64] {
            let mut scanner = Scanner::<TestRecord>::new();
            for piece in bytes.chunks(chunk) {
                scanner.feed(piece).expect("feeds");
            }
            let chunked = scanner.finish(1).expect("finishes");
            assert_eq!(chunked.records, clean.records, "chunk size {chunk}");
        }

        let torn = scan::<TestRecord>(&bytes[..bytes.len() - 3], 1).expect("torn tail tolerated");
        assert_eq!(torn.records.len(), 2);
        assert_eq!(torn.valid_len + torn.torn_tail_bytes, bytes.len() as u64 - 3);

        // A damaged *complete* line is an error, wherever it sits.
        let mut corrupt = bytes.to_vec();
        let second_line = text.find('\n').expect("header line") + 30;
        corrupt[second_line] ^= 1;
        assert!(matches!(
            scan::<TestRecord>(&corrupt, 1),
            Err(JournalError::ChecksumMismatch { line: 2 })
        ));

        assert!(matches!(
            scan::<TestRecord>(bytes, 2),
            Err(JournalError::VersionMismatch { found: 1 })
        ));
        assert!(matches!(scan::<TestRecord>(b"", 1), Err(JournalError::MissingHeader)));
        assert!(matches!(
            scan::<TestRecord>(&bytes[..5], 1),
            Err(JournalError::TornTail { bytes: 5 })
        ));
        let headless = line(&TestRecord::Entry { value: 1 });
        assert!(matches!(
            scan::<TestRecord>(headless.as_bytes(), 1),
            Err(JournalError::MissingHeader)
        ));
        let twice = format!("{0}{0}", line(&TestRecord::Header { version: 1 }));
        assert!(matches!(
            scan::<TestRecord>(twice.as_bytes(), 1),
            Err(JournalError::BadRecord { line: 2, .. })
        ));
    }

    #[test]
    fn open_creates_refuses_and_resumes() {
        let path = scratch("open.journal");
        let header = TestRecord::Header { version: 1 };
        let Ok(Opened::Created(mut journal)) = Journal::open(&path, false, &header, 2) else {
            panic!("a missing journal is created");
        };
        journal.append(&TestRecord::Entry { value: 1 }).expect("append");
        journal.sync().expect("sync");
        drop(journal);
        assert!(matches!(
            Journal::open(&path, false, &header, 2),
            Err(JournalError::AlreadyExists { .. })
        ));

        // A torn tail is reported by the scan and truncated by resume.
        let clean_len = std::fs::metadata(&path).expect("meta").len();
        let mut torn = std::fs::read(&path).expect("read");
        torn.extend_from_slice(b"0123456789abcdef {\"Ent");
        std::fs::write(&path, &torn).expect("tear");
        let Ok(Opened::Found(scan)) = Journal::open(&path, true, &header, 2) else {
            panic!("an existing journal is scanned on resume");
        };
        assert_eq!((scan.records.len(), scan.torn_tail_bytes), (1, 22));
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), torn.len() as u64);
        let journal = Journal::<TestRecord>::resume(&path, scan.valid_len, 2).expect("resume");
        drop(journal);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), clean_len);
        let _ = std::fs::remove_file(&path);
    }

    /// A failed append latches: the second append returns the same
    /// error and writes nothing.
    #[test]
    fn append_failure_is_latched() {
        let path = scratch("latch.journal");
        std::fs::write(&path, line(&TestRecord::Header { version: 1 })).expect("seed");
        let len = std::fs::metadata(&path).expect("meta").len();
        let read_only = File::open(&path).expect("read-only handle");
        let mut journal = Journal::<TestRecord>::over(read_only, &path, 1);
        let first = journal.append(&TestRecord::Entry { value: 1 }).expect_err("read-only");
        assert!(matches!(first, JournalError::Io { op: "append", .. }));
        let second = journal.append(&TestRecord::Entry { value: 2 }).expect_err("latched");
        assert_eq!(second, first);
        assert_eq!(journal.sync(), Err(first));
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), len, "nothing written");
        let _ = std::fs::remove_file(&path);
    }
}
