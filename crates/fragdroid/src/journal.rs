//! The crash-safe, append-only journal under the checkpoint
//! ([`crate::checkpoint`]), serve job ([`mod@crate::serve`]) and
//! dispatch coordinator ([`mod@crate::dispatch`]) logs, which keep only
//! their record enums and per-record folds. One record per line,
//! `"<fnv16hex> <json>\n"`, the checksum over the JSON payload. Only an
//! unterminated final line is a torn tail (dropped); any other damage
//! is a typed [`JournalError`]. Creation is atomic, resume truncates
//! the torn tail, and appends group-commit with the first failure
//! latched (DESIGN.md §16). A journal of [`PARALLEL_SCAN_MIN`] bytes or
//! more is scanned in newline-aligned parts on scoped threads: lines
//! are independent, so the parts decode in parallel and merge into the
//! same [`Scan`] (or the same first error) as one serial pass.

use crate::checkpoint::{fnv1a, JournalError, FNV_OFFSET};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// One journal line's payload. Every journal starts with exactly one
/// header record.
pub trait Record: serde::Serialize + serde::Deserialize + Send {
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

/// Journals at least this large are scanned in parallel parts.
pub(crate) const PARALLEL_SCAN_MIN: u64 = 1 << 20;

/// Bytes one scan part reads at a time.
const SCAN_BLOCK: u64 = 1 << 20;

/// Bytes a split probes at a time for the next newline.
const SPLIT_PROBE: u64 = 64 << 10;

/// Scans a whole journal held in memory: serially below
/// [`PARALLEL_SCAN_MIN`], else in one part per available core.
pub(crate) fn scan<R: Record>(data: &[u8], version: u64) -> Result<Scan<R>, JournalError> {
    scan_source(data, version, default_parts(data.len() as u64))
}

/// Scans the journal at `path` like [`scan`], reading each part in
/// [`SCAN_BLOCK`]-byte blocks instead of holding the file in memory.
pub(crate) fn scan_file<R: Record>(path: &Path, version: u64) -> Result<Scan<R>, JournalError> {
    let file = File::open(path).map_err(|e| JournalError::io(path, "open", e))?;
    let len = file.metadata().map_err(|e| JournalError::io(path, "stat", e))?.len();
    scan_source(&FileSource { file, len, path }, version, default_parts(len))
}

/// Scans `data` in up to `parts` parts whatever its size (tests and
/// fuzzing reach the parallel path through this).
pub(crate) fn scan_in_parts<R: Record>(
    data: &[u8],
    version: u64,
    parts: usize,
) -> Result<Scan<R>, JournalError> {
    scan_source(data, version, parts)
}

fn default_parts(len: u64) -> usize {
    if len >= PARALLEL_SCAN_MIN {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        1
    }
}

/// Random-access journal bytes: a buffer, or a file read on demand.
trait Source: Sync {
    fn size(&self) -> u64;
    /// Fills `buf` with the bytes at offset `at`.
    fn read_at(&self, buf: &mut [u8], at: u64) -> Result<(), JournalError>;
}

impl Source for [u8] {
    fn size(&self) -> u64 {
        self.len() as u64
    }

    fn read_at(&self, buf: &mut [u8], at: u64) -> Result<(), JournalError> {
        let at = at as usize;
        buf.copy_from_slice(&self[at..at + buf.len()]);
        Ok(())
    }
}

struct FileSource<'a> {
    file: File,
    len: u64,
    path: &'a Path,
}

impl Source for FileSource<'_> {
    fn size(&self) -> u64 {
        self.len
    }

    fn read_at(&self, buf: &mut [u8], at: u64) -> Result<(), JournalError> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, at).map_err(|e| JournalError::io(self.path, "read", e))
    }
}

/// Scans `source` in up to `parts` newline-aligned parts, each on its
/// own scoped thread, and merges them in order. Every part but the last
/// ends at a newline, so only the last can hold a torn tail, and the
/// result (records, line numbers, lengths, or the first error and its
/// line) equals a serial scan's.
fn scan_source<R: Record>(
    source: &(impl Source + ?Sized),
    version: u64,
    parts: usize,
) -> Result<Scan<R>, JournalError> {
    let bounds = split_at_lines(source, parts)?;
    if let [start, end] = bounds[..] {
        return scan_range(source, start, end)?.finish(version);
    }
    let scanned: Vec<Result<Scanner<R>, JournalError>> = std::thread::scope(|scope| {
        let rest: Vec<_> = bounds[1..]
            .windows(2)
            .map(|range| scope.spawn(move || scan_range(source, range[0], range[1])))
            .collect();
        let mut scanned = vec![scan_range(source, bounds[0], bounds[1])];
        for handle in rest {
            scanned.push(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        scanned
    });
    let mut merged = Scanner::new();
    for part in scanned {
        // A part counts lines from 1; every earlier part scanned clean,
        // so its error sits `merged.line` lines further down the file.
        let part = part.map_err(|error| match error {
            JournalError::ChecksumMismatch { line } => {
                JournalError::ChecksumMismatch { line: line + merged.line }
            }
            JournalError::BadRecord { line, error } => {
                JournalError::BadRecord { line: line + merged.line, error }
            }
            other => other,
        })?;
        let offset = merged.line;
        merged.records.extend(part.records.into_iter().map(|(line, r)| (line + offset, r)));
        merged.line += part.line;
        merged.valid_len += part.valid_len;
        merged.partial = part.partial;
    }
    merged.finish(version)
}

/// Scans `source[start..end]`, read in blocks.
fn scan_range<R: Record>(
    source: &(impl Source + ?Sized),
    start: u64,
    end: u64,
) -> Result<Scanner<R>, JournalError> {
    let mut scanner = Scanner::new();
    let mut block = vec![0; SCAN_BLOCK.min(end - start) as usize];
    let mut at = start;
    while at < end {
        let n = block.len().min((end - at) as usize);
        source.read_at(&mut block[..n], at)?;
        scanner.feed(&block[..n])?;
        at += n as u64;
    }
    Ok(scanner)
}

/// The bounds `[0, b1, …, len]` of at most `parts` parts of `source`,
/// every part but the last ending just after a newline.
fn split_at_lines(source: &(impl Source + ?Sized), parts: usize) -> Result<Vec<u64>, JournalError> {
    let len = source.size();
    let mut bounds = vec![0];
    let mut probe = vec![0; SPLIT_PROBE.min(len) as usize];
    for k in 1..parts as u64 {
        let mut at = (len / parts as u64 * k).max(bounds[bounds.len() - 1]);
        let mut end = None;
        while end.is_none() && at < len {
            let n = probe.len().min((len - at) as usize);
            source.read_at(&mut probe[..n], at)?;
            end = probe[..n].iter().position(|&b| b == b'\n').map(|i| at + i as u64 + 1);
            at += n as u64;
        }
        match end {
            Some(end) if end < len => bounds.push(end),
            _ => break,
        }
    }
    bounds.push(len);
    Ok(bounds)
}

// ---------------------------------------------------------------------------
// Writing

/// Bytes [`Journal::replace`] buffers between writes.
const REWRITE_BATCH: usize = 1 << 20;

/// Where [`Journal::replace`] stages the new file.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.tmp", path.display()))
}

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
    /// Records appended since the journal was opened.
    appended: u64,
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
        scan_file(path, header.header_version().unwrap_or_default()).map(Opened::Found)
    }

    /// Creates (or atomically replaces) the journal at `path` holding
    /// just `header`, open for appending.
    pub(crate) fn create(
        path: &Path,
        header: &R,
        fsync_every: usize,
    ) -> Result<Self, JournalError> {
        Journal::replace(path, header, std::iter::empty::<&R>())?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| JournalError::io(path, "open for append", e))?;
        Ok(Journal::over(file, path, fsync_every))
    }

    /// Atomically replaces the journal at `path` with `header` followed
    /// by `records`: tmp file written in [`REWRITE_BATCH`]-byte batches,
    /// fsync, rename, directory fsync. A crash at any point leaves
    /// either the old file or the whole new one.
    pub(crate) fn replace<T: serde::Serialize>(
        path: &Path,
        header: &R,
        records: impl IntoIterator<Item = T>,
    ) -> Result<(), JournalError> {
        let io = JournalError::io;
        let tmp = tmp_path(path);
        {
            let mut file = File::create(&tmp).map_err(|e| io(&tmp, "create", e))?;
            let (mut json, mut batch) = (String::new(), String::new());
            encode_line_into(header, &mut json, &mut batch);
            for record in records {
                encode_line_into(&record, &mut json, &mut batch);
                if batch.len() >= REWRITE_BATCH {
                    file.write_all(batch.as_bytes()).map_err(|e| io(&tmp, "write", e))?;
                    batch.clear();
                }
            }
            file.write_all(batch.as_bytes()).map_err(|e| io(&tmp, "write", e))?;
            file.sync_all().map_err(|e| io(&tmp, "fsync", e))?;
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
        Ok(())
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
    pub(crate) fn over(file: File, path: &Path, fsync_every: usize) -> Self {
        Journal {
            file,
            path: path.to_path_buf(),
            buf: String::new(),
            json: String::new(),
            pending: 0,
            fsync_every,
            failed: None,
            appended: 0,
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
        self.appended += 1;
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
    pub(crate) fn latched(&self) -> Result<(), JournalError> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    /// Records appended since the journal was opened.
    pub(crate) fn appended(&self) -> u64 {
        self.appended
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
        self.replay_by(data, ScanBy::Chunks(chunk))
    }

    /// Replays `data` as this kind, scanned in up to `parts` parallel
    /// newline-aligned parts whatever its size, then folded. Equals
    /// [`Self::replay`] for every input.
    pub fn replay_in_parts(self, data: &[u8], parts: usize) -> Result<Replayed, JournalError> {
        self.replay_by(data, ScanBy::Parts(parts))
    }

    fn replay_by(self, data: &[u8], by: ScanBy) -> Result<Replayed, JournalError> {
        use crate::{checkpoint, dispatch, serve::journal as serve};
        match self {
            JournalKind::Checkpoint => {
                replay_with(data, by, checkpoint::JOURNAL_VERSION, checkpoint::fold)
            }
            JournalKind::Serve => replay_with(data, by, serve::JOB_JOURNAL_VERSION, serve::fold),
            JournalKind::Dispatch => {
                replay_with(data, by, dispatch::DISPATCH_JOURNAL_VERSION, dispatch::fold)
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

/// How a raw replay feeds the scanner.
#[derive(Clone, Copy)]
enum ScanBy {
    /// Serially, this many bytes at a time (0: all at once).
    Chunks(usize),
    /// In up to this many parallel parts.
    Parts(usize),
}

fn replay_with<R: Record, T>(
    data: &[u8],
    by: ScanBy,
    version: u64,
    fold: impl FnOnce(Scan<R>) -> Result<T, JournalError>,
) -> Result<Replayed, JournalError> {
    let scan = match by {
        ScanBy::Chunks(chunk) => {
            let mut scanner = Scanner::new();
            for piece in data.chunks(if chunk == 0 { data.len().max(1) } else { chunk }) {
                scanner.feed(piece)?;
            }
            scanner.finish(version)?
        }
        ScanBy::Parts(parts) => scan_in_parts(data, version, parts)?,
    };
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
        Note { text: String },
    }

    impl Record for TestRecord {
        fn header_version(&self) -> Option<u64> {
            match self {
                TestRecord::Header { version } => Some(*version),
                TestRecord::Entry { .. } | TestRecord::Note { .. } => None,
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

    /// Everything a scan decides, comparable across scan paths.
    type Outcome = Result<(TestRecord, Vec<(usize, TestRecord)>, u64, u64), JournalError>;

    fn outcome(scan: Result<Scan<TestRecord>, JournalError>) -> Outcome {
        scan.map(|s| (s.header, s.records, s.valid_len, s.torn_tail_bytes))
    }

    /// A seeded journal of `records` records, then damaged by `damage`:
    /// 0 none, 1 a flipped checksum digit, 2 a checksummed line of
    /// malformed JSON, 3 a torn tail, 4 a second header, 5 an empty line,
    /// 6 a flipped digit and a torn tail.
    fn seeded_journal(seed: u64, records: usize, damage: u8) -> Vec<u8> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lines = vec![line(&TestRecord::Header { version: 1 })];
        for _ in 0..records {
            let record = if rng.gen_bool(0.5) {
                TestRecord::Entry { value: rng.gen_range(0..u64::MAX) }
            } else {
                let len = rng.gen_range(0..40);
                let text = (0..len).map(|_| ['a', '"', '\n', '\\', 'é'][rng.gen_range(0..5usize)]);
                TestRecord::Note { text: text.collect() }
            };
            lines.push(line(&record));
        }
        let at = rng.gen_range(1..=lines.len());
        match damage {
            1 | 6 => {
                let victim = &mut lines[at.min(records)];
                let digit = rng.gen_range(0..16);
                let flipped = if &victim[digit..=digit] == "0" { "1" } else { "0" };
                victim.replace_range(digit..=digit, flipped);
            }
            2 => {
                let bad = "{\"Entry\":";
                let text = format!("{:016x} {bad}\n", fnv1a(FNV_OFFSET, bad.as_bytes()));
                lines.insert(at, text);
            }
            4 => lines.insert(at, line(&TestRecord::Header { version: 1 })),
            5 => lines.insert(at, "\n".to_string()),
            _ => {}
        }
        let mut bytes = lines.concat().into_bytes();
        if matches!(damage, 3 | 6) {
            let cut = rng.gen_range(0..bytes.len());
            bytes.truncate(cut);
        }
        bytes
    }

    mod parallel_scan {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Scanning in 1–4 parts decides exactly what one serial
            /// pass decides: the same records at the same line numbers,
            /// the same lengths, or the same first error at the same
            /// line.
            #[test]
            fn parts_scan_equals_the_serial_scan(
                seed in 0u64..1_000_000,
                records in 0usize..40,
                damage in 0u8..7,
                parts in 1usize..5,
            ) {
                let data = seeded_journal(seed, records, damage);
                let mut serial = Scanner::new();
                let serial = serial.feed(&data).and_then(|()| serial.finish(1));
                prop_assert_eq!(outcome(scan_in_parts(&data, 1, parts)), outcome(serial));
            }
        }
    }

    /// Splits are newline-aligned, never empty, and cover the input.
    #[test]
    fn splits_are_line_aligned_and_cover_the_input() {
        let data = seeded_journal(7, 30, 3);
        for parts in 1..8 {
            let bounds = split_at_lines(&data[..], parts).expect("in-memory reads succeed");
            assert!(bounds.len() >= 2 && bounds.len() <= parts + 1, "{parts} parts");
            assert_eq!((bounds[0], bounds[bounds.len() - 1]), (0, data.len() as u64));
            for pair in bounds.windows(2) {
                assert!(pair[0] < pair[1], "{parts} parts: empty part");
            }
            for &end in &bounds[1..bounds.len() - 1] {
                assert_eq!(data[end as usize - 1], b'\n', "{parts} parts");
            }
        }
        assert_eq!(split_at_lines(&b""[..], 4).expect("empty input"), vec![0, 0]);
    }

    /// A journal past the cut-over, read from a file in blocks, takes
    /// the parallel path and still equals the serial pass.
    #[test]
    fn large_journal_files_scan_identically() {
        let mut text = line(&TestRecord::Header { version: 1 });
        let mut value = 0;
        while (text.len() as u64) < PARALLEL_SCAN_MIN + SCAN_BLOCK + 4096 {
            text.push_str(&line(&TestRecord::Entry { value }));
            value += 1;
        }
        text.push_str("0123");
        let mut serial = Scanner::new();
        serial.feed(text.as_bytes()).expect("feeds");
        let serial = outcome(serial.finish(1));
        let path = scratch("large.journal");
        std::fs::write(&path, &text).expect("write journal");
        assert_eq!(outcome(scan_file(&path, 1)), serial);
        assert_eq!(outcome(scan(text.as_bytes(), 1)), serial);
        assert_eq!(outcome(scan_in_parts(text.as_bytes(), 1, 3)), serial);
        let _ = std::fs::remove_file(&path);
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
