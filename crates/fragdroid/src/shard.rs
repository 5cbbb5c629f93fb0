//! The shard coordinator: split a corpus across N independent suite
//! processes and merge their journals back into one result.
//!
//! A *shard* is a contiguous slice of the corpus ([`shard_range`] —
//! ragged tails land on the leading shards). Each shard runs the normal
//! checkpointed suite over a [`ShardSlice`] of the corpus source and
//! journals to its own path ([`shard_journal_path`]). Shard identity
//! falls out of the PR 5 fingerprint scheme for free: a sub-corpus has
//! its own length and streamed digest, so shard 2-of-4's journal can
//! never be resumed as shard 3-of-4's, against a different corpus, or
//! with a different config.
//!
//! [`merge_shards`] folds the per-shard journals into one
//! [`SuiteRun`]: every journal is fingerprint-checked against its
//! expected slice, completeness-checked, local indexes are mapped back
//! to global input order, and the outcomes are reassembled in that
//! order — so the merged [`SuiteRun::outcome_digest`] is byte-identical
//! to an unsharded run by construction. Merge rules for the lossy bits:
//!
//! * per-app wall times come from the journals unchanged; the merged
//!   suite-level `wall_ms`/`busy_ms` are the *sum* of per-app walls
//!   (shards ran on different clocks, so there is no meaningful
//!   end-to-end wall), and `workers` is the shard count;
//! * quarantined slots journaled under their shard-local label
//!   (`container[3]`) are relabeled to their global index;
//! * flake summaries merge by concatenation (indexes remapped), with
//!   `retries` the maximum across shards;
//! * device incidents are a live-pool observation, not a journaled
//!   fact, so the merged metrics report 0.

use crate::checkpoint::{
    load_journal, CheckpointOptions, CheckpointedSuite, Fingerprint, FlakeSummary, JournalError,
};
use crate::config::FragDroidConfig;
use crate::suite::{
    assemble_metrics, AppMetrics, AppOutcome, CorpusSource, SuiteContainer, SuiteOptions, SuiteRun,
    SuiteSource,
};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The contiguous corpus range shard `index` of `shards` owns. The
/// remainder of an uneven split lands one extra app on each of the
/// leading shards, so shard sizes differ by at most one.
///
/// # Errors
/// [`ShardError::Split`] if `shards == 0` or `index >= shards`.
pub fn shard_range(total: usize, shards: usize, index: usize) -> Result<Range<usize>, ShardError> {
    if shards == 0 || index >= shards {
        return Err(ShardError::Split { shards, index });
    }
    let base = total / shards;
    let extra = total % shards;
    let start = index * base + index.min(extra);
    let len = base + usize::from(index < extra);
    Ok(start..start + len)
}

/// The journal path shard `index` of `shards` writes:
/// `<base>.shard-<index>-of-<shards>`.
pub fn shard_journal_path(base: &Path, index: usize, shards: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard-{index}-of-{shards}"));
    PathBuf::from(name)
}

/// One shard's view of a corpus: a contiguous sub-range, offset back to
/// local indexes. Its streamed digest covers only the range, giving the
/// shard's journal its own fingerprint.
pub struct ShardSlice<'a> {
    source: &'a dyn CorpusSource,
    range: Range<usize>,
}

impl<'a> ShardSlice<'a> {
    /// Shard `index` of `shards` over `source`.
    ///
    /// # Errors
    /// [`ShardError::Split`] if `shards == 0` or `index >= shards`.
    pub fn new(
        source: &'a dyn CorpusSource,
        shards: usize,
        index: usize,
    ) -> Result<Self, ShardError> {
        let range = shard_range(source.len(), shards, index)?;
        Ok(ShardSlice { source, range })
    }

    /// The global corpus range this slice covers.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }
}

impl CorpusSource for ShardSlice<'_> {
    fn len(&self) -> usize {
        self.range.len()
    }

    fn fetch(&self, index: usize) -> Result<SuiteContainer, String> {
        if index >= self.range.len() {
            return Err(format!("shard entry {index} out of range ({} entries)", self.range.len()));
        }
        self.source.fetch(self.range.start + index)
    }
}

/// A typed shard failure — an invalid split, or a per-shard journal
/// that cannot be run or merged. `fd-cli` maps these to exit code 4.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardError {
    /// The split parameters themselves are invalid: a zero-shard
    /// split, or a shard index outside it.
    Split {
        /// Shards in the rejected split.
        shards: usize,
        /// The offending shard index.
        index: usize,
    },
    /// A shard's journal failed to load or carries the wrong
    /// fingerprint (different corpus slice, config, or flake budget).
    Journal {
        /// The shard's index within the split.
        shard: usize,
        /// The underlying journal failure.
        error: JournalError,
    },
    /// A shard's journal is valid but does not cover its whole slice —
    /// the shard was killed and never resumed to completion.
    Incomplete {
        /// The shard's index within the split.
        shard: usize,
        /// Apps the journal holds.
        done: usize,
        /// Apps the shard's slice requires.
        total: usize,
    },
    /// The corpus source itself could not be streamed to fingerprint
    /// the shards.
    Source {
        /// The streaming failure, rendered.
        detail: String,
    },
    /// A shard was asked to run without a checkpoint: its journal path
    /// is the checkpoint path with a shard suffix, so it needs one.
    NoCheckpoint {
        /// The shard's index within the split.
        shard: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Split { shards: 0, index: _ } => {
                write!(f, "invalid split: a corpus cannot be split into 0 shards")
            }
            ShardError::Split { shards, index } => {
                write!(f, "shard index {index} out of range for {shards} shards")
            }
            ShardError::Journal { shard, error } => {
                write!(f, "shard {shard}: {error}")
            }
            ShardError::Incomplete { shard, done, total } => write!(
                f,
                "shard {shard} is incomplete: {done} of {total} apps journaled \
                 (resume it with the same --shards/--shard-index before merging)"
            ),
            ShardError::Source { detail } => write!(f, "corpus source failed: {detail}"),
            ShardError::NoCheckpoint { shard } => {
                write!(f, "shard {shard} needs a checkpoint path to derive its journal from")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// One shard's contribution to a merged run, for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardStat {
    /// The shard's index within the split.
    pub shard: usize,
    /// Apps the shard contributed.
    pub apps: usize,
    /// Quarantined inputs among them.
    pub rejected: usize,
    /// Crashes among them.
    pub crashes: usize,
    /// The journal the shard was read from.
    pub journal: PathBuf,
}

/// A merged multi-shard suite: the reassembled run plus per-shard
/// accounting.
#[derive(Debug)]
pub struct MergedRun {
    /// Outcomes and metrics in global input order — `outcome_digest()`
    /// is byte-identical to an unsharded run of the same corpus.
    pub run: SuiteRun,
    /// Per-shard contributions, in shard order.
    pub shards: Vec<ShardStat>,
}

/// Runs shard `index` of `shards`: the suite over the shard's slice
/// with `options`, journaling to [`shard_journal_path`] derived from the
/// checkpoint's path. Resume and the app budget apply to the shard's
/// own journal, so a killed shard picks up exactly where it stopped.
///
/// # Errors
/// [`ShardError::Split`] if `shards == 0` or `index >= shards`;
/// [`ShardError::NoCheckpoint`] when `options.checkpoint` is `None`;
/// [`ShardError::Journal`] when the shard's own journal cannot be
/// written, resumed, or fingerprint-matched.
pub fn run_shard(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    options: &SuiteOptions<'_>,
    shards: usize,
    index: usize,
) -> Result<(CheckpointedSuite, fd_trace::Trace), ShardError> {
    let slice = ShardSlice::new(source, shards, index)?;
    let base = options.checkpoint.ok_or(ShardError::NoCheckpoint { shard: index })?;
    let journal =
        CheckpointOptions { path: shard_journal_path(&base.path, index, shards), ..base.clone() };
    let options = SuiteOptions { checkpoint: Some(&journal), ..*options };
    crate::suite::run(SuiteSource::Corpus(&slice), config, &options)
        .map_err(|error| ShardError::Journal { shard: index, error })
}

/// Merges the per-shard journals of an N-way split back into one
/// [`SuiteRun`]. Every journal must exist, carry the fingerprint of its
/// exact slice (corpus digest + config + flake budget), and cover its
/// whole range; anything else is a typed [`ShardError`].
pub fn merge_shards(
    source: &dyn CorpusSource,
    config: &FragDroidConfig,
    flake_retries: usize,
    base: &Path,
    shards: usize,
    trace_config: &fd_trace::TraceConfig,
) -> Result<(MergedRun, fd_trace::Trace), ShardError> {
    if shards == 0 {
        return Err(ShardError::Split { shards, index: 0 });
    }
    let total = source.len();
    let clock = fd_trace::TraceClock::start();
    let tracer = fd_trace::Tracer::new(trace_config, clock, 0);

    let mut slots: BTreeMap<usize, (AppOutcome, AppMetrics)> = BTreeMap::new();
    let mut stats = Vec::with_capacity(shards);
    let mut merged_flakes: Option<FlakeSummary> = None;

    for shard in 0..shards {
        let slice = ShardSlice::new(source, shards, shard)?;
        let range = slice.range();
        let expected = Fingerprint::of(&SuiteSource::Corpus(&slice), config, flake_retries)
            .map_err(|detail| ShardError::Source { detail })?;
        let journal = shard_journal_path(base, shard, shards);
        let loaded =
            load_journal(&journal).map_err(|error| ShardError::Journal { shard, error })?;
        if loaded.fingerprint != expected {
            return Err(ShardError::Journal {
                shard,
                error: JournalError::FingerprintMismatch { expected, found: loaded.fingerprint },
            });
        }
        if loaded.slots.len() != range.len() {
            return Err(ShardError::Incomplete {
                shard,
                done: loaded.slots.len(),
                total: range.len(),
            });
        }
        let mut rejected = 0;
        let mut crashes = 0;
        for (local, (outcome, mut metrics)) in loaded.slots {
            let global = range.start + local;
            relabel(&mut metrics.package, local, global);
            rejected += usize::from(metrics.rejected);
            crashes += metrics.crashes;
            slots.insert(global, (outcome, metrics));
        }
        if let Some(mut flakes) = loaded.flakes {
            for record in &mut flakes.apps {
                let local = record.index;
                record.index = range.start + local;
                relabel(&mut record.package, local, record.index);
            }
            merged_flakes = Some(match merged_flakes.take() {
                None => flakes,
                Some(mut all) => {
                    all.retries = all.retries.max(flakes.retries);
                    all.deterministic += flakes.deterministic;
                    all.flaky += flakes.flaky;
                    all.apps.extend(flakes.apps);
                    all
                }
            });
        }
        tracer.event(|| fd_trace::TraceEvent::ShardMerged {
            shard: shard as u64,
            apps: range.len() as u64,
        });
        stats.push(ShardStat { shard, apps: range.len(), rejected, crashes, journal });
    }

    debug_assert_eq!(slots.len(), total, "complete shards cover the corpus exactly");
    let mut outcomes = Vec::with_capacity(total);
    let mut per_app = Vec::with_capacity(total);
    let mut wall_ms = 0u64;
    for (_, (outcome, metrics)) in slots {
        wall_ms += metrics.wall_ms;
        per_app.push(metrics);
        outcomes.push(outcome);
    }
    if let Some(flakes) = &mut merged_flakes {
        flakes.apps.sort_by_key(|record| record.index);
    }

    let wall = Duration::from_millis(wall_ms);
    let mut metrics = assemble_metrics(per_app, shards, wall, wall, 0);
    metrics.flake_summary = merged_flakes;

    let run = SuiteRun { outcomes, metrics };
    let mut trace = fd_trace::Trace::new("fragdroid-shard-merge");
    trace.absorb(tracer.finish());
    Ok((MergedRun { run, shards: stats }, trace))
}

/// Rewrites a shard-local quarantine label (`container[<local>]`) to its
/// global spelling; real package names pass through untouched.
fn relabel(package: &mut String, local: usize, global: usize) {
    if *package == format!("container[{local}]") {
        *package = format!("container[{global}]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_contiguous_and_ragged_tails_lead() {
        for (total, shards) in [(10, 4), (7, 7), (3, 7), (0, 3), (217, 4), (100, 1)] {
            let mut next = 0;
            for index in 0..shards {
                let range = shard_range(total, shards, index).expect("valid split");
                assert_eq!(range.start, next, "{total}/{shards} shard {index}");
                next = range.end;
            }
            assert_eq!(next, total, "{total}/{shards} must cover the corpus");
            let sizes: Vec<usize> = (0..shards)
                .map(|i| shard_range(total, shards, i).expect("valid split").len())
                .collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "sizes differ by at most one: {sizes:?}");
            assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "extras lead: {sizes:?}");
        }
    }

    #[test]
    fn invalid_splits_are_typed_errors() {
        assert_eq!(shard_range(10, 4, 4), Err(ShardError::Split { shards: 4, index: 4 }));
        assert_eq!(shard_range(10, 0, 0), Err(ShardError::Split { shards: 0, index: 0 }));
        let out_of_range = shard_range(10, 4, 7).unwrap_err();
        assert!(out_of_range.to_string().contains("out of range"), "{out_of_range}");
        let zero = shard_range(10, 0, 2).unwrap_err();
        assert!(zero.to_string().contains("0 shards"), "{zero}");
        let containers: Vec<SuiteContainer> = Vec::new();
        assert!(matches!(
            ShardSlice::new(&containers, 2, 2),
            Err(ShardError::Split { shards: 2, index: 2 })
        ));
    }

    #[test]
    fn journal_paths_are_distinct_per_shard_and_split() {
        let base = Path::new("/tmp/suite.journal");
        let p0 = shard_journal_path(base, 0, 4);
        let p1 = shard_journal_path(base, 1, 4);
        let q0 = shard_journal_path(base, 0, 2);
        assert_eq!(p0, Path::new("/tmp/suite.journal.shard-0-of-4"));
        assert_ne!(p0, p1);
        assert_ne!(p0, q0);
    }

    #[test]
    fn shard_slice_offsets_and_digests_its_range() {
        let containers: Vec<SuiteContainer> = (0..5)
            .map(|i| (bytes::Bytes::from(vec![i as u8; 3]), std::collections::BTreeMap::new()))
            .collect();
        let slice = ShardSlice::new(&containers, 2, 1).expect("valid split"); // entries 3, 4 (ragged: 3+2)
        assert_eq!(slice.range(), 3..5);
        assert_eq!(CorpusSource::len(&slice), 2);
        let (bytes, _) = slice.fetch(0).expect("fetch maps to global 3");
        assert_eq!(bytes.as_slice(), &[3, 3, 3]);
        assert!(slice.fetch(2).is_err(), "local indexes stay in range");
        // The slice digest equals an eager digest of just its entries.
        let eager: &[SuiteContainer] = &containers[3..5];
        assert_eq!(CorpusSource::digest(&slice).unwrap(), CorpusSource::digest(eager).unwrap());
        assert_ne!(
            CorpusSource::digest(&slice).unwrap(),
            CorpusSource::digest(&containers).unwrap()
        );
    }

    #[test]
    fn relabel_only_touches_local_quarantine_labels() {
        let mut real = "com.example.app".to_string();
        relabel(&mut real, 2, 12);
        assert_eq!(real, "com.example.app");
        let mut local = "container[2]".to_string();
        relabel(&mut local, 2, 12);
        assert_eq!(local, "container[12]");
    }

    #[test]
    fn a_shard_without_a_checkpoint_is_a_typed_error() {
        let containers: Vec<SuiteContainer> = Vec::new();
        let config = FragDroidConfig::default();
        let refused = run_shard(&containers, &config, &SuiteOptions::default(), 2, 1);
        assert_eq!(refused.err(), Some(ShardError::NoCheckpoint { shard: 1 }));
    }
}
