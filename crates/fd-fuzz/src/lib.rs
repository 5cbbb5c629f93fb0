//! Structure-aware fuzzing of the ingestion frontier.
//!
//! The decode/parse pipeline (`fd-apk` containers, `fd-smali` text, the
//! JSON sections, the device-agent wire protocol, the FDCS corpus-shard
//! index the lazy corpus reader trusts, the serve frame streams, and
//! the checkpoint, serve and dispatch journals every resume replays) promises *Ok or
//! a typed Err — never a panic*. This crate is the harness that holds it to that
//! promise:
//!
//! - [`mutate`] — seeded, deterministic mutators. Byte-level mutations
//!   (truncate / flip / splice / length-field corruption) for FAPK
//!   containers and encoded agent request streams, token- and line-level
//!   mutations for smali text, and schema-aware mutations over the
//!   manifest/layout/meta JSON values (dropped keys, wrong-typed values,
//!   deep nesting) spliced back into an otherwise-valid container.
//! - [`harness`] — the campaign driver. Every mutant runs under
//!   `catch_unwind`; a panic is a *violation* that gets minimized to a
//!   small reproducer file. Campaigns with the same seed are bit-for-bit
//!   reproducible ([`CampaignReport::outcome_digest`] folds every case's
//!   outcome, so two reports can be compared with one integer).
//!
//! `fragdroid fuzz --seed N --mutants M --out DIR` is the CLI face of
//! [`run_campaign`]; CI runs a smoke campaign on every push.

pub mod harness;
pub mod mutate;

pub use harness::{
    run_campaign, run_campaign_traced, CampaignReport, FuzzConfig, Target, TargetStats,
    ViolationReport,
};
pub use mutate::{
    corrupt_length_field, mutate_bytes, mutate_json, mutate_smali, section_ranges, splice_section,
};
