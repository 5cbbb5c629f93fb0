//! On-disk format compatibility: journals written by an earlier build
//! (checked in under `tests/fixtures/`) must keep loading to the same
//! slots and done-set. The serve job journal fixture is checked by the
//! crate's own unit tests, since its recovery API is crate-internal.

use fragdroid::{load_journal, parse_dispatch_journal, AppOutcome, Fingerprint};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// FNV-1a over the serialized slots, in index order.
fn slots_digest(loaded: &fragdroid::LoadedJournal) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (index, (outcome, metrics)) in &loaded.slots {
        let json = format!(
            "{index}:{}:{}",
            serde_json::to_string(outcome).expect("outcome serializes"),
            serde_json::to_string(metrics).expect("metrics serialize")
        );
        for byte in json.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn checkpoint_fixture_loads_to_the_same_slots() {
    let path = fixture("checkpoint.journal");
    let loaded = load_journal(&path).expect("fixture loads");
    assert_eq!(
        loaded.fingerprint,
        Fingerprint {
            apps: 3,
            corpus_digest: 4_975_826_498_407_862_877,
            config_digest: 6_469_055_328_994_479_316,
            flake_retries: 1,
        }
    );
    assert_eq!(loaded.slots.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
    assert!(matches!(loaded.slots[&0].0, AppOutcome::DeadlineExceeded(_)));
    assert!(matches!(loaded.slots[&1].0, AppOutcome::Rejected { .. }));
    assert!(matches!(loaded.slots[&2].0, AppOutcome::DeadlineExceeded(_)));
    let flakes = loaded.flakes.as_ref().expect("the Flakes record loads");
    assert_eq!((flakes.retries, flakes.deterministic, flakes.flaky), (1, 2, 0));
    assert_eq!(flakes.apps.iter().map(|r| r.index).collect::<Vec<_>>(), vec![0, 2]);
    assert_eq!(loaded.valid_len, std::fs::metadata(&path).expect("fixture exists").len());
    assert_eq!(loaded.torn_tail_bytes, 0);
    assert_eq!(slots_digest(&loaded), CHECKPOINT_SLOTS_DIGEST);
}

/// [`slots_digest`] of the checkpoint fixture as the writing build
/// loaded it.
const CHECKPOINT_SLOTS_DIGEST: u64 = 16_194_683_868_861_631_415;

#[test]
fn dispatch_fixture_loads_to_the_same_done_set() {
    let bytes = std::fs::read(fixture("dispatch.journal")).expect("fixture exists");
    let parsed = parse_dispatch_journal(&bytes).expect("fixture parses");
    assert_eq!(parsed.shards, 3);
    assert_eq!(parsed.done.into_iter().collect::<Vec<_>>(), vec![(0, 2), (1, 2), (2, 2)]);
    assert_eq!((parsed.grants, parsed.revocations, parsed.quarantines), (4, 1, 1));
    assert_eq!(parsed.fingerprint.apps, 6);
    assert_eq!(parsed.fingerprint.flake_retries, 0);
    assert_eq!(parsed.valid_len, bytes.len() as u64);
    assert_eq!(parsed.torn_tail_bytes, 0);
}
