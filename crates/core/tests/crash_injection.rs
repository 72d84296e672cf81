//! Deterministic torn-write / crash-injection suite for index
//! durability (requires `--features failpoints` for the save-path
//! cases; the byte-sweep cases run under default features too and are
//! duplicated here so one binary holds the whole durability contract).
//!
//! The contract under test: **every prefix or single-bit corruption of
//! a valid index either loads bit-identically or fails with
//! `Error::CorruptIndex` — never a panic, never an index that would
//! serve wrong answers.** And on the write side: **a crash (injected
//! failure) at any step of `Bear::save` leaves the previous index
//! intact and loadable; only a fully synced, renamed image ever
//! occupies the target path.** `Bear::save` and `preprocess_to_disk`
//! publish through one streaming writer, so its failpoint sites cover
//! both.
//!
//! Run via:
//!
//! ```text
//! cargo test -p bear-core --test crash_injection --features failpoints
//! ```

use bear_core::{Bear, BearConfig};
use bear_graph::Graph;
use bear_sparse::Error;
use std::path::PathBuf;

#[cfg(feature = "failpoints")]
use bear_core::failpoints::{self, FailAction};
#[cfg(feature = "failpoints")]
use bear_core::preprocess_to_disk;
#[cfg(feature = "failpoints")]
use std::path::Path;
#[cfg(feature = "failpoints")]
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The failpoint registry is process-global, so armed cases must not
/// overlap — and an unarmed test that saves must not run while a save
/// site is armed. Each such test holds this lock for its whole body; the
/// guard disarms every site on drop (including panics).
#[cfg(feature = "failpoints")]
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

#[cfg(feature = "failpoints")]
fn serial() -> Serial {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard =
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoints::clear_all();
    Serial(guard)
}

#[cfg(feature = "failpoints")]
impl Drop for Serial {
    fn drop(&mut self) {
        failpoints::clear_all();
    }
}

fn test_graph() -> Graph {
    let mut edges = Vec::new();
    for v in 1..14 {
        edges.push((0, v));
        edges.push((v, 0));
    }
    edges.push((4, 5));
    edges.push((5, 4));
    edges.push((9, 10));
    edges.push((10, 9));
    Graph::from_edges(14, &edges).unwrap()
}

fn config() -> BearConfig {
    BearConfig::exact(0.15)
}

fn build() -> Bear {
    Bear::new(&test_graph(), &config()).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(name)
}

/// No stray `.tmp.` artifacts in the temp directory for this test's
/// index name — the atomic writer must clean up after injected crashes.
fn assert_no_temp_files(stem: &str) {
    let dir = std::env::temp_dir();
    let strays: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(stem) && n.contains(".tmp."))
        .collect();
    assert!(strays.is_empty(), "stray temp files left behind: {strays:?}");
}

// ---------------------------------------------------------------------------
// Read-side property sweep (default features): every truncation and
// every probed bit flip of a valid image fails typed, never panics.
// Every shard carries its own CRC frame, so damage anywhere — a
// segment, the directory, the resident region, the trailer — must fail
// typed at load, never at query time from a page fault.
// ---------------------------------------------------------------------------

#[test]
fn every_truncation_fails_typed_or_loads_identically() {
    #[cfg(feature = "failpoints")]
    let _serial = serial();
    let bear = build();
    let path = tmp("bear_crash_trunc_sweep.idx");
    bear.save(&path).unwrap();
    let full = std::fs::read(&path).unwrap();
    let reference = bear.query(3).unwrap();

    // Every prefix length: cheap enough at this index size (a few KB)
    // to be exhaustive rather than sampled.
    for keep in 0..=full.len() {
        std::fs::write(&path, &full[..keep]).unwrap();
        match Bear::load(&path) {
            Ok(loaded) => {
                assert_eq!(keep, full.len(), "a strict prefix ({keep} bytes) loaded");
                assert_eq!(loaded.query(3).unwrap(), reference);
            }
            Err(Error::CorruptIndex { .. }) => {}
            Err(other) => panic!("truncation to {keep} bytes: untyped error {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_probed_bit_flip_fails_typed_at_load() {
    #[cfg(feature = "failpoints")]
    let _serial = serial();
    let bear = build();
    let path = tmp("bear_crash_flip_sweep.idx");
    bear.save(&path).unwrap();
    let full = std::fs::read(&path).unwrap();
    let reference = bear.query(7).unwrap();

    // The load-time sweep CRC-checks every segment frame as well as the
    // resident region, so no byte of the file is outside a checksummed
    // span: every flip must be caught *at load*, before any query can
    // page a damaged shard in. The bit index varies with position so
    // all eight bit lanes are covered.
    for byte in 0..full.len() {
        let bit = byte % 8;
        let mut bytes = full.clone();
        bytes[byte] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        match Bear::load(&path) {
            // CRC-32 detects all single-bit errors, so Ok here would
            // mean the byte is outside the checksummed span.
            Ok(_) => panic!("bit flip at byte {byte} bit {bit} was absorbed"),
            Err(Error::CorruptIndex { .. }) => {}
            Err(other) => panic!("flip at byte {byte} bit {bit}: untyped error {other:?}"),
        }
    }

    // Control: the unflipped image still answers identically.
    std::fs::write(&path, &full).unwrap();
    assert_eq!(Bear::load(&path).unwrap().query(7).unwrap(), reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn save_over_existing_index_replaces_it_atomically() {
    #[cfg(feature = "failpoints")]
    let _serial = serial();
    let a = build();
    let path = tmp("bear_crash_replace.idx");
    a.save(&path).unwrap();
    let first = std::fs::read(&path).unwrap();
    // Saving again (same index) must go through the temp+rename path and
    // land byte-identically; a direct overwrite could tear.
    a.save(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), first);
    assert_no_temp_files("bear_crash_replace");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Write-side crash injection (failpoints feature).
// ---------------------------------------------------------------------------

/// Arms `site` with `action`, attempts to write the index over an
/// existing good one with `write` (`Bear::save` or
/// `preprocess_to_disk`), asserts the write fails, and proves the
/// previous index is still present bit-for-bit and loadable.
#[cfg(feature = "failpoints")]
fn assert_crash_preserves_target(
    site: &'static str,
    action: FailAction,
    tag: &str,
    write: &dyn Fn(&Path) -> bear_sparse::Result<()>,
) {
    let path = tmp(&format!("bear_crash_{tag}.idx"));
    build().save(&path).unwrap();
    let before = std::fs::read(&path).unwrap();

    failpoints::configure(site, action);
    let err = write(&path).unwrap_err();
    failpoints::clear(site);
    assert!(
        matches!(err, Error::InvalidStructure(_)),
        "injected crash at {site} surfaced oddly: {err:?}"
    );

    assert_eq!(std::fs::read(&path).unwrap(), before, "crash at {site} altered the target");
    Bear::load(&path).unwrap();
    assert_no_temp_files(&format!("bear_crash_{tag}"));
    std::fs::remove_file(&path).ok();
}

#[cfg(feature = "failpoints")]
fn save(path: &Path) -> bear_sparse::Result<()> {
    build().save(path)
}

#[cfg(feature = "failpoints")]
fn preprocess(path: &Path) -> bear_sparse::Result<()> {
    preprocess_to_disk(&test_graph(), &config(), path)
}

#[cfg(feature = "failpoints")]
#[test]
fn crash_at_any_save_step_preserves_previous_index() {
    let _serial = serial();
    assert_crash_preserves_target("persist::save::write", FailAction::Fail, "w_fail", &save);
    assert_crash_preserves_target("persist::save::sync", FailAction::Fail, "sync_fail", &save);
    assert_crash_preserves_target("persist::save::rename", FailAction::Fail, "rename_fail", &save);
}

#[cfg(feature = "failpoints")]
#[test]
fn v3_torn_stream_crash_preserves_previous_index() {
    let _serial = serial();
    let probe = tmp("bear_crash_size_probe.idx");
    build().save(&probe).unwrap();
    let size = std::fs::metadata(&probe).unwrap().len();
    std::fs::remove_file(&probe).ok();
    // Cuts landing mid-segment, mid-resident-region, and inside the
    // trailer — the streaming writer must discard the torn temp file in
    // every case, whether a finished index or preprocessing feeds it.
    // Cuts at or past the end are a complete write, which (correctly)
    // succeeds.
    for k in [0, 1, size / 4, size / 3, size / 2, size - 1] {
        let torn = || FailAction::TruncateAt(k);
        assert_crash_preserves_target("persist::save::write", torn(), "torn", &save);
        assert_crash_preserves_target("persist::save::write", torn(), "torn_stream", &preprocess);
    }
}

#[cfg(feature = "failpoints")]
#[test]
fn first_save_crash_leaves_no_target_at_all() {
    let _serial = serial();
    let bear = build();
    let path = tmp("bear_crash_first_save.idx");
    std::fs::remove_file(&path).ok();
    failpoints::configure("persist::save::rename", FailAction::Fail);
    assert!(bear.save(&path).is_err());
    failpoints::clear_all();
    // No target, no temp debris — the failed save is invisible.
    assert!(!path.exists(), "failed first save materialized a target file");
    assert_no_temp_files("bear_crash_first_save");
}

/// The lying-disk scenario: the temp file is damaged *after* the fsync
/// and the rename then succeeds, so `save` reports Ok with a damaged
/// artifact in place. The durability contract moves to the read side:
/// `load_or_quarantine` must fail typed and move the artifact aside —
/// truncations and bit rot alike.
#[cfg(feature = "failpoints")]
#[test]
fn lying_disk_damage_is_caught_at_load_and_quarantined() {
    let _serial = serial();
    let bear = build();
    let path = tmp("bear_crash_lying.idx");
    let quarantined = tmp("bear_crash_lying.idx.corrupt");
    std::fs::remove_file(&quarantined).ok();

    bear.save(&path).unwrap();
    let full_len = std::fs::read(&path).unwrap().len() as u64;

    // Torn tails: cuts inside the segment region, the resident region,
    // and the trailer.
    for k in [0, 8, 27, full_len / 4, full_len / 2, full_len - 1] {
        failpoints::configure("persist::save::torn", FailAction::TruncateAt(k));
        bear.save(&path).unwrap(); // the disk lies: save sees success
        failpoints::clear_all();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), k.min(full_len));

        let err = Bear::load_or_quarantine(&path).unwrap_err();
        assert!(
            matches!(err, Error::CorruptIndex { .. }),
            "torn image (cut to {k}) must fail typed, got: {err:?}"
        );
        assert!(!path.exists(), "torn artifact (cut to {k}) was not quarantined");
        assert!(quarantined.exists(), "quarantine file missing for cut {k}");
        std::fs::remove_file(&quarantined).ok();

        // Re-seed a good index for the next round.
        bear.save(&path).unwrap();
    }

    // Bit rot in the magic, inside the first shard's payload (the
    // segment region starts right after the 8-byte magic, so bit 200
    // lands in segment bytes) and at spots across the rest of the image.
    let bits = full_len * 8;
    for bit in [0, 63, 64, 200, 64 * 8, 1001, bits / 3, bits / 2, bits - 1] {
        failpoints::configure("persist::save::torn", FailAction::BitFlip(bit));
        bear.save(&path).unwrap();
        failpoints::clear_all();

        let err = Bear::load_or_quarantine(&path).unwrap_err();
        assert!(
            matches!(err, Error::CorruptIndex { .. }),
            "bit rot at bit {bit} must fail typed, got: {err:?}"
        );
        assert!(!path.exists(), "rotten artifact (bit {bit}) was not quarantined");
        assert!(quarantined.exists(), "quarantine file missing for bit {bit}");
        std::fs::remove_file(&quarantined).ok();
        bear.save(&path).unwrap();
    }
    std::fs::remove_file(&path).ok();
}
