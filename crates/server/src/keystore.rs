//! Crash-safe persistence for tenant key files.
//!
//! A key file is the *only* durable secret a tenant has — lose it and
//! every released batch becomes unrecoverable, tear it and a naive server
//! refuses to start. The store therefore never writes a key in place:
//!
//! ```text
//! put(tenant, bytes):
//!   1. write  .journal/<tenant>.tmp      (full bytes)        + fsync
//!   2. write  .journal/<tenant>.intent   (len + CRC-32)      + fsync
//!   3. rename .journal/<tenant>.tmp  →  <tenant>.key         + fsync(dir)
//!   4. remove .journal/<tenant>.intent                       + fsync(journal dir)
//! ```
//!
//! A crash at any point leaves the store recoverable by
//! [`KeyStore::open`]'s journal replay:
//!
//! * crash before 2 — a stray `.tmp` with no intent: discarded, the put
//!   never happened;
//! * crash between 2 and 3 — intent + matching `.tmp`: the rename is
//!   completed (the put wins);
//! * crash between 3 and 4 — intent, no `.tmp`, key file matches the
//!   intent's CRC: the intent is simply cleared (the put already won);
//! * intent whose `.tmp` fails its CRC — the torn temp is discarded and
//!   the previous key file (if any) stays authoritative.
//!
//! Serving is equally defensive: [`KeyStore::load_into`] registers every
//! key file in the registry, and a file that fails to decode is *moved to
//! quarantine* (`.quarantine/<name>.<n>`) and logged — a single torn key
//! must never abort `serve` and take every healthy tenant down with it.
//! The same routine backs the `ReloadKeys` opcode (SIGHUP-style hot
//! reload), so an operator can drop new key files into the directory and
//! load them without a restart.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rbt_linalg::codec::{crc32, ByteReader, ByteWriter};

use crate::registry::SessionRegistry;

/// Name of the pending-write journal subdirectory.
const JOURNAL_DIR: &str = ".journal";
/// Name of the quarantine subdirectory for corrupt key files.
const QUARANTINE_DIR: &str = ".quarantine";
/// Extension key files are written with.
const KEY_EXT: &str = "key";
/// Magic prefix of an intent record.
const INTENT_MAGIC: &[u8; 4] = b"RBTJ";

/// What [`KeyStore::open`] found while replaying the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Interrupted puts whose rename was completed during replay.
    pub completed: u64,
    /// Torn or orphaned temp files discarded during replay.
    pub discarded: u64,
}

/// What [`KeyStore::load_into`] did to the key directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReloadReport {
    /// Tenants (re)registered in the registry.
    pub loaded: u64,
    /// Corrupt key files moved to quarantine instead of being served.
    pub quarantined: u64,
}

/// A crash-safe key directory: atomic writes through a temp + intent
/// journal, quarantine for corrupt entries, and hot reload into a
/// [`SessionRegistry`].
pub struct KeyStore {
    root: PathBuf,
    replay: ReplayReport,
}

fn fsync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync makes the rename itself durable. Some filesystems
    // refuse to open directories for writing; opening read-only suffices
    // for fsync on the platforms we target.
    File::open(dir)?.sync_all()
}

fn write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// An intent record: magic, tenant-name length + bytes, payload length,
/// payload CRC-32. Fixed little-endian layout, no framing dependency.
fn encode_intent(tenant: &str, len: u64, crc: u32) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(INTENT_MAGIC);
    w.put_str(tenant);
    w.put_u64(len);
    w.put_u32(crc);
    w.into_bytes()
}

fn decode_intent(bytes: &[u8]) -> Option<(String, u64, u32)> {
    let mut r = ByteReader::new(bytes);
    if r.take_bytes(4).ok()? != INTENT_MAGIC {
        return None;
    }
    let intent = (
        r.take_str().ok()?.to_string(),
        r.take_u64().ok()?,
        r.take_u32().ok()?,
    );
    r.expect_end().ok()?;
    Some(intent)
}

fn file_crc(path: &Path, expect_len: u64) -> io::Result<Option<u32>> {
    let meta = fs::metadata(path)?;
    if meta.len() != expect_len {
        return Ok(None);
    }
    let mut bytes = Vec::with_capacity(expect_len as usize);
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(Some(crc32(&bytes)))
}

impl KeyStore {
    /// Opens (creating if needed) a key directory and replays any
    /// interrupted writes left in the journal, so the directory observed
    /// by [`load_into`](KeyStore::load_into) is always consistent: every
    /// key file is either the pre-crash version or the fully-written new
    /// one, never a torn hybrid.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (unreadable directory, failed
    /// rename). Torn journal entries are *not* errors — they are
    /// discarded and counted in the [`ReplayReport`].
    pub fn open(root: impl Into<PathBuf>) -> io::Result<KeyStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        fs::create_dir_all(root.join(JOURNAL_DIR))?;
        fs::create_dir_all(root.join(QUARANTINE_DIR))?;
        let mut store = KeyStore {
            root,
            replay: ReplayReport::default(),
        };
        store.replay = store.replay_journal()?;
        Ok(store)
    }

    /// The key directory this store manages.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// What the journal replay at [`open`](KeyStore::open) time found.
    pub fn replay_report(&self) -> ReplayReport {
        self.replay
    }

    fn journal_dir(&self) -> PathBuf {
        self.root.join(JOURNAL_DIR)
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    /// The durable path of a tenant's key file.
    pub fn key_path(&self, tenant: &str) -> PathBuf {
        self.root.join(format!("{tenant}.{KEY_EXT}"))
    }

    fn tmp_path(&self, tenant: &str) -> PathBuf {
        self.journal_dir().join(format!("{tenant}.tmp"))
    }

    fn intent_path(&self, tenant: &str) -> PathBuf {
        self.journal_dir().join(format!("{tenant}.intent"))
    }

    fn replay_journal(&self) -> io::Result<ReplayReport> {
        let mut report = ReplayReport::default();
        let journal = self.journal_dir();
        let mut intents = Vec::new();
        let mut tmps = Vec::new();
        for entry in fs::read_dir(&journal)? {
            let path = entry?.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("intent") => intents.push(path),
                Some("tmp") => tmps.push(path),
                _ => {}
            }
        }
        let mut claimed_tmps = Vec::new();
        for intent_path in intents {
            let parsed = fs::read(&intent_path).ok().and_then(|b| decode_intent(&b));
            let Some((tenant, len, crc)) = parsed else {
                // A torn intent record: the put never became durable
                // enough to matter. Drop it (and any matching tmp below).
                fs::remove_file(&intent_path)?;
                report.discarded += 1;
                continue;
            };
            let tmp = self.tmp_path(&tenant);
            claimed_tmps.push(tmp.clone());
            if tmp.is_file() && file_crc(&tmp, len)? == Some(crc) {
                // Crash between intent and rename: finish the put.
                fs::rename(&tmp, self.key_path(&tenant))?;
                fsync_dir(&self.root)?;
                report.completed += 1;
            } else if tmp.is_file() {
                // Torn temp: the old key file (if any) stays authoritative.
                fs::remove_file(&tmp)?;
                report.discarded += 1;
            }
            // In every case the intent is now settled. (Crash after the
            // rename but before intent removal lands here too: the key
            // file already carries the new bytes.)
            fs::remove_file(&intent_path)?;
        }
        for tmp in tmps {
            if !claimed_tmps.contains(&tmp) && tmp.is_file() {
                // Orphan temp with no intent: the put never committed.
                fs::remove_file(&tmp)?;
                report.discarded += 1;
            }
        }
        fsync_dir(&journal)?;
        Ok(report)
    }

    /// Durably writes a tenant's key bytes via the temp + intent + rename
    /// protocol. After this returns, either the new bytes are the key file
    /// or (on a crash mid-call) replay at the next [`open`](KeyStore::open)
    /// resolves deterministically to old-or-new, never a torn mix.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; a failed step leaves the journal in
    /// a state the next replay cleans up.
    pub fn put(&self, tenant: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.tmp_path(tenant);
        write_durable(&tmp, bytes)?;
        let intent = encode_intent(tenant, bytes.len() as u64, crc32(bytes));
        write_durable(&self.intent_path(tenant), &intent)?;
        fsync_dir(&self.journal_dir())?;
        fs::rename(&tmp, self.key_path(tenant))?;
        fsync_dir(&self.root)?;
        fs::remove_file(self.intent_path(tenant))?;
        fsync_dir(&self.journal_dir())?;
        Ok(())
    }

    /// Registers every key file in the directory with `registry` (file
    /// stem = tenant id, name order, so LRU eviction under capacity
    /// pressure is deterministic). A file that fails to decode is moved to
    /// the quarantine subdirectory and logged to stderr — it is *never* a
    /// fatal error, because one torn key must not take down every healthy
    /// tenant.
    ///
    /// # Errors
    ///
    /// Only filesystem failures (unreadable directory, failed quarantine
    /// move) are errors.
    pub fn load_into(&self, registry: &Arc<SessionRegistry>) -> io::Result<ReloadReport> {
        let mut paths: Vec<_> = fs::read_dir(&self.root)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        paths.sort();
        let mut report = ReloadReport::default();
        for path in paths {
            let tenant = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("tenant")
                .to_string();
            let outcome = fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| registry.load_key(&tenant, bytes).map_err(|e| e.to_string()));
            match outcome {
                Ok(_) => report.loaded += 1,
                Err(reason) => {
                    let moved = self.quarantine(&path)?;
                    eprintln!(
                        "rbt-server: quarantined corrupt key {} -> {} ({reason})",
                        path.display(),
                        moved.display()
                    );
                    report.quarantined += 1;
                }
            }
        }
        Ok(report)
    }

    /// Moves a corrupt key file into the quarantine subdirectory under a
    /// fresh (numbered) name, returning the destination path.
    fn quarantine(&self, path: &Path) -> io::Result<PathBuf> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed");
        for attempt in 0u32.. {
            let dest = self.quarantine_dir().join(format!("{name}.{attempt}"));
            if dest.exists() {
                continue;
            }
            fs::rename(path, &dest)?;
            fsync_dir(&self.quarantine_dir())?;
            fsync_dir(&self.root)?;
            return Ok(dest);
        }
        unreachable!("u32 quarantine namespace exhausted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rbt-keystore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_then_read_back_round_trips() {
        let dir = tmpdir("roundtrip");
        let store = KeyStore::open(&dir).unwrap();
        store.put("alpha", b"key bytes one").unwrap();
        store.put("beta", b"key bytes two").unwrap();
        assert_eq!(fs::read(store.key_path("alpha")).unwrap(), b"key bytes one");
        assert_eq!(fs::read(store.key_path("beta")).unwrap(), b"key bytes two");
        // Journal is empty after a completed put.
        let journal_entries = fs::read_dir(dir.join(JOURNAL_DIR)).unwrap().count();
        assert_eq!(journal_entries, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_completes_a_put_that_crashed_before_the_rename() {
        let dir = tmpdir("replay-complete");
        let store = KeyStore::open(&dir).unwrap();
        // Simulate a crash between intent write and rename: tmp + intent
        // present, no key file.
        let bytes = b"the new key".to_vec();
        write_durable(&store.tmp_path("t"), &bytes).unwrap();
        write_durable(
            &store.intent_path("t"),
            &encode_intent("t", bytes.len() as u64, crc32(&bytes)),
        )
        .unwrap();
        drop(store);

        let store = KeyStore::open(&dir).unwrap();
        assert_eq!(store.replay_report().completed, 1);
        assert_eq!(fs::read(store.key_path("t")).unwrap(), bytes);
        assert!(!store.intent_path("t").exists());
        assert!(!store.tmp_path("t").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_discards_a_torn_temp_and_keeps_the_old_key() {
        let dir = tmpdir("replay-torn");
        let store = KeyStore::open(&dir).unwrap();
        store.put("t", b"old key").unwrap();
        // Crash mid-tmp-write: the temp is shorter than the intent claims.
        let new = b"new key that never finished".to_vec();
        write_durable(&store.tmp_path("t"), &new[..5]).unwrap();
        write_durable(
            &store.intent_path("t"),
            &encode_intent("t", new.len() as u64, crc32(&new)),
        )
        .unwrap();
        drop(store);

        let store = KeyStore::open(&dir).unwrap();
        assert_eq!(store.replay_report().discarded, 1);
        assert_eq!(store.replay_report().completed, 0);
        assert_eq!(fs::read(store.key_path("t")).unwrap(), b"old key");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_clears_an_intent_left_after_the_rename() {
        let dir = tmpdir("replay-late");
        let store = KeyStore::open(&dir).unwrap();
        store.put("t", b"committed key").unwrap();
        // Crash after rename, before intent removal: re-create the intent.
        write_durable(
            &store.intent_path("t"),
            &encode_intent("t", 13, crc32(b"committed key")),
        )
        .unwrap();
        drop(store);

        let store = KeyStore::open(&dir).unwrap();
        assert!(!store.intent_path("t").exists());
        assert_eq!(fs::read(store.key_path("t")).unwrap(), b"committed key");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_discards_orphan_temps_and_garbage_intents() {
        let dir = tmpdir("replay-orphan");
        let store = KeyStore::open(&dir).unwrap();
        write_durable(&store.tmp_path("orphan"), b"no intent").unwrap();
        write_durable(&store.intent_path("garbage"), b"not an intent record").unwrap();
        drop(store);

        let store = KeyStore::open(&dir).unwrap();
        assert_eq!(store.replay_report().discarded, 2);
        assert!(!store.tmp_path("orphan").exists());
        assert!(!store.intent_path("garbage").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_into_quarantines_corrupt_keys_and_serves_the_rest() {
        use rand::SeedableRng;
        use rbt_api::{PrivacyTransform, RbtMethod};
        use rbt_core::{PairwiseSecurityThreshold, RbtConfig};
        use rbt_data::Dataset;
        use rbt_linalg::Matrix;

        let dir = tmpdir("quarantine");
        let store = KeyStore::open(&dir).unwrap();

        let rows = 12;
        let cols = 3;
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| ((i * 37) % 101) as f64 - 50.0)
            .collect();
        let ds = Dataset::new(
            Matrix::from_vec(rows, cols, data).unwrap(),
            vec!["a".to_string(), "b".to_string(), "c".to_string()],
        )
        .unwrap();
        let method = RbtMethod::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(0.05).unwrap(),
        ));
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let fit = method.fit(&ds, &mut rng).unwrap();
        let good = fit.fitted.to_bytes().unwrap();

        store.put("healthy", &good).unwrap();
        let mut torn = good.clone();
        torn.truncate(torn.len() / 2);
        store.put("torn", &torn).unwrap();

        let registry = Arc::new(SessionRegistry::new(8));
        let report = store.load_into(&registry).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.quarantined, 1);
        // The healthy tenant serves; the torn one is gone from the dir.
        assert!(registry.transform("healthy", &ds).is_ok());
        assert!(!store.key_path("torn").exists());
        let quarantined: Vec<_> = fs::read_dir(dir.join(QUARANTINE_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(quarantined, vec!["torn.key.0".to_string()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn intent_records_round_trip_and_reject_garbage() {
        let enc = encode_intent("tenant-x", 12345, 0xDEADBEEF);
        assert_eq!(
            decode_intent(&enc),
            Some(("tenant-x".to_string(), 12345, 0xDEADBEEF))
        );
        assert_eq!(decode_intent(b""), None);
        assert_eq!(decode_intent(b"RBTJ"), None);
        let mut truncated = enc.clone();
        truncated.pop();
        assert_eq!(decode_intent(&truncated), None);
        let mut extended = enc;
        extended.push(0);
        assert_eq!(decode_intent(&extended), None);
    }
}
