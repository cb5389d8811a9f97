//! The crash-safe persistent artifact cache behind `sxed`.
//!
//! One artifact per file, under one cache directory:
//!
//! ```text
//! <dir>/<key:016x>.art      committed entries (self-validating)
//! <dir>/.tmp-<key>-<pid>    in-progress writes (never read)
//! <dir>/quarantine/         entries that failed validation on read
//! <dir>/index.txt           fsynced key listing (durability barrier)
//! ```
//!
//! Every entry file carries its own header — magic, key, payload
//! length, FNV-1a checksum — followed by the payload bytes, so a file
//! is either *provably complete* or it is not served:
//!
//! * **writes are atomic** — the payload is written to a `.tmp-` file,
//!   `fsync`ed, then `rename`d into place. A `kill -9` at any point
//!   leaves either the old state or the new state, never a torn entry
//!   under the committed name; leftover temp files are swept (and
//!   counted) on the next open.
//! * **reads are validating** — magic, key, length, and checksum are
//!   re-checked on every read. A corrupt or truncated entry (e.g. a
//!   partially flushed page that survived a crash, or outside
//!   tampering) is moved into `quarantine/` and counted in
//!   [`StoreStats::quarantined`]; the caller sees a plain miss and
//!   recompiles, so a damaged cache can degrade performance but never
//!   correctness.
//! * **the index is a barrier, not the truth** — the committed files
//!   are the source of truth (the store rescans them on open);
//!   [`ArtifactStore::persist_index`], called by graceful shutdown,
//!   atomically rewrites `index.txt` and `fsync`s the directory so
//!   every rename performed this run is durable before the process
//!   exits.

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use sxe_ir::hash::{fnv1a, FNV_OFFSET};

const MAGIC: &[u8] = b"SXEART1\n";

/// Effectiveness and robustness counters, surfaced as the
/// `serve.cache.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from a validated entry.
    pub hits: u64,
    /// Lookups with no (valid) entry.
    pub misses: u64,
    /// Entries committed.
    pub inserts: u64,
    /// Entries that failed validation on read and were quarantined.
    pub quarantined: u64,
    /// Leftover temp files swept on open (crash debris).
    pub swept_tmp: u64,
    /// Failed insert attempts (I/O errors; the entry is simply absent).
    pub write_errors: u64,
}

/// The on-disk artifact cache. Not internally synchronized — `sxed`
/// wraps it in a mutex shared by the worker pool.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    keys: HashSet<u64>,
    write_delay: Option<Duration>,
    stats: StoreStats,
}

fn entry_name(key: u64) -> String {
    format!("{key:016x}.art")
}

impl ArtifactStore {
    /// Open (creating if needed) the cache at `dir`: sweep crash debris,
    /// rebuild the key index from the committed files.
    ///
    /// `write_delay` widens the in-progress-write window by sleeping
    /// between the two halves of every entry write — a test hook that
    /// makes "`kill -9` mid-write" reliably reproducible; pass `None`
    /// in production.
    ///
    /// # Errors
    /// I/O errors creating or scanning the directory.
    pub fn open(dir: impl Into<PathBuf>, write_delay: Option<Duration>) -> io::Result<ArtifactStore> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("quarantine"))?;
        let mut store =
            ArtifactStore { dir, keys: HashSet::new(), write_delay, stats: StoreStats::default() };
        for entry in fs::read_dir(&store.dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(".tmp-") {
                // An insert was killed mid-write; the commit never
                // happened, so the debris is meaningless.
                fs::remove_file(entry.path())?;
                store.stats.swept_tmp += 1;
            } else if let Some(stem) = name.strip_suffix(".art") {
                if let Ok(key) = u64::from_str_radix(stem, 16) {
                    store.keys.insert(key);
                }
            }
        }
        Ok(store)
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of committed entries currently believed valid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the store has no committed entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Look up `key`. A committed entry is re-validated (magic, key,
    /// length, checksum); on any mismatch it is quarantined and the
    /// lookup is a miss — a corrupt cache can never produce a wrong
    /// payload, only a recompile.
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        if !self.keys.contains(&key) {
            self.stats.misses += 1;
            return None;
        }
        let path = self.dir.join(entry_name(key));
        match read_entry(&path, key) {
            Ok(payload) => {
                self.stats.hits += 1;
                Some(payload)
            }
            Err(_) => {
                self.quarantine(&path);
                self.keys.remove(&key);
                self.stats.quarantined += 1;
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Commit `payload` under `key`: write to a temp file, `fsync`,
    /// rename into place. Failures are counted and swallowed into the
    /// return value — a cache that cannot write degrades to a compiler,
    /// it does not take the service down.
    pub fn insert(&mut self, key: u64, payload: &[u8]) -> bool {
        match self.try_insert(key, payload) {
            Ok(()) => {
                self.keys.insert(key);
                self.stats.inserts += 1;
                true
            }
            Err(_) => {
                self.stats.write_errors += 1;
                false
            }
        }
    }

    fn try_insert(&self, key: u64, payload: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!(".tmp-{:016x}-{}", key, std::process::id()));
        let final_path = self.dir.join(entry_name(key));
        let bytes = encode_entry(key, payload);
        let write = || -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            match self.write_delay {
                None => f.write_all(&bytes)?,
                Some(delay) => {
                    // Crash-window hook: land the first half on disk,
                    // linger, then finish — a SIGKILL inside the window
                    // leaves a torn temp file that must never be served.
                    let mid = bytes.len() / 2;
                    f.write_all(&bytes[..mid])?;
                    f.sync_all()?;
                    std::thread::sleep(delay);
                    f.write_all(&bytes[mid..])?;
                }
            }
            f.sync_all()?;
            fs::rename(&tmp, &final_path)
        };
        let result = write();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Atomically rewrite `index.txt` with the committed keys and
    /// `fsync` both it and the cache directory — the graceful-shutdown
    /// durability barrier: after this returns, every rename performed
    /// by this process is on disk.
    ///
    /// # Errors
    /// I/O errors writing or syncing.
    pub fn persist_index(&self) -> io::Result<()> {
        let mut keys: Vec<u64> = self.keys.iter().copied().collect();
        keys.sort_unstable();
        let mut text = String::from("sxed-index/1\n");
        for k in keys {
            text.push_str(&format!("{k:016x}\n"));
        }
        let tmp = self.dir.join(".tmp-index");
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, self.dir.join("index.txt"))?;
        File::open(&self.dir)?.sync_all()
    }

    fn quarantine(&self, path: &Path) {
        let dest = self
            .dir
            .join("quarantine")
            .join(path.file_name().unwrap_or_else(|| "corrupt".as_ref()));
        let _ = fs::remove_file(&dest);
        if fs::rename(path, &dest).is_err() {
            // Renames only fail across filesystems here; fall back to
            // deletion so the corrupt entry cannot be served next run.
            let _ = fs::remove_file(path);
        }
    }
}

/// The exact on-disk bytes of one committed entry: header (magic, key,
/// length, checksum) followed by the payload. Shared by the insert path
/// and the crash-point sweep, so the sweep truncates precisely what a
/// real write would have produced.
fn encode_entry(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 64);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(format!("key={key:016x}\n").as_bytes());
    bytes.extend_from_slice(format!("len={}\n", payload.len()).as_bytes());
    bytes.extend_from_slice(format!("fnv={:016x}\n", fnv1a(FNV_OFFSET, payload)).as_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// What [`crash_point_sweep`] proved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashSweepReport {
    /// Crash points simulated (every byte boundary, both write phases).
    pub boundaries: u64,
    /// Crash points that recovered to a clean miss (temp debris swept,
    /// or a torn committed file quarantined).
    pub recovered_misses: u64,
    /// Crash points at which the entry was complete and replayed
    /// byte-identically.
    pub intact_hits: u64,
}

/// Deterministic crash-point sweep of one artifact write: simulate a
/// `kill -9` at **every byte boundary** of the entry write — both while
/// the `.tmp-` file is being written (the commit rename never happened)
/// and with the committed file torn at that byte (a partially flushed
/// page that survived a crash) — and prove that [`ArtifactStore::open`]
/// followed by a lookup of `key` recovers every time: the entry is
/// either fully present with exactly `payload`, or a clean quarantined/
/// swept miss. Never a wrong artifact, never an error, never a hang.
///
/// This subsumes, deterministically, what the timing-based
/// `--write-delay-ms` + SIGKILL stress gate can only sample.
///
/// `dir` is scratch space: it is recreated from empty for every crash
/// point and left removed on success.
///
/// # Errors
/// A description of the first crash point that violated the contract,
/// or of an underlying I/O failure.
pub fn crash_point_sweep(
    dir: &Path,
    key: u64,
    payload: &[u8],
) -> Result<CrashSweepReport, String> {
    let entry = encode_entry(key, payload);
    let mut report = CrashSweepReport::default();
    let reset = |cut: usize| -> Result<(), String> {
        if dir.exists() {
            fs::remove_dir_all(dir).map_err(|e| format!("crash point {cut}: reset: {e}"))?;
        }
        fs::create_dir_all(dir).map_err(|e| format!("crash point {cut}: mkdir: {e}"))
    };

    // Phase 1: killed while the .tmp- file was being written. The
    // rename never happened, so open must sweep the debris and the
    // lookup must be a plain miss — at every prefix length.
    for cut in 0..=entry.len() {
        reset(cut)?;
        fs::write(dir.join(format!(".tmp-{key:016x}-0")), &entry[..cut])
            .map_err(|e| format!("tmp crash point {cut}: write: {e}"))?;
        let mut store = ArtifactStore::open(dir, None)
            .map_err(|e| format!("tmp crash point {cut}: open must recover, got: {e}"))?;
        if store.stats().swept_tmp != 1 {
            return Err(format!("tmp crash point {cut}: debris was not swept"));
        }
        if let Some(wrong) = store.get(key) {
            return Err(format!(
                "tmp crash point {cut}: an uncommitted write was served ({} bytes)",
                wrong.len()
            ));
        }
        report.boundaries += 1;
        report.recovered_misses += 1;
    }

    // Phase 2: the committed file itself torn at every byte boundary.
    // Only the full length may be served, and then byte-identically;
    // every shorter prefix must be quarantined into a clean miss.
    for cut in 0..=entry.len() {
        reset(cut)?;
        fs::write(dir.join(entry_name(key)), &entry[..cut])
            .map_err(|e| format!("torn crash point {cut}: write: {e}"))?;
        let mut store = ArtifactStore::open(dir, None)
            .map_err(|e| format!("torn crash point {cut}: open must recover, got: {e}"))?;
        report.boundaries += 1;
        match store.get(key) {
            Some(served) if served == payload => {
                if cut != entry.len() {
                    return Err(format!(
                        "torn crash point {cut}: a {cut}-byte prefix of a {}-byte entry \
                         validated as complete",
                        entry.len()
                    ));
                }
                report.intact_hits += 1;
            }
            Some(served) => {
                return Err(format!(
                    "torn crash point {cut}: WRONG ARTIFACT served ({} bytes, wanted {})",
                    served.len(),
                    payload.len()
                ));
            }
            None => {
                if cut == entry.len() {
                    return Err(format!(
                        "torn crash point {cut}: the complete entry was not served"
                    ));
                }
                if store.stats().quarantined != 1 {
                    return Err(format!(
                        "torn crash point {cut}: torn entry was missed but not quarantined"
                    ));
                }
                report.recovered_misses += 1;
            }
        }
    }
    let _ = fs::remove_dir_all(dir);
    Ok(report)
}

fn read_entry(path: &Path, want_key: u64) -> io::Result<Vec<u8>> {
    let bytes = fs::read(path)?;
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let rest = bytes.strip_prefix(MAGIC).ok_or_else(|| bad("bad magic"))?;
    let mut lines = rest.splitn(4, |&b| b == b'\n');
    let key_line = lines.next().ok_or_else(|| bad("missing key"))?;
    let len_line = lines.next().ok_or_else(|| bad("missing len"))?;
    let fnv_line = lines.next().ok_or_else(|| bad("missing fnv"))?;
    let payload = lines.next().ok_or_else(|| bad("missing payload"))?;
    let key = std::str::from_utf8(key_line)
        .ok()
        .and_then(|s| s.strip_prefix("key="))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| bad("bad key header"))?;
    let len: usize = std::str::from_utf8(len_line)
        .ok()
        .and_then(|s| s.strip_prefix("len="))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad len header"))?;
    let fnv = std::str::from_utf8(fnv_line)
        .ok()
        .and_then(|s| s.strip_prefix("fnv="))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| bad("bad fnv header"))?;
    if key != want_key {
        return Err(bad("key does not match filename"));
    }
    if payload.len() != len {
        return Err(bad("payload truncated or extended"));
    }
    if fnv1a(FNV_OFFSET, payload) != fnv {
        return Err(bad("checksum mismatch"));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("sxe-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let mut store = ArtifactStore::open(&dir, None).unwrap();
        assert!(store.get(7).is_none());
        assert!(store.insert(7, b"payload bytes"));
        assert_eq!(store.get(7).as_deref(), Some(&b"payload bytes"[..]));
        store.persist_index().unwrap();
        drop(store);

        let mut again = ArtifactStore::open(&dir, None).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again.get(7).as_deref(), Some(&b"payload bytes"[..]));
        assert!(fs::read_to_string(dir.join("index.txt")).unwrap().contains(&format!("{:016x}", 7)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entry_is_quarantined_not_served() {
        let dir = tmpdir("trunc");
        let mut store = ArtifactStore::open(&dir, None).unwrap();
        assert!(store.insert(42, b"the artifact"));
        let path = dir.join(entry_name(42));
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 4]).unwrap();

        let mut again = ArtifactStore::open(&dir, None).unwrap();
        assert_eq!(again.len(), 1, "the file looks committed until read");
        assert!(again.get(42).is_none(), "torn entry must not be served");
        assert_eq!(again.stats().quarantined, 1);
        assert!(!path.exists());
        assert!(dir.join("quarantine").join(entry_name(42)).exists());
        // A second lookup is an ordinary miss.
        assert!(again.get(42).is_none());
        assert_eq!(again.stats().quarantined, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_byte_is_detected() {
        let dir = tmpdir("flip");
        let mut store = ArtifactStore::open(&dir, None).unwrap();
        assert!(store.insert(9, b"sensitive artifact data"));
        let path = dir.join(entry_name(9));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20; // flip one payload bit
        fs::write(&path, bytes).unwrap();
        assert!(store.get(9).is_none(), "checksum must catch the flip");
        assert_eq!(store.stats().quarantined, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_debris_is_swept_on_open() {
        let dir = tmpdir("sweep");
        drop(ArtifactStore::open(&dir, None).unwrap());
        fs::write(dir.join(".tmp-00000000000000aa-123"), b"half a write").unwrap();
        let store = ArtifactStore::open(&dir, None).unwrap();
        assert_eq!(store.stats().swept_tmp, 1);
        assert_eq!(store.len(), 0);
        assert!(!dir.join(".tmp-00000000000000aa-123").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_point_sweep_recovers_at_every_byte_boundary() {
        // The deterministic counterpart of the SIGKILL-mid-write stress
        // gate: every prefix of one entry write, both as tmp debris and
        // as a torn committed file, recovers to either the exact
        // payload or a clean miss.
        let dir = tmpdir("sweep-all");
        let payload = b"a realistic artifact payload: key=0000\nbody text\n";
        let report = crash_point_sweep(&dir, 0xabcd, payload).unwrap();
        let entry_len = (encode_entry(0xabcd, payload).len() + 1) as u64;
        assert_eq!(report.boundaries, 2 * entry_len, "every byte boundary, both phases");
        assert_eq!(report.intact_hits, 1, "only the complete entry is ever served");
        assert_eq!(report.recovered_misses, report.boundaries - 1);
        assert!(!dir.exists(), "scratch space is cleaned up");
    }

    #[test]
    fn reinsert_after_quarantine_recovers() {
        let dir = tmpdir("recover");
        let mut store = ArtifactStore::open(&dir, None).unwrap();
        assert!(store.insert(5, b"v1"));
        let path = dir.join(entry_name(5));
        fs::write(&path, b"garbage").unwrap();
        assert!(store.get(5).is_none());
        assert!(store.insert(5, b"v1"));
        assert_eq!(store.get(5).as_deref(), Some(&b"v1"[..]));
        let s = store.stats();
        assert_eq!((s.quarantined, s.inserts, s.hits), (1, 2, 1));
        fs::remove_dir_all(&dir).unwrap();
    }
}
