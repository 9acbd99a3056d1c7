//! Packed immutable per-segment index files.
//!
//! When a segment rotates (or a sealed segment is re-scanned on open),
//! the store writes `seg-NNNNNNNN.idx` beside the log: a flat sorted
//! array of fixed-width entries mapping key-hash lanes to the record's
//! frame offset, length and kind, so the next open locates every
//! response record — and every job record of the backlog — with one
//! small read instead of scanning megabytes of log.
//!
//! ```text
//! file  := [magic "NOCSIDX2"][u64 LE entry count][entry …][u64 LE FNV-1a of everything before]
//! entry := [u64 LE key lane a][u64 LE key lane b][u64 LE frame offset][u32 LE frame length]
//!          [u8 kind]   // the frame's kind bits: 0 response, 4 accepted job, 8 failed job
//! ```
//!
//! Version-1 indexes (`NOCSIDX1`, no kind byte) fail the magic check
//! and are rebuilt from the log like any other unusable index.
//!
//! The index is **only a cache**: it is written atomically (temp file +
//! rename), verified whole-file by checksum on load, and on any
//! mismatch — missing, short, corrupt, or entries pointing past the
//! end of the log — the store falls back to scanning the log itself.
//! Losing an index can cost a scan; it can never cost a record.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use super::segment::{KIND_ACCEPTED, KIND_FAILED, KIND_RESPONSE};
use crate::hash::fnv1a64;

const MAGIC: &[u8; 8] = b"NOCSIDX2";
const ENTRY_BYTES: usize = 8 + 8 + 8 + 4 + 1;

/// One index entry: where a key's record lives in the segment log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexEntry {
    /// The two FNV-1a lanes of the record key.
    pub lanes: (u64, u64),
    /// Byte offset of the frame start within the segment log.
    pub offset: u64,
    /// Whole-frame length (header + payload).
    pub len: u32,
    /// The frame's kind bits (see [`super::segment`]).
    pub kind: u8,
}

fn sibling_tmp(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Writes the index for one sealed segment atomically: temp file in the
/// same directory, then rename over the final name. Entries are stored
/// sorted by lanes (ties broken by offset, so a later duplicate of the
/// same key orders after — and on load overrides — an earlier one).
///
/// # Errors
///
/// Propagates filesystem failures; the caller treats them as advisory
/// (the log remains the source of truth).
pub(crate) fn write_index(path: &Path, entries: &[IndexEntry]) -> io::Result<()> {
    let mut sorted: Vec<IndexEntry> = entries.to_vec();
    sorted.sort_by_key(|e| (e.lanes, e.offset));

    let mut bytes = Vec::with_capacity(8 + 8 + sorted.len() * ENTRY_BYTES + 8);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&(sorted.len() as u64).to_le_bytes());
    for e in &sorted {
        bytes.extend_from_slice(&e.lanes.0.to_le_bytes());
        bytes.extend_from_slice(&e.lanes.1.to_le_bytes());
        bytes.extend_from_slice(&e.offset.to_le_bytes());
        bytes.extend_from_slice(&e.len.to_le_bytes());
        bytes.push(e.kind);
    }
    bytes.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());

    let tmp = sibling_tmp(path);
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    drop(file);
    fs::rename(&tmp, path)
}

/// Loads a segment index, returning `None` — never an error — when the
/// file is absent, short, checksum-failing, malformed, or lists a
/// record extending past `log_len` (a stale index from before a
/// torn-tail truncation). `None` means "scan the log instead".
pub(crate) fn load_index(path: &Path, log_len: u64) -> Option<Vec<IndexEntry>> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < MAGIC.len() + 8 + 8 || &bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    let body_len = bytes.len() - 8;
    let sum = u64::from_le_bytes(bytes[body_len..].try_into().ok()?);
    if fnv1a64(&bytes[..body_len]) != sum {
        return None;
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().ok()?) as usize;
    let entry_bytes = body_len.checked_sub(16)?;
    if count.checked_mul(ENTRY_BYTES)? != entry_bytes {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let at = 16 + i * ENTRY_BYTES;
        let e = IndexEntry {
            lanes: (
                u64::from_le_bytes(bytes[at..at + 8].try_into().ok()?),
                u64::from_le_bytes(bytes[at + 8..at + 16].try_into().ok()?),
            ),
            offset: u64::from_le_bytes(bytes[at + 16..at + 24].try_into().ok()?),
            len: u32::from_le_bytes(bytes[at + 24..at + 28].try_into().ok()?),
            kind: bytes[at + 28],
        };
        if ![KIND_RESPONSE, KIND_ACCEPTED, KIND_FAILED].contains(&e.kind) {
            return None;
        }
        if e.offset.checked_add(u64::from(e.len))? > log_len {
            return None; // stale index outlives a truncated log: rescan
        }
        entries.push(e);
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempIdx(PathBuf);

    impl TempIdx {
        fn new(name: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("noc-store-idx-{}-{name}", std::process::id()));
            let _ = fs::remove_file(&path);
            TempIdx(path)
        }
    }

    impl Drop for TempIdx {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    fn sample() -> Vec<IndexEntry> {
        vec![
            IndexEntry {
                lanes: (7, 9),
                offset: 120,
                len: 40,
                kind: KIND_ACCEPTED,
            },
            IndexEntry {
                lanes: (1, 2),
                offset: 0,
                len: 120,
                kind: KIND_RESPONSE,
            },
        ]
    }

    #[test]
    fn entries_round_trip_sorted() {
        let tmp = TempIdx::new("round-trip");
        write_index(&tmp.0, &sample()).expect("writes");
        let loaded = load_index(&tmp.0, 160).expect("loads");
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].lanes, (1, 2), "sorted by lanes");
        assert_eq!(loaded[1].offset, 120);
        assert_eq!(loaded[1].kind, KIND_ACCEPTED, "kinds round-trip");
    }

    #[test]
    fn corrupt_or_short_indexes_load_as_none() {
        let tmp = TempIdx::new("corrupt");
        write_index(&tmp.0, &sample()).expect("writes");
        let mut bytes = fs::read(&tmp.0).expect("reads");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&tmp.0, &bytes).expect("writes");
        assert!(load_index(&tmp.0, 160).is_none(), "checksum must reject");

        // A version-1 index: valid checksum, old magic, no kind bytes.
        write_index(&tmp.0, &sample()).expect("writes");
        let mut bytes = fs::read(&tmp.0).expect("reads");
        bytes[..8].copy_from_slice(b"NOCSIDX1");
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        fs::write(&tmp.0, &bytes).expect("writes");
        assert!(load_index(&tmp.0, 160).is_none(), "old magic means rescan");

        fs::write(&tmp.0, b"NO").expect("writes");
        assert!(load_index(&tmp.0, 160).is_none(), "short file rejected");
        assert!(
            load_index(Path::new("/nonexistent/x.idx"), 160).is_none(),
            "missing file rejected"
        );
    }

    #[test]
    fn entries_past_the_log_end_invalidate_the_index() {
        let tmp = TempIdx::new("stale");
        write_index(&tmp.0, &sample()).expect("writes");
        assert!(load_index(&tmp.0, 160).is_some());
        assert!(
            load_index(&tmp.0, 100).is_none(),
            "a log truncated below an indexed record means the index is stale"
        );
    }
}
