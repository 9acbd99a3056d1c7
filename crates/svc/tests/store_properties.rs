//! Property-based corruption drills for the persistent schedule store.
//!
//! The contract under test is the store's recovery promise: whatever a
//! crash, a torn write or silent media corruption leaves on disk,
//! `Store::open` never panics, recovers the longest valid record
//! prefix of the active segment, serves only records whose checksum
//! and key still verify, and accepts new writes that round-trip
//! byte-identically afterwards. The fills mix async-job records in with
//! the responses: those must come back as the backlog — exactly the
//! ones in the valid prefix, in log order — and must never be served
//! or listed in the digest.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use noc_svc::cache::JobOutput;
use noc_svc::hash::content_hash;
use noc_svc::store::{JobRecord, Store, StoreConfig, StoreStats};

/// A fresh per-case store directory under the OS temp dir.
fn fresh_dir(tag: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("noc-store-prop-{}-{tag:016x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> (Store, Vec<JobRecord>) {
    Store::open_with_backlog(StoreConfig::new(dir), Arc::new(StoreStats::default()))
        .expect("store opens")
}

/// The single active segment's log file.
fn active_log(dir: &Path) -> PathBuf {
    dir.join("seg-00000001.log")
}

/// One record a fill wrote, with the log length once it landed.
enum Written {
    Response { key: String, body: String },
    Job(JobRecord),
}

/// Fills a store with `n` deterministic responses and the job records
/// `jobs` asks for — `(position, accepted?)`, each written just before
/// response `position` (or after the last one) — and returns every
/// record in log order with the log length after it.
fn fill(store: &Store, dir: &Path, n: usize, jobs: &[(usize, bool)]) -> Vec<(Written, u64)> {
    let log_len = || {
        std::fs::metadata(active_log(dir))
            .expect("log exists")
            .len()
    };
    let mut written = Vec::new();
    let mut job_index = 0;
    for i in 0..=n {
        for &(_, accepted) in jobs.iter().filter(|(at, _)| (*at).min(n) == i) {
            let id = content_hash(&format!("job-{job_index}"));
            let job = if accepted {
                JobRecord::Accepted {
                    id,
                    body: format!("{{\"job\":{job_index},\"mode\":\"async\"}}"),
                }
            } else {
                JobRecord::Failed {
                    id,
                    error: format!("job {job_index} failed"),
                }
            };
            job_index += 1;
            assert!(store.put_job(&job));
            written.push((Written::Job(job), log_len()));
        }
        if i == n {
            break;
        }
        let key = format!("{{\"graph\":\"g{i}\",\"scheduler\":\"edf\"}}");
        let body = format!("{{\"schedule\":[{i},{i},{i}],\"makespan\":{}}}", i * 7 + 1);
        assert!(store.put(&key, &JobOutput::new(Arc::new(body.clone()))));
        written.push((Written::Response { key, body }, log_len()));
    }
    written
}

fn jobs_of<'a>(written: impl IntoIterator<Item = &'a (Written, u64)>) -> Vec<JobRecord> {
    written
        .into_iter()
        .filter_map(|(w, _)| match w {
            Written::Job(job) => Some(job.clone()),
            Written::Response { .. } => None,
        })
        .collect()
}

fn lanes(hash: &str) -> (u64, u64) {
    (
        u64::from_str_radix(&hash[..16], 16).expect("hex"),
        u64::from_str_radix(&hash[16..], 16).expect("hex"),
    )
}

/// Checks what a reopened store serves against what was written:
/// every served response is byte-identical, no job record is served
/// by key or by id lanes, and the digest lists exactly the served
/// responses. Returns which responses serve, in log order.
fn check_served(store: &Store, written: &[(Written, u64)]) -> Vec<bool> {
    let mut served = Vec::new();
    let mut digest_expected = HashSet::new();
    for (w, _) in written {
        match w {
            Written::Response { key, body } => {
                let hit = store.get(key);
                if let Some(output) = &hit {
                    prop_assert_eq!(
                        output.body.as_str(),
                        body.as_str(),
                        "a served record must be byte-identical despite corruption"
                    );
                    digest_expected.insert(lanes(&content_hash(key)));
                }
                served.push(hit.is_some());
            }
            Written::Job(job) => {
                prop_assert!(store.get(job.id()).is_none(), "job records never serve");
                prop_assert!(
                    store.get_by_lanes(lanes(job.id())).is_none(),
                    "job ids never resolve"
                );
            }
        }
    }
    let digest: HashSet<(u64, u64)> = store.indexed_lanes().into_iter().collect();
    prop_assert_eq!(digest, digest_expected, "the digest lists responses only");
    served
}

fn job_strategy() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0usize..14, prop::bool::ANY), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random single-byte corruption anywhere in the log: open never
    /// panics, every record it still serves is byte-identical to what
    /// was written, the backlog is exactly the job records before the
    /// first damaged byte, and a fresh write afterwards round-trips.
    #[test]
    fn open_survives_random_bit_flips(
        seed in 0u64..u64::MAX,
        records in 1usize..12,
        jobs in job_strategy(),
        flips in prop::collection::vec((0usize..4096, 0u8..8), 1..6),
    ) {
        let dir = fresh_dir(seed);
        let written = {
            let (store, _) = open(&dir);
            fill(&store, &dir, records, &jobs)
        };
        // Drop any stale packed index so the corrupted log itself is
        // what recovery reads.
        let _ = std::fs::remove_file(dir.join("seg-00000001.idx"));
        let log = active_log(&dir);
        let original = std::fs::read(&log).expect("log readable");
        let mut bytes = original.clone();
        for (pos, bit) in flips {
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
        std::fs::write(&log, &bytes).expect("log writable");
        // Flips can cancel out; the first byte that really changed
        // ends the valid prefix.
        let first_damage = original
            .iter()
            .zip(&bytes)
            .position(|(a, b)| a != b)
            .map_or(u64::MAX, |p| p as u64);

        let (store, backlog) = open(&dir);
        check_served(&store, &written);
        let intact = written.iter().filter(|(_, end)| *end <= first_damage);
        prop_assert_eq!(backlog, jobs_of(intact), "backlog is the valid prefix's jobs");
        // The store keeps working: a follow-up write round-trips.
        let fresh = JobOutput::new(Arc::new("{\"fresh\":true}".to_owned()));
        if store.put("fresh-key", &fresh) {
            let got = store.get("fresh-key").expect("fresh write readable");
            prop_assert_eq!(got.body.as_str(), "{\"fresh\":true}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Random truncation (a torn tail): open recovers the longest
    /// valid prefix — every record fully before the cut survives
    /// byte-identically, and the backlog is exactly the job records
    /// among them — and new writes append cleanly.
    #[test]
    fn truncation_recovers_longest_valid_prefix(
        seed in 0u64..u64::MAX,
        records in 1usize..12,
        jobs in job_strategy(),
        cut in 0.0f64..1.0,
    ) {
        let dir = fresh_dir(seed ^ 0x1);
        let written = {
            let (store, _) = open(&dir);
            fill(&store, &dir, records, &jobs)
        };
        let _ = std::fs::remove_file(dir.join("seg-00000001.idx"));
        let log = active_log(&dir);
        let len = std::fs::metadata(&log).expect("log exists").len();
        let keep = ((len as f64) * cut) as u64;
        let file = std::fs::OpenOptions::new().write(true).open(&log).expect("log opens");
        file.set_len(keep).expect("truncates");
        drop(file);

        // Frames are sequential, so the surviving records are exactly
        // the whole frames within `keep` bytes.
        let (store, backlog) = open(&dir);
        let served = check_served(&store, &written);
        let expected: Vec<bool> = written
            .iter()
            .filter(|(w, _)| matches!(w, Written::Response { .. }))
            .map(|(_, end)| *end <= keep)
            .collect();
        prop_assert_eq!(served, expected, "recovery must keep exactly the whole-frame prefix");
        let intact = written.iter().filter(|(_, end)| *end <= keep);
        prop_assert_eq!(backlog, jobs_of(intact), "backlog is the valid prefix's jobs");

        let fresh = JobOutput::new(Arc::new("{\"after\":\"truncate\"}".to_owned()));
        prop_assert!(store.put("post-truncate", &fresh), "store must accept writes after recovery");
        let got = store.get("post-truncate").expect("post-recovery write readable");
        prop_assert_eq!(got.body.as_str(), "{\"after\":\"truncate\"}");
        let after = JobRecord::Failed { id: content_hash("after"), error: "late".to_owned() };
        prop_assert!(store.put_job(&after), "job records append after recovery");
        drop(store);
        let (_, backlog) = open(&dir);
        prop_assert_eq!(backlog.last(), Some(&after), "a post-recovery job record replays");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Duplicate and partial records appended past a valid log (what a
    /// crashed writer that retried might leave): open never panics, the
    /// original records still serve their exact bytes, and the backlog
    /// holds every original job record first, in order, followed only
    /// by duplicated copies of them.
    #[test]
    fn duplicate_and_partial_tails_are_harmless(
        seed in 0u64..u64::MAX,
        records in 1usize..8,
        jobs in job_strategy(),
        partial in 1usize..64,
        junk in prop::collection::vec(0u8..=255, 0..128),
    ) {
        let dir = fresh_dir(seed ^ 0x2);
        let written = {
            let (store, _) = open(&dir);
            fill(&store, &dir, records, &jobs)
        };
        let _ = std::fs::remove_file(dir.join("seg-00000001.idx"));
        let log = active_log(&dir);
        let bytes = std::fs::read(&log).expect("log readable");
        let mut tail = bytes.clone();
        // A duplicate of the first record's frame, then a partial copy
        // of it, then arbitrary junk.
        let first_frame_len = bytes.len() / written.len();
        tail.extend_from_slice(&bytes[..first_frame_len.max(1)]);
        tail.extend_from_slice(&bytes[..partial.min(bytes.len())]);
        tail.extend_from_slice(&junk);
        std::fs::write(&log, &tail).expect("log writable");

        let (store, backlog) = open(&dir);
        let served = check_served(&store, &written);
        // The original log sits wholly before any damage: it must serve.
        prop_assert!(served.iter().all(|s| *s), "an appended tail must not cost a record");
        let originals = jobs_of(&written);
        prop_assert!(backlog.len() >= originals.len());
        prop_assert_eq!(&backlog[..originals.len()], &originals[..]);
        for extra in &backlog[originals.len()..] {
            prop_assert!(originals.contains(extra), "only whole duplicated frames may replay");
        }

        let fresh = JobOutput::new(Arc::new("{\"after\":\"tail\"}".to_owned()));
        prop_assert!(store.put("post-tail", &fresh));
        let got = store.get("post-tail").expect("post-tail write readable");
        prop_assert_eq!(got.body.as_str(), "{\"after\":\"tail\"}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
