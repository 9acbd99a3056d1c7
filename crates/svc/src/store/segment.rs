//! Segment-file framing for the persistent schedule store.
//!
//! A segment is a flat append-only sequence of checksummed,
//! length-prefixed frames with a binary payload, so multi-kilobyte
//! response bodies round-trip without escaping:
//!
//! ```text
//! frame   := [u32 LE payload length][u64 LE FNV-1a(payload)][payload]
//! payload := [u32 LE key length][key (UTF-8)]
//!            [u8 flags]     // bit0 degraded, bit1 has stats,
//!                           // bit2 accepted job, bit3 failed job
//!            [u32 LE body length][body (UTF-8)]
//!            [u32 LE stats length][stats (trace summary JSON, UTF-8)]
//! ```
//!
//! A frame with both kind bits (2 and 3) clear is a response record:
//! the key is the canonical request, the body the response bytes. A
//! frame with one of them set is a job record: the key is the job id,
//! the body the original request (accepted) or the error (failed).
//! Both set is not a valid frame.
//!
//! Every append is one `write(2)` of one whole frame, so a crash can
//! only truncate the file mid-frame, never interleave frames. A scan
//! accepts the **longest valid prefix**: it stops at the first frame
//! whose header is short, whose declared length overruns the file,
//! whose checksum fails, or whose payload does not decode. Everything
//! after that point is either a torn tail (active segment — truncated
//! on open) or quarantined bytes (sealed segment — counted, never
//! served).

use std::sync::Arc;

use super::index::IndexEntry;
use super::JobRecord;
use crate::cache::JobOutput;
use crate::hash::{fnv1a64, hash_lanes};

/// Bytes of frame header: u32 payload length + u64 checksum.
pub(crate) const FRAME_HEADER: usize = 4 + 8;

/// Upper bound on a single payload. A corrupt length prefix must not
/// drive a multi-gigabyte allocation; real response bodies are a few
/// hundred KiB at the extreme.
const MAX_PAYLOAD: usize = 256 * 1024 * 1024;

const FLAG_DEGRADED: u8 = 1 << 0;
const FLAG_HAS_STATS: u8 = 1 << 1;
/// Kind bit of an accepted-job record.
pub(crate) const KIND_ACCEPTED: u8 = 1 << 2;
/// Kind bit of a failed-job record.
pub(crate) const KIND_FAILED: u8 = 1 << 3;
/// The kind bits of a response record (neither job bit set).
pub(crate) const KIND_RESPONSE: u8 = 0;

fn push_chunk(out: &mut Vec<u8>, bytes: &[u8]) {
    let len = u32::try_from(bytes.len()).expect("chunk fits u32");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(bytes);
}

fn encode_frame(key: &str, flags: u8, body: &str, stats: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(key.len() + body.len() + stats.len() + 3 * 4 + 1);
    push_chunk(&mut payload, key.as_bytes());
    payload.push(flags);
    push_chunk(&mut payload, body.as_bytes());
    push_chunk(&mut payload, stats.as_bytes());

    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload fits u32")
            .to_le_bytes(),
    );
    frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Encodes one `(key, output)` response record as a complete frame
/// ready for a single append.
pub(crate) fn encode_record(key: &str, output: &JobOutput) -> Vec<u8> {
    let mut flags = KIND_RESPONSE;
    if output.degraded {
        flags |= FLAG_DEGRADED;
    }
    if output.stats.is_some() {
        flags |= FLAG_HAS_STATS;
    }
    let stats = output.stats.as_deref().map_or("", |s| s.as_str());
    encode_frame(key, flags, &output.body, stats)
}

/// Encodes one job record as a complete frame: the id in the key
/// chunk, the request body or error in the body chunk.
pub(crate) fn encode_job(job: &JobRecord) -> Vec<u8> {
    match job {
        JobRecord::Accepted { id, body } => encode_frame(id, KIND_ACCEPTED, body, ""),
        JobRecord::Failed { id, error } => encode_frame(id, KIND_FAILED, error, ""),
    }
}

/// One decoded frame.
pub(crate) enum Frame {
    /// A response record: canonical request key and its output.
    Response(String, JobOutput),
    /// A job record.
    Job(JobRecord),
}

/// A cursor over a payload's chunks.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(slice)
    }

    fn chunk(&mut self) -> Option<&'a str> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().ok()?) as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn byte(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
}

fn decode_payload(payload: &[u8]) -> Option<Frame> {
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
    };
    let key = cur.chunk()?.to_owned();
    let flags = cur.byte()?;
    let body = cur.chunk()?.to_owned();
    let stats = cur.chunk()?.to_owned();
    if cur.at != payload.len() {
        return None; // trailing garbage is not a valid record
    }
    Some(match flags & (KIND_ACCEPTED | KIND_FAILED) {
        KIND_RESPONSE => Frame::Response(
            key,
            JobOutput {
                body: Arc::new(body),
                degraded: flags & FLAG_DEGRADED != 0,
                stats: (flags & FLAG_HAS_STATS != 0).then(|| Arc::new(stats)),
            },
        ),
        KIND_ACCEPTED => Frame::Job(JobRecord::Accepted { id: key, body }),
        KIND_FAILED => Frame::Job(JobRecord::Failed {
            id: key,
            error: body,
        }),
        _ => return None,
    })
}

/// Decodes one complete frame (header + payload, exactly as long as the
/// index says). Returns `None` — never panics — on any mismatch: short
/// buffer, bad length, checksum failure, undecodable payload. A `None`
/// from here is what quarantines a record at read time.
pub(crate) fn decode_frame(frame: &[u8]) -> Option<Frame> {
    let header = frame.get(..FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
    let sum = u64::from_le_bytes(header[4..].try_into().ok()?);
    let payload = frame.get(FRAME_HEADER..FRAME_HEADER + len)?;
    if FRAME_HEADER + len != frame.len() || fnv1a64(payload) != sum {
        return None;
    }
    decode_payload(payload)
}

/// Result of scanning a segment's bytes.
pub(crate) struct Scan {
    /// Every record in the longest valid prefix, in file order, as the
    /// index entries that locate them.
    pub records: Vec<IndexEntry>,
    /// The job records among them, in file order.
    pub jobs: Vec<JobRecord>,
    /// Length of that prefix; bytes past it are torn or corrupt.
    pub valid_len: u64,
}

/// Scans `bytes`, accepting the longest valid prefix of whole,
/// checksum-passing, decodable frames.
pub(crate) fn scan(bytes: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut jobs = Vec::new();
    let mut offset = 0usize;
    while let Some(header) = bytes.get(offset..offset + FRAME_HEADER) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD {
            break;
        }
        let frame_len = FRAME_HEADER + len;
        let Some(frame) = bytes.get(offset..offset + frame_len) else {
            break;
        };
        let (key, kind) = match decode_frame(frame) {
            Some(Frame::Response(key, _)) => (key, KIND_RESPONSE),
            Some(Frame::Job(job)) => {
                let key = job.id().to_owned();
                let kind = job.kind();
                jobs.push(job);
                (key, kind)
            }
            None => break,
        };
        records.push(IndexEntry {
            lanes: hash_lanes(key.as_bytes()),
            offset: offset as u64,
            len: u32::try_from(frame_len).expect("frame fits u32"),
            kind,
        });
        offset += frame_len;
    }
    Scan {
        records,
        jobs,
        valid_len: offset as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(body: &str, degraded: bool, stats: Option<&str>) -> JobOutput {
        JobOutput {
            body: Arc::new(body.to_owned()),
            degraded,
            stats: stats.map(|s| Arc::new(s.to_owned())),
        }
    }

    #[test]
    fn records_round_trip_with_flags_and_stats() {
        for (degraded, stats) in [
            (false, None),
            (true, None),
            (false, Some(r#"{"wall":1}"#)),
            (true, Some("")),
        ] {
            let out = output(r#"{"makespan":4.0}"#, degraded, stats);
            let frame = encode_record("key{json}", &out);
            let Some(Frame::Response(key, got)) = decode_frame(&frame) else {
                panic!("decodes as a response");
            };
            assert_eq!(key, "key{json}");
            assert_eq!(got.body.as_str(), out.body.as_str());
            assert_eq!(got.degraded, degraded);
            assert_eq!(got.stats.as_deref().map(String::as_str), stats);
        }
    }

    /// Response frames keep the exact bytes earlier releases wrote, so
    /// existing store directories open and serve unchanged.
    #[test]
    fn response_frames_encode_to_the_pinned_bytes() {
        let frame = encode_record("k", &output(r#"{"b":1}"#, true, Some(r#"{"s":2}"#)));
        let golden: &[u8] = &[
            0x1c, 0x00, 0x00, 0x00, 0x16, 0x43, 0x9b, 0x61, 0xef, 0xfa, 0x79, 0x2d, 0x01, 0x00,
            0x00, 0x00, 0x6b, 0x03, 0x07, 0x00, 0x00, 0x00, b'{', b'"', b'b', b'"', b':', b'1',
            b'}', 0x07, 0x00, 0x00, 0x00, b'{', b'"', b's', b'"', b':', b'2', b'}',
        ];
        assert_eq!(frame, golden);
    }

    #[test]
    fn job_records_round_trip_and_scan_apart_from_responses() {
        let jobs = [
            JobRecord::Accepted {
                id: "00ff".into(),
                body: r#"{"graph":{},"platform":"mesh:2x2"}"#.into(),
            },
            JobRecord::Failed {
                id: "00ff".into(),
                error: "boom".into(),
            },
        ];
        let mut bytes = encode_record("key", &output("body", false, None));
        for job in &jobs {
            let frame = encode_job(job);
            let Some(Frame::Job(got)) = decode_frame(&frame) else {
                panic!("decodes as a job record");
            };
            assert_eq!(&got, job);
            bytes.extend_from_slice(&frame);
        }
        let s = scan(&bytes);
        let kinds: Vec<u8> = s.records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [KIND_RESPONSE, KIND_ACCEPTED, KIND_FAILED]);
        assert_eq!(s.jobs, jobs);
        assert_eq!(s.valid_len, bytes.len() as u64);
    }

    #[test]
    fn both_kind_bits_set_is_not_a_frame() {
        let frame = encode_frame("id", KIND_ACCEPTED | KIND_FAILED, "x", "");
        assert!(decode_frame(&frame).is_none());
        assert!(scan(&frame).records.is_empty());
    }

    #[test]
    fn any_flipped_byte_fails_the_decode() {
        let frame = encode_record("k", &output("body", false, None));
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            // Either the frame no longer decodes, or (for flag/length
            // bits that keep the checksum valid — impossible here since
            // the checksum covers the payload and header mismatches are
            // structural) it must not silently alter the key or body.
            assert!(
                decode_frame(&bad).is_none(),
                "flip at byte {i} still decoded"
            );
        }
    }

    #[test]
    fn scan_accepts_the_longest_valid_prefix() {
        let mut bytes = Vec::new();
        for i in 0..4 {
            bytes.extend_from_slice(&encode_record(
                &format!("key-{i}"),
                &output(&format!("body-{i}"), false, None),
            ));
        }
        let full = scan(&bytes);
        assert_eq!(full.records.len(), 4);
        assert_eq!(full.valid_len, bytes.len() as u64);

        // Corrupt the third record: the first two survive, the rest are
        // rejected even though record four is intact (offsets past a
        // corrupt frame cannot be trusted).
        let third = full.records[2].offset as usize + FRAME_HEADER + 2;
        let mut corrupt = bytes.clone();
        corrupt[third] ^= 0xff;
        let partial = scan(&corrupt);
        assert_eq!(partial.records.len(), 2);
        assert_eq!(partial.valid_len, full.records[2].offset);

        // Torn tail: half a frame at the end drops only that frame.
        let torn = &bytes[..bytes.len() - 7];
        let tail = scan(torn);
        assert_eq!(tail.records.len(), 3);
    }

    #[test]
    fn absurd_length_prefix_stops_the_scan() {
        let mut bytes = vec![0xffu8; 64]; // length prefix ~4 GiB
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let s = scan(&bytes);
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, 0);
    }
}
