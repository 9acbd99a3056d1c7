//! Canonical JSON rendering and content hashing for the
//! content-addressed schedule cache.
//!
//! Two requests describe the same scheduling problem iff their
//! *canonical* renderings are byte-identical: objects print with keys
//! sorted ascending at every nesting level, arrays keep their order
//! (JSON arrays are ordered data), and numbers/strings print exactly as
//! the vendored `serde_json` writer prints them. The canonical string is
//! the cache key — collisions are impossible by construction — while
//! [`content_hash`] derives the short hex job id shown in URLs and
//! logs.

use serde::{Number, Value};

/// Renders `value` canonically: compact, object keys sorted ascending
/// (bytewise) at every level. Insensitive to the key order of the
/// incoming JSON text.
#[must_use]
pub fn canonical_string(value: &Value) -> String {
    let mut out = String::new();
    write_canonical(&mut out, value);
    out
}

fn write_canonical(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(out, item);
            }
            out.push(']');
        }
        Value::Object(m) => {
            let mut entries: Vec<(&String, &Value)> = m.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            out.push('{');
            for (i, (k, item)) in entries.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_canonical(out, item);
            }
            out.push('}');
        }
    }
}

/// Mirrors the vendored `serde_json` number printer so a value and its
/// canonical form agree digit for digit (floats keep a `.0` marker,
/// non-finite floats collapse to `null`).
fn write_number(out: &mut String, n: Number) {
    match n {
        Number::PosInt(u) => out.push_str(&u.to_string()),
        Number::NegInt(i) => out.push_str(&i.to_string()),
        Number::Float(f) => {
            if f.is_finite() {
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
    }
}

/// Mirrors the vendored `serde_json` string escaper.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`, starting from `seed`.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    bytes
        .iter()
        .fold(seed, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// 64-bit FNV-1a over `bytes` from the standard offset basis — the
/// record checksum of the persistent store's segment log
/// ([`crate::store`]).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a(bytes, FNV_OFFSET)
}

/// The two independent 64-bit FNV-1a lanes behind [`content_hash`],
/// exposed numerically so the persistent store's packed index
/// ([`crate::store`]) can record them without hex round-trips.
#[must_use]
pub(crate) fn hash_lanes(bytes: &[u8]) -> (u64, u64) {
    (
        fnv1a(bytes, FNV_OFFSET),
        fnv1a(bytes, FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15),
    )
}

/// 32-hex-digit content hash of a canonical string: two independent
/// 64-bit FNV-1a lanes (distinct seeds). Used as the job id; the cache
/// itself is keyed by the full canonical string, so a hash collision can
/// at worst alias two job-status URLs, never corrupt a cached schedule.
#[must_use]
pub fn content_hash(canonical: &str) -> String {
    let (a, b) = hash_lanes(canonical.as_bytes());
    format!("{a:016x}{b:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(text: &str) -> String {
        canonical_string(&serde_json::from_str::<Value>(text).expect("valid JSON"))
    }

    #[test]
    fn key_is_insensitive_to_object_key_order() {
        let a = canon(r#"{"platform":"mesh:2x2","graph":{"b":1,"a":[1,2]},"scheduler":"eas"}"#);
        let b = canon(r#"{"scheduler":"eas","graph":{"a":[1,2],"b":1},"platform":"mesh:2x2"}"#);
        assert_eq!(a, b);
        assert_eq!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn key_sorts_nested_objects_at_every_level() {
        let a = canon(r#"{"outer":{"z":{"k":1,"a":2},"a":0}}"#);
        assert_eq!(a, r#"{"outer":{"a":0,"z":{"a":2,"k":1}}}"#);
    }

    #[test]
    fn arrays_keep_their_order() {
        assert_ne!(canon("[1,2]"), canon("[2,1]"));
    }

    #[test]
    fn value_changes_change_the_key() {
        assert_ne!(
            canon(r#"{"a":1,"b":2}"#),
            canon(r#"{"a":1,"b":3}"#),
            "different payloads must not collide"
        );
    }

    #[test]
    fn numbers_render_like_serde_json() {
        assert_eq!(canon("[2.0, 2, -3, 1.5]"), "[2.0,2,-3,1.5]");
    }

    #[test]
    fn strings_escape_like_serde_json() {
        let v = Value::String("a\"b\n\u{1}".to_owned());
        assert_eq!(
            canonical_string(&v),
            serde_json::to_string(&v).expect("serializes")
        );
    }

    #[test]
    fn whitespace_in_the_source_text_is_irrelevant() {
        assert_eq!(
            canon("{\"a\": 1,\n  \"b\": [1, 2]}"),
            canon(r#"{"a":1,"b":[1,2]}"#)
        );
    }

    #[test]
    fn hash_is_stable_and_hex() {
        let h = content_hash("hello");
        assert_eq!(h.len(), 32);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(h, content_hash("hello"));
        assert_ne!(h, content_hash("hello!"));
    }
}
