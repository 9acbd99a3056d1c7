//! `noc-svc` — the NoC scheduling daemon: a std-only HTTP/1.1 service
//! exposing the workspace's schedulers (EAS and baselines) over a JSON
//! API, with a bounded job queue (explicit 429 backpressure), a
//! content-addressed response cache, single-flight deduplication of
//! identical in-flight requests, Prometheus-text metrics and graceful
//! shutdown.
//!
//! The service's defining contract is **byte determinism**: the same
//! request body answers with byte-identical schedule JSON whether it is
//! computed cold, served from cache, or coalesced onto a concurrent
//! twin — and, in multi-node mode ([`cluster`]), whichever node
//! answers and whether its bytes came from local compute, the local
//! store, or a peer. Everything here — canonical request hashing
//! ([`hash`]), the single response serialization ([`api`]), sorted
//! metrics rendering ([`metrics`]), the one wire renderer the reactor
//! ([`net`]) emits through — exists to keep that promise.
//!
//! No external dependencies beyond the workspace's vendored
//! `serde`/`serde_json` and the vendored `polling` binding to
//! `poll(2)`: networking is `std::net`, threading is `std::thread`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod cluster;
pub mod engine;
pub mod hash;
pub mod http;
pub mod metrics;
pub mod net;
pub mod obs;
pub mod queue;
pub mod server;
pub mod spec;
pub mod store;

pub use engine::{Engine, EngineConfig};
pub use server::{Server, ServiceConfig};
