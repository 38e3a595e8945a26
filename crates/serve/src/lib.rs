//! # xrlflow-serve
//!
//! Optimisation-as-a-service on top of the X-RLflow stack: accept arbitrary
//! graphs in the JSON interchange format, optimise them with a frozen
//! policy replica built from a [`ParamSnapshot`](xrlflow_tensor::ParamSnapshot),
//! and answer repeat requests from a persistent result cache keyed by
//! [`Graph::canonical_hash`](xrlflow_graph::Graph::canonical_hash).
//!
//! Five rules govern the design:
//!
//! 1. **The boundary never panics.** Every request — malformed JSON,
//!    unknown operators, cyclic graphs, tampered shapes, truncated or
//!    oversized HTTP requests — either succeeds or returns a typed
//!    [`ServeError`] (a 4xx over HTTP).
//! 2. **The cache key is the canonical hash.** Structurally identical
//!    graphs share one entry regardless of node numbering or names, and a
//!    hit costs no policy forward passes. In front of it sits the *body
//!    index*: a byte-identical repeat of an already-answered request body
//!    is recognised by digest plus a full byte comparison and served
//!    without being parsed, hashed or re-exported. It is an accelerator,
//!    never a second key space — equality is on bytes, entries are owned
//!    by the key.
//! 3. **Serving never mutates the policy.** The agent is a read-only
//!    snapshot replica (the rollout engine's replica protocol), so one
//!    service can be shared across request threads behind an `Arc`.
//!    A new checkpoint enters via [`OptimizeService::swap_snapshot`]: the
//!    replacement replica is built and validated off the request path and
//!    swapped in as an `Arc` pointer exchange; a rejected checkpoint
//!    leaves the old policy serving.
//! 4. **The cache is bounded.** [`CacheConfig`] sets entry/byte budgets
//!    enforced by LRU eviction — at insert time, at reconfiguration, and
//!    when loading a persisted snapshot — with eviction counters and
//!    occupancy gauges in the metrics snapshot.
//! 5. **Concurrent identical misses coalesce.** Single-flight admission
//!    runs one greedy episode per [`canonical_hash`] no matter how many
//!    requests race on it; followers wait and read the leader's entry.
//!
//! The on-the-wire JSON formats (graph interchange, cache snapshot,
//! metrics snapshot) and the `XRLFSNAP` checkpoint format are specified in
//! [`docs/FORMATS.md`](https://github.com/xrlflow/xrlflow/blob/main/docs/FORMATS.md)
//! in the repository; operational guidance (env knobs, cache sizing, the
//! hot-swap procedure) lives in `docs/OPERATIONS.md` alongside it.
//!
//! [`canonical_hash`]: xrlflow_graph::Graph::canonical_hash
//!
//! ## Quickstart
//!
//! ```
//! use xrlflow_core::{XrlflowAgent, XrlflowConfig};
//! use xrlflow_graph::models::{build_model, ModelKind, ModelScale};
//! use xrlflow_serve::OptimizeService;
//!
//! // Train (or checkpoint-load) a policy, snapshot it, serve the snapshot.
//! let config = XrlflowConfig::smoke_test();
//! let snapshot = XrlflowAgent::new(&config, 0).snapshot();
//! let service = OptimizeService::from_snapshot(&config, &snapshot).unwrap();
//!
//! // A client ships a graph as JSON; the first request runs the policy…
//! let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
//! let request_body = graph.to_json();
//! let first = service.optimize_json(&request_body).unwrap();
//! assert!(!first.cache_hit);
//!
//! // …and the repeat request is answered from the cache, policy untouched.
//! let second = service.optimize_json(&request_body).unwrap();
//! assert!(second.cache_hit);
//! assert_eq!(service.stats().policy_invocations, 1);
//! assert_eq!(second.final_latency_ms, first.final_latency_ms);
//!
//! // Malformed input is a typed error, never a panic.
//! assert!(service.optimize_json("{\"format\": \"bogus\"}").is_err());
//! ```
//!
//! The cache snapshots to disk ([`OptimizeService::save_cache`] /
//! [`OptimizeService::load_cache`]) so a restarted server keeps answering
//! previously seen graphs without re-running the policy, and the whole
//! service goes on the network with [`http::OptimizeServer`] — a
//! dependency-free blocking HTTP/1.1 front end over `std::net`, with
//! persistent connections on a bounded worker pool.

#![warn(missing_docs)]

mod cache;
mod error;
pub mod http;
mod service;

pub use cache::{
    CacheConfig, CacheConfigBuilder, CacheEntry, ResultCache, CACHE_JSON_FORMAT, CACHE_JSON_VERSION,
};
pub use error::ServeError;
pub use http::{http_call, HttpReply, OptimizeServer, ServerConfig};
pub use service::{OptimizeResponse, OptimizeService, ServeStats};

use xrlflow_core::ConfigError;

/// Reads a positive integer from the environment variable `var` (surrounding
/// whitespace is ignored): `None` when it is unset, a [`ConfigError`] naming
/// `field` when it is set but not a positive integer. Every `from_env` of
/// this crate reads its integers through here.
fn env_usize(var: &str, field: &'static str) -> Result<Option<usize>, ConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(v) if v > 0 => Ok(Some(v)),
            _ => {
                Err(ConfigError { field, message: format!("{var} must be a positive integer, got {raw:?}") })
            }
        },
    }
}
