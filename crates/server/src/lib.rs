//! `provmin serve` — a long-running query service over the cached engine.
//!
//! Every one-shot `provmin` invocation pays database load plus index
//! build from scratch; the workloads of the source paper (provenance-
//! annotated evaluation and minimization, conf_pods_AmsterdamerDMT11) are
//! read-heavy, so amortizing those builds across queries is the dominant
//! serving win. This crate keeps one [`prov_storage::Database`] resident
//! behind a readers/writer lock and shares one [`prov_engine::EvalSession`]
//! across requests: concurrent `/eval`s reuse one index build and one
//! materialized result per query, and a `/mutate` is absorbed
//! incrementally — the session patches the warm views and reconciles
//! cached results from the database's delta log (a delta ⊕-join for
//! inserts, monomial surgery for deletes; see `docs/CACHE.md`), falling
//! back to a full rebuild only when the log no longer covers the gap.
//! Never stale, because cache keys *are* generation stamps.
//!
//! The HTTP/1.1 layer is hand-rolled over `std::net` — the build image
//! has no registry access (see ROADMAP "vendored shims"), so the crate
//! owns the subset it needs: keep-alive and pipelining over an
//! incremental request parser, chunked transfer-encoding for streamed
//! large results, and an epoll readiness loop (the private `epoll` module wraps the three
//! syscalls as local FFI) that parks idle and mid-request connections so
//! the worker pool only ever sees fully-buffered requests.
//!
//! See `docs/SERVER.md` for the endpoint, wire-format, and
//! connection-lifecycle reference, and [`client`] for the bundled
//! test/bench client (one-shot helpers plus a keep-alive [`client::Client`]).

#![warn(missing_docs)]

mod budget;
mod epoll;
mod http;
mod json;
mod listener;
mod router;
mod state;
mod stats;

pub mod client;

pub use http::{Body, ParseStatus, Request, Response};
pub use json::{Json, JsonError};
pub use listener::{serve, serve_durable, ServeConfig, ServerHandle};
pub use state::ServerState;
pub use stats::{ConnStats, Endpoint, EndpointCounter, EndpointStats, RenderStats};

/// The crate version reported by `GET /stats`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
