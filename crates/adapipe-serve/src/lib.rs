//! # adapipe-serve: the planner as a service
//!
//! AdaPipe is a search engine: a model + cluster description goes in,
//! a recomputation/partitioning plan comes out (§4–§5 of the paper),
//! and the paper's own workflow — profile once, search in seconds,
//! reuse across jobs — is a request/response service with heavy result
//! reuse. This crate is that service: a **zero-dependency HTTP/1.1
//! daemon** (std only, matching the workspace's hermetic constraint)
//! in front of the [`adapipe::Planner`].
//!
//! ## Endpoints
//!
//! | endpoint                 | semantics                                        |
//! |--------------------------|--------------------------------------------------|
//! | `POST /v1/plan`          | canonicalize → digest → cache hit or cold plan   |
//! | `GET /v1/plan/{digest}`  | cache lookup by content address (200 / 404)      |
//! | `GET /v1/trace/{id}`     | Chrome-trace JSON of a recent request (200 / 404)|
//! | `GET /healthz`           | liveness                                         |
//! | `GET /metrics`           | `adapipe-obs/v1` JSON metrics report             |
//! | `POST /admin/dump`       | `adapipe-flight/v1` flight-recorder dump         |
//! | `POST /admin/shutdown`   | graceful drain (std cannot catch SIGTERM)        |
//!
//! Every `POST /v1/plan` response carries a deterministic trace id in
//! `X-Adapipe-Trace` (digest prefix + sequence, no wall-clock); its
//! span timeline — queue wait, parse, the planner's phases, verify,
//! cache insert — is retrievable from a bounded in-memory store via
//! `GET /v1/trace/{id}`.
//!
//! ## The pipeline
//!
//! Requests are [canonicalized](request::PlanRequest::canonical_text)
//! so dimensionally-equal configs share a SHA-256 digest, then answered
//! from a sharded LRU plan cache ([`adapipe_exec::ShardedCache`] keyed
//! by the raw 32-byte digest); misses are planned
//! on a [bounded worker pool](queue::BoundedQueue) with explicit
//! backpressure (`503 + Retry-After`, never accept-then-hang),
//! per-request deadlines classified by the `adapipe-faults` watchdog,
//! and an unconditional `adapipe::verify` gate before any plan leaves
//! the process. Cache hits are byte-identical to the cold response.
//!
//! ```
//! use adapipe_serve::{client, ServeConfig, Server};
//! use adapipe_obs::Recorder;
//!
//! let server = Server::bind(
//!     ServeConfig { port: 0, ..ServeConfig::default() },
//!     Recorder::new(),
//! )
//! .unwrap();
//! let addr = server.addr().to_string();
//! let health = client::get(&addr, "/healthz").unwrap();
//! assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
//! let summary = server.shutdown_and_join();
//! assert_eq!(summary.requests, 1);
//! ```
//!
//! See `docs/serving.md` for the wire format, digest rules and
//! operational semantics.

#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod names;
pub mod queue;
pub mod request;
mod server;
pub mod trace_store;

pub use request::{PlanRequest, RequestError, DEFAULT_HEADROOM, REQUEST_HEADER};
pub use server::{ServeConfig, ServeSummary, Server};
