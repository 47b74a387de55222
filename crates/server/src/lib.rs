//! # tab-server
//!
//! The concurrent serving front end for `tab-bench`: a
//! thread-per-connection TCP server speaking the line-oriented
//! [`tab-wire-v1`](proto) protocol over a
//! [`SharedEngine`](tab_engine::SharedEngine), plus the matching
//! blocking [`Client`].
//!
//! Division of labor:
//!
//! - [`tab_storage::GenerationCell`] publishes immutable generations
//!   (snapshot reads never wait for a writer's build, never see torn
//!   state);
//! - [`tab_engine::SharedEngine`] gives those generations engine
//!   meaning (database + built configurations, latched copy-on-write
//!   inserts);
//! - this crate puts a wire in front: [`Server`] answers `QUERY`,
//!   `EXPLAIN`, `ADVISE`, `PING` with one JSON line per request, turns
//!   panics into error envelopes, and shuts down gracefully on
//!   `SHUTDOWN`;
//! - `tab gate`'s `serve` and `kill9` rows drive [`Client`]s against
//!   it and compare per-request results with direct
//!   [`tab_engine::Session`] runs.
//!
//! See `DESIGN.md` §14 for the concurrency model and the serving
//! determinism contract.

#![deny(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, RetryClient};
pub use proto::{parse_request, Request, Response, RESPONSE_PREFIX};
pub use server::{ServeOptions, Server, ServerCounters};
