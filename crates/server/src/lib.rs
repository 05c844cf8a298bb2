//! # tagging-server
//!
//! The online form of the reproduction: an incentive-allocation *service*.
//! Where the `tagging-sim` engine replays recorded posts through an
//! allocation strategy offline, this crate serves the same
//! [`LiveSession`](tagging_sim::session::LiveSession)s over HTTP/JSON so
//! concurrent clients can lease post-task batches, report the tags they
//! posted and read the run metrics as they evolve.
//!
//! Everything is std-only, like the rest of the workspace: the HTTP layer is
//! a minimal HTTP/1.1 implementation over [`std::net::TcpListener`], requests
//! are handled on the [`tagging_runtime::WorkerPool`], and JSON goes through
//! the vendored `serde_json`.
//!
//! * [`http`] — request/response parsing and a persistent-connection client;
//! * [`protocol`] — the JSON codecs of the endpoints;
//! * [`service`] — the session registry and router (pure, TCP-free);
//! * [`server`] — the accept loop, keep-alive handling, graceful shutdown.
//!
//! Binaries: `tagging_server` (the daemon) and `repro_loadgen` (a
//! deterministic multi-client correctness harness that drains every session
//! and writes a canonical state digest; the service's speed is measured by
//! `svcbench`).
//!
//! ## Quick example
//!
//! ```
//! use serde::Value;
//! use tagging_server::http::HttpClient;
//! use tagging_server::server::TaggingServer;
//!
//! let server = TaggingServer::bind("127.0.0.1:0", 2).unwrap();
//! let (addr, handle) = server.spawn().unwrap();
//! let mut client = HttpClient::connect(&addr.to_string()).unwrap();
//! let (status, health) = client.request("GET", "/healthz", None).unwrap();
//! assert_eq!(status, 200);
//! assert_eq!(health.get("ok"), Some(&Value::Bool(true)));
//! client.request("POST", "/shutdown", None).unwrap();
//! handle.join().unwrap().unwrap();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod http;
pub mod protocol;
pub mod server;
pub mod service;
pub mod telemetry;

pub use http::HttpClient;
pub use server::{ServerOptions, TaggingServer};
pub use service::TaggingService;
pub use telemetry::TelemetryOptions;
