//! # sst-server — the wire-level serving stack
//!
//! Everything below the service plane (`sst-service`) is in-process: an
//! [`Engine`](sst_service::Engine) is `Clone + Send + Sync` and a
//! [`Session`](sst_service::Session) is a value you hold. This crate puts
//! a network front door on that plane, hand-rolled over
//! [`std::net::TcpListener`] because the build environment has no
//! registry access (the same discipline as the vendored test shims): no
//! hyper, no tokio, no serde — HTTP/1.1 keep-alive framing in [`http`],
//! the newline-delimited JSON payloads from [`sst_service::wire`].
//!
//! The pieces, each its own module:
//!
//! - [`server`] — the accept loop, routing table, and error→status
//!   mapping; one [`Server`] hosts many *named* engines.
//! - [`sessions`] — server-side session registry; idle conversations
//!   are evicted by a periodic sweep, and a dead id answers the typed
//!   `SessionNotFound` (HTTP 404) forever after.
//! - [`admission`] — a bounded-queue semaphore in front of the engine
//!   pool; past `max_in_flight` executing + `max_queue` waiting, a
//!   request is rejected immediately with the typed `Overloaded`
//!   (HTTP 429). Admitted requests are never dropped.
//! - [`metrics`] — per-endpoint latency histograms and counters plus
//!   engine cache hit/miss rates, rendered as Prometheus text on
//!   `/metrics`.
//! - [`client`] — a blocking keep-alive client speaking the same wire
//!   types, used by the equivalence and chaos tests.
//! - [`fault`] — the seeded chaos plane: a [`FaultPlan`] set in
//!   [`ServerConfig::fault_plan`] injects delays, dropped connections,
//!   truncated responses and handler panics. Every build carries it; the
//!   default `None` injects nothing.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use sst_server::{Client, Server, ServerConfig};
//! use sst_service::Engine;
//! use sst_core::Example;
//! use sst_tables::{Database, Table};
//!
//! let table = Table::new(
//!     "CostTable",
//!     vec!["Id", "Name"],
//!     vec![vec!["c1", "Apple"], vec!["c2", "Google"]],
//! )
//! .unwrap();
//! let engine = Engine::new(Arc::new(Database::from_tables(vec![table]).unwrap()));
//!
//! let server = Server::bind(engine, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! // The interactive loop of §3.2, over the wire.
//! let info = client
//!     .create_session("default", &[Example::new(vec!["c2"], "Google")])
//!     .unwrap();
//! let status = client.status("default", info.session).unwrap();
//! assert!(status.is_converged());
//! let cells = client
//!     .run_column("default", info.session, &[vec!["c1".to_string()]])
//!     .unwrap();
//! assert_eq!(cells, vec![Some("Apple".to_string())]);
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod sessions;

pub use admission::{Admission, AdmitPermit};
pub use client::{Client, ClientConfig, ClientError};
pub use fault::{FaultAction, FaultCounts, FaultPlan, FaultSite};
pub use http::{ReadError, ReadLimits, MAX_BODY};
pub use metrics::{Endpoint, LatencyHistogram, Metrics};
pub use proto::SessionInfo;
pub use server::{Server, ServerConfig, DRAIN_DRAINING, DRAIN_SERVING, DRAIN_STOPPED};
pub use sessions::SessionStore;
