//! The verb handlers, one module per verb family of [`protocol::VERBS`]:
//! `engine` (`solve`, `batch`, `resubmit`), `store` (`claim`, `release`)
//! and `obs` (`stats`, `metrics`, `trace`, `health`, `profile`).
//! `shutdown` is the session's own business.
//!
//! [`protocol::VERBS`]: crate::protocol::VERBS

mod engine;
mod obs;
mod store;

pub(crate) use engine::Start;
pub(crate) use obs::{evaluate_health, span_to_json};
