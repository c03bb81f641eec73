//! # rss-web100 — Web100-style per-connection instrumentation
//!
//! The paper reads its entire evaluation out of Web100, the kernel instrument
//! set that exposes internal TCP state as per-connection variables ("We use
//! web100 to get detailed statistics of the TCP state information", §4).
//! Figure 1 is literally a plot of one Web100 counter — the cumulative
//! send-stall signal count — over time.
//!
//! This crate reproduces that observability layer for the simulated stack:
//! an [`InstrumentBlock`] per connection with TCP-KIS-named counters
//! ([`Web100Vars`]), timestamped event logs for stalls and congestion
//! signals, and time series for cwnd and acked bytes. The IFQ-depth series
//! is host-level: the world samples it on its own grid, not per ACK.

#![warn(missing_docs)]

pub mod instrument;
pub mod vars;

pub use instrument::InstrumentBlock;
pub use vars::{CongestionKind, SndLimState, Web100Vars};
