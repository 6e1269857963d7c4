//! Benchmark of the resident skyline-cube daemon.
//!
//! One command runs a named workload against an in-process
//! [`skycube_serve::Daemon`] set up exactly as `skycube serve --wal` sets
//! it up, drives it through a Unix socket from one client on one
//! persistent connection in a closed loop, checks every reply, and prints
//! the end-to-end metrics; with tracing on it instead splits the same work
//! by layer (see [`bench::run`]). `perfbench/WORKLOADS.md` records why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

pub mod bench;
pub mod host;
pub mod served;
pub mod staged;
pub mod stats;
pub mod trace;
pub mod workload;
