//! The Asteria benchmark: seeded workloads driven through the public
//! API, an open-loop load generator for the server, a correctness gate,
//! and a traced replay that times each layer from outside.

pub mod inputs;
pub mod loadgen;
pub mod phases;
pub mod replay;
pub mod report;
pub mod rng;
pub mod stats;
