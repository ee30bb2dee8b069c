//! Benchmark of the BLU fleet stack: the `blu serve` daemon driven over
//! its wire protocol, and the batch supervised fleet under a chaos
//! storm. See `perfbench/README.md` for the workloads and metrics.

pub mod episode;
pub mod gate;
pub mod gen;
pub mod layers;
pub mod openloop;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod storm;
pub mod sys;
