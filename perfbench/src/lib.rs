//! Host-performance benchmark for the simulator.
//!
//! Drives three workloads through the public `dol_cpu::System` entry
//! points, reports end-to-end host metrics from untraced runs and
//! per-layer metrics from a separate traced run, and checks every
//! simulated output against a digest. See `README.md`.

pub mod alloc;
pub mod counts;
pub mod digest;
pub mod expected;
pub mod layers;
pub mod run;
pub mod suite;
