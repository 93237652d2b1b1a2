//! `bench-matrix`: the one benchmark every performance or simplicity
//! change to this repository is measured with. See `README.md`.

pub mod gen;
pub mod layers;
pub mod phases;
pub mod report;
pub mod rng;
pub mod stats;
pub mod target;
pub mod trace;
pub mod workload;
