//! # ugpc-bench
//!
//! Criterion micro-benchmarks of the substrate (`benches/kernels.rs`):
//! tile kernels, the virtual-time simulator and the DAG builders — the
//! layer costs the end-to-end benchmark in `benchmark/` does not
//! isolate. The paper's tables and figures are timed and digest-checked
//! by that benchmark's `repro_all` workload.
