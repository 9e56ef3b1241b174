//! Paper-shaped bench targets.
//!
//! Everything lives in `benches/`: Figure 2(a) appends, Figure 2(b)
//! reads, the four ablations and the space-efficiency experiment, each
//! a plain `main` that prints its table and asserts the paper's shape.
//! Performance claims are measured by the standalone benchmark under
//! `examples/benchmark/` (contract: `BENCHMARK.json` at the repository
//! root). This crate root exists only because Cargo needs a target.
