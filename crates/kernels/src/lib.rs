#![warn(missing_docs)]

//! # Paper workloads
//!
//! The three programs the paper evaluates, written once against the
//! `samhita-rt` façade so the identical kernel runs on both the native
//! ("pthreads") baseline and the Samhita DSM — the Rust equivalent of the
//! paper's m4-macro shared code base:
//!
//! * [`micro`] — the Figure 2 micro-benchmark: a per-thread block of
//!   `S × B` doubles updated `M` times per outer iteration, a mutex-protected
//!   global sum, and a barrier; with the three allocation / access-pattern
//!   variants (local, global, global strided) that control false sharing.
//! * [`jacobi`] — Jacobi iteration for the linear system of a discrete
//!   Laplacian: nearest-neighbour access, one mutex + three barriers per
//!   outer iteration (Figure 12).
//! * [`md`] — a velocity-Verlet n-body simulation with O(n) work per
//!   particle, mutex-protected kinetic/potential energy accumulation and
//!   three barriers per step (Figure 13).

pub mod jacobi;
pub mod md;
pub mod micro;

pub use jacobi::{
    run_jacobi, serial_reference as serial_reference_jacobi, JacobiParams, JacobiResult,
};
pub use md::{run_md, serial_reference as serial_reference_md, MdParams, MdResult};
pub use micro::{expected_gsum, run_micro, AllocMode, MicroParams, MicroResult};

/// FNV-1a over 64-bit words, as `samhita-perf` reduces an output.
#[cfg(test)]
fn fnv1a_words(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
