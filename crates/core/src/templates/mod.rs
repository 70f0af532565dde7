//! Kernel templates — the code the compiler "generates".
//!
//! Each template is a parametric kernel executable on the GPU simulator,
//! mirroring a CUDA code template of the original system (the CUDA text
//! itself is emitted by [`crate::codegen`]):
//!
//! * [`map`] — one thread per firing / loop iteration, with layout choice
//!   and thread coarsening;
//! * [`reduction`] — Figure 8's single-kernel and two-kernel reductions;
//! * [`stencil`] — the super-tile shared-memory stencil of Figure 6;
//! * [`fused`] — horizontally-integrated sibling reductions.
//!
//! The map and reduction templates share one block-level state-promotion
//! table (`promote`).

pub mod fused;
pub mod map;
mod promote;
pub mod reduction;
pub mod stencil;

pub use fused::FusedReduce;
pub use map::MapKernel;
pub use reduction::{
    merge_kernel, two_kernel_reduce, InitialReduce, ReduceSpec, SingleKernelReduce,
};
pub use stencil::StencilKernel;
