//! Dense `f32` tensors and the numeric kernels used throughout the AIBench
//! training-suite reproduction.
//!
//! This crate is the lowest layer of the workspace: a small, dependency-free
//! tensor library with row-major contiguous storage, NumPy-style
//! broadcasting, blocked matrix multiplication, im2col convolution, pooling,
//! reductions, and a deterministic pseudo-random number generator. Everything
//! above it — the autograd tape, the neural-network layers, the seventeen
//! AIBench component benchmarks — is built from these primitives.
//!
//! # Example
//!
//! ```
//! use aibench_tensor::{Tensor, Rng};
//!
//! let mut rng = Rng::seed_from(42);
//! let a = Tensor::randn(&[2, 3], &mut rng);
//! let b = Tensor::randn(&[3, 4], &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 4]);
//! ```

#![deny(missing_docs)]
// One documented exception: the guarded call into the AVX2 copy of the
// row kernels (`ops::microkernel::dispatch`).
#![deny(unsafe_code)]

mod ckpt;
mod rng;
mod shape;
mod tensor;
mod walk;

pub mod ops;

pub use rng::{Rng, RngState};
pub use shape::{broadcast_shapes, Shape};
pub use tensor::Tensor;
