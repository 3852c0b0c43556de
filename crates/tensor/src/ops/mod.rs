//! Numeric kernels: matrix multiplication, convolution, pooling, softmax,
//! and structural operations.
//!
//! These are free functions over [`Tensor`](crate::Tensor) so that the
//! autograd layer can call forward and backward variants symmetrically.

mod activation;
mod conv;
mod manip;
mod matmul;
pub mod microkernel;
mod pool;

pub use activation::{log_softmax_last, softmax_last};
pub use aibench_parallel::GemmPath;
pub use conv::{conv2d, conv2d_backward_input, conv2d_backward_weight, Conv2dArgs, ConvAlgo};
pub use manip::{concat, pad2d, slice_axis, unpad2d};
pub use matmul::{batch_matmul, batch_matmul_layout, matmul, matmul_layout, matmul_naive};
pub use microkernel::Layout;
pub use pool::{avg_pool2d, avg_pool2d_backward, max_pool2d, max_pool2d_backward};
