//! An analytical GPU micro-architecture simulator standing in for the
//! paper's nvprof-on-TITAN-XP measurement pipeline (Sections 5.2.2, 5.5).
//!
//! Full-scale [`aibench_models::ModelSpec`]s are *lowered* onto a trace of
//! CUDA-like kernels in the paper's eight categories (data arrangement,
//! convolution, GEMM, batch norm, element-wise, ReLU, pooling, memcpy) and
//! *executed* against a roofline device model. Each kernel yields the five
//! Figure-3 metrics (achieved occupancy, IPC efficiency, global load/store
//! efficiency, DRAM utilization), a latency, and an eight-way stall
//! breakdown; per-model aggregation reproduces the runtime-breakdown,
//! hotspot-function, and stall-analysis experiments.
//!
//! The simulator is deterministic and calibrated so the *relative patterns*
//! the paper reports hold: Learning-to-Rank is data-arrangement bound with
//! the lowest IPC efficiency, Text-to-Text is GEMM bound with the highest,
//! element-wise kernels are dominated by memory-dependency stalls, and the
//! per-epoch simulated times rank like Table 6.
//!
//! # Example
//!
//! ```
//! use aibench_gpusim::{lower_training_iteration, DeviceConfig, Simulator};
//! use aibench_models::catalog::image_classification;
//!
//! let sim = Simulator::new(DeviceConfig::titan_xp());
//! let profile = sim.profile(&image_classification());
//! assert!(profile.epoch_seconds > 100.0);
//! assert!(profile.metrics.ipc_efficiency > 0.0);
//! let trace = lower_training_iteration(&image_classification());
//! assert!(!trace.is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod device;
mod exec;
mod kernel;
mod lower;
mod profile;

pub use device::DeviceConfig;
pub use exec::{execute, KernelProfile, StallBreakdown, StallKind};
pub use kernel::{Kernel, KernelCategory};
pub use lower::{lower_inference_iteration, lower_training_iteration};
pub use profile::{CategoryShare, MicroarchMetrics, ModelProfile, Simulator};

// Re-exported so downstream crates can read [`ModelProfile::host_pool`]
// without depending on `aibench-parallel` directly.
pub use aibench_parallel::PoolStats;
