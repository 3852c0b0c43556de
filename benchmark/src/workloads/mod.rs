//! The four workloads.

pub mod serve_load;
pub mod session_stack;
pub mod suite;
