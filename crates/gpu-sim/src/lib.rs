//! # SIMT GPU simulator substrate
//!
//! The paper evaluates CUDA kernels on NVIDIA V100/T4 hardware and
//! reports nvprof counters. Rust GPU tooling is immature, so this crate
//! provides the substitution: a **warp-level functional + timing
//! simulator** that the SSSP kernels in `rdbs-core` run against.
//!
//! ## Execution model
//!
//! Kernel bodies are plain Rust closures receiving a [`Lane`] handle.
//! Threads execute *functionally* one warp (32 lanes) at a time — every
//! global load, store and atomic takes effect immediately on device
//! memory — while each lane records an operation trace. After a warp's
//! lanes finish, the trace is **replayed in lockstep**:
//!
//! * lanes are aligned by operation index, and at every step the active
//!   lanes are grouped by operation kind — divergent groups serialize,
//!   exactly like SIMT branch divergence, and each group costs one
//!   warp-level instruction (this is what nvprof's
//!   `inst_executed_global_loads` counts);
//! * the addresses of a memory group are **coalesced** into 32-byte
//!   sectors; each sector becomes one transaction fed through a
//!   set-associative L1 (per SM) and a shared L2 — producing
//!   `global_hit_rate` — and DRAM traffic on misses;
//! * atomics to the same address within a warp serialize (conflict
//!   cost), reproducing the paper's `inst_executed_atomics` analysis.
//!
//! Timing is a throughput ("roofline") model: a kernel's compute time
//! is the maximum per-SM accumulation of warp-instruction cycles, its
//! memory time is DRAM bytes over device bandwidth, and the kernel
//! takes the larger of the two plus launch/barrier overheads. Device
//! presets reproduce the paper's V100 and T4 (§5.1.1, §5.4.2).
//!
//! Dynamic parallelism (§4.2) is modelled by [`Lane::launch_child`]:
//! child kernels queue on the device and run after the parent wave,
//! charged a (cheaper) device-side launch overhead.
//!
//! Asynchronous persistent kernels (§4.3) are modelled with
//! [`Device::wave_session`]: one launch overhead, then arbitrarily many
//! task waves whose updates are immediately visible.
//!
//! Independent command streams are modelled with [`StreamSet`]: work
//! issued on different streams is charged to per-stream busy clocks and
//! the device clock advances by their makespan, so a concurrent
//! scheduler overlaps queries without threads — deterministically.
//!
//! An opt-in memory-model sanitizer ([`Device::arm_sanitizer`], the
//! [`san`] module) checks every lane access against the snapshot /
//! volatile / atomic discipline the kernels rely on — races, reads of
//! never-written words, gang divergence — reporting typed
//! [`SanViolation`]s; disarmed, it costs one branch per access.
//!
//! An opt-in access-IR recorder ([`Device::arm_ir`], the [`ir`]
//! module) retains a bounded per-race-window access summary that the
//! `rdbs-statan` crate verifies *statically* — its verdicts quantify
//! over every lane interleaving, not the one that happened to run.
//!
//! Everything is deterministic: the same kernel sequence yields the
//! same counters, byte-for-byte.
//!
//! ```
//! use rdbs_gpu_sim::{Device, DeviceConfig};
//!
//! let mut device = Device::new(DeviceConfig::v100());
//! let xs = device.alloc_upload("xs", &[1, 2, 3, 4]);
//! let out = device.alloc("out", 4);
//! device.launch("double", 4, |lane| {
//!     let i = lane.tid() as u32;
//!     let x = lane.ld(xs, i);
//!     lane.alu(1);
//!     lane.st(out, i, 2 * x);
//! });
//! assert_eq!(device.read(out), &[2, 4, 6, 8]);
//! assert_eq!(device.counters().inst_executed_global_loads, 1); // one warp
//! assert!(device.elapsed_ms() > 0.0);
//! ```

#![deny(missing_docs)]

pub mod buffer;
pub mod cache;
pub mod cost;
pub mod counters;
pub mod device;
pub mod fault;
pub mod ir;
pub mod kernel;
pub mod replay;
pub mod san;
pub mod sched;
mod shadow;
pub mod stream;
pub mod trace;

pub use buffer::{Buf, HostStaging};
pub use counters::{Counters, KernelReport};
pub use device::{Device, DeviceConfig};
pub use fault::{FaultEvent, FaultModel, FaultPlan, FaultSpec, FaultTarget};
pub use ir::{AccessIr, Hazard, HazardKind, IrAccessor, KernelStats, QueueDecl, QueueUsage};
pub use kernel::{GangScatter, Lane, ScatterTarget, WaveSession};
pub use san::{AccessProfile, SanCheck, SanConfig, SanViolation, WordStats};
pub use sched::SchedPlan;
pub use stream::StreamSet;

/// Threads per warp, fixed at 32 like every NVIDIA architecture.
pub const WARP_SIZE: u32 = 32;

/// Memory transaction granularity in bytes (one DRAM sector).
pub const SECTOR_BYTES: u64 = 32;
