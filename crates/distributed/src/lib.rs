//! # distrt — the distributed CWC simulator: runtime and platform models
//!
//! Two complementary halves reproduce the paper's cluster/cloud port
//! (Aldinucci et al., ICDCS 2014, §IV-B and §V):
//!
//! **Functional** — [`wire`] (the explicit serialisation the distributed
//! pipeline adds around unchanged stages), [`emulation`] (a real
//! in-process deployment: remote farms receive task *parameters*, stream
//! encoded sample batches back, the analysis node decodes and runs the
//! standard alignment→windows→statistics pipeline; results are asserted
//! identical to local execution) and [`shard`] (the *multi-process*
//! deployment: one `cwc-shard` child OS process per shard, streaming
//! aligned partial cuts plus mergeable partial statistics back over
//! stdio as length-prefixed wire-v7 frames — bit-for-bit identical
//! analysis rows to the single-process runner). [`net`] lifts the same
//! protocol onto TCP: `cwc-workerd` daemons on real hosts serve shard
//! attempts behind a registration handshake, and the coordinator's
//! [`net::TcpShardTransport`] places (and, after a worker death,
//! *re*-places) slices across the surviving workers. [`fault`] is the
//! fault-injection harness for that deployment: an env-driven plan
//! (`CWC_SHARD_FAULT`) makes a chosen worker crash, stall, corrupt its
//! stream or start late, so the supervisor's recovery paths are
//! exercisable end-to-end with the real binary.
//!
//! **Performance** — [`platform`] (host/VM/network profiles of the paper's
//! testbeds), [`workload`] (event traces recorded from *real* engine runs
//! plus measured unit costs), [`multicore`] (DES of the Fig. 3 pipeline),
//! [`cluster`] (DES of the farm-of-pipelines over a network, Fig. 4) and
//! [`cloud`] (EC2 deployments, Figs. 5–6). These models stand in for the
//! paper's hardware.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cloud;
pub mod cluster;
pub mod emulation;
pub mod fault;
pub mod multicore;
pub mod net;
pub mod platform;
pub mod shard;
pub mod wire;
pub mod workload;

pub use cloud::{heterogeneous, heterogeneous_deployment, single_vm, virtual_cluster};
pub use cluster::{simulate_cluster, ClusterOutcome, ClusterParams};
pub use emulation::{run_distributed_emulation, EmulatedRun, EmulationError};
pub use fault::{FaultKind, FaultPlan, FAULT_ENV};
pub use multicore::{simulate_multicore, MulticoreParams, PipelineOutcome};
pub use net::{TcpShardTransport, WorkerDaemon, WorkerHello};
pub use platform::{HostProfile, NetworkProfile};
pub use shard::{
    run_simulation_sharded, run_simulation_sharded_steered, serve_shard, ProcessTransport,
};
pub use wire::{from_bytes, to_bytes, RemoteTaskSpec, Wire, WireError, WireReader};
pub use workload::{CostModel, WorkloadTrace};
