//! The program surface: every call the benchmark makes into the system
//! under test goes through the names in this module, and only these.
//!
//! They are the plain user-facing entry points — no `_by`/`_recorded`
//! variants, no pinned kernels, no dispatch policy, no pool methods — so
//! planned internal collapses (one generic entry per kernel, removed
//! dispatch arms) do not touch the benchmark. Comparing individual segment
//! kernels stays the job of `mp bench`.

pub use mergepath::diagonal::co_rank;
pub use mergepath::executor::default_threads;
pub use mergepath::merge::batch::batch_merge_into;
pub use mergepath::merge::parallel::parallel_merge_into;
/// The sequential baseline.
pub use mergepath::merge::sequential::merge_into;
pub use mergepath::sort::parallel::parallel_merge_sort;
pub use mergepath_serve::net::{encode_request, read_request, read_response};
pub use mergepath_serve::{
    NetOp, NetRequest, NetServer, NetStatus, NoRecorder, QueuePolicy, ServeConfig,
};

/// Tooling, not measured: the workspace's JSON reader and writers, used to
/// print results and to read `BENCHMARK.json` and result files back.
pub use mergepath::telemetry::json;

/// Whether this build made the vector segment kernel eligible.
pub const SIMD_ENABLED: bool = cfg!(feature = "simd");

/// The daemon configuration `serve_mix` measures: what `mp serve --listen`
/// runs with its defaults (queue 256, 64 serving threads, EDF, a coalescing
/// ceiling of eight mean requests) with a worker budget of `p`. Fields the
/// library adds later take its defaults.
#[allow(clippy::needless_update)]
pub fn listen_config(p: usize, mean_len: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        max_inflight: 64,
        worker_budget: p,
        policy: QueuePolicy::Edf,
        batch_max_items: mean_len * 8,
        ..ServeConfig::default()
    }
}

/// The same daemon held to one core's worth of compute: one serving
/// thread and a one-thread worker budget. The base of `serve_mix`'s
/// `speedup_t1`.
pub fn single_thread_config(mean_len: usize) -> ServeConfig {
    ServeConfig {
        max_inflight: 1,
        worker_budget: 1,
        ..listen_config(1, mean_len)
    }
}

/// Starts a daemon on an OS-assigned loopback port.
pub fn start_server(cfg: ServeConfig) -> std::io::Result<NetServer> {
    NetServer::start(cfg, NoRecorder, "127.0.0.1:0")
}
