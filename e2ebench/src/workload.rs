//! The workloads: their graph, their traffic and the serving stack each
//! one sets up.

use crate::client::Conn;
use crate::load::{Req, GRAPH};
use bear_core::{preprocess_to_disk, Bear, BearConfig, EngineConfig, QueryEngine};
use bear_graph::generators::{hub_and_spoke, HubSpokeConfig};
use bear_graph::Graph;
use bear_serve::{Registry, Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Restart probability of every workload's index.
pub const RESTART: f64 = 0.05;
/// Ranking depth of every top-k request.
pub const K: usize = 10;

/// How a workload sends its requests.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// `conns` clients on keep-alive connections, each sending
    /// `/v1/topk` and waiting for its answer before the next request.
    Closed { conns: usize },
    /// Requests due at `rate` per second, one connection each, with
    /// uniform seeds: every `query_every`-th is `/v1/query`, the rest
    /// `/v1/topk`. Every `swap_every`-th request slot, a multiple of
    /// `query_every`, also holds an index swap, due with that slot's
    /// `/v1/query`.
    Open { rate: f64, query_every: usize, swap_every: usize },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as given to `--workload`.
    pub name: &'static str,
    /// Whether the index is the sharded v3 layout served by the pager
    /// under a resident cap of a quarter of the spoke factors.
    pub paged: bool,
    /// Its traffic.
    pub traffic: Traffic,
}

/// Every workload, by name.
pub fn all() -> [Workload; 2] {
    [
        Workload {
            name: "topk_spoke",
            paged: false,
            traffic: Traffic::Closed { conns: host_cores() },
        },
        Workload {
            name: "paged_swap",
            paged: true,
            traffic: Traffic::Open { rate: 42.0, query_every: 10, swap_every: 60 },
        },
    ]
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    /// Generates the workload's graph: `hub_and_spoke` in the
    /// `topk_speedup` configuration. Its generator seed is fixed: cave
    /// sizes are drawn uniformly, so Σn₁ᵢ² and with it index size and
    /// solve cost swing by ~8% from one generator seed to the next, more
    /// than any bound could absorb. The run seed varies the requests
    /// instead.
    pub fn generate(&self) -> Graph {
        hub_and_spoke(
            &HubSpokeConfig {
                num_hubs: 64,
                num_caves: 120,
                max_cave_size: 120,
                cave_density: 0.3,
                hub_links: 2,
                hub_density: 0.3,
            },
            &mut StdRng::seed_from_u64(7),
        )
    }

    /// Open-loop schedule for `window`: requests due at a fixed rate plus
    /// swaps alternating between `swap_files`.
    ///
    /// Queries are spread evenly, never bunched by chance: a bunch of full
    /// solves would set the tail on their own. Each swap is due with a
    /// full solve, so every swap meets the same load and the share of
    /// requests slowed by swaps is fixed.
    pub fn schedule(
        &self,
        n: usize,
        seed: u64,
        window: Duration,
        swap_files: &[PathBuf],
    ) -> Vec<(Duration, Req)> {
        let Traffic::Open { rate, query_every, swap_every } = self.traffic else {
            return Vec::new();
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut swaps = swap_files.iter().cycle();
        let mut out = Vec::new();
        for slot in 1..=(rate * window.as_secs_f64()).round() as usize {
            let at = Duration::from_secs_f64((slot - 1) as f64 / rate);
            let seed = rng.gen_range(0..n);
            let req = if slot % query_every == 0 {
                Req::Query { seed }
            } else {
                Req::TopK { seed, k: K }
            };
            out.push((at, req));
            if slot % swap_every == 0 {
                if let Some(index) = swaps.next() {
                    out.push((at, Req::Swap { index: index.clone() }));
                }
            }
        }
        out
    }

    /// Closed-loop request generator over `n` nodes.
    pub fn next_request(&self, n: usize, rng: &mut StdRng) -> Req {
        Req::TopK { seed: rng.gen_range(0..n), k: K }
    }
}

/// The engine configuration of every served index: the defaults, with
/// the spoke residency capped at `cap` bytes when paged.
pub fn engine_config(cap: Option<u64>) -> EngineConfig {
    EngineConfig::builder().spoke_residency_bytes(cap).build().expect("default engine config")
}

/// A serving stack answering `/readyz` with 200.
pub struct Stack {
    /// The running server.
    pub server: ServerHandle,
    /// The served index file.
    pub index: PathBuf,
}

/// Where one set-up spent its time.
pub struct SetupTimes {
    /// Graph in memory to `/readyz` 200.
    pub total: Duration,
    /// Writing the index (v2 only; the v3 write is fused with
    /// preprocessing).
    pub save: Option<Duration>,
    /// Reading the index back.
    pub load: Duration,
}

/// Preprocesses `g`, writes and reloads the index under `dir`, starts an
/// engine and a server on it and waits for `/readyz`. Returns the stack
/// and the timings. The preprocessed index is dropped once written, so
/// the process holds only the served copy.
pub fn set_up(
    w: &Workload,
    g: &Graph,
    dir: &Path,
    cap: Option<u64>,
) -> Result<(Stack, SetupTimes), String> {
    let config = BearConfig::exact(RESTART);
    let index = dir.join("a.idx");
    let start = Instant::now();
    let save = if w.paged {
        preprocess_to_disk(g, &config, &index).map_err(|e| format!("preprocess: {e}"))?;
        None
    } else {
        let bear = Bear::new(g, &config).map_err(|e| format!("preprocess: {e}"))?;
        let t = Instant::now();
        bear.save(&index).map_err(|e| format!("save: {e}"))?;
        Some(t.elapsed())
    };
    let t = Instant::now();
    let loaded = Bear::load(&index).map_err(|e| format!("load: {e}"))?;
    let load = t.elapsed();
    let engine_config = engine_config(cap);
    let engine = QueryEngine::new(Arc::new(loaded), engine_config.clone())
        .map_err(|e| format!("engine: {e}"))?;
    let registry = Arc::new(Registry::new());
    registry.publish(GRAPH, Arc::new(engine));
    let server = Server::start(registry, ServerConfig { engine_config, ..ServerConfig::default() })
        .map_err(|e| format!("server: {e}"))?;
    wait_ready(&server)?;
    let total = start.elapsed();
    Ok((Stack { server, index }, SetupTimes { total, save, load }))
}

fn wait_ready(server: &ServerHandle) -> Result<(), String> {
    let give_up = Instant::now() + Duration::from_secs(30);
    while Instant::now() < give_up {
        let ready = Conn::open(server.addr(), false)
            .and_then(|mut c| c.call("GET", "/readyz"))
            .is_ok_and(|r| r.status == 200);
        if ready {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("server never became ready".into())
}
