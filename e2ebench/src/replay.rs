//! The traced run's layer replay: the measured window's requests, in
//! order, fed into each layer's public functions and timed from outside.
//!
//! Every replayed call is a span carrying the id of the HTTP request it
//! replays. The replay runs on a fresh load of the served index with the
//! same engine configuration, so paging and caching start cold the way
//! the server's did.

use crate::load::{Req, Sample};
use crate::report::{median_us, percentile, Metrics};
use crate::trace::Trace;
use crate::workload::{engine_config, K};
use bear_core::topk::top_k_excluding_seed;
use bear_core::{Bear, BlockPager, BlockWorkspace, QueryEngine, QueryOptions, QueryWorkspace};
use bear_core::{PagerStats, TopKPruneOptions};
use bear_sparse::DenseBlock;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-time budget of the per-request replay.
const BUDGET: Duration = Duration::from_secs(3);
/// Blocks sampled for the pager's cold and warm fetch times.
const FETCH_BLOCKS: usize = 64;

/// Replays `samples` (in due order) against a fresh load of `index` and
/// adds the `engine`, `query`, `topk`, `pager` and `persist.swap_load_s`
/// metrics. Returns the engine's median serve time in microseconds.
pub fn replay(
    index: &Path,
    cap: Option<u64>,
    samples: &[&Sample],
    probe_dir: &Path,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<f64, String> {
    // What `/admin/load` does: load (quarantining damage) and build an
    // engine with the serving configuration.
    let start = Instant::now();
    let bear = Arc::new(Bear::load_or_quarantine(index).map_err(|e| format!("reload: {e}"))?);
    let engine = QueryEngine::new(bear.clone(), engine_config(cap))
        .map_err(|e| format!("replay engine: {e}"))?;
    m.put("persist.swap_load_s", start.elapsed().as_secs_f64(), "s");

    let opts = QueryOptions::default();
    let prune = TopKPruneOptions::default();
    let mut ws = QueryWorkspace::for_bear(&bear);
    let mut scores = vec![0.0; bear.num_nodes()];
    let mut engine_us = Vec::new();
    let (mut solve, mut pruned, mut full) = (Vec::new(), Vec::new(), Vec::new());
    let (mut prune_ratio, mut certified) = (0.0, 0usize);
    let mut paged = PagerTally::new(bear.pager());

    // Pass 1, the engine alone, so the pager sees the serving sequence.
    let started = Instant::now();
    let mut replayed = Vec::new();
    for s in samples.iter().copied().filter(|s| !matches!(s.req, Req::Swap { .. })) {
        if started.elapsed() > BUDGET / 2 && !replayed.is_empty() {
            break;
        }
        let before = paged.snapshot();
        let (served, took) = trace.time("engine.serve", None, s.id, || match &s.req {
            Req::Query { seed } => engine.serve(*seed, &opts).map(drop),
            Req::TopK { seed, k } => engine.query_top_k(*seed, *k, &opts).map(drop),
            Req::Swap { .. } => Ok(()),
        });
        served.map_err(|e| format!("engine replay: {e}"))?;
        paged.add_since(before);
        engine_us.push(took.as_secs_f64() * 1e6);
        replayed.push(s);
    }

    // Pass 2, the solver paths, seed by seed over the same requests.
    let started = Instant::now();
    let mut block_seeds: Vec<(u64, usize)> = Vec::new();
    for s in replayed {
        if started.elapsed() > BUDGET / 2 && !solve.is_empty() {
            break;
        }
        let id = s.id;
        if let Some(seed) = s.req.seed() {
            let (r, t) =
                trace.time("query.solve", None, id, || bear.query_into(seed, &mut ws, &mut scores));
            r.map_err(|e| format!("solve: {e}"))?;
            solve.push(t);
            let (r, t) = trace.time("topk.pruned", None, id, || {
                bear.query_top_k_pruned_in(seed, K, &prune, &mut ws)
            });
            let (_, stats) = r.map_err(|e| format!("pruned top-k: {e}"))?;
            pruned.push(t);
            prune_ratio += stats.prune_ratio();
            certified += usize::from(stats.certified);
            let (r, t) = trace.time("topk.full", None, id, || {
                bear.query_into(seed, &mut ws, &mut scores)
                    .map(|()| top_k_excluding_seed(&scores, seed, K))
            });
            r.map_err(|e| format!("full top-k: {e}"))?;
            full.push(t);
            block_seeds.push((id, seed));
        }
    }

    // Blocked solves over the same seed sequence at the engine's width.
    let width = engine_config(cap).effective_block_width();
    let mut bws = BlockWorkspace::for_bear(&bear);
    let mut block_per_seed = Vec::new();
    for chunk in block_seeds.chunks(width) {
        let seeds: Vec<usize> = chunk.iter().map(|&(_, s)| s).collect();
        let mut out = DenseBlock::zeros(bear.num_nodes(), seeds.len());
        let (r, t) = trace.time("query.block", None, chunk[0].0, || {
            bear.query_block_into(&seeds, &mut bws, &mut out)
        });
        r.map_err(|e| format!("block solve: {e}"))?;
        block_per_seed.push(t / seeds.len() as u32);
    }

    let metrics = engine.metrics();
    let seeds = solve.len().max(1) as f64;
    let engine_p50 = percentile(&mut engine_us.clone(), 0.5);
    m.put("engine.serve_p50_us", engine_p50, "us");
    m.put("engine.serve_p99_us", percentile(&mut engine_us, 0.99), "us");
    m.put("engine.cache_hit_rate", metrics.cache_hit_rate(), "ratio");
    m.put("engine.avg_block_width", metrics.avg_block_width(), "seeds");
    m.put("engine.rejected", metrics.queue_rejections as f64, "count");
    m.put("engine.shed", metrics.shed_jobs as f64, "count");
    m.put("engine.degraded", metrics.degraded as f64, "count");

    let stats = bear.stats();
    // Every stored entry is an 8-byte value plus an 8-byte index; the
    // spoke factors are applied twice per solve, the hub ones once.
    let entries = 2 * (stats.nnz_l1_inv + stats.nnz_u1_inv)
        + stats.nnz_h21
        + stats.nnz_l2_inv
        + stats.nnz_u2_inv
        + stats.nnz_h12;
    let bytes_per_solve = 16.0 * entries as f64;
    let solve_us = median_us(solve);
    m.put("query.solve_us", solve_us, "us");
    m.put("query.block_us", median_us(block_per_seed), "us");
    m.put("query.bytes_per_solve", bytes_per_solve, "bytes");
    m.put("query.gbps", bytes_per_solve / (solve_us * 1e-6) / 1e9, "GB/s");

    m.put("topk.pruned_us", median_us(pruned), "us");
    m.put("topk.full_us", median_us(full), "us");
    m.put("topk.prune_ratio", prune_ratio / seeds, "ratio");
    m.put("topk.certified_share", certified as f64 / seeds, "ratio");

    m.put("pager.hit_rate", paged.hit_rate(), "ratio");
    m.put("pager.misses_per_query", paged.misses as f64 / engine_us.len().max(1) as f64, "count");
    m.put("pager.evictions", paged.evictions as f64, "count");
    let (miss_us, hit_us) = match bear.pager() {
        Some(pager) => fetch_times(pager)?,
        None => {
            // The index is resident: time the pager on a v3 copy of it.
            let copy = probe_dir.join("probe_v3.idx");
            bear.save_v3(&copy).map_err(|e| format!("v3 copy: {e}"))?;
            let probe = Bear::load(&copy).map_err(|e| format!("v3 load: {e}"))?;
            let pager = probe.pager().ok_or("a v3 load must be paged")?;
            fetch_times(pager)?
        }
    };
    m.put("pager.fetch_miss_us", miss_us, "us");
    m.put("pager.fetch_hit_us", hit_us, "us");
    Ok(engine_p50)
}

/// Median cold and warm `BlockPager::fetch` times over up to
/// [`FETCH_BLOCKS`] blocks spread over the index.
fn fetch_times(pager: &BlockPager) -> Result<(f64, f64), String> {
    let blocks = pager.num_blocks();
    // A one-byte cap evicts everything but the block just fetched.
    pager.set_budget(Some(1)).map_err(|e| format!("pager cap: {e}"))?;
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for i in 0..FETCH_BLOCKS.min(blocks) {
        let b = i * blocks / FETCH_BLOCKS.min(blocks);
        for times in [&mut miss, &mut hit] {
            let t = Instant::now();
            pager.fetch(b).map_err(|e| format!("fetch {b}: {e}"))?;
            times.push(t.elapsed());
        }
    }
    Ok((median_us(miss), median_us(hit)))
}

/// Pager counters accumulated over the engine replay only.
struct PagerTally<'p> {
    pager: Option<&'p BlockPager>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<'p> PagerTally<'p> {
    fn new(pager: Option<&'p BlockPager>) -> Self {
        PagerTally { pager, hits: 0, misses: 0, evictions: 0 }
    }

    fn snapshot(&self) -> Option<PagerStats> {
        self.pager.map(BlockPager::stats)
    }

    fn add_since(&mut self, before: Option<PagerStats>) {
        if let (Some(b), Some(a)) = (before, self.snapshot()) {
            self.hits += a.hits - b.hits;
            self.misses += a.misses - b.misses;
            self.evictions += a.evictions - b.evictions;
        }
    }

    fn hit_rate(&self) -> f64 {
        let fetches = self.hits + self.misses;
        if fetches == 0 {
            0.0
        } else {
            self.hits as f64 / fetches as f64
        }
    }
}
