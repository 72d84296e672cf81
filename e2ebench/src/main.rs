//! End-to-end benchmark of `bear-serve`: one named workload per run
//! against an in-process server on a generated graph, every answer
//! checked against an in-process reference index. See `README.md` in
//! this directory for the workloads and every metric.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A run with a
//! wrong answer still prints it, then exits with code 1. `--repeat N`
//! instead runs the workload N times, on seeds `seed..seed+N`, each in
//! its own process, and prints every metric's median and quartiles.

mod client;
mod gate;
mod load;
mod replay;
mod report;
mod trace;
mod workload;

use crate::client::Conn;
use crate::gate::Reference;
use crate::load::{Outcome, Req, Run};
use crate::report::{percentile, Metrics};
use crate::trace::Trace;
use crate::workload::{Stack, Traffic, Workload};
use bear_core::paging::SegmentMeta;
use bear_core::{persist, preprocess_to_disk, Bear, BearConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: e2ebench --workload <topk_spoke|paged_swap> \
--seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]";

/// Set-ups per run: at least `MIN_SETUPS`, then more while the budget
/// lasts, up to `MAX_SETUPS`; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 7;
const SETUP_BUDGET: Duration = Duration::from_millis(2500);
/// Warm-up traffic before the measured window.
const WARMUP: Duration = Duration::from_millis(500);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        raw.iter().position(|a| a == flag).and_then(|i| raw.get(i + 1)).map(String::as_str)
    };
    let name = get("--workload").ok_or("--workload is required")?;
    let workload = workload::all()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let number = |flag: &str| -> Result<Option<f64>, String> {
        get(flag).map(|v| v.parse::<f64>().map_err(|e| format!("{flag} {v:?}: {e}"))).transpose()
    };
    let seed = get("--seed").ok_or("--seed is required")?;
    let seed = seed.parse::<u64>().map_err(|e| format!("--seed {seed:?}: {e}"))?;
    let seconds = number("--seconds")?.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    let repeat = number("--repeat")?.map(|r| r.max(2.0) as usize);
    Ok(Args { workload, seed, seconds, trace, repeat })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat {
        return repeat(&args, runs);
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload.name, std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    // Fails while another run still uses it, which is fine.
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok((line, true)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok((line, false)) => {
            println!("{line}");
            eprintln!("error: the server gave wrong answers");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and returns the result line and whether every
/// answer was right.
fn run(args: &Args, dir: &Path) -> Result<(String, bool), String> {
    let w = &args.workload;
    let g = w.generate();
    let n = g.num_nodes();
    let config = BearConfig::exact(workload::RESTART);

    // The paged workload's swap file and resident cap come first, outside
    // the timed set-ups. The swap file is streamed to disk like the served
    // index, and the cap is read from its segment directory, so no spoke
    // block is held in memory for either.
    let mut swap_file = None;
    let mut cap = None;
    if w.paged {
        let file = dir.join("b.idx");
        preprocess_to_disk(&g, &config, &file).map_err(|e| format!("swap file: {e}"))?;
        let probe = Bear::load(&file).map_err(|e| format!("load v3: {e}"))?;
        let pager = probe.pager().ok_or("a v3 load must be paged")?;
        let spoke_bytes: usize = pager.directory().iter().map(SegmentMeta::resident_bytes).sum();
        cap = Some((spoke_bytes as u64 / 4).max(1));
        swap_file = Some(file);
    }

    let mut setup_s = Vec::new();
    let mut load_s = Vec::new();
    let mut save_s = Vec::new();
    let mut stack: Option<Stack> = None;
    let started = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        if let Some(old) = stack.take() {
            old.server.shutdown();
        }
        let (s, times) = workload::set_up(w, &g, dir, cap)?;
        setup_s.push(times.total.as_secs_f64());
        load_s.push(times.load);
        save_s.extend(times.save);
        stack = Some(s);
    }
    let stack = stack.ok_or("no set-up ran")?;
    let swap_files = swap_file.map_or_else(Vec::new, |b| vec![b, stack.index.clone()]);
    let addr = stack.server.addr();
    let index_bytes = std::fs::metadata(&stack.index).map_err(|e| e.to_string())?.len();

    // Warm-up on its own seed stream: lazy tables, caches and code paths.
    drive(w, addr, n, args.seed ^ 0x5eed, WARMUP, &swap_files, false);
    let window = Duration::from_secs_f64(args.seconds);
    let (mut run, untraced) = if args.trace {
        let plain = drive(w, addr, n, args.seed, window / 2, &swap_files, false);
        let traced = drive(w, addr, n, args.seed ^ 1, window / 2, &swap_files, true);
        (traced, Some(plain))
    } else {
        (drive(w, addr, n, args.seed, window, &swap_files, false), None)
    };
    let peak_rss = report::peak_rss_mb();

    // The answer gate, outside the measured window. Its reference is
    // built only now, so it does not count in `peak_rss_mb`.
    let reference = Bear::new(&g, &config).map_err(|e| format!("reference: {e}"))?;
    let mut gate = Reference::new(&reference);
    let mut wrong = 0u64;
    let mut failed = 0u64;
    let mut verified = 0u64;
    for s in &run.samples {
        let ok = match &s.outcome {
            Outcome::Answer(Ok(answer)) => gate.check(&s.req, answer),
            Outcome::Answer(Err(why)) => {
                eprintln!("unreadable answer to {:?}: {why}", s.req);
                false
            }
            Outcome::Status(code) => {
                eprintln!("{:?} answered {code}", s.req);
                false
            }
            Outcome::Transport(why) => {
                eprintln!("{:?} failed: {why}", s.req);
                false
            }
        };
        if !ok {
            failed += 1;
            wrong += u64::from(matches!(s.outcome, Outcome::Answer(_)));
        } else if !matches!(s.req, Req::Swap { .. }) {
            verified += 1;
        }
    }
    let attempted = run.samples.len() as u64;
    let summary = Summary::of(&run);
    for kind in ["http.query", "http.topk", "http.swap"] {
        let mut ms: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| s.req.span_name() == kind)
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        if !ms.is_empty() {
            let (count, p50) = (ms.len(), percentile(&mut ms, 0.5));
            let (p90, p99) = (percentile(&mut ms, 0.9), percentile(&mut ms, 0.99));
            eprintln!("  {kind:<11} {count:>6} requests  p50 {p50:.3} ms  p90 {p90:.3} ms  p99 {p99:.3} ms");
        }
    }
    let stats = reference.stats();
    println!(
        "costmodel {{\"workload\":\"{}\",\"seed\":{},\"host_cores\":{},\"n\":{},\"n2\":{},\
         \"blocks\":{},\"sum_block_sq\":{},\"nnz_l1\":{},\"nnz_u1\":{},\"nnz_l2\":{},\"nnz_u2\":{},\
         \"nnz_h12\":{},\"nnz_h21\":{},\"index_format\":\"{}\",\"resident_cap_bytes\":{}}}",
        w.name,
        args.seed,
        workload::host_cores(),
        stats.n,
        stats.n2,
        stats.num_blocks,
        stats.sum_block_sq,
        stats.nnz_l1_inv,
        stats.nnz_u1_inv,
        stats.nnz_l2_inv,
        stats.nnz_u2_inv,
        stats.nnz_h12,
        stats.nnz_h21,
        if w.paged { "v3" } else { "v2" },
        cap.map_or("null".to_string(), |c| c.to_string()),
    );

    let mut m = Metrics::default();
    let error_rate = failed as f64 / attempted.max(1) as f64;
    if let Some(plain) = untraced {
        let mut trace = std::mem::replace(&mut run.trace, Trace::new(Instant::now()));
        precompute_metrics(&reference, &mut m);
        if w.paged {
            // The v3 write is fused with preprocessing in the set-ups:
            // time it on its own here.
            let t = Instant::now();
            reference.save_v3(&dir.join("c.idx")).map_err(|e| format!("save v3: {e}"))?;
            save_s.push(t.elapsed());
        }
        m.put("persist.save_s", median(save_s.iter().map(Duration::as_secs_f64)), "s");
        m.put("persist.load_s", median(load_s.iter().map(Duration::as_secs_f64)), "s");
        let t = Instant::now();
        persist::verify_index(&stack.index).map_err(|e| format!("verify: {e}"))?;
        m.put("persist.verify_s", t.elapsed().as_secs_f64(), "s");
        let mut in_order: Vec<&load::Sample> = run.samples.iter().collect();
        in_order.sort_by_key(|s| s.due);
        let engine_p50 = replay::replay(&stack.index, cap, &in_order, dir, &mut trace, &mut m)?;
        serve_metrics(&stack, &run.samples, engine_p50, &mut m)?;
        let lag = run.samples.iter().map(|s| s.lag.as_secs_f64() * 1e3).collect::<Vec<_>>();
        m.put("loadgen.lag_p99_ms", percentile(&mut lag.clone(), 0.99), "ms");
        m.put("error_rate", error_rate, "ratio");
        let base = Summary::of(&plain).p50_ms;
        m.put("trace.overhead_pct", (summary.p50_ms - base) / base * 100.0, "%");
        write_trace(&trace, w.name, args.seed);
    } else {
        m.put("setup_s", median(setup_s.iter().copied()), "s");
        m.put("p50_ms", summary.p50_ms, "ms");
        m.put("p99_ms", summary.p99_ms, "ms");
        m.put("throughput_qps", verified as f64 / run.window.as_secs_f64(), "1/s");
        m.put("success_rate", 1.0 - error_rate, "ratio");
        m.put("index_bytes", index_bytes as f64, "bytes");
        m.put_maybe("peak_rss_mb", peak_rss, "MiB");
    }
    stack.server.shutdown();
    eprintln!(
        "{}: seed {} | {} requests, {failed} failed, {wrong} wrong answers | \
         {} set-ups | window {:.2}s | host cores {}\n{}",
        w.name,
        args.seed,
        summary.latencies,
        setup_s.len(),
        run.window.as_secs_f64(),
        workload::host_cores(),
        m.table()
    );
    Ok((m.result_json(wrong == 0, attempted, failed), wrong == 0))
}

/// Sends one window of the workload's traffic.
fn drive(
    w: &Workload,
    addr: std::net::SocketAddr,
    n: usize,
    seed: u64,
    window: Duration,
    swap_files: &[PathBuf],
    traced: bool,
) -> Run {
    match w.traffic {
        Traffic::Closed { conns } => {
            load::closed_loop(addr, conns, window, seed, traced, &|rng| w.next_request(n, rng))
        }
        Traffic::Open { .. } => {
            let schedule = w.schedule(n, seed, window, swap_files);
            load::open_loop(addr, workload::host_cores(), &schedule, traced)
        }
    }
}

/// Latency summary over the query requests of a window (swaps excluded):
/// nearest-rank p50 and p99 over the whole window.
struct Summary {
    p50_ms: f64,
    p99_ms: f64,
    latencies: usize,
}

impl Summary {
    fn of(run: &Run) -> Summary {
        let mut ms: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| !matches!(s.req, Req::Swap { .. }))
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        Summary {
            p50_ms: percentile(&mut ms, 0.5),
            p99_ms: percentile(&mut ms, 0.99),
            latencies: ms.len(),
        }
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&mut values.into_iter().collect::<Vec<_>>(), 0.5)
}

/// The `precompute` layer: stage times and the cost-model counts of the
/// reference build.
fn precompute_metrics(reference: &Bear, m: &mut Metrics) {
    let t = reference.timings();
    let s = reference.stats();
    for (name, d) in [
        ("precompute.slashburn_s", t.slashburn),
        ("precompute.factor_h11_s", t.factor_h11),
        ("precompute.invert_h11_s", t.invert_h11),
        ("precompute.schur_s", t.schur),
        ("precompute.factor_schur_s", t.factor_schur),
        ("precompute.invert_schur_s", t.invert_schur),
        ("precompute.total_s", t.total),
    ] {
        m.put(name, d.as_secs_f64(), "s");
    }
    for (name, count) in [
        ("precompute.n2", s.n2 as f64),
        ("precompute.blocks", s.num_blocks as f64),
        ("precompute.sum_block_sq", s.sum_block_sq as f64),
        ("precompute.nnz_l1", s.nnz_l1_inv as f64),
        ("precompute.nnz_u1", s.nnz_u1_inv as f64),
        ("precompute.nnz_l2", s.nnz_l2_inv as f64),
        ("precompute.nnz_u2", s.nnz_u2_inv as f64),
        ("precompute.nnz_h12", s.nnz_h12 as f64),
        ("precompute.nnz_h21", s.nnz_h21 as f64),
    ] {
        m.put(name, count, "count");
    }
}

/// The `serve` layer, split client-side: connect, time to first byte,
/// transfer, what the server adds over the engine, response size and
/// index swap round trips.
fn serve_metrics(
    stack: &Stack,
    samples: &[load::Sample],
    engine_p50_us: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let queries = || samples.iter().filter(|s| !matches!(s.req, Req::Swap { .. }));
    let ttfb = report::median_us(queries().map(|s| s.ttfb));
    m.put("serve.connect_us", report::median_us(samples.iter().filter_map(|s| s.connect)), "us");
    m.put("serve.ttfb_p50_us", ttfb, "us");
    m.put("serve.transfer_p50_us", report::median_us(queries().map(|s| s.transfer)), "us");
    m.put("serve.overhead_p50_us", ttfb - engine_p50_us, "us");
    m.put("serve.response_bytes", median(queries().map(|s| s.bytes as f64)), "bytes");
    let mut swaps: Vec<f64> = samples
        .iter()
        .filter(|s| matches!(s.req, Req::Swap { .. }))
        .map(|s| (s.ttfb + s.transfer).as_secs_f64() * 1e3)
        .collect();
    if swaps.is_empty() {
        // No swap ran under traffic: time one now, on the idle server.
        let target = format!("/admin/load?graph={}&index={}", load::GRAPH, stack.index.display());
        let reply = Conn::open(stack.server.addr(), false)
            .and_then(|mut c| c.call("POST", &target))
            .map_err(|e| format!("swap: {e}"))?;
        if reply.status != 200 {
            return Err(format!("swap answered {}", reply.status));
        }
        swaps.push((reply.done - reply.sent).as_secs_f64() * 1e3);
    }
    m.put("serve.swap_ms", percentile(&mut swaps, 0.5), "ms");
    Ok(())
}

/// Writes the spans under `.bench_out/` and prints each layer's self time.
fn write_trace(trace: &Trace, workload: &str, seed: u64) {
    let out = Path::new(".bench_out");
    let path = out.join(format!("trace-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(out).and_then(|()| trace.write_jsonl(&path)) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written: {e}"),
    }
    eprintln!("  {:<16} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, (count, total, own)) in trace.self_times() {
        eprintln!(
            "  {name:<16} {count:>8} {:>12.3} {:>12.3}",
            total.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3
        );
    }
}

/// Steadiness report: runs the workload `runs` times on consecutive
/// seeds, each in its own process, and prints every metric's median,
/// quartiles and quartile spread as a share of the median.
fn repeat(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..runs as u64 {
        let seed = args.seed.wrapping_add(i);
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", args.workload.name, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        let out = match cmd.stderr(std::process::Stdio::null()).output() {
            Ok(out) if out.status.success() => out,
            Ok(out) => {
                eprintln!("error: seed {seed} exited with {}", out.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or_default();
        let Ok(gate::Json::Obj(fields)) = gate::parse(last) else {
            eprintln!("error: seed {seed}: no result line");
            return ExitCode::FAILURE;
        };
        let metrics = fields.iter().filter(|(k, _)| *k == "metrics");
        for (name, metric) in metrics.flat_map(|(_, m)| match m {
            gate::Json::Obj(entries) => entries.as_slice(),
            _ => &[],
        }) {
            let gate::Json::Obj(parts) = metric else { continue };
            let get = |k: &str| parts.iter().find(|(n, _)| *n == k).map(|(_, v)| v);
            let (Some(gate::Json::Num(v)), Some(gate::Json::Str(unit))) =
                (get("value"), get("unit"))
            else {
                continue;
            };
            let v: f64 = v.parse().unwrap_or(f64::NAN);
            match values.iter_mut().find(|(n, ..)| n == name) {
                Some((.., vs)) => vs.push(v),
                None => values.push((name.to_string(), unit.to_string(), vec![v])),
            }
        }
        let this_run: Vec<String> = values
            .iter()
            .filter_map(|(name, _, vs)| vs.last().map(|v| format!("{name}={v:.6}")))
            .collect();
        eprintln!("run {}/{runs} seed {seed}: {}", i + 1, this_run.join(" "));
    }
    println!(
        "{}: {runs} runs of {}s, seeds {}..{}, host cores {}",
        args.workload.name,
        args.seconds,
        args.seed,
        args.seed.wrapping_add(runs as u64 - 1),
        workload::host_cores()
    );
    println!("  {:<28} {:>14} {:>14} {:>14} {:>9}", "metric", "q1", "median", "q3", "spread");
    for (name, unit, vs) in &values {
        if let Some((q1, med, q3)) = report::quartiles(vs) {
            let spread = if med != 0.0 { (q3 - q1) / med.abs() } else { 0.0 };
            println!("  {name:<28} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>9.4} {unit}");
        }
    }
    ExitCode::SUCCESS
}
