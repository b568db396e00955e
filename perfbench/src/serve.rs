//! `serve-rebuild`: an in-process `regalloc-serve` daemon over a solution
//! cache filled during set-up, driven by two closed-loop clients that
//! replay a seeded request stream. Most requests repeat a cached function
//! (a cache hit); a fixed share are `perturb_immediates` edits, which
//! miss, warm-start from a projected donor and are stored. Every pass
//! binds a fresh daemon over a copy of the filled cache, so each pass
//! replays the same stream against the same state.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use regalloc_core::targets::machine_for;
use regalloc_core::DonorSolution;
use regalloc_driver::cache::{cache_key, SolutionCache};
use regalloc_driver::{run_suite, CacheMode, DriverConfig, FunctionResult};
use regalloc_ir::interp::mix64;
use regalloc_ir::{fingerprint, shape_vector, Function};
use regalloc_machine::TargetId;
use regalloc_serve::{AllocOptions, Client, ServeConfig, ServeReport, Server};
use regalloc_workloads::{fuzz_function, perturb_immediates, GenConfig};

use crate::common::{
    check_allocation, median, metric, peak_rss_mb, regime, shuffle, tail, Metric, Outcome, Quality,
    CONTENT_SEED,
};
use crate::replay::{replay_function, timed, Layers};

/// Functions in the cached base set, and their size: small classic-mix
/// functions (108 to 869 rows), so one set-up fill takes about 6 s on
/// one worker and edits cost 1 ms to 1.7 s, while the base set still spans
/// every rung from ip-optimal to warm-start.
const BASE_FUNCTIONS: usize = 16;
const BASE_INSTS: usize = 8;
/// Requests per pass of the stream (split across the two clients); each
/// pass edits every base function once, so 5% of requests are edits.
const PASS_REQUESTS: usize = 320;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Passes every run makes, however short `--seconds`: the latency
/// percentiles pool exactly these (960 requests), so the tail percentile
/// is the same on every run, and each edit contributes three repeats.
const LATENCY_PASSES: usize = 3;

/// The per-layer serve figures for workloads without a daemon.
pub fn absent_metrics() -> Vec<Metric> {
    vec![
        metric("serve.server_ms_p50", 0.0, "ms"),
        metric("serve.overhead_ms_p50", 0.0, "ms"),
        metric("serve.busy", 0.0, "count"),
        metric("serve.errors", 0.0, "count"),
    ]
}

fn config(dir: &Path, jobs: usize) -> DriverConfig {
    DriverConfig {
        cache: CacheMode::Disk(dir.to_path_buf()),
        warm_starts: true,
        ..regime(TargetId::X86Pentium, jobs)
    }
}

/// One request of the stream.
struct Request {
    /// Index into the base set, or into the stream's edits.
    func: Func,
    text: String,
}

#[derive(Clone, Copy)]
enum Func {
    Base(usize),
    Edit(usize),
}

/// What a client observed for one request.
struct Served {
    index: usize,
    id: String,
    latency_ms: f64,
    /// The daemon's own `duration_ms` for the request, from its log.
    server_ms: Option<f64>,
    verb: String,
    cache_hit: bool,
    func_text: Option<String>,
    report: BTreeMap<String, String>,
}

/// The set-up products every pass reuses.
struct Prepared {
    base: Vec<Function>,
    base_text: Vec<String>,
    fill: Vec<FunctionResult>,
    /// The cache as the fill left it. Never served from: each pass's
    /// daemon binds over a fresh copy, and the edit oracle and the replay
    /// read the same state.
    fill_dir: PathBuf,
}

/// A bound daemon and its connected clients.
struct Daemon {
    addr: String,
    handle: std::thread::JoinHandle<std::io::Result<ServeReport>>,
    clients: Vec<Client>,
    log_path: PathBuf,
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

/// Generate the base set and fill a fresh disk cache through `run_suite`
/// on one worker: with two, the peak resident set hinges on which solves
/// happen to overlap.
fn prepare(work: &Path, generate_s: &mut f64) -> Result<Prepared, String> {
    let base: Vec<Function> = timed(generate_s, || {
        (0..BASE_FUNCTIONS)
            .map(|i| {
                fuzz_function(
                    &format!("serve_{i:03}"),
                    CONTENT_SEED + i as u64,
                    &GenConfig {
                        target_insts: BASE_INSTS,
                        ..GenConfig::default()
                    },
                )
            })
            .collect()
    });
    let base_text = base.iter().map(|f| format!("{f}\n")).collect();
    let fill_dir = work.join("serve-fill");
    let _ = std::fs::remove_dir_all(&fill_dir);
    std::fs::create_dir_all(&fill_dir).map_err(|e| format!("create cache dir: {e}"))?;
    let fill = run_suite(&base, &config(&fill_dir, 1)).results;
    Ok(Prepared {
        base,
        base_text,
        fill,
        fill_dir,
    })
}

/// Bind a daemon over a fresh copy of the filled cache and connect the
/// clients.
fn start(p: &Prepared, work: &Path, jobs: usize) -> Result<Daemon, String> {
    let cache_dir = work.join("serve-cache");
    copy_dir(&p.fill_dir, &cache_dir).map_err(|e| format!("copy cache: {e}"))?;
    let log_path = work.join("serve-log.jsonl");
    let _ = std::fs::remove_file(&log_path);
    let server = Server::bind(ServeConfig {
        driver: config(&cache_dir, jobs),
        // Budgets and admission never bind: a shrunk grant would change
        // the allocation and break byte identity with the batch oracle.
        client_capacity: Duration::from_secs(1_000_000),
        client_refill: 1_000_000.0,
        log_path: Some(log_path.clone()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let handle = std::thread::spawn(move || server.run());
    let d = Daemon {
        addr,
        handle,
        clients: Vec::new(),
        log_path,
    };
    let clients: Result<Vec<Client>, String> = (0..CLIENTS)
        .map(|c| {
            let mut client =
                Client::connect(&d.addr, &format!("client{c}")).map_err(|e| e.to_string())?;
            client.set_timeout(Some(Duration::from_secs(120))).ok();
            Ok(client)
        })
        .collect();
    match clients {
        Ok(clients) => Ok(Daemon { clients, ..d }),
        Err(e) => {
            let _ = shutdown(d);
            Err(format!("connect: {e}"))
        }
    }
}

/// Disconnect the clients, drain the daemon and wait for it to exit.
fn shutdown(d: Daemon) -> Result<ServeReport, String> {
    drop(d.clients);
    let mut control = Client::connect(&d.addr, "control").map_err(|e| format!("connect: {e}"))?;
    control.set_timeout(Some(Duration::from_secs(60))).ok();
    let resp = control.drain().map_err(|e| format!("drain: {e}"))?;
    if resp.frame.verb != "OK" {
        return Err(format!("DRAIN answered {}", resp.frame.verb));
    }
    match d.handle.join() {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(format!("server io error: {e}")),
        Err(_) => Err("server thread panicked".to_string()),
    }
}

/// The seeded stream every pass replays: every 20th request edits a base
/// function, each base function once in a seeded order; every other
/// request repeats a seeded base function. The edits themselves are fixed
/// (their perturbation seeds derive from [`CONTENT_SEED`]) and all fall to
/// the first client, so no two edits contend for the 2 cores: an edit's
/// solve costs 1 ms to 1.7 s, and seed-drawn edits at seeded positions
/// swung `fn_ms_tail` by 19-27% between seeds.
fn stream(p: &Prepared, seed: u64) -> (Vec<Request>, Vec<Function>) {
    let mut order: Vec<usize> = (0..BASE_FUNCTIONS).collect();
    shuffle(&mut order, seed);
    let every = PASS_REQUESTS / BASE_FUNCTIONS;
    let mut reqs = Vec::with_capacity(PASS_REQUESTS);
    let mut edits = Vec::new();
    for i in 0..PASS_REQUESTS {
        if i % every == 0 {
            let j = order[i / every];
            let e = perturb_immediates(&p.base[j], mix64(CONTENT_SEED ^ j as u64));
            reqs.push(Request {
                func: Func::Edit(edits.len()),
                text: format!("{e}\n"),
            });
            edits.push(e);
        } else {
            let j = (mix64(seed ^ mix64(i as u64)) % BASE_FUNCTIONS as u64) as usize;
            reqs.push(Request {
                func: Func::Base(j),
                text: p.base_text[j].clone(),
            });
        }
    }
    (reqs, edits)
}

/// Replay one pass through `CLIENTS` closed-loop connections; returns
/// what each request got back, in stream order, and the pass wall.
fn replay_pass(clients: &mut [Client], reqs: &[Request]) -> Result<(Vec<Served>, f64), String> {
    let t = Instant::now();
    let mut served: Vec<Served> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || -> Result<Vec<Served>, String> {
                    let mut got = Vec::new();
                    for (i, r) in reqs.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let t0 = Instant::now();
                        let resp = client
                            .alloc(&r.text, &AllocOptions::default())
                            .map_err(|e| format!("request {i}: {e}"))?;
                        got.push(Served {
                            index: i,
                            id: resp.id().to_string(),
                            latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                            server_ms: None,
                            verb: resp.frame.verb.clone(),
                            cache_hit: resp.frame.get("cache") == Some("hit"),
                            func_text: resp.func_text,
                            report: resp.report,
                        });
                    }
                    Ok(got)
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(
                h.join()
                    .map_err(|_| "client thread panicked".to_string())??,
            );
        }
        Ok::<_, String>(all)
    })?;
    let wall = t.elapsed().as_secs_f64();
    served.sort_by_key(|s| s.index);
    Ok((served, wall))
}

/// Server-side `duration_ms` per request id, from the JSONL request log.
fn server_durations(log: &Path) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let field = |line: &str, key: &str| -> Option<String> {
        let pat = format!("\"{key}\":\"");
        let start = line.find(&pat)? + pat.len();
        let end = line[start..].find('"')? + start;
        Some(line[start..end].to_string())
    };
    text.lines()
        .filter_map(|l| Some((field(l, "id")?, field(l, "duration_ms")?.parse().ok()?)))
        .collect()
}

pub fn run(root: &Path, seed: u64, seconds: f64, trace: bool, jobs: usize) -> Outcome {
    let mut out = Outcome::default();
    let work = root.join("perfbench/.work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        out.fail(format!("create {}: {e}", work.display()));
        return out;
    }

    // Set-up, three times: generate, fill a fresh cache, bind a daemon
    // over it and connect. The last daemon serves the first pass.
    let mut setups = Vec::new();
    let mut generate_s = 0.0;
    let mut ready = None;
    for rep in 0..3 {
        let t = Instant::now();
        let r =
            prepare(&work, &mut generate_s).and_then(|p| start(&p, &work, jobs).map(|d| (p, d)));
        setups.push(t.elapsed().as_secs_f64());
        match r {
            Ok(pd) if rep == 2 => ready = Some(pd),
            Ok((_, d)) => {
                if let Err(e) = shutdown(d) {
                    out.fail(e);
                    return out;
                }
            }
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let (prep, first) = ready.expect("set-up ran");
    let (reqs, edits) = stream(&prep, seed);

    // Timed passes, each against a freshly bound daemon.
    let mut walls = Vec::new();
    let mut passes: Vec<Vec<Served>> = Vec::new();
    let (mut busy, mut errors) = (0, 0);
    let mut rss = 0.0;
    let mut daemon = Some(first);
    let start_all = Instant::now();
    loop {
        let mut d = match daemon.take().map_or_else(|| start(&prep, &work, jobs), Ok) {
            Ok(d) => d,
            Err(e) => {
                out.fail(e);
                break;
            }
        };
        let pass = replay_pass(&mut d.clients, &reqs);
        let log_path = d.log_path.clone();
        match shutdown(d) {
            Ok(r) => {
                busy += r.busy;
                errors += r.errors;
            }
            Err(e) => out.fail(e),
        }
        match pass {
            Ok((mut served, wall)) => {
                let durations = server_durations(&log_path);
                for s in &mut served {
                    s.server_ms = durations.get(&s.id).copied();
                }
                walls.push(wall);
                passes.push(served);
                if passes.len() == 1 {
                    rss = peak_rss_mb();
                }
            }
            Err(e) => {
                out.fail(e);
                break;
            }
        }
        let spent = start_all.elapsed().as_secs_f64();
        if walls.len() >= LATENCY_PASSES && spent + spent / walls.len() as f64 > seconds {
            break;
        }
    }
    if passes.is_empty() {
        return out;
    }

    // Edit oracle: the batch driver over a copy of the filled cache (the
    // same donor snapshot every daemon bound over), under the same
    // configuration.
    let oracle_dir = work.join("serve-oracle");
    if let Err(e) = copy_dir(&prep.fill_dir, &oracle_dir) {
        out.fail(format!("copy cache: {e}"));
        return out;
    }
    let oracle = run_suite(&edits, &config(&oracle_dir, jobs)).results;

    // Output checks: every allocation the stream can be served is
    // re-verified; every OK body is byte-compared with the batch result.
    let check_seed = mix64(seed ^ 0xc0ffee);
    let machine = machine_for(TargetId::X86Pentium);
    let expected: Vec<&FunctionResult> = prep.fill.iter().chain(&oracle).collect();
    for (f, r) in prep.base.iter().chain(&edits).zip(&expected) {
        match &r.func {
            Some(a) => {
                if let Err(e) = check_allocation(machine.as_ref(), f, a, check_seed) {
                    out.fail(e);
                }
            }
            None => out.fail(format!("{}: batch oracle has no allocation", r.name)),
        }
    }
    let expect_text: Vec<Option<String>> = expected
        .iter()
        .map(|r| r.func.as_ref().map(|f| format!("{f}\n")))
        .collect();
    let (mut total, mut hits, mut projected, mut bad) = (0usize, 0usize, 0usize, 0u64);
    for served in &passes {
        for (req, s) in reqs.iter().zip(served) {
            total += 1;
            hits += s.cache_hit as usize;
            projected += (!s.cache_hit
                && s.report.get("warm_start").map(String::as_str) == Some("projected"))
                as usize;
            let k = match req.func {
                Func::Base(j) => j,
                Func::Edit(e) => BASE_FUNCTIONS + e,
            };
            let ok = s.verb == "OK"
                && s.func_text.as_deref().map(str::trim_end)
                    == expect_text[k].as_deref().map(str::trim_end);
            if !ok {
                bad += 1;
                if bad <= 5 {
                    out.fail(format!(
                        "request {} ({}): {} differs from the batch allocation",
                        s.index, s.id, s.verb
                    ));
                } else {
                    out.failed += 1;
                }
            }
        }
    }
    if bad > 5 {
        out.failures
            .push(format!("{} more requests failed their check", bad - 5));
    }
    out.attempted = total as u64;

    // Quality of what the stream serves: the base set's allocations
    // (byte-identical to every repeat's response); the edits' figures are
    // printed as a note.
    let gc = regalloc_coloring::ColoringAllocator::new(machine.as_ref());
    let colored = |f: &Function| gc.allocate(f).map_or(0, |c| c.stats.overhead_cycles());
    let mut q = Quality::default();
    for (f, r) in prep.base.iter().zip(&prep.fill) {
        q.add(r, colored(f));
    }
    let mut qe = Quality::default();
    for (f, r) in edits.iter().zip(&oracle) {
        qe.add(r, colored(f));
    }
    out.notes.push(format!("edits: {}", qe.exact_line()));

    let served = || passes.iter().flatten();
    let latencies: Vec<f64> = passes[..LATENCY_PASSES.min(passes.len())]
        .iter()
        .flatten()
        .map(|s| s.latency_ms)
        .collect();
    let (tail_ms, tail_pct, n) = tail(&latencies);
    let misses = total - hits;
    let repeats = reqs
        .iter()
        .filter(|r| matches!(r.func, Func::Base(_)))
        .count();
    out.notes.push(format!(
        "passes {} wall_s {:?}; {total} requests: repeat share {:.4}, edit share {:.4}, \
         cache-hit share {:.4}, miss share {:.4}; fn_ms_tail is p{tail_pct:.2} of {n} requests; \
         {:.1} requests/s",
        walls.len(),
        walls,
        repeats as f64 / PASS_REQUESTS as f64,
        edits.len() as f64 / PASS_REQUESTS as f64,
        hits as f64 / total as f64,
        misses as f64 / total as f64,
        PASS_REQUESTS as f64 / median(&walls)
    ));
    out.end_to_end = vec![
        metric("setup_s", median(&setups), "s"),
        metric("wall_s", median(&walls), "s"),
        metric("fn_ms_p50", median(&latencies), "ms"),
        metric("fn_ms_tail", tail_ms, "ms"),
        metric("solved_frac", q.solved_frac(), "ratio"),
        metric("optimal_frac", q.optimal_frac(), "ratio"),
        metric("overhead_removed", q.overhead_removed(), "ratio"),
        metric("code_bytes", q.code_bytes as f64, "bytes"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    out.quality = q;

    if trace {
        let server_ms: Vec<f64> = served().filter_map(|s| s.server_ms).collect();
        let overhead_ms: Vec<f64> = served()
            .filter_map(|s| s.server_ms.map(|d| s.latency_ms - d))
            .collect();
        let hit_ms: Vec<f64> = served()
            .filter(|s| s.cache_hit)
            .filter_map(|s| s.server_ms)
            .collect();
        let serve = vec![
            metric("serve.server_ms_p50", median(&server_ms), "ms"),
            metric("serve.overhead_ms_p50", median(&overhead_ms), "ms"),
            metric("serve.busy", busy as f64, "count"),
            metric("serve.errors", errors as f64, "count"),
        ];
        let before = out.failures.len();
        out.per_layer = replay(
            &prep,
            &edits,
            &oracle,
            jobs,
            generate_s,
            median(&hit_ms),
            (hits, total, misses, projected),
            serve,
            &mut out.failures,
        );
        out.failed += (out.failures.len() - before) as u64;
    }
    out
}

/// The traced replay: every base function served as a hit (parse,
/// fingerprint, cache lookup with its replay check, static validation),
/// then the edits through the batch stages with their donors.
#[allow(clippy::too_many_arguments)]
fn replay(
    prep: &Prepared,
    edits: &[Function],
    edit_results: &[FunctionResult],
    jobs: usize,
    generate_s: f64,
    hit_ms: f64,
    (hits, total, misses, projected): (usize, usize, usize, usize),
    serve: Vec<Metric>,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let mut l = Layers::default();
    let target = TargetId::X86Pentium;
    let machine = machine_for(target);
    let cfg = config(&prep.fill_dir, jobs);
    let cache = SolutionCache::new(Some(prep.fill_dir.clone()));
    let donors = cache.donor_snapshot();
    for (f, r) in prep.base.iter().zip(&prep.fill) {
        let wall = Instant::now();
        let text = format!("{f}\n");
        let parsed = timed(&mut l.ir_parse_s, || {
            regalloc_driver::parse_functions("replay", &text)
        });
        let Ok(mut parsed) = parsed else {
            failures.push(format!("replay: {} does not parse", r.name));
            continue;
        };
        let g = parsed.remove(0);
        let key = timed(&mut l.ir_fingerprint_s, || {
            cache_key(&g, target, &cfg.solver)
        });
        let hit = timed(&mut l.cache_lookup_s, || cache.lookup(key));
        match hit {
            Some(h) => {
                let errs = timed(&mut l.lint_validate_s, || {
                    regalloc_lint::validate(machine.as_ref(), &g, &h.func)
                });
                let same = r.func.as_ref().map(|a| format!("{a}")) == Some(format!("{}", h.func));
                if !errs.is_empty() || !same {
                    failures.push(format!("replay fidelity: {} hit differs", r.name));
                }
            }
            None => failures.push(format!("replay fidelity: {} missed the cache", r.name)),
        }
        l.replay_wall_s += wall.elapsed().as_secs_f64();
        l.untraced_wall_s += hit_ms / 1e3;
    }
    let scratch = SolutionCache::new(None);
    // Edits that left the body unchanged (no data immediates) were cache
    // hits, replayed above as their base function.
    for (f, r) in edits.iter().zip(edit_results).filter(|(_, r)| !r.cache_hit) {
        let shape = shape_vector(f);
        let fp = fingerprint(f);
        let donor = donors
            .iter()
            .map(|d| (d.shape.distance(&shape), d))
            .filter(|(dist, _)| *dist <= cfg.warm_start_distance)
            .min_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then_with(|| a.1.fingerprint.cmp(&b.1.fingerprint))
            })
            .map(|(_, d)| DonorSolution {
                exact: d.fingerprint == fp,
                solution: d.solution.clone(),
            });
        l.untraced_wall_s += r.task_time.as_secs_f64();
        let rep = replay_function(
            &mut l,
            machine.as_ref(),
            target,
            &cfg,
            f,
            donor.as_ref(),
            &scratch,
        );
        if let Err(e) = rep.matches(r) {
            failures.push(format!("replay fidelity: {e}"));
        }
    }
    let driver = [
        metric(
            "driver.cache_hit_frac",
            hits as f64 / total.max(1) as f64,
            "ratio",
        ),
        metric("driver.cache_rejected", 0.0, "count"),
        metric(
            "driver.warm_projected_frac",
            projected as f64 / misses.max(1) as f64,
            "ratio",
        ),
        metric("driver.pool_util", 0.0, "ratio"),
        metric("driver.pool_queue_wait_s", 0.0, "s"),
    ];
    let setup = [
        metric("cc.compile_s", 0.0, "s"),
        metric("workloads.generate_s", generate_s, "s"),
    ];
    l.metrics(&driver, &serve, &setup)
}
