//! The two batch workloads: `suite-cold` (seeded paper suites through
//! `run_suite`, fresh cache, warm starts off) and `corpus-targets` (the C
//! corpus lowered for every target, audit and lint on).

use std::path::Path;
use std::time::Instant;

use regalloc_coloring::ColoringAllocator;
use regalloc_core::targets::machine_for;
use regalloc_driver::cache::SolutionCache;
use regalloc_driver::{run_suite, DriverConfig, SuiteOutcome};
use regalloc_ir::interp::mix64;
use regalloc_ir::Function;
use regalloc_machine::TargetId;
use regalloc_workloads::{Benchmark, Suite};

use crate::common::{
    check_allocation, iq_mean, median, metric, peak_rss_mb, regime, shuffle, tail, Metric, Outcome,
    Quality, CONTENT_SEED,
};
use crate::replay::{replay_function, timed, Layers};

/// Functions per paper suite in `suite-cold`: the first three the paper
/// attempts (no 64-bit values) with at most `SUITE_MAX_INSTS`
/// instructions, 16 in all (compress has only one). Under the
/// deterministic regime they take 1 ms to 0.4 s each and span every rung
/// from ip-optimal to warm-start, so one round takes about 1.5 s on one
/// worker and a run repeats it often enough to average the host's
/// phases. Larger paper functions cost up to 30 s each, too long to
/// repeat within a run. Fewer than 21 functions keep `fn_ms_tail` the
/// slowest function's time (see `tail`).
const SUITE_FUNCTIONS: usize = 3;
const SUITE_MAX_INSTS: usize = 12;

/// The corpus programs `corpus-targets` lowers. One pass over the whole
/// corpus takes about 160 s on one core (risc24 alone 110 s: its models
/// reach 5,470 rows and hit the 2,000-iteration limit on every LP),
/// beyond one run's budget; these are the programs whose risc24 models
/// stay at or below about 2,050 rows and solve within the limits, which
/// still spans 120 to 2,052 rows across the three targets. `minmax` is
/// left out too: its nine functions of 1 to 25 ms (bar one) would put
/// the median function among timer-scale solves. One round takes about
/// 4 s on one worker.
const CORPUS_PROGRAMS: &[&str] = &["counter", "sum_for", "swap"];

/// Worker threads when `--jobs` is not given. With two workers on two
/// shared cores, each solve's time hinges on what the other worker runs
/// beside it (the simplex is memory-bound), and a round's wall on which
/// worker the longest functions land; both scattered the latency and
/// wall figures past their bounds between runs.
pub const DEFAULT_JOBS: usize = 1;

/// Rounds every batch run makes, however short `--seconds`; later rounds
/// fill the run. Each function's task time is the interquartile mean of
/// its repeats over every round (see `iq_mean`), and `fn_ms_p50` and
/// `fn_ms_tail` are taken over those per-function times: a tail pooled
/// over repeats would be the few slowest repeats of the slowest
/// function, an extreme statistic that tracked the host's fast and slow
/// phases.
const MIN_ROUNDS: usize = 4;

/// Set-up repetitions per run (set-up takes milliseconds; the median of
/// many is steady).
const SETUP_REPS: usize = 101;

/// One `run_suite` call: a target and its functions.
pub struct Group {
    pub target: TargetId,
    pub funcs: Vec<Function>,
    /// Coloring baseline overhead cycles per function (0 when refused).
    pub coloring: Vec<i64>,
}

/// Which batch workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    SuiteCold,
    CorpusTargets,
}

impl Batch {
    fn config(self, target: TargetId, jobs: usize) -> DriverConfig {
        let mut cfg = regime(target, jobs);
        if self == Batch::CorpusTargets {
            cfg.audit = true;
            cfg.lint = true;
        }
        cfg
    }

    /// Build the inputs: generated or compiled functions, shuffled by
    /// the seed, with the coloring baseline computed here, outside the
    /// timed region. Returns the groups and the set-up layer times
    /// (`workloads.generate_s`, `cc.compile_s`).
    pub fn setup(self, root: &Path, seed: u64) -> Result<(Vec<Group>, f64, f64), String> {
        let mut generate_s = 0.0;
        let mut compile_s = 0.0;
        let mut groups: Vec<(TargetId, Vec<Function>)> = Vec::new();
        match self {
            Batch::SuiteCold => {
                let funcs = timed(&mut generate_s, || {
                    let mut funcs = Vec::new();
                    for b in Benchmark::all() {
                        let s = Suite::generate(b, CONTENT_SEED);
                        let machine = machine_for(TargetId::X86Pentium);
                        funcs.extend(
                            s.functions
                                .into_iter()
                                .filter(|f| {
                                    f.num_insts() <= SUITE_MAX_INSTS
                                        && !regalloc_machine::refuses(machine.as_ref(), f)
                                })
                                .take(SUITE_FUNCTIONS),
                        );
                    }
                    funcs
                });
                groups.push((TargetId::X86Pentium, funcs));
            }
            Batch::CorpusTargets => {
                let dir = root.join("tests/corpus/c");
                let mut sources = Vec::new();
                for p in CORPUS_PROGRAMS {
                    let path = dir.join(format!("{p}.c"));
                    let src = std::fs::read_to_string(&path)
                        .map_err(|e| format!("read {}: {e}", path.display()))?;
                    sources.push((path, src));
                }
                for t in TargetId::ALL {
                    let mut funcs = Vec::new();
                    for (path, src) in &sources {
                        let fs = timed(&mut compile_s, || regalloc_cc::compile_for(src, t))
                            .map_err(|e| {
                                format!("compile {} for {}: {e}", path.display(), t.name())
                            })?;
                        funcs.extend(fs);
                    }
                    groups.push((t, funcs));
                }
            }
        }
        let groups = groups
            .into_iter()
            .enumerate()
            .map(|(gi, (target, mut funcs))| {
                shuffle(&mut funcs, mix64(seed ^ gi as u64));
                let machine = machine_for(target);
                let gc = ColoringAllocator::new(machine.as_ref());
                let coloring = funcs
                    .iter()
                    .map(|f| gc.allocate(f).map_or(0, |c| c.stats.overhead_cycles()))
                    .collect();
                Group {
                    target,
                    funcs,
                    coloring,
                }
            })
            .collect();
        Ok((groups, generate_s, compile_s))
    }
}

/// Run a batch workload: repeat rounds (one `run_suite` per group) until
/// `seconds` are spent, check every output, and — when tracing — replay
/// round 0 stage by stage.
pub fn run(
    batch: Batch,
    root: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
) -> Outcome {
    let mut out = Outcome::default();

    // Set-up, several times: report the median.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let r = batch.setup(root, seed);
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some(r);
    }
    let (groups, generate_s, compile_s) = match prepared.expect("set-up ran") {
        Ok(g) => g,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };

    // Timed rounds.
    let mut walls: Vec<f64> = Vec::new();
    // Each attempted function's task times, one per round.
    let mut fn_ms: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<Vec<SuiteOutcome>> = None;
    let mut rss = 0.0;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let outs: Vec<SuiteOutcome> = groups
            .iter()
            .map(|g| run_suite(&g.funcs, &batch.config(g.target, jobs)))
            .collect();
        walls.push(t.elapsed().as_secs_f64());
        let attempted = outs.iter().flat_map(|o| &o.results).filter(|r| r.attempted);
        let ms: Vec<f64> = attempted.map(|r| r.task_time.as_secs_f64() * 1e3).collect();
        fn_ms.resize(ms.len(), Vec::new());
        for (v, t) in fn_ms.iter_mut().zip(&ms) {
            v.push(*t);
        }
        match &first {
            None => {
                rss = peak_rss_mb();
                first = Some(outs);
            }
            // Repeat-run determinism, for free on every later round.
            Some(f0) => {
                for (a, b) in f0.iter().zip(&outs) {
                    for (x, y) in a.results.iter().zip(&b.results) {
                        if (x.rung, x.solver_nodes, x.lp_iters, x.ip_bytes)
                            != (y.rung, y.solver_nodes, y.lp_iters, y.ip_bytes)
                        {
                            out.fail(format!("{}: round results differ", x.name));
                        }
                    }
                }
            }
        }
        let spent = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_ROUNDS && spent + spent / walls.len() as f64 > seconds {
            break;
        }
    }
    let outs = first.expect("at least one round");

    // Output checks and quality, on round 0.
    let mut q = Quality::default();
    let check_seed = mix64(seed ^ 0xc0ffee);
    for (g, o) in groups.iter().zip(&outs) {
        let machine = machine_for(g.target);
        let mut tq = Quality::default();
        for ((f, r), col) in g.funcs.iter().zip(&o.results).zip(&g.coloring) {
            if !r.attempted {
                continue;
            }
            tq.add(r, *col);
            q.add(r, *col);
            match (&r.func, &r.error) {
                (Some(alloc), None) => {
                    if let Err(e) = check_allocation(machine.as_ref(), f, alloc, check_seed) {
                        out.fail(e);
                    }
                }
                (_, err) => out.fail(format!("{}: no allocation ({err:?})", r.name)),
            }
        }
        out.notes.push(format!(
            "target {}: attempted {} solved {} optimal {}",
            g.target.name(),
            tq.attempted,
            tq.solved,
            tq.optimal
        ));
        if batch == Batch::CorpusTargets && (tq.attempted == 0 || tq.solved == 0) {
            out.fail(format!(
                "target {} has {} attempted, {} solved",
                g.target.name(),
                tq.attempted,
                tq.solved
            ));
        }
    }
    out.attempted = (q.attempted * walls.len()) as u64;

    let fn_typical: Vec<f64> = fn_ms.iter().map(|v| iq_mean(v)).collect();
    let (tail_ms, tail_pct, n) = tail(&fn_typical);
    out.notes.push(format!(
        "rounds {} wall_s {:?}; fn_ms_tail is p{tail_pct:.1} of {n} per-function task times; {:.2} functions/s",
        walls.len(),
        walls,
        n as f64 / iq_mean(&walls)
    ));
    out.end_to_end = vec![
        metric("setup_s", median(&setups), "s"),
        metric("wall_s", iq_mean(&walls), "s"),
        metric("fn_ms_p50", median(&fn_typical), "ms"),
        metric("fn_ms_tail", tail_ms, "ms"),
        metric("solved_frac", q.solved_frac(), "ratio"),
        metric("optimal_frac", q.optimal_frac(), "ratio"),
        metric("overhead_removed", q.overhead_removed(), "ratio"),
        metric("code_bytes", q.code_bytes as f64, "bytes"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    out.quality = q;

    if trace {
        let before = out.failures.len();
        out.per_layer = replay(
            &groups,
            &outs,
            batch,
            jobs,
            generate_s,
            compile_s,
            &mut out.failures,
        );
        out.failed += (out.failures.len() - before) as u64;
    }
    out
}

/// The traced replay of round 0, with the fidelity check against it.
fn replay(
    groups: &[Group],
    outs: &[SuiteOutcome],
    batch: Batch,
    jobs: usize,
    generate_s: f64,
    compile_s: f64,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let mut l = Layers::default();
    let (mut hits, mut attempted, mut projected, mut rejected) = (0usize, 0usize, 0usize, 0usize);
    let (mut util, mut queue_wait) = (Vec::new(), 0.0);
    for (g, o) in groups.iter().zip(outs) {
        let machine = machine_for(g.target);
        let cfg = batch.config(g.target, jobs);
        let cache = SolutionCache::new(None);
        for (f, r) in g.funcs.iter().zip(&o.results) {
            if !r.attempted {
                continue;
            }
            attempted += 1;
            hits += r.cache_hit as usize;
            projected += (r.warm_start == regalloc_core::WarmStartKind::Projected) as usize;
            l.untraced_wall_s += r.task_time.as_secs_f64();
            let rep = replay_function(&mut l, machine.as_ref(), g.target, &cfg, f, None, &cache);
            if let Err(e) = rep.matches(r) {
                failures.push(format!("replay fidelity: {e}"));
            }
        }
        rejected += o.stats.cache_rejected;
        util.push(o.stats.utilization());
        queue_wait += o
            .metrics
            .gauge("regalloc_pool_queue_wait_seconds", &[])
            .unwrap_or(0.0);
    }
    let misses = attempted - hits;
    let driver = [
        metric(
            "driver.cache_hit_frac",
            hits as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("driver.cache_rejected", rejected as f64, "count"),
        metric(
            "driver.warm_projected_frac",
            projected as f64 / misses.max(1) as f64,
            "ratio",
        ),
        metric("driver.pool_util", median(&util), "ratio"),
        metric("driver.pool_queue_wait_s", queue_wait, "s"),
    ];
    let serve = crate::serve::absent_metrics();
    let setup = [
        metric("cc.compile_s", compile_s, "s"),
        metric("workloads.generate_s", generate_s, "s"),
    ];
    l.metrics(&driver, &serve, &setup)
}
