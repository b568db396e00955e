//! `regalloc-perfbench` — the end-to-end and per-layer benchmark.
//!
//! ```text
//! regalloc-perfbench --workload suite-cold|corpus-targets|serve-rebuild
//!                    --seed N --seconds S --trace 0|1 [--jobs N]
//! regalloc-perfbench --selftest [--seed N]
//! ```
//!
//! Run from the repository root (it reads `tests/corpus/c` and writes
//! scratch files under `perfbench/.work`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the traced replay with `--trace 1`. Lines before it are
//! human-readable notes and any failed output checks.
//!
//! `--selftest` is the determinism self-test: the exact metrics of each
//! workload must match between `--jobs 1` and `--jobs 2`, and between two
//! runs of one seed; a second seed must also pass every check.

mod batch;
mod common;
mod replay;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use batch::Batch;
use common::{default_jobs, metrics_json, Outcome};

const WORKLOADS: &[&str] = &["suite-cold", "corpus-targets", "serve-rebuild"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Worker threads; `None` takes each workload's default.
    jobs: Option<usize>,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        jobs: None,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            a.selftest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            "--jobs" => a.jobs = Some(value.parse::<usize>().map_err(|e| bad(&e))?.max(1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.selftest && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn run(
    workload: &str,
    root: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: Option<usize>,
) -> Outcome {
    let batch = |b: Batch| {
        let jobs = jobs.unwrap_or(batch::DEFAULT_JOBS);
        batch::run(b, root, seed, seconds, trace, jobs)
    };
    match workload {
        "suite-cold" => batch(Batch::SuiteCold),
        "corpus-targets" => batch(Batch::CorpusTargets),
        _ => serve::run(root, seed, seconds, trace, jobs.unwrap_or(default_jobs())),
    }
}

/// The repository root: the current directory when it holds the corpus.
fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    if cwd.join("tests/corpus/c").is_dir() && cwd.join("perfbench").is_dir() {
        Ok(cwd)
    } else {
        Err(format!(
            "{} is not the repository root (no tests/corpus/c)",
            cwd.display()
        ))
    }
}

fn selftest(root: &Path, seed: u64) -> bool {
    let mut ok = true;
    for w in WORKLOADS {
        // The minimum rounds or passes (`--seconds 0`).
        let exact = |s: u64, jobs: usize| {
            let o = run(w, root, s, 0.0, false, Some(jobs));
            (o.quality.exact_line(), o.failed, o.failures)
        };
        let (a, na, fa) = exact(seed, 1);
        let (b, nb, fb) = exact(seed, 2);
        let (c, nc, fc) = exact(seed, 2);
        let (_, nd, fd) = exact(seed + 1, 2);
        let same = a == b && b == c;
        let clean = na + nb + nc + nd == 0;
        println!("{w}: jobs1 {a}");
        println!("{w}: jobs2 {b}");
        println!("{w}: repeat {c}");
        for f in fa.iter().chain(&fb).chain(&fc).chain(&fd) {
            println!("{w}: check failed: {f}");
        }
        println!(
            "{w}: {}",
            if same && clean {
                "deterministic"
            } else {
                "FAILED"
            }
        );
        ok &= same && clean;
    }
    ok
}

/// Serve every thread from one malloc arena. glibc otherwise hands each
/// new thread one of up to eight arenas per core, and each keeps the
/// pages of the largest model it ever held, so the peak resident set of
/// the multi-threaded `serve-rebuild` varied by 20% between runs with
/// which thread solved which function.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: called first thing in `main`, before any thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match repo_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return if selftest(&root, args.seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let out = run(
        &args.workload,
        &root,
        args.seed,
        args.seconds,
        args.trace,
        args.jobs,
    );
    for n in &out.notes {
        println!("{}: {n}", args.workload);
    }
    println!("{}: exact {}", args.workload, out.quality.exact_line());
    for f in &out.failures {
        println!("{}: check failed: {f}", args.workload);
    }
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics_json(metrics)
    );
    ExitCode::SUCCESS
}
