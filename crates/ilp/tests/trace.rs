//! Trace-event integration tests: per-node iteration attribution and the
//! event stream's consistency with the returned `Solution`.

use std::time::Duration;

use regalloc_ilp::{
    solve_seeded, solve_seeded_traced, Deadline, Incumbent, Model, SolverConfig, Status,
};
use regalloc_obs::{Event, Tracer};

/// Odd-cycle vertex packing: the LP optimum is fractional, so the search
/// must branch — several nodes with real simplex work.
fn odd_cycle(k: usize) -> Model {
    let mut m = Model::new();
    let v: Vec<_> = (0..k).map(|i| m.add_var(-1.0, format!("x{i}"))).collect();
    for i in 0..k {
        m.add_le(vec![(v[i], 1.0), (v[(i + 1) % k], 1.0)], 1.0);
    }
    m
}

fn node_and_dive_iters(events: &[Event]) -> u64 {
    events
        .iter()
        .map(|e| match e {
            Event::Node { lp_iters, .. } | Event::Dive { lp_iters, .. } => *lp_iters,
            _ => 0,
        })
        .sum()
}

#[test]
fn per_node_iterations_sum_to_solution_total() {
    let m = odd_cycle(7);
    let tracer = Tracer::on();
    let sol = solve_seeded_traced(
        &m,
        &SolverConfig::default(),
        &Vec::<Incumbent>::new(),
        Deadline::unlimited(),
        &tracer,
    );
    let trace = tracer.finish("odd7");
    assert_eq!(sol.status, Status::Optimal);
    assert!(sol.lp_iters > 0);
    assert_eq!(
        node_and_dive_iters(&trace.events),
        sol.lp_iters,
        "event-attributed iterations must equal Solution::lp_iters"
    );
    let node_count = trace
        .events
        .iter()
        .filter(|e| matches!(e, Event::Node { .. }))
        .count() as u64;
    assert_eq!(node_count, sol.nodes, "one Node event per counted node");
    assert_eq!(
        trace.solve_done(),
        Some(("optimal", sol.nodes, sol.lp_iters))
    );
}

#[test]
fn abandoned_node_iterations_are_not_lost() {
    // A tiny per-LP iteration budget forces every node relaxation to be
    // abandoned at the limit. The iterations it burned must still appear
    // in the totals — before the accounting fix they vanished (only
    // `LpOutcome::Optimal` carried an iteration count).
    let m = odd_cycle(9);
    let cfg = SolverConfig {
        lp_iter_limit: 3,
        node_limit: 8,
        time_limit: Duration::from_secs(300),
        ..SolverConfig::default()
    };
    let tracer = Tracer::on();
    let sol = solve_seeded_traced(
        &m,
        &cfg,
        &Vec::<Incumbent>::new(),
        Deadline::unlimited(),
        &tracer,
    );
    let trace = tracer.finish("starved");
    assert!(
        sol.lp_iters > 0,
        "iterations spent on abandoned nodes must be attributed"
    );
    assert_eq!(node_and_dive_iters(&trace.events), sol.lp_iters);
    assert!(trace.events.iter().any(|e| matches!(
        e,
        Event::Node {
            outcome: "abandoned",
            ..
        }
    )));
}

#[test]
fn pruned_node_iterations_are_attributed() {
    // Seed with the known optimum so every explored node is bound-pruned
    // against it; the pruned nodes' LP work still lands in the totals.
    let m = odd_cycle(5);
    let seeds = vec![Incumbent {
        source: "exact",
        values: vec![true, false, true, false, false],
    }];
    let tracer = Tracer::on();
    let sol = solve_seeded_traced(
        &m,
        &SolverConfig::default(),
        &seeds,
        Deadline::unlimited(),
        &tracer,
    );
    let trace = tracer.finish("seeded");
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(node_and_dive_iters(&trace.events), sol.lp_iters);
    assert!(trace.events.iter().any(|e| matches!(
        e,
        Event::SeedAccepted {
            source: "exact",
            ..
        }
    )));
}

#[test]
fn infeasible_seed_is_rejected_in_trace() {
    let mut m = Model::new();
    let a = m.add_var(-1.0, "a");
    m.add_ge(vec![(a, 1.0)], 1.0);
    let seeds = vec![
        Incumbent {
            source: "bad",
            values: vec![false],
        },
        Incumbent {
            source: "short",
            values: vec![],
        },
    ];
    let tracer = Tracer::on();
    let sol = solve_seeded_traced(
        &m,
        &SolverConfig::default(),
        &seeds,
        Deadline::unlimited(),
        &tracer,
    );
    let trace = tracer.finish("rejects");
    assert_eq!(sol.status, Status::Optimal);
    assert!(trace.events.iter().any(|e| matches!(
        e,
        Event::SeedRejected {
            source: "bad",
            reason: "infeasible",
        }
    )));
    assert!(trace.events.iter().any(|e| matches!(
        e,
        Event::SeedRejected {
            source: "short",
            reason: "wrong-size",
        }
    )));
}

#[test]
fn tracing_does_not_change_the_solution() {
    let m = odd_cycle(7);
    let cfg = SolverConfig::default();
    let cold = solve_seeded(&m, &cfg, &Vec::<Incumbent>::new(), Deadline::unlimited());
    let tracer = Tracer::on();
    let traced = solve_seeded_traced(
        &m,
        &cfg,
        &Vec::<Incumbent>::new(),
        Deadline::unlimited(),
        &tracer,
    );
    assert_eq!(cold.status, traced.status);
    assert_eq!(cold.values, traced.values);
    assert_eq!(cold.objective, traced.objective);
    assert_eq!(cold.nodes, traced.nodes);
    assert_eq!(cold.lp_iters, traced.lp_iters);
}

#[test]
fn declined_solve_emits_only_the_bookends() {
    // More rows than `max_rows`: the solver declines before the dive and
    // the node loop, so the seeds are the whole answer and the trace is
    // the span, the seed verdicts and the final rollup — nothing else.
    let mut m = Model::new();
    let a = m.add_var(1.0, "a");
    for _ in 0..10 {
        m.add_ge(vec![(a, 1.0)], 1.0);
    }
    let cfg = SolverConfig {
        max_rows: 5,
        ..SolverConfig::default()
    };
    let seeds = vec![
        Incumbent {
            source: "spill",
            values: vec![true],
        },
        Incumbent {
            source: "short",
            values: vec![],
        },
    ];
    let tracer = Tracer::on();
    let sol = solve_seeded_traced(&m, &cfg, &seeds, Deadline::unlimited(), &tracer);
    let trace = tracer.finish("declined");
    assert_eq!(sol.status, Status::Feasible);
    assert_eq!((sol.nodes, sol.lp_iters), (0, 0));
    assert!(sol.warm_start_only);
    let kinds: Vec<&str> = trace.events.iter().map(Event::kind).collect();
    assert_eq!(
        kinds,
        [
            "span-start",
            "seed-accepted",
            "seed-rejected",
            "solver-counters",
            "solve-done",
            "span-end"
        ]
    );
    assert_eq!(trace.solve_done(), Some(("feasible", 0, 0)));
}
