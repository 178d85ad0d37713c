//! Idle engines park: once a run is over, the worker threads sleep in
//! their channels instead of polling forever. Kept alone in its own test
//! binary, so no other engine's threads run in the process.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::time::Duration;

use dps_life::{run_life_scheduled, LifeConfig, Variant, World};
use dps_mt::MtEngine;
use dps_sched::{Distribution, PolicyKind};

/// Voluntary context switches and CPU ticks (utime + stime) of one thread.
#[derive(Debug, Clone, Copy)]
struct Usage {
    voluntary: u64,
    ticks: u64,
}

/// Usage of every engine worker thread (named `dps-…`), keyed by tid.
fn worker_usage() -> HashMap<String, Usage> {
    let mut out = HashMap::new();
    for entry in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = entry.unwrap().path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.starts_with("dps-") {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).unwrap();
        let voluntary = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches in status");
        // Fields after the parenthesised name: state is field 3, utime 14
        // and stime 15 (proc(5)).
        let stat = std::fs::read_to_string(dir.join("stat")).unwrap();
        let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
        let ticks = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        let tid = dir.file_name().unwrap().to_string_lossy().into_owned();
        out.insert(tid, Usage { voluntary, ticks });
    }
    out
}

#[test]
fn idle_workers_park() {
    let cfg = LifeConfig {
        rows: 32,
        cols: 32,
        iterations: 50,
        variant: Variant::Simple,
        nodes: 2,
        threads_per_node: 1,
        density: 0.35,
        seed: 5,
        dist: Distribution::Scheduled(PolicyKind::Fac),
    };
    let mut eng = MtEngine::new(2);
    let rep = run_life_scheduled(&mut eng, &cfg, PolicyKind::Fac).unwrap();
    assert_eq!(
        rep.world,
        World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed).step_n(cfg.iterations)
    );
    let before = worker_usage();
    assert!(!before.is_empty(), "no dps-* worker threads found");
    std::thread::sleep(Duration::from_millis(300));
    let after = worker_usage();
    for (tid, b) in &before {
        let a = after[tid];
        assert!(
            a.voluntary - b.voluntary <= 2,
            "idle worker {tid} woke {} times in 300 ms",
            a.voluntary - b.voluntary
        );
        assert!(
            a.ticks - b.ticks <= 1,
            "idle worker {tid} used {} CPU ticks in 300 ms",
            a.ticks - b.ticks
        );
    }
    eng.shutdown();
}
