//! The three workloads, one timed repetition of each, and the correctness
//! gate every repetition passes through.

use std::sync::Arc;
use std::time::Instant;

use dps_core::Engine;
use dps_life::{run_life_scheduled, LifeConfig, Variant, World};
use dps_linalg::parallel::lu::{run_lu, LuConfig};
use dps_linalg::{blocked_lu, LuFactors, Matrix};
use dps_mt::MtEngine;
use dps_netengine::{NetEngine, NetEngineConfig};
use dps_obs::TraceCollector;
use dps_sched::{Distribution, PolicyKind};

use crate::stats::{median, tail_quantile};

/// Workers per engine: one per core of the 2-core reference host.
pub const WORKERS: usize = 2;
/// LU matrix order.
pub const LU_N: usize = 1024;
/// LU block size.
pub const LU_R: usize = 32;
/// Sub-column chunks per trailing update.
pub const LU_UPDATE_CHUNKS: u32 = 4;
/// Life world edge (square world).
pub const LIFE_EDGE: usize = 64;
/// Life generations per repetition.
pub const LIFE_GENERATIONS: usize = 2000;
/// Initial Life density.
pub const LIFE_DENSITY: f64 = 0.35;
/// Loop-scheduling policy of the Life workload.
pub const LIFE_POLICY: PolicyKind = PolicyKind::Fac;

/// A benchmark workload (see `e2ebench/README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Chunked block LU on `MtEngine`.
    LuMt,
    /// The same LU on `NetEngine` with one worker process over TCP.
    LuTcp,
    /// Scheduled Life, fine-grained, on `MtEngine`.
    LifeFineMt,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::LuMt, Workload::LuTcp, Workload::LifeFineMt];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LuMt => "lu-mt",
            Workload::LuTcp => "lu-tcp",
            Workload::LifeFineMt => "life-fine-mt",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The engine the workload runs on.
    pub fn engine(self) -> &'static str {
        match self {
            Workload::LuMt | Workload::LifeFineMt => "mt",
            Workload::LuTcp => "net-tcp",
        }
    }

    /// The generated inputs, as a JSON object body.
    pub fn inputs_json(self, seed: u64) -> String {
        let common = format!(
            "\"engine\": \"{}\", \"workers\": {WORKERS}, \"seed\": {seed}",
            self.engine()
        );
        match self {
            Workload::LuMt | Workload::LuTcp => format!(
                "{common}, \"n\": {LU_N}, \"r\": {LU_R}, \"update_chunks\": {LU_UPDATE_CHUNKS}, \
                 \"dist\": \"static\", \"pipelined\": true, \"matrix\": \"random_general\""
            ),
            Workload::LifeFineMt => format!(
                "{common}, \"rows\": {LIFE_EDGE}, \"cols\": {LIFE_EDGE}, \"generations\": \
                 {LIFE_GENERATIONS}, \"density\": {LIFE_DENSITY}, \"policy\": \"{LIFE_POLICY:?}\""
            ),
        }
    }
}

/// The LU configuration of both LU workloads.
pub fn lu_config(seed: u64) -> LuConfig {
    LuConfig {
        n: LU_N,
        r: LU_R,
        pipelined: true,
        seed,
        nodes: WORKERS,
        threads_per_node: 1,
        dist: Distribution::Static,
        update_chunks: LU_UPDATE_CHUNKS,
    }
}

/// The Life configuration of `life-fine-mt`.
pub fn life_config(seed: u64) -> LifeConfig {
    LifeConfig {
        rows: LIFE_EDGE,
        cols: LIFE_EDGE,
        iterations: LIFE_GENERATIONS,
        variant: Variant::Simple,
        nodes: WORKERS,
        threads_per_node: 1,
        density: LIFE_DENSITY,
        seed,
        dist: Distribution::Scheduled(LIFE_POLICY),
    }
}

/// The sequential result every repetition must reproduce exactly.
pub enum Reference {
    /// `blocked_lu` of the workload's matrix.
    Lu(LuFactors),
    /// `World::step_n` of the workload's world.
    Life(World),
}

impl Reference {
    /// Compute the reference of `w` at `seed` (untimed).
    pub fn of(w: Workload, seed: u64) -> Self {
        match w {
            Workload::LuMt | Workload::LuTcp => {
                Reference::Lu(blocked_lu(&Matrix::random_general(LU_N, LU_N, seed), LU_R))
            }
            Workload::LifeFineMt => Reference::Life(
                World::random(LIFE_EDGE, LIFE_EDGE, LIFE_DENSITY, seed).step_n(LIFE_GENERATIONS),
            ),
        }
    }
}

/// Bit-for-bit equality of two LU factorizations.
pub fn lu_bit_equal(a: &LuFactors, b: &LuFactors) -> bool {
    a.pivots == b.pivots
        && a.lu.rows() == b.lu.rows()
        && a.lu.cols() == b.lu.cols()
        && a.lu
            .as_slice()
            .iter()
            .zip(b.lu.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Timings of one passed repetition, in seconds.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Driver-reported solve time.
    pub makespan: f64,
    /// Engine construction (threads, or process spawn and connect).
    pub engine: f64,
    /// Wall time of the workload call outside the solve: declarations, the
    /// sync barrier, staging, gather.
    pub driver: f64,
    /// `shutdown()` wall time.
    pub teardown: f64,
    /// Median step latency of this repetition.
    pub step_p50: f64,
    /// p99 step latency of this repetition ([`tail_quantile`]).
    pub step_p99: f64,
    /// Step samples behind the two quantiles.
    pub steps: usize,
}

impl Rep {
    /// Wall time outside the solve: construction plus the workload call,
    /// minus the makespan.
    pub fn setup(&self) -> f64 {
        self.engine + self.driver
    }
}

/// Engines the benchmark constructs and tears down per repetition.
trait Owned: Engine {
    fn teardown(&mut self);
}

impl Owned for MtEngine {
    fn teardown(&mut self) {
        self.shutdown();
    }
}

impl Owned for NetEngine {
    fn teardown(&mut self) {
        self.shutdown();
    }
}

/// Construct an engine, attach `trace`, drive it, shut it down; return the
/// three wall times and the workload's result. The engine is shut down even
/// when the workload failed.
fn timed<E: Owned, R>(
    make: impl FnOnce() -> Result<E, String>,
    trace: Option<&Arc<TraceCollector>>,
    drive: impl FnOnce(&mut E) -> dps_core::Result<R>,
) -> Result<(f64, f64, f64, R), String> {
    let t0 = Instant::now();
    let mut eng = make()?;
    if let Some(c) = trace {
        eng.set_trace_sink(Arc::clone(c));
    }
    let engine = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let out = drive(&mut eng);
    let driver = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    eng.teardown();
    let teardown = t2.elapsed().as_secs_f64();
    let out = out.map_err(|e| format!("DpsError: {e}"))?;
    Ok((engine, driver, teardown, out))
}

/// Worker-process arguments of a `NetEngine` LU repetition.
fn lu_worker_args(seed: u64, traced: bool) -> Vec<String> {
    vec![
        "--net-worker".into(),
        "lu".into(),
        seed.to_string(),
        u8::from(traced).to_string(),
    ]
}

/// A TCP `NetEngine` of [`WORKERS`] nodes whose worker processes re-enter
/// this binary with `worker_args`.
pub fn tcp_engine(worker_args: Vec<String>) -> Result<NetEngine, String> {
    let cfg = NetEngineConfig {
        worker_args: Some(worker_args),
        ..NetEngineConfig::default()
    };
    NetEngine::from_env(WORKERS, cfg).map_err(|e| format!("net engine setup: {e}"))
}

/// The worker-process side of a `lu-tcp` repetition: the same SPMD
/// `run_lu` call against the worker role of the engine.
pub fn lu_worker(seed: u64, traced: bool) -> Result<(), String> {
    let mut eng = tcp_engine(Vec::new())?;
    if traced {
        eng.set_trace_sink(TraceCollector::new());
    }
    let out = run_lu(&mut eng, &lu_config(seed));
    eng.shutdown();
    out.map(|_| ()).map_err(|e| format!("DpsError: {e}"))
}

/// One repetition of `w`: construct, drive, shut down, check the result
/// against `reference`. A mismatch or a `DpsError` is an `Err`.
///
/// A step is one Life generation (`per_iter`). The LU's block-column steps
/// are not observable from outside, so its one step sample is the mean
/// step, `makespan / (n / r)`.
pub fn run_rep(
    w: Workload,
    seed: u64,
    reference: &Reference,
    trace: Option<&Arc<TraceCollector>>,
) -> Result<Rep, String> {
    let (engine, driver, teardown, makespan, steps) = match (w, reference) {
        (Workload::LuMt | Workload::LuTcp, Reference::Lu(expect)) => {
            let cfg = lu_config(seed);
            let (engine, driver, teardown, rep) = if w == Workload::LuMt {
                timed(
                    || Ok(MtEngine::new(WORKERS)),
                    trace,
                    |eng: &mut MtEngine| run_lu(eng, &cfg),
                )?
            } else {
                let args = lu_worker_args(seed, trace.is_some());
                timed(
                    || tcp_engine(args),
                    trace,
                    |eng: &mut NetEngine| run_lu(eng, &cfg),
                )?
            };
            if !lu_bit_equal(&rep.factors, expect) {
                return Err("LU factors or pivots differ from blocked_lu".into());
            }
            let makespan = rep.elapsed.as_secs_f64();
            let step = makespan / (LU_N / LU_R) as f64;
            (engine, driver, teardown, makespan, vec![step])
        }
        (Workload::LifeFineMt, Reference::Life(expect)) => {
            let cfg = life_config(seed);
            let (engine, driver, teardown, rep) = timed(
                || Ok(MtEngine::new(WORKERS)),
                trace,
                |eng| run_life_scheduled(eng, &cfg, LIFE_POLICY),
            )?;
            if rep.world != *expect {
                return Err("Life world differs from World::step_n".into());
            }
            let steps = rep.per_iter.iter().map(|s| s.as_secs_f64()).collect();
            (engine, driver, teardown, rep.elapsed.as_secs_f64(), steps)
        }
        _ => unreachable!("reference computed for another workload"),
    };
    Ok(Rep {
        makespan,
        engine,
        driver: driver - makespan,
        teardown,
        step_p50: median(&steps),
        step_p99: tail_quantile(&steps, 0.99).0,
        steps: steps.len(),
    })
}
