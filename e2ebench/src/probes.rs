//! Per-layer probes: each times calls into one layer's public functions
//! from outside and checks what they returned.
//!
//! Every probe reports the median of several trials. A probe whose result
//! is wrong returns `Err`, which the run counts as a failed operation.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use dps_core::dps_token;
use dps_core::prelude::{
    downcast, DpsError, Engine, GraphBuilder, LeafOperation, MergeOperation, OpCtx, RoundRobin,
    SplitOperation, ThreadCollection, ToThread, TokenBox,
};
use dps_life::World;
use dps_linalg::kernel::{gemm_blocked, gemm_scalar};
use dps_linalg::parallel::lu::run_lu;
use dps_linalg::{blocked_lu, panel_lu, Matrix};
use dps_mt::MtEngine;
use dps_netengine::{Duplex, NetEngine, TcpTransport, Transport};
use dps_sched::{ChunkCalc, ChunkHub, FeedbackBoard, FeedbackSink, PolicyKind};
use dps_serial::Buffer;

use crate::stats::median;
use crate::workload::{
    lu_bit_equal, lu_config, tcp_engine, Reference, Workload, LIFE_DENSITY, LIFE_EDGE, LU_N, LU_R,
    WORKERS,
};

/// Result of one probe.
pub type Probe = Result<f64, String>;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn median_of(trials: usize, mut f: impl FnMut() -> Probe) -> Probe {
    let v = (0..trials).map(|_| f()).collect::<Result<Vec<_>, _>>()?;
    Ok(median(&v))
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what}: wrong result"))
    }
}

// --- dps-linalg -------------------------------------------------------------

/// Rows of the trailing-update gemm probe: the median tail of the LU.
const UPDATE_ROWS: usize = LU_N / 2;

/// `kernel.serial_lu_s`: `blocked_lu` on the workload's matrix, seconds.
pub fn serial_lu_s(seed: u64) -> Probe {
    let a = Matrix::random_general(LU_N, LU_N, seed);
    median_of(3, || {
        let t = Instant::now();
        black_box(blocked_lu(&a, LU_R));
        Ok(secs(t))
    })
}

/// GFLOP/s of `kernel` on the `m×r · r×r` trailing update `C −= A·B`.
fn update_gflops(seed: u64, kernel: fn(f64, &Matrix, &Matrix, f64, &mut Matrix)) -> Probe {
    let a = Matrix::random_general(UPDATE_ROWS, LU_R, seed);
    let b = Matrix::random_general(LU_R, LU_R, seed ^ 1);
    let flops = 2.0 * (UPDATE_ROWS * LU_R * LU_R) as f64;
    let calls = 100;
    median_of(7, || {
        let mut c = Matrix::random_general(UPDATE_ROWS, LU_R, seed ^ 2);
        let t = Instant::now();
        for _ in 0..calls {
            kernel(-1.0, &a, &b, 1.0, &mut c);
        }
        black_box(&c);
        Ok(flops * calls as f64 / secs(t) / 1e9)
    })
}

/// `kernel.update_gemm_gflops` (packed `gemm_blocked`) and
/// `kernel.update_gemm_ikj_gflops` (`gemm_scalar`). The two kernels must
/// agree bit for bit on the update.
pub fn update_gemm_gflops(seed: u64) -> Result<(f64, f64), String> {
    let a = Matrix::random_general(UPDATE_ROWS, LU_R, seed);
    let b = Matrix::random_general(LU_R, LU_R, seed ^ 1);
    let mut c1 = Matrix::random_general(UPDATE_ROWS, LU_R, seed ^ 2);
    let mut c2 = c1.clone();
    gemm_blocked(-1.0, &a, &b, 1.0, &mut c1);
    gemm_scalar(-1.0, &a, &b, 1.0, &mut c2);
    let same = c1
        .as_slice()
        .iter()
        .zip(c2.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    ensure(same, "gemm_blocked vs gemm_scalar")?;
    Ok((
        update_gflops(seed, gemm_blocked)?,
        update_gflops(seed, gemm_scalar)?,
    ))
}

/// `kernel.panel_lu_us`: `panel_lu` on one `n×r` panel, microseconds.
pub fn panel_lu_us(seed: u64) -> Probe {
    let panel = Matrix::random_general(LU_N, LU_R, seed);
    median_of(31, || {
        let mut p = panel.clone();
        let t = Instant::now();
        black_box(panel_lu(&mut p));
        Ok(secs(t) * 1e6)
    })
}

// --- dps-life ---------------------------------------------------------------

/// `life.serial_step_us`: one `World::step_n` generation of the 64×64
/// world, microseconds.
pub fn life_step_us(seed: u64) -> Probe {
    let world = World::random(LIFE_EDGE, LIFE_EDGE, LIFE_DENSITY, seed);
    let gens = 200;
    median_of(7, || {
        let t = Instant::now();
        black_box(world.step_n(gens));
        Ok(secs(t) * 1e6 / gens as f64)
    })
}

// --- dps-sched --------------------------------------------------------------

/// Chunks per claim trial: self-scheduling hands out one iteration each.
const CLAIMS: u64 = 1 << 20;

fn ss_lease(hub: &ChunkHub) -> u64 {
    hub.open(ChunkCalc::new(PolicyKind::Ss, CLAIMS, 1, &[])).id
}

/// `sched.hub_claim_ns`: one uncontended `ChunkHub::claim`, nanoseconds.
pub fn hub_claim_ns() -> Probe {
    median_of(5, || {
        let hub = ChunkHub::new();
        let id = ss_lease(&hub);
        let t = Instant::now();
        let mut n = 0u64;
        while let Some(c) = hub.claim(id) {
            black_box(c);
            n += 1;
        }
        let ns = secs(t) * 1e9 / n.max(1) as f64;
        ensure(n == CLAIMS, "ChunkHub claim count")?;
        Ok(ns)
    })
}

/// `sched.hub_claim_2t_ns`: `ChunkHub::claim` with two threads draining
/// one lease, wall nanoseconds per claim per thread.
pub fn hub_claim_2t_ns() -> Probe {
    median_of(5, || {
        let hub = Arc::new(ChunkHub::new());
        let id = ss_lease(&hub);
        let start = Arc::new(Barrier::new(3));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (hub, start) = (Arc::clone(&hub), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let mut n = 0u64;
                    while let Some(c) = hub.claim(id) {
                        black_box(c);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        start.wait();
        let t = Instant::now();
        let n: u64 = threads.into_iter().map(|h| h.join().unwrap_or(0)).sum();
        let ns = secs(t) * 1e9 * 2.0 / n.max(1) as f64;
        ensure(n == CLAIMS, "contended ChunkHub claim count")?;
        Ok(ns)
    })
}

/// `sched.feedback_report_ns`: one `FeedbackBoard::report_chunk` (the
/// sink the Life workload's FAC policy reads), nanoseconds.
pub fn feedback_report_ns() -> Probe {
    let reports = 200_000u32;
    median_of(5, || {
        let board = FeedbackBoard::for_policy(PolicyKind::Fac);
        let t = Instant::now();
        for i in 0..reports {
            board.report_chunk((i % WORKERS as u32) as usize, 5, 1e-5);
        }
        let ns = secs(t) * 1e9 / f64::from(reports);
        ensure(
            board.total_chunks() == u64::from(reports),
            "feedback chunk total",
        )?;
        Ok(ns)
    })
}

// --- dps-core + dps-mt / dps-netengine dispatch -------------------------------

dps_token! {
    /// Probe request.
    pub struct Ping { pub seq: u64 }
}
dps_token! {
    /// Probe reply.
    pub struct Pong { pub seq: u64 }
}
dps_token! {
    /// Fan-out request: post this many items.
    pub struct Fan { pub items: u32 }
}
dps_token! {
    /// One fanned-out item.
    pub struct Item { pub i: u32 }
}
dps_token! {
    /// Merged item count and index sum.
    pub struct Tally { pub count: u32, pub sum: u64 }
}

struct Echo;
impl LeafOperation for Echo {
    type Thread = ();
    type In = Ping;
    type Out = Pong;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Pong>, p: Ping) {
        ctx.post(Pong { seq: p.seq });
    }
}

struct FanOut;
impl SplitOperation for FanOut {
    type Thread = ();
    type In = Fan;
    type Out = Item;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, f: Fan) {
        for i in 0..f.items {
            ctx.post(Item { i });
        }
    }
}

struct Pass;
impl LeafOperation for Pass {
    type Thread = ();
    type In = Item;
    type Out = Item;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, it: Item) {
        ctx.post(it);
    }
}

#[derive(Default)]
struct Count {
    count: u32,
    sum: u64,
}
impl MergeOperation for Count {
    type Thread = ();
    type In = Item;
    type Out = Tally;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Tally>, it: Item) {
        self.count += 1;
        self.sum += u64::from(it.i);
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Tally>) {
        ctx.post(Tally {
            count: self.count,
            sum: self.sum,
        });
    }
}

/// Untimed waves before a wave probe measures (thread start-up, first
/// allocations, the net declaration barrier).
const WARM_WAVES: u32 = 5;
/// Timed 1-token waves.
const ECHO_WAVES: u32 = 300;
/// Timed fan-out waves.
const FAN_WAVES: u32 = 12;
/// Tokens per fan-out wave.
const FAN_ITEMS: u32 = 1000;

fn dps_err(e: DpsError) -> String {
    format!("DpsError: {e}")
}

/// Declare the two dispatch probe graphs before any run (engines that
/// declare before running require it): a 1-token echo leaf on `echo_at`,
/// and split → leaf (on `leaves_at`) → merge for the fan-out.
fn declare_dispatch<E: Engine>(
    eng: &mut E,
    echo_at: &str,
    leaves_at: &str,
) -> Result<(E::Graph, E::Graph), String> {
    let app = eng.app("probe-dispatch");
    let echo: ThreadCollection<()> = eng
        .thread_collection(app, "echo", echo_at)
        .map_err(dps_err)?;
    let main: ThreadCollection<()> = eng
        .thread_collection(app, "main", "node0")
        .map_err(dps_err)?;
    let leaves: ThreadCollection<()> = eng
        .thread_collection(app, "leaves", leaves_at)
        .map_err(dps_err)?;
    let mut b = GraphBuilder::new("probe-echo");
    let _ = b.leaf(&echo, || ToThread(0), || Echo);
    let echo = eng.build_graph(b).map_err(dps_err)?;
    let mut b = GraphBuilder::new("probe-fan");
    let s = b.split(&main, || ToThread(0), || FanOut);
    let l = b.leaf(&leaves, RoundRobin::new, || Pass);
    let m = b.merge(&main, || ToThread(0), Count::default);
    b.add(s >> l >> m);
    let fan = eng.build_graph(b).map_err(dps_err)?;
    Ok((echo, fan))
}

/// Run `warm + timed` one-output waves of `graph`, each seeded by `input`:
/// seconds from submit to outputs of the timed ones. SPMD: net worker roles
/// make the same calls (their timings are discarded), so outputs are
/// checked only where `check` is set.
fn waves<E: Engine>(
    eng: &mut E,
    graph: E::Graph,
    warm: u32,
    timed: u32,
    input: impl Fn(u32) -> TokenBox,
    check: Option<&dyn Fn(u32, TokenBox) -> bool>,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for i in 0..warm + timed {
        let t = Instant::now();
        eng.submit(graph, input(i)).map_err(dps_err)?;
        eng.run_to_idle(graph, 1).map_err(dps_err)?;
        let outs = eng.take_outputs(graph);
        let dt = secs(t);
        if let Some(check) = check {
            let got = outs.into_iter().next();
            ensure(got.is_some_and(|o| check(i, o)), "probe wave output")?;
        }
        if i >= warm {
            out.push(dt);
        }
    }
    Ok(out)
}

/// Per-wave seconds of the echo graph and per-token seconds of the fan-out
/// graph (see [`declare_dispatch`]).
fn dispatch_body<E: Engine>(
    eng: &mut E,
    echo_at: &str,
    leaves_at: &str,
    check: bool,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (echo, fan) = declare_dispatch(eng, echo_at, leaves_at)?;
    let echo_ok = |i: u32, o: TokenBox| downcast::<Pong>(o).is_ok_and(|p| p.seq == u64::from(i));
    let sum = u64::from(FAN_ITEMS) * u64::from(FAN_ITEMS - 1) / 2;
    let fan_ok = |_: u32, o: TokenBox| {
        downcast::<Tally>(o).is_ok_and(|t| t.count == FAN_ITEMS && t.sum == sum)
    };
    let wave = waves(
        eng,
        echo,
        WARM_WAVES,
        ECHO_WAVES,
        |i| Box::new(Ping { seq: u64::from(i) }),
        check.then_some(&echo_ok as &dyn Fn(u32, TokenBox) -> bool),
    )?;
    let token = waves(
        eng,
        fan,
        2,
        FAN_WAVES,
        |_| Box::new(Fan { items: FAN_ITEMS }),
        check.then_some(&fan_ok as &dyn Fn(u32, TokenBox) -> bool),
    )?;
    let per_token = token.iter().map(|t| t / f64::from(FAN_ITEMS)).collect();
    Ok((wave, per_token))
}

/// `dispatch.mt_wave_us` and `dispatch.mt_token_us` on `MtEngine`: the
/// echo leaf on node0, the fan-out leaves on both nodes.
pub fn mt_dispatch_us() -> Result<(f64, f64), String> {
    let mut eng = MtEngine::new(WORKERS);
    let out = dispatch_body(&mut eng, "node0", "node0 node1", true);
    eng.shutdown();
    let (wave, token) = out?;
    Ok((median(&wave) * 1e6, median(&token) * 1e6))
}

/// Worker-process arguments of the net dispatch probes.
const NET_PROBE_ARGS: [&str; 2] = ["--net-worker", "dispatch"];

/// `net.exec_rtt_us` and `net.token_us` over TCP with one worker process:
/// every leaf runs on the worker (node1).
pub fn net_dispatch_us() -> Result<(f64, f64), String> {
    let mut eng = tcp_engine(NET_PROBE_ARGS.map(String::from).to_vec())?;
    let out = dispatch_body(&mut eng, "node1", "node1", true);
    eng.shutdown();
    let (wave, token) = out?;
    Ok((median(&wave) * 1e6, median(&token) * 1e6))
}

/// The worker-process side of [`net_dispatch_us`].
pub fn net_dispatch_worker() -> Result<(), String> {
    let mut eng = tcp_engine(Vec::new())?;
    let out = dispatch_body(&mut eng, "node1", "node1", false);
    eng.shutdown();
    out.map(|_| ())
}

/// `net.loopback_makespan_s`: the workload LU on `NetEngine::loopback`,
/// checked against the reference.
pub fn net_loopback_makespan_s(seed: u64, reference: &Reference) -> Probe {
    let Reference::Lu(expect) = reference else {
        // Non-LU workloads carry a Life reference; compute the LU one.
        return net_loopback_makespan_s(seed, &Reference::of(Workload::LuMt, seed));
    };
    let cfg = lu_config(seed);
    median_of(3, || {
        let mut eng = NetEngine::loopback(WORKERS);
        let rep = run_lu(&mut eng, &cfg);
        eng.shutdown();
        let rep = rep.map_err(dps_err)?;
        ensure(lu_bit_equal(&rep.factors, expect), "loopback LU factors")?;
        Ok(rep.elapsed.as_secs_f64())
    })
}

// --- transport + dps-serial ----------------------------------------------------

fn tcp_pair() -> Result<(Duplex, Duplex), String> {
    let io = |e: std::io::Error| format!("tcp: {e}");
    let (addr, mut acceptor) = TcpTransport.bind().map_err(io)?;
    let server = std::thread::spawn(move || acceptor.accept());
    let client = TcpTransport.connect(&addr).map_err(io)?;
    let server = server
        .join()
        .map_err(|_| "tcp accept thread panicked".to_string())?
        .map_err(io)?;
    Ok((client, server))
}

/// `transport.tcp_rtt_us`: a 64-byte frame echoed over `TcpTransport`,
/// microseconds per round trip.
pub fn tcp_rtt_us() -> Probe {
    let (mut client, mut server) = tcp_pair()?;
    let echo = std::thread::spawn(move || {
        while let Ok(frame) = server.rx.recv() {
            if server.tx.send(&frame).is_err() {
                break;
            }
        }
    });
    let frame = [0xA5u8; 64];
    let round_trips = 200;
    let out = median_of(11, || {
        let t = Instant::now();
        for _ in 0..round_trips {
            client.tx.send(&frame).map_err(|e| e.to_string())?;
            let back = client.rx.recv().map_err(|e| e.to_string())?;
            ensure(back == frame, "tcp echo")?;
        }
        Ok(secs(t) * 1e6 / f64::from(round_trips))
    });
    drop(client);
    echo.join()
        .map_err(|_| "tcp echo thread panicked".to_string())?;
    out
}

/// Bytes of one panel frame: an `n×r` block of `f64`.
const PANEL_BYTES: usize = LU_N * LU_R * 8;

/// `transport.tcp_gbps`: one-way throughput of panel-sized frames over
/// `TcpTransport`, Gbit/s.
pub fn tcp_gbps() -> Probe {
    let (mut client, mut server) = tcp_pair()?;
    let frames = 64;
    let sink = std::thread::spawn(move || loop {
        let mut ok = true;
        for _ in 0..frames {
            match server.rx.recv() {
                Ok(f) => ok &= f.len() == PANEL_BYTES,
                Err(_) => return,
            }
        }
        if server.tx.send(&[u8::from(ok)]).is_err() {
            return;
        }
    });
    let frame = vec![0x5Au8; PANEL_BYTES];
    let out = median_of(5, || {
        let t = Instant::now();
        for _ in 0..frames {
            client.tx.send(&frame).map_err(|e| e.to_string())?;
        }
        let ack = client.rx.recv().map_err(|e| e.to_string())?;
        let dt = secs(t);
        ensure(ack == [1], "tcp frame sizes")?;
        Ok((frames * PANEL_BYTES * 8) as f64 / dt / 1e9)
    });
    drop(client);
    sink.join()
        .map_err(|_| "tcp sink thread panicked".to_string())?;
    out
}

dps_token! {
    /// A panel-sized token: one `n×r` block column.
    pub struct PanelTok { pub j: u32, pub rows: u32, pub data: Buffer<f64> }
}
dps_token! {
    /// A ticket-sized token: an update ticket's fields.
    pub struct TicketTok { pub j: u32, pub k: u32, pub lease: u64, pub chunks: u32 }
}

/// `serial.panel_encode_gbps` and `serial.panel_decode_gbps`:
/// `dps_serial::to_bytes` / `from_bytes` of a panel token, Gbit/s of
/// encoded bytes.
pub fn panel_serial_gbps(seed: u64) -> Result<(f64, f64), String> {
    let tok = PanelTok {
        j: 3,
        rows: LU_N as u32,
        data: Matrix::random_general(LU_N, LU_R, seed).into_vec().into(),
    };
    let bytes = dps_serial::to_bytes(&tok);
    let back: PanelTok = dps_serial::from_bytes(&bytes).map_err(|e| format!("decode: {e}"))?;
    ensure(back == tok, "panel token round trip")?;
    let bits = (bytes.len() * 8) as f64;
    let reps = 20;
    let enc = median_of(7, || {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(dps_serial::to_bytes(black_box(&tok)));
        }
        Ok(bits * reps as f64 / secs(t) / 1e9)
    })?;
    let dec = median_of(7, || {
        let t = Instant::now();
        for _ in 0..reps {
            let d: Result<PanelTok, _> = dps_serial::from_bytes(black_box(&bytes));
            black_box(d.map_err(|e| e.to_string())?);
        }
        Ok(bits * reps as f64 / secs(t) / 1e9)
    })?;
    Ok((enc, dec))
}

/// `serial.small_token_ns`: encode + decode of a ticket-sized token,
/// nanoseconds.
pub fn small_token_ns() -> Probe {
    let tok = TicketTok {
        j: 7,
        k: 2,
        lease: 40_123,
        chunks: 4,
    };
    let back: TicketTok =
        dps_serial::from_bytes(&dps_serial::to_bytes(&tok)).map_err(|e| format!("decode: {e}"))?;
    ensure(back == tok, "ticket token round trip")?;
    let reps = 100_000u32;
    median_of(7, || {
        let t = Instant::now();
        for _ in 0..reps {
            let bytes = dps_serial::to_bytes(black_box(&tok));
            let d: Result<TicketTok, _> = dps_serial::from_bytes(&bytes);
            black_box(d.map_err(|e| e.to_string())?);
        }
        Ok(secs(t) * 1e9 / f64::from(reps))
    })
}
