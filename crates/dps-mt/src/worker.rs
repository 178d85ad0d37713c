//! Worker threads: one OS thread per DPS thread, driving operations from a
//! token queue — the paper's macro data flow execution.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dps_sched::FeedbackSink;

use crossbeam::channel::{Receiver, Sender};
use crossbeam::utils::CachePadded;
use dps_core::internal::wave::{exit, CallReturn, Exit, Flow, WaveCount};
use dps_core::internal::{DynOp, DynRoute, ExecInfo, OpOutput};
use dps_core::{
    wire_roundtrip, DpsError, Envelope, Flowgraph, GNodeId, OpKind, RouteInfo, Token, TokenBox,
    TokenRegistry, WaveKey,
};
use dps_obs::{Counter, EventKind, Gauge, LabelId, TraceCollector, TraceWriter};
use parking_lot::Mutex;

use crate::remote::{remote_for, RemoteExec, RemoteKind, RemoteTask};

/// Message to a worker thread.
pub(crate) enum Msg {
    /// Process a token at a graph node — or, as `Err(total)`, a wave
    /// close: the producer of the wave identified by `env` finished after
    /// its final data object was already in flight; `total` is the wave
    /// size.
    Deliver {
        graph: u32,
        node: GNodeId,
        token: Result<TokenBox, u32>,
        env: Envelope,
    },
    /// Terminate the worker.
    Stop,
    /// Wakeup after the worker's node was marked dead (`fail_node`): the
    /// worker re-checks the dead set and enters tombstone mode. Sent *raw*
    /// on the channel (never through [`SharedTc::enqueue`]), so it is not
    /// counted in the thread's backlog and must not decrement it.
    Fail,
}

/// What the workers tell the run driver, over one channel, so a waiting
/// driver wakes for whichever comes first.
pub(crate) enum ToDriver {
    /// A token left graph `graph` of application `app`.
    Output {
        app: u32,
        graph: u32,
        token: TokenBox,
    },
    /// A runtime error surfaced on a worker.
    Error(DpsError),
}

pub(crate) struct SharedTc {
    pub nodes: Vec<u32>,
    pub senders: Vec<Sender<Msg>>,
    /// Live per-thread backlog (messages sent and not yet fully processed)
    /// — the load signal for `LeastLoaded`/`ChunkRoute` routing and the
    /// AWF feedback loop on real OS threads. Each counter is padded to its
    /// own cache line: every delivery bumps exactly one thread's counter,
    /// and unpadded neighbours would drag every other thread's line along
    /// (false sharing on the per-delivery hot path).
    pub queued: Vec<CachePadded<AtomicU32>>,
    /// Metrics registry of the attached trace sink (None = no accounting).
    pub metrics: Option<Arc<dps_obs::MetricsRegistry>>,
}

impl SharedTc {
    fn enqueue(&self, thread: usize, msg: Msg) {
        let depth = self.queued[thread].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(m) = &self.metrics {
            m.add(Counter::TokensEnqueued, 1);
            m.gauge_max(Gauge::QueueDepthPeak, depth as u64);
        }
        if self.senders[thread].send(msg).is_err() {
            // Worker already stopped (shutdown path): roll the count back.
            self.queued[thread].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Per-thread backlog with dead-node awareness: threads hosted on a
    /// failed node report infinite load, so load-aware routes
    /// (`LeastLoaded`, `ChunkRoute`) shed their work to live threads —
    /// the same signal shape the simulator's `fail_node` produces.
    fn load_snapshot(&self, dead: &[AtomicBool]) -> Vec<u32> {
        self.queued
            .iter()
            .zip(&self.nodes)
            .map(|(q, &n)| {
                if dead
                    .get(n as usize)
                    .is_some_and(|d| d.load(Ordering::Acquire))
                {
                    u32::MAX
                } else {
                    q.load(Ordering::Relaxed)
                }
            })
            .collect()
    }
}

pub(crate) struct MtFlow {
    flow: Flow<TokenBox>,
    /// Cluster node the posts leave from.
    src_node: u32,
}

/// One graph node's installed route. Stateless routes (declared via
/// [`Route::STATELESS`](dps_core::Route::STATELESS)) are shared across the
/// delivery threads and called through `&self` — no per-delivery lock;
/// stateful routes (round-robin counters and friends) keep the mutex.
pub(crate) enum RouteCell {
    Stateless(Box<dyn DynRoute>),
    Stateful(Mutex<Box<dyn DynRoute>>),
}

impl RouteCell {
    pub(crate) fn install(route: Box<dyn DynRoute>) -> Self {
        if route.is_stateless() {
            RouteCell::Stateless(route)
        } else {
            RouteCell::Stateful(Mutex::new(route))
        }
    }

    fn route(
        &self,
        token: &dyn Token,
        info: &RouteInfo<'_>,
        node_name: &str,
    ) -> dps_core::Result<usize> {
        match self {
            RouteCell::Stateless(r) => r.route_dyn_shared(token, info, node_name),
            RouteCell::Stateful(m) => m.lock().route_dyn(token, info, node_name),
        }
    }
}

pub(crate) struct SharedGraph {
    pub routes: Vec<RouteCell>,
    pub wave_threads: Mutex<HashMap<WaveKey, u32>>,
    pub flows: Mutex<HashMap<(u32, u64), MtFlow>>,
    /// Wave totals whose waves have not been routed to a thread yet.
    pub pending_closes: Mutex<HashMap<WaveKey, u32>>,
}

pub(crate) struct SharedApp {
    pub tcs: Vec<SharedTc>,
    pub graphs: Vec<SharedGraph>,
}

pub(crate) struct Shared {
    pub flow_window: u32,
    pub enforce_serialization: bool,
    pub apps: Vec<SharedApp>,
    /// Declared application names, surfaced in runtime error messages
    /// (matching `SimEngine::app` semantics).
    pub app_names: Vec<String>,
    pub defs: Vec<Vec<Arc<Flowgraph>>>,
    pub registries: Vec<TokenRegistry>,
    pub services: HashMap<String, (u32, u32)>,
    pub wave_counter: AtomicU64,
    pub call_counter: AtomicU64,
    pub pending_calls: Mutex<HashMap<u64, CallReturn>>,
    pub driver_tx: Sender<ToDriver>,
    /// Chunk-completion reports (wall-clock) go here, if registered — the
    /// dynamic loop-scheduling feedback channel (`dps-sched`).
    pub feedback: Option<Arc<dyn FeedbackSink>>,
    /// Calibrated host compute rate (FLOP/s) for `charge_flops` cost models.
    pub node_flops: f64,
    /// Remote-execution hook: when installed, operations of threads whose
    /// cluster node it claims run in another process (see `crate::remote`).
    pub remote: Option<Arc<dyn RemoteExec>>,
    /// Attached trace sink (wall-clock timestamps); each worker thread
    /// registers its own writer at startup.
    pub trace: Option<Arc<TraceCollector>>,
    /// One flag per cluster node: `fail_node` marks a node dead here and
    /// its workers turn into tombstones (they keep draining their queues,
    /// re-routing stranded work, so no message is ever lost to a closed
    /// channel).
    pub dead: Vec<AtomicBool>,
    /// Declared cluster node names (`node0..`), for NodeDown diagnostics.
    pub node_names: Vec<String>,
    /// Collections that have actually reported to the feedback sink —
    /// `fail_node` translates a dead node into *these* collections' thread
    /// indices for `FeedbackSink::worker_lost` (an unrelated collection on
    /// the dead node must not wipe a live worker sharing a thread index).
    pub feedback_tcs: Mutex<Vec<(u32, u32)>>,
}

impl Shared {
    /// True when cluster node `node` was killed by `fail_node`.
    pub(crate) fn node_dead(&self, node: u32) -> bool {
        self.dead
            .get(node as usize)
            .is_some_and(|d| d.load(Ordering::Acquire))
    }

    fn node_name(&self, node: u32) -> String {
        self.node_names
            .get(node as usize)
            .cloned()
            .unwrap_or_else(|| format!("node{node}"))
    }
}

struct WaveState {
    /// `None` for remotely-executed waves: the op instance lives in the
    /// process hosting this thread's node.
    op: Option<Box<dyn DynOp>>,
    count: WaveCount,
    out_wave: u64,
    /// Where this wave consumes (for NodeDown diagnostics when the hosting
    /// node is killed mid-wave).
    graph: u32,
    node: GNodeId,
}

/// Per-worker mutable state.
struct Worker {
    app: u32,
    tc: u32,
    thread: u32,
    node: u32,
    data: Box<dyn Any + Send>,
    ops: HashMap<(u32, u32), Box<dyn DynOp>>,
    waves: HashMap<WaveKey, WaveState>,
    /// Totals from closes that arrived before the wave's first token.
    pending_expected: HashMap<WaveKey, u32>,
    /// This thread's trace writer (one SPSC ring), when a sink is attached.
    trace: Option<TraceWriter>,
    /// Trace labels this worker already interned, keyed by `(graph, node)`
    /// for op labels and `(graph, None)` for graph labels: the collector's
    /// interner takes a global lock, so each label is looked up there once.
    labels: HashMap<(u32, Option<u32>), LabelId>,
}

impl Worker {
    /// Record a trace event on this worker's track (no-op without a sink).
    fn trace(&mut self, shared: &Shared, kind: EventKind) {
        if let (Some(w), Some(c)) = (self.trace.as_mut(), shared.trace.as_ref()) {
            w.record(c.now_nanos(), kind);
        }
    }

    /// The trace label of `name`, interned in `c` on first use of `key`.
    fn label(&mut self, c: &TraceCollector, key: (u32, Option<u32>), name: &str) -> LabelId {
        *self.labels.entry(key).or_insert_with(|| c.label(name))
    }
}

/// Report a runtime error, qualifying node names with the owning
/// application's declared name (`app:node`) so multi-application runs
/// produce attributable diagnostics.
pub(crate) fn send_error(shared: &Shared, app: u32, e: DpsError) {
    let name = shared
        .app_names
        .get(app as usize)
        .map(String::as_str)
        .unwrap_or("?");
    let tag = |node: String| format!("{name}:{node}");
    let e = match e {
        DpsError::NoRoute { node, token_type } => DpsError::NoRoute {
            node: tag(node),
            token_type,
        },
        DpsError::OperationContract { node, reason } => DpsError::OperationContract {
            node: tag(node),
            reason,
        },
        DpsError::RouteOutOfRange {
            node,
            index,
            thread_count,
        } => DpsError::RouteOutOfRange {
            node: tag(node),
            index,
            thread_count,
        },
        DpsError::InvalidGraph { reason } => DpsError::InvalidGraph {
            reason: format!("application {name}: {reason}"),
        },
        other => other,
    };
    // Terminal failure events go straight into the collector's merged log
    // (the failing thread may have no writer, and rings could be lost).
    if let Some(c) = &shared.trace {
        c.record_now(
            0,
            0,
            EventKind::OpFailed {
                op: c.label(&e.to_string()),
            },
        );
    }
    let _ = shared.driver_tx.send(ToDriver::Error(e));
}

/// Inject a token into a graph entry from outside (the run driver).
pub(crate) fn inject(shared: &Arc<Shared>, app: u32, graph: u32, token: TokenBox, src_node: u32) {
    let entry = shared.defs[app as usize][graph as usize].entry();
    route_and_send(shared, app, graph, entry, src_node, token, Envelope::root());
}

/// The worker main loop.
pub(crate) fn worker_loop(
    shared: Arc<Shared>,
    app: u32,
    tc: u32,
    thread: u32,
    data: Box<dyn Any + Send>,
    rx: Receiver<Msg>,
) {
    let node = shared.apps[app as usize].tcs[tc as usize].nodes[thread as usize];
    let mut w = Worker {
        app,
        tc,
        thread,
        node,
        data,
        ops: HashMap::new(),
        waves: HashMap::new(),
        pending_expected: HashMap::new(),
        trace: shared
            .trace
            .as_ref()
            .map(|c| c.writer(node as u16, thread as u16)),
        labels: HashMap::new(),
    };
    let mut stopped = false;
    let mut dead = false;
    while let Ok(msg) = crate::wait::recv(&rx, None) {
        if !dead && shared.node_dead(node) {
            // The node was killed: become a tombstone. The thread stays
            // alive so late sends never hit a closed channel; it abandons
            // its partial wave state and from now on re-routes everything
            // it drains to live threads.
            dead = true;
            abandon_waves(&shared, &mut w);
        }
        match msg {
            Msg::Stop => {
                stopped = true;
                break;
            }
            // A bare wakeup (sent raw, not counted in the backlog): the
            // dead-set re-check above did the work.
            Msg::Fail => continue,
            Msg::Deliver {
                graph,
                node: gnode,
                token,
                env,
            } => {
                if dead {
                    match token {
                        // Stranded delivery: hand it back to the router,
                        // which sees this node's threads at infinite load
                        // and (for fresh merge waves) re-pins the wave
                        // elsewhere.
                        Ok(token) => route_and_send(&shared, app, graph, gnode, node, token, env),
                        // Wave-close messages follow their wave to its new
                        // home (or park until a re-routed token re-pins it).
                        Err(total) => send_close(&shared, app, graph, env, total),
                    }
                } else if let Err(e) = handle(&shared, &mut w, graph, gnode, token, env) {
                    send_error(&shared, app, e);
                }
            }
        }
        // The message is fully processed: drop it from this thread's
        // backlog (the live load signal used by routing functions).
        shared.apps[app as usize].tcs[tc as usize].queued[thread as usize]
            .fetch_sub(1, Ordering::Relaxed);
    }
    if !stopped {
        // The channel died under the worker (abnormal teardown): record the
        // thread's death as a terminal node-down event.
        if let Some(c) = &shared.trace {
            c.record_now(
                node as u16,
                thread as u16,
                EventKind::NodeDown { node: node as u16 },
            );
            c.metrics().add(Counter::NodesDown, 1);
        }
    }
}

/// A worker whose node was killed enters tombstone mode: every merge wave
/// with partial state on this thread is unrecoverable (its op instance and
/// received counts die here) and surfaces as [`DpsError::NodeDown`]; the
/// wave pins are removed so re-routed siblings fail fast instead of
/// re-targeting this thread. Mirrors the simulator's `fail_node` semantics.
fn abandon_waves(shared: &Arc<Shared>, w: &mut Worker) {
    let waves = std::mem::take(&mut w.waves);
    for (key, wave) in waves {
        let target = shared.defs[w.app as usize][wave.graph as usize]
            .node(wave.node)
            .name
            .clone();
        shared.apps[w.app as usize].graphs[wave.graph as usize]
            .wave_threads
            .lock()
            .remove(&key);
        send_error(
            shared,
            w.app,
            DpsError::NodeDown {
                node: shared.node_name(w.node),
                target,
            },
        );
    }
    w.pending_expected.clear();
    w.ops.clear();
}

/// If the finished execution marked a scheduled chunk complete, report its
/// wall-clock execution time to the registered feedback sink — the
/// real-thread half of the dynamic loop-scheduling feedback channel.
fn report_completion(shared: &Shared, w: &mut Worker, out: &OpOutput, started: Instant) {
    let Some(iters) = out.completed_iters else {
        return;
    };
    let nanos = started.elapsed().as_nanos() as u64;
    w.trace(shared, EventKind::ChunkExec { iters, nanos });
    if let Some(sink) = shared.feedback.as_ref() {
        {
            let mut ftcs = shared.feedback_tcs.lock();
            if !ftcs.contains(&(w.app, w.tc)) {
                ftcs.push((w.app, w.tc));
            }
        }
        sink.report_chunk(w.thread as usize, iters, started.elapsed().as_secs_f64());
        w.trace(
            shared,
            EventKind::ChunkReport {
                worker: w.thread,
                iters,
                nanos,
            },
        );
        if let Some(c) = &shared.trace {
            c.metrics().add(Counter::ChunkReports, 1);
        }
    }
}

/// Apply remotely-measured chunk completions to the master's feedback sink
/// under the executing thread's index — the distributed counterpart of
/// [`report_completion`] (the remote host measured the wall-clock time).
fn apply_reports(shared: &Shared, app: u32, tc: u32, thread: u32, reports: &[(u64, f64)]) {
    if let (false, Some(sink)) = (reports.is_empty(), shared.feedback.as_ref()) {
        {
            let mut ftcs = shared.feedback_tcs.lock();
            if !ftcs.contains(&(app, tc)) {
                ftcs.push((app, tc));
            }
        }
        sink.report_batch(thread as usize, reports);
    }
}

fn exec_info(shared: &Shared, w: &Worker) -> ExecInfo {
    ExecInfo {
        thread_index: w.thread as usize,
        thread_count: shared.apps[w.app as usize].tcs[w.tc as usize].senders.len(),
        // Wall-clock engine: charges don't advance a clock, but cost models
        // calling charge_flops see the calibrated host rate.
        node_flops: shared.node_flops,
        start_nanos: 0,
    }
}

fn handle(
    shared: &Arc<Shared>,
    w: &mut Worker,
    graph: u32,
    node: GNodeId,
    token: Result<TokenBox, u32>,
    env: Envelope,
) -> Result<(), DpsError> {
    let def = &shared.defs[w.app as usize][graph as usize];
    let kind = def.node(node).kind;
    if let OpKind::Merge | OpKind::Stream = kind {
        return handle_consume(shared, w, graph, node, kind, token, env);
    }
    let Ok(token) = token else {
        unreachable!("closes only target merge/stream nodes");
    };
    match kind {
        OpKind::Split | OpKind::Leaf => handle_exec(shared, w, graph, node, kind, token, env),
        _ => handle_call(shared, w, graph, node, token, env),
    }
}

fn handle_exec(
    shared: &Arc<Shared>,
    w: &mut Worker,
    graph: u32,
    node: GNodeId,
    kind: OpKind,
    token: TokenBox,
    env: Envelope,
) -> Result<(), DpsError> {
    let def = &shared.defs[w.app as usize][graph as usize];
    let gnode = def.node(node);
    let info = exec_info(shared, w);
    let name = gnode.name.clone();
    let mut posts: Vec<TokenBox> = if let Some(r) = remote_for(&shared.remote, w.node) {
        let outcome = r.execute(RemoteTask {
            app: w.app,
            tc: w.tc,
            thread: w.thread,
            graph,
            node,
            kind: RemoteKind::Exec,
            token: Some(token),
            env: env.clone(),
        })?;
        apply_reports(shared, w.app, w.tc, w.thread, &outcome.reports);
        if kind == OpKind::Leaf && outcome.posts.len() != 1 {
            return Err(DpsError::OperationContract {
                node: name,
                reason: format!(
                    "remote leaf execution returned {} posts (exactly 1 required)",
                    outcome.posts.len()
                ),
            });
        }
        outcome.posts
    } else {
        let t0n = shared.trace.as_ref().map(|c| c.now_nanos());
        let op = w
            .ops
            .entry((graph, node.0))
            .or_insert_with(|| gnode.make_op().expect("split/leaf has an op"));
        let mut out = OpOutput::default();
        let t0 = Instant::now();
        op.on_token(&mut out, w.data.as_mut(), info, &name, token)?;
        report_completion(shared, w, &out, t0);
        if let (Some(start), Some(c)) = (t0n, shared.trace.as_ref()) {
            let op = w.label(c, (graph, Some(node.0)), &name);
            let wave = env.frames.last().map_or(0, |f| f.wave as u32);
            let end = c.now_nanos();
            if let Some(wtr) = w.trace.as_mut() {
                wtr.record(start, EventKind::OpStart { op, wave });
                wtr.record(end, EventKind::OpEnd { op, wave });
            }
        }
        out.posts.into_iter().map(|p| p.token).collect()
    };

    match kind {
        OpKind::Split => {
            let wave = shared.wave_counter.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = shared.trace.as_ref() {
                let graph_label = w.label(c, (graph, None), def.name());
                w.trace(
                    shared,
                    EventKind::WaveStart {
                        graph: graph_label,
                        wave: wave as u32,
                    },
                );
            }
            let flow = MtFlow {
                flow: Flow::split(
                    def.matching_pop(node),
                    &env,
                    node,
                    wave,
                    shared.flow_window,
                    posts,
                ),
                src_node: w.node,
            };
            let g = &shared.apps[w.app as usize].graphs[graph as usize];
            g.flows.lock().insert((node.0, wave), flow);
            pump_flow(shared, w.app, graph, (node.0, wave));
        }
        OpKind::Leaf => {
            let post = posts.pop().expect("leaf contract checked");
            emit(shared, w.app, graph, node, w.node, post, env);
        }
        _ => unreachable!(),
    }
    Ok(())
}

/// Merge/stream consume of a data object (`Ok`) or a wave close
/// (`Err(total)`), and finalize when the wave completes.
fn handle_consume(
    shared: &Arc<Shared>,
    w: &mut Worker,
    graph: u32,
    node: GNodeId,
    kind: OpKind,
    input: Result<TokenBox, u32>,
    mut env: Envelope,
) -> Result<(), DpsError> {
    let def = &shared.defs[w.app as usize][graph as usize];
    let gnode = def.node(node);
    let name = gnode.name.clone();
    let info = exec_info(shared, w);
    let key = env.wave_key().expect("validated depth >= 1");
    let remote = remote_for(&shared.remote, w.node);
    // The remote side re-derives the wave identity from the envelope, so it
    // must see the frame this consume pops.
    let pre_pop_env = remote.as_ref().map(|_| env.clone());
    let frame = env.pop().expect("validated depth >= 1");
    let parent_env = env;
    let is_close = input.is_err();

    let wave = match w.waves.entry(key.clone()) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(v) => match input {
            // The close overtook the wave's first data object.
            Err(total) => {
                w.pending_expected.insert(v.into_key(), total);
                return Ok(());
            }
            Ok(_) => v.insert(WaveState {
                op: remote
                    .is_none()
                    .then(|| gnode.make_op().expect("merge/stream has an op")),
                count: WaveCount::new(w.pending_expected.remove(&key)),
                out_wave: shared.wave_counter.fetch_add(1, Ordering::Relaxed),
                graph,
                node,
            }),
        },
    };
    let completes = match input {
        Ok(_) => wave.count.on_token(&frame, &name)?,
        Err(total) => wave.count.on_close(total, &name)?,
    };
    if is_close && !completes {
        // Finalize waits for the remaining data objects.
        return Ok(());
    }
    let out_wave = wave.out_wave;

    let mut posts: Vec<TokenBox> = if let Some(r) = remote {
        let kind = match input {
            Ok(_) => RemoteKind::Consume { completes },
            Err(_) => RemoteKind::Finalize,
        };
        let outcome = r.execute(RemoteTask {
            app: w.app,
            tc: w.tc,
            thread: w.thread,
            graph,
            node,
            kind,
            token: input.ok(),
            env: pre_pop_env.expect("cloned when the hook matched"),
        })?;
        apply_reports(shared, w.app, w.tc, w.thread, &outcome.reports);
        outcome.posts
    } else {
        let t0n = shared.trace.as_ref().map(|c| c.now_nanos());
        let op = wave.op.as_mut().expect("local waves hold their op");
        let mut out = OpOutput::default();
        let t0 = Instant::now();
        if let Ok(token) = input {
            op.on_token(&mut out, w.data.as_mut(), info, &name, token)?;
        }
        if completes {
            op.on_finalize(&mut out, w.data.as_mut(), info, &name)?;
        }
        report_completion(shared, w, &out, t0);
        if let (Some(start), Some(c)) = (t0n, shared.trace.as_ref()) {
            let op = w.label(c, (graph, Some(node.0)), &name);
            let wave32 = frame.wave as u32;
            let end = c.now_nanos();
            if let Some(wtr) = w.trace.as_mut() {
                wtr.record(start, EventKind::OpStart { op, wave: wave32 });
                wtr.record(end, EventKind::OpEnd { op, wave: wave32 });
            }
        }
        out.posts.into_iter().map(|p| p.token).collect()
    };

    match kind {
        OpKind::Merge => {
            if completes {
                let post = posts.pop().ok_or_else(|| DpsError::OperationContract {
                    node: name.clone(),
                    reason: "merge wave completed without an output".into(),
                })?;
                emit(shared, w.app, graph, node, w.node, post, parent_env);
            }
        }
        OpKind::Stream => {
            if !posts.is_empty() || completes {
                let flow_key = (node.0, out_wave);
                let close = {
                    let g = &shared.apps[w.app as usize].graphs[graph as usize];
                    let mut flows = g.flows.lock();
                    let mt = flows.entry(flow_key).or_insert_with(|| MtFlow {
                        flow: Flow::stream(node, out_wave, shared.flow_window),
                        src_node: w.node,
                    });
                    mt.flow.push_stream(&parent_env, posts, completes, &name)?
                };
                if let Some((close_env, total)) = close {
                    send_close(shared, w.app, graph, close_env, total);
                }
                pump_flow(shared, w.app, graph, flow_key);
            }
        }
        _ => unreachable!(),
    }

    if completes {
        if let Some(c) = shared.trace.as_ref() {
            let graph_label = w.label(c, (graph, None), def.name());
            w.trace(
                shared,
                EventKind::WaveEnd {
                    graph: graph_label,
                    wave: frame.wave as u32,
                },
            );
            c.drain();
        }
        w.waves.remove(&key);
        let g = &shared.apps[w.app as usize].graphs[graph as usize];
        g.wave_threads.lock().remove(&key);
    }
    if !is_close {
        credit_flow(shared, w.app, graph, (frame.src.0, frame.wave));
    }
    Ok(())
}

fn handle_call(
    shared: &Arc<Shared>,
    w: &mut Worker,
    graph: u32,
    node: GNodeId,
    token: TokenBox,
    env: Envelope,
) -> Result<(), DpsError> {
    let def = &shared.defs[w.app as usize][graph as usize];
    let service = def
        .node(node)
        .service
        .clone()
        .expect("call nodes carry a service name");
    let Some(&(t_app, t_graph)) = shared.services.get(&service) else {
        return Err(DpsError::UnknownService { name: service });
    };
    let call_id = shared.call_counter.fetch_add(1, Ordering::Relaxed);
    let ret = CallReturn {
        app: w.app,
        graph,
        node,
        env,
    };
    let callee_env = ret.callee_env(call_id);
    shared.pending_calls.lock().insert(call_id, ret);
    let entry = shared.defs[t_app as usize][t_graph as usize].entry();
    route_and_send(shared, t_app, t_graph, entry, w.node, token, callee_env);
    Ok(())
}

/// Send a wave-close to the thread owning the wave; if no token of the wave
/// was routed yet, park it in the graph's pending-close table.
fn send_close(shared: &Arc<Shared>, app: u32, graph: u32, close_env: Envelope, total: u32) {
    let key = close_env
        .wave_key()
        .expect("close envelopes carry the wave frame");
    let opener = key.src;
    let def = &shared.defs[app as usize][graph as usize];
    let Some(merge_node) = def.matching_pop(opener) else {
        send_error(
            shared,
            app,
            DpsError::InvalidGraph {
                reason: format!("no matching merge recorded for node {opener}"),
            },
        );
        return;
    };
    let g = &shared.apps[app as usize].graphs[graph as usize];
    let thread = { g.wave_threads.lock().get(&key).copied() };
    match thread {
        Some(t) => {
            let tc = def.node(merge_node).tc;
            let shared_tc = &shared.apps[app as usize].tcs[tc as usize];
            if shared.node_dead(shared_tc.nodes[t as usize]) {
                // The wave's home died before consuming anything (tombstones
                // remove the pins of waves they held state for): drop the
                // stale pin and park the close so the wave's re-routed
                // tokens re-pin it and replay the close at its new home.
                g.wave_threads.lock().remove(&key);
                g.pending_closes.lock().insert(key, total);
                return;
            }
            shared_tc.enqueue(
                t as usize,
                Msg::Deliver {
                    graph,
                    node: merge_node,
                    token: Err(total),
                    env: close_env,
                },
            );
        }
        None => {
            g.pending_closes.lock().insert(key, total);
        }
    }
}

/// A token leaves node `from` of `graph`: continue at its successor, in the
/// caller of a service call, or as a graph output.
fn emit(
    shared: &Arc<Shared>,
    app: u32,
    graph: u32,
    from: GNodeId,
    src_node: u32,
    token: TokenBox,
    env: Envelope,
) {
    let def = &shared.defs[app as usize][graph as usize];
    let next = exit(def, from, token.as_ref(), &env, |id| {
        shared.pending_calls.lock().get(&id).cloned()
    });
    match next {
        Ok(Exit::Next(to)) => route_and_send(shared, app, graph, to, src_node, token, env),
        Ok(Exit::Resume(ret)) => emit(
            shared, ret.app, ret.graph, ret.node, src_node, token, ret.env,
        ),
        Ok(Exit::Output) => {
            let _ = shared
                .driver_tx
                .send(ToDriver::Output { app, graph, token });
        }
        Err(e) => send_error(shared, app, e),
    }
}

fn route_and_send(
    shared: &Arc<Shared>,
    app: u32,
    graph: u32,
    to: GNodeId,
    src_node: u32,
    token: TokenBox,
    env: Envelope,
) {
    let def = &shared.defs[app as usize][graph as usize];
    let gnode = def.node(to);
    let tc = gnode.tc;
    let g = &shared.apps[app as usize].graphs[graph as usize];
    let shared_tc = &shared.apps[app as usize].tcs[tc as usize];
    let thread_count = shared_tc.senders.len();
    // Live per-thread backlog: load-balancing routes on real OS threads see
    // the same signal shape as on the simulator. Single-thread collections
    // (masters, merge homes) skip the snapshot — routing there is forced.
    let load = (thread_count > 1).then(|| shared_tc.load_snapshot(&shared.dead));
    let info = RouteInfo {
        thread_count,
        load: load.as_deref(),
    };
    let routed = g.routes[to.0 as usize].route(token.as_ref(), &info, &gnode.name);
    let mut thread = match routed {
        Ok(i) => i as u32,
        Err(e) => {
            send_error(shared, app, e);
            return;
        }
    };
    if matches!(gnode.kind, OpKind::Merge | OpKind::Stream) {
        let key = env.wave_key().expect("validated: merges are under a split");
        let mut fresh = false;
        {
            let mut wt = g.wave_threads.lock();
            match wt.entry(key.clone()) {
                Entry::Occupied(mut e) => {
                    let pinned = *e.get();
                    if shared.node_dead(shared_tc.nodes[pinned as usize]) {
                        // The pinned thread died before consuming anything
                        // (a tombstone removes the pins of waves it held
                        // partial state for): re-pin the wave to the freshly
                        // routed thread and replay any parked close.
                        *e.get_mut() = thread;
                        fresh = true;
                    } else {
                        thread = pinned;
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(thread);
                    fresh = true;
                }
            }
        }
        if fresh {
            // A close may have raced ahead of the wave's first token; the
            // token's envelope names the wave it closes.
            let parked = g.pending_closes.lock().remove(&key);
            if let Some(total) = parked {
                shared.apps[app as usize].tcs[tc as usize].enqueue(
                    thread as usize,
                    Msg::Deliver {
                        graph,
                        node: to,
                        token: Err(total),
                        env: env.clone(),
                    },
                );
            }
        }
    }
    let dst_node = shared.apps[app as usize].tcs[tc as usize].nodes[thread as usize];
    if shared.node_dead(dst_node) {
        // The route insisted on a dead thread (stateful affinity, or the
        // whole collection is down): the work cannot be re-queued.
        send_error(
            shared,
            app,
            DpsError::NodeDown {
                node: shared.node_name(dst_node),
                target: gnode.name.clone(),
            },
        );
        return;
    }
    let token = if shared.enforce_serialization && src_node != dst_node {
        match wire_roundtrip(token.as_ref(), &shared.registries[app as usize]) {
            Ok(t) => t,
            Err(e) => {
                send_error(shared, app, e);
                return;
            }
        }
    } else {
        token
    };
    shared.apps[app as usize].tcs[tc as usize].enqueue(
        thread as usize,
        Msg::Deliver {
            graph,
            node: to,
            token: Ok(token),
            env,
        },
    );
}

/// Release pending posts of a flow while the window allows; drop the flow
/// once it is exhausted.
fn pump_flow(shared: &Arc<Shared>, app: u32, graph: u32, key: (u32, u64)) {
    loop {
        let (token, env, from, src_node) = {
            let g = &shared.apps[app as usize].graphs[graph as usize];
            let mut flows = g.flows.lock();
            let Some(mt) = flows.get_mut(&key) else {
                return;
            };
            let Some((token, env)) = mt.flow.take() else {
                if mt.flow.exhausted() {
                    flows.remove(&key);
                }
                return;
            };
            (token, env, mt.flow.src(), mt.src_node)
        };
        emit(shared, app, graph, from, src_node, token, env);
    }
}

/// A merge consumed one token of flow `key`: return a credit.
fn credit_flow(shared: &Arc<Shared>, app: u32, graph: u32, key: (u32, u64)) {
    {
        let g = &shared.apps[app as usize].graphs[graph as usize];
        let mut flows = g.flows.lock();
        if let Some(mt) = flows.get_mut(&key) {
            mt.flow.credit();
        } else {
            return;
        }
    }
    pump_flow(shared, app, graph, key);
}
