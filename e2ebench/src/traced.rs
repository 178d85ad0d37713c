//! Digest of one traced repetition: op busy time inside the solve window,
//! the residual the op spans do not explain, and the engine counters.

use std::collections::BTreeMap;

use dps_obs::{Counter, EventKind, MetricsRegistry, TraceLog};

/// Op labels that run the numeric kernels; every other op is framework
/// (control, merge, claim, staging) work.
pub const KERNEL_OPS: [&str; 3] = ["UpdateWork", "ColumnWork", "ComputeRows"];

/// What one traced repetition showed.
#[derive(Clone, Debug, Default)]
pub struct TraceDigest {
    /// Σ op busy seconds inside the solve window, over every track.
    pub busy_s: f64,
    /// Op executions inside the solve window.
    pub ops: u64,
    /// Busy seconds of the [`KERNEL_OPS`].
    pub kernel_busy_s: f64,
    /// Busy seconds of every other op.
    pub framework_busy_s: f64,
    /// `1 − Σbusy / (makespan × busy tracks)`.
    pub outside_frac: f64,
    /// Least-busy track's busy time over the makespan.
    pub busy_frac_min: f64,
    /// Tracks that executed at least one op in the window.
    pub tracks: usize,
    /// Per-label `(busy seconds, executions)`.
    pub by_label: BTreeMap<String, (f64, u64)>,
    /// The collector's counters and gauges.
    pub counters: Vec<(&'static str, u64)>,
}

impl TraceDigest {
    /// A counter from the metrics snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

fn is_staging(label: &str) -> bool {
    label.starts_with("Install") || label.starts_with("Extract")
}

/// The solve window of each node, in that node's own clock: after its last
/// staging load (`Install*`) ended, before its first gather (`Extract*`)
/// began. Worker processes stamp events from their own epoch, so windows
/// are per node; a node without staging ops shares the window of one that
/// has them (same process, same clock).
fn solve_windows(log: &TraceLog) -> BTreeMap<u16, (u64, u64)> {
    let mut win: BTreeMap<u16, (u64, u64)> = BTreeMap::new();
    for e in &log.events {
        match e.kind {
            EventKind::OpStart { op, .. } if log.label(op).starts_with("Extract") => {
                let w = win.entry(e.node).or_insert((0, u64::MAX));
                w.1 = w.1.min(e.at);
            }
            EventKind::OpEnd { op, .. } if log.label(op).starts_with("Install") => {
                let w = win.entry(e.node).or_insert((0, u64::MAX));
                w.0 = w.0.max(e.at);
            }
            _ => {}
        }
    }
    win
}

/// Digest `log` of a repetition whose solve took `makespan` seconds.
pub fn digest(log: &TraceLog, metrics: &MetricsRegistry, makespan: f64) -> TraceDigest {
    let windows = solve_windows(log);
    let fallback = windows.values().next().copied().unwrap_or((0, u64::MAX));
    let mut open: BTreeMap<(u16, u16), u64> = BTreeMap::new();
    let mut per_track: BTreeMap<(u16, u16), u64> = BTreeMap::new();
    let mut by_label: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for e in &log.events {
        match e.kind {
            EventKind::OpStart { .. } => {
                open.insert((e.node, e.thread), e.at);
            }
            EventKind::OpEnd { op, .. } => {
                let Some(start) = open.remove(&(e.node, e.thread)) else {
                    continue;
                };
                let label = log.label(op);
                let (lo, hi) = windows.get(&e.node).copied().unwrap_or(fallback);
                let (s, t) = (start.max(lo), e.at.min(hi));
                if is_staging(label) || t <= s {
                    continue;
                }
                *per_track.entry((e.node, e.thread)).or_default() += t - s;
                let l = by_label.entry(label.to_string()).or_default();
                l.0 += t - s;
                l.1 += 1;
            }
            _ => {}
        }
    }
    let secs = |ns: u64| ns as f64 / 1e9;
    let busy_ns: u64 = per_track.values().sum();
    let kernel_ns: u64 = by_label
        .iter()
        .filter(|(l, _)| KERNEL_OPS.contains(&l.as_str()))
        .map(|(_, v)| v.0)
        .sum();
    let tracks = per_track.len();
    let span = makespan.max(f64::MIN_POSITIVE);
    TraceDigest {
        busy_s: secs(busy_ns),
        ops: by_label.values().map(|v| v.1).sum(),
        kernel_busy_s: secs(kernel_ns),
        framework_busy_s: secs(busy_ns - kernel_ns),
        outside_frac: 1.0 - secs(busy_ns) / (span * tracks.max(1) as f64),
        busy_frac_min: per_track
            .values()
            .map(|&b| secs(b) / span)
            .fold(f64::INFINITY, f64::min),
        tracks,
        by_label: by_label
            .into_iter()
            .map(|(l, (b, n))| (l, (secs(b), n)))
            .collect(),
        counters: metrics.snapshot(),
    }
}

/// Counters a real engine leaves at zero because it never records the
/// event behind them, with the reason: blind spots, reported as absent.
pub fn blind_spots(d: &TraceDigest, engine: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    if d.counter(Counter::TokensDelivered.name()) == 0
        && d.counter(Counter::TokensEnqueued.name()) > 0
    {
        out.push((
            "queue.enqueue_deliver_wait",
            format!(
                "{engine} records TokenEnqueue but no TokenDeliver events \
                 (tokens_delivered = 0), so enqueue-to-deliver wait is unmeasured"
            ),
        ));
    }
    if engine.starts_with("net") && d.counter(Counter::FramesSent.name()) == 0 {
        out.push((
            "wire.bytes",
            "NetEngine records no FrameSend/FrameRecv events or FramesSent/WireBytes* \
             counters, so frames and wire bytes are unmeasured"
                .to_string(),
        ));
    }
    out
}
