//! `dps-e2ebench`: the end-to-end benchmark of DPS.
//!
//! ```text
//! dps-e2ebench --workload <lu-mt|lu-tcp|life-fine-mt> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Every repetition constructs the workload's engine, runs the workload,
//! shuts the engine down and checks the result bit for bit against the
//! sequential reference. `--trace 0` repeats for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` measures untraced and traced repetitions
//! (half the time each) plus the per-layer probes, and prints the
//! per-layer metrics. The last stdout line is the result object; the line
//! before it records the host, the inputs, sample counts and every
//! measurement that is absent, with the reason.
//!
//! `NetEngine::from_env` re-executes this binary as its worker process
//! (`DPS_NET_ROLE=worker`, arguments `--net-worker <job> …`); that role is
//! served here before any argument parsing. See `e2ebench/README.md`.

mod host;
mod probes;
mod stats;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dps_obs::{Counter, Gauge, TraceCollector};

use stats::median;
use traced::TraceDigest;
use workload::{Reference, Rep, Workload};

const USAGE: &str = "usage: dps-e2ebench --workload <lu-mt|lu-tcp|life-fine-mt> --seed <u64> \
                     --seconds <n> --trace <0|1>";

/// Longest one repetition or probe may run before the run counts as wedged.
const STALL_LIMIT: Duration = Duration::from_secs(60);
/// Fewest repetitions in a measured phase, whatever `--seconds` says.
const MIN_REPS: usize = 5;
/// Failed repetitions after which a phase stops early.
const MAX_FAILURES: usize = 3;
/// Steal share at or below which a repetition counts as quiet.
const QUIET_STEAL: f64 = 0.05;
/// Fewest repetitions the end-to-end medians are taken over.
const MIN_QUIET: usize = 3;
/// Untimed warm-up before measuring: repetitions (at least one) until this
/// many seconds passed, so the allocator and page tables reach steady state.
const WARM_UP_S: f64 = 1.0;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("makespan_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("step_p50_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 33] = [
    ("teardown_s", "s"),
    ("step_p99_ms", "ms"),
    ("kernel.serial_lu_s", "s"),
    ("kernel.update_gemm_gflops", "GFLOP/s"),
    ("kernel.update_gemm_ikj_gflops", "GFLOP/s"),
    ("kernel.panel_lu_us", "us"),
    ("life.serial_step_us", "us"),
    ("sched.hub_claim_ns", "ns"),
    ("sched.hub_claim_2t_ns", "ns"),
    ("sched.feedback_report_ns", "ns"),
    ("sched.chunk_claims", "count"),
    ("sched.chunk_reports", "count"),
    ("sched.leases_opened", "count"),
    ("dispatch.mt_wave_us", "us"),
    ("dispatch.mt_token_us", "us"),
    ("net.exec_rtt_us", "us"),
    ("net.token_us", "us"),
    ("net.loopback_makespan_s", "s"),
    ("setup.engine_s", "s"),
    ("setup.driver_s", "s"),
    ("transport.tcp_rtt_us", "us"),
    ("transport.tcp_gbps", "Gbit/s"),
    ("serial.panel_encode_gbps", "Gbit/s"),
    ("serial.panel_decode_gbps", "Gbit/s"),
    ("serial.small_token_ns", "ns"),
    ("ops.busy_s", "s"),
    ("ops.count", "count"),
    ("ops.kernel.busy_s", "s"),
    ("ops.framework.busy_s", "s"),
    ("ops.outside_frac", "fraction"),
    ("ops.busy_frac_min", "fraction"),
    ("queue.depth_peak", "count"),
    ("trace.overhead_frac", "fraction"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

// --- operation accounting and the stall watchdog -----------------------------

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);
/// Deadline and name of the operation in progress.
static GUARD: Mutex<Option<(Instant, String)>> = Mutex::new(None);

/// Kill a wedged run: when an operation outlives [`STALL_LIMIT`], SIGKILL
/// its worker processes, report it as failed and exit. The thread lives as
/// long as the process, so it is never joined.
fn start_watchdog() {
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_millis(100));
        let wedged = GUARD
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
            .filter(|(deadline, _)| Instant::now() > *deadline)
            .map(|(_, what)| what.clone());
        if let Some(what) = wedged {
            let killed = host::kill_children();
            eprintln!(
                "e2ebench: {what} exceeded {STALL_LIMIT:?}; killed {killed} child process(es)"
            );
            let attempted = ATTEMPTED.load(Ordering::SeqCst);
            let failed = FAILED.load(Ordering::SeqCst) + 1;
            println!("{}", result_line(false, attempted, failed, &[]));
            std::process::exit(1);
        }
    });
}

/// Run one operation under the watchdog and count it; an `Err` or a panic
/// is a failed operation, logged to stderr and kept in `errors`.
fn op<T>(what: &str, errors: &mut Vec<String>, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
    ATTEMPTED.fetch_add(1, Ordering::SeqCst);
    *GUARD.lock().unwrap_or_else(|p| p.into_inner()) =
        Some((Instant::now() + STALL_LIMIT, what.to_string()));
    let out = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        Err(format!("panic: {msg}"))
    });
    *GUARD.lock().unwrap_or_else(|p| p.into_inner()) = None;
    out.map_err(|e| {
        FAILED.fetch_add(1, Ordering::SeqCst);
        eprintln!("e2ebench: FAILED {what}: {e}");
        errors.push(format!("{what}: {e}"));
    })
    .ok()
}

// --- output --------------------------------------------------------------------

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final stdout line. Metrics that could not be measured (non-finite)
/// are left out; the run is then not correct anyway.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, _, v)| v.is_finite())
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Attach units from `table` to named values, in table order; a metric the
/// run did not produce is reported as NaN (and so left out).
fn with_units(
    table: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |p| p.1);
            (name, unit, v)
        })
        .collect()
}

fn json_map<V>(entries: impl IntoIterator<Item = (String, V)>, f: impl Fn(V) -> String) -> String {
    let body: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{}: {}", json_str(&k), f(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON number; `null` for a value that could not be measured.
fn num(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "null".to_string()
    }
}

fn num_list(v: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = v.into_iter().map(num).collect();
    format!("[{}]", items.join(", "))
}

// --- measurement phases ------------------------------------------------------------

/// Repeat `w` for at least `budget` seconds and `min_reps` repetitions.
/// With `traced`, each repetition gets a fresh collector and is digested.
fn repeat(
    args: &Args,
    reference: &Reference,
    budget: f64,
    min_reps: usize,
    traced: bool,
    errors: &mut Vec<String>,
) -> Vec<Sample> {
    let w = args.workload;
    let what = format!(
        "{} repetition{}",
        w.name(),
        if traced { " (traced)" } else { "" }
    );
    let t = Instant::now();
    let mut out = Vec::new();
    let mut failures = 0;
    for tries in 1usize.. {
        let collector = traced.then(TraceCollector::new);
        let rss_reset = host::reset_peak_rss();
        let cpu0 = host::cpu_ticks();
        let rep = op(&what, errors, || {
            workload::run_rep(w, args.seed, reference, collector.as_ref())
        });
        let steal = host::steal_share(cpu0, host::cpu_ticks());
        let peak_rss = rss_reset.then(host::peak_rss_mib).flatten();
        match rep {
            Some(rep) => {
                let digest =
                    collector.map(|c| traced::digest(&c.take_log(), c.metrics(), rep.makespan));
                out.push(Sample {
                    rep,
                    digest,
                    steal,
                    peak_rss,
                });
            }
            None => failures += 1,
        }
        if failures >= MAX_FAILURES || (tries >= min_reps && t.elapsed().as_secs_f64() >= budget) {
            break;
        }
    }
    out
}

/// One measured repetition.
struct Sample {
    rep: Rep,
    /// Digest of its trace, for traced repetitions.
    digest: Option<TraceDigest>,
    /// Share of the host's CPU time stolen by the hypervisor meanwhile.
    steal: Option<f64>,
    /// Peak resident memory of this process during the repetition, MiB.
    peak_rss: Option<f64>,
}

/// The repetitions the hypervisor disturbed least: those whose steal share
/// is at most [`QUIET_STEAL`], or else the [`MIN_QUIET`] least-stolen ones.
/// On a host that lends this VM all its CPU time (or where steal is
/// unreadable) that is every repetition.
fn quiet(reps: &[Sample]) -> Vec<&Sample> {
    let steal = |s: &Sample| s.steal.unwrap_or(0.0);
    let mut by_steal: Vec<&Sample> = reps.iter().collect();
    by_steal.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    let quiet = by_steal
        .iter()
        .take_while(|s| steal(s) <= QUIET_STEAL)
        .count();
    by_steal.truncate(quiet.max(MIN_QUIET));
    by_steal
}

fn med(reps: &[Sample], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|s| f(&s.rep)).collect::<Vec<_>>())
}

fn med_digest(reps: &[Sample], f: impl Fn(&TraceDigest) -> f64) -> f64 {
    median(
        &reps
            .iter()
            .filter_map(|s| s.digest.as_ref().map(&f))
            .collect::<Vec<_>>(),
    )
}

/// Everything the record line reports besides the host and inputs.
#[derive(Default)]
struct Record {
    fields: Vec<(String, String)>,
    absent: Vec<(String, String)>,
}

impl Record {
    fn field(&mut self, k: &str, v: String) {
        self.fields.push((k.to_string(), v));
    }
}

/// `teardown_s` and `step_p99_ms` of untraced repetitions, recording the
/// samples behind them. They are reported without a bound (see README).
fn unbounded_lifecycle(reps: &[Sample], rec: &mut Record) -> [(&'static str, f64); 2] {
    let list = |f: &dyn Fn(&Sample) -> f64| num_list(reps.iter().map(f));
    rec.field("repetitions", reps.len().to_string());
    rec.field(
        "steps_per_repetition",
        reps.first().map_or(0, |s| s.rep.steps).to_string(),
    );
    rec.field("makespans_s", list(&|s| s.rep.makespan));
    rec.field("setups_s", list(&|s| s.rep.setup()));
    rec.field("teardowns_s", list(&|s| s.rep.teardown));
    rec.field("peak_rss_mib", list(&|s| s.peak_rss.unwrap_or(f64::NAN)));
    rec.field("steal_shares", list(&|s| s.steal.unwrap_or(f64::NAN)));
    [
        ("teardown_s", med(reps, |r| r.teardown)),
        ("step_p99_ms", med(reps, |r| r.step_p99) * 1e3),
    ]
}

/// `--trace 0`: repeat the workload for `--seconds`; end-to-end metrics,
/// each the median over the [`quiet`] repetitions.
fn end_to_end(
    args: &Args,
    reference: &Reference,
    rec: &mut Record,
    errors: &mut Vec<String>,
) -> Vec<(&'static str, &'static str, f64)> {
    let reps = repeat(args, reference, args.seconds, MIN_REPS, false, errors);
    for (k, v) in unbounded_lifecycle(&reps, rec) {
        rec.field(k, num(v));
    }
    let kept = quiet(&reps);
    rec.field("quiet_repetitions", kept.len().to_string());
    let quiet_median = |f: &dyn Fn(&Sample) -> Option<f64>| {
        median(&kept.iter().filter_map(|s| f(s)).collect::<Vec<_>>())
    };
    let peak = quiet_median(&|s| s.peak_rss);
    if peak.is_nan() {
        rec.absent.push((
            "peak_rss_mb".into(),
            "no resettable VmHWM in /proc/self".into(),
        ));
    }
    with_units(
        &END_TO_END,
        &[
            ("makespan_s", quiet_median(&|s| Some(s.rep.makespan))),
            ("setup_s", quiet_median(&|s| Some(s.rep.setup()))),
            ("peak_rss_mb", peak),
            ("step_p50_ms", quiet_median(&|s| Some(s.rep.step_p50)) * 1e3),
        ],
    )
}

/// `--trace 1`: untraced then traced repetitions (half of `--seconds`
/// each), then every per-layer probe.
fn per_layer(
    args: &Args,
    reference: &Reference,
    rec: &mut Record,
    errors: &mut Vec<String>,
) -> Vec<(&'static str, &'static str, f64)> {
    let half = args.seconds / 2.0;
    let plain = repeat(args, reference, half, MIN_REPS, false, errors);
    let traced = repeat(args, reference, half, MIN_REPS, true, errors);
    let seed = args.seed;
    let mut v: Vec<(&str, f64)> = Vec::new();

    // The traced workload: op spans, the residual, engine counters.
    let counter = |c: &str| med_digest(&traced, |d| d.counter(c) as f64);
    v.extend(unbounded_lifecycle(&plain, rec));
    v.extend([
        ("setup.engine_s", med(&plain, |r| r.engine)),
        ("setup.driver_s", med(&plain, |r| r.driver)),
        ("ops.busy_s", med_digest(&traced, |d| d.busy_s)),
        ("ops.count", med_digest(&traced, |d| d.ops as f64)),
        (
            "ops.kernel.busy_s",
            med_digest(&traced, |d| d.kernel_busy_s),
        ),
        (
            "ops.framework.busy_s",
            med_digest(&traced, |d| d.framework_busy_s),
        ),
        ("ops.outside_frac", med_digest(&traced, |d| d.outside_frac)),
        (
            "ops.busy_frac_min",
            med_digest(&traced, |d| d.busy_frac_min),
        ),
        ("queue.depth_peak", counter(Gauge::QueueDepthPeak.name())),
        ("sched.chunk_claims", counter(Counter::ChunkClaims.name())),
        ("sched.chunk_reports", counter(Counter::ChunkReports.name())),
        ("sched.leases_opened", counter(Counter::LeasesOpened.name())),
        (
            "trace.overhead_frac",
            med(&traced, |r| r.makespan) / med(&plain, |r| r.makespan) - 1.0,
        ),
    ]);
    rec.field("traced_repetitions", traced.len().to_string());
    rec.field(
        "traced_makespans_s",
        num_list(traced.iter().map(|s| s.rep.makespan)),
    );
    if let Some(d) = traced.iter().find_map(|s| s.digest.as_ref()) {
        rec.field("busy_tracks", d.tracks.to_string());
        rec.field(
            "ops_by_label",
            json_map(d.by_label.clone(), |(busy, n)| {
                format!("{{\"busy_s\": {busy}, \"count\": {n}}}")
            }),
        );
        rec.field(
            "counters",
            json_map(d.counters.iter().map(|&(k, n)| (k.to_string(), n)), |n| {
                n.to_string()
            }),
        );
        let repeat_exactly = [
            Counter::ChunkClaims,
            Counter::ChunkReports,
            Counter::LeasesOpened,
        ]
        .iter()
        .all(|c| {
            traced
                .iter()
                .filter_map(|s| s.digest.as_ref())
                .all(|t| t.counter(c.name()) == d.counter(c.name()))
        });
        rec.field("sched_counts_repeat_exactly", repeat_exactly.to_string());
        for (k, why) in traced::blind_spots(d, args.workload.engine()) {
            rec.absent.push((k.to_string(), why));
        }
    }

    // Layer probes, each timed from outside through the layer's public API.
    let mut probe = |name: &'static str, f: &mut dyn FnMut() -> probes::Probe| {
        let x = op(name, errors, f).unwrap_or(f64::NAN);
        v.push((name, x));
    };
    probe("kernel.serial_lu_s", &mut || probes::serial_lu_s(seed));
    probe("kernel.panel_lu_us", &mut || probes::panel_lu_us(seed));
    probe("life.serial_step_us", &mut || probes::life_step_us(seed));
    probe("sched.hub_claim_ns", &mut probes::hub_claim_ns);
    probe("sched.hub_claim_2t_ns", &mut probes::hub_claim_2t_ns);
    probe("sched.feedback_report_ns", &mut probes::feedback_report_ns);
    probe("net.loopback_makespan_s", &mut || {
        probes::net_loopback_makespan_s(seed, reference)
    });
    probe("transport.tcp_rtt_us", &mut probes::tcp_rtt_us);
    probe("transport.tcp_gbps", &mut probes::tcp_gbps);
    probe("serial.small_token_ns", &mut probes::small_token_ns);
    // Probes that measure two metrics in one operation.
    let mut pair = |names: [&'static str; 2], f: &mut dyn FnMut() -> Result<(f64, f64), String>| {
        let (x, y) = op(names[0], errors, f).unwrap_or((f64::NAN, f64::NAN));
        v.extend([(names[0], x), (names[1], y)]);
    };
    pair(
        ["kernel.update_gemm_gflops", "kernel.update_gemm_ikj_gflops"],
        &mut || probes::update_gemm_gflops(seed),
    );
    pair(
        ["dispatch.mt_wave_us", "dispatch.mt_token_us"],
        &mut probes::mt_dispatch_us,
    );
    pair(
        ["net.exec_rtt_us", "net.token_us"],
        &mut probes::net_dispatch_us,
    );
    pair(
        ["serial.panel_encode_gbps", "serial.panel_decode_gbps"],
        &mut || probes::panel_serial_gbps(seed),
    );
    with_units(&PER_LAYER, &v)
}

fn host_json() -> String {
    let absent = |why: &str| json_str(&format!("absent: {why}"));
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"os\": {}, \"rustc\": {}, \"commit\": {}}}",
        host::nproc(),
        host::cpu_model().map_or_else(|| absent("no /proc/cpuinfo model name"), |m| json_str(&m)),
        json_str(std::env::consts::OS),
        json_str(host::rustc_version()),
        host::git_commit().map_or_else(|| absent("not a git checkout"), |c| json_str(&c)),
    )
}

/// The worker-process role: run the job the master named, SPMD.
fn net_worker_main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let out = match argv.as_slice() {
        ["--net-worker", "lu", seed, traced] => match seed.parse() {
            Ok(seed) => workload::lu_worker(seed, *traced == "1"),
            Err(_) => Err(format!("bad seed {seed}")),
        },
        ["--net-worker", "dispatch"] => probes::net_dispatch_worker(),
        _ => Err(format!("unknown worker job {argv:?}")),
    };
    match out {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench net worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::var("DPS_NET_ROLE").as_deref() == Ok("worker") {
        return net_worker_main();
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    start_watchdog();
    let w = args.workload;
    let reference = Reference::of(w, args.seed);
    let mut rec = Record::default();
    let mut errors = Vec::new();
    // Checked and counted like every repetition, but not measured.
    let warm = repeat(&args, &reference, WARM_UP_S, 1, false, &mut errors);
    rec.field("warm_up_repetitions", warm.len().to_string());
    let metrics = if args.trace {
        per_layer(&args, &reference, &mut rec, &mut errors)
    } else {
        end_to_end(&args, &reference, &mut rec, &mut errors)
    };
    let attempted = ATTEMPTED.load(Ordering::SeqCst);
    let failed = FAILED.load(Ordering::SeqCst);
    let correct = failed == 0 && attempted > 0 && metrics.iter().all(|m| m.2.is_finite());
    for &(name, _, v) in &metrics {
        if !v.is_finite() {
            rec.absent.push((
                name.to_string(),
                "not measured: its operation failed".into(),
            ));
        }
    }

    let mut line = format!(
        "{{\"record\": {{\"benchmark\": \"dps-e2ebench\", \"workload\": {}, \"trace\": {}, \
         \"seconds\": {}, \"host\": {}, \"inputs\": {{{}}}",
        json_str(w.name()),
        args.trace,
        args.seconds,
        host_json(),
        w.inputs_json(args.seed),
    );
    for (k, v) in &rec.fields {
        let _ = write!(line, ", {}: {v}", json_str(k));
    }
    let _ = write!(
        line,
        ", \"absent\": {}, \"errors\": [{}]}}}}",
        json_map(rec.absent.iter().cloned(), |why| json_str(&why)),
        errors
            .iter()
            .map(|e| json_str(e))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("{line}");
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
