//! Tests of the real-thread engine: the same schedules the simulation
//! engine runs, executed on OS threads with genuinely concurrent operations.

use dps_core::prelude::*;
use dps_mt::{MtConfig, MtEngine};

dps_token! { pub struct Job { pub n: u32 } }
dps_token! { pub struct Piece { pub i: u32, pub v: u64 } }
dps_token! { pub struct Total { pub sum: u64 } }

struct Fan;
impl SplitOperation for Fan {
    type Thread = ();
    type In = Job;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, j: Job) {
        for i in 0..j.n {
            ctx.post(Piece { i, v: u64::from(i) });
        }
    }
}

struct Work;
impl LeafOperation for Work {
    type Thread = ();
    type In = Piece;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
        // A little real computation so threads genuinely overlap; the
        // result is discarded (black_box prevents elimination).
        let mut acc = p.v;
        for k in 0..1000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        std::hint::black_box(acc);
        ctx.post(Piece {
            i: p.i,
            v: p.v * p.v,
        });
    }
}

#[derive(Default)]
struct Sum {
    sum: u64,
}
impl MergeOperation for Sum {
    type Thread = ();
    type In = Piece;
    type Out = Total;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Total>, p: Piece) {
        self.sum += p.v;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
        ctx.post(Total { sum: self.sum });
    }
}

fn build(eng: &mut MtEngine, nodes: usize) -> dps_mt::MtGraph {
    let app = eng.app("mt-demo");
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let mapping: Vec<String> = (0..nodes).map(|i| format!("node{i}")).collect();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "proc", &mapping.join(" "))
        .unwrap();
    let mut b = GraphBuilder::new("sumsq");
    let s = b.split(&main, || ToThread(0), || Fan);
    let l = b.leaf(&workers, RoundRobin::new, || Work);
    let m = b.merge(&main, || ToThread(0), Sum::default);
    b.add(s >> l >> m);
    eng.build_graph(b).unwrap()
}

fn expected_sum(n: u32) -> u64 {
    (0..u64::from(n)).map(|i| i * i).sum()
}

#[test]
fn split_compute_merge_on_real_threads() {
    let mut eng = MtEngine::new(4);
    let g = build(&mut eng, 4);
    let out = eng.run_graph(g, vec![Box::new(Job { n: 100 })], 1).unwrap();
    assert_eq!(out.len(), 1);
    let total = downcast::<Total>(out.into_iter().next().unwrap()).unwrap();
    assert_eq!(total.sum, expected_sum(100));
    eng.shutdown();
}

#[test]
fn repeated_runs_reuse_threads() {
    let mut eng = MtEngine::new(2);
    let g = build(&mut eng, 2);
    for _ in 0..5 {
        let t = eng.run_one::<Total>(g, Box::new(Job { n: 32 })).unwrap();
        assert_eq!(t.sum, expected_sum(32));
    }
}

#[test]
fn pipelined_injections() {
    let mut eng = MtEngine::new(4);
    let g = build(&mut eng, 4);
    let inputs: Vec<TokenBox> = (0..6)
        .map(|_| Box::new(Job { n: 50 }) as TokenBox)
        .collect();
    let outs = eng.run_graph(g, inputs, 6).unwrap();
    assert_eq!(outs.len(), 6);
    for o in outs {
        let t = downcast::<Total>(o).unwrap();
        assert_eq!(t.sum, expected_sum(50));
    }
}

#[test]
fn flow_window_one_still_completes() {
    let cfg = MtConfig {
        flow_window: 1,
        ..MtConfig::default()
    };
    let mut eng = MtEngine::with_config(2, cfg);
    let g = build(&mut eng, 2);
    let t = eng.run_one::<Total>(g, Box::new(Job { n: 40 })).unwrap();
    assert_eq!(t.sum, expected_sum(40));
}

#[test]
fn serialization_enforced_across_virtual_nodes() {
    let cfg = MtConfig {
        enforce_serialization: true,
        ..MtConfig::default()
    };
    let mut eng = MtEngine::with_config(3, cfg);
    let app_tokens = |eng: &mut MtEngine, app| {
        eng.register_token::<Job>(app);
        eng.register_token::<Piece>(app);
        eng.register_token::<Total>(app);
    };
    let app = eng.app("ser");
    app_tokens(&mut eng, app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let w: ThreadCollection<()> = eng.thread_collection(app, "w", "node1 node2").unwrap();
    let mut b = GraphBuilder::new("ser");
    let s = b.split(&main, || ToThread(0), || Fan);
    let l = b.leaf(&w, RoundRobin::new, || Work);
    let m = b.merge(&main, || ToThread(0), Sum::default);
    b.add(s >> l >> m);
    let g = eng.build_graph(b).unwrap();
    let t = eng.run_one::<Total>(g, Box::new(Job { n: 25 })).unwrap();
    assert_eq!(t.sum, expected_sum(25));
}

#[test]
fn service_call_between_mt_applications() {
    let mut eng = MtEngine::new(2);

    let server = eng.app("server");
    let smain: ThreadCollection<()> = eng.thread_collection(server, "m", "node1").unwrap();
    let mut sb = GraphBuilder::new("svc");
    let ss = sb.split(&smain, || ToThread(0), || Fan);
    let sl = sb.leaf(&smain, || ToThread(0), || Work);
    let sm = sb.merge(&smain, || ToThread(0), Sum::default);
    sb.add(ss >> sl >> sm);
    let sg = eng.build_graph(sb).unwrap();
    eng.expose_service(sg, "mt.sum");

    dps_token! { pub struct CallBatch { pub calls: u32 } }
    struct FanCalls;
    impl SplitOperation for FanCalls {
        type Thread = ();
        type In = CallBatch;
        type Out = Job;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Job>, c: CallBatch) {
            for _ in 0..c.calls {
                ctx.post(Job { n: 10 });
            }
        }
    }
    #[derive(Default)]
    struct SumTotals {
        sum: u64,
    }
    impl MergeOperation for SumTotals {
        type Thread = ();
        type In = Total;
        type Out = Total;
        fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Total>, t: Total) {
            self.sum += t.sum;
        }
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
            ctx.post(Total { sum: self.sum });
        }
    }

    let client = eng.app("client");
    let cmain: ThreadCollection<()> = eng.thread_collection(client, "m", "node0").unwrap();
    let mut cb = GraphBuilder::new("client");
    let cs = cb.split(&cmain, || ToThread(0), || FanCalls);
    let call = cb.call::<Job, Total, (), _>("mt.sum", &cmain, || ToThread(0));
    let cm = cb.merge(&cmain, || ToThread(0), SumTotals::default);
    cb.add(cs >> call >> cm);
    let cg = eng.build_graph(cb).unwrap();

    let t = eng
        .run_one::<Total>(cg, Box::new(CallBatch { calls: 3 }))
        .unwrap();
    assert_eq!(t.sum, 3 * expected_sum(10));
}

#[test]
fn timeout_reports_deadlock_shape() {
    // A merge that never completes (split output dropped by a filter leaf
    // is impossible by contract, so instead use a huge expected count via a
    // graph that is simply never fed enough): simulate by expecting more
    // outputs than the graph produces.
    let cfg = MtConfig {
        run_timeout: std::time::Duration::from_millis(300),
        ..MtConfig::default()
    };
    let mut eng = MtEngine::with_config(1, cfg);
    let g = build(&mut eng, 1);
    let err = eng
        .run_graph(g, vec![Box::new(Job { n: 3 })], 2)
        .unwrap_err();
    assert!(err.to_string().contains("timed out"));
}

/// A leaf that breaks the one-post contract by posting nothing.
struct Silent;
impl LeafOperation for Silent {
    type Thread = ();
    type In = Piece;
    type Out = Piece;
    fn execute(&mut self, _ctx: &mut OpCtx<'_, (), Piece>, _p: Piece) {}
}

/// A worker's error wakes the waiting driver at once: it shares the
/// outputs' channel, so no wait slice delays it.
#[test]
fn worker_error_surfaces_at_once() {
    let mut fastest = std::time::Duration::MAX;
    for _ in 0..5 {
        let cfg = MtConfig {
            run_timeout: std::time::Duration::from_secs(5),
            ..MtConfig::default()
        };
        let mut eng = MtEngine::with_config(2, cfg);
        let app = eng.app("silent");
        let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
        let workers: ThreadCollection<()> = eng.thread_collection(app, "proc", "node1").unwrap();
        let mut b = GraphBuilder::new("silent");
        let s = b.split(&main, || ToThread(0), || Fan);
        let l = b.leaf(&workers, || ToThread(0), || Silent);
        let m = b.merge(&main, || ToThread(0), Sum::default);
        b.add(s >> l >> m);
        let g = eng.build_graph(b).unwrap();
        let t0 = std::time::Instant::now();
        let err = eng
            .run_graph(g, vec![Box::new(Job { n: 1 })], 1)
            .unwrap_err();
        fastest = fastest.min(t0.elapsed());
        assert!(
            matches!(err, DpsError::OperationContract { .. }),
            "expected the leaf's contract error, got {err}"
        );
    }
    assert!(
        fastest < std::time::Duration::from_millis(10),
        "the fastest of 5 runs took {fastest:?} to surface the error"
    );
}

/// `shutdown` reaches workers that have just gone idle, i.e. are still
/// polling their inboxes: the join returns promptly every time.
#[test]
fn shutdown_reaches_polling_workers() {
    for _ in 0..20 {
        let mut eng = MtEngine::new(2);
        let g = build(&mut eng, 2);
        let t = eng.run_one::<Total>(g, Box::new(Job { n: 8 })).unwrap();
        assert_eq!(t.sum, expected_sum(8));
        let t0 = std::time::Instant::now();
        eng.shutdown();
        assert!(t0.elapsed() < std::time::Duration::from_secs(2));
    }
}

/// Releases piece 0 at once and holds every other piece for 300 ms.
struct Stagger;
impl LeafOperation for Stagger {
    type Thread = ();
    type In = Piece;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
        if p.i > 0 {
            std::thread::sleep(std::time::Duration::from_millis(300));
        }
        ctx.post(p);
    }
}

/// A merge that flags each consumed piece to the test.
struct Flagging {
    consumed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    sum: Sum,
}
impl MergeOperation for Flagging {
    type Thread = ();
    type In = Piece;
    type Out = Total;
    fn consume(&mut self, ctx: &mut OpCtx<'_, (), Total>, p: Piece) {
        self.sum.consume(ctx, p);
        self.consumed
            .store(true, std::sync::atomic::Ordering::Release);
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
        self.sum.finalize(ctx);
    }
}

/// `fail_node` reaches an idle worker holding a partial merge wave, at
/// offsets inside and past the poll budget: the worker abandons the wave
/// and its `NodeDown` surfaces long before the held piece would arrive.
#[test]
fn fail_node_reaches_polling_workers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    for offset_us in [0u64, 10, 30, 1000, 20_000] {
        let consumed = Arc::new(AtomicBool::new(false));
        let mut eng = MtEngine::new(2);
        let app = eng.app("fail-idle");
        let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
        let homes: ThreadCollection<()> = eng.thread_collection(app, "home", "node1").unwrap();
        let mut b = GraphBuilder::new("fail-idle");
        let s = b.split(&main, || ToThread(0), || Fan);
        let l = b.leaf(&main, || ToThread(0), || Stagger);
        let flag = Arc::clone(&consumed);
        let m = b.merge(
            &homes,
            || ToThread(0),
            move || Flagging {
                consumed: Arc::clone(&flag),
                sum: Sum::default(),
            },
        );
        b.add(s >> l >> m);
        let g = eng.build_graph(b).unwrap();
        eng.submit(g, Box::new(Job { n: 2 }));
        while !consumed.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(offset_us) {
            std::hint::spin_loop();
        }
        eng.fail_node(1).unwrap();
        let err = eng.wait_for_outputs(g, 1).unwrap_err();
        assert!(
            matches!(err, DpsError::NodeDown { .. }),
            "offset {offset_us} us: expected NodeDown, got {err}"
        );
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "offset {offset_us} us: the abandoned wave surfaced after {:?}",
            t0.elapsed()
        );
    }
}
