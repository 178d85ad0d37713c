//! Model-based property test of the wave ledger (`dps_core::internal::wave`)
//! on its own, without an engine: random sequences of split or stream
//! posts, window-limited releases, out-of-order consumption (each one a
//! credit) and completion run against a tiny reference interpreter of the
//! flow-control rules.
//!
//! Checked after every step and at the end of each wave:
//! * released posts are `0..n` in order, and their frames carry exactly
//!   the indices `0..n`;
//! * the total `n` appears exactly once — on the last data object or on
//!   the wave-close envelope — and the merge-side [`WaveCount`] completes
//!   exactly when it has seen all `n` objects;
//! * the outstanding count never exceeds a non-zero window;
//! * `exhausted` holds exactly when every post is released and credited.

use dps::core::internal::wave::{Flow, WaveCount};
use dps::core::{Envelope, Frame, GNodeId};
use proptest::prelude::*;

const SRC: GNodeId = GNodeId(3);
const WAVE: u64 = 11;

/// The reference interpreter: what the flow must do, in counts.
#[derive(Default)]
struct Model {
    posted: u32,
    released: u32,
    credited: u32,
    window: u32,
    complete: bool,
}

impl Model {
    fn outstanding(&self) -> u32 {
        self.released - self.credited
    }
    fn admits(&self) -> bool {
        self.released < self.posted && (self.window == 0 || self.outstanding() < self.window)
    }
    fn exhausted(&self) -> bool {
        self.complete && self.released == self.posted && self.outstanding() == 0
    }
}

/// The merge side: released posts in flight, and what it consumed.
#[derive(Default)]
struct Seen {
    in_flight: Vec<Envelope>,
    indices: Vec<u32>,
    totals: Vec<(Option<u32>, u32)>,
    count: WaveCount,
    completed: u32,
}

impl Seen {
    fn token(&mut self, f: &Frame) -> Result<(), TestCaseError> {
        prop_assert_eq!((f.src, f.wave), (SRC, WAVE));
        self.indices.push(f.index);
        if let Some(t) = f.total {
            self.totals.push((Some(f.index), t));
        }
        if self.count.on_token(f, "merge").expect("never over-counted") {
            self.completed += 1;
        }
        Ok(())
    }
}

fn check(flow: &Flow<u32>, m: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(flow.admit().is_some(), m.admits());
    prop_assert_eq!(flow.pending() as u32, m.posted - m.released);
    prop_assert_eq!(flow.drained(), m.complete && m.released == m.posted);
    prop_assert_eq!(flow.exhausted(), m.exhausted());
    if m.window > 0 {
        prop_assert!(m.outstanding() <= m.window);
    }
    Ok(())
}

/// One step of a wave's life: `op % 4` picks a release, the consumption
/// (and credit) of in-flight post `arg`, or — for a stream — a batch of
/// `arg % 4` posts.
fn step(
    flow: &mut Flow<u32>,
    m: &mut Model,
    seen: &mut Seen,
    op: u8,
    arg: u8,
) -> Result<(), TestCaseError> {
    match op % 4 {
        0 | 1 => match flow.take() {
            Some((post, env)) => {
                prop_assert!(m.admits(), "flow released past its window");
                prop_assert_eq!(post, m.released);
                prop_assert_eq!(env.top().map(|f| f.index), Some(post));
                m.released += 1;
                seen.in_flight.push(env);
            }
            None => prop_assert!(!m.admits(), "admissible post withheld"),
        },
        2 => {
            if !seen.in_flight.is_empty() {
                let env = seen
                    .in_flight
                    .remove(usize::from(arg) % seen.in_flight.len());
                seen.token(env.top().expect("posts carry their frame"))?;
                flow.credit();
                m.credited += 1;
            }
        }
        _ => {
            if !m.complete {
                let posts: Vec<u32> = (m.posted..m.posted + u32::from(arg % 4)).collect();
                m.posted += posts.len() as u32;
                let close = flow
                    .push_stream(&Envelope::root(), posts, false, "stream")
                    .expect("incomplete pushes never fail");
                prop_assert!(close.is_none());
            }
        }
    }
    check(flow, m)
}

/// Release and credit everything left, then check the wave's whole story.
fn finish(flow: &mut Flow<u32>, m: &mut Model, seen: &mut Seen) -> Result<(), TestCaseError> {
    while !m.exhausted() {
        let op = if m.admits() { 0 } else { 2 };
        step(flow, m, seen, op, 0)?;
    }
    let n = m.posted;
    seen.indices.sort_unstable();
    prop_assert_eq!(&seen.indices, &(0..n).collect::<Vec<_>>());
    prop_assert_eq!(seen.totals.len(), 1, "total must appear exactly once");
    let (on, total) = seen.totals[0];
    prop_assert_eq!(total, n);
    if let Some(index) = on {
        prop_assert_eq!(index, n - 1, "an inline total rides the last post");
    }
    prop_assert_eq!(seen.completed, 1, "the merge completes exactly once");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A split wave: all `n` posts framed at once, total on the last.
    #[test]
    fn split_flow_matches_the_model(
        n in 1u32..40,
        window in 0u32..6,
        bounded in any::<bool>(),
        ops in proptest::collection::vec(any::<(u8, u8)>(), 0..80),
    ) {
        let merge = bounded.then_some(GNodeId(9));
        let mut flow = Flow::split(merge, &Envelope::root(), SRC, WAVE, window, 0..n);
        let mut m = Model {
            posted: n,
            window: if bounded { window } else { 0 },
            complete: true,
            ..Model::default()
        };
        let mut seen = Seen::default();
        check(&flow, &m)?;
        for (op, arg) in ops {
            // Splits post once, up front: batches become releases.
            step(&mut flow, &mut m, &mut seen, if op % 4 == 3 { 0 } else { op }, arg)?;
        }
        finish(&mut flow, &mut m, &mut seen)?;
    }

    /// A stream wave: batches of posts interleaved with releases and
    /// credits; the total rides the last pending post or a wave close.
    #[test]
    fn stream_flow_matches_the_model(
        window in 0u32..6,
        ops in proptest::collection::vec(any::<(u8, u8)>(), 0..80),
        last in 0u32..3,
    ) {
        let mut flow: Flow<u32> = Flow::stream(SRC, WAVE, window);
        let mut m = Model { window, ..Model::default() };
        let mut seen = Seen::default();
        for (op, arg) in ops {
            step(&mut flow, &mut m, &mut seen, op, arg)?;
        }
        // Complete the input wave with `last` final posts.
        let posts: Vec<u32> = (m.posted..m.posted + last).collect();
        m.posted += last;
        let pushed = flow.push_stream(&Envelope::root(), posts, true, "stream");
        if m.posted == 0 {
            prop_assert!(pushed.is_err(), "an empty stream wave is a contract error");
            return Ok(());
        }
        m.complete = true;
        let close = pushed.expect("non-empty waves complete");
        // The close is needed exactly when no post was left to carry it.
        prop_assert_eq!(close.is_some(), m.released == m.posted);
        if let Some((env, total)) = close {
            let f = env.top().expect("the close carries the wave frame");
            prop_assert_eq!((f.src, f.wave, f.total), (SRC, WAVE, Some(total)));
            seen.totals.push((None, total));
            // The close overtakes whatever is still in flight; the count
            // completes once either way.
            if seen.count.on_close(total, "merge").expect("never over-counted") {
                seen.completed += 1;
            }
        }
        check(&flow, &m)?;
        finish(&mut flow, &mut m, &mut seen)?;
    }
}
