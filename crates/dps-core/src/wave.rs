//! Wave accounting, flow control and graph exit: the runtime bookkeeping
//! every engine shares.
//!
//! The paper's runtime counts the data objects of each split wave so that
//! merges complete "without user bookkeeping", and meters the objects out
//! under flow control. This module is that bookkeeping and nothing else —
//! no clocks, threads or I/O. An engine keeps one [`WaveCount`] per merge
//! or stream wave and one [`Flow`] per outgoing split or stream wave, and
//! resolves every posted token with [`exit`]; it decides only *where* and
//! *when* the resulting work runs.
//!
//! The wave total travels inline: the last post of a split carries it in
//! its frame. A stream learns its total only when its input wave
//! completes; if by then every post has already been released, the total
//! travels alone as a *wave close* ([`Flow::push_stream`] returns its
//! envelope) and reaches the merge through [`WaveCount::on_close`].

use std::collections::VecDeque;

use crate::envelope::{CallFrame, Envelope, Frame, GNodeId};
use crate::error::{DpsError, Result};
use crate::graph::Flowgraph;
use crate::token::Token;

/// Token accounting of one merge or stream wave.
#[derive(Debug, Clone, Copy, Default)]
pub struct WaveCount {
    received: u32,
    expected: Option<u32>,
}

impl WaveCount {
    /// A wave whose total may already be known: a close can arrive before
    /// the wave's first data object.
    pub fn new(expected: Option<u32>) -> Self {
        Self {
            received: 0,
            expected,
        }
    }

    /// Data objects consumed so far.
    pub fn received(&self) -> u32 {
        self.received
    }

    /// The wave total, once a frame or a close has carried it.
    pub fn expected(&self) -> Option<u32> {
        self.expected
    }

    /// A data object with innermost frame `frame` arrived at `node`;
    /// returns whether it completes the wave.
    pub fn on_token(&mut self, frame: &Frame, node: &str) -> Result<bool> {
        self.received += 1;
        if let Some(total) = frame.total {
            self.expected = Some(total);
        }
        match self.expected {
            Some(exp) if self.received > exp => Err(DpsError::OperationContract {
                node: node.to_string(),
                reason: format!(
                    "wave received {} tokens but split posted {exp}",
                    self.received
                ),
            }),
            exp => Ok(exp == Some(self.received)),
        }
    }

    /// The producer closed the wave at `total` data objects; returns
    /// whether every one of them was already consumed.
    pub fn on_close(&mut self, total: u32, node: &str) -> Result<bool> {
        self.expected = Some(total);
        if self.received > total {
            return Err(DpsError::OperationContract {
                node: node.to_string(),
                reason: format!(
                    "wave received {} tokens but producer posted {total}",
                    self.received
                ),
            });
        }
        Ok(self.received == total)
    }
}

/// One outgoing split or stream wave under flow control (paper §3, *Flow
/// control*): its framed posts wait here until the window admits them, and
/// each released post is outstanding until the matching merge consumes it.
///
/// `P` is the engine's post payload (the token, plus whatever the engine
/// schedules by, such as a send time).
#[derive(Debug)]
pub struct Flow<P> {
    pending: VecDeque<(P, Envelope)>,
    src: GNodeId,
    wave: u64,
    /// Posts framed so far: the next frame index.
    posted: u32,
    outstanding: u32,
    window: u32,
    complete: bool,
}

impl<P> Flow<P> {
    /// A split's wave, opened by node `src` for a token with envelope
    /// `env`. Every post is known, so the last one carries the total.
    /// `merge` is the split's matching merge in its graph
    /// ([`Flowgraph::matching_pop`]); a split without one (a serving
    /// graph's exit) gets no window, since no merge returns its credits.
    pub fn split(
        merge: Option<GNodeId>,
        env: &Envelope,
        src: GNodeId,
        wave: u64,
        window: u32,
        posts: impl IntoIterator<Item = P>,
    ) -> Self {
        let window = if merge.is_some() { window } else { 0 };
        let mut flow = Self::stream(src, wave, window);
        flow.append(env, posts);
        flow.complete = true;
        flow.stamp_last();
        flow
    }

    /// A stream's output wave `wave` from node `src`, opened before its
    /// first post.
    pub fn stream(src: GNodeId, wave: u64, window: u32) -> Self {
        Self {
            pending: VecDeque::new(),
            src,
            wave,
            posted: 0,
            outstanding: 0,
            window,
            complete: false,
        }
    }

    /// The node that opened the wave (posts leave from it).
    pub fn src(&self) -> GNodeId {
        self.src
    }

    /// Frame and queue a stream's `posts`, made under the stream's
    /// `parent_env`. When `completes` (the stream's input wave is done),
    /// the total goes on the last pending post, or — if every post already
    /// left — into the returned wave-close envelope and its total, which
    /// the engine delivers to the wave's merge.
    pub fn push_stream(
        &mut self,
        parent_env: &Envelope,
        posts: impl IntoIterator<Item = P>,
        completes: bool,
        node: &str,
    ) -> Result<Option<(Envelope, u32)>> {
        self.append(parent_env, posts);
        if !completes {
            return Ok(None);
        }
        if self.posted == 0 {
            return Err(DpsError::OperationContract {
                node: node.to_string(),
                reason: "stream operation posted no tokens across its wave".into(),
            });
        }
        self.complete = true;
        if self.stamp_last() {
            return Ok(None);
        }
        let mut close = parent_env.clone();
        close.push(Frame {
            src: self.src,
            wave: self.wave,
            index: 0,
            total: Some(self.posted),
        });
        Ok(Some((close, self.posted)))
    }

    fn append(&mut self, env: &Envelope, posts: impl IntoIterator<Item = P>) {
        let posts = posts.into_iter();
        self.pending.reserve(posts.size_hint().0);
        for post in posts {
            let mut env = env.clone();
            env.push(Frame {
                src: self.src,
                wave: self.wave,
                index: self.posted,
                total: None,
            });
            self.pending.push_back((post, env));
            self.posted += 1;
        }
    }

    /// Put the total on the last pending post; false if none is pending.
    fn stamp_last(&mut self) -> bool {
        let total = self.posted;
        match self
            .pending
            .back_mut()
            .and_then(|(_, env)| env.frames.last_mut())
        {
            Some(frame) => {
                frame.total = Some(total);
                true
            }
            None => false,
        }
    }

    /// The next post, if the window admits releasing it (a window of 0 is
    /// unbounded).
    pub fn admit(&self) -> Option<&P> {
        if self.window > 0 && self.outstanding >= self.window {
            return None;
        }
        self.pending.front().map(|(post, _)| post)
    }

    /// Release the next post if the window admits it; it stays outstanding
    /// until [`credit`](Self::credit)ed.
    pub fn take(&mut self) -> Option<(P, Envelope)> {
        self.admit()?;
        let post = self.pending.pop_front()?;
        self.outstanding += 1;
        Some(post)
    }

    /// The matching merge consumed one released post.
    pub fn credit(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Posts not yet released.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The wave is complete and every post has been released.
    pub fn drained(&self) -> bool {
        self.complete && self.pending.is_empty()
    }

    /// Drained, and every released post has been credited back: the flow
    /// is done.
    pub fn exhausted(&self) -> bool {
        self.drained() && self.outstanding == 0
    }
}

/// Where a service call resumes in its caller: the call node of graph
/// `graph` of application `app`, with the envelope of the calling token.
#[derive(Debug, Clone)]
pub struct CallReturn {
    /// Calling application.
    pub app: u32,
    /// Graph within the calling application.
    pub graph: u32,
    /// The call node.
    pub node: GNodeId,
    /// Envelope the result continues with in the caller.
    pub env: Envelope,
}

impl CallReturn {
    /// The envelope a calling token enters the callee graph with under
    /// call id `call_id`: no frames, the caller's call stack plus this call.
    pub fn callee_env(&self, call_id: u64) -> Envelope {
        let mut env = Envelope::root();
        env.calls = self.env.calls.clone();
        env.calls.push(CallFrame {
            caller_app: self.app,
            caller_graph: self.graph,
            call_node: self.node,
            call_id,
        });
        env
    }
}

/// Where a token posted at a graph node goes next.
#[derive(Debug)]
pub enum Exit {
    /// The successor accepting the token's type, in the same graph.
    Next(GNodeId),
    /// The token left a called graph: post it again from the caller's call
    /// node, with the returned envelope.
    Resume(CallReturn),
    /// The token left the outermost graph: an output.
    Output,
}

/// Resolve `token`, posted at node `from` of `def` with envelope `env`.
/// Selects the successor by token type (paper Fig. 3); at a graph exit,
/// `call` looks up the pending call a returning token belongs to.
pub fn exit(
    def: &Flowgraph,
    from: GNodeId,
    token: &dyn Token,
    env: &Envelope,
    call: impl FnOnce(u64) -> Option<CallReturn>,
) -> Result<Exit> {
    if let Some(next) = def.successor_for(from, token.wire_id()) {
        return Ok(Exit::Next(next));
    }
    let node = || def.node(from).name.clone();
    if !def.succs(from).is_empty() {
        return Err(DpsError::NoRoute {
            node: node(),
            token_type: token.type_name(),
        });
    }
    let (frame, call_id) = match (env.frames.as_slice(), env.calls.last()) {
        ([], None) => return Ok(Exit::Output),
        // Service-call return: continue in the caller's graph.
        ([], Some(c)) => (None, c.call_id),
        // Distributed return (inter-application split/merge pair): the
        // wave keeps its frame — still naming the callee split, wave keys
        // are opaque — and is merged in the caller.
        ([f], Some(c)) => (Some(*f), c.call_id),
        (frames, _) => {
            return Err(DpsError::InvalidGraph {
                reason: format!(
                    "token left the graph at {} with {} unmerged frames",
                    node(),
                    frames.len()
                ),
            })
        }
    };
    let mut ret = call(call_id).ok_or_else(|| DpsError::OperationContract {
        node: node(),
        reason: format!("return for unknown call id {call_id}"),
    })?;
    if let Some(f) = frame {
        ret.env.push(f);
    }
    Ok(Exit::Resume(ret))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(index: u32, total: Option<u32>) -> Frame {
        Frame {
            src: GNodeId(1),
            wave: 7,
            index,
            total,
        }
    }

    #[test]
    fn count_completes_on_the_frame_total_in_any_order() {
        let mut c = WaveCount::default();
        assert!(!c.on_token(&frame(2, Some(3)), "m").unwrap());
        assert!(!c.on_token(&frame(0, None), "m").unwrap());
        assert!(c.on_token(&frame(1, None), "m").unwrap());
    }

    #[test]
    fn count_overflow_is_a_contract_error() {
        let mut c = WaveCount::new(Some(1));
        assert!(c.on_token(&frame(0, None), "m").unwrap());
        let e = c.on_token(&frame(1, None), "m").unwrap_err();
        assert!(e
            .to_string()
            .contains("wave received 2 tokens but split posted 1"));
        let mut c = WaveCount::default();
        c.on_token(&frame(0, None), "m").unwrap();
        c.on_token(&frame(1, None), "m").unwrap();
        let e = c.on_close(1, "m").unwrap_err();
        assert!(e
            .to_string()
            .contains("wave received 2 tokens but producer posted 1"));
    }

    #[test]
    fn close_completes_a_fully_consumed_wave() {
        let mut c = WaveCount::default();
        assert!(!c.on_token(&frame(0, None), "m").unwrap());
        assert!(c.on_close(1, "m").unwrap());
        let mut early = WaveCount::default();
        assert!(!early.on_close(2, "m").unwrap());
        assert!(!early.on_token(&frame(0, None), "m").unwrap());
        assert!(early.on_token(&frame(1, None), "m").unwrap());
    }

    #[test]
    fn stream_total_rides_the_last_pending_post_or_a_close() {
        let root = Envelope::root();
        let mut f: Flow<u32> = Flow::stream(GNodeId(2), 9, 1);
        assert_eq!(f.push_stream(&root, [10, 11], false, "s").unwrap(), None);
        let (post, env) = f.take().unwrap();
        assert_eq!((post, env.top().unwrap().index), (10, 0));
        assert!(f.take().is_none(), "window of 1 is full");
        f.credit();
        assert_eq!(f.push_stream(&root, [], true, "s").unwrap(), None);
        let (_, env) = f.take().unwrap();
        assert_eq!(env.top().unwrap().total, Some(2));
        f.credit();
        assert!(f.exhausted());

        let mut g: Flow<u32> = Flow::stream(GNodeId(2), 9, 0);
        g.push_stream(&root, [1], false, "s").unwrap();
        g.take().unwrap();
        let (close, total) = g.push_stream(&root, [], true, "s").unwrap().unwrap();
        assert_eq!(total, 1);
        assert_eq!(close.top().unwrap().total, Some(1));
        assert!(g.drained() && !g.exhausted());
    }

    #[test]
    fn empty_stream_wave_is_a_contract_error() {
        let mut f: Flow<u32> = Flow::stream(GNodeId(2), 9, 0);
        let e = f.push_stream(&Envelope::root(), [], true, "s").unwrap_err();
        assert!(e.to_string().contains("posted no tokens across its wave"));
    }

    #[test]
    fn callee_env_extends_the_call_stack_without_frames() {
        let mut env = Envelope::root();
        env.push(frame(0, None));
        let ret = CallReturn {
            app: 1,
            graph: 2,
            node: GNodeId(3),
            env,
        };
        let callee = ret.callee_env(42);
        assert!(callee.frames.is_empty());
        assert_eq!(callee.calls.len(), 1);
        assert_eq!(callee.calls[0].call_id, 42);
        assert_eq!(callee.calls[0].call_node, GNodeId(3));
    }
}
