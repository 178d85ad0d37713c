//! How every thread of the engine waits for its next message: poll the
//! channel for a short budget, yielding the core between polls, then park.
//!
//! Fine-grained graphs hand a token between OS threads several times per
//! chunk; parking at once pays a futex sleep and wake on nearly every
//! hand-off, because the receiver has usually just gone idle when the next
//! token arrives. Re-polling for a few tens of microseconds catches those
//! tokens on a running thread. The poll always yields: engines run more hot
//! threads than cores, and a pure spin would starve the very thread that is
//! about to send.

use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};

/// How long an empty inbox is re-polled before the thread parks.
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// Receive the next message from `rx`: poll it with `yield_now` between
/// polls for at most [`POLL_BUDGET`], then park until a message arrives,
/// every sender is gone ([`RecvTimeoutError::Disconnected`]) or `deadline`
/// passes ([`RecvTimeoutError::Timeout`]; never without a deadline).
pub(crate) fn recv<T>(rx: &Receiver<T>, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
    let mut polling_since = None;
    loop {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => {}
        }
        let now = Instant::now();
        if deadline.is_some_and(|d| now >= d) {
            return Err(RecvTimeoutError::Timeout);
        }
        if now.duration_since(*polling_since.get_or_insert(now)) >= POLL_BUDGET {
            break;
        }
        std::thread::yield_now();
    }
    match deadline {
        Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use std::thread;

    #[test]
    fn returns_queued_messages_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(recv(&rx, None), Ok(i));
        }
    }

    /// A queued message is taken by the first poll: the thread neither
    /// parks nor yields (Linux: its voluntary switch count stays put).
    #[cfg(target_os = "linux")]
    #[test]
    fn queued_message_does_not_park() {
        fn voluntary_switches() -> u64 {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse().ok())
                .expect("voluntary_ctxt_switches in /proc status")
        }
        let (tx, rx) = unbounded();
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        let before = voluntary_switches();
        for i in 0..1000 {
            assert_eq!(recv(&rx, None), Ok(i));
        }
        let grown = voluntary_switches() - before;
        assert!(grown <= 2, "1000 queued receives parked {grown} times");
    }

    #[test]
    fn wakes_for_a_message_sent_after_the_budget() {
        let (tx, rx) = unbounded();
        let sender = thread::spawn(move || {
            thread::sleep(POLL_BUDGET * 200);
            tx.send(7u32).unwrap();
            tx
        });
        let t0 = Instant::now();
        assert_eq!(recv(&rx, None), Ok(7));
        assert!(t0.elapsed() >= POLL_BUDGET * 200);
        drop(sender.join().unwrap());
    }

    #[test]
    fn disconnect_ends_the_wait() {
        // Every sender already gone.
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        assert_eq!(recv(&rx, None), Err(RecvTimeoutError::Disconnected));
        // The last sender drops while the receiver is parked.
        let (tx, rx) = unbounded::<u32>();
        let dropper = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            drop(tx);
        });
        assert_eq!(recv(&rx, None), Err(RecvTimeoutError::Disconnected));
        dropper.join().unwrap();
    }

    #[test]
    fn deadline_bounds_the_wait() {
        let (_tx, rx) = unbounded::<u32>();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(5);
        assert_eq!(recv(&rx, Some(deadline)), Err(RecvTimeoutError::Timeout));
        assert!(Instant::now() >= deadline);
        // A deadline already in the past still takes a queued message.
        let (tx, rx) = unbounded();
        tx.send(1u32).unwrap();
        assert_eq!(recv(&rx, Some(t0)), Ok(1));
    }
}
