//! Stand-in for the published `crossbeam`, used only where cargo cannot
//! resolve the published one (see `../../cargo.sh`). It covers exactly what
//! `remo-core` calls: `channel` for the control plane and the stream
//! hand-off (the data plane is the engine's own SPSC lanes) and
//! `utils::CachePadded`.
//!
//! The channel wraps `std::sync::mpsc`, whose implementation since Rust 1.67
//! is a port of `crossbeam-channel` (the same list and array flavours), so
//! the engine's control plane runs the published algorithm either way. What
//! std does not expose is the queue length; a counter beside the channel
//! supplies it.

pub mod channel {
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, TryRecvError};

    /// The message that could not be sent because every receiver is gone.
    pub struct SendError<T>(pub T);

    impl<T> SendError<T> {
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    enum Flavor<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    pub struct Sender<T> {
        flavor: Flavor<T>,
        /// Messages sent and not yet received. Raised before the send, so it
        /// never reads 0 while a message is queued: the engine treats
        /// "empty" as permission to go idle.
        len: Arc<AtomicUsize>,
    }

    impl<T> Sender<T> {
        /// Blocks while a bounded channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.len.fetch_add(1, SeqCst);
            let sent = match &self.flavor {
                Flavor::Unbounded(tx) => tx.send(msg),
                Flavor::Bounded(tx) => tx.send(msg),
            };
            sent.map_err(|mpsc::SendError(msg)| {
                self.len.fetch_sub(1, SeqCst);
                SendError(msg)
            })
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                flavor: match &self.flavor {
                    Flavor::Unbounded(tx) => Flavor::Unbounded(tx.clone()),
                    Flavor::Bounded(tx) => Flavor::Bounded(tx.clone()),
                },
                len: Arc::clone(&self.len),
            }
        }
    }

    pub struct Receiver<T> {
        rx: mpsc::Receiver<T>,
        len: Arc<AtomicUsize>,
    }

    impl<T> Receiver<T> {
        fn took<E>(&self, r: Result<T, E>) -> Result<T, E> {
            if r.is_ok() {
                self.len.fetch_sub(1, SeqCst);
            }
            r
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.took(self.rx.try_recv())
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            self.took(self.rx.recv())
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.took(self.rx.recv_timeout(timeout))
        }

        pub fn len(&self) -> usize {
            self.len.load(SeqCst)
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    fn pair<T>(flavor: Flavor<T>, rx: mpsc::Receiver<T>) -> (Sender<T>, Receiver<T>) {
        let len = Arc::new(AtomicUsize::new(0));
        (
            Sender {
                flavor,
                len: Arc::clone(&len),
            },
            Receiver { rx, len },
        )
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        pair(Flavor::Unbounded(tx), rx)
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        pair(Flavor::Bounded(tx), rx)
    }
}

pub mod utils {
    use std::ops::Deref;

    /// Pads and aligns a value to 128 bytes, the published crate's figure
    /// for x86-64 and aarch64, so neighbours never share a cache line.
    #[derive(Debug)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use super::utils::CachePadded;
    use std::time::Duration;

    #[test]
    fn length_follows_sends_and_receives() {
        let (tx, rx) = unbounded();
        assert!(rx.is_empty());
        tx.send(1).unwrap();
        tx.clone().send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.is_empty());
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn a_failed_send_returns_the_message_and_leaves_the_length() {
        let (tx, rx) = bounded(1);
        tx.send(7).unwrap();
        assert_eq!(rx.len(), 1);
        drop(rx);
        assert_eq!(tx.send(8).unwrap_err().into_inner(), 8);
    }

    #[test]
    fn padded_values_do_not_share_a_line() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(*CachePadded::new(5u8), 5);
    }
}
