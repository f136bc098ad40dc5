//! Offline stand-in for the `crossbeam` crate.
//!
//! Only the `channel` module is provided: a multi-producer
//! *multi-consumer* channel (std's mpsc receiver is not cloneable, so
//! the inference worker pool in `snowplow-pmm` needs this) built on a
//! mutex-protected deque and a condvar. Disconnect semantics match
//! crossbeam: `recv` errors once the queue is drained and every sender
//! is gone; `send` errors once every receiver is gone.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is
    /// drained and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// An unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    /// A "bounded" channel. Capacity is not enforced — every use in
    /// this workspace is a single-response rendezvous where the writer
    /// never blocks — but the signature matches crossbeam's.
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.chan.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut q = self.chan.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(value);
            drop(q);
            self.chan.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.chan.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.chan.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self.chan.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.chan.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.chan.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.chan.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they observe
                // the disconnect. Taking the queue lock first orders the
                // wake-up after any receiver that read the old sender
                // count and is about to wait; without it that receiver
                // misses the notification and blocks forever.
                drop(self.chan.queue.lock().unwrap_or_else(|e| e.into_inner()));
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_in_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_errors_after_last_sender_drops() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn cloned_receivers_share_the_queue() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let h = std::thread::spawn(move || rx2.recv().unwrap());
            tx.send(42u32).unwrap();
            let got = h.join().unwrap();
            assert_eq!(got, 42);
        }

        #[test]
        fn blocked_receiver_wakes_on_disconnect() {
            let (tx, rx) = unbounded::<u8>();
            let h = std::thread::spawn(move || rx.recv());
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(tx);
            assert_eq!(h.join().unwrap(), Err(RecvError));
        }

        #[test]
        fn send_errors_when_all_receivers_gone() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }
    }
}
