use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// What a bounded subscription does with a new message when its queue is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Evict the oldest queued message to make room — the subscriber
    /// keeps up with the present and loses the past.
    DropOldest,
    /// Discard the incoming message — the subscriber keeps the past and
    /// misses the present.
    DropNewest,
}

/// Queue behind a bounded subscription.
#[derive(Debug)]
struct BoundedQueue<T> {
    queue: Mutex<VecDeque<T>>,
    /// Signalled on every enqueue and when the last publisher handle
    /// goes; blocking receives wait on it.
    ready: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    /// Messages lost to the overflow policy.
    lagged: AtomicU64,
    /// Set when the subscription side is dropped so the publisher can
    /// prune this queue.
    closed: AtomicBool,
}

/// The sender half of one subscription.
#[derive(Debug)]
enum SubscriberTx<T> {
    /// Unbounded channel plus a flag the receiver sets on drop, so
    /// liveness is observable without publishing a message.
    Channel(Sender<T>, Arc<AtomicBool>),
    Bounded(Arc<BoundedQueue<T>>),
}

/// The subscriber list every handle of one topic shares.
#[derive(Debug)]
struct Subscribers<T>(Mutex<Vec<SubscriberTx<T>>>);

impl<T> Drop for Subscribers<T> {
    /// The last publisher handle is gone: wake receivers blocked on a
    /// bounded queue so they see the end of the stream. (Channel
    /// receivers wake on their own when the senders drop.)
    fn drop(&mut self) {
        for tx in self.0.get_mut() {
            if let SubscriberTx::Bounded(q) = tx {
                // Taking the queue lock orders this wake-up after a
                // receiver's liveness check, so none can miss it.
                drop(q.queue.lock());
                q.ready.notify_all();
            }
        }
    }
}

/// The publisher end of a pub/sub topic.
///
/// Cloning produces another handle to the same topic. Messages are cloned
/// per subscriber; subscribers that were dropped are pruned lazily.
#[derive(Debug, Clone)]
pub struct Publisher<T> {
    subscribers: Arc<Subscribers<T>>,
}

impl<T: Clone> Publisher<T> {
    /// Creates a topic with no subscribers.
    #[must_use]
    pub fn new() -> Self {
        Publisher {
            subscribers: Arc::new(Subscribers(Mutex::new(Vec::new()))),
        }
    }

    /// Subscribes to the topic; every message published afterwards is
    /// delivered to the returned subscription. The queue is unbounded —
    /// a subscriber that never drains it grows it without limit; use
    /// [`Publisher::subscribe_bounded`] where that matters.
    #[must_use]
    pub fn subscribe(&self) -> Subscription<T> {
        let (tx, rx) = unbounded();
        let closed = Arc::new(AtomicBool::new(false));
        self.subscribers
            .0
            .lock()
            .push(SubscriberTx::Channel(tx, Arc::clone(&closed)));
        Subscription {
            rx: SubscriptionRx::Channel(rx, closed),
        }
    }

    /// Subscribes with a queue bounded at `capacity` messages. When the
    /// subscriber falls behind, `policy` decides which message is lost;
    /// every loss increments the subscription's
    /// [lag counter](Subscription::lag_count).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn subscribe_bounded(&self, capacity: usize, policy: OverflowPolicy) -> Subscription<T> {
        assert!(capacity > 0, "bounded subscription needs capacity >= 1");
        let queue = Arc::new(BoundedQueue {
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            ready: Condvar::new(),
            capacity,
            policy,
            lagged: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        self.subscribers
            .0
            .lock()
            .push(SubscriberTx::Bounded(Arc::clone(&queue)));
        Subscription {
            rx: SubscriptionRx::Bounded {
                queue,
                publisher_alive: Arc::downgrade(&self.subscribers),
            },
        }
    }

    /// Publishes a message to all current subscribers. Returns the number
    /// of subscribers the message was enqueued to (a bounded subscriber
    /// whose overflow policy discarded this message is not counted, but
    /// stays subscribed).
    pub fn publish(&self, message: T) -> usize {
        let mut subs = self.subscribers.0.lock();
        let mut delivered = 0;
        subs.retain(|tx| match tx {
            SubscriberTx::Channel(tx, closed) => {
                if !closed.load(Ordering::Acquire) && tx.send(message.clone()).is_ok() {
                    delivered += 1;
                    true
                } else {
                    false
                }
            }
            SubscriberTx::Bounded(q) => {
                if q.closed.load(Ordering::Acquire) {
                    return false;
                }
                let mut queue = q.queue.lock();
                if queue.len() >= q.capacity {
                    q.lagged.fetch_add(1, Ordering::Relaxed);
                    match q.policy {
                        OverflowPolicy::DropOldest => {
                            queue.pop_front();
                        }
                        OverflowPolicy::DropNewest => return true,
                    }
                }
                queue.push_back(message.clone());
                drop(queue);
                q.ready.notify_one();
                delivered += 1;
                true
            }
        });
        delivered
    }

    /// Number of live subscribers (after pruning on the last publish).
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.0.lock().len()
    }

    /// Number of subscribers that have not been dropped, pruning the
    /// dropped ones. Unlike [`Publisher::subscriber_count`] this is
    /// accurate without an intervening publish, which lets a forwarder
    /// notice on an *idle* topic that nobody is listening any more.
    #[must_use]
    pub fn live_subscriber_count(&self) -> usize {
        let mut subs = self.subscribers.0.lock();
        subs.retain(|tx| match tx {
            SubscriberTx::Channel(_, closed) => !closed.load(Ordering::Acquire),
            SubscriberTx::Bounded(q) => !q.closed.load(Ordering::Acquire),
        });
        subs.len()
    }
}

impl<T> Publisher<T> {
    /// A handle that does not keep the topic alive.
    pub(crate) fn downgrade(&self) -> WeakPublisher<T> {
        WeakPublisher(Arc::downgrade(&self.subscribers))
    }
}

/// A non-owning [`Publisher`] handle: once every `Publisher` of the
/// topic is dropped, it no longer upgrades.
#[derive(Debug)]
pub(crate) struct WeakPublisher<T>(Weak<Subscribers<T>>);

impl<T> WeakPublisher<T> {
    pub(crate) fn upgrade(&self) -> Option<Publisher<T>> {
        self.0
            .upgrade()
            .map(|subscribers| Publisher { subscribers })
    }
}

impl<T: Clone> Default for Publisher<T> {
    fn default() -> Self {
        Publisher::new()
    }
}

/// The receiver half of one subscription.
#[derive(Debug)]
enum SubscriptionRx<T> {
    Channel(Receiver<T>, Arc<AtomicBool>),
    Bounded {
        queue: Arc<BoundedQueue<T>>,
        /// Dead once every publisher handle is gone, ending blocking
        /// receives.
        publisher_alive: Weak<Subscribers<T>>,
    },
}

/// The subscriber end of a pub/sub topic.
#[derive(Debug)]
pub struct Subscription<T> {
    rx: SubscriptionRx<T>,
}

impl<T> BoundedQueue<T> {
    /// Pops the next message, waiting on `ready` until one is queued,
    /// every publisher handle is gone, or `deadline` passes.
    fn pop_until(&self, alive: &Weak<Subscribers<T>>, deadline: Option<Instant>) -> Option<T> {
        let mut queue = self.queue.lock();
        loop {
            if let Some(v) = queue.pop_front() {
                return Some(v);
            }
            // `strong_count`, not `upgrade`: a receiver holding the last
            // strong handle would run the wake-up in `Subscribers::drop`
            // under its own queue lock.
            if alive.strong_count() == 0 {
                return None;
            }
            queue = match deadline {
                None => self
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.ready
                        .wait_timeout(queue, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }
}

impl<T> Subscription<T> {
    /// Blocks until the next message (or the publisher is dropped).
    pub fn recv(&self) -> Option<T> {
        match &self.rx {
            SubscriptionRx::Channel(rx, _) => rx.recv().ok(),
            SubscriptionRx::Bounded {
                queue,
                publisher_alive,
            } => queue.pop_until(publisher_alive, None),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        match &self.rx {
            SubscriptionRx::Channel(rx, _) => rx.try_recv().ok(),
            SubscriptionRx::Bounded { queue, .. } => queue.queue.lock().pop_front(),
        }
    }

    /// Blocks up to `timeout` for the next message.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        match &self.rx {
            SubscriptionRx::Channel(rx, _) => rx.recv_timeout(timeout).ok(),
            SubscriptionRx::Bounded {
                queue,
                publisher_alive,
            } => queue.pop_until(publisher_alive, Some(Instant::now() + timeout)),
        }
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = self.try_recv() {
            out.push(v);
        }
        out
    }

    /// How many messages this subscription has lost to its overflow
    /// policy. Always zero for unbounded subscriptions.
    #[must_use]
    pub fn lag_count(&self) -> u64 {
        match &self.rx {
            SubscriptionRx::Channel(..) => 0,
            SubscriptionRx::Bounded { queue, .. } => queue.lagged.load(Ordering::Relaxed),
        }
    }
}

impl<T> Drop for Subscription<T> {
    fn drop(&mut self) {
        match &self.rx {
            SubscriptionRx::Channel(_, closed) => closed.store(true, Ordering::Release),
            SubscriptionRx::Bounded { queue, .. } => {
                queue.closed.store(true, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_to_all_subscribers() {
        let topic: Publisher<String> = Publisher::new();
        let s1 = topic.subscribe();
        let s2 = topic.subscribe();
        assert_eq!(topic.publish("hello".into()), 2);
        assert_eq!(s1.recv().unwrap(), "hello");
        assert_eq!(s2.recv().unwrap(), "hello");
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let topic: Publisher<u32> = Publisher::new();
        let s1 = topic.subscribe();
        {
            let _s2 = topic.subscribe();
        }
        assert_eq!(topic.publish(1), 1);
        assert_eq!(s1.recv(), Some(1));
        assert_eq!(topic.subscriber_count(), 1);
    }

    #[test]
    fn try_recv_and_drain() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe();
        assert_eq!(s.try_recv(), None);
        topic.publish(1);
        topic.publish(2);
        topic.publish(3);
        assert_eq!(s.drain(), vec![1, 2, 3]);
        assert_eq!(s.try_recv(), None);
    }

    #[test]
    fn publish_without_subscribers_is_fine() {
        let topic: Publisher<u32> = Publisher::new();
        assert_eq!(topic.publish(42), 0);
    }

    #[test]
    fn late_subscriber_misses_earlier_messages() {
        let topic: Publisher<u32> = Publisher::new();
        topic.publish(1);
        let s = topic.subscribe();
        topic.publish(2);
        assert_eq!(s.drain(), vec![2]);
    }

    #[test]
    fn cross_thread_delivery() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                topic.publish(i);
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(s.recv().unwrap());
        }
        t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_timeout_elapses() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe();
        assert_eq!(s.recv_timeout(Duration::from_millis(10)), None);
        topic.publish(7);
        assert_eq!(s.recv_timeout(Duration::from_millis(100)), Some(7));
    }

    #[test]
    fn recv_returns_none_after_publisher_drop() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe();
        topic.publish(1);
        drop(topic);
        // Queued message still delivered, then a clean end-of-stream.
        assert_eq!(s.recv(), Some(1));
        assert_eq!(s.recv(), None);
        assert_eq!(s.recv_timeout(Duration::from_millis(50)), None);
    }

    #[test]
    fn blocking_recv_wakes_on_publisher_drop() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            drop(topic);
        });
        // Blocks with nothing queued, then unblocks with None.
        assert_eq!(s.recv(), None);
        t.join().unwrap();
    }

    #[test]
    fn concurrent_publishers_lose_nothing() {
        let topic: Publisher<u64> = Publisher::new();
        let s = topic.subscribe();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let topic = topic.clone();
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        topic.publish(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut got = s.drain();
        assert_eq!(got.len(), 1000);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 1000, "duplicates or losses under contention");
        // Per-publisher order is preserved even though threads interleave.
        drop(topic);
    }

    #[test]
    fn bounded_drop_oldest_keeps_the_newest() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(3, OverflowPolicy::DropOldest);
        for i in 0..10 {
            topic.publish(i);
        }
        assert_eq!(s.lag_count(), 7);
        assert_eq!(s.drain(), vec![7, 8, 9]);
    }

    #[test]
    fn bounded_drop_newest_keeps_the_oldest() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(3, OverflowPolicy::DropNewest);
        let mut delivered = 0;
        for i in 0..10 {
            delivered += usize::from(topic.publish(i) == 1);
        }
        assert_eq!(delivered, 3, "only the first three fit");
        assert_eq!(s.lag_count(), 7);
        assert_eq!(s.drain(), vec![0, 1, 2]);
        // Still subscribed: new messages flow once there is room again.
        topic.publish(42);
        assert_eq!(s.recv_timeout(Duration::from_millis(100)), Some(42));
    }

    #[test]
    fn bounded_subscriber_that_keeps_up_sees_everything() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(64, OverflowPolicy::DropOldest);
        // Publish in bursts no larger than the capacity and drain fully
        // between bursts: a subscriber that keeps up loses nothing.
        let mut got = Vec::new();
        for batch in 0..20u32 {
            for i in 0..50 {
                topic.publish(batch * 50 + i);
            }
            for _ in 0..50 {
                got.push(s.recv_timeout(Duration::from_secs(2)).unwrap());
            }
        }
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        assert_eq!(s.lag_count(), 0);
    }

    #[test]
    fn live_subscriber_count_sees_drops_without_a_publish() {
        let topic: Publisher<u32> = Publisher::new();
        let a = topic.subscribe();
        let b = topic.subscribe_bounded(4, OverflowPolicy::DropOldest);
        assert_eq!(topic.live_subscriber_count(), 2);
        drop(a);
        assert_eq!(topic.live_subscriber_count(), 1, "no publish needed");
        drop(b);
        assert_eq!(topic.live_subscriber_count(), 0);
    }

    #[test]
    fn bounded_recv_wakes_when_the_last_publisher_drops() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(4, OverflowPolicy::DropOldest);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || {
            let got = s.recv();
            done_tx.send(Instant::now()).unwrap();
            got
        });
        let clone = topic.clone();
        std::thread::sleep(Duration::from_millis(50));
        drop(topic);
        std::thread::sleep(Duration::from_millis(20));
        // One handle is still alive: the receiver keeps waiting.
        assert!(done_rx.try_recv().is_err());
        let dropped_at = Instant::now();
        drop(clone);
        let woke_at = done_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("blocked recv() ends within 1 s of the last publisher drop");
        assert!(woke_at.duration_since(dropped_at) < Duration::from_secs(1));
        assert_eq!(receiver.join().unwrap(), None);
    }

    #[test]
    fn bounded_recv_timeout_returns_a_message_published_mid_wait() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(4, OverflowPolicy::DropNewest);
        let publisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            topic.publish(9);
            topic
        });
        let started = Instant::now();
        assert_eq!(s.recv_timeout(Duration::from_secs(2)), Some(9));
        // Woken by the publish, not by the 2 s deadline.
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{:?}",
            started.elapsed()
        );
        drop(publisher.join().unwrap());
    }

    #[test]
    fn dropped_bounded_subscriber_is_pruned() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(4, OverflowPolicy::DropOldest);
        drop(s);
        assert_eq!(topic.publish(1), 0);
        assert_eq!(topic.subscriber_count(), 0);
    }
}
