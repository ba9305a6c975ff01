//! One partition of the clustered Location Service.
//!
//! A [`PartitionNode`] runs a full supervised [`LocationService`] and
//! plays two roles with it at once:
//!
//! - **Owner** of the objects the hash ring assigns to it: ingests live
//!   sensor batches, evaluates subscription rules, answers queries at
//!   [`Full`](mw_core::AnswerQuality::Full) quality — and streams a
//!   [`Delta`] of fresh fixes to its fixed replica after every batch.
//! - **Replica** of its ring predecessor: applies the predecessor's
//!   deltas as *last-known-good seeds only* — never as live readings.
//!   When the predecessor dies and the router fails over here, queries
//!   for its objects miss live fusion, fall down the degradation ladder,
//!   and come back honestly marked
//!   [`LastKnownGood`](mw_core::AnswerQuality::LastKnownGood). The
//!   cluster degrades loudly, exactly like a quarantined sensor does on
//!   a single node.
//!
//! While a peer is dead, batches the router forwards here are journaled
//! verbatim (bounded) besides seeding last-known-good. The restarted
//! peer calls [`NodeRequest::Handoff`] to replay that journal as real
//! ingest and returns to `Full` answers as soon as fresh data flows.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mw_bus::remote::{remote_subscribe_events, RemoteEvent, RemoteSubscription, RemoteTopicServer};
use mw_bus::{Broker, Publisher, RemoteRpcClient, RemoteRpcServer};
use mw_core::{LocationFix, LocationService, Notification};
use mw_geometry::Rect;
use mw_model::SimTime;
use mw_obs::MetricsRegistry;
use mw_sensors::health::{HealthConfig, SensorSupervisor};
use mw_sensors::AdapterOutput;
use mw_spatial_db::SpatialDatabase;
use parking_lot::Mutex;

use crate::directory::DirectoryClient;
use crate::proto::{
    Delta, HandoffState, JournalEntry, MemberInfo, NodeRequest, NodeResponse, NodeStats, WireError,
};
use crate::ring::NodeId;

/// Configuration for one partition node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id.
    pub node: NodeId,
    /// Directory to announce to and heartbeat against.
    pub directory: SocketAddr,
    /// Bind addresses (use port 0 for ephemeral).
    pub rpc_addr: String,
    /// Bind address of the replication delta topic.
    pub delta_addr: String,
    /// Bind address of the notification topic.
    pub notify_addr: String,
    /// Directory heartbeat period.
    pub heartbeat_interval: Duration,
    /// Max journal entries retained per dead peer; beyond it the oldest
    /// entry is dropped and a later handoff is flagged as a resync.
    pub journal_capacity: usize,
    /// Timeout for outbound RPC (directory, handoff, resync).
    pub rpc_timeout: Duration,
}

impl NodeConfig {
    /// Defaults for `node` against `directory`: ephemeral ports, 100 ms
    /// heartbeats, a 1024-entry journal.
    #[must_use]
    pub fn new(node: impl Into<NodeId>, directory: SocketAddr) -> Self {
        NodeConfig {
            node: node.into(),
            directory,
            rpc_addr: "127.0.0.1:0".to_string(),
            delta_addr: "127.0.0.1:0".to_string(),
            notify_addr: "127.0.0.1:0".to_string(),
            heartbeat_interval: Duration::from_millis(100),
            journal_capacity: 1024,
            rpc_timeout: Duration::from_secs(2),
        }
    }
}

#[derive(Debug, Default)]
struct NodeCounters {
    deltas_published: mw_obs::Counter,
    deltas_applied: mw_obs::Counter,
    delta_resyncs: mw_obs::Counter,
    forwarded_ingests: mw_obs::Counter,
    lkg_seeds: mw_obs::Counter,
    handoffs_served: mw_obs::Counter,
    journal_replayed: mw_obs::Counter,
}

impl NodeCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        NodeCounters {
            deltas_published: registry.counter("cluster.node.deltas_published"),
            deltas_applied: registry.counter("cluster.node.deltas_applied"),
            delta_resyncs: registry.counter("cluster.node.delta_resyncs"),
            forwarded_ingests: registry.counter("cluster.node.forwarded_ingests"),
            lkg_seeds: registry.counter("cluster.node.lkg_seeds"),
            handoffs_served: registry.counter("cluster.node.handoffs_served"),
            journal_replayed: registry.counter("cluster.node.journal_replayed"),
        }
    }
}

#[derive(Debug, Default)]
struct Journal {
    next_seq: u64,
    oldest_retained: u64,
    entries: VecDeque<JournalEntry>,
}

impl Journal {
    fn push(&mut self, now: SimTime, outputs: Vec<AdapterOutput>, capacity: usize) {
        if self.next_seq == 0 {
            self.next_seq = 1;
            self.oldest_retained = 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(JournalEntry { seq, now, outputs });
        while self.entries.len() > capacity {
            self.entries.pop_front();
            self.oldest_retained += 1;
        }
    }
}

struct NodeInner {
    service: Arc<LocationService>,
    delta_pub: Publisher<Delta>,
    notify_pub: Publisher<Notification>,
    delta_seq: AtomicU64,
    /// peer → latest applied replication sequence.
    applied: Mutex<HashMap<NodeId, u64>>,
    /// dead peer → journaled forwarded batches.
    journals: Mutex<HashMap<NodeId, Journal>>,
    journal_capacity: usize,
    counters: NodeCounters,
}

impl NodeInner {
    fn handle(&self, request: NodeRequest) -> NodeResponse {
        match request {
            NodeRequest::Ingest {
                outputs,
                now,
                forwarded_for: None,
            } => self.ingest_owned(outputs, now),
            NodeRequest::Ingest {
                outputs,
                now,
                forwarded_for: Some(owner),
            } => self.ingest_forwarded(&owner, outputs, now),
            NodeRequest::Query(wire) => match self.service.query(wire.to_query()) {
                Ok(answer) => NodeResponse::Answer(answer),
                Err(e) => NodeResponse::Error(WireError::from(&e)),
            },
            NodeRequest::SubscribeRule(rule) => NodeResponse::Subscribed {
                id: self.service.subscribe_rule(rule).value(),
            },
            NodeRequest::Handoff { for_node, from_seq } => {
                self.counters.handoffs_served.inc();
                NodeResponse::Handoff(self.handoff(&for_node, from_seq))
            }
            NodeRequest::FetchState { now } => {
                NodeResponse::State(self.service.export_partition_state(now))
            }
            NodeRequest::Stats => NodeResponse::Stats(self.stats()),
            NodeRequest::Ping => NodeResponse::Pong,
        }
    }

    /// Live ingest of this node's own partition: real fusion, rule
    /// evaluation, then one replication delta with the fresh fix of
    /// every touched object.
    fn ingest_owned(&self, outputs: Vec<AdapterOutput>, now: SimTime) -> NodeResponse {
        let mut touched: Vec<mw_sensors::MobileObjectId> = outputs
            .iter()
            .flat_map(|o| o.readings.iter().map(|r| r.object.clone()))
            .collect();
        touched.sort();
        touched.dedup();

        let notifications = self.service.ingest_batch(outputs, now);
        for n in &notifications {
            self.notify_pub.publish(n.clone());
        }

        // `locate` both yields the delta payload and records the fix as
        // this node's own last-known-good (the service is supervised).
        let fixes: Vec<LocationFix> = touched
            .iter()
            .filter_map(|object| self.service.locate(object, now).ok())
            .collect();
        if !fixes.is_empty() {
            let seq = self.delta_seq.fetch_add(1, Ordering::Relaxed) + 1;
            self.counters.deltas_published.inc();
            self.delta_pub.publish(Delta { seq, now, fixes });
        }
        NodeResponse::Ingested {
            notifications: notifications.len() as u64,
        }
    }

    /// Failover ingest on behalf of dead `owner`: journal the batch
    /// verbatim for the owner's eventual catch-up, and seed
    /// last-known-good so queries served here stay useful (and honestly
    /// degraded) meanwhile. Deliberately *not* live ingest: this node
    /// does not own these objects and must not pretend to `Full`
    /// quality for them.
    fn ingest_forwarded(
        &self,
        owner: &NodeId,
        outputs: Vec<AdapterOutput>,
        now: SimTime,
    ) -> NodeResponse {
        self.counters.forwarded_ingests.inc();
        for output in &outputs {
            for reading in &output.readings {
                self.seed_from_reading(reading, now);
            }
        }
        self.journals.lock().entry(owner.clone()).or_default().push(
            now,
            outputs,
            self.journal_capacity,
        );
        NodeResponse::Ingested { notifications: 0 }
    }

    /// A last-known-good fix derived from a raw reading: the reported
    /// region at the sensor's calibrated hit probability. Weaker than a
    /// fused fix — which is fine, because everything served from it is
    /// already marked `LastKnownGood`.
    fn seed_from_reading(&self, reading: &mw_sensors::SensorReading, now: SimTime) {
        let probability = reading.spec.hit_probability();
        let fix = LocationFix {
            object: reading.object.clone(),
            region: reading.region,
            probability,
            band: self.service.band_thresholds().classify(probability),
            symbolic: Some(reading.glob_prefix.clone()),
            at: now,
        };
        self.counters.lkg_seeds.inc();
        self.service.import_last_good(fix);
    }

    fn apply_delta(&self, peer: &NodeId, delta: Delta) {
        for fix in delta.fixes {
            self.counters.lkg_seeds.inc();
            self.service.import_last_good(fix);
        }
        self.counters.deltas_applied.inc();
        self.applied.lock().insert(peer.clone(), delta.seq);
    }

    fn handoff(&self, for_node: &NodeId, from_seq: u64) -> HandoffState {
        let journals = self.journals.lock();
        let (resync, journal, next_seq) = match journals.get(for_node) {
            None => (from_seq > 1, Vec::new(), 1),
            Some(j) => (
                from_seq < j.oldest_retained,
                j.entries
                    .iter()
                    .filter(|e| e.seq >= from_seq)
                    .cloned()
                    .collect(),
                j.next_seq,
            ),
        };
        drop(journals);
        let latest = journal.last().map_or(SimTime::ZERO, |e| e.now);
        HandoffState {
            resync,
            journal,
            last_good: self.service.export_partition_state(latest).last_good,
            next_seq,
        }
    }

    fn stats(&self) -> NodeStats {
        let mut applied: Vec<(NodeId, u64)> = self
            .applied
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        applied.sort();
        NodeStats {
            delta_seq: self.delta_seq.load(Ordering::Relaxed),
            applied,
            deltas_applied: self.counters.deltas_applied.get(),
            delta_resyncs: self.counters.delta_resyncs.get(),
            journal_len: self
                .journals
                .lock()
                .values()
                .map(|j| j.entries.len() as u64)
                .sum(),
            forwarded_ingests: self.counters.forwarded_ingests.get(),
            lkg_seeds: self.counters.lkg_seeds.get(),
            handoffs_served: self.counters.handoffs_served.get(),
            journal_replayed: self.counters.journal_replayed.get(),
        }
    }
}

/// A running partition node: RPC endpoint, delta topic, notify topic,
/// directory heartbeat, and a follower thread replicating the ring
/// predecessor.
pub struct PartitionNode {
    node: NodeId,
    inner: Arc<NodeInner>,
    rpc: RemoteRpcServer,
    delta_server: RemoteTopicServer,
    notify_server: RemoteTopicServer,
    registry: MetricsRegistry,
    stop: Arc<AtomicBool>,
    _broker: Broker,
}

impl PartitionNode {
    /// Builds the service, catches up from this node's replica (journal
    /// replay + last-known-good import) if one is reachable, binds all
    /// three endpoints, announces to the directory, and starts the
    /// heartbeat and follower threads.
    ///
    /// # Errors
    ///
    /// Returns bind errors and directory announce failures; a failed
    /// catch-up (no reachable replica) is *not* an error — a first boot
    /// has nothing to catch up from.
    pub fn start(
        config: NodeConfig,
        db: SpatialDatabase,
        universe: Rect,
    ) -> std::io::Result<PartitionNode> {
        let broker = Broker::new();
        let registry = MetricsRegistry::new();
        let supervisor = SensorSupervisor::new(HealthConfig::new(universe)).shared();
        let service = LocationService::new_supervised(db, universe, &broker, &registry, supervisor);

        let delta_pub: Publisher<Delta> = Publisher::new();
        let notify_pub: Publisher<Notification> = Publisher::new();
        let inner = Arc::new(NodeInner {
            service: Arc::clone(&service),
            delta_pub: delta_pub.clone(),
            notify_pub: notify_pub.clone(),
            delta_seq: AtomicU64::new(0),
            applied: Mutex::new(HashMap::new()),
            journals: Mutex::new(HashMap::new()),
            journal_capacity: config.journal_capacity,
            counters: NodeCounters::new(&registry),
        });

        let directory = DirectoryClient::new(config.directory, config.rpc_timeout);

        // Catch up *before* serving: replay what our replica journaled
        // for us while we were dead, so the first routed query already
        // sees data.
        Self::catch_up(&inner, &directory, &config);

        let rpc = {
            let inner = Arc::clone(&inner);
            RemoteRpcServer::bind(&config.rpc_addr, move |request: NodeRequest| {
                inner.handle(request)
            })?
        };
        let delta_server = RemoteTopicServer::bind(&config.delta_addr, delta_pub)?;
        let notify_server = RemoteTopicServer::bind(&config.notify_addr, notify_pub)?;

        directory
            .announce(MemberInfo {
                node: config.node.clone(),
                rpc_addr: rpc.local_addr().to_string(),
                delta_addr: delta_server.local_addr().to_string(),
                notify_addr: notify_server.local_addr().to_string(),
                alive: true,
            })
            .map_err(|e| {
                std::io::Error::new(e.kind(), format!("directory announce failed: {e}"))
            })?;

        let stop = Arc::new(AtomicBool::new(false));

        // Heartbeat thread: keeps the directory entry alive and
        // re-announces if the directory evicted us during a long stall.
        {
            let stop = Arc::clone(&stop);
            let node = config.node.clone();
            let interval = config.heartbeat_interval;
            let me = MemberInfo {
                node: node.clone(),
                rpc_addr: rpc.local_addr().to_string(),
                delta_addr: delta_server.local_addr().to_string(),
                notify_addr: notify_server.local_addr().to_string(),
                alive: true,
            };
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    match directory.heartbeat(&node) {
                        Ok(true) => {}
                        Ok(false) => {
                            let _ = directory.announce(me.clone());
                        }
                        Err(_) => {} // directory unreachable; keep trying
                    }
                }
            });
        }

        // Follower thread: replicate the ring predecessor's delta topic.
        {
            let stop = Arc::clone(&stop);
            let inner = Arc::clone(&inner);
            let config = config.clone();
            std::thread::spawn(move || follow_predecessor(&inner, &config, &stop));
        }

        Ok(PartitionNode {
            node: config.node,
            inner,
            rpc,
            delta_server,
            notify_server,
            registry,
            stop,
            _broker: broker,
        })
    }

    fn catch_up(inner: &Arc<NodeInner>, directory: &DirectoryClient, config: &NodeConfig) {
        let Ok(view) = directory.list() else { return };
        let Some(replica) = successor_of(&view.members, &config.node) else {
            return;
        };
        if !replica.alive {
            return;
        }
        let Ok(addr) = replica.rpc_addr.parse() else {
            return;
        };
        let rpc: RemoteRpcClient<NodeRequest, NodeResponse> =
            RemoteRpcClient::new(addr, config.rpc_timeout);
        let Ok(NodeResponse::Handoff(handoff)) = rpc.call(&NodeRequest::Handoff {
            for_node: config.node.clone(),
            from_seq: 1,
        }) else {
            return;
        };
        // Seeds first, journal second: live readings from the replay
        // must win over the coarser last-known-good fixes.
        for fix in handoff.last_good {
            inner.counters.lkg_seeds.inc();
            inner.service.import_last_good(fix);
        }
        for entry in handoff.journal {
            inner.counters.journal_replayed.inc();
            let _ = inner.service.ingest_batch(entry.outputs, entry.now);
        }
    }

    /// This node's id.
    #[must_use]
    pub fn node(&self) -> &NodeId {
        &self.node
    }

    /// Address of the request/response endpoint.
    #[must_use]
    pub fn rpc_addr(&self) -> SocketAddr {
        self.rpc.local_addr()
    }

    /// Address of the replication delta topic.
    #[must_use]
    pub fn delta_addr(&self) -> SocketAddr {
        self.delta_server.local_addr()
    }

    /// Address of the notification topic.
    #[must_use]
    pub fn notify_addr(&self) -> SocketAddr {
        self.notify_server.local_addr()
    }

    /// The node's metrics registry (`cluster.node.*`, plus everything
    /// the embedded service publishes).
    #[must_use]
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Counter snapshot, as served over [`NodeRequest::Stats`].
    #[must_use]
    pub fn stats(&self) -> NodeStats {
        self.inner.stats()
    }

    /// The embedded Location Service (for in-process tests).
    #[must_use]
    pub fn service(&self) -> &Arc<LocationService> {
        &self.inner.service
    }

    /// Stops all threads and listeners (also done on drop).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.rpc.shutdown();
        self.delta_server.shutdown();
        self.notify_server.shutdown();
    }
}

impl Drop for PartitionNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The member this node replicates: its predecessor in sorted order over
/// *all announced members* (dead or alive), wrapping — the inverse of
/// [`crate::ring::HashRing::replica_of`]. Using the announced set, not
/// the alive set, keeps the pairing stable across kills and restarts.
fn predecessor_of<'a>(members: &'a [MemberInfo], node: &NodeId) -> Option<&'a MemberInfo> {
    let mut ids: Vec<&MemberInfo> = members.iter().collect();
    ids.sort_by(|a, b| a.node.cmp(&b.node));
    let at = ids.iter().position(|m| &m.node == node)?;
    if ids.len() < 2 {
        return None;
    }
    Some(ids[(at + ids.len() - 1) % ids.len()])
}

/// The member that replicates this node (sorted successor, wrapping).
fn successor_of<'a>(members: &'a [MemberInfo], node: &NodeId) -> Option<&'a MemberInfo> {
    let mut ids: Vec<&MemberInfo> = members.iter().collect();
    ids.sort_by(|a, b| a.node.cmp(&b.node));
    let at = ids.iter().position(|m| &m.node == node)?;
    if ids.len() < 2 {
        return None;
    }
    Some(ids[(at + 1) % ids.len()])
}

/// Follower loop: keep a delta subscription on the current predecessor,
/// re-subscribing when the predecessor (or its address, after a restart)
/// changes; apply `Data` deltas as last-known-good seeds and answer
/// `Lost` gaps with a full-state resync over RPC. Between directory
/// refreshes the loop blocks on the subscription, so a delta is applied
/// as soon as it arrives.
fn follow_predecessor(inner: &Arc<NodeInner>, config: &NodeConfig, stop: &AtomicBool) {
    // How often the predecessor is re-resolved; a cheap RPC.
    const REFRESH: Duration = Duration::from_millis(250);
    let directory = DirectoryClient::new(config.directory, config.rpc_timeout);
    let mut following: Option<(NodeId, String)> = None;
    let mut sub: Option<RemoteSubscription<RemoteEvent<Delta>>> = None;
    let mut peer_rpc: Option<RemoteRpcClient<NodeRequest, NodeResponse>> = None;
    let mut last_refresh = std::time::Instant::now() - Duration::from_secs(1);

    while !stop.load(Ordering::Relaxed) {
        if last_refresh.elapsed() >= REFRESH {
            last_refresh = std::time::Instant::now();
            if let Ok(view) = directory.list() {
                let pred = predecessor_of(&view.members, &config.node)
                    .map(|m| (m.node.clone(), m.delta_addr.clone()));
                if pred != following {
                    sub = None;
                    peer_rpc = None;
                    following = pred;
                    if let Some((node, delta_addr)) = &following {
                        if let Ok(addr) = delta_addr.parse() {
                            sub = remote_subscribe_events::<Delta>(addr).ok();
                        }
                        if let Some(member) = view.member(node) {
                            if let Ok(addr) = member.rpc_addr.parse() {
                                peer_rpc = Some(RemoteRpcClient::new(addr, config.rpc_timeout));
                            }
                        }
                    }
                }
            }
        }

        let Some(active) = &sub else {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        let Some(event) = active.recv_timeout(REFRESH.saturating_sub(last_refresh.elapsed()))
        else {
            if last_refresh.elapsed() < REFRESH {
                // `None` before the deadline: the stream has ended (its
                // redial budget ran out). Wait, as with no subscription,
                // for the directory to show a new predecessor address.
                sub = None;
            }
            continue;
        };
        if let Some((peer, _)) = &following {
            match event {
                RemoteEvent::Data(delta) => inner.apply_delta(peer, delta),
                RemoteEvent::Lost { .. } => {
                    // Replay history is gone: fall back to a full-state
                    // fetch so last-known-good is complete again.
                    inner.counters.delta_resyncs.inc();
                    if let Some(rpc) = &peer_rpc {
                        // Only `last_good` is consumed, so the export
                        // time is irrelevant.
                        if let Ok(NodeResponse::State(state)) =
                            rpc.call(&NodeRequest::FetchState { now: SimTime::ZERO })
                        {
                            for fix in state.last_good {
                                inner.counters.lkg_seeds.inc();
                                inner.service.import_last_good(fix);
                            }
                        }
                    }
                }
            }
        }
    }
}
