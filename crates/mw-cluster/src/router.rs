//! The client-side router: the piece applications link against to talk
//! to a partitioned Location Service as if it were one process.
//!
//! The router resolves the directory view into a seeded hash ring,
//! routes every ingest batch and query to the owning partition, and —
//! this is the robustness headline — fails over to the owner's fixed
//! replica the moment an owner RPC fails. Answers served during
//! failover come back marked
//! [`LastKnownGood`](mw_core::AnswerQuality::LastKnownGood) by the
//! replica's degradation ladder; the router counts them
//! (`cluster.router.degraded_answers`) but never hides them.
//!
//! Suspicion is sticky: a failed owner stays suspect until
//! [`ClusterRouter::refresh`] sees it alive in the directory *and* a
//! ping succeeds, at which point the router also re-registers any
//! subscription rules the restarted node lost with its memory.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use mw_bus::remote::remote_subscribe_into;
use mw_bus::{Publisher, RemoteRpcClient, Subscription};
use mw_core::{AnswerQuality, LocationQuery, Notification, QueryAnswer, Rule};
use mw_model::SimTime;
use mw_obs::MetricsRegistry;
use mw_sensors::{AdapterOutput, MobileObjectId};
use parking_lot::Mutex;

use crate::directory::DirectoryClient;
use crate::proto::{ClusterView, NodeRequest, NodeResponse, NodeStats, WireError, WireQuery};
use crate::ring::{HashRing, NodeId};

/// Configuration for a [`ClusterRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The cluster seed — must match what every harness and test uses
    /// to reason about placement.
    pub seed: u64,
    /// The directory to resolve membership from.
    pub directory: SocketAddr,
    /// Timeout for node and directory RPC.
    pub rpc_timeout: Duration,
    /// Registry for the router's counters (`cluster.router.*`).
    pub metrics: Option<MetricsRegistry>,
}

impl RouterConfig {
    /// Defaults: 2 s RPC timeout, no metrics registry.
    #[must_use]
    pub fn new(seed: u64, directory: SocketAddr) -> Self {
        RouterConfig {
            seed,
            directory,
            rpc_timeout: Duration::from_secs(2),
            metrics: None,
        }
    }
}

/// Why a routed call failed.
#[derive(Debug)]
pub enum RouterError {
    /// The serving node answered with an application-level error (an
    /// answer, not a failure — no failover is attempted for these).
    Remote(WireError),
    /// Neither the owner nor its replica could serve the call.
    Unavailable {
        /// What was being routed.
        context: String,
    },
    /// The ring has no members yet.
    NoMembers,
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Remote(e) => write!(f, "remote error: {e}"),
            RouterError::Unavailable { context } => {
                write!(f, "no partition available for {context}")
            }
            RouterError::NoMembers => f.write_str("cluster has no members"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Counters exposed by [`ClusterRouter::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Owner→replica failover transitions (once per observed owner
    /// death, however many calls it affects).
    pub failovers: u64,
    /// Answers whose quality was below `Full`.
    pub degraded_answers: u64,
    /// Ingest batches forwarded to a replica on behalf of a dead owner.
    pub forwarded_ingests: u64,
    /// Rules re-registered after a node came back without its
    /// subscriptions.
    pub rules_reregistered: u64,
}

#[derive(Debug, Default)]
struct RouterCounters {
    failovers: mw_obs::Counter,
    degraded_answers: mw_obs::Counter,
    forwarded_ingests: mw_obs::Counter,
    rules_reregistered: mw_obs::Counter,
}

impl RouterCounters {
    fn new(registry: Option<&MetricsRegistry>) -> Self {
        match registry {
            None => RouterCounters::default(),
            Some(reg) => RouterCounters {
                failovers: reg.counter("cluster.router.failovers"),
                degraded_answers: reg.counter("cluster.router.degraded_answers"),
                forwarded_ingests: reg.counter("cluster.router.forwarded_ingests"),
                rules_reregistered: reg.counter("cluster.router.rules_reregistered"),
            },
        }
    }
}

type NodeClient = Arc<RemoteRpcClient<NodeRequest, NodeResponse>>;

struct RouterState {
    view: ClusterView,
    ring: HashRing,
    /// node → (rpc addr the client was built for, client).
    clients: HashMap<NodeId, (String, NodeClient)>,
    /// Nodes whose RPC failed; sticky until refresh proves them back.
    suspect: HashSet<NodeId>,
    /// Registered rules, by the node that should own them.
    rules: Vec<(NodeId, Rule)>,
    /// node → notify addr currently subscribed into the merged stream.
    feeds: HashMap<NodeId, String>,
}

/// What one routed ingest round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Notifications fired across all owners.
    pub notifications: u64,
    /// Batches delivered to live owners.
    pub delivered: u64,
    /// Batches forwarded to replicas of dead owners.
    pub forwarded: u64,
}

/// The partition-aware client library.
pub struct ClusterRouter {
    config: RouterConfig,
    directory: DirectoryClient,
    counters: RouterCounters,
    state: Mutex<RouterState>,
    /// Each node's notify stream is published straight into this topic
    /// by its remote subscription's reader thread, which ends once the
    /// router (the only handle) is dropped.
    merged_notifications: Publisher<Notification>,
}

impl ClusterRouter {
    /// Builds the router and performs an initial view refresh.
    ///
    /// # Errors
    ///
    /// Propagates the directory fetch failure.
    pub fn connect(config: RouterConfig) -> std::io::Result<Self> {
        let directory = DirectoryClient::new(config.directory, config.rpc_timeout);
        let counters = RouterCounters::new(config.metrics.as_ref());
        let router = ClusterRouter {
            directory,
            counters,
            state: Mutex::new(RouterState {
                view: ClusterView::default(),
                ring: HashRing::new(config.seed, []),
                clients: HashMap::new(),
                suspect: HashSet::new(),
                rules: Vec::new(),
                feeds: HashMap::new(),
            }),
            merged_notifications: Publisher::new(),
            config,
        };
        router.refresh()?;
        Ok(router)
    }

    /// Re-resolves the directory view: rebuilds the ring over *all
    /// announced members* (ownership is stable across deaths — dead
    /// owners fail over, they don't rehash), refreshes per-node clients
    /// whose addresses changed, clears suspicion for nodes that are
    /// both listed alive and answer a ping (re-registering their rules),
    /// and subscribes the merged notification stream to new notify
    /// addresses.
    ///
    /// # Errors
    ///
    /// Propagates the directory fetch failure.
    pub fn refresh(&self) -> std::io::Result<()> {
        let view = self.directory.list()?;
        let mut state = self.state.lock();

        state.ring = HashRing::new(
            self.config.seed,
            view.members.iter().map(|m| m.node.clone()),
        );

        for member in &view.members {
            let stale = match state.clients.get(&member.node) {
                Some((addr, _)) => addr != &member.rpc_addr,
                None => true,
            };
            if stale {
                if let Ok(addr) = member.rpc_addr.parse::<SocketAddr>() {
                    state.clients.insert(
                        member.node.clone(),
                        (
                            member.rpc_addr.clone(),
                            Arc::new(RemoteRpcClient::new(addr, self.config.rpc_timeout)),
                        ),
                    );
                }
            }
        }

        // Directory-evicted members are suspect even if the router never
        // saw one of their RPCs fail.
        for member in &view.members {
            if !member.alive {
                self.mark_suspect(&mut state, &member.node);
            }
        }

        // Revival: listed alive AND answering. A stale "alive" entry for
        // a node that just died must not clear suspicion (and must not
        // double-count a later failover).
        let candidates: Vec<NodeId> = state
            .suspect
            .iter()
            .filter(|n| view.member(n).is_some_and(|m| m.alive))
            .cloned()
            .collect();
        for node in candidates {
            let Some((_, client)) = state.clients.get(&node) else {
                continue;
            };
            let client = Arc::clone(client);
            if matches!(client.call(&NodeRequest::Ping), Ok(NodeResponse::Pong)) {
                state.suspect.remove(&node);
                // The restarted process lost its in-memory rule table.
                let rules: Vec<Rule> = state
                    .rules
                    .iter()
                    .filter(|(target, _)| target == &node)
                    .map(|(_, r)| r.clone())
                    .collect();
                for rule in rules {
                    if client.call(&NodeRequest::SubscribeRule(rule)).is_ok() {
                        self.counters.rules_reregistered.inc();
                    }
                }
            }
        }

        // Notification feeds follow notify-address changes (restarts
        // come back on fresh ephemeral ports). An address is tried once:
        // a node that refuses it is not retried until it re-announces.
        for member in &view.members {
            if !member.alive {
                continue;
            }
            let attached = state.feeds.get(&member.node) == Some(&member.notify_addr);
            if !attached {
                if let Ok(addr) = member.notify_addr.parse::<SocketAddr>() {
                    state
                        .feeds
                        .insert(member.node.clone(), member.notify_addr.clone());
                    // The remote subscription reconnects internally until
                    // its redial budget runs out.
                    let _ = remote_subscribe_into(addr, &self.merged_notifications);
                }
            }
        }

        state.view = view;
        Ok(())
    }

    fn mark_suspect(&self, state: &mut RouterState, node: &NodeId) {
        if state.suspect.insert(node.clone()) {
            self.counters.failovers.inc();
        }
    }

    fn client_of(state: &RouterState, node: &NodeId) -> Option<NodeClient> {
        state.clients.get(node).map(|(_, c)| Arc::clone(c))
    }

    /// Routes one round of sensor output to partition owners; batches
    /// for dead owners are forwarded to their replicas (journaled +
    /// last-known-good there).
    ///
    /// # Errors
    ///
    /// [`RouterError::NoMembers`] on an empty ring;
    /// [`RouterError::Unavailable`] when some batch could reach neither
    /// owner nor replica.
    pub fn ingest(
        &self,
        batches: Vec<(MobileObjectId, AdapterOutput)>,
        now: SimTime,
    ) -> Result<IngestReport, RouterError> {
        let mut by_owner: HashMap<NodeId, Vec<AdapterOutput>> = HashMap::new();
        {
            let state = self.state.lock();
            if state.ring.nodes().is_empty() {
                return Err(RouterError::NoMembers);
            }
            for (object, output) in batches {
                let owner = state
                    .ring
                    .owner(object.as_str())
                    .expect("non-empty ring")
                    .clone();
                by_owner.entry(owner).or_default().push(output);
            }
        }

        let mut report = IngestReport::default();
        let mut owners: Vec<NodeId> = by_owner.keys().cloned().collect();
        owners.sort();
        for owner in owners {
            let outputs = by_owner.remove(&owner).expect("key from map");
            report = self.route_ingest(&owner, outputs, now, report)?;
        }
        Ok(report)
    }

    fn route_ingest(
        &self,
        owner: &NodeId,
        outputs: Vec<AdapterOutput>,
        now: SimTime,
        mut report: IngestReport,
    ) -> Result<IngestReport, RouterError> {
        let (suspect, client, replica) = {
            let state = self.state.lock();
            (
                state.suspect.contains(owner),
                Self::client_of(&state, owner),
                state.ring.replica_of(owner).cloned(),
            )
        };

        if !suspect {
            if let Some(client) = client {
                match client.call(&NodeRequest::Ingest {
                    outputs: outputs.clone(),
                    now,
                    forwarded_for: None,
                }) {
                    Ok(NodeResponse::Ingested { notifications }) => {
                        report.notifications += notifications;
                        report.delivered += 1;
                        return Ok(report);
                    }
                    Ok(_) | Err(_) => {
                        self.mark_suspect(&mut self.state.lock(), owner);
                    }
                }
            } else {
                self.mark_suspect(&mut self.state.lock(), owner);
            }
        }

        // Failover path: forward to the owner's fixed replica.
        let replica = replica.ok_or_else(|| RouterError::Unavailable {
            context: format!("ingest for {owner} (no replica)"),
        })?;
        let client = {
            let state = self.state.lock();
            Self::client_of(&state, &replica)
        }
        .ok_or_else(|| RouterError::Unavailable {
            context: format!("ingest for {owner} (replica {replica} unknown)"),
        })?;
        match client.call(&NodeRequest::Ingest {
            outputs,
            now,
            forwarded_for: Some(owner.clone()),
        }) {
            Ok(NodeResponse::Ingested { .. }) => {
                self.counters.forwarded_ingests.inc();
                report.forwarded += 1;
                Ok(report)
            }
            Ok(other) => Err(RouterError::Unavailable {
                context: format!("ingest for {owner}: unexpected reply {other:?}"),
            }),
            Err(e) => {
                self.mark_suspect(&mut self.state.lock(), &replica);
                Err(RouterError::Unavailable {
                    context: format!("ingest for {owner}: replica {replica} failed: {e}"),
                })
            }
        }
    }

    /// Routes a query to the owner of its object, failing over to the
    /// replica when the owner is dead. The answer's quality is counted
    /// (`cluster.router.degraded_answers` for anything below `Full`) and
    /// passed through untouched — degradation is surfaced, never hidden.
    ///
    /// # Errors
    ///
    /// [`RouterError::Remote`] for application-level errors from the
    /// serving node; [`RouterError::Unavailable`] when no node could
    /// serve it.
    pub fn query(&self, query: &LocationQuery) -> Result<QueryAnswer, RouterError> {
        let wire = NodeRequest::Query(WireQuery::from_query(query));
        let (suspect, owner, client, replica) = {
            let state = self.state.lock();
            let owner = state
                .ring
                .owner(query.object.as_str())
                .ok_or(RouterError::NoMembers)?
                .clone();
            (
                state.suspect.contains(&owner),
                owner.clone(),
                Self::client_of(&state, &owner),
                state.ring.replica_of(&owner).cloned(),
            )
        };

        if !suspect {
            match client.map(|c| c.call(&wire)) {
                Some(Ok(NodeResponse::Answer(answer))) => return Ok(self.grade(answer)),
                Some(Ok(NodeResponse::Error(e))) => return Err(RouterError::Remote(e)),
                Some(Ok(_)) | Some(Err(_)) | None => {
                    self.mark_suspect(&mut self.state.lock(), &owner);
                }
            }
        }

        let replica = replica.ok_or_else(|| RouterError::Unavailable {
            context: format!("query for {} (no replica of {owner})", query.object),
        })?;
        let client = {
            let state = self.state.lock();
            Self::client_of(&state, &replica)
        }
        .ok_or_else(|| RouterError::Unavailable {
            context: format!("query for {} (replica {replica} unknown)", query.object),
        })?;
        match client.call(&wire) {
            Ok(NodeResponse::Answer(answer)) => Ok(self.grade(answer)),
            Ok(NodeResponse::Error(e)) => Err(RouterError::Remote(e)),
            Ok(other) => Err(RouterError::Unavailable {
                context: format!("query for {}: unexpected reply {other:?}", query.object),
            }),
            Err(e) => {
                self.mark_suspect(&mut self.state.lock(), &replica);
                Err(RouterError::Unavailable {
                    context: format!("query for {}: replica {replica} failed: {e}", query.object),
                })
            }
        }
    }

    fn grade(&self, answer: QueryAnswer) -> QueryAnswer {
        if answer.quality() != AnswerQuality::Full {
            self.counters.degraded_answers.inc();
        }
        answer
    }

    /// Registers a trigger rule on the owner of its object (rules
    /// without an object go to every member). The rule is remembered so
    /// a restarted owner gets it re-registered by
    /// [`ClusterRouter::refresh`]. Notifications arrive on the merged
    /// stream from [`ClusterRouter::notifications`].
    ///
    /// # Errors
    ///
    /// [`RouterError::NoMembers`] on an empty ring. A dead target is not
    /// an error: the rule is queued and lands at re-registration.
    pub fn subscribe_rule(&self, rule: Rule) -> Result<Vec<NodeId>, RouterError> {
        let targets: Vec<NodeId> = {
            let state = self.state.lock();
            if state.ring.nodes().is_empty() {
                return Err(RouterError::NoMembers);
            }
            match &rule.object {
                Some(object) => vec![state
                    .ring
                    .owner(object.as_str())
                    .expect("non-empty ring")
                    .clone()],
                None => state.ring.nodes().to_vec(),
            }
        };
        let mut registered = Vec::new();
        for target in &targets {
            let client = {
                let state = self.state.lock();
                Self::client_of(&state, target)
            };
            if let Some(client) = client {
                if matches!(
                    client.call(&NodeRequest::SubscribeRule(rule.clone())),
                    Ok(NodeResponse::Subscribed { .. })
                ) {
                    registered.push(target.clone());
                }
            }
            self.state.lock().rules.push((target.clone(), rule.clone()));
        }
        Ok(registered)
    }

    /// A subscription on the merged notification stream from every
    /// member's notify topic.
    #[must_use]
    pub fn notifications(&self) -> Subscription<Notification> {
        self.merged_notifications.subscribe()
    }

    /// Counter snapshot of a node, over RPC.
    ///
    /// # Errors
    ///
    /// [`RouterError::Unavailable`] when the node is unknown or the call
    /// fails.
    pub fn node_stats(&self, node: &NodeId) -> Result<NodeStats, RouterError> {
        let client = {
            let state = self.state.lock();
            Self::client_of(&state, node)
        }
        .ok_or_else(|| RouterError::Unavailable {
            context: format!("stats for unknown node {node}"),
        })?;
        match client.call(&NodeRequest::Stats) {
            Ok(NodeResponse::Stats(stats)) => Ok(stats),
            other => Err(RouterError::Unavailable {
                context: format!("stats for {node}: {other:?}"),
            }),
        }
    }

    /// The owner of `key` under the current ring.
    #[must_use]
    pub fn owner_of(&self, key: &str) -> Option<NodeId> {
        self.state.lock().ring.owner(key).cloned()
    }

    /// The fixed replica of `node` under the current ring.
    #[must_use]
    pub fn replica_of(&self, node: &NodeId) -> Option<NodeId> {
        self.state.lock().ring.replica_of(node).cloned()
    }

    /// Nodes currently treated as dead.
    #[must_use]
    pub fn suspects(&self) -> Vec<NodeId> {
        let mut s: Vec<NodeId> = self.state.lock().suspect.iter().cloned().collect();
        s.sort();
        s
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            failovers: self.counters.failovers.get(),
            degraded_answers: self.counters.degraded_answers.get(),
            forwarded_ingests: self.counters.forwarded_ingests.get(),
            rules_reregistered: self.counters.rules_reregistered.get(),
        }
    }
}
