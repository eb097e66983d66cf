//! The federation hub: hosts coordinator + receiver behind a mailbox API.
//!
//! `rbt-server` embeds one [`FederationHub`] in its shared state and maps
//! the `Fed*` wire opcodes straight onto [`FederationHub::open`] /
//! [`FederationHub::exchange`] / [`FederationHub::result`]. Owners connect
//! as ordinary clients: each `exchange` call delivers the owner's outbound
//! messages and drains the owner's mailbox in return, so the whole round
//! protocol runs over simple request/response polling — no server-side
//! push needed.
//!
//! The hub is transport-blind: it never encodes or decodes wire frames,
//! only routes typed [`Message`]s between the parties it hosts.

use crate::coordinator::Coordinator;
use crate::messages::{JointSummary, Message, Outbound, Party};
use crate::receiver::{JointResult, Receiver};
use crate::{FederationConfig, ProtocolError, Result};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Default idle lifetime of a hosted session: a session no owner has
/// exchanged with for this long is evictable when the hub needs the slot,
/// so abandoned `FedOpen`s cannot occupy capacity forever.
pub const DEFAULT_IDLE_TTL: Duration = Duration::from_secs(600);

/// One hosted session: the two hub-side parties plus per-owner mailboxes.
#[derive(Debug)]
struct HubSession {
    coordinator: Coordinator,
    receiver: Receiver,
    mailboxes: Vec<VecDeque<Message>>,
    /// Set when any party returned an error; the session is dead and every
    /// further exchange reports the same typed failure.
    failed: Option<ProtocolError>,
    /// Last open/exchange touching this session, for idle eviction.
    last_touched: Instant,
}

/// Hosts federated release sessions for a server.
#[derive(Debug)]
pub struct FederationHub {
    sessions: HashMap<u64, HubSession>,
    max_sessions: usize,
    idle_ttl: Duration,
}

impl FederationHub {
    /// Creates a hub admitting at most `max_sessions` concurrent sessions,
    /// with the [`DEFAULT_IDLE_TTL`].
    pub fn new(max_sessions: usize) -> Self {
        FederationHub {
            sessions: HashMap::new(),
            max_sessions: max_sessions.max(1),
            idle_ttl: DEFAULT_IDLE_TTL,
        }
    }

    /// Replaces the idle lifetime after which an untouched session becomes
    /// evictable under capacity pressure.
    pub fn with_idle_ttl(mut self, ttl: Duration) -> Self {
        self.idle_ttl = ttl;
        self
    }

    /// Opens a session: constructs coordinator + receiver and queues the
    /// `Announce` round into the owner mailboxes.
    ///
    /// A full hub first evicts sessions that can no longer make progress —
    /// poisoned (failed) ones and sessions idle past the hub's TTL — so a
    /// burst of junk `FedOpen`s cannot block federation service
    /// permanently. Owners of an evicted session see
    /// [`ProtocolError::UnknownSession`] on their next exchange.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::SessionExists`] for a duplicate id,
    /// [`ProtocolError::InvalidConfig`] for a rejected configuration or a
    /// full hub.
    pub fn open(&mut self, config: FederationConfig) -> Result<()> {
        if self.sessions.contains_key(&config.session) {
            return Err(ProtocolError::SessionExists(config.session));
        }
        if self.sessions.len() >= self.max_sessions {
            let now = Instant::now();
            let ttl = self.idle_ttl;
            self.sessions
                .retain(|_, s| s.failed.is_none() && now.duration_since(s.last_touched) < ttl);
        }
        if self.sessions.len() >= self.max_sessions {
            return Err(ProtocolError::InvalidConfig(format!(
                "hub at capacity ({} sessions)",
                self.max_sessions
            )));
        }
        let coordinator = Coordinator::new(config.clone())?;
        let receiver = Receiver::new(config.session);
        let mut session = HubSession {
            coordinator,
            receiver,
            mailboxes: (0..config.owners).map(|_| VecDeque::new()).collect(),
            failed: None,
            last_touched: Instant::now(),
        };
        // `start` can only fail on a double start, which a fresh
        // coordinator cannot hit.
        let outs = session.coordinator.start()?;
        route(&mut session, outs)?;
        self.sessions.insert(config.session, session);
        Ok(())
    }

    /// Delivers `inbound` owner messages and drains owner `owner`'s
    /// mailbox.
    ///
    /// Every inbound message must claim `owner` as its originator (the
    /// `Join`/`OwnerRelease` owner field, the `ChainAck` turn field): a
    /// client knowing only the session id cannot fabricate another owner's
    /// contributions. A mismatch is rejected **without** poisoning the
    /// session, so an impersonation attempt cannot stall honest owners.
    ///
    /// Owner messages are routed by kind: joins and `ChainAck`s to the
    /// coordinator, releases to the receiver. Anything else — or any party
    /// rejecting a message — poisons the session with a typed error that
    /// every subsequent exchange repeats.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownSession`], [`ProtocolError::OwnerOutOfRange`],
    /// [`ProtocolError::OwnerMismatch`], or the session's (first) protocol
    /// failure.
    pub fn exchange(
        &mut self,
        session: u64,
        owner: u16,
        inbound: Vec<Message>,
    ) -> Result<Vec<Message>> {
        let s = self
            .sessions
            .get_mut(&session)
            .ok_or(ProtocolError::UnknownSession(session))?;
        if owner as usize >= s.mailboxes.len() {
            return Err(ProtocolError::OwnerOutOfRange {
                owner,
                owners: s.mailboxes.len() as u16,
            });
        }
        s.last_touched = Instant::now();
        if let Some(e) = &s.failed {
            return Err(e.clone());
        }
        for msg in inbound {
            if let Some(claimed) = claimed_owner(&msg) {
                if claimed != owner {
                    return Err(ProtocolError::OwnerMismatch {
                        claimed,
                        exchanging: owner,
                    });
                }
            }
            if let Err(e) = deliver_owner_message(s, msg) {
                s.failed = Some(e.clone());
                return Err(e);
            }
        }
        Ok(s.mailboxes[owner as usize].drain(..).collect())
    }

    /// The joint clustering summary of `session`, if its receiver has
    /// completed (`None` while the protocol is still in flight).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownSession`], or the session's failure.
    pub fn result(&self, session: u64) -> Result<Option<&JointSummary>> {
        let s = self
            .sessions
            .get(&session)
            .ok_or(ProtocolError::UnknownSession(session))?;
        if let Some(e) = &s.failed {
            return Err(e.clone());
        }
        Ok(s.coordinator.summary())
    }

    /// The receiver's full joint result (matrix + labels), if complete.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownSession`], or the session's failure.
    pub fn joint_result(&self, session: u64) -> Result<Option<&JointResult>> {
        let s = self
            .sessions
            .get(&session)
            .ok_or(ProtocolError::UnknownSession(session))?;
        if let Some(e) = &s.failed {
            return Err(e.clone());
        }
        Ok(s.receiver.result())
    }

    /// Closes `session`, dropping all its state. Returns whether it
    /// existed.
    pub fn close(&mut self, session: u64) -> bool {
        self.sessions.remove(&session).is_some()
    }
}

/// The owner index a message claims to originate from (`None` for kinds
/// that are not owner-originated).
fn claimed_owner(msg: &Message) -> Option<u16> {
    match msg {
        Message::Join { owner, .. } | Message::OwnerRelease { owner, .. } => Some(*owner),
        Message::ChainAck { turn, .. } => Some(*turn),
        _ => None,
    }
}

/// Routes one message arriving from an owner-side client.
fn deliver_owner_message(s: &mut HubSession, msg: Message) -> Result<()> {
    let outs = match msg {
        msg @ (Message::Join { .. } | Message::ChainAck { .. }) => s.coordinator.handle(&msg)?,
        msg @ Message::OwnerRelease { .. } => s.receiver.handle(msg)?,
        other => {
            return Err(ProtocolError::UnexpectedMessage {
                party: "hub".into(),
                state: "routing".into(),
                message: format!("{} is not an owner-originated message", other.kind()),
            })
        }
    };
    route(s, outs)
}

/// Drains a batch of outbound messages: owner-bound ones land in
/// mailboxes, hub-side ones are handled immediately (worklist, so a
/// receiver completion can cascade into the coordinator).
fn route(s: &mut HubSession, outs: Vec<Outbound>) -> Result<()> {
    let mut work: VecDeque<Outbound> = outs.into();
    while let Some(out) = work.pop_front() {
        match out.to {
            Party::Owner(o) => {
                let idx = o as usize;
                if idx >= s.mailboxes.len() {
                    return Err(ProtocolError::OwnerOutOfRange {
                        owner: o,
                        owners: s.mailboxes.len() as u16,
                    });
                }
                s.mailboxes[idx].push_back(out.msg);
            }
            Party::Coordinator => work.extend(s.coordinator.handle(&out.msg)?),
            Party::Receiver => work.extend(s.receiver.handle(out.msg)?),
        }
    }
    Ok(())
}
