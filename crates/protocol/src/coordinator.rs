//! The session coordinator: drives the round schedule.
//!
//! The coordinator owns the announced configuration and the session RNG.
//! It never sees a raw row — it only relays accumulator state between
//! owners and, under [`KeyPolicy::Shared`], finishes each merged pair
//! profile to solve the security range and draw the rotation angle.
//!
//! ## Determinism
//!
//! The RNG consumption order replicates the pooled
//! [`rbt_core::Pipeline`] exactly: the pairing draw first, then one angle
//! draw per pair, all from `StdRng::seed_from_u64(config.seed)`, each angle
//! through [`rbt_core::security::draw_rotation`] — the function the pooled
//! transformer calls. Combined with the bit-exact stat chains, a
//! shared-key session therefore produces the **same key bits** as the
//! pooled single-owner run.

use crate::config::{FederationConfig, KeyPolicy};
use crate::messages::{JointSummary, Message, Outbound, Party};
use crate::{ProtocolError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rbt_core::security::draw_rotation;
use rbt_core::{PairMoments, PairwiseSecurityThreshold, RotationStep, TransformationKey};
use rbt_data::PartialFit;
use rbt_linalg::codec::{ByteReader, ByteWriter};

/// Phase of the coordinator's state machine.
#[derive(Debug)]
enum State {
    /// Constructed, [`Coordinator::start`] not yet called.
    Idle,
    /// Announce sent; collecting `Join`s.
    AwaitJoins { joined: Vec<bool>, rows: Vec<u64> },
    /// Normalization chain in flight; expecting `NormChainAck {pass, turn}`.
    NormChain { pass: u8, turn: u16 },
    /// Shared key fit in flight; expecting `PairChainAck` for
    /// `(pair, pass, turn)`.
    KeyFit {
        pairs: Vec<(usize, usize)>,
        thresholds: Vec<PairwiseSecurityThreshold>,
        steps: Vec<RotationStep>,
        pair: usize,
        pass: u8,
        turn: u16,
    },
    /// Fit complete; waiting for the receiver's `JointDataset`.
    AwaitJoint,
    /// Received the joint summary; terminal.
    Finished,
}

impl State {
    fn name(&self) -> &'static str {
        match self {
            State::Idle => "Idle",
            State::AwaitJoins { .. } => "AwaitJoins",
            State::NormChain { .. } => "NormChain",
            State::KeyFit { .. } => "KeyFit",
            State::AwaitJoint => "AwaitJoint",
            State::Finished => "Finished",
        }
    }
}

/// The coordinator party.
#[derive(Debug)]
pub struct Coordinator {
    cfg: FederationConfig,
    rng: StdRng,
    state: State,
    key: Option<TransformationKey>,
    summary: Option<JointSummary>,
}

impl Coordinator {
    /// Creates a coordinator for `cfg` (validated).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] if the configuration is rejected by
    /// [`FederationConfig::validate`].
    pub fn new(cfg: FederationConfig) -> Result<Self> {
        cfg.validate()?;
        let rng = StdRng::seed_from_u64(cfg.seed);
        Ok(Coordinator {
            cfg,
            rng,
            state: State::Idle,
            key: None,
            summary: None,
        })
    }

    /// The announced configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.cfg
    }

    /// The coordinator's current phase, for diagnostics.
    pub fn state_name(&self) -> &'static str {
        self.state.name()
    }

    /// Whether the receiver has reported the joint clustering.
    pub fn is_finished(&self) -> bool {
        matches!(self.state, State::Finished)
    }

    /// The jointly fitted key, once the shared fit completes (`None` under
    /// [`KeyPolicy::PerOwner`]).
    pub fn key(&self) -> Option<&TransformationKey> {
        self.key.as_ref()
    }

    /// The receiver's joint clustering summary, once reported.
    pub fn summary(&self) -> Option<&JointSummary> {
        self.summary.as_ref()
    }

    /// Opens the session: emits `Announce` to every owner and the receiver.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnexpectedMessage`] if the session was already
    /// started.
    pub fn start(&mut self) -> Result<Vec<Outbound>> {
        if !matches!(self.state, State::Idle) {
            return Err(self.unexpected("start"));
        }
        let owners = self.cfg.owners;
        self.state = State::AwaitJoins {
            joined: vec![false; owners as usize],
            rows: vec![0; owners as usize],
        };
        let mut out = Vec::with_capacity(owners as usize + 1);
        for o in 0..owners {
            out.push(Outbound::new(
                Party::Owner(o),
                Message::Announce {
                    config: self.cfg.clone(),
                },
            ));
        }
        out.push(Outbound::new(
            Party::Receiver,
            Message::Announce {
                config: self.cfg.clone(),
            },
        ));
        Ok(out)
    }

    fn unexpected(&self, message: &str) -> ProtocolError {
        ProtocolError::UnexpectedMessage {
            party: "coordinator".into(),
            state: self.state.name().into(),
            message: message.into(),
        }
    }

    /// Consumes one message, advancing the state machine.
    ///
    /// # Errors
    ///
    /// Typed [`ProtocolError`]s for session/order/shape violations or an
    /// unsatisfiable security range; after an error the session is dead.
    pub fn handle(&mut self, msg: &Message) -> Result<Vec<Outbound>> {
        if msg.session() != self.cfg.session {
            return Err(ProtocolError::SessionMismatch {
                expected: self.cfg.session,
                found: msg.session(),
            });
        }
        match msg {
            Message::Join {
                owner,
                rows: n_rows,
                ..
            } => {
                let State::AwaitJoins { joined, rows } = &mut self.state else {
                    return Err(self.unexpected(msg.kind()));
                };
                let idx = *owner as usize;
                if idx >= joined.len() {
                    return Err(ProtocolError::OwnerOutOfRange {
                        owner: *owner,
                        owners: self.cfg.owners,
                    });
                }
                if joined[idx] {
                    return Err(ProtocolError::DuplicateMessage {
                        party: "coordinator".into(),
                        message: format!("Join from owner {owner}"),
                    });
                }
                joined[idx] = true;
                rows[idx] = *n_rows;
                if joined.iter().all(|&j| j) {
                    // Every owner present: open the normalization chain at
                    // owner 0, pass 1.
                    let acc = self
                        .cfg
                        .normalization
                        .begin_partial_fit(self.cfg.n_cols)
                        .map_err(ProtocolError::Data)?;
                    self.state = State::NormChain { pass: 1, turn: 0 };
                    return Ok(vec![Outbound::new(
                        Party::Owner(0),
                        Message::NormChain {
                            session: self.cfg.session,
                            pass: 1,
                            turn: 0,
                            acc: ByteWriter::encode_with(|w| acc.encode_into(w)),
                        },
                    )]);
                }
                Ok(Vec::new())
            }
            Message::NormChainAck {
                pass: ack_pass,
                turn: ack_turn,
                acc,
                ..
            } => {
                let State::NormChain { pass, turn } = self.state else {
                    return Err(self.unexpected(msg.kind()));
                };
                if *ack_pass != pass || *ack_turn != turn {
                    return Err(self.unexpected(&format!(
                        "NormChainAck(pass {ack_pass}, turn {ack_turn}) while expecting \
                         (pass {pass}, turn {turn})"
                    )));
                }
                if turn + 1 < self.cfg.owners {
                    // Relay the accumulator to the next owner unchanged.
                    self.state = State::NormChain {
                        pass,
                        turn: turn + 1,
                    };
                    return Ok(vec![Outbound::new(
                        Party::Owner(turn + 1),
                        Message::NormChain {
                            session: self.cfg.session,
                            pass,
                            turn: turn + 1,
                            acc: acc.clone(),
                        },
                    )]);
                }
                // Chain pass complete: inspect the accumulator.
                let mut fit = ByteReader::decode_all(acc, PartialFit::decode_from)?;
                if pass == 1 && fit.needs_second_pass() {
                    fit.begin_second_pass().map_err(ProtocolError::Data)?;
                    self.state = State::NormChain { pass: 2, turn: 0 };
                    return Ok(vec![Outbound::new(
                        Party::Owner(0),
                        Message::NormChain {
                            session: self.cfg.session,
                            pass: 2,
                            turn: 0,
                            acc: ByteWriter::encode_with(|w| fit.encode_into(w)),
                        },
                    )]);
                }
                let fitted = fit.finish().map_err(ProtocolError::Data)?;
                let normalizer = ByteWriter::encode_with(|w| fitted.encode_into(w));
                let mut out: Vec<Outbound> = (0..self.cfg.owners)
                    .map(|o| {
                        Outbound::new(
                            Party::Owner(o),
                            Message::SharedNormalization {
                                session: self.cfg.session,
                                normalizer: normalizer.clone(),
                            },
                        )
                    })
                    .collect();
                match self.cfg.key_policy {
                    KeyPolicy::Shared => {
                        // Pooled-identical RNG order: the pairing draw
                        // happens here, right after normalization.
                        let pairs = self
                            .cfg
                            .rbt
                            .pairing
                            .pairs(self.cfg.n_cols, &mut self.rng)
                            .map_err(ProtocolError::Method)?;
                        let thresholds = self
                            .cfg
                            .rbt
                            .thresholds_for(pairs.len())
                            .map_err(ProtocolError::Method)?;
                        let (i, j) = pairs[0];
                        out.push(Outbound::new(
                            Party::Owner(0),
                            Message::PairChain {
                                session: self.cfg.session,
                                pair: 0,
                                i: i as u16,
                                j: j as u16,
                                pass: 1,
                                turn: 0,
                                acc: ByteWriter::encode_with(|w| PairMoments::new().encode_into(w)),
                            },
                        ));
                        self.state = State::KeyFit {
                            pairs,
                            thresholds,
                            steps: Vec::new(),
                            pair: 0,
                            pass: 1,
                            turn: 0,
                        };
                    }
                    KeyPolicy::PerOwner => {
                        // No joint fit: owners key their own partitions.
                        for o in 0..self.cfg.owners {
                            out.push(Outbound::new(
                                Party::Owner(o),
                                Message::FitComplete {
                                    session: self.cfg.session,
                                    pairs: 0,
                                },
                            ));
                        }
                        self.state = State::AwaitJoint;
                    }
                }
                Ok(out)
            }
            Message::PairChainAck {
                pair: ack_pair,
                pass: ack_pass,
                turn: ack_turn,
                acc,
                ..
            } => {
                let State::KeyFit {
                    pairs,
                    thresholds,
                    steps,
                    pair,
                    pass,
                    turn,
                } = &mut self.state
                else {
                    return Err(self.unexpected(msg.kind()));
                };
                if *ack_pair as usize != *pair || *ack_pass != *pass || *ack_turn != *turn {
                    let expected = (*pair, *pass, *turn);
                    return Err(self.unexpected(&format!(
                        "PairChainAck(pair {ack_pair}, pass {ack_pass}, turn {ack_turn}) \
                         while expecting {expected:?}"
                    )));
                }
                let session = self.cfg.session;
                let owners = self.cfg.owners;
                let (i, j) = pairs[*pair];
                if *turn + 1 < owners {
                    *turn += 1;
                    return Ok(vec![Outbound::new(
                        Party::Owner(*turn),
                        Message::PairChain {
                            session,
                            pair: *ack_pair,
                            i: i as u16,
                            j: j as u16,
                            pass: *pass,
                            turn: *turn,
                            acc: acc.clone(),
                        },
                    )]);
                }
                let mut moments = ByteReader::decode_all(acc, PairMoments::decode_from)?;
                if *pass == 1 {
                    moments.begin_second_pass().map_err(ProtocolError::Method)?;
                    *pass = 2;
                    *turn = 0;
                    return Ok(vec![Outbound::new(
                        Party::Owner(0),
                        Message::PairChain {
                            session,
                            pair: *ack_pair,
                            i: i as u16,
                            j: j as u16,
                            pass: 2,
                            turn: 0,
                            acc: ByteWriter::encode_with(|w| moments.encode_into(w)),
                        },
                    )]);
                }
                // Both passes folded through every owner: the merged profile
                // is bit-identical to the pooled one, and the pooled
                // transformer draws its angle through the same function.
                let profile = moments
                    .finish(self.cfg.rbt.variance_mode)
                    .map_err(ProtocolError::Method)?;
                let step = draw_rotation(
                    (i, j),
                    &profile,
                    &thresholds[*pair],
                    self.cfg.rbt.solver_grid,
                    &mut self.rng,
                )
                .map_err(ProtocolError::Method)?;
                let mut out: Vec<Outbound> = (0..owners)
                    .map(|o| {
                        Outbound::new(
                            Party::Owner(o),
                            Message::ApplyRotation {
                                session,
                                pair: *ack_pair,
                                i: i as u16,
                                j: j as u16,
                                theta_degrees: step.theta_degrees,
                                achieved_var1: step.achieved_var1,
                                achieved_var2: step.achieved_var2,
                            },
                        )
                    })
                    .collect();
                steps.push(step);
                if *pair + 1 < pairs.len() {
                    *pair += 1;
                    *pass = 1;
                    *turn = 0;
                    let (ni, nj) = pairs[*pair];
                    out.push(Outbound::new(
                        Party::Owner(0),
                        Message::PairChain {
                            session,
                            pair: *pair as u16,
                            i: ni as u16,
                            j: nj as u16,
                            pass: 1,
                            turn: 0,
                            acc: ByteWriter::encode_with(|w| PairMoments::new().encode_into(w)),
                        },
                    ));
                    return Ok(out);
                }
                let n_pairs = pairs.len() as u16;
                let key = TransformationKey::new(std::mem::take(steps), self.cfg.n_cols)
                    .map_err(ProtocolError::Method)?;
                self.key = Some(key);
                for o in 0..owners {
                    out.push(Outbound::new(
                        Party::Owner(o),
                        Message::FitComplete {
                            session,
                            pairs: n_pairs,
                        },
                    ));
                }
                self.state = State::AwaitJoint;
                Ok(out)
            }
            Message::JointDataset { summary, .. } => {
                if !matches!(self.state, State::AwaitJoint) {
                    return Err(self.unexpected(msg.kind()));
                }
                self.summary = Some(summary.clone());
                self.state = State::Finished;
                Ok(Vec::new())
            }
            other => Err(self.unexpected(other.kind())),
        }
    }
}
