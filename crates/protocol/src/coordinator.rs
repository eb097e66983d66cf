//! The session coordinator: drives the round schedule.
//!
//! The coordinator owns the announced configuration and the session RNG.
//! It never sees a raw row — it only relays each chained fold's
//! accumulator from owner to owner and, under [`KeyPolicy::Shared`],
//! finishes each merged pair profile to solve the security range and draw
//! the rotation angle.
//!
//! ## Determinism
//!
//! The RNG consumption order replicates the pooled
//! [`rbt_core::Pipeline`] exactly: the pairing draw first, then one angle
//! draw per pair, all from `StdRng::seed_from_u64(config.seed)`, each angle
//! through [`rbt_core::security::draw_rotation`] — the function the pooled
//! transformer calls. Combined with the bit-exact chained folds, a
//! shared-key session therefore produces the **same key bits** as the
//! pooled single-owner run.

use crate::config::{FederationConfig, KeyPolicy};
use crate::messages::{Fold, JointSummary, Message, Outbound, Party};
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
    AwaitJoins { joined: Vec<bool> },
    /// A chained fold in flight: expecting owner `turn`'s `ChainAck` of
    /// pass `pass` of `fold`.
    Folding { fold: Fold, pass: u8, turn: u16 },
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
            State::Folding { .. } => "Folding",
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
    /// The shared key fit's pairs, their thresholds, and the steps drawn so
    /// far (empty until the pairing draw).
    pairs: Vec<(usize, usize)>,
    thresholds: Vec<PairwiseSecurityThreshold>,
    steps: Vec<RotationStep>,
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
            pairs: Vec::new(),
            thresholds: Vec::new(),
            steps: Vec::new(),
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
            Message::Join { owner, .. } => {
                let State::AwaitJoins { joined } = &mut self.state else {
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
                if !joined.iter().all(|&j| j) {
                    return Ok(Vec::new());
                }
                // Every owner present: open the normalization fold at owner
                // 0, pass 1.
                let fit = self.cfg.normalization.begin_partial_fit(self.cfg.n_cols)?;
                let acc = ByteWriter::encode_with(|w| fit.encode_into(w));
                Ok(vec![self.chain(Fold::Normalization, 1, 0, acc)])
            }
            Message::ChainAck {
                fold,
                pass,
                turn,
                acc,
                ..
            } => {
                if let Some(next) = self.relay(*fold, *pass, *turn, acc)? {
                    return Ok(vec![next]);
                }
                match *fold {
                    Fold::Normalization => self.end_normalization_pass(*pass, acc),
                    Fold::Pair { pair, .. } => self.end_pair_pass(pair as usize, *pass, acc),
                }
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

    /// Checks a `ChainAck` against the fold in flight in every field and
    /// relays its accumulator unchanged to the next owner in announced
    /// order; `None` once the pass has been through every owner.
    fn relay(&mut self, fold: Fold, pass: u8, turn: u16, acc: &[u8]) -> Result<Option<Outbound>> {
        let State::Folding {
            fold: want,
            pass: want_pass,
            turn: want_turn,
        } = self.state
        else {
            return Err(self.unexpected("ChainAck"));
        };
        if (fold, pass, turn) != (want, want_pass, want_turn) {
            return Err(self.unexpected(&format!(
                "ChainAck of the {fold}, pass {pass}, turn {turn} while expecting the \
                 {want}, pass {want_pass}, turn {want_turn}"
            )));
        }
        Ok((turn + 1 < self.cfg.owners).then(|| self.chain(fold, pass, turn + 1, acc.to_vec())))
    }

    /// Sends owner `turn` pass `pass` of `fold`'s accumulator, and expects
    /// its ack next.
    fn chain(&mut self, fold: Fold, pass: u8, turn: u16, acc: Vec<u8>) -> Outbound {
        self.state = State::Folding { fold, pass, turn };
        let session = self.cfg.session;
        let msg = Message::Chain {
            session,
            fold,
            pass,
            turn,
            acc,
        };
        Outbound::new(Party::Owner(turn), msg)
    }

    /// Sends owner 0 pass `pass` of pair `pair`'s moments accumulator.
    fn chain_pair(&mut self, pair: usize, pass: u8, acc: Vec<u8>) -> Outbound {
        let (i, j) = self.pairs[pair];
        let fold = Fold::Pair {
            pair: pair as u16,
            i: i as u16,
            j: j as u16,
        };
        self.chain(fold, pass, 0, acc)
    }

    /// One message per owner, in owner order.
    fn broadcast(&self, msg: impl Fn(u64) -> Message) -> Vec<Outbound> {
        (0..self.cfg.owners)
            .map(|o| Outbound::new(Party::Owner(o), msg(self.cfg.session)))
            .collect()
    }

    /// Ends the key fit after `pairs` rotations: every owner releases.
    fn fit_complete(&mut self, pairs: u16) -> Vec<Outbound> {
        self.state = State::AwaitJoint;
        self.broadcast(|session| Message::FitComplete { session, pairs })
    }

    /// A normalization pass has been through every owner: run the second
    /// pass a z-score fit needs, or send every owner the finished
    /// normalizer and open the shared key fit (or, under per-owner keys,
    /// end the fit).
    fn end_normalization_pass(&mut self, pass: u8, acc: &[u8]) -> Result<Vec<Outbound>> {
        let mut fit = ByteReader::decode_all(acc, PartialFit::decode_from)?;
        if pass == 1 && fit.needs_second_pass() {
            fit.begin_second_pass()?;
            let acc = ByteWriter::encode_with(|w| fit.encode_into(w));
            return Ok(vec![self.chain(Fold::Normalization, 2, 0, acc)]);
        }
        let fitted = fit.finish()?;
        let normalizer = ByteWriter::encode_with(|w| fitted.encode_into(w));
        let mut out = self.broadcast(|session| Message::SharedNormalization {
            session,
            normalizer: normalizer.clone(),
        });
        match self.cfg.key_policy {
            KeyPolicy::Shared => {
                // Pooled-identical RNG order: the pairing draw happens here,
                // right after normalization.
                self.pairs = self.cfg.rbt.pairing.pairs(self.cfg.n_cols, &mut self.rng)?;
                self.thresholds = self.cfg.rbt.thresholds_for(self.pairs.len())?;
                let acc = ByteWriter::encode_with(|w| PairMoments::new().encode_into(w));
                out.push(self.chain_pair(0, 1, acc));
            }
            // No joint fit: owners key their own partitions.
            KeyPolicy::PerOwner => out.extend(self.fit_complete(0)),
        }
        Ok(out)
    }

    /// A pass of pair `pair`'s moments has been through every owner: run
    /// the second pass, or draw the pair's rotation, send it to every
    /// owner, and open the next pair (or build the key and end the fit).
    fn end_pair_pass(&mut self, pair: usize, pass: u8, acc: &[u8]) -> Result<Vec<Outbound>> {
        let mut moments = ByteReader::decode_all(acc, PairMoments::decode_from)?;
        if pass == 1 {
            moments.begin_second_pass()?;
            let acc = ByteWriter::encode_with(|w| moments.encode_into(w));
            return Ok(vec![self.chain_pair(pair, 2, acc)]);
        }
        // Both passes folded through every owner: the merged profile is
        // bit-identical to the pooled one, and the pooled transformer draws
        // its angle through the same function.
        let profile = moments.finish(self.cfg.rbt.variance_mode)?;
        let (i, j) = self.pairs[pair];
        let step = draw_rotation(
            (i, j),
            &profile,
            &self.thresholds[pair],
            self.cfg.rbt.solver_grid,
            &mut self.rng,
        )?;
        let mut out = self.broadcast(|session| Message::ApplyRotation {
            session,
            pair: pair as u16,
            i: i as u16,
            j: j as u16,
            theta_degrees: step.theta_degrees,
            achieved_var1: step.achieved_var1,
            achieved_var2: step.achieved_var2,
        });
        self.steps.push(step);
        if pair + 1 < self.pairs.len() {
            let acc = ByteWriter::encode_with(|w| PairMoments::new().encode_into(w));
            out.push(self.chain_pair(pair + 1, 1, acc));
        } else {
            let steps = std::mem::take(&mut self.steps);
            self.key = Some(TransformationKey::new(steps, self.cfg.n_cols)?);
            out.extend(self.fit_complete(self.pairs.len() as u16));
        }
        Ok(out)
    }
}
