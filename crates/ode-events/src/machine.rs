//! Run-time execution of compiled trigger FSMs (§5.4.5).
//!
//! Posting a basic event to a trigger instance is:
//!
//! 1. Follow the event's transition from the instance's current state (a
//!    plain integer, stored in its persistent `TriggerState`). Events
//!    without a transition are *ignored* when they are outside the
//!    machine's alphabet (a base-class trigger "should not see the events
//!    of a derived class", §5.4.3) and *kill* the instance otherwise
//!    (only reachable for `^`-anchored expressions).
//! 2. While the resulting state has pending masks, evaluate them and
//!    consume the `True`/`False` pseudo-events — "potentially, multiple
//!    mask events must be posted before the system quiesces".
//! 3. Report whether an accept state was visited anywhere along the way;
//!    "the trigger will fire at most once in response to the posting of a
//!    single basic event" (§5.4.5 footnote).
//!
//! The machine itself is immutable and shared; all per-instance state is
//! the `u32` the caller passes in and stores back.

use crate::dfa::Dfa;
use crate::event::{EventId, MaskId, Symbol};
use ode_obs::{FlightEvent, SmallStr};

/// Safety bound on mask-evaluation cascades. Pathological expressions
/// (e.g. a starred nullable mask) could loop; hitting the bound kills the
/// instance instead of hanging.
pub const QUIESCE_LIMIT: usize = 1024;

/// How a posting affected the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// The machine consumed the event (state may or may not have changed).
    Moved,
    /// The event is outside this machine's alphabet; nothing happened.
    Ignored,
    /// The instance ran off the machine (anchored mismatch, failed anchored
    /// mask, or a runaway mask cascade). It can never fire again.
    Dead,
}

/// Result of posting an event (or of activating an instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostOutcome {
    /// The instance's new state (meaningless when `status` is `Dead`).
    pub state: u32,
    /// Whether an accept state was visited — i.e. the trigger should fire.
    pub accepted: bool,
    /// What happened.
    pub status: Advance,
}

impl Dfa {
    /// Outcome of activating a fresh instance: quiesces any masks pending
    /// in the start state and reports an immediate accept (possible for
    /// expressions that match the empty stream).
    pub fn activate(&self, mut eval: impl FnMut(MaskId) -> bool) -> PostOutcome {
        let state = self.start();
        let accepted = self.states()[state as usize].accept;
        self.quiesce(state, accepted, &mut eval)
    }

    /// Post one basic event to an instance currently in `from`.
    pub fn post(
        &self,
        from: u32,
        event: EventId,
        mut eval: impl FnMut(MaskId) -> bool,
    ) -> PostOutcome {
        if !self.alphabet_events().contains(&event) {
            return PostOutcome {
                state: from,
                accepted: false,
                status: Advance::Ignored,
            };
        }
        let Some(next) = self.states()[from as usize].next(Symbol::Event(event)) else {
            return PostOutcome {
                state: from,
                accepted: false,
                status: Advance::Dead,
            };
        };
        if let Some(metrics) = &self.metrics {
            metrics.fsm_transitions.inc();
            metrics.emit(|| FlightEvent::FsmAdvanced {
                trigger: SmallStr::new(self.trace_name()),
                from_state: from,
                to_state: next,
                pseudo: None,
            });
        }
        let accepted = self.states()[next as usize].accept;
        self.quiesce(next, accepted, &mut eval)
    }

    /// Evaluate pending masks until the machine rests.
    ///
    /// Masks are pure predicates over database state at the moment of
    /// posting, so if evaluating every pending mask leaves the state
    /// unchanged (possible with *nullable* mask operands like
    /// `(*e) & m()`, whose `False` edge loops back into the pending
    /// state), the machine has reached a fixpoint and *rests* there; the
    /// masks will be re-evaluated at the next posting.
    fn quiesce(
        &self,
        mut state: u32,
        mut accepted: bool,
        eval: &mut impl FnMut(MaskId) -> bool,
    ) -> PostOutcome {
        let mut steps = 0;
        'rounds: loop {
            let s = &self.states()[state as usize];
            if s.masks.is_empty() {
                return PostOutcome {
                    state,
                    accepted,
                    status: Advance::Moved,
                };
            }
            steps += 1;
            if steps > QUIESCE_LIMIT {
                return PostOutcome {
                    state,
                    accepted,
                    status: Advance::Dead,
                };
            }
            for &mask in &s.masks {
                let truth = eval(mask);
                if let Some(metrics) = &self.metrics {
                    metrics.fsm_mask_evals.inc();
                    if truth {
                        metrics.fsm_true_events.inc();
                    } else {
                        metrics.fsm_false_events.inc();
                    }
                }
                let symbol = if truth {
                    Symbol::True(mask)
                } else {
                    Symbol::False(mask)
                };
                match s.next(symbol) {
                    Some(next) if next != state => {
                        if let Some(metrics) = &self.metrics {
                            metrics.emit(|| FlightEvent::FsmAdvanced {
                                trigger: SmallStr::new(self.trace_name()),
                                from_state: state,
                                to_state: next,
                                pseudo: Some(truth),
                            });
                        }
                        state = next;
                        accepted |= self.states()[state as usize].accept;
                        continue 'rounds;
                    }
                    // Self-loop: this mask makes no progress; try the next.
                    Some(_) => {}
                    None => {
                        return PostOutcome {
                            state,
                            accepted,
                            status: Advance::Dead,
                        };
                    }
                }
            }
            // Fixpoint: every pending mask self-loops — rest here.
            return PostOutcome {
                state,
                accepted,
                status: Advance::Moved,
            };
        }
    }

    /// Convenience for tests: run a whole stream from activation, with a
    /// scripted sequence of mask answers (missing answers default false).
    /// Returns the number of times the machine accepted. Note: because the
    /// answers are consumed in evaluation order, this is only meaningful
    /// when the caller controls exactly how many evaluations happen; for
    /// semantics comparisons use [`Dfa::run_stream_with`], whose oracle is
    /// a pure function of (posting index, mask) like real masks are pure
    /// predicates over database state.
    pub fn run_stream(&self, stream: &[EventId], mask_answers: &[bool]) -> usize {
        let mut answers = mask_answers.iter().copied();
        self.run_stream_with(stream, move |_i, _m| answers.next().unwrap_or(false))
    }

    /// Run a whole stream from activation with a mask oracle that is a
    /// pure function of the posting index (0 = activation, i+1 = stream
    /// element i) and the mask id. Returns the number of postings that
    /// accepted.
    pub fn run_stream_with(
        &self,
        stream: &[EventId],
        mut eval: impl FnMut(usize, MaskId) -> bool,
    ) -> usize {
        let mut fired = 0;
        let out = self.activate(|m| eval(0, m));
        if out.accepted {
            fired += 1;
        }
        let mut state = out.state;
        if out.status == Advance::Dead {
            return fired;
        }
        for (i, &e) in stream.iter().enumerate() {
            let out = self.post(state, e, |m| eval(i + 1, m));
            if out.accepted {
                fired += 1;
            }
            match out.status {
                Advance::Dead => return fired,
                _ => state = out.state,
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Alphabet;
    use crate::parser::parse;

    fn alphabet() -> Alphabet {
        let mut al = Alphabet::new();
        al.add_event(EventId(0), "BigBuy");
        al.add_event(EventId(1), "after PayBill");
        al.add_event(EventId(2), "after Buy");
        al.add_mask("MoreCred");
        al
    }

    fn compile(src: &str) -> Dfa {
        let al = alphabet();
        Dfa::compile(&parse(src, &al).unwrap(), &al)
    }

    fn ids(stream: &[u32]) -> Vec<EventId> {
        stream.iter().map(|&e| EventId(e)).collect()
    }

    #[test]
    fn simple_event_fires_once_per_occurrence() {
        let dfa = compile("after Buy");
        assert_eq!(dfa.run_stream(&ids(&[2]), &[]), 1);
        assert_eq!(dfa.run_stream(&ids(&[0, 2, 2]), &[]), 2);
        assert_eq!(dfa.run_stream(&ids(&[0, 1]), &[]), 0);
    }

    #[test]
    fn posting_undeclared_event_is_ignored() {
        let dfa = compile("after Buy");
        let out = dfa.post(dfa.start(), EventId(77), |_| true);
        assert_eq!(out.status, Advance::Ignored);
        assert_eq!(out.state, dfa.start());
        assert!(!out.accepted);
    }

    #[test]
    fn figure_1_machine_walkthrough() {
        let dfa = compile("relative((after Buy & MoreCred()), after PayBill)");
        // Buy with MoreCred()==false: back to start.
        let out = dfa.post(0, EventId(2), |_| false);
        assert_eq!((out.state, out.accepted), (0, false));
        // Buy with MoreCred()==true: armed in state 2.
        let out = dfa.post(0, EventId(2), |_| true);
        assert_eq!((out.state, out.accepted), (2, false));
        // BigBuy while armed: stays armed.
        let out = dfa.post(2, EventId(0), |_| panic!("no mask pending"));
        assert_eq!((out.state, out.accepted), (2, false));
        // PayBill while armed: fires.
        let out = dfa.post(2, EventId(1), |_| panic!("no mask pending"));
        assert!(out.accepted);
    }

    #[test]
    fn perpetual_style_reuse_keeps_firing() {
        // A perpetual trigger keeps its instance after firing; the machine
        // must keep producing accepts.
        let dfa = compile("after Buy");
        assert_eq!(dfa.run_stream(&ids(&[2, 2, 2]), &[]), 3);
    }

    #[test]
    fn anchored_mismatch_kills() {
        let dfa = compile("^after Buy, after PayBill");
        let out = dfa.post(dfa.start(), EventId(0), |_| true);
        assert_eq!(out.status, Advance::Dead);
        // And a dead-end anchored mask failure also kills.
        let dfa = compile("^after Buy & MoreCred()");
        let out = dfa.post(dfa.start(), EventId(2), |_| false);
        assert_eq!(out.status, Advance::Dead);
    }

    #[test]
    fn activation_can_accept_immediately() {
        // *any matches the empty stream: the trigger is satisfied at
        // activation time.
        let dfa = compile("*BigBuy");
        let out = dfa.activate(|_| false);
        assert!(out.accepted);
        assert_eq!(out.status, Advance::Moved);
    }

    #[test]
    fn at_most_one_fire_per_posting() {
        // (after Buy) || (after Buy & MoreCred()): one Buy may satisfy the
        // expression two ways but fires once.
        let dfa = compile("after Buy || (after Buy & MoreCred())");
        assert_eq!(dfa.run_stream(&ids(&[2]), &[true]), 1);
    }

    #[test]
    fn mask_cascade_evaluates_in_order() {
        let mut al = alphabet();
        al.add_mask("Second");
        let te = parse("(after Buy & MoreCred()) || (after Buy & Second())", &al).unwrap();
        let dfa = Dfa::compile(&te, &al);
        // Both masks pending after Buy; firing requires either to be true.
        let mut evaluated = Vec::new();
        let out = dfa.post(dfa.start(), EventId(2), |m| {
            evaluated.push(m);
            m == MaskId(1) // only Second() is true
        });
        assert!(out.accepted);
        assert_eq!(evaluated.len(), 2, "both masks evaluated: {evaluated:?}");
        assert_eq!(evaluated[0], MaskId(0), "evaluation order is by MaskId");
    }
}
