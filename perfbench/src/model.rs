//! Inputs and the client-side reply model.
//!
//! Every card is written by exactly one client, so the client can keep an
//! exact copy of each card it owns — balance, limit, and the Figure-1
//! trigger state — and predict every reply before it arrives.

/// SplitMix64: a small, seedable generator, so the same seed always gives
/// the same statements.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_add(1).wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The three statement verbs of the card mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Buy,
    PayBill,
    Get,
}

impl Verb {
    pub const ALL: [Verb; 3] = [Verb::Buy, Verb::PayBill, Verb::Get];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Buy => "buy",
            Verb::PayBill => "paybill",
            Verb::Get => "get",
        }
    }
}

/// One planned statement: a verb on a card (an index into the loaded
/// population) with the Buy amount.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub verb: Verb,
    pub card: u32,
    pub amount: u32,
}

impl Op {
    /// The statement text, given the card oids the load produced.
    pub fn text(&self, oids: &[String]) -> String {
        let oid = &oids[self.card as usize];
        match self.verb {
            Verb::Buy => format!("CALL {oid} Buy SET curr_bal = curr_bal + {}", self.amount),
            Verb::PayBill => format!("CALL {oid} PayBill SET curr_bal = 0, cred_lim = 1000"),
            Verb::Get => format!("GET {oid} curr_bal"),
        }
    }
}

/// Draw one statement of the served mix (60 % Buy, 15 % PayBill, 25 %
/// GET) on a card drawn uniformly from `cards`.
pub fn mix_op(rng: &mut Rng, cards: &[u32]) -> Op {
    let card = cards[rng.below(cards.len() as u64) as usize];
    let amount = 1 + rng.below(300) as u32;
    let verb = match rng.below(100) {
        0..=59 => Verb::Buy,
        60..=74 => Verb::PayBill,
        _ => Verb::Get,
    };
    Op { verb, card, amount }
}

/// Draw one write of the snapshot workload: Buy and PayBill in the mix's
/// 60 : 15 proportion.
pub fn write_op(rng: &mut Rng, cards: &[u32]) -> Op {
    let card = cards[rng.below(cards.len() as u64) as usize];
    let amount = 1 + rng.below(300) as u32;
    let verb = if rng.below(75) < 60 {
        Verb::Buy
    } else {
        Verb::PayBill
    };
    Op { verb, card, amount }
}

/// One card as the model sees it.
#[derive(Clone, Copy, Debug)]
pub struct Card {
    pub bal: i64,
    pub lim: i64,
    /// `DenyCredit` is active on the card.
    pub deny: bool,
    /// `AutoRaiseLimit` is active on the card.
    pub raise: bool,
    /// `AutoRaiseLimit`'s `relative` has seen `after Buy & MoreCred()`;
    /// from then on every `after PayBill` fires it (the trigger is
    /// perpetual and its FSM stays past the first half).
    pub armed: bool,
}

impl Card {
    /// A freshly loaded card: `cred_lim = 1000`, `curr_bal = 0`.
    pub fn new(armed_triggers: bool) -> Card {
        Card {
            bal: 0,
            lim: 1000,
            deny: armed_triggers,
            raise: armed_triggers,
            armed: false,
        }
    }
}

/// A reply as the client saw it: `Ok(payload)` or `Err(message)`.
pub type Reply<'a> = Result<&'a str, &'a str>;

/// The model of the cards one client owns.
pub struct Model {
    pub cards: Vec<Card>,
    /// Buys `DenyCredit` aborted.
    pub denials: u64,
    /// `AutoRaiseLimit` firings.
    pub raises: u64,
    /// Every committed balance, as `(card, balance)`, when recording is
    /// on (the snapshot workload checks reads against it).
    pub committed: Vec<(u32, i64)>,
    pub record_commits: bool,
}

impl Model {
    /// `cards[i]` describes population card `i`; only owned cards are
    /// ever consulted.
    pub fn new(cards: Vec<Card>) -> Model {
        Model {
            cards,
            denials: 0,
            raises: 0,
            committed: Vec::new(),
            record_commits: false,
        }
    }

    /// Check one reply against the model and advance it. `Err` carries a
    /// description of the unpredicted reply.
    pub fn apply(&mut self, op: &Op, reply: Reply<'_>) -> Result<(), String> {
        let card = &mut self.cards[op.card as usize];
        match op.verb {
            Verb::Buy => {
                let bal = card.bal + i64::from(op.amount);
                if card.deny && bal > card.lim {
                    return match reply {
                        Err(msg) if msg.contains("Over Limit") => {
                            self.denials += 1;
                            Ok(())
                        }
                        other => Err(format!(
                            "card {} Buy {} (bal {}, lim {}): expected the Over Limit denial, got {other:?}",
                            op.card, op.amount, card.bal, card.lim
                        )),
                    };
                }
                if reply != Ok("") {
                    return Err(format!(
                        "card {} Buy {} (bal {}, lim {}): expected OK, got {reply:?}",
                        op.card, op.amount, card.bal, card.lim
                    ));
                }
                card.bal = bal;
                // MoreCred: curr_bal > 0.8 * cred_lim AND good_hist == 1.
                if card.raise && !card.armed && (bal as f64) > 0.8 * (card.lim as f64) {
                    card.armed = true;
                }
            }
            Verb::PayBill => {
                if reply != Ok("") {
                    return Err(format!(
                        "card {} PayBill: expected OK, got {reply:?}",
                        op.card
                    ));
                }
                card.bal = 0;
                card.lim = 1000;
                if card.raise && card.armed {
                    card.lim += 500;
                    self.raises += 1;
                }
            }
            Verb::Get => {
                return match reply {
                    Ok(v) if v.parse::<f64>() == Ok(card.bal as f64) => Ok(()),
                    other => Err(format!(
                        "card {} GET curr_bal: expected {}, got {other:?}",
                        op.card, card.bal
                    )),
                };
            }
        }
        if self.record_commits {
            self.committed.push((op.card, card.bal));
        }
        Ok(())
    }

    /// The balance the model holds for `card`.
    pub fn balance(&self, card: u32) -> i64 {
        self.cards[card as usize].bal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_cycle() {
        let mut m = Model::new(vec![Card::new(true)]);
        let buy = |amount| Op {
            verb: Verb::Buy,
            card: 0,
            amount,
        };
        let pay = Op {
            verb: Verb::PayBill,
            card: 0,
            amount: 0,
        };
        m.apply(&buy(700), Ok("")).unwrap();
        assert!(!m.cards[0].armed, "700 is not above 0.8 * 1000");
        m.apply(&buy(101), Ok("")).unwrap();
        assert!(m.cards[0].armed);
        m.apply(&buy(300), Err("Over Limit")).unwrap();
        assert_eq!(m.denials, 1);
        assert!(m.apply(&buy(1), Err("Over Limit")).is_err());
        m.apply(&pay, Ok("")).unwrap();
        assert_eq!((m.cards[0].bal, m.cards[0].lim, m.raises), (0, 1500, 1));
        // Armed for good: the next PayBill raises again from the reset.
        m.apply(&pay, Ok("")).unwrap();
        assert_eq!((m.cards[0].lim, m.raises), (1500, 2));
        let get = Op {
            verb: Verb::Get,
            card: 0,
            amount: 0,
        };
        m.apply(&get, Ok("0")).unwrap();
        assert!(m.apply(&get, Ok("1")).is_err());
    }

    #[test]
    fn unarmed_cards_are_never_denied() {
        let mut m = Model::new(vec![Card::new(false)]);
        for _ in 0..10 {
            let op = Op {
                verb: Verb::Buy,
                card: 0,
                amount: 300,
            };
            m.apply(&op, Ok("")).unwrap();
        }
        assert_eq!(m.cards[0].bal, 3000);
        let pay = Op {
            verb: Verb::PayBill,
            card: 0,
            amount: 0,
        };
        m.apply(&pay, Ok("")).unwrap();
        assert_eq!(m.cards[0].lim, 1000);
    }
}
