//! Subset construction and optimisation: NFA → the run-time FSM.
//!
//! The output matches §5.4.3's representation: an array of states, each
//! with an accept flag, the mask to evaluate in that state (generalised
//! here to a sorted list, evaluated in order), and a **sparse** transition
//! list — the representation the paper settled on after the dense 2-D
//! array proved "very space inefficient for sparse arrays" (§6; the dense
//! variant survives in [`crate::fsm::DenseFsm`] for the ablation).
//!
//! Pipeline: subset construction → prune → redundant-mask elimination →
//! minimisation → breadth-first renumbering.
//!
//! * **Prune** exploits the run-time contract that masks quiesce
//!   immediately: a state with pending masks is never *rested in*, so its
//!   real-event transitions are unreachable and dropped; conversely a
//!   state without pending masks never receives pseudo-events.
//! * **Redundant-mask elimination** removes mask states whose `True` and
//!   `False` edges lead to the same place (evaluating the mask cannot
//!   matter). This is what turns the raw subset machine for
//!   `relative((after Buy & MoreCred()), after PayBill)` into exactly the
//!   four-state machine of the paper's Figure 1.
//! * **Minimisation** is partition refinement seeded by `(accept, masks)`.

use crate::ast::{Alphabet, TriggerEvent};
use crate::event::{EventId, MaskId, Symbol};
use crate::nfa::Nfa;
use ode_obs::{FlightEvent, Metrics, SmallStr};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One sparse transition (§5.4.3's `struct Transition`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The symbol consumed.
    pub on: Symbol,
    /// Destination state index.
    pub to: u32,
}

/// One FSM state (§5.4.3's `class State`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Does reaching this state satisfy the composite event?
    pub accept: bool,
    /// Masks pending evaluation in this state, in evaluation order. (The
    /// paper allows one mask per state; composing masks with `||` can
    /// require several, so this is a list.)
    pub masks: Vec<MaskId>,
    /// Sparse transition list, sorted by symbol for binary search.
    pub transitions: Vec<Transition>,
}

impl State {
    /// Follow a symbol from this state.
    pub fn next(&self, on: Symbol) -> Option<u32> {
        self.transitions
            .binary_search_by(|t| t.on.cmp(&on))
            .ok()
            .map(|i| self.transitions[i].to)
    }
}

/// A compiled trigger FSM. Shared by every object of the class; per-object
/// progress is just a state number kept in the trigger's persistent state
/// (§5.1.3: "the only FSM-related information that needs to be stored with
/// a trigger activation is … the state of the FSM").
#[derive(Debug, Clone)]
pub struct Dfa {
    start: u32,
    states: Vec<State>,
    /// Declared events, in declaration order (drives deterministic
    /// numbering and the ignore-vs-dead distinction).
    alphabet_events: Vec<EventId>,
    /// Masks referenced by the expression.
    masks: Vec<MaskId>,
    /// Whether the source expression was `^`-anchored.
    anchored: bool,
    /// Database-wide metrics registry counting run-time transitions and
    /// mask evaluations; `None` for machines compiled outside a database.
    pub(crate) metrics: Option<Arc<Metrics>>,
    /// Trigger name, set by [`Dfa::compile_observed`] so run-time
    /// advances can be attributed in the flight recorder; `None` for
    /// machines compiled outside a database.
    pub(crate) name: Option<Arc<str>>,
}

// Machine identity ignores the attached metrics registry and the
// observability-only trigger name.
impl PartialEq for Dfa {
    fn eq(&self, other: &Dfa) -> bool {
        self.start == other.start
            && self.states == other.states
            && self.alphabet_events == other.alphabet_events
            && self.masks == other.masks
            && self.anchored == other.anchored
    }
}

impl Eq for Dfa {}

impl Dfa {
    /// Compile a trigger event expression into an optimised FSM.
    ///
    /// Top-level conjunctions (`a && b`, [`crate::ast::EventExpr::Both`])
    /// compile each side independently and combine them with a
    /// latch-product: the result fires at every posting where one side
    /// occurs and the other has occurred before (or occurs simultaneously).
    pub fn compile(trigger: &TriggerEvent, alphabet: &Alphabet) -> Dfa {
        if let crate::ast::EventExpr::Both(a, b) = &trigger.expr {
            let left = Dfa::compile(
                &TriggerEvent {
                    anchored: trigger.anchored,
                    expr: (**a).clone(),
                },
                alphabet,
            );
            let right = Dfa::compile(
                &TriggerEvent {
                    anchored: trigger.anchored,
                    expr: (**b).clone(),
                },
                alphabet,
            );
            let mut dfa = Dfa::conjoin(&left, &right);
            dfa.optimize();
            return dfa;
        }
        let mut dfa = Dfa::compile_unoptimized(trigger, alphabet);
        dfa.optimize();
        dfa
    }

    /// Like [`Dfa::compile`], but instrumented: records compile time and
    /// NFA/DFA state counts in `metrics`, attaches the registry to the
    /// returned machine (so its run-time transitions and mask evaluations
    /// are counted too), and emits [`FlightEvent::FsmCompiled`] naming the
    /// trigger.
    pub fn compile_observed(
        trigger: &TriggerEvent,
        alphabet: &Alphabet,
        name: &str,
        metrics: &Arc<Metrics>,
    ) -> Dfa {
        let started = Instant::now();
        let mut dfa = Dfa::compile(trigger, alphabet);
        let nanos = started.elapsed().as_nanos() as u64;
        let nfa_states = Self::nfa_size(trigger, alphabet);
        metrics.fsm_compiles.inc();
        metrics.fsm_compile_nanos.add(nanos);
        metrics.nfa_states.add(nfa_states);
        metrics.fsm_states.add(dfa.len() as u64);
        metrics.emit(|| FlightEvent::FsmCompiled {
            trigger: SmallStr::new(name),
            nfa_states,
            dfa_states: dfa.len() as u64,
            nanos,
        });
        dfa.metrics = Some(Arc::clone(metrics));
        dfa.name = Some(Arc::from(name));
        dfa
    }

    /// Trigger name for trace attribution (`"?"` for machines compiled
    /// without [`Dfa::compile_observed`]).
    pub(crate) fn trace_name(&self) -> &str {
        self.name.as_deref().unwrap_or("?")
    }

    /// Total Thompson-construction NFA states for the expression.
    /// Top-level conjunctions never reach [`Nfa::build`] directly (each
    /// side compiles separately), so their sides are summed.
    fn nfa_size(trigger: &TriggerEvent, alphabet: &Alphabet) -> u64 {
        if let crate::ast::EventExpr::Both(a, b) = &trigger.expr {
            let side = |expr: &crate::ast::EventExpr| TriggerEvent {
                anchored: trigger.anchored,
                expr: expr.clone(),
            };
            return Self::nfa_size(&side(a), alphabet) + Self::nfa_size(&side(b), alphabet);
        }
        Nfa::build(trigger, alphabet).len() as u64
    }

    /// The shared optimisation pipeline: prune, then iterate minimisation
    /// and redundant-mask elimination to a fixpoint (they enable each
    /// other). State count is monotonically non-increasing.
    fn optimize(&mut self) {
        self.prune();
        let mut prev = usize::MAX;
        loop {
            self.minimize();
            self.eliminate_redundant_masks();
            self.renumber();
            if self.len() == prev {
                break;
            }
            prev = self.len();
        }
    }

    /// Latch-product of two machines over the same class alphabet. Each
    /// component runs on the shared event stream; a component that dies
    /// after having accepted is kept as "done" (`None` state, latch set).
    /// The product accepts exactly when a component accepts *now* and the
    /// other has accepted now or before.
    fn conjoin(left: &Dfa, right: &Dfa) -> Dfa {
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        struct Component {
            /// Current state; None = dead (only reachable with the latch
            /// set, otherwise the whole product dies).
            state: Option<u32>,
            latched: bool,
        }
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        struct Product {
            a: Component,
            b: Component,
            /// Did a component accept on the move that produced this
            /// state? (Part of state identity so accept is per-occurrence,
            /// not sticky.)
            fired: bool,
        }

        /// One component's reaction to a symbol. `pending` says whether the
        /// symbol is a pseudo-event this component is actually waiting on.
        fn step(
            dfa: &Dfa,
            comp: Component,
            on: Symbol,
            pending: bool,
        ) -> Option<(Component, bool)> {
            let Some(state) = comp.state else {
                return Some((comp, false)); // done component ignores all
            };
            if on.is_pseudo() && !pending {
                // Another component's mask evaluation: invisible.
                return Some((comp, false));
            }
            match dfa.states()[state as usize].next(on) {
                Some(next) => {
                    let accept_now = dfa.states()[next as usize].accept;
                    Some((
                        Component {
                            state: Some(next),
                            latched: comp.latched || accept_now,
                        },
                        accept_now,
                    ))
                }
                // No transition (anchored mismatch or anchored mask
                // failure): the component dies; the product survives only
                // if the component had already occurred.
                None => comp.latched.then_some((
                    Component {
                        state: None,
                        latched: true,
                    },
                    false,
                )),
            }
        }

        fn pending_masks(dfa: &Dfa, comp: Component) -> Vec<MaskId> {
            comp.state
                .map(|s| dfa.states()[s as usize].masks.clone())
                .unwrap_or_default()
        }

        debug_assert_eq!(left.alphabet_events, right.alphabet_events);
        let mut all_masks: Vec<MaskId> = left
            .masks
            .iter()
            .chain(right.masks.iter())
            .copied()
            .collect();
        all_masks.sort_unstable();
        all_masks.dedup();
        let symbols = Self::symbol_order(&left.alphabet_events, &all_masks);

        let a0 = Component {
            state: Some(left.start()),
            latched: left.states()[left.start() as usize].accept,
        };
        let b0 = Component {
            state: Some(right.start()),
            latched: right.states()[right.start() as usize].accept,
        };
        let start = Product {
            a: a0,
            b: b0,
            fired: a0.latched && b0.latched,
        };

        let mut index: HashMap<Product, u32> = HashMap::new();
        let mut worklist: Vec<Product> = vec![start];
        let mut states: Vec<State> = Vec::new();
        index.insert(start, 0);
        let mut cursor = 0usize;
        while cursor < worklist.len() {
            let p = worklist[cursor];
            cursor += 1;
            let mut masks: Vec<MaskId> = pending_masks(left, p.a);
            masks.extend(pending_masks(right, p.b));
            masks.sort_unstable();
            masks.dedup();
            let mut transitions = Vec::new();
            for &sym in &symbols {
                let (a_pending, b_pending) = match sym {
                    Symbol::True(m) | Symbol::False(m) => (
                        pending_masks(left, p.a).contains(&m),
                        pending_masks(right, p.b).contains(&m),
                    ),
                    Symbol::Event(_) => (false, false),
                };
                if sym.is_pseudo() && !a_pending && !b_pending {
                    continue; // no one is waiting on this mask
                }
                let Some((a2, a_fired)) = step(left, p.a, sym, a_pending) else {
                    continue; // product dies on this symbol
                };
                let Some((b2, b_fired)) = step(right, p.b, sym, b_pending) else {
                    continue;
                };
                let next = Product {
                    a: a2,
                    b: b2,
                    fired: (a_fired && b2.latched) || (b_fired && a2.latched),
                };
                let to = *index.entry(next).or_insert_with(|| {
                    worklist.push(next);
                    (worklist.len() - 1) as u32
                });
                transitions.push(Transition { on: sym, to });
            }
            transitions.sort_by_key(|t| t.on);
            states.push(State {
                accept: p.fired,
                masks,
                transitions,
            });
        }
        Dfa {
            start: 0,
            states,
            alphabet_events: left.alphabet_events.clone(),
            masks: all_masks,
            anchored: left.anchored,
            metrics: None,
            name: None,
        }
    }

    /// Subset construction only — used by tests and the optimisation
    /// ablation; behaviourally equivalent to [`Dfa::compile`].
    pub fn compile_unoptimized(trigger: &TriggerEvent, alphabet: &Alphabet) -> Dfa {
        let nfa = Nfa::build(trigger, alphabet);
        let symbols = Self::symbol_order(nfa.alphabet_events(), nfa.masks());
        let start_set = nfa.closure(&[nfa.start()]);
        let mut index: HashMap<Vec<usize>, u32> = HashMap::new();
        let mut sets: Vec<Vec<usize>> = Vec::new();
        let mut states: Vec<State> = Vec::new();
        index.insert(start_set.clone(), 0);
        sets.push(start_set);
        let mut cursor = 0usize;
        while cursor < sets.len() {
            let set = sets[cursor].clone();
            let accept = set.contains(&nfa.accept());
            let mut masks: Vec<MaskId> = set.iter().filter_map(|&s| nfa.mask_of(s)).collect();
            masks.sort_unstable();
            masks.dedup();
            let mut transitions = Vec::new();
            for &sym in &symbols {
                let target = nfa.closure(&nfa.step(&set, sym));
                if target.is_empty() {
                    continue;
                }
                let to = *index.entry(target.clone()).or_insert_with(|| {
                    sets.push(target);
                    (sets.len() - 1) as u32
                });
                transitions.push(Transition { on: sym, to });
            }
            transitions.sort_by_key(|a| a.on);
            states.push(State {
                accept,
                masks,
                transitions,
            });
            cursor += 1;
        }
        Dfa {
            start: 0,
            states,
            alphabet_events: nfa.alphabet_events().to_vec(),
            masks: nfa.masks().to_vec(),
            anchored: trigger.anchored,
            metrics: None,
            name: None,
        }
    }

    fn symbol_order(events: &[EventId], masks: &[MaskId]) -> Vec<Symbol> {
        let mut symbols: Vec<Symbol> = events.iter().map(|&e| Symbol::Event(e)).collect();
        for &m in masks {
            symbols.push(Symbol::True(m));
            symbols.push(Symbol::False(m));
        }
        symbols
    }

    /// Drop unreachable-by-contract transitions (see module docs).
    ///
    /// Mask states normally cannot be *rested in* (quiescence moves on
    /// immediately), so their real-event transitions are unreachable —
    /// except when a pending mask's pseudo edge loops back to the state
    /// itself (nullable mask operands like `(*e) & m()`): the run-time
    /// then rests at the fixpoint with masks still pending, and the next
    /// real event must find its transition.
    fn prune(&mut self) {
        for i in 0..self.states.len() {
            let state = &self.states[i];
            if state.masks.is_empty() {
                self.states[i].transitions.retain(|t| !t.on.is_pseudo());
                continue;
            }
            let can_rest = state.masks.iter().any(|&m| {
                state.next(Symbol::True(m)) == Some(i as u32)
                    || state.next(Symbol::False(m)) == Some(i as u32)
            });
            if !can_rest {
                self.states[i].transitions.retain(|t| t.on.is_pseudo());
            }
        }
    }

    /// Remove non-accepting single-mask states whose True and False edges
    /// coincide: evaluating the mask there cannot change anything.
    fn eliminate_redundant_masks(&mut self) {
        // Compute a redirect target for each redundant state.
        let mut redirect: Vec<u32> = (0..self.states.len() as u32).collect();
        for (i, state) in self.states.iter().enumerate() {
            if state.accept || state.masks.len() != 1 {
                continue;
            }
            let m = state.masks[0];
            let (Some(t), Some(f)) = (state.next(Symbol::True(m)), state.next(Symbol::False(m)))
            else {
                continue;
            };
            if t == f && t != i as u32 {
                redirect[i] = t;
            }
        }
        // Resolve chains (a redundant state may point at another).
        let resolve = |mut s: u32, redirect: &[u32]| {
            let mut hops = 0;
            while redirect[s as usize] != s && hops <= redirect.len() {
                s = redirect[s as usize];
                hops += 1;
            }
            s
        };
        if redirect.iter().enumerate().all(|(i, &r)| r == i as u32) {
            return;
        }
        self.start = resolve(self.start, &redirect);
        for state in &mut self.states {
            for t in &mut state.transitions {
                t.to = resolve(t.to, &redirect);
            }
        }
        // Unreachable states are collected by renumber().
    }

    /// Hopcroft-style partition refinement (simple iterated version).
    fn minimize(&mut self) {
        let n = self.states.len();
        // Initial classes: (accept, masks).
        let mut class: Vec<u32> = vec![0; n];
        {
            let mut keys: HashMap<(bool, Vec<MaskId>), u32> = HashMap::new();
            for (i, s) in self.states.iter().enumerate() {
                let next = keys.len() as u32;
                let id = *keys.entry((s.accept, s.masks.clone())).or_insert(next);
                class[i] = id;
            }
        }
        loop {
            type Signature = (u32, Vec<(Symbol, Option<u32>)>);
            let mut keys: HashMap<Signature, u32> = HashMap::new();
            let mut next_class: Vec<u32> = vec![0; n];
            for (i, s) in self.states.iter().enumerate() {
                let sig: Vec<(Symbol, Option<u32>)> = s
                    .transitions
                    .iter()
                    .map(|t| (t.on, Some(class[t.to as usize])))
                    .collect();
                let next = keys.len() as u32;
                let id = *keys.entry((class[i], sig)).or_insert(next);
                next_class[i] = id;
            }
            if next_class == class {
                break;
            }
            class = next_class;
        }
        // Build the quotient automaton.
        let class_count = class.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut rep: Vec<Option<usize>> = vec![None; class_count];
        for (i, &c) in class.iter().enumerate() {
            if rep[c as usize].is_none() {
                rep[c as usize] = Some(i);
            }
        }
        let mut new_states = Vec::with_capacity(class_count);
        for rep_state in rep.iter().take(class_count) {
            let i = rep_state.expect("every class has a representative");
            let src = &self.states[i];
            let transitions = src
                .transitions
                .iter()
                .map(|t| Transition {
                    on: t.on,
                    to: class[t.to as usize],
                })
                .collect();
            new_states.push(State {
                accept: src.accept,
                masks: src.masks.clone(),
                transitions,
            });
        }
        self.start = class[self.start as usize];
        self.states = new_states;
    }

    /// Breadth-first renumbering from the start state, exploring symbols in
    /// declaration order; also garbage-collects unreachable states. Gives
    /// the stable 0,1,2,… numbering used in the paper's Figure 1.
    fn renumber(&mut self) {
        let symbols = Self::symbol_order(&self.alphabet_events, &self.masks);
        let mut order: Vec<u32> = Vec::new();
        let mut seen = vec![false; self.states.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[self.start as usize] = true;
        queue.push_back(self.start);
        while let Some(s) = queue.pop_front() {
            order.push(s);
            for &sym in &symbols {
                if let Some(t) = self.states[s as usize].next(sym) {
                    if !seen[t as usize] {
                        seen[t as usize] = true;
                        queue.push_back(t);
                    }
                }
            }
        }
        let mut new_id = vec![u32::MAX; self.states.len()];
        for (fresh, &old) in order.iter().enumerate() {
            new_id[old as usize] = fresh as u32;
        }
        let mut new_states: Vec<State> = Vec::with_capacity(order.len());
        for &old in &order {
            let src = &self.states[old as usize];
            let mut transitions: Vec<Transition> = src
                .transitions
                .iter()
                .map(|t| Transition {
                    on: t.on,
                    to: new_id[t.to as usize],
                })
                .collect();
            transitions.sort_by_key(|a| a.on);
            new_states.push(State {
                accept: src.accept,
                masks: src.masks.clone(),
                transitions,
            });
        }
        self.start = 0;
        self.states = new_states;
    }

    /// The start state index (always 0 after compilation).
    pub fn start(&self) -> u32 {
        self.start
    }

    /// All states.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the automaton is empty (never after compilation).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Declared events of the class, in declaration order.
    pub fn alphabet_events(&self) -> &[EventId] {
        &self.alphabet_events
    }

    /// Masks referenced by the expression.
    pub fn masks(&self) -> &[MaskId] {
        &self.masks
    }

    /// Whether the source expression was anchored.
    pub fn anchored(&self) -> bool {
        self.anchored
    }

    /// Total number of stored transitions (sparse size; experiment E3).
    pub fn transition_count(&self) -> usize {
        self.states.iter().map(|s| s.transitions.len()).sum()
    }

    /// Graphviz dot export (render the paper's Figure 1 with `dot -Tpng`).
    pub fn to_dot(&self, alphabet: &Alphabet, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name:?} {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=circle];");
        for (i, s) in self.states.iter().enumerate() {
            let shape = if s.accept { "doublecircle" } else { "circle" };
            let label = if s.masks.is_empty() {
                format!("{i}")
            } else {
                // The paper stars mask states in Figure 1.
                format!(
                    "{i}*\\n{}",
                    s.masks
                        .iter()
                        .map(|&m| alphabet.mask_name(m))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            };
            let _ = writeln!(out, "  s{i} [shape={shape}, label=\"{label}\"];");
        }
        let _ = writeln!(out, "  start [shape=point];");
        let _ = writeln!(out, "  start -> s{};", self.start);
        // Merge parallel edges into one label per (from, to).
        for (i, s) in self.states.iter().enumerate() {
            let mut by_target: std::collections::BTreeMap<u32, Vec<String>> =
                std::collections::BTreeMap::new();
            for t in &s.transitions {
                let label = match t.on {
                    Symbol::Event(e) => alphabet.event_name(e),
                    Symbol::True(m) => format!("True({})", alphabet.mask_name(m)),
                    Symbol::False(m) => format!("False({})", alphabet.mask_name(m)),
                };
                by_target.entry(t.to).or_default().push(label);
            }
            for (to, labels) in by_target {
                let _ = writeln!(out, "  s{i} -> s{to} [label=\"{}\"];", labels.join(" || "));
            }
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Render the machine as a table, naming symbols via `alphabet` —
    /// compare with the paper's Figure 1.
    pub fn render(&self, alphabet: &Alphabet) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.states.iter().enumerate() {
            let marks = match (s.accept, s.masks.is_empty()) {
                (true, true) => " (accept)".to_string(),
                (false, false) => format!(
                    " (mask: {})",
                    s.masks
                        .iter()
                        .map(|&m| alphabet.mask_name(m))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                (true, false) => format!(
                    " (accept; mask: {})",
                    s.masks
                        .iter()
                        .map(|&m| alphabet.mask_name(m))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                (false, true) => String::new(),
            };
            let _ = writeln!(out, "state {i}{marks}:");
            for t in &s.transitions {
                let label = match t.on {
                    Symbol::Event(e) => alphabet.event_name(e),
                    Symbol::True(m) => format!("True({})", alphabet.mask_name(m)),
                    Symbol::False(m) => format!("False({})", alphabet.mask_name(m)),
                };
                let _ = writeln!(out, "  {label} -> {}", t.to);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn single_event_machine_shape() {
        let dfa = compile("after Buy");
        // Two states: watching, accepted (accept state keeps watching via
        // the *any wrapper so transitions exist, but only two states).
        assert_eq!(dfa.len(), 2);
        assert!(!dfa.states()[0].accept);
        assert!(dfa.states()[1].accept);
        // Declared events all have transitions from the start state.
        for e in [0u32, 1, 2] {
            assert!(dfa.states()[0].next(Symbol::Event(EventId(e))).is_some());
        }
    }

    #[test]
    fn figure_1_auto_raise_limit() {
        // The paper's Figure 1: relative((after Buy & MoreCred()),
        // after PayBill) compiles to a 4-state machine:
        //   0 start --after Buy--> 1 (mask MoreCred)
        //   1 --False--> 0, --True--> 2
        //   2 --after PayBill--> 3 (accept); BigBuy/after Buy self-loop
        //   0 self-loops on BigBuy/after PayBill
        let dfa = compile("relative((after Buy & MoreCred()), after PayBill)");
        let buy = Symbol::Event(EventId(2));
        let paybill = Symbol::Event(EventId(1));
        let bigbuy = Symbol::Event(EventId(0));
        let m = MaskId(0);

        assert_eq!(
            dfa.len(),
            4,
            "Figure 1 has exactly four states:\n{}",
            dfa.render(&alphabet())
        );
        let s0 = &dfa.states()[0];
        let s1 = &dfa.states()[1];
        let s2 = &dfa.states()[2];
        let s3 = &dfa.states()[3];

        // State 0: start, no mask, not accepting.
        assert!(!s0.accept && s0.masks.is_empty());
        assert_eq!(s0.next(buy), Some(1));
        assert_eq!(s0.next(bigbuy), Some(0));
        assert_eq!(s0.next(paybill), Some(0));

        // State 1: the mask state (starred in Figure 1).
        assert_eq!(s1.masks, vec![m]);
        assert!(!s1.accept);
        assert_eq!(s1.next(Symbol::False(m)), Some(0), "False returns to start");
        assert_eq!(s1.next(Symbol::True(m)), Some(2), "True arms the trigger");
        // Mask states carry no real-event transitions (§5.4.5 quiescence).
        assert_eq!(s1.next(buy), None);

        // State 2: armed, waiting for after PayBill.
        assert!(!s2.accept && s2.masks.is_empty());
        assert_eq!(s2.next(paybill), Some(3));
        assert_eq!(s2.next(bigbuy), Some(2));
        assert_eq!(
            s2.next(buy),
            Some(2),
            "redundant mask re-evaluation is eliminated"
        );

        // State 3: accept.
        assert!(s3.accept);
    }

    #[test]
    fn deny_credit_machine() {
        // after Buy & OverLimit-style mask: 3 states (start, mask, accept).
        let dfa = compile("after Buy & MoreCred()");
        assert_eq!(dfa.len(), 3, "{}", dfa.render(&alphabet()));
        let m = MaskId(0);
        assert_eq!(dfa.states()[0].next(Symbol::Event(EventId(2))), Some(1));
        assert_eq!(dfa.states()[1].masks, vec![m]);
        assert_eq!(dfa.states()[1].next(Symbol::False(m)), Some(0));
        assert!(dfa.states()[2].accept);
        assert_eq!(dfa.states()[1].next(Symbol::True(m)), Some(2));
    }

    #[test]
    fn optimized_is_no_larger_than_unoptimized() {
        let al = alphabet();
        for src in [
            "after Buy",
            "relative((after Buy & MoreCred()), after PayBill)",
            "*(BigBuy || after Buy), after PayBill",
            "^after Buy, after PayBill, BigBuy",
        ] {
            let te = parse(src, &al).unwrap();
            let opt = Dfa::compile(&te, &al);
            let raw = Dfa::compile_unoptimized(&te, &al);
            assert!(opt.len() <= raw.len(), "{src}");
            assert!(opt.transition_count() <= raw.transition_count(), "{src}");
        }
    }

    #[test]
    fn anchored_machine_has_dead_ends() {
        let dfa = compile("^after Buy, after PayBill");
        // From the start, BigBuy has no transition: the trigger dies.
        assert_eq!(dfa.states()[0].next(Symbol::Event(EventId(0))), None);
        assert_eq!(dfa.states()[0].next(Symbol::Event(EventId(2))), Some(1));
    }

    #[test]
    fn unanchored_machines_are_total_on_declared_events() {
        for src in [
            "after Buy",
            "relative((after Buy & MoreCred()), after PayBill)",
            "*(BigBuy || after Buy), after PayBill",
            "(after Buy & MoreCred()) || BigBuy",
        ] {
            let dfa = compile(src);
            for (i, s) in dfa.states().iter().enumerate() {
                if s.masks.is_empty() {
                    for e in dfa.alphabet_events() {
                        assert!(
                            s.next(Symbol::Event(*e)).is_some(),
                            "{src}: state {i} lacks a transition on {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn render_names_everything() {
        let dfa = compile("relative((after Buy & MoreCred()), after PayBill)");
        let shown = dfa.render(&alphabet());
        assert!(shown.contains("after Buy"));
        assert!(shown.contains("True(MoreCred)"));
        assert!(shown.contains("(accept)"));
        assert!(shown.contains("(mask: MoreCred)"));
    }

    #[test]
    fn dot_export_contains_the_machine() {
        let dfa = compile("relative((after Buy & MoreCred()), after PayBill)");
        let dot = dfa.to_dot(&alphabet(), "AutoRaiseLimit");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("doublecircle"), "accept state rendered");
        assert!(dot.contains("1*"), "mask state starred like Figure 1");
        assert!(dot.contains("True(MoreCred)"));
        assert!(dot.contains("BigBuy || after Buy"), "parallel edges merged");
    }

    #[test]
    fn minimization_merges_equivalent_states() {
        // a || a must collapse to the same machine as a.
        let al = alphabet();
        let a = Dfa::compile(&parse("after Buy", &al).unwrap(), &al);
        let aa = Dfa::compile(&parse("after Buy || after Buy", &al).unwrap(), &al);
        assert_eq!(a.len(), aa.len());
    }
}
