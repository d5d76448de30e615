//! The command/DDL layer: a textual statement surface over the engine.
//!
//! The paper defines triggers in O++ source; the related work (Reaction
//! RuleML, PAPERS.md) argues active systems need a practical textual rule
//! surface. This module extends the §4/§5.1 *expression* parser
//! (`ode_events::parser`) upward into a *statement* grammar executed
//! through a [`Session`]:
//!
//! ```text
//! CREATE DATABASE bank
//! USE bank
//! CREATE CLASS CredCard {
//!     FIELD cred_lim = 1000; FIELD curr_bal; FIELD good_hist = 1;
//!     EVENT AFTER Buy; EVENT AFTER PayBill;
//!     MASK OverLimit WHEN curr_bal > cred_lim;
//!     MASK MoreCred WHEN curr_bal > 0.8 * cred_lim AND good_hist == 1;
//! }
//! CREATE TRIGGER DenyCredit ON CredCard PERPETUAL
//!     WHEN after Buy & OverLimit() COUPLING immediate DO ABORT 'Over Limit'
//! CREATE TRIGGER AutoRaiseLimit ON CredCard
//!     WHEN relative((after Buy & MoreCred()), after PayBill)
//!     COUPLING immediate DO SET cred_lim = cred_lim + PARAM
//! NEW CredCard SET curr_bal = 0
//! ACTIVATE AutoRaiseLimit ON 3:0 WITH 1000
//! CALL 3:0 Buy SET curr_bal = curr_bal + 900
//! GET 3:0 cred_lim
//! ```
//!
//! The `WHEN … COUPLING` span is handed verbatim to the existing event
//! expression parser, resolved against the class's
//! [`Alphabet`](ode_events::Alphabet) — so
//! text-defined triggers compile to the *same* FSMs and run on the same
//! coupling machinery as Rust-defined ones ([`crate::class::ClassBuilder`]
//! is reused underneath). Classes defined here have named `f64` fields;
//! mask predicates and `SET` actions are a small numeric expression
//! language over those fields plus `PARAM`, the trigger's activation
//! parameter (the paper's `AutoRaiseLimit(float amount)`).
//!
//! Errors carry the byte offset into the statement text
//! (`DdlError::at`); offsets inside an event expression are rebased
//! onto the full statement, so `CREATE TRIGGER … WHEN after Typo …`
//! points at `Typo` in the original text.
//!
//! Like Rust-defined classes, DDL class definitions are *session* state
//! rebuilt on each engine start ("we chose to compile an FSM every time
//! we compile an O++ program", §5.1.3); class-id/cluster assignments and
//! all objects, trigger states, and FSM positions persist.

use crate::class::{ClassBuilder, Perpetual};
use crate::context::TriggerCtx;
use crate::database::Database;
use crate::error::{OdeError, Result};
use crate::metatype::CouplingMode;
use crate::object::ObjectHeader;
use crate::session::Session;
use crate::trigger::TriggerId;
use ode_events::event::{BasicEvent, EventTime};
use ode_storage::codec::Decode;
use ode_storage::Oid;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A statement error: message plus, when known, the byte offset into the
/// statement text where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdlError {
    /// Byte offset into the statement source, when the error is
    /// syntactic/positional.
    pub at: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl DdlError {
    fn at(at: usize, message: impl Into<String>) -> DdlError {
        DdlError {
            at: Some(at),
            message: message.into(),
        }
    }

    fn new(message: impl Into<String>) -> DdlError {
        DdlError {
            at: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for DdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "at byte {at}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for DdlError {}

impl From<OdeError> for DdlError {
    fn from(e: OdeError) -> DdlError {
        DdlError::new(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Str(String),
    Punct(&'static str),
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier {s:?}"),
            Tok::Number(n) => format!("number {n}"),
            Tok::Str(_) => "string".to_string(),
            Tok::Punct(p) => format!("{p:?}"),
        }
    }
}

const PUNCTS: &[&str] = &[
    "<=", ">=", "==", "!=", "&&", "||", "{", "}", "(", ")", ";", ",", "=", "+", "-", "*", "/", "<",
    ">", ":", "&", "|", "^", "!", "$",
];

fn lex(src: &str) -> std::result::Result<Vec<(Tok, usize)>, DdlError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    'outer: while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // `--` comments run to end of line.
        if c == b'-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push((Tok::Ident(src[start..i].to_string()), start));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i < bytes.len()
                && bytes[i] == b'.'
                && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
            {
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
            let text = &src[start..i];
            let n: f64 = text
                .parse()
                .map_err(|_| DdlError::at(start, format!("bad number {text:?}")))?;
            out.push((Tok::Number(n), start));
            continue;
        }
        if c == b'\'' {
            let start = i;
            i += 1;
            let lit_start = i;
            while i < bytes.len() && bytes[i] != b'\'' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err(DdlError::at(start, "unterminated string literal"));
            }
            out.push((Tok::Str(src[lit_start..i].to_string()), start));
            i += 1;
            continue;
        }
        for p in PUNCTS {
            if src[i..].starts_with(p) {
                out.push((Tok::Punct(p), i));
                i += p.len();
                continue 'outer;
            }
        }
        return Err(DdlError::at(
            i,
            format!(
                "unexpected character {:?}",
                src[i..].chars().next().unwrap()
            ),
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Numeric / predicate expressions (mask bodies, SET right-hand sides)
// ---------------------------------------------------------------------

/// Arithmetic over the class's `f64` fields, `PARAM`, and literals.
#[derive(Debug, Clone, PartialEq)]
pub enum NumExpr {
    /// A literal number.
    Const(f64),
    /// A field reference, resolved against the class shape at DDL time.
    Field {
        /// Field name.
        name: String,
        /// Byte offset of the reference (for unknown-field errors).
        at: usize,
    },
    /// The trigger's activation parameter (`ACTIVATE … WITH <n>`).
    Param {
        /// Byte offset of the keyword.
        at: usize,
    },
    /// A `$n` placeholder (1-based), bound by `EXECUTE … WITH <args>`.
    /// Reaching evaluation unbound is an error.
    Arg {
        /// 1-based argument index.
        index: usize,
        /// Byte offset of the `$`.
        at: usize,
    },
    /// `lhs op rhs`.
    Binary {
        /// One of `+ - * /`.
        op: char,
        /// Left operand.
        lhs: Box<NumExpr>,
        /// Right operand.
        rhs: Box<NumExpr>,
    },
    /// Unary negation.
    Neg(Box<NumExpr>),
}

/// Boolean combinations of numeric comparisons (mask predicates).
#[derive(Debug, Clone, PartialEq)]
pub enum PredExpr {
    /// `lhs op rhs` with op in `== != < <= > >=`.
    Cmp {
        /// The comparison operator as written.
        op: &'static str,
        /// Left operand.
        lhs: NumExpr,
        /// Right operand.
        rhs: NumExpr,
    },
    /// Both sides true (`AND` / `&&`).
    And(Box<PredExpr>, Box<PredExpr>),
    /// Either side true (`OR` / `||`).
    Or(Box<PredExpr>, Box<PredExpr>),
}

/// The field layout of a DDL-defined class.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Shape {
    /// `(name, default)` in payload order.
    fields: Vec<(String, f64)>,
    index: HashMap<String, usize>,
}

impl Shape {
    fn push(&mut self, name: &str, default: f64) -> bool {
        if self.index.contains_key(name) {
            return false;
        }
        self.index.insert(name.to_string(), self.fields.len());
        self.fields.push((name.to_string(), default));
        true
    }

    fn get(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    fn decode(&self, payload: &[u8], out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        let mut slice = payload;
        for _ in 0..self.fields.len() {
            out.push(f64::decode(&mut slice).map_err(OdeError::from)?);
        }
        Ok(())
    }

    fn encode(&self, vals: &[f64], out: &mut Vec<u8>) {
        out.clear();
        for v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

impl NumExpr {
    /// Check every field reference against the shape (DDL-time; carries
    /// offsets into the statement text).
    fn validate(&self, shape: &Shape) -> std::result::Result<(), DdlError> {
        match self {
            NumExpr::Const(_) | NumExpr::Param { .. } => Ok(()),
            // Persistent definitions (masks, trigger actions) outlive any
            // one EXECUTE, so a placeholder in one can never be bound.
            NumExpr::Arg { index, at } => Err(DdlError::at(
                *at,
                format!("placeholder ${index} is not allowed in a persistent definition"),
            )),
            NumExpr::Field { name, at } => shape
                .get(name)
                .map(|_| ())
                .ok_or_else(|| DdlError::at(*at, format!("unknown field {name:?}"))),
            NumExpr::Binary { lhs, rhs, .. } => {
                lhs.validate(shape)?;
                rhs.validate(shape)
            }
            NumExpr::Neg(inner) => inner.validate(shape),
        }
    }

    fn eval(&self, shape: &Shape, vals: &[f64], param: Option<f64>) -> Result<f64> {
        match self {
            NumExpr::Const(n) => Ok(*n),
            NumExpr::Field { name, .. } => {
                let i = shape
                    .get(name)
                    .ok_or_else(|| OdeError::Action(format!("unknown field {name:?}")))?;
                Ok(vals[i])
            }
            NumExpr::Param { .. } => param.ok_or_else(|| {
                OdeError::Action(
                    "PARAM used but the trigger was activated without a parameter".into(),
                )
            }),
            NumExpr::Arg { index, .. } => Err(OdeError::Action(format!(
                "unbound placeholder ${index} (run via EXECUTE … WITH <args>)"
            ))),
            NumExpr::Binary { op, lhs, rhs } => {
                let l = lhs.eval(shape, vals, param)?;
                let r = rhs.eval(shape, vals, param)?;
                Ok(match op {
                    '+' => l + r,
                    '-' => l - r,
                    '*' => l * r,
                    _ => l / r,
                })
            }
            NumExpr::Neg(inner) => Ok(-inner.eval(shape, vals, param)?),
        }
    }

    /// Replace every `$n` placeholder with `args[n-1]`, in place
    /// (`EXECUTE … WITH <args>`).
    fn bind_args(&mut self, args: &[f64]) -> std::result::Result<(), DdlError> {
        match self {
            NumExpr::Arg { index, at } => {
                let (index, at) = (*index, *at);
                match args.get(index.wrapping_sub(1)) {
                    Some(v) => {
                        *self = NumExpr::Const(*v);
                        Ok(())
                    }
                    None => Err(DdlError::at(
                        at,
                        format!(
                            "placeholder ${index} has no argument (EXECUTE supplied {})",
                            args.len()
                        ),
                    )),
                }
            }
            NumExpr::Binary { lhs, rhs, .. } => {
                lhs.bind_args(args)?;
                rhs.bind_args(args)
            }
            NumExpr::Neg(inner) => inner.bind_args(args),
            NumExpr::Const(_) | NumExpr::Field { .. } | NumExpr::Param { .. } => Ok(()),
        }
    }
}

impl PredExpr {
    fn validate(&self, shape: &Shape) -> std::result::Result<(), DdlError> {
        match self {
            PredExpr::Cmp { lhs, rhs, .. } => {
                lhs.validate(shape)?;
                rhs.validate(shape)
            }
            PredExpr::And(a, b) | PredExpr::Or(a, b) => {
                a.validate(shape)?;
                b.validate(shape)
            }
        }
    }

    fn eval(&self, shape: &Shape, vals: &[f64], param: Option<f64>) -> Result<bool> {
        match self {
            PredExpr::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(shape, vals, param)?;
                let r = rhs.eval(shape, vals, param)?;
                Ok(match *op {
                    "==" => l == r,
                    "!=" => l != r,
                    "<" => l < r,
                    "<=" => l <= r,
                    ">" => l > r,
                    _ => l >= r,
                })
            }
            PredExpr::And(a, b) => Ok(a.eval(shape, vals, param)? && b.eval(shape, vals, param)?),
            PredExpr::Or(a, b) => Ok(a.eval(shape, vals, param)? || b.eval(shape, vals, param)?),
        }
    }
}

// ---------------------------------------------------------------------
// Statement AST
// ---------------------------------------------------------------------

/// A trigger defined in DDL text. The event expression is kept as source
/// (`expr`, with its offset into the defining statement) and compiled by
/// [`ClassBuilder`] against the class alphabet, exactly like a
/// Rust-defined trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct DdlTriggerDef {
    /// Trigger name.
    pub name: String,
    /// `PERPETUAL` was given.
    pub perpetual: bool,
    /// The `WHEN … COUPLING` span, verbatim.
    pub expr: String,
    /// Byte offset of `expr` in the defining statement (for rebasing
    /// expression parse errors).
    pub expr_at: usize,
    /// Coupling mode.
    pub coupling: CouplingMode,
    /// What the trigger does when it fires.
    pub action: DdlAction,
}

/// A DDL trigger action.
#[derive(Debug, Clone, PartialEq)]
pub enum DdlAction {
    /// `DO SET f = e, …` — assignments applied to the anchor object in
    /// order (later right-hand sides see earlier updates).
    Set(Vec<(String, NumExpr)>),
    /// `DO ABORT '<reason>'` — the paper's `tabort`.
    Abort(String),
}

/// A DDL class definition: named `f64` fields, declared events, masks.
#[derive(Debug, Clone, PartialEq)]
pub struct DdlClassDef {
    /// Class name.
    pub name: String,
    /// `(field, default)` in declaration (= payload) order.
    pub fields: Vec<(String, f64)>,
    /// Declared basic events.
    pub events: Vec<BasicEvent>,
    /// Mask name → predicate.
    pub masks: Vec<(String, PredExpr)>,
    /// Triggers added by `CREATE TRIGGER` (in order; the trigger numbers
    /// the FSM state records carry are indexes into this list).
    pub triggers: Vec<DdlTriggerDef>,
}

/// One parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE DATABASE <name>`
    CreateDatabase(String),
    /// `DROP DATABASE <name>`
    DropDatabase(String),
    /// `USE <name>`
    Use(String),
    /// `SHOW DATABASES`
    ShowDatabases,
    /// `CREATE CLASS <name> { … }`
    CreateClass(DdlClassDef),
    /// `CREATE TRIGGER <name> ON <class> [PERPETUAL] WHEN <expr> COUPLING <mode> DO <action>`
    CreateTrigger {
        /// The class the trigger is defined on.
        class: String,
        /// The trigger definition.
        def: DdlTriggerDef,
    },
    /// `ACTIVATE <trigger> ON <oid> [WITH <number>]`
    Activate {
        /// Trigger name (resolved against the anchor's dynamic class).
        trigger: String,
        /// Anchor object.
        anchor: Oid,
        /// Activation parameter.
        param: Option<f64>,
    },
    /// `DEACTIVATE <trigger-id>`
    Deactivate(Oid),
    /// `NEW <class> [SET f = e, …]`
    New {
        /// Class name (must be DDL-defined).
        class: String,
        /// Initial field overrides.
        sets: Vec<(String, NumExpr)>,
    },
    /// `CALL <oid> <method> [SET f = e, …]` — the §5.3 wrapper function:
    /// posts `before <method>`, applies the sets, posts `after <method>`.
    Call {
        /// Receiver object.
        anchor: Oid,
        /// Method name.
        method: String,
        /// Field updates (the "body").
        sets: Vec<(String, NumExpr)>,
    },
    /// `POST <oid> <event>` — post a user-defined event.
    Post {
        /// Target object.
        anchor: Oid,
        /// User event name.
        event: String,
    },
    /// `GET <oid> [<field>]`
    Get {
        /// Object to read.
        anchor: Oid,
        /// Single field, or all fields when absent.
        field: Option<String>,
    },
    /// `TICK <timer>`
    Tick(String),
    /// `BEGIN [READ ONLY]`
    Begin {
        /// Snapshot transaction.
        read_only: bool,
    },
    /// `COMMIT`
    Commit,
    /// `ABORT`
    Abort,
    /// `METRICS` — the engine's labeled Prometheus page.
    Metrics,
    /// `SHOW CLASSES` — DDL-defined classes of the current database.
    ShowClasses,
    /// `SHOW TRIGGERS` — trigger definitions with coupling mode and
    /// live instance counts.
    ShowTriggers,
    /// `SHOW TRACE` — the span tree of the last traced statement.
    ShowTrace,
    /// `TRACE ON | OFF | SAMPLE <n>` — session trace sampling.
    Trace(crate::session::TraceMode),
    /// `EXPLAIN <stmt>` — execute the statement traced and return its
    /// span tree in the same round trip.
    Explain(Box<Statement>),
    /// `PREPARE <name> AS <stmt>` — parse once, store on the session.
    Prepare {
        /// Prepared-statement name (session-scoped).
        name: String,
        /// The parsed body; may contain `$n` placeholders.
        stmt: Box<Statement>,
    },
    /// `EXECUTE <name> [WITH <n>, …]` — run a prepared statement with
    /// its placeholders bound to the given arguments.
    ExecutePrepared {
        /// Prepared-statement name.
        name: String,
        /// Placeholder arguments, 1-based (`$1` is `args[0]`).
        args: Vec<f64>,
    },
}

impl Statement {
    /// Bind `$n` placeholders throughout the statement, in place. Only
    /// expression positions (`SET` right-hand sides) can carry them;
    /// everything else is untouched.
    fn bind_args(&mut self, args: &[f64]) -> std::result::Result<(), DdlError> {
        match self {
            Statement::New { sets, .. } | Statement::Call { sets, .. } => {
                for (_, expr) in sets {
                    expr.bind_args(args)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// Statement parser
// ---------------------------------------------------------------------

struct Cursor<'a> {
    toks: &'a [(Tok, usize)],
    pos: usize,
    src_len: usize,
}

type PResult<T> = std::result::Result<T, DdlError>;

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn at(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|(_, at)| *at)
            .unwrap_or(self.src_len)
    }

    /// Consume the next token if it is the given keyword
    /// (case-insensitive identifier match).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected {kw}")))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if let Some(Tok::Punct(q)) = self.peek() {
            if *q == p {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_punct(&mut self, p: &str) -> PResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected {p:?}")))
        }
    }

    fn ident(&mut self, what: &str) -> PResult<(String, usize)> {
        match self.toks.get(self.pos) {
            Some((Tok::Ident(s), at)) => {
                self.pos += 1;
                Ok((s.clone(), *at))
            }
            _ => Err(self.unexpected(&format!("expected {what}"))),
        }
    }

    fn number(&mut self, what: &str) -> PResult<f64> {
        let neg = self.eat_punct("-");
        match self.toks.get(self.pos) {
            Some((Tok::Number(n), _)) => {
                self.pos += 1;
                Ok(if neg { -n } else { *n })
            }
            _ => Err(self.unexpected(&format!("expected {what}"))),
        }
    }

    /// Parse `<page>:<slot>` as an object id.
    fn oid(&mut self) -> PResult<Oid> {
        let at = self.at();
        let page = self.number("object id (<page>:<slot>)")?;
        self.expect_punct(":")?;
        let slot = self.number("object id slot")?;
        if page < 0.0 || page.fract() != 0.0 || slot < 0.0 || slot.fract() != 0.0 || slot > 65535.0
        {
            return Err(DdlError::at(at, "object id parts must be small integers"));
        }
        Ok(Oid::new(page as u32, slot as u16))
    }

    fn unexpected(&self, want: &str) -> DdlError {
        match self.toks.get(self.pos) {
            Some((tok, at)) => DdlError::at(*at, format!("{want}, found {}", tok.describe())),
            None => DdlError::at(self.src_len, format!("{want}, found end of statement")),
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.toks.len()
    }

    // -- numeric / predicate grammar --------------------------------

    fn num_expr(&mut self) -> PResult<NumExpr> {
        let mut lhs = self.num_term()?;
        loop {
            let op = if self.eat_punct("+") {
                '+'
            } else if self.eat_punct("-") {
                '-'
            } else {
                return Ok(lhs);
            };
            let rhs = self.num_term()?;
            lhs = NumExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn num_term(&mut self) -> PResult<NumExpr> {
        let mut lhs = self.num_factor()?;
        loop {
            let op = if self.eat_punct("*") {
                '*'
            } else if self.eat_punct("/") {
                '/'
            } else {
                return Ok(lhs);
            };
            let rhs = self.num_factor()?;
            lhs = NumExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn num_factor(&mut self) -> PResult<NumExpr> {
        if self.eat_punct("-") {
            return Ok(NumExpr::Neg(Box::new(self.num_factor()?)));
        }
        if self.eat_punct("(") {
            let e = self.num_expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        if let Some(Tok::Punct("$")) = self.peek() {
            let at = self.at();
            self.pos += 1;
            return match self.toks.get(self.pos) {
                Some((Tok::Number(n), _)) if n.fract() == 0.0 && *n >= 1.0 && *n <= 65535.0 => {
                    let index = *n as usize;
                    self.pos += 1;
                    Ok(NumExpr::Arg { index, at })
                }
                _ => Err(self.unexpected("expected placeholder index after $ (e.g. $1)")),
            };
        }
        match self.toks.get(self.pos) {
            Some((Tok::Number(n), _)) => {
                self.pos += 1;
                Ok(NumExpr::Const(*n))
            }
            Some((Tok::Ident(s), at)) => {
                let (s, at) = (s.clone(), *at);
                self.pos += 1;
                if s.eq_ignore_ascii_case("param") {
                    Ok(NumExpr::Param { at })
                } else {
                    Ok(NumExpr::Field { name: s, at })
                }
            }
            _ => Err(self.unexpected("expected number, field, PARAM, $n, or (")),
        }
    }

    fn pred_expr(&mut self) -> PResult<PredExpr> {
        let mut lhs = self.pred_and()?;
        while self.eat_kw("or") || self.eat_punct("||") {
            let rhs = self.pred_and()?;
            lhs = PredExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pred_and(&mut self) -> PResult<PredExpr> {
        let mut lhs = self.pred_cmp()?;
        while self.eat_kw("and") || self.eat_punct("&&") {
            let rhs = self.pred_cmp()?;
            lhs = PredExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pred_cmp(&mut self) -> PResult<PredExpr> {
        let lhs = self.num_expr()?;
        let op = match self.peek() {
            Some(Tok::Punct(p)) if ["==", "!=", "<", "<=", ">", ">="].contains(p) => *p,
            _ => return Err(self.unexpected("expected comparison operator")),
        };
        self.pos += 1;
        let rhs = self.num_expr()?;
        Ok(PredExpr::Cmp { op, lhs, rhs })
    }

    /// `SET f = e {, f = e}`.
    fn set_list(&mut self) -> PResult<Vec<(String, NumExpr)>> {
        let mut sets = Vec::new();
        loop {
            let (field, _) = self.ident("field name")?;
            self.expect_punct("=")?;
            sets.push((field, self.num_expr()?));
            if !self.eat_punct(",") {
                return Ok(sets);
            }
        }
    }
}

/// Parse one statement. Keywords are case-insensitive; identifiers are
/// case-sensitive.
pub fn parse_statement(src: &str) -> std::result::Result<Statement, DdlError> {
    let toks = lex(src)?;
    let mut c = Cursor {
        toks: &toks,
        pos: 0,
        src_len: src.len(),
    };
    let stmt = parse_inner(&mut c, src)?;
    if !c.done() {
        return Err(c.unexpected("expected end of statement"));
    }
    Ok(stmt)
}

fn parse_inner(c: &mut Cursor<'_>, src: &str) -> PResult<Statement> {
    if c.eat_kw("create") {
        if c.eat_kw("database") {
            return Ok(Statement::CreateDatabase(c.ident("database name")?.0));
        }
        if c.eat_kw("class") {
            return parse_create_class(c);
        }
        if c.eat_kw("trigger") {
            return parse_create_trigger(c, src);
        }
        return Err(c.unexpected("expected DATABASE, CLASS, or TRIGGER"));
    }
    if c.eat_kw("drop") {
        c.expect_kw("database")?;
        return Ok(Statement::DropDatabase(c.ident("database name")?.0));
    }
    if c.eat_kw("use") {
        return Ok(Statement::Use(c.ident("database name")?.0));
    }
    if c.eat_kw("show") {
        if c.eat_kw("databases") {
            return Ok(Statement::ShowDatabases);
        }
        if c.eat_kw("classes") {
            return Ok(Statement::ShowClasses);
        }
        if c.eat_kw("triggers") {
            return Ok(Statement::ShowTriggers);
        }
        if c.eat_kw("trace") {
            return Ok(Statement::ShowTrace);
        }
        return Err(c.unexpected("expected DATABASES, CLASSES, TRIGGERS, or TRACE"));
    }
    if c.eat_kw("trace") {
        if c.eat_kw("on") {
            return Ok(Statement::Trace(crate::session::TraceMode::On));
        }
        if c.eat_kw("off") {
            return Ok(Statement::Trace(crate::session::TraceMode::Off));
        }
        if c.eat_kw("sample") {
            let at = c.at();
            let n = c.number("sample interval")?;
            if n < 1.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                return Err(DdlError::at(
                    at,
                    "TRACE SAMPLE wants a positive integer interval",
                ));
            }
            return Ok(Statement::Trace(crate::session::TraceMode::Sample(
                n as u64,
            )));
        }
        return Err(c.unexpected("expected ON, OFF, or SAMPLE <n>"));
    }
    if c.eat_kw("explain") {
        let at = c.at();
        let inner = parse_inner(c, src)?;
        if matches!(inner, Statement::Explain(_) | Statement::Prepare { .. }) {
            return Err(DdlError::at(at, "cannot EXPLAIN that statement"));
        }
        return Ok(Statement::Explain(Box::new(inner)));
    }
    if c.eat_kw("prepare") {
        let (name, _) = c.ident("prepared statement name")?;
        c.expect_kw("as")?;
        let at = c.at();
        let inner = parse_inner(c, src)?;
        if matches!(
            inner,
            Statement::Prepare { .. } | Statement::ExecutePrepared { .. } | Statement::Explain(_)
        ) {
            return Err(DdlError::at(at, "cannot PREPARE that statement"));
        }
        return Ok(Statement::Prepare {
            name,
            stmt: Box::new(inner),
        });
    }
    if c.eat_kw("execute") {
        let (name, _) = c.ident("prepared statement name")?;
        let mut args = Vec::new();
        if c.eat_kw("with") {
            loop {
                args.push(c.number("argument")?);
                if !c.eat_punct(",") {
                    break;
                }
            }
        }
        return Ok(Statement::ExecutePrepared { name, args });
    }
    if c.eat_kw("activate") {
        let (trigger, _) = c.ident("trigger name")?;
        c.expect_kw("on")?;
        let anchor = c.oid()?;
        let param = if c.eat_kw("with") {
            Some(c.number("activation parameter")?)
        } else {
            None
        };
        return Ok(Statement::Activate {
            trigger,
            anchor,
            param,
        });
    }
    if c.eat_kw("deactivate") {
        return Ok(Statement::Deactivate(c.oid()?));
    }
    if c.eat_kw("new") {
        let (class, _) = c.ident("class name")?;
        let sets = if c.eat_kw("set") {
            c.set_list()?
        } else {
            Vec::new()
        };
        return Ok(Statement::New { class, sets });
    }
    if c.eat_kw("call") {
        let anchor = c.oid()?;
        let (method, _) = c.ident("method name")?;
        let sets = if c.eat_kw("set") {
            c.set_list()?
        } else {
            Vec::new()
        };
        return Ok(Statement::Call {
            anchor,
            method,
            sets,
        });
    }
    if c.eat_kw("post") {
        let anchor = c.oid()?;
        let (event, _) = c.ident("event name")?;
        return Ok(Statement::Post { anchor, event });
    }
    if c.eat_kw("get") {
        let anchor = c.oid()?;
        let field = if c.done() {
            None
        } else {
            Some(c.ident("field name")?.0)
        };
        return Ok(Statement::Get { anchor, field });
    }
    if c.eat_kw("tick") {
        return Ok(Statement::Tick(c.ident("timer name")?.0));
    }
    if c.eat_kw("begin") {
        let read_only = if c.eat_kw("read") {
            c.expect_kw("only")?;
            true
        } else {
            false
        };
        return Ok(Statement::Begin { read_only });
    }
    if c.eat_kw("commit") {
        return Ok(Statement::Commit);
    }
    if c.eat_kw("abort") {
        return Ok(Statement::Abort);
    }
    if c.eat_kw("metrics") {
        return Ok(Statement::Metrics);
    }
    Err(c.unexpected("expected a statement keyword"))
}

fn parse_create_class(c: &mut Cursor<'_>) -> PResult<Statement> {
    let (name, _) = c.ident("class name")?;
    c.expect_punct("{")?;
    let mut def = DdlClassDef {
        name,
        fields: Vec::new(),
        events: Vec::new(),
        masks: Vec::new(),
        triggers: Vec::new(),
    };
    loop {
        if c.eat_punct("}") {
            return Ok(Statement::CreateClass(def));
        }
        if c.eat_kw("field") {
            let (fname, fat) = c.ident("field name")?;
            let default = if c.eat_punct("=") {
                c.number("default value")?
            } else {
                0.0
            };
            if def.fields.iter().any(|(n, _)| *n == fname) {
                return Err(DdlError::at(fat, format!("duplicate field {fname:?}")));
            }
            def.fields.push((fname, default));
        } else if c.eat_kw("event") {
            let event = if c.eat_kw("after") {
                BasicEvent::after(&c.ident("method name")?.0)
            } else if c.eat_kw("before") {
                BasicEvent::before(&c.ident("method name")?.0)
            } else if c.eat_kw("timer") {
                BasicEvent::Timer {
                    name: c.ident("timer name")?.0,
                }
            } else {
                BasicEvent::user(&c.ident("event name")?.0)
            };
            def.events.push(event);
        } else if c.eat_kw("mask") {
            let (mname, mat) = c.ident("mask name")?;
            c.expect_kw("when")?;
            let pred = c.pred_expr()?;
            if def.masks.iter().any(|(n, _)| *n == mname) {
                return Err(DdlError::at(mat, format!("duplicate mask {mname:?}")));
            }
            def.masks.push((mname, pred));
        } else {
            return Err(c.unexpected("expected FIELD, EVENT, MASK, or }"));
        }
        if !c.eat_punct(";") && !matches!(c.peek(), Some(Tok::Punct("}"))) {
            return Err(c.unexpected("expected ; or }"));
        }
    }
}

fn parse_create_trigger(c: &mut Cursor<'_>, src: &str) -> PResult<Statement> {
    let (name, _) = c.ident("trigger name")?;
    c.expect_kw("on")?;
    let (class, _) = c.ident("class name")?;
    let perpetual = c.eat_kw("perpetual");
    c.expect_kw("when")?;
    // The event expression between WHEN and COUPLING is handed verbatim
    // to the ode-events parser; find the COUPLING keyword to bound it.
    let expr_start = c.pos;
    let coupling_pos = (expr_start..c.toks.len())
        .find(|&i| matches!(&c.toks[i].0, Tok::Ident(s) if s.eq_ignore_ascii_case("coupling")));
    let Some(coupling_pos) = coupling_pos else {
        return Err(DdlError::at(
            c.at(),
            "expected COUPLING <mode> after the event expression",
        ));
    };
    if coupling_pos == expr_start {
        return Err(DdlError::at(c.at(), "empty event expression"));
    }
    let expr_at = c.toks[expr_start].1;
    let expr_end = c.toks[coupling_pos].1;
    let expr = src[expr_at..expr_end].trim_end().to_string();
    c.pos = coupling_pos + 1; // past COUPLING
    let coupling = if c.eat_punct("!") {
        c.expect_kw("dependent")?;
        CouplingMode::Independent
    } else {
        let (mode, mat) = c.ident("coupling mode")?;
        match mode.to_ascii_lowercase().as_str() {
            "immediate" => CouplingMode::Immediate,
            "end" => CouplingMode::End,
            "dependent" => CouplingMode::Dependent,
            "independent" => CouplingMode::Independent,
            _ => {
                return Err(DdlError::at(
                    mat,
                    format!(
                        "unknown coupling mode {mode:?} (want immediate, end, dependent, or independent)"
                    ),
                ))
            }
        }
    };
    c.expect_kw("do")?;
    let action = if c.eat_kw("set") {
        DdlAction::Set(c.set_list()?)
    } else if c.eat_kw("abort") {
        let reason = match c.toks.get(c.pos) {
            Some((Tok::Str(s), _)) => {
                c.pos += 1;
                s.clone()
            }
            _ => "tabort".to_string(),
        };
        DdlAction::Abort(reason)
    } else {
        return Err(c.unexpected("expected SET or ABORT"));
    };
    Ok(Statement::CreateTrigger {
        class,
        def: DdlTriggerDef {
            name,
            perpetual,
            expr,
            expr_at,
            coupling,
            action,
        },
    })
}

// ---------------------------------------------------------------------
// The per-database DDL catalog
// ---------------------------------------------------------------------

/// DDL-defined classes of one database. Guarded by a mutex on the
/// [`Database`]; `CREATE TRIGGER` rebuilds the descriptor under it so two
/// connections never interleave a rebuild.
#[derive(Default)]
pub(crate) struct DdlCatalog {
    classes: HashMap<String, (DdlClassDef, Arc<Shape>)>,
}

fn decode_param(raw: &[u8]) -> Option<f64> {
    <[u8; 8]>::try_from(raw).ok().map(f64::from_le_bytes)
}

/// Read and decode the anchor object's fields.
fn ctx_fields(ctx: &TriggerCtx<'_>, shape: &Shape) -> Result<(ObjectHeader, Vec<f64>)> {
    let (header, payload) = ctx.db().read_raw(ctx.txn(), ctx.anchor_oid())?;
    let mut vals = Vec::with_capacity(shape.fields.len());
    shape.decode(&payload, &mut vals)?;
    Ok((header, vals))
}

/// Compile a [`DdlClassDef`] into a live descriptor: the same
/// [`ClassBuilder`] path Rust-defined classes take. Masks and actions
/// close over the class shape and interpret the little expression
/// language against the anchor's decoded fields.
fn build_descriptor(
    db: &Database,
    def: &DdlClassDef,
    shape: &Arc<Shape>,
) -> Result<Arc<crate::metatype::TypeDescriptor>> {
    let mut b = ClassBuilder::new(&def.name);
    for event in &def.events {
        b = b.event(event.clone());
    }
    for (name, pred) in &def.masks {
        let pred = pred.clone();
        let shape = Arc::clone(shape);
        b = b.mask(name, move |ctx| {
            let (_, vals) = ctx_fields(ctx, &shape)?;
            pred.eval(&shape, &vals, decode_param(ctx.raw_params()))
        });
    }
    for trig in &def.triggers {
        let perpetual = if trig.perpetual {
            Perpetual::Yes
        } else {
            Perpetual::No
        };
        match &trig.action {
            DdlAction::Set(sets) => {
                let sets = sets.clone();
                let shape = Arc::clone(shape);
                b = b.trigger(
                    &trig.name,
                    &trig.expr,
                    trig.coupling,
                    perpetual,
                    move |ctx| {
                        let (header, mut vals) = ctx_fields(ctx, &shape)?;
                        let param = decode_param(ctx.raw_params());
                        for (field, expr) in &sets {
                            let i = shape.get(field).ok_or_else(|| {
                                OdeError::Action(format!("unknown field {field:?}"))
                            })?;
                            vals[i] = expr.eval(&shape, &vals, param)?;
                        }
                        let mut payload = Vec::with_capacity(vals.len() * 8);
                        shape.encode(&vals, &mut payload);
                        ctx.db()
                            .write_raw(ctx.txn(), ctx.anchor_oid(), header, &payload)
                    },
                );
            }
            DdlAction::Abort(reason) => {
                let reason = reason.clone();
                b = b.trigger(
                    &trig.name,
                    &trig.expr,
                    trig.coupling,
                    perpetual,
                    move |ctx| Err(ctx.tabort(&reason)),
                );
            }
        }
    }
    b.build(db.registry())
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

fn format_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Rebase an expression parse error onto the full statement text.
fn rebase_expr_error(e: OdeError, expr_at: usize) -> DdlError {
    match e {
        OdeError::Parse(pe) => DdlError::at(
            expr_at + pe.at,
            format!("in event expression: {}", pe.message),
        ),
        other => other.into(),
    }
}

impl Session {
    /// Parse and execute one statement, returning the reply payload
    /// (empty for plain `OK`s). Any error inside an explicitly opened
    /// transaction aborts it — `tabort` semantics: a failed statement
    /// takes the transaction down, matching
    /// [`Database::with_txn`]'s Err-path behavior.
    pub fn execute(&mut self, src: &str) -> std::result::Result<String, DdlError> {
        let started = std::time::Instant::now();
        let verb = src
            .trim_start()
            .split(char::is_whitespace)
            .next()
            .unwrap_or("");
        self.engine().stats().record_statement(verb);
        // A configured slow-statement threshold forces tracing: the span
        // tree has to exist by the time we learn the statement was slow.
        let slow_micros = self
            .database()
            .ok()
            .and_then(|db| db.storage.options().slow_statement_micros);
        let sampled = match self.trace_mode {
            crate::session::TraceMode::Off => false,
            crate::session::TraceMode::On => true,
            crate::session::TraceMode::Sample(n) => {
                self.trace_countdown += 1;
                if self.trace_countdown >= n.max(1) {
                    self.trace_countdown = 0;
                    true
                } else {
                    false
                }
            }
        };
        if sampled || slow_micros.is_some() || verb.eq_ignore_ascii_case("explain") {
            return self.execute_traced(src, verb, started, slow_micros);
        }
        // Only a named `PREPARE`d statement skips the parser (`EXECUTE`
        // counts the hit); every other text is parsed and counted a miss.
        let stmt = match parse_statement(src) {
            Ok(stmt) => {
                self.engine().stats().prepared_miss();
                stmt
            }
            Err(e) => {
                // A parse error is still a failed statement: tabort
                // semantics take the open transaction down with it.
                self.abort_open_txn();
                return Err(e);
            }
        };
        let result = self.run(stmt);
        self.observe_statement(started);
        result
    }

    /// The traced statement path: a fresh span list installed as the
    /// ambient trace context, a `statement` root span (named by the
    /// leading verb) with a `parse` child — every layer below (locking,
    /// posting, FSM advances, coupling-mode system transactions, the WAL
    /// flush wait) contributes its spans through the thread-local.
    fn execute_traced(
        &mut self,
        src: &str,
        verb: &str,
        started: std::time::Instant,
        slow_micros: Option<u64>,
    ) -> std::result::Result<String, DdlError> {
        let trace_id = ode_trace::next_trace_id();
        let guard = ode_trace::install(trace_id);
        let root = ode_trace::span(ode_trace::SpanKind::Statement, verb);
        let parsed = {
            let _parse = ode_trace::span(ode_trace::SpanKind::Parse, "");
            parse_statement(src)
        };
        let (stmt, explain) = match parsed {
            Ok(Statement::Explain(inner)) => (*inner, true),
            Ok(stmt) => (stmt, false),
            // `root` and `guard` unwind here, discarding the aborted
            // trace unrendered.
            Err(e) => {
                self.abort_open_txn();
                return Err(e);
            }
        };
        // TRACE and SHOW TRACE manage the trace state — they must not
        // replace the tree the user is about to look at.
        let keep = !matches!(stmt, Statement::Trace(_) | Statement::ShowTrace);
        let mut result = self.run(stmt);
        // A traced statement resolves its deferred commit here, inside
        // the statement span: the `commit` span (and its WAL LSN) belongs
        // in the tree the user asked for, so it skips the wire layer's
        // end-of-frame wait.
        if let Err(e) = self.commit_wait_pending() {
            if result.is_ok() {
                result = Err(DdlError::new(format!("commit durability failed: {e}")));
            }
        }
        drop(root);
        let spans = guard.finish();
        self.observe_statement(started);
        let tree = ode_trace::render_tree(trace_id, &spans);
        if let Some(threshold) = slow_micros {
            let elapsed = started.elapsed().as_micros() as u64;
            if elapsed > threshold {
                if let Ok(db) = self.database() {
                    db.metrics().slow_statements.inc();
                }
                let db = self.current_database().unwrap_or("-");
                eprintln!(
                    "[ode slow statement] db={db} {elapsed}\u{b5}s \
                     (threshold {threshold}\u{b5}s) {src:?}\n{tree}"
                );
            }
        }
        if keep {
            self.last_trace = Some(tree.clone());
        }
        match result {
            Ok(payload) if explain => Ok(if payload.is_empty() {
                tree
            } else {
                format!("result: {payload}\n{tree}")
            }),
            other => other,
        }
    }

    /// Record the statement's latency into the current database's
    /// histogram (the per-verb counters are engine-level and recorded in
    /// [`Session::execute`] before dispatch).
    fn observe_statement(&self, started: std::time::Instant) {
        if let Ok(db) = self.database() {
            db.metrics()
                .statement_micros
                .record(started.elapsed().as_micros() as u64);
        }
    }

    fn run(&mut self, stmt: Statement) -> std::result::Result<String, DdlError> {
        match stmt {
            Statement::CreateDatabase(name) => {
                self.engine().create_database(&name)?;
                Ok(String::new())
            }
            Statement::DropDatabase(name) => {
                if self.current_database() == Some(name.as_str()) {
                    return Err(DdlError::new("cannot drop the current database"));
                }
                self.engine().drop_database(&name)?;
                Ok(String::new())
            }
            Statement::Use(name) => {
                self.use_database(&name)?;
                Ok(String::new())
            }
            Statement::ShowDatabases => Ok(self.engine().list_databases().join("\n")),
            Statement::Begin { read_only } => {
                if read_only {
                    self.begin_read_only()?;
                } else {
                    self.begin()?;
                }
                Ok(String::new())
            }
            Statement::Commit => {
                self.commit()?;
                Ok(String::new())
            }
            Statement::Abort => {
                self.abort()?;
                Ok(String::new())
            }
            Statement::Metrics => Ok(self.engine().render_prometheus()),
            Statement::ShowClasses => self.show_classes(),
            Statement::ShowTriggers => self.show_triggers(),
            Statement::ShowTrace => Ok(self.last_trace.clone().unwrap_or_else(|| {
                "no trace recorded (TRACE ON, TRACE SAMPLE <n>, or EXPLAIN first)".into()
            })),
            Statement::Trace(mode) => {
                self.trace_mode = mode;
                self.trace_countdown = 0;
                Ok(String::new())
            }
            // EXPLAIN is peeled off in `execute` — tracing must be armed
            // before the inner statement runs.
            Statement::Explain(_) => Err(DdlError::new(
                "EXPLAIN must be executed as a top-level statement",
            )),
            Statement::Prepare { name, stmt } => {
                self.prepared.insert(name, *stmt);
                Ok(String::new())
            }
            Statement::ExecutePrepared { name, args } => {
                let mut stmt = self.prepared.get(&name).cloned().ok_or_else(|| {
                    DdlError::new(format!(
                        "unknown prepared statement {name:?} (PREPARE it first)"
                    ))
                })?;
                self.engine().stats().prepared_hit();
                stmt.bind_args(&args)?;
                self.run(stmt)
            }
            Statement::CreateClass(def) => self.create_class(def),
            Statement::CreateTrigger { class, def } => self.create_trigger(&class, def),
            Statement::Activate {
                trigger,
                anchor,
                param,
            } => self
                .with_session_txn(|db, txn| {
                    // The anchor's own class defines the trigger, so the
                    // record read here is the one activation lists it in.
                    let (header, payload) = db.read_raw(txn, anchor)?;
                    let entry = db.entry_by_id(header.class_id)?;
                    let triggernum = crate::post::trigger_num(&entry, &trigger)?;
                    let params = match param {
                        Some(p) => p.to_le_bytes().to_vec(),
                        None => Vec::new(),
                    };
                    let id = db.activate_read(
                        txn,
                        &entry,
                        triggernum,
                        anchor,
                        params,
                        Vec::new(),
                        Some((header, payload)),
                    )?;
                    Ok(id.oid().to_string())
                })
                .map_err(DdlError::from),
            Statement::Deactivate(oid) => self
                .with_session_txn(|db, txn| {
                    let was_active = db.deactivate(txn, TriggerId::from_oid(oid))?;
                    Ok(if was_active { "1" } else { "0" }.to_string())
                })
                .map_err(DdlError::from),
            Statement::New { class, sets } => self.exec_new(&class, &sets),
            Statement::Call {
                anchor,
                method,
                sets,
            } => self.exec_call(anchor, &method, &sets),
            Statement::Post { anchor, event } => self
                .with_session_txn(|db, txn| {
                    let header = db.read_header(txn, anchor)?;
                    let entry = db.entry_by_id(header.class_id)?;
                    let id = entry
                        .td
                        .event_id(&BasicEvent::user(&event))
                        .ok_or_else(|| {
                            OdeError::Schema(format!(
                                "event {event:?} is not declared by class {}",
                                entry.td.name()
                            ))
                        })?;
                    db.post_event(txn, anchor, id)?;
                    Ok(String::new())
                })
                .map_err(DdlError::from),
            Statement::Get { anchor, field } => self.exec_get(anchor, field.as_deref()),
            Statement::Tick(timer) => self
                .with_session_txn(|db, txn| Ok(db.tick(txn, &timer)?.to_string()))
                .map_err(DdlError::from),
        }
    }

    /// `SHOW CLASSES`: one line per registered class (DDL-defined and
    /// host-registered alike), with declared-surface counts.
    fn show_classes(&mut self) -> std::result::Result<String, DdlError> {
        let db = Arc::clone(self.database()?);
        let mut lines = Vec::new();
        for class in db.class_names() {
            let Some(td) = db.descriptor(&class) else {
                continue;
            };
            lines.push(format!(
                "{class} events={} triggers={}",
                td.events().len(),
                td.triggers().len()
            ));
        }
        Ok(lines.join("\n"))
    }

    /// `SHOW TRIGGERS`: every trigger definition with its coupling mode,
    /// perpetual flag, and the number of live activated instances,
    /// counted transactionally from the trigger-state cluster (so the
    /// session sees its own uncommitted ACTIVATEs).
    fn show_triggers(&mut self) -> std::result::Result<String, DdlError> {
        let db = Arc::clone(self.database()?);
        // Live instance counts keyed (class, trigger): one state record
        // per instance, however many anchors it watches.
        let counts = self.with_session_txn(|db, txn| {
            let mut counts: HashMap<(String, String), u64> = HashMap::new();
            for oid in db.storage.scan_cluster(txn, db.state_cluster)? {
                let raw = db.storage.read(txn, oid)?;
                let rec = crate::trigger::TriggerStateRec::decode_with(&raw, &db.interner)?;
                let class = db.interner.resolve(rec.class_sym);
                let trigger = db.interner.resolve(rec.trigger_sym);
                *counts
                    .entry((class.to_string(), trigger.to_string()))
                    .or_insert(0) += 1;
            }
            Ok(counts)
        })?;
        let mut lines = Vec::new();
        for class in db.class_names() {
            let Some(td) = db.descriptor(&class) else {
                continue;
            };
            for info in td.triggers() {
                let active = counts
                    .get(&(class.clone(), info.name.clone()))
                    .copied()
                    .unwrap_or(0);
                lines.push(format!(
                    "{} ON {class} {} COUPLING {} active={active}",
                    info.name,
                    if info.perpetual { "PERPETUAL" } else { "ONCE" },
                    info.coupling
                ));
            }
        }
        Ok(lines.join("\n"))
    }

    fn create_class(&mut self, def: DdlClassDef) -> std::result::Result<String, DdlError> {
        let db = Arc::clone(self.database()?);
        let mut shape = Shape::default();
        for (name, default) in &def.fields {
            shape.push(name, *default);
        }
        for (_, pred) in &def.masks {
            pred.validate(&shape)?;
        }
        let shape = Arc::new(shape);
        let mut catalog = db.ddl.lock();
        if let Some((existing, _)) = catalog.classes.get(&def.name) {
            // The stored def accumulates CREATE TRIGGER definitions, which a
            // re-issued CREATE CLASS statement cannot mention — compare the
            // class surface only.
            let mut stored = existing.clone();
            stored.triggers.clear();
            return if stored == def {
                Ok(String::new()) // idempotent re-issue (another connection)
            } else {
                Err(DdlError::new(format!(
                    "class {:?} already exists with a different definition",
                    def.name
                )))
            };
        }
        if db.descriptor(&def.name).is_some() {
            return Err(DdlError::new(format!(
                "class {:?} is already registered by the embedding application",
                def.name
            )));
        }
        let td = build_descriptor(&db, &def, &shape)?;
        db.register_class(&td)?;
        catalog
            .classes
            .insert(def.name.clone(), (def, Arc::clone(&shape)));
        Ok(String::new())
    }

    fn create_trigger(
        &mut self,
        class: &str,
        def: DdlTriggerDef,
    ) -> std::result::Result<String, DdlError> {
        let db = Arc::clone(self.database()?);
        let mut catalog = db.ddl.lock();
        let Some((class_def, shape)) = catalog.classes.get_mut(class) else {
            return Err(DdlError::new(format!(
                "unknown class {class:?} (CREATE CLASS it first; triggers can only be added to DDL-defined classes)"
            )));
        };
        if let Some(existing) = class_def.triggers.iter().find(|t| t.name == def.name) {
            // Compare everything but the source offset: two clients
            // issuing the same statement with different whitespace agree.
            let mut a = existing.clone();
            let mut b = def.clone();
            a.expr_at = 0;
            b.expr_at = 0;
            return if a == b {
                Ok(String::new())
            } else {
                Err(DdlError::new(format!(
                    "trigger {:?} already exists on {class:?} with a different definition",
                    def.name
                )))
            };
        }
        if let DdlAction::Set(sets) = &def.action {
            for (field, expr) in sets {
                if shape.get(field).is_none() {
                    return Err(DdlError::new(format!("unknown field {field:?}")));
                }
                expr.validate(shape)?;
            }
        }
        let expr_at = def.expr_at;
        class_def.triggers.push(def);
        // Rebuild the descriptor with the new trigger appended. Trigger
        // numbers of existing triggers are positions in this list, so
        // they are unchanged and armed FSM state records stay valid.
        let rebuilt = build_descriptor(&db, class_def, shape);
        match rebuilt {
            Ok(td) => {
                db.register_class(&td)?;
                Ok(String::new())
            }
            Err(e) => {
                class_def.triggers.pop(); // roll back the catalog append
                Err(rebase_expr_error(e, expr_at))
            }
        }
    }

    fn exec_new(
        &mut self,
        class: &str,
        sets: &[(String, NumExpr)],
    ) -> std::result::Result<String, DdlError> {
        let db = Arc::clone(self.database()?);
        let (shape, entry) = {
            let catalog = db.ddl.lock();
            let Some((_, shape)) = catalog.classes.get(class) else {
                return Err(DdlError::new(format!("unknown DDL class {class:?}")));
            };
            (Arc::clone(shape), db.entry(class)?)
        };
        let mut vals: Vec<f64> = shape.fields.iter().map(|(_, d)| *d).collect();
        for (field, expr) in sets {
            let i = shape
                .get(field)
                .ok_or_else(|| DdlError::new(format!("unknown field {field:?}")))?;
            vals[i] = expr.eval(&shape, &vals, None)?;
        }
        let oid = self.with_session_txn(|db, txn| {
            let header = ObjectHeader::new(entry.id);
            let mut buf = bytes::BytesMut::with_capacity(header.encoded_len() + vals.len() * 8);
            header.write(&mut buf);
            for v in &vals {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Ok(db.storage.allocate(txn, entry.cluster, &buf)?)
        })?;
        Ok(oid.to_string())
    }

    fn exec_call(
        &mut self,
        anchor: Oid,
        method: &str,
        sets: &[(String, NumExpr)],
    ) -> std::result::Result<String, DdlError> {
        let db = Arc::clone(self.database()?);
        self.with_session_txn(|db_ref, txn| {
            let (mut header, mut payload) = db_ref.read_raw(txn, anchor)?;
            let entry = db_ref.entry_by_id(header.class_id)?;
            let shape = {
                let catalog = db.ddl.lock();
                let Some((_, shape)) = catalog.classes.get(entry.td.name()) else {
                    return Err(OdeError::Schema(format!(
                        "object {anchor} is not of a DDL-defined class (its class is {:?})",
                        entry.td.name()
                    )));
                };
                Arc::clone(shape)
            };
            if let Some(event) = entry.td.member_event(method, EventTime::Before) {
                db_ref.post_event(txn, anchor, event)?;
                // Re-read after the before-event: its triggers may have
                // updated the object (mirrors `Database::invoke`).
                (header, payload) = db_ref.read_raw(txn, anchor)?;
            }
            let mut vals = Vec::with_capacity(shape.fields.len());
            shape.decode(&payload, &mut vals)?;
            let mut changed = false;
            for (field, expr) in sets {
                let i = shape
                    .get(field)
                    .ok_or_else(|| OdeError::Action(format!("unknown field {field:?}")))?;
                let v = expr.eval(&shape, &vals, None)?;
                changed |= v.to_bits() != vals[i].to_bits();
                vals[i] = v;
            }
            if changed {
                let mut payload = Vec::with_capacity(vals.len() * 8);
                shape.encode(&vals, &mut payload);
                db_ref.write_raw(txn, anchor, header, &payload)?;
            }
            if let Some(event) = entry.td.member_event(method, EventTime::After) {
                db_ref.post_event(txn, anchor, event)?;
            }
            Ok(String::new())
        })
        .map_err(DdlError::from)
    }

    fn exec_get(
        &mut self,
        anchor: Oid,
        field: Option<&str>,
    ) -> std::result::Result<String, DdlError> {
        let db = Arc::clone(self.database()?);
        self.with_session_txn(|db_ref, txn| {
            let (header, payload) = db_ref.read_raw(txn, anchor)?;
            let entry = db_ref.entry_by_id(header.class_id)?;
            let shape = {
                let catalog = db.ddl.lock();
                let Some((_, shape)) = catalog.classes.get(entry.td.name()) else {
                    return Err(OdeError::Schema(format!(
                        "object {anchor} is not of a DDL-defined class (its class is {:?})",
                        entry.td.name()
                    )));
                };
                Arc::clone(shape)
            };
            let mut vals = Vec::with_capacity(shape.fields.len());
            shape.decode(&payload, &mut vals)?;
            match field {
                Some(name) => {
                    let i = shape
                        .get(name)
                        .ok_or_else(|| OdeError::Schema(format!("unknown field {name:?}")))?;
                    Ok(format_num(vals[i]))
                }
                None => Ok(shape
                    .fields
                    .iter()
                    .zip(&vals)
                    .map(|((name, _), v)| format!("{name}={}", format_num(*v)))
                    .collect::<Vec<_>>()
                    .join(" ")),
            }
        })
        .map_err(DdlError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn session() -> Session {
        let engine = Engine::volatile();
        let mut s = engine.session();
        s.execute("CREATE DATABASE t").unwrap();
        s.execute("USE t").unwrap();
        s
    }

    const CRED_CARD: &str = "CREATE CLASS CredCard { \
        FIELD cred_lim = 1000; FIELD curr_bal; FIELD good_hist = 1; \
        EVENT AFTER Buy; EVENT AFTER PayBill; \
        MASK OverLimit WHEN curr_bal > cred_lim; \
        MASK MoreCred WHEN curr_bal > 0.8 * cred_lim AND good_hist == 1; }";

    #[test]
    fn figure1_over_the_ddl_surface() {
        let mut s = session();
        s.execute(CRED_CARD).unwrap();
        s.execute(
            "CREATE TRIGGER AutoRaiseLimit ON CredCard \
             WHEN relative((after Buy & MoreCred()), after PayBill) \
             COUPLING immediate DO SET cred_lim = cred_lim + PARAM",
        )
        .unwrap();
        s.execute(
            "CREATE TRIGGER DenyCredit ON CredCard PERPETUAL \
             WHEN after Buy & OverLimit() \
             COUPLING immediate DO ABORT 'Over Limit'",
        )
        .unwrap();
        let card = s.execute("NEW CredCard").unwrap();
        s.execute(&format!("ACTIVATE AutoRaiseLimit ON {card} WITH 1000"))
            .unwrap();
        s.execute(&format!("ACTIVATE DenyCredit ON {card}"))
            .unwrap();
        // Buy 900: arms the relative trigger (balance over 80% of limit).
        s.execute(&format!("CALL {card} Buy SET curr_bal = curr_bal + 900"))
            .unwrap();
        // PayBill fires AutoRaiseLimit immediately: limit += 1000.
        s.execute(&format!(
            "CALL {card} PayBill SET curr_bal = curr_bal - 100"
        ))
        .unwrap();
        assert_eq!(s.execute(&format!("GET {card} cred_lim")).unwrap(), "2000");
        assert_eq!(s.execute(&format!("GET {card} curr_bal")).unwrap(), "800");
        // Over-limit buy: DenyCredit tabort rolls the statement back.
        let err = s
            .execute(&format!("CALL {card} Buy SET curr_bal = curr_bal + 1500"))
            .unwrap_err();
        assert!(err.message.contains("Over Limit"), "{err}");
        assert_eq!(s.execute(&format!("GET {card} curr_bal")).unwrap(), "800");
    }

    #[test]
    fn immediate_coupling_is_visible_inside_the_transaction() {
        let mut s = session();
        s.execute(CRED_CARD).unwrap();
        s.execute(
            "CREATE TRIGGER AutoRaiseLimit ON CredCard \
             WHEN relative((after Buy & MoreCred()), after PayBill) \
             COUPLING immediate DO SET cred_lim = cred_lim + PARAM",
        )
        .unwrap();
        let card = s.execute("NEW CredCard").unwrap();
        s.execute(&format!("ACTIVATE AutoRaiseLimit ON {card} WITH 500"))
            .unwrap();
        s.execute("BEGIN").unwrap();
        s.execute(&format!("CALL {card} Buy SET curr_bal = 900"))
            .unwrap();
        s.execute(&format!("CALL {card} PayBill SET curr_bal = 800"))
            .unwrap();
        // Still inside the transaction: the immediate action already ran.
        assert_eq!(s.execute(&format!("GET {card} cred_lim")).unwrap(), "1500");
        s.execute("COMMIT").unwrap();
        assert_eq!(s.execute(&format!("GET {card} cred_lim")).unwrap(), "1500");
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let mut s = session();
        s.execute(CRED_CARD).unwrap();
        // Statement-level syntax error.
        let err = s.execute("CREATE TRIGGERS T ON C").unwrap_err();
        assert_eq!(err.at, Some(7));
        // Expression errors are rebased onto the statement text.
        let src =
            "CREATE TRIGGER T ON CredCard WHEN after Typo COUPLING immediate DO SET curr_bal = 0";
        let err = s.execute(src).unwrap_err();
        let at = err.at.expect("offset");
        assert_eq!(&src[at..at + 4], "afte", "{err}");
        // Unknown mask field at CREATE CLASS time, offset onto the name.
        let src = "CREATE CLASS Bad { FIELD a; MASK M WHEN missing > 1; }";
        let err = s.execute(src).unwrap_err();
        assert_eq!(&src[err.at.unwrap()..err.at.unwrap() + 7], "missing");
    }

    #[test]
    fn create_class_and_trigger_are_idempotent_for_identical_text() {
        let mut s = session();
        s.execute(CRED_CARD).unwrap();
        s.execute(CRED_CARD).unwrap();
        let trig = "CREATE TRIGGER T ON CredCard WHEN after Buy COUPLING end DO SET curr_bal = 0";
        s.execute(trig).unwrap();
        s.execute(trig).unwrap();
        // A different body under the same name is rejected.
        let err = s
            .execute(
                "CREATE TRIGGER T ON CredCard WHEN after PayBill COUPLING end DO SET curr_bal = 0",
            )
            .unwrap_err();
        assert!(err.message.contains("different definition"), "{err}");
        let err = s
            .execute("CREATE CLASS CredCard { FIELD other; }")
            .unwrap_err();
        assert!(err.message.contains("different definition"), "{err}");
    }

    #[test]
    fn read_only_sessions_snapshot_reads() {
        let mut s = session();
        s.execute("CREATE CLASS Cell { FIELD v = 7; }").unwrap();
        let cell = s.execute("NEW Cell").unwrap();
        s.execute("BEGIN READ ONLY").unwrap();
        assert_eq!(s.execute(&format!("GET {cell} v")).unwrap(), "7");
        // Writes are refused on a snapshot transaction (and the error
        // aborts it, per the session's tabort semantics).
        assert!(s.execute(&format!("CALL {cell} Nope SET v = 1")).is_err());
        assert!(s.txn().is_none(), "failed statement closed the txn");
    }

    #[test]
    fn prepared_statements_bind_placeholders() {
        let mut s = session();
        s.execute("CREATE CLASS Cell { FIELD v; }").unwrap();
        let cell = s.execute("NEW Cell").unwrap();
        s.execute(&format!("PREPARE add AS CALL {cell} Touch SET v = v + $1"))
            .unwrap();
        s.execute("EXECUTE add WITH 3").unwrap();
        s.execute("EXECUTE add WITH 4").unwrap();
        assert_eq!(s.execute(&format!("GET {cell} v")).unwrap(), "7");
        // Args beyond the highest placeholder index are fine; missing
        // ones are not.
        s.execute("EXECUTE add WITH 1, 99").unwrap();
        let err = s.execute("EXECUTE add").unwrap_err();
        assert!(err.message.contains("has no argument"), "{err}");
        let err = s.execute("EXECUTE missing WITH 1").unwrap_err();
        assert!(err.message.contains("unknown prepared statement"), "{err}");
        // PREPARE of PREPARE (or of EXPLAIN) is refused.
        let err = s.execute("PREPARE p AS PREPARE q AS BEGIN").unwrap_err();
        assert!(err.message.contains("cannot PREPARE"), "{err}");
    }

    #[test]
    fn placeholders_are_rejected_in_persistent_definitions() {
        let mut s = session();
        let err = s
            .execute("CREATE CLASS Bad { FIELD a; MASK M WHEN a > $1; }")
            .unwrap_err();
        assert!(err.message.contains("not allowed in a persistent"), "{err}");
        s.execute("CREATE CLASS C { FIELD a; EVENT AFTER Poke; }")
            .unwrap();
        let err = s
            .execute(
                "CREATE TRIGGER T ON C WHEN after Poke \
                 COUPLING immediate DO SET a = $1",
            )
            .unwrap_err();
        assert!(err.message.contains("not allowed in a persistent"), "{err}");
        // Unbound placeholders in a direct statement fail at eval time.
        s.execute("CREATE CLASS D { FIELD x; }").unwrap();
        let err = s.execute("NEW D SET x = $1").unwrap_err();
        assert!(err.message.contains("unbound placeholder"), "{err}");
    }

    #[test]
    fn repeated_text_parses_every_time_and_execute_counts_a_hit() {
        let mut s = session();
        s.execute("CREATE CLASS Cell { FIELD v; }").unwrap();
        let cell = s.execute("NEW Cell").unwrap();
        let engine = Arc::clone(s.engine());
        let (h0, m0) = (
            engine.stats().prepared_hits(),
            engine.stats().prepared_misses(),
        );
        let stmt = format!("CALL {cell} Touch SET v = v + 1");
        for _ in 0..3 {
            s.execute(&stmt).unwrap();
        }
        assert_eq!(
            engine.stats().prepared_misses() - m0,
            3,
            "a repeated text is parsed every time"
        );
        assert_eq!(engine.stats().prepared_hits(), h0, "no text cache hits");
        assert_eq!(s.execute(&format!("GET {cell} v")).unwrap(), "3");
        // A named PREPARE is the one cached path: EXECUTE skips the parser.
        s.execute(&format!(
            "PREPARE touch AS CALL {cell} Touch SET v = v + $1"
        ))
        .unwrap();
        let (h1, m1) = (
            engine.stats().prepared_hits(),
            engine.stats().prepared_misses(),
        );
        s.execute("EXECUTE touch WITH 2").unwrap();
        assert_eq!(engine.stats().prepared_hits() - h1, 1, "EXECUTE hits");
        assert_eq!(
            engine.stats().prepared_misses() - m1,
            1,
            "the EXECUTE text itself still parses"
        );
        assert_eq!(s.execute(&format!("GET {cell} v")).unwrap(), "5");
    }

    #[test]
    fn timers_and_user_events_flow_through_ddl() {
        let mut s = session();
        s.execute(
            "CREATE CLASS Stock { FIELD price; FIELD alarms; \
             EVENT Spike; EVENT TIMER daily; }",
        )
        .unwrap();
        s.execute(
            "CREATE TRIGGER OnSpike ON Stock PERPETUAL WHEN Spike, timer daily \
             COUPLING immediate DO SET alarms = alarms + 1",
        )
        .unwrap();
        let stock = s.execute("NEW Stock SET price = 10").unwrap();
        s.execute(&format!("ACTIVATE OnSpike ON {stock}")).unwrap();
        s.execute(&format!("POST {stock} Spike")).unwrap();
        assert_eq!(s.execute(&format!("GET {stock} alarms")).unwrap(), "0");
        assert_eq!(s.execute("TICK daily").unwrap(), "1");
        assert_eq!(s.execute(&format!("GET {stock} alarms")).unwrap(), "1");
    }
}
