//! Intraprocedural dataflow: per-function CFGs + a forward abstract-interpretation
//! worklist solver, powering the `page-lifecycle`, `guard-liveness` and `must-release`
//! passes.
//!
//! The AST from [`crate::parser`] is lowered into a control-flow graph whose nodes
//! carry linear *event* lists — binds, calls, moves, borrows, scope ends — and whose
//! edges follow `if`/`match`/loop structure; `return` and `?` attach early-exit edges.
//! Each pass is a transfer function over a per-variable bitmask *state set*
//! (a may-analysis: the join is set union, so "freed on one path, live on the other"
//! keeps both facts). The solver runs the worklist to a fixpoint, then replays every
//! reachable node once against its stable in-environment to emit findings, deduplicated
//! and sorted by position.
//!
//! Everything here is intraprocedural: calls are interpreted by *name* (see the
//! constant tables below), closure bodies are treated as opaque captures, and values
//! that escape through fields or containers stop being tracked. `crates/analyze/
//! ARCHITECTURE.md` documents the resulting blind spots.

use crate::ast::{Arm, Block, Expr, Function, Span, Stmt};
use crate::parser::terminal_call_name;
use std::collections::{BTreeMap, BTreeSet};

/// How a `let` initializer is classified for tracking purposes.
#[derive(Debug, Clone)]
pub enum Init {
    /// Bound from a call; `name` is the terminal call name after peeling unwrap-style
    /// adapters and `?` (see [`terminal_call_name`]).
    Call(String),
    /// Bound from a bare variable (a move): `let b = a;`.
    Alias(String),
    /// Anything else — the binding is not tracked.
    Opaque,
}

/// One abstract event inside a CFG node, in evaluation order.
#[derive(Debug, Clone)]
pub enum Event {
    /// A `let` binding (also `if let` / match-arm / loop pattern binds, as Opaque).
    Bind {
        /// The bound name.
        var: String,
        /// Span of the name.
        span: Span,
        /// Initializer classification.
        init: Init,
    },
    /// A call or method call. Arguments passed as *bare variables* are collected in
    /// `args` (by-value: the callee consumes them); `&var` arguments surface as
    /// [`Event::Touch`] instead.
    Call {
        /// Callee name (method name, or last path segment; `<call>` when unnamed).
        name: String,
        /// Receiver variable for `recv.name(..)` when the receiver is a bare variable.
        recv: Option<String>,
        /// Bare-variable arguments, by value.
        args: Vec<String>,
        /// Span of the callee name.
        span: Span,
    },
    /// A bare variable in value position — a move (return value, struct field,
    /// operator operand, block tail).
    MoveOut {
        /// The moved variable.
        var: String,
        /// Span of the use.
        span: Span,
    },
    /// A borrow-like use: `&var`, `var.field`, `var[i]`, or a method receiver.
    Touch {
        /// The borrowed variable.
        var: String,
        /// Span of the use.
        span: Span,
    },
    /// A variable appearing inside a macro invocation or captured by a closure —
    /// passes choose whether this is an escape (lifecycle) or a liveness-preserving
    /// use (guards).
    MacroTouch {
        /// The variable.
        var: String,
        /// Span of the use.
        span: Span,
    },
    /// A variable's scope closes (its block's `}`): obligations are checked, then the
    /// variable is dropped from the environment.
    ScopeEnd {
        /// The variable going out of scope.
        var: String,
        /// Span of the closing `}` (or the pattern, for arm-scoped binds).
        span: Span,
    },
}

/// Why control leaves the function early at an exit edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// An explicit `return`.
    Return,
    /// The error path of a `?`.
    Question,
}

/// An early exit attached at the *end* of a node's event list.
#[derive(Debug, Clone)]
pub struct ExitEdge {
    /// Span of the `return` keyword or the `?`.
    pub span: Span,
    /// Which exit this is.
    pub kind: ExitKind,
}

/// One CFG node: straight-line events, successor nodes, early exits after the events.
#[derive(Debug, Default)]
pub struct Node {
    /// Events in evaluation order.
    pub events: Vec<Event>,
    /// Successor node indices.
    pub succs: Vec<usize>,
    /// Early-exit edges taken after the events.
    pub exits: Vec<ExitEdge>,
}

/// A per-function control-flow graph. Node 0 is the entry.
#[derive(Debug)]
pub struct Cfg {
    /// The nodes.
    pub nodes: Vec<Node>,
}

/// Build the CFG for one parsed function.
pub fn build_cfg(function: &Function) -> Cfg {
    let mut b = Builder { nodes: vec![Node::default()], cur: 0, loops: Vec::new() };
    b.lower_block(&function.body);
    Cfg { nodes: b.nodes }
}

struct LoopCtx {
    break_to: usize,
    continue_to: usize,
}

struct Builder {
    nodes: Vec<Node>,
    cur: usize,
    loops: Vec<LoopCtx>,
}

impl Builder {
    fn new_node(&mut self) -> usize {
        self.nodes.push(Node::default());
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.nodes[from].succs.push(to);
    }

    fn emit(&mut self, ev: Event) {
        self.nodes[self.cur].events.push(ev);
    }

    /// Attach an early exit at the current point, then continue in a fresh node so
    /// later events are not attributed to the pre-exit environment.
    fn exit_edge(&mut self, span: Span, kind: ExitKind) {
        self.nodes[self.cur].exits.push(ExitEdge { span, kind });
        let next = self.new_node();
        self.edge(self.cur, next);
        self.cur = next;
    }

    /// Park the cursor on a fresh unreachable node (after `return`/`break`/`continue`).
    fn park(&mut self) {
        self.cur = self.new_node();
    }

    fn bind_all(&mut self, names: &[(String, Span)], init: Init) {
        match (names, init) {
            ([(var, span)], init) => {
                self.emit(Event::Bind { var: var.clone(), span: *span, init });
            }
            (many, _) => {
                for (var, span) in many {
                    self.emit(Event::Bind { var: var.clone(), span: *span, init: Init::Opaque });
                }
            }
        }
    }

    fn scope_end_all(&mut self, names: &[(String, Span)], close: Span) {
        for (var, _) in names.iter().rev() {
            self.emit(Event::ScopeEnd { var: var.clone(), span: close });
        }
    }

    fn lower_block(&mut self, block: &Block) {
        let mut scope: Vec<(String, Span)> = Vec::new();
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let { names, init, else_block } => {
                    let classified = match init {
                        Some(e) => {
                            self.lower_expr(e);
                            match (names.len(), terminal_call_name(e), e) {
                                (1, Some(call), _) => Init::Call(call.to_string()),
                                (1, None, Expr::Var { name, .. }) => Init::Alias(name.clone()),
                                _ => Init::Opaque,
                            }
                        }
                        None => Init::Opaque,
                    };
                    if let Some(diverge) = else_block {
                        // let-else: the else block runs when the pattern refutes, with
                        // the new names *not* bound, and must diverge.
                        let else_node = self.new_node();
                        let cont = self.new_node();
                        self.edge(self.cur, else_node);
                        self.edge(self.cur, cont);
                        self.cur = else_node;
                        self.lower_block(diverge);
                        self.edge(self.cur, cont);
                        self.cur = cont;
                    }
                    self.bind_all(names, classified);
                    scope.extend(names.iter().cloned());
                }
                Stmt::Expr(e) => self.lower_expr(e),
            }
        }
        if let Some(tail) = &block.tail {
            self.lower_expr(tail);
        }
        self.scope_end_all(&scope, block.close);
    }

    /// Lower a *place* use (method receiver, field/index base, borrow operand): a bare
    /// variable is a borrow, everything else is evaluated normally.
    fn lower_place(&mut self, e: &Expr) {
        if let Expr::Var { name, span } = e {
            self.emit(Event::Touch { var: name.clone(), span: *span });
        } else {
            self.lower_expr(e);
        }
    }

    /// Lower one argument: bare variables are collected into the call's by-value
    /// argument list, `&var` surfaces as a touch, everything else evaluates normally.
    fn lower_arg(&mut self, e: &Expr, collected: &mut Vec<String>) {
        match e {
            Expr::Var { name, .. } => collected.push(name.clone()),
            Expr::Borrow { inner } => self.lower_place(inner),
            _ => self.lower_expr(e),
        }
    }

    fn lower_expr(&mut self, e: &Expr) {
        match e {
            Expr::Var { name, span } => {
                self.emit(Event::MoveOut { var: name.clone(), span: *span });
            }
            Expr::Field { base } => self.lower_place(base),
            Expr::Index { base, index } => {
                self.lower_place(base);
                self.lower_expr(index);
            }
            Expr::Call { callee, span, base, args } => {
                if let Some(b) = base {
                    self.lower_place(b);
                }
                let mut collected = Vec::new();
                for a in args {
                    self.lower_arg(a, &mut collected);
                }
                let name = callee.clone().unwrap_or_else(|| "<call>".to_string());
                self.emit(Event::Call { name, recv: None, args: collected, span: *span });
            }
            Expr::MethodCall { recv, name, span, args } => {
                let recv_var = if let Expr::Var { name: r, span: rs } = recv.as_ref() {
                    self.emit(Event::Touch { var: r.clone(), span: *rs });
                    Some(r.clone())
                } else {
                    self.lower_expr(recv);
                    None
                };
                let mut collected = Vec::new();
                for a in args {
                    self.lower_arg(a, &mut collected);
                }
                self.emit(Event::Call { name: name.clone(), recv: recv_var, args: collected, span: *span });
            }
            Expr::MacroCall { idents } => {
                for (var, span) in idents {
                    self.emit(Event::MacroTouch { var: var.clone(), span: *span });
                }
            }
            Expr::If { bound, cond, then, orelse } => {
                self.lower_expr(cond);
                let start = self.cur;
                let then_node = self.new_node();
                let join = self.new_node();
                self.edge(start, then_node);
                self.cur = then_node;
                self.bind_all(bound, Init::Opaque);
                self.lower_block(then);
                self.scope_end_all(bound, then.close);
                self.edge(self.cur, join);
                match orelse {
                    Some(e) => {
                        let else_node = self.new_node();
                        self.edge(start, else_node);
                        self.cur = else_node;
                        self.lower_expr(e);
                        self.edge(self.cur, join);
                    }
                    None => self.edge(start, join),
                }
                self.cur = join;
            }
            Expr::Match { scrutinee, arms } => {
                self.lower_expr(scrutinee);
                let start = self.cur;
                let join = self.new_node();
                if arms.is_empty() {
                    self.edge(start, join);
                }
                for arm in arms {
                    let arm_node = self.new_node();
                    self.edge(start, arm_node);
                    self.cur = arm_node;
                    self.lower_arm(arm);
                    self.edge(self.cur, join);
                }
                self.cur = join;
            }
            Expr::Loop { body } => {
                let head = self.new_node();
                let after = self.new_node();
                self.edge(self.cur, head);
                self.cur = head;
                self.loops.push(LoopCtx { break_to: after, continue_to: head });
                self.lower_block(body);
                self.loops.pop();
                self.edge(self.cur, head);
                self.cur = after;
            }
            Expr::While { bound, cond, body } => {
                let head = self.new_node();
                self.edge(self.cur, head);
                self.cur = head;
                self.lower_expr(cond);
                let body_node = self.new_node();
                let after = self.new_node();
                self.edge(self.cur, body_node);
                self.edge(self.cur, after);
                self.cur = body_node;
                self.bind_all(bound, Init::Opaque);
                self.loops.push(LoopCtx { break_to: after, continue_to: head });
                self.lower_block(body);
                self.loops.pop();
                self.scope_end_all(bound, body.close);
                self.edge(self.cur, head);
                self.cur = after;
            }
            Expr::For { bound, iter, body } => {
                self.lower_expr(iter);
                let head = self.new_node();
                self.edge(self.cur, head);
                let body_node = self.new_node();
                let after = self.new_node();
                self.edge(head, body_node);
                self.edge(head, after);
                self.cur = body_node;
                self.bind_all(bound, Init::Opaque);
                self.loops.push(LoopCtx { break_to: after, continue_to: head });
                self.lower_block(body);
                self.loops.pop();
                self.scope_end_all(bound, body.close);
                self.edge(self.cur, head);
                self.cur = after;
            }
            Expr::BlockExpr(b) => self.lower_block(b),
            Expr::Return { value, span } => {
                if let Some(v) = value {
                    self.lower_expr(v);
                }
                self.nodes[self.cur].exits.push(ExitEdge { span: *span, kind: ExitKind::Return });
                self.park();
            }
            Expr::Break { value } => {
                if let Some(v) = value {
                    self.lower_expr(v);
                }
                if let Some(ctx) = self.loops.last() {
                    let target = ctx.break_to;
                    self.edge(self.cur, target);
                }
                self.park();
            }
            Expr::Continue => {
                if let Some(ctx) = self.loops.last() {
                    let target = ctx.continue_to;
                    self.edge(self.cur, target);
                }
                self.park();
            }
            Expr::Question { inner, span } => {
                self.lower_expr(inner);
                self.exit_edge(*span, ExitKind::Question);
            }
            Expr::Closure { body } => {
                // Closure bodies run at an unknown time; every name they mention is an
                // opaque capture (see module docs for the resulting limits).
                let mut captured = Vec::new();
                collect_reads(body, &mut captured);
                for (var, span) in captured {
                    self.emit(Event::MacroTouch { var, span });
                }
            }
            Expr::StructLit { fields } => {
                for f in fields {
                    self.lower_expr(f);
                }
            }
            Expr::Borrow { inner } => self.lower_place(inner),
            Expr::Seq(items) => {
                for item in items {
                    self.lower_expr(item);
                }
            }
            Expr::Unit => {}
        }
    }

    fn lower_arm(&mut self, arm: &Arm) {
        self.bind_all(&arm.bound, Init::Opaque);
        if let Some(guard) = &arm.guard {
            self.lower_expr(guard);
        }
        self.lower_expr(&arm.body);
        let close = arm.bound.first().map_or(Span { line: 0, col: 0 }, |(_, s)| *s);
        self.scope_end_all(&arm.bound, close);
    }
}

/// Collect every variable read inside a closure body (including nested blocks and
/// macros) as (name, span) pairs.
fn collect_reads(e: &Expr, out: &mut Vec<(String, Span)>) {
    match e {
        Expr::Var { name, span } => out.push((name.clone(), *span)),
        Expr::Field { base } | Expr::Borrow { inner: base } | Expr::Question { inner: base, .. } => {
            collect_reads(base, out)
        }
        Expr::Index { base, index } => {
            collect_reads(base, out);
            collect_reads(index, out);
        }
        Expr::Call { base, args, .. } => {
            if let Some(b) = base {
                collect_reads(b, out);
            }
            for a in args {
                collect_reads(a, out);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            collect_reads(recv, out);
            for a in args {
                collect_reads(a, out);
            }
        }
        Expr::MacroCall { idents } => out.extend(idents.iter().cloned()),
        Expr::If { cond, then, orelse, .. } => {
            collect_reads(cond, out);
            collect_block_reads(then, out);
            if let Some(e) = orelse {
                collect_reads(e, out);
            }
        }
        Expr::Match { scrutinee, arms } => {
            collect_reads(scrutinee, out);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    collect_reads(g, out);
                }
                collect_reads(&arm.body, out);
            }
        }
        Expr::Loop { body } => collect_block_reads(body, out),
        Expr::While { cond, body, .. } => {
            collect_reads(cond, out);
            collect_block_reads(body, out);
        }
        Expr::For { iter, body, .. } => {
            collect_reads(iter, out);
            collect_block_reads(body, out);
        }
        Expr::BlockExpr(b) => collect_block_reads(b, out),
        Expr::Return { value, .. } | Expr::Break { value } => {
            if let Some(v) = value {
                collect_reads(v, out);
            }
        }
        Expr::Closure { body } => collect_reads(body, out),
        Expr::StructLit { fields } => {
            for f in fields {
                collect_reads(f, out);
            }
        }
        Expr::Seq(items) => {
            for item in items {
                collect_reads(item, out);
            }
        }
        Expr::Continue | Expr::Unit => {}
    }
}

fn collect_block_reads(b: &Block, out: &mut Vec<(String, Span)>) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { init, else_block, .. } => {
                if let Some(e) = init {
                    collect_reads(e, out);
                }
                if let Some(d) = else_block {
                    collect_block_reads(d, out);
                }
            }
            Stmt::Expr(e) => collect_reads(e, out),
        }
    }
    if let Some(t) = &b.tail {
        collect_reads(t, out);
    }
}

/// A finding from one dataflow pass, before it is wrapped with a rule id and file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PassFinding {
    /// Where the finding points.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
}

/// Abstract environment: per-variable bitmask state sets (union join = may-analysis).
pub type Env = BTreeMap<String, u8>;

/// One dataflow pass: a transfer function over [`Env`].
pub trait Transfer {
    /// Apply one event; may emit findings.
    fn event(&self, env: &mut Env, ev: &Event, sink: &mut Vec<PassFinding>);
    /// Check obligations on an early-exit edge (env is the node's post-event state).
    fn exit(&self, env: &Env, edge: &ExitEdge, sink: &mut Vec<PassFinding>);
}

/// Join `from` into `into`; true if `into` changed.
fn join(into: &mut Env, from: &Env) -> bool {
    let mut changed = false;
    for (var, bits) in from {
        let slot = into.entry(var.clone()).or_insert(0);
        if *slot | bits != *slot {
            *slot |= bits;
            changed = true;
        }
    }
    changed
}

/// Run one pass over a CFG to fixpoint, then emit findings from every reachable node,
/// deduplicated and sorted by (line, col, message).
pub fn run_pass<T: Transfer>(cfg: &Cfg, pass: &T) -> Vec<PassFinding> {
    let n = cfg.nodes.len();
    let mut in_envs: Vec<Option<Env>> = vec![None; n];
    in_envs[0] = Some(Env::new());
    let mut worklist = vec![0usize];
    let mut scratch = Vec::new();
    // In-environments only grow (union join, monotone bit states), so this terminates.
    while let Some(node) = worklist.pop() {
        let Some(env_in) = in_envs[node].clone() else { continue };
        let mut env = env_in;
        scratch.clear();
        for ev in &cfg.nodes[node].events {
            pass.event(&mut env, ev, &mut scratch);
        }
        for &succ in &cfg.nodes[node].succs {
            let changed = match &mut in_envs[succ] {
                Some(existing) => join(existing, &env),
                slot @ None => {
                    *slot = Some(env.clone());
                    true
                }
            };
            if changed && !worklist.contains(&succ) {
                worklist.push(succ);
            }
        }
    }
    let mut findings = BTreeSet::new();
    for (node, env_in) in cfg.nodes.iter().zip(&in_envs) {
        let Some(env_in) = env_in else { continue };
        let mut env = env_in.clone();
        let mut sink = Vec::new();
        for ev in &node.events {
            pass.event(&mut env, ev, &mut sink);
        }
        for edge in &node.exits {
            pass.exit(&env, edge, &mut sink);
        }
        findings.extend(sink);
    }
    findings.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Pass L6: page-lifecycle.
// ---------------------------------------------------------------------------

/// Lifecycle bit: bound from `reserve` (obligation tracked by `must-release`).
const RESERVED: u8 = 1;
/// Lifecycle bit: bound from an `alloc*` call — must reach free/escape before drop.
const ALLOCATED: u8 = 2;
/// Lifecycle bit: bound from `seal_page`/`share_page` — a refcounted shared page, no
/// direct obligation.
const SHARED: u8 = 4;
/// Lifecycle bit: passed to a free call.
const FREED: u8 = 8;
/// Lifecycle bit: moved away (returned, stored, handed off) — no longer ours.
const ESCAPED: u8 = 16;

/// Calls that consume a page binding and free it.
const FREE_NAMES: [&str; 4] = ["free", "free_page", "release", "dealloc"];

/// The `page-lifecycle` (L6) pass: tracks bindings produced by
/// `reserve`/`alloc*`/`seal_page`/`share_page` and flags double-free, use-after-free, and
/// allocated pages that can go out of scope or early-exit without being freed or
/// handed off.
pub struct PageLifecycle;

fn lifecycle_ctor(name: &str) -> Option<u8> {
    if name == "reserve" || name == "try_reserve" {
        Some(RESERVED)
    } else if name.starts_with("alloc") {
        Some(ALLOCATED)
    } else if name == "seal_page" || name == "share_page" {
        Some(SHARED)
    } else {
        None
    }
}

impl PageLifecycle {
    fn check_use(env: &Env, var: &str, span: Span, what: &str, sink: &mut Vec<PassFinding>) {
        if env.get(var).is_some_and(|bits| bits & FREED != 0) {
            sink.push(PassFinding {
                span,
                message: format!("use-after-free: `{var}` may already be freed when {what}"),
            });
        }
    }
}

impl Transfer for PageLifecycle {
    fn event(&self, env: &mut Env, ev: &Event, sink: &mut Vec<PassFinding>) {
        match ev {
            Event::Bind { var, init, .. } => match init {
                Init::Call(name) => match lifecycle_ctor(name) {
                    Some(state) => {
                        env.insert(var.clone(), state);
                    }
                    None => {
                        env.remove(var);
                    }
                },
                Init::Alias(of) => {
                    let bits = env.get(of).copied();
                    match bits {
                        Some(bits) => {
                            env.insert(var.clone(), bits);
                            env.insert(of.clone(), ESCAPED);
                        }
                        None => {
                            env.remove(var);
                        }
                    }
                }
                Init::Opaque => {
                    env.remove(var);
                }
            },
            Event::Call { name, args, span, .. } => {
                let freeing = FREE_NAMES.contains(&name.as_str());
                for var in args {
                    let Some(bits) = env.get(var).copied() else { continue };
                    if freeing {
                        if bits & FREED != 0 {
                            sink.push(PassFinding {
                                span: *span,
                                message: format!("double-free: `{var}` may already be freed here"),
                            });
                        }
                        env.insert(var.clone(), FREED);
                    } else {
                        if bits & FREED != 0 {
                            sink.push(PassFinding {
                                span: *span,
                                message: format!(
                                    "use-after-free: `{var}` may already be freed when passed to `{name}`"
                                ),
                            });
                        }
                        env.insert(var.clone(), ESCAPED);
                    }
                }
            }
            Event::MoveOut { var, span } => {
                if env.contains_key(var) {
                    Self::check_use(env, var, *span, "moved", sink);
                    env.insert(var.clone(), ESCAPED);
                }
            }
            Event::Touch { var, span } => {
                Self::check_use(env, var, *span, "borrowed", sink);
            }
            Event::MacroTouch { var, span } => {
                if env.contains_key(var) {
                    Self::check_use(env, var, *span, "captured", sink);
                    env.insert(var.clone(), ESCAPED);
                }
            }
            Event::ScopeEnd { var, span } => {
                if let Some(bits) = env.remove(var) {
                    if bits & ALLOCATED != 0 {
                        sink.push(PassFinding {
                            span: *span,
                            message: format!(
                                "leak: page `{var}` may go out of scope without being freed or handed off"
                            ),
                        });
                    }
                }
            }
        }
    }

    fn exit(&self, env: &Env, edge: &ExitEdge, sink: &mut Vec<PassFinding>) {
        for (var, bits) in env {
            if bits & ALLOCATED != 0 {
                let path = match edge.kind {
                    ExitKind::Return => "early return",
                    ExitKind::Question => "`?` error path",
                };
                sink.push(PassFinding { span: edge.span, message: format!("leak: page `{var}` may leak on {path}") });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass L7: guard-liveness.
// ---------------------------------------------------------------------------

/// Guard bit: a live pool/lock guard.
const GUARD: u8 = 1;

/// Terminal call names whose bindings are lock guards.
const GUARD_SOURCES: [&str; 2] = ["state", "lock"];

/// Exact hot-call names.
const HOT_EXACT: [&str; 2] = ["pack", "unpack"];

/// Hot-call name prefixes.
const HOT_PREFIXES: [&str; 4] = ["pack_", "unpack_", "forward", "decode_step"];

/// Is this callee a decode-hot-path call that must not run under a pool guard?
pub fn is_hot_call(name: &str) -> bool {
    HOT_EXACT.contains(&name) || HOT_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// The `guard-liveness` (L7) pass: a binding whose initializer terminates in
/// `.state()`/`.lock()` is a guard; reaching a hot call (`pack*`/`unpack*`/
/// `forward*`/`decode_step*`) with any guard live on *any* path is a finding. Guards
/// die when consumed by value (`drop(g)`, any call taking `g`), moved away, or at
/// scope end — per CFG path, which is exactly what the old brace-depth rule got wrong
/// around match arms and early returns.
pub struct GuardLiveness;

impl Transfer for GuardLiveness {
    fn event(&self, env: &mut Env, ev: &Event, sink: &mut Vec<PassFinding>) {
        match ev {
            Event::Bind { var, init, .. } => match init {
                Init::Call(name) if GUARD_SOURCES.contains(&name.as_str()) => {
                    env.insert(var.clone(), GUARD);
                }
                Init::Alias(of) if env.remove(of).is_some() => {
                    env.insert(var.clone(), GUARD);
                }
                _ => {
                    env.remove(var);
                }
            },
            Event::Call { name, args, span, .. } => {
                // A guard passed by value into a hot call is still held across it:
                // check first, then kill consumed guards.
                if is_hot_call(name) {
                    for (var, bits) in env.iter() {
                        if bits & GUARD != 0 {
                            sink.push(PassFinding {
                                span: *span,
                                message: format!("pool guard `{var}` may be live across hot call `{name}`"),
                            });
                        }
                    }
                }
                for var in args {
                    env.remove(var);
                }
            }
            Event::MoveOut { var, .. } | Event::ScopeEnd { var, .. } => {
                env.remove(var);
            }
            // Borrows and macro uses (`assert!(g.free.len() > 0)`) keep a guard live.
            Event::Touch { .. } | Event::MacroTouch { .. } => {}
        }
    }

    fn exit(&self, _env: &Env, _edge: &ExitEdge, _sink: &mut Vec<PassFinding>) {}
}

// ---------------------------------------------------------------------------
// Pass L8: must-release.
// ---------------------------------------------------------------------------

/// Reservation bit: a reservation obtained from `reserve` that is still held.
const HELD: u8 = 1;

/// Calls that settle a reservation (as receiver or by-value argument).
const RELEASE_NAMES: [&str; 3] = ["release", "unreserve", "free"];

/// The `must-release` (L8) pass: a binding produced by `reserve` must, on every path,
/// reach a release call (`release`/`unreserve`/`free`, as receiver or argument) or be
/// handed off (moved/returned/captured) before scope end or any early exit.
pub struct MustRelease;

impl Transfer for MustRelease {
    fn event(&self, env: &mut Env, ev: &Event, sink: &mut Vec<PassFinding>) {
        match ev {
            Event::Bind { var, init, .. } => match init {
                Init::Call(name) if name == "reserve" => {
                    env.insert(var.clone(), HELD);
                }
                Init::Alias(of) if env.remove(of).is_some() => {
                    env.insert(var.clone(), HELD);
                }
                _ => {
                    env.remove(var);
                }
            },
            Event::Call { name, recv, args, .. } => {
                let releasing = RELEASE_NAMES.contains(&name.as_str());
                if releasing {
                    if let Some(r) = recv {
                        env.remove(r);
                    }
                }
                for var in args {
                    // Released by a release call; handed off when consumed by any other.
                    env.remove(var);
                }
            }
            Event::MoveOut { var, .. } | Event::MacroTouch { var, .. } | Event::ScopeEnd { var, .. } => {
                let at_scope_end = matches!(ev, Event::ScopeEnd { .. });
                if let Some(bits) = env.remove(var) {
                    if at_scope_end && bits & HELD != 0 {
                        if let Event::ScopeEnd { span, .. } = ev {
                            sink.push(PassFinding {
                                span: *span,
                                message: format!("reservation `{var}` may go out of scope without release or handoff"),
                            });
                        }
                    }
                }
            }
            Event::Touch { .. } => {}
        }
    }

    fn exit(&self, env: &Env, edge: &ExitEdge, sink: &mut Vec<PassFinding>) {
        for (var, bits) in env {
            if bits & HELD != 0 {
                let path = match edge.kind {
                    ExitKind::Return => "early return",
                    ExitKind::Question => "`?` error path",
                };
                sink.push(PassFinding {
                    span: edge.span,
                    message: format!("reservation `{var}` may leak on {path} without release"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn pass_on<T: Transfer>(src: &str, pass: &T) -> Vec<PassFinding> {
        let parsed = parse(&lex(src));
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let mut all = Vec::new();
        for f in &parsed.functions {
            all.extend(run_pass(&build_cfg(f), pass));
        }
        all
    }

    #[test]
    fn lifecycle_flags_double_free_on_one_path_only() {
        let findings = pass_on(
            "fn f(pool: &mut Pool, cond: bool) {\n    let entry = pool.alloc_page();\n    if cond {\n        pool.free_page(entry);\n    }\n    pool.free_page(entry);\n}\n",
            &PageLifecycle,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("double-free"), "{findings:?}");
        assert_eq!((findings[0].span.line, findings[0].span.col), (6, 10));
    }

    #[test]
    fn lifecycle_clean_when_freed_on_every_path() {
        let findings = pass_on(
            "fn f(pool: &mut Pool, cond: bool) {\n    let entry = pool.alloc_page();\n    if cond {\n        pool.free_page(entry);\n    } else {\n        pool.free_page(entry);\n    }\n}\n",
            &PageLifecycle,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lifecycle_flags_leak_on_early_return_and_question() {
        let findings = pass_on(
            "fn f(pool: &mut Pool, cond: bool) -> Result<(), E> {\n    let entry = pool.alloc_page();\n    if cond {\n        return Ok(());\n    }\n    let n = pool.checked()?;\n    pool.free_page(entry);\n    Ok(())\n}\n",
            &PageLifecycle,
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!((findings[0].span.line, findings[0].span.col), (4, 9));
        assert!(findings[0].message.contains("early return"));
        assert!(findings[1].message.contains("error path"));
    }

    #[test]
    fn lifecycle_escape_and_return_are_clean() {
        let findings = pass_on(
            "fn f(pool: &mut Pool) -> PageEntry {\n    let entry = pool.alloc_page();\n    let other = pool.alloc_page();\n    pool.tables.push(other);\n    entry\n}\n",
            &PageLifecycle,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn guard_liveness_sees_through_match_arms() {
        // The old brace-depth rule killed the guard at a `drop` in *any* arm; the CFG
        // keeps it live on the sibling path.
        let findings = pass_on(
            "fn f(pool: &Pool, cache: &mut Cache, cond: bool) {\n    let state = pool.state();\n    match cond {\n        true => drop(state),\n        false => {}\n    }\n    cache.unpack_row_into(0);\n}\n",
            &GuardLiveness,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].span.line, findings[0].span.col), (7, 11));
    }

    #[test]
    fn guard_liveness_clean_when_dropped_on_all_paths() {
        let findings = pass_on(
            "fn f(pool: &Pool, cache: &mut Cache) {\n    let state = pool.state();\n    let n = state.free.len();\n    drop(state);\n    cache.unpack_row_into(n);\n}\n",
            &GuardLiveness,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn must_release_flags_held_reservation_on_exit() {
        let findings = pass_on(
            "fn f(pool: &Pool, cond: bool) {\n    let res = pool.reserve(4);\n    if cond {\n        return;\n    }\n    res.release();\n}\n",
            &MustRelease,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].span.line, 4);
    }
}
