//! Mirror-equivalence tier (`--mirrors`) — DESIGN.md §10.7.
//!
//! The repo's load-bearing invariant is that paired kernel
//! implementations (direct / fused / event-engine Lindley
//! updates, the `push` / `push_with_inv` accumulators, the `record_core`
//! monomorphizations) produce bit-identical floating-point results.
//! Until now that contract was enforced only by runtime gates; this
//! pass proves it structurally at lint time.
//!
//! Each member of an equivalence group carries a
//! `// dses-lint: mirrors(group)` directive. The pass extracts each
//! member's *normalized float-op skeleton* — the ordered sequence of
//! traced float operations (`+ - * / %`, `min`/`max`/`mul_add`,
//! comparisons, opaque calls with float arguments) in Rust evaluation
//! order — and rejects any group whose members differ in op kind, op
//! order, or operand provenance, reporting the exact diverging op with
//! both source spans.
//!
//! Normalizations applied before comparison (§10.7 documents each):
//!
//! * **Hoist substitution** — `// dses-lint: hoist(name)` declares that
//!   a parameter holds a precomputed reciprocal, or that a call stands
//!   for a hoisted-table divide. Reads of a hoisted parameter become a
//!   wildcard operand; calls to a hoisted name become a literal
//!   `div(arg, <hoisted>)` op so they line up with the real divide in
//!   the mirror.
//! * **Reciprocal folding** — `1.0 / x` folds into a `recip(x)`
//!   *operand* rather than a divide *op*, so `record`'s live
//!   `1.0 / rec.size` matches `record_with_inv`'s hoisted `inv_size`
//!   parameter.
//! * **Same-group / declared inlining** — calls to other members of the
//!   same group, or to names listed in `// dses-lint: inline(…)`, are
//!   inlined (arguments substituted positionally, `self.x` descriptors
//!   rewritten against the receiver) so wrapper members compare against
//!   the op stream they actually execute.
//! * **Operand α-equivalence** — leaf descriptors are matched by a
//!   lockstep bijection built during comparison, not by name: members
//!   may use different local names for the same value, but once a
//!   descriptor on one side binds to a descriptor on the other, every
//!   later co-occurrence must agree.
//!
//! Group modes: plain `mirrors(g)` groups are compared op-by-op;
//! `mirrors(g, ulp)` groups (the block collector) check the arithmetic
//! op *set* (with `/` canonicalized to `*`) and exempt order;
//! single-member groups whose fn has `const bool` parameters are
//! *specialization* groups — every monomorphization's op sequence must
//! be a subsequence of the all-demands-on path. Mixed `f32`/`f64`
//! arithmetic inside any annotated kernel is a hard error.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::graph::{FnId, Graph};
use crate::items::Code;
use crate::lexer::TokenKind;
use crate::report::{Finding, Severity};
use crate::semantic::waived;

// ---------------------------------------------------------------------
// Type classification
// ---------------------------------------------------------------------

/// Coarse scalar classification: the extractor traces an op iff at
/// least one operand is a scalar `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Scalar `f64`.
    Float,
    /// `[f64]` / `Vec<f64>` / `[f64; N]` — becomes `Float` when indexed
    /// by a scalar.
    FloatSlice,
    /// Integer or bool scalar.
    Int,
    /// Anything else (structs, refs, unknown).
    Other,
}

/// Classify a type from its token texts (`&`, `mut`, idents, brackets).
fn classify_type(toks: &[&str]) -> Class {
    let slice = toks.iter().any(|t| *t == "[" || *t == "Vec");
    if toks.contains(&"f64") {
        return if slice { Class::FloatSlice } else { Class::Float };
    }
    const INTS: &[&str] = &[
        "usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8", "bool",
    ];
    if !slice && toks.iter().any(|t| INTS.contains(t)) {
        return Class::Int;
    }
    Class::Other
}

/// Workspace-wide field/return classifications, recovered by a direct
/// token scan. The item parser's `leading_type_ident` drops slice types
/// (`&mut [f64]` has no leading ident), so the mirror tier scans struct
/// declarations and fn signatures itself.
struct TypeFacts {
    /// Struct field name → class. Conflicting declarations across the
    /// workspace demote to `Other` (never guess).
    fields: BTreeMap<String, Class>,
    /// Fn name → return class, same conflict rule.
    returns: BTreeMap<String, Class>,
}

impl TypeFacts {
    fn build(codes: &BTreeMap<usize, Code<'_>>) -> Self {
        let mut fields: BTreeMap<String, Class> = BTreeMap::new();
        let mut returns: BTreeMap<String, Class> = BTreeMap::new();
        let put = |map: &mut BTreeMap<String, Class>, name: &str, c: Class| {
            match map.get(name) {
                Some(&prev) if prev != c => {
                    map.insert(name.to_string(), Class::Other);
                }
                Some(_) => {}
                None => {
                    map.insert(name.to_string(), c);
                }
            }
        };
        for code in codes.values() {
            let mut p = 0usize;
            while p < code.len() {
                match code.text(p) {
                    "struct" if p + 1 < code.len() && code.kind(p + 1) == TokenKind::Ident => {
                        // find the body `{` before any `;` / `(` (unit and
                        // tuple structs carry no named fields)
                        let mut q = p + 1;
                        let mut body = None;
                        while q < code.len() {
                            match code.text(q) {
                                "{" => {
                                    body = Some(q);
                                    break;
                                }
                                ";" | "(" => break,
                                _ => q += 1,
                            }
                        }
                        if let Some(open) = body {
                            if let Some(close) = code.match_bracket(open, "{", "}") {
                                scan_fields(code, open, close, |name, c| put(&mut fields, name, c));
                                p = close + 1;
                                continue;
                            }
                        }
                        p = q + 1;
                    }
                    "fn" if p + 1 < code.len() && code.kind(p + 1) == TokenKind::Ident => {
                        let name = code.text(p + 1).to_string();
                        if let Some((c, next)) = scan_return(code, p + 2) {
                            put(&mut returns, &name, c);
                            p = next;
                            continue;
                        }
                        p += 2;
                    }
                    _ => p += 1,
                }
            }
        }
        TypeFacts { fields, returns }
    }
}

/// Scan named fields inside a struct body: depth-0 `ident : TYPE`
/// entries, attributes skipped.
fn scan_fields(code: &Code<'_>, open: usize, close: usize, mut put: impl FnMut(&str, Class)) {
    let mut p = open + 1;
    while p < close {
        match code.text(p) {
            "#" if code.get(p + 1) == Some("[") => {
                p = code.match_bracket(p + 1, "[", "]").map_or(close, |e| e + 1);
            }
            "pub" => {
                p += 1;
                if code.get(p) == Some("(") {
                    p = code.match_bracket(p, "(", ")").map_or(close, |e| e + 1);
                }
            }
            _ if code.kind(p) == TokenKind::Ident && code.get(p + 1) == Some(":") => {
                let name = code.text(p).to_string();
                let (toks, next) = type_tokens(code, p + 2, close);
                put(&name, classify_type(&toks));
                p = next;
            }
            _ => p += 1,
        }
    }
}

/// Collect the token texts of a type starting at `p`, stopping at a
/// depth-0 `,` or at `end`. Returns the tokens and the position after
/// the terminator.
fn type_tokens<'c>(code: &'c Code<'_>, mut p: usize, end: usize) -> (Vec<&'c str>, usize) {
    let mut toks = Vec::new();
    let mut depth = 0i32;
    while p < end {
        let t = code.text(p);
        match t {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ">>" => depth -= 2,
            "," if depth == 0 => {
                p += 1;
                break;
            }
            "{" | ";" | "=" if depth == 0 => break,
            _ => {}
        }
        toks.push(t);
        p += 1;
    }
    (toks, p)
}

/// Starting just after a `fn name`, skip generics and the parameter
/// list, then classify the `-> TYPE` return (unit when absent).
/// Returns `None` when the signature is malformed (e.g. `fn` pointer
/// types misrecognized).
fn scan_return(code: &Code<'_>, mut p: usize) -> Option<(Class, usize)> {
    if code.get(p) == Some("<") {
        p = skip_angles(code, p)?;
    }
    if code.get(p) != Some("(") {
        return None;
    }
    p = code.match_bracket(p, "(", ")")? + 1;
    if code.get(p) != Some("->") {
        return Some((Class::Other, p));
    }
    p += 1;
    let mut toks = Vec::new();
    let mut depth = 0i32;
    while p < code.len() {
        let t = code.text(p);
        match t {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            ">>" => depth -= 2,
            "{" | ";" | "where" if depth == 0 => break,
            _ => {}
        }
        toks.push(t);
        p += 1;
    }
    Some((classify_type(&toks), p))
}

/// Skip a `<…>` generics span starting at the `<`; returns the position
/// just after the matching `>`.
fn skip_angles(code: &Code<'_>, mut p: usize) -> Option<usize> {
    let mut depth = 0i32;
    while p < code.len() {
        match code.text(p) {
            "<" | "<<" => depth += if code.text(p) == "<<" { 2 } else { 1 },
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(p + 1);
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    return Some(p + 1);
                }
            }
            _ => {}
        }
        p += 1;
    }
    None
}

// ---------------------------------------------------------------------
// Skeleton model
// ---------------------------------------------------------------------

/// A traced float operation kind. `Call` carries the callee name so
/// opaque calls with float arguments must match by name.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OpKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Neg,
    Min,
    Max,
    MulAdd,
    Abs,
    Sqrt,
    Cmp(&'static str),
    Call(String),
}

impl OpKind {
    fn name(&self) -> String {
        match self {
            OpKind::Add => "add".into(),
            OpKind::Sub => "sub".into(),
            OpKind::Mul => "mul".into(),
            OpKind::Div => "div".into(),
            OpKind::Rem => "rem".into(),
            OpKind::Neg => "neg".into(),
            OpKind::Min => "min".into(),
            OpKind::Max => "max".into(),
            OpKind::MulAdd => "mul_add".into(),
            OpKind::Abs => "abs".into(),
            OpKind::Sqrt => "sqrt".into(),
            OpKind::Cmp(s) => format!("cmp`{s}`"),
            OpKind::Call(n) => format!("call`{n}`"),
        }
    }

    /// Whether min/max — commutative pair ops whose operand *order* is
    /// still compared (the bijection legalizes consistent renamings,
    /// not swaps; see §10.7 on the first-op caveat).
    fn is_arith(&self) -> bool {
        !matches!(self, OpKind::Cmp(_) | OpKind::Call(_) | OpKind::Min | OpKind::Max)
    }
}

/// Operand provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Val {
    /// A named place (canonical descriptor: `self.mean`,
    /// `arrivals[#]`, `<opq#3>` for opaque sites).
    Leaf(String),
    /// Result of an earlier op in this skeleton (index).
    Res(usize),
    /// A float literal (bit pattern — must match exactly).
    Lit(u64),
    /// Folded reciprocal: `1.0 / x` as an operand.
    Recip(Box<Val>),
    /// Wildcard from a `hoist(…)` declaration.
    Hoisted,
}

/// A value flowing through extraction: provenance + class + the
/// descriptor chain (kept separate so postfix `.field` / `[idx]`
/// accesses can extend it).
#[derive(Debug, Clone)]
struct Operand {
    val: Val,
    class: Class,
}

impl Operand {
    fn leaf(desc: String, class: Class) -> Self {
        Operand { val: Val::Leaf(desc), class }
    }
    fn other(desc: String) -> Self {
        Operand::leaf(desc, Class::Other)
    }
}

/// One traced op.
#[derive(Debug, Clone)]
struct Op {
    kind: OpKind,
    args: Vec<Val>,
    line: u32,
    /// Enclosing const-bool-parameter guards (`(name, polarity)`), for
    /// specialization groups.
    guards: Vec<(String, bool)>,
}

/// A member's extracted skeleton.
struct Skeleton {
    ops: Vec<Op>,
    /// First line with `f32` arithmetic, if any.
    f32_line: Option<u32>,
    /// Const params that actually guarded ops.
    guard_consts: BTreeSet<String>,
    /// Fn declaration line (fallback span).
    line: u32,
}

// ---------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------

/// Per-function walk context (one per inline frame).
struct Frame<'c> {
    file: usize,
    code: &'c Code<'c>,
    locals: BTreeMap<String, Operand>,
    /// Names whose calls are dropped without tracing: declared
    /// `untraced(…)`, plus closure/param-named callees.
    dropped: BTreeSet<String>,
    hoists: BTreeSet<String>,
    inlines: BTreeSet<String>,
    consts: BTreeSet<String>,
    /// Descriptor that replaces `self` when this frame was inlined
    /// through a method call.
    recv: Option<String>,
}

struct Extractor<'g, 'a> {
    g: &'g Graph<'a>,
    facts: &'g TypeFacts,
    codes: &'g BTreeMap<usize, Code<'g>>,
    /// Fn name → id for members of the group being extracted
    /// (same-group calls auto-inline).
    group_fns: BTreeMap<String, FnId>,
    ops: Vec<Op>,
    guards: Vec<(String, bool)>,
    opaque: usize,
    f32_line: Option<u32>,
    guard_consts: BTreeSet<String>,
    /// `(fn id, hoist name)` pairs consumed — drives `mirror-stale-hoist`.
    hoists_used: BTreeSet<(FnId, String)>,
    /// Inline stack (recursion guard).
    stack: Vec<FnId>,
}

impl<'g, 'a> Extractor<'g, 'a> {
    fn fresh(&mut self) -> Operand {
        self.opaque += 1;
        Operand::leaf(format!("<opq#{}>", self.opaque), Class::Float)
    }

    /// Push a traced op; returns its result operand.
    fn emit(&mut self, kind: OpKind, args: Vec<Operand>, line: u32, class: Class) -> Operand {
        self.ops.push(Op {
            kind,
            args: args.into_iter().map(|a| a.val).collect(),
            line,
            guards: self.guards.clone(),
        });
        Operand { val: Val::Res(self.ops.len() - 1), class }
    }

    /// Extract `id` into `self.ops`. `args` carries positional operands
    /// when inlining (receiver excluded); `recv` the receiver
    /// descriptor for method inlines.
    fn extract_fn(&mut self, id: FnId, args: Option<Vec<Operand>>, recv: Option<String>) {
        if self.stack.contains(&id) {
            return;
        }
        self.stack.push(id);
        let file = self.g.fns_file(id);
        let code = &self.codes[&file];
        let item = self.g.item(id);
        let mut fr = Frame {
            file,
            code,
            locals: BTreeMap::new(),
            dropped: item.mirror_untraced.iter().cloned().collect(),
            hoists: item.mirror_hoists.iter().map(|(n, _)| n.clone()).collect(),
            inlines: item.mirror_inlines.iter().cloned().collect(),
            consts: item.const_params.iter().cloned().collect(),
            recv,
        };
        // locate `fn <name>` on the item's line, then its param list
        let mut sig = None;
        for p in 0..code.len() {
            if code.line(p) == item.line && code.text(p) == "fn" && code.get(p + 1) == Some(item.name.as_str()) {
                sig = Some(p + 2);
                break;
            }
            if code.line(p) > item.line {
                break;
            }
        }
        let (Some(mut p), Some((open, close))) = (sig, item.body) else {
            self.stack.pop();
            return;
        };
        if code.get(p) == Some("<") {
            p = skip_angles(code, p).unwrap_or(p + 1);
        }
        if code.get(p) == Some("(") {
            if let Some(cp) = code.match_bracket(p, "(", ")") {
                self.bind_params(&mut fr, id, p, cp, args);
            }
        }
        // mixed-precision scan over the whole item (signature + body)
        if self.f32_line.is_none() {
            for q in p..=close {
                let t = code.text(q);
                let is_f32 = (code.kind(q) == TokenKind::Ident && t == "f32")
                    || (code.kind(q) == TokenKind::Float && t.ends_with("f32"));
                if is_f32 {
                    self.f32_line = Some(code.line(q));
                    break;
                }
            }
        }
        self.walk_block(&mut fr, open, close);
        self.stack.pop();
    }

    /// Bind the parameter list: depth-0 `name : TYPE` entries between
    /// `open`/`close`, positionally zipped with inline `args` when
    /// present. Hoisted params become wildcards.
    fn bind_params(&mut self, fr: &mut Frame<'_>, id: FnId, open: usize, close: usize, args: Option<Vec<Operand>>) {
        let code = fr.code;
        let mut names = Vec::new();
        let mut p = open + 1;
        let mut depth = 0i32;
        while p < close {
            match code.text(p) {
                "(" | "[" | "<" | "{" => depth += 1,
                ")" | "]" | ">" | "}" => depth -= 1,
                ">>" => depth -= 2,
                "mut" | "&" => {}
                t if depth == 0
                    && code.kind(p) == TokenKind::Ident
                    && code.get(p + 1) == Some(":")
                    && (p == open + 1 || matches!(code.text(p - 1), "," | "mut")) =>
                {
                    let (toks, next) = type_tokens(code, p + 2, close);
                    names.push((t.to_string(), classify_type(&toks)));
                    p = next;
                    continue;
                }
                _ => {}
            }
            p += 1;
        }
        let mut supplied = args.map(Vec::into_iter);
        for (name, class) in names {
            let op = if fr.hoists.contains(&name) {
                self.hoists_used.insert((id, name.clone()));
                // consume the positional arg anyway to stay aligned
                if let Some(it) = supplied.as_mut() {
                    let _ = it.next();
                }
                Operand { val: Val::Hoisted, class: Class::Float }
            } else if let Some(it) = supplied.as_mut() {
                it.next().unwrap_or_else(|| Operand::other(name.clone()))
            } else {
                Operand::leaf(name.clone(), class)
            };
            fr.locals.insert(name, op);
        }
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    /// Walk the statements of a brace block (`open`/`close` are the
    /// positions of `{` / `}`).
    fn walk_block(&mut self, fr: &mut Frame<'_>, open: usize, close: usize) {
        let mut p = open + 1;
        while p < close {
            p = self.stmt(fr, p, close);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, fr: &mut Frame<'_>, p: usize, end: usize) -> usize {
        let code = fr.code;
        match code.text(p) {
            ";" => p + 1,
            "#" if code.get(p + 1) == Some("[") => {
                code.match_bracket(p + 1, "[", "]").map_or(end, |e| e + 1)
            }
            "{" => {
                let close = code.match_bracket(p, "{", "}").unwrap_or(end);
                self.walk_block(fr, p, close);
                close + 1
            }
            "let" => self.stmt_let(fr, p, end),
            "if" => self.stmt_if(fr, p, end),
            "match" => {
                let (_, next) = self.expr(fr, p, 0);
                next
            }
            "while" => {
                let mut q = p + 1;
                if code.get(q) == Some("let") {
                    // while let PAT = expr { … }
                    while q < end && code.text(q) != "=" {
                        q += 1;
                    }
                    q += 1;
                }
                let (_, mut q) = self.expr_until_brace(fr, q, end);
                if code.get(q) == Some("{") {
                    let close = code.match_bracket(q, "{", "}").unwrap_or(end);
                    self.walk_block(fr, q, close);
                    q = close + 1;
                }
                q
            }
            "for" => {
                // skip the pattern to depth-0 `in`
                let mut q = p + 1;
                let mut depth = 0i32;
                while q < end {
                    match code.text(q) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "in" if depth == 0 => break,
                        _ => {}
                    }
                    q += 1;
                }
                let (_, mut q) = self.expr_until_brace(fr, q + 1, end);
                if code.get(q) == Some("{") {
                    let close = code.match_bracket(q, "{", "}").unwrap_or(end);
                    self.walk_block(fr, q, close);
                    q = close + 1;
                }
                q
            }
            "loop" => {
                let mut q = p + 1;
                if code.get(q) == Some("{") {
                    let close = code.match_bracket(q, "{", "}").unwrap_or(end);
                    self.walk_block(fr, q, close);
                    q = close + 1;
                }
                q
            }
            "unsafe" => p + 1,
            "return" | "break" => {
                let mut q = p + 1;
                if q < end && !matches!(code.text(q), ";" | "}") {
                    let (_, n) = self.expr(fr, q, 0);
                    q = n;
                }
                q
            }
            "continue" => p + 1,
            // nested items: skip wholesale (nested fns get their own node)
            "fn" | "struct" | "enum" | "impl" | "trait" | "mod" | "use" | "const" | "static"
            | "type" => {
                let mut q = p;
                while q < end {
                    match code.text(q) {
                        ";" => return q + 1,
                        "=" if code.text(p) == "const" || code.text(p) == "static" => {
                            // local const value may contain an expr worth
                            // skipping to `;`
                            while q < end && code.text(q) != ";" {
                                q += 1;
                            }
                            return q + 1;
                        }
                        "{" => return code.match_bracket(q, "{", "}").map_or(end, |e| e + 1),
                        _ => q += 1,
                    }
                }
                end
            }
            _ => {
                let (_, next) = self.expr(fr, p, 0);
                if next == p {
                    // safety: never loop in place on unexpected tokens
                    next + 1
                } else {
                    next
                }
            }
        }
    }

    fn stmt_let(&mut self, fr: &mut Frame<'_>, p: usize, end: usize) -> usize {
        let code = fr.code;
        let mut q = p + 1;
        if code.get(q) == Some("mut") {
            q += 1;
        }
        // simple binding: `ident` followed by `:`, `=` or `;`
        let simple = code.kind(q) == TokenKind::Ident
            && matches!(code.get(q + 1), Some(":" | "=" | ";"));
        let name = simple.then(|| code.text(q).to_string());
        let mut declared = None;
        if simple {
            q += 1;
            if code.get(q) == Some(":") {
                let (toks, next) = type_tokens(code, q + 1, end);
                declared = Some(classify_type(&toks));
                q = next.saturating_sub(1).max(q + 1);
                // type_tokens stops before `=`; reposition exactly
                while q < end && !matches!(code.text(q), "=" | ";") {
                    q += 1;
                }
            }
        } else {
            // destructuring pattern: skip to depth-0 `=` or `;`
            let mut depth = 0i32;
            while q < end {
                match code.text(q) {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth -= 1,
                    "=" | ";" if depth == 0 => break,
                    _ => {}
                }
                q += 1;
            }
        }
        if code.get(q) == Some(";") {
            // `let x;` — bind opaque
            if let Some(n) = name {
                let op = self.fresh();
                fr.locals.insert(n, op);
            }
            return q + 1;
        }
        if code.get(q) != Some("=") {
            return q + 1;
        }
        q += 1;
        // closure rhs → the binding's calls are dropped
        let closure_rhs = matches!(code.get(q), Some("|" | "||" | "move"));
        let (mut val, mut next) = self.expr(fr, q, 0);
        // `let … else { … }` — walk the else block
        if code.get(next) == Some("else") && code.get(next + 1) == Some("{") {
            let close = code.match_bracket(next + 1, "{", "}").unwrap_or(end);
            self.walk_block(fr, next + 1, close);
            next = close + 1;
        }
        if code.get(next) == Some(";") {
            next += 1;
        }
        if let Some(n) = name {
            if let Some(d) = declared {
                if val.class == Class::Other && d != Class::Other {
                    val.class = d;
                }
            }
            if closure_rhs {
                fr.dropped.insert(n.clone());
            }
            fr.locals.insert(n, val);
        }
        next
    }

    fn stmt_if(&mut self, fr: &mut Frame<'_>, p: usize, end: usize) -> usize {
        let code = fr.code;
        let mut q = p + 1;
        // const-bool guard: `if NAME {` / `if ! NAME {`
        let mut guard = None;
        let (gname, gpol, gbody) = if code.get(q) == Some("!")
            && code.get(q + 2) == Some("{")
            && code.kind(q + 1) == TokenKind::Ident
        {
            (code.text(q + 1).to_string(), false, q + 2)
        } else if code.get(q + 1) == Some("{") && code.kind(q) == TokenKind::Ident {
            (code.text(q).to_string(), true, q + 1)
        } else {
            (String::new(), true, 0)
        };
        if !gname.is_empty() && fr.consts.contains(&gname) {
            guard = Some((gname, gpol));
            q = gbody;
        } else if code.get(q) == Some("let") {
            // if let PAT = scrutinee { … }
            let mut depth = 0i32;
            q += 1;
            while q < end {
                match code.text(q) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "=" if depth == 0 => break,
                    _ => {}
                }
                q += 1;
            }
            let (_, n) = self.expr_until_brace(fr, q + 1, end);
            q = n;
        } else {
            let (_, n) = self.expr_until_brace(fr, q, end);
            q = n;
        }
        if code.get(q) != Some("{") {
            return q;
        }
        let close = code.match_bracket(q, "{", "}").unwrap_or(end);
        if let Some((n, pol)) = &guard {
            self.guards.push((n.clone(), *pol));
            self.guard_consts.insert(n.clone());
            self.walk_block(fr, q, close);
            self.guards.pop();
        } else {
            self.walk_block(fr, q, close);
        }
        q = close + 1;
        if code.get(q) == Some("else") {
            q += 1;
            if code.get(q) == Some("if") {
                return self.stmt_if(fr, q, end);
            }
            if code.get(q) == Some("{") {
                let close = code.match_bracket(q, "{", "}").unwrap_or(end);
                if let Some((n, _)) = &guard {
                    self.guards.push((n.clone(), false));
                    self.walk_block(fr, q, close);
                    self.guards.pop();
                } else {
                    self.walk_block(fr, q, close);
                }
                q = close + 1;
            }
        }
        q
    }

    /// Parse an expression that terminates at a block-opening `{`
    /// (if/while/for headers): struct-literal braces inside the
    /// expression are handled by the primary parser, so the first `{`
    /// the Pratt loop refuses to consume is the body.
    fn expr_until_brace(&mut self, fr: &mut Frame<'_>, p: usize, _end: usize) -> (Operand, usize) {
        self.expr(fr, p, 0)
    }

    // -----------------------------------------------------------------
    // Expressions (Pratt)
    // -----------------------------------------------------------------

    /// Binding powers: `(left, right)` per binary operator. `None`
    /// terminates the loop.
    fn infix_bp(t: &str) -> Option<(u8, u8)> {
        Some(match t {
            "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "|=" | "&=" | "^=" | "<<=" | ">>=" => (3, 2),
            ".." | "..=" => (5, 6),
            "||" => (7, 8),
            "&&" => (9, 10),
            "==" | "!=" | "<" | ">" | "<=" | ">=" => (11, 12),
            "|" => (13, 14),
            "^" => (15, 16),
            "&" => (17, 18),
            "<<" | ">>" => (19, 20),
            "+" | "-" => (21, 22),
            "*" | "/" | "%" => (23, 24),
            "as" => (25, 26),
            _ => return None,
        })
    }

    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, fr: &mut Frame<'_>, p: usize, min_bp: u8) -> (Operand, usize) {
        let code = fr.code;
        let (mut lhs, mut p) = self.primary(fr, p);
        while let Some(t) = code.get(p) {
            // `<` that opens generics in a path position was consumed by
            // primary; here it is always a comparison.
            let Some((lbp, rbp)) = Self::infix_bp(t) else { break };
            if lbp < min_bp {
                break;
            }
            let t = t.to_string();
            let line = code.line(p);
            if t == "as" {
                // cast: consume the type tokens
                let mut q = p + 1;
                let mut toks: Vec<String> = Vec::new();
                while q < code.len() {
                    let tt = code.text(q);
                    if code.kind(q) == TokenKind::Ident || tt == "::" {
                        toks.push(tt.to_string());
                        q += 1;
                        if code.get(q) == Some("<") {
                            q = skip_angles(code, q).unwrap_or(q + 1);
                        }
                        if code.get(q) != Some("::") {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                let refs: Vec<&str> = toks.iter().map(String::as_str).collect();
                let target = classify_type(&refs);
                lhs = match target {
                    // non-float → f64: fresh opaque float leaf (the cast
                    // value's provenance is deliberately erased; both
                    // members of a group cast at the same position)
                    Class::Float if lhs.class != Class::Float => self.fresh(),
                    Class::Float => lhs,
                    c => Operand { val: lhs.val, class: c },
                };
                p = q;
                continue;
            }
            let (rhs, next) = self.expr(fr, p + 1, rbp);
            p = next;
            let traced = lhs.class == Class::Float || rhs.class == Class::Float;
            let kind = match t.as_str() {
                "+" | "+=" => Some(OpKind::Add),
                "-" | "-=" => Some(OpKind::Sub),
                "*" | "*=" => Some(OpKind::Mul),
                "/" | "/=" => Some(OpKind::Div),
                "%" | "%=" => Some(OpKind::Rem),
                "<" => Some(OpKind::Cmp("<")),
                "<=" => Some(OpKind::Cmp("<=")),
                ">" => Some(OpKind::Cmp(">")),
                ">=" => Some(OpKind::Cmp(">=")),
                "==" => Some(OpKind::Cmp("==")),
                "!=" => Some(OpKind::Cmp("!=")),
                _ => None,
            };
            let assigned = t.ends_with('=') && !matches!(t.as_str(), "==" | "!=" | "<=" | ">=");
            match kind {
                Some(k) if traced => {
                    // reciprocal folding: `1.0 / x` becomes a recip operand
                    if matches!(k, OpKind::Div)
                        && !assigned
                        && lhs.val == Val::Lit(1.0f64.to_bits())
                    {
                        lhs = Operand { val: Val::Recip(Box::new(rhs.val)), class: Class::Float };
                        continue;
                    }
                    let cls = if matches!(k, OpKind::Cmp(_)) { Class::Int } else { Class::Float };
                    let res = self.emit(k, vec![lhs.clone(), rhs], line, cls);
                    lhs = if assigned { Operand::other(String::new()) } else { res };
                }
                _ => {
                    if t == "=" {
                        // plain assignment: rebind bare-ident lhs so class
                        // propagates (`m = m.min(x)`)
                        if let Val::Leaf(d) = &lhs.val {
                            if fr.locals.contains_key(d) {
                                fr.locals.insert(d.clone(), rhs.clone());
                            }
                        }
                        lhs = Operand::other(String::new());
                    } else if !assigned {
                        // untraced binary: result class joins int-ness
                        let cls = if lhs.class == Class::Int && rhs.class == Class::Int {
                            Class::Int
                        } else {
                            Class::Other
                        };
                        lhs = Operand { val: lhs.val, class: cls };
                    } else {
                        lhs = Operand::other(String::new());
                    }
                }
            }
        }
        (lhs, p)
    }

    /// Primary expressions + postfix chains.
    #[allow(clippy::too_many_lines)]
    fn primary(&mut self, fr: &mut Frame<'_>, p: usize) -> (Operand, usize) {
        let code = fr.code;
        let Some(t) = code.get(p) else {
            return (Operand::other(String::new()), p);
        };
        let line = code.line(p);
        let (mut cur, mut p) = match t {
            "-" => {
                let (v, n) = self.primary(fr, p + 1);
                if v.class == Class::Float {
                    let res = self.emit(OpKind::Neg, vec![v], line, Class::Float);
                    (res, n)
                } else {
                    (v, n)
                }
            }
            "!" | "*" | "&" => {
                let mut q = p + 1;
                if t == "&" && code.get(q) == Some("mut") {
                    q += 1;
                }
                return self.primary_postfix(fr, q);
            }
            "move" | "|" | "||" => {
                // closure literal: bind params opaque, walk body
                let mut q = p;
                if code.get(q) == Some("move") {
                    q += 1;
                }
                if code.get(q) == Some("||") {
                    q += 1;
                } else if code.get(q) == Some("|") {
                    q += 1;
                    while q < code.len() && code.text(q) != "|" {
                        if code.kind(q) == TokenKind::Ident
                            && !matches!(code.text(q), "mut" | "ref")
                        {
                            let n = code.text(q).to_string();
                            fr.dropped.insert(n.clone());
                            fr.locals.insert(n, Operand::other(String::new()));
                        }
                        q += 1;
                    }
                    q += 1;
                }
                if code.get(q) == Some("->") {
                    while q < code.len() && code.text(q) != "{" {
                        q += 1;
                    }
                }
                if code.get(q) == Some("{") {
                    let close = code.match_bracket(q, "{", "}").unwrap_or(code.len() - 1);
                    self.walk_block(fr, q, close);
                    (Operand::other(String::new()), close + 1)
                } else {
                    let (_, n) = self.expr(fr, q, 0);
                    (Operand::other(String::new()), n)
                }
            }
            "(" => {
                let close = code.match_bracket(p, "(", ")").unwrap_or(p);
                let (v, mut q) = self.expr(fr, p + 1, 0);
                let mut tuple = false;
                while code.get(q) == Some(",") && q < close {
                    tuple = true;
                    let (_, n) = self.expr(fr, q + 1, 0);
                    q = n;
                }
                let v = if tuple { Operand::other(String::new()) } else { v };
                (v, close + 1)
            }
            "[" => {
                // array literal `[expr; N]` / `[a, b, …]`
                let close = code.match_bracket(p, "[", "]").unwrap_or(p);
                let (first, mut q) = self.expr(fr, p + 1, 0);
                while q < close {
                    if matches!(code.get(q), Some(";" | ",")) {
                        let (_, n) = self.expr(fr, q + 1, 0);
                        q = n;
                    } else {
                        q += 1;
                    }
                }
                let cls = if first.class == Class::Float { Class::FloatSlice } else { Class::Other };
                self.opaque += 1;
                (Operand::leaf(format!("<arr#{}>", self.opaque), cls), close + 1)
            }
            "if" => {
                let n = self.stmt_if(fr, p, code.len());
                (self.fresh(), n)
            }
            "match" => {
                let n = self.expr_match(fr, p);
                (self.fresh(), n)
            }
            ".." | "..=" => {
                // prefix range `..x`
                let (_, n) = self.expr(fr, p + 1, 6);
                (Operand::other(String::new()), n)
            }
            _ if code.kind(p) == TokenKind::Float => {
                let text = t.trim_end_matches("f64").trim_end_matches("f32");
                let bits = text.parse::<f64>().map_or(0, f64::to_bits);
                (Operand { val: Val::Lit(bits), class: Class::Float }, p + 1)
            }
            _ if code.kind(p) == TokenKind::Int => {
                let text = t.to_string();
                (Operand::leaf(format!("#{text}"), Class::Int), p + 1)
            }
            _ if matches!(code.kind(p), TokenKind::Str | TokenKind::Char) => {
                (Operand::other(String::new()), p + 1)
            }
            _ if code.kind(p) == TokenKind::Ident || code.kind(p) == TokenKind::Lifetime => {
                return self.primary_path(fr, p);
            }
            _ => (Operand::other(String::new()), p + 1),
        };
        // postfix on non-path primaries (e.g. `(a + b).sqrt()`)
        loop {
            let (v, np, stepped) = self.postfix_step(fr, cur, p, None);
            cur = v;
            p = np;
            if !stepped {
                return (cur, p);
            }
        }
    }

    fn primary_postfix(&mut self, fr: &mut Frame<'_>, p: usize) -> (Operand, usize) {
        self.primary(fr, p)
    }

    /// Match-expression: scrutinee, then arms (`pat => expr,`).
    fn expr_match(&mut self, fr: &mut Frame<'_>, p: usize) -> usize {
        let code = fr.code;
        let (_, mut q) = self.expr_until_brace(fr, p + 1, code.len());
        if code.get(q) != Some("{") {
            return q;
        }
        let close = code.match_bracket(q, "{", "}").unwrap_or(q);
        q += 1;
        while q < close {
            // skip the pattern (and any `if` guard) to depth-0 `=>`
            let mut depth = 0i32;
            while q < close {
                match code.text(q) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=>" if depth == 0 => break,
                    _ => {}
                }
                q += 1;
            }
            if q >= close {
                break;
            }
            q += 1;
            if code.get(q) == Some("{") {
                let bc = code.match_bracket(q, "{", "}").unwrap_or(close);
                self.walk_block(fr, q, bc);
                q = bc + 1;
            } else {
                let (_, n) = self.expr(fr, q, 0);
                q = n;
            }
            if code.get(q) == Some(",") {
                q += 1;
            }
        }
        close + 1
    }

    /// Ident-rooted primary: paths, calls, macros, struct literals,
    /// place chains.
    #[allow(clippy::too_many_lines)]
    fn primary_path(&mut self, fr: &mut Frame<'_>, p: usize) -> (Operand, usize) {
        let code = fr.code;
        // collect the path: Ident (:: Ident | :: <…>)*
        let mut segs = vec![code.text(p).to_string()];
        let mut q = p + 1;
        while code.get(q) == Some("::") {
            if code.get(q + 1) == Some("<") {
                q = skip_angles(code, q + 1).unwrap_or(q + 2);
            } else if q + 1 < code.len() && code.kind(q + 1) == TokenKind::Ident {
                segs.push(code.text(q + 1).to_string());
                q += 2;
            } else {
                q += 1;
                break;
            }
        }
        let base = segs[0].clone();
        let last = segs.last().cloned().unwrap_or_default();
        // macro invocation: skip balanced, no ops (debug_asserts are
        // deliberately invisible to the skeleton)
        if code.get(q) == Some("!") {
            let open = q + 1;
            let (ob, cb) = match code.get(open) {
                Some("(") => ("(", ")"),
                Some("[") => ("[", "]"),
                Some("{") => ("{", "}"),
                _ => return (Operand::other(String::new()), open),
            };
            let close = code.match_bracket(open, ob, cb).unwrap_or(open);
            return (Operand::other(String::new()), close + 1);
        }
        // call
        if code.get(q) == Some("(") {
            return self.call(fr, &last, None, q, code.line(p));
        }
        // struct literal: `Upper {` / `Self {`
        let upper = last.chars().next().is_some_and(char::is_uppercase);
        if code.get(q) == Some("{") && upper {
            let close = code.match_bracket(q, "{", "}").unwrap_or(q);
            let mut r = q + 1;
            while r < close {
                if code.kind(r) == TokenKind::Ident && code.get(r + 1) == Some(":") {
                    let (_, n) = self.expr(fr, r + 2, 4);
                    r = n;
                } else if code.get(r) == Some("..") {
                    let (_, n) = self.expr(fr, r + 1, 0);
                    r = n;
                } else {
                    r += 1;
                }
                if code.get(r) == Some(",") {
                    r += 1;
                }
            }
            return (Operand::other(String::new()), close + 1);
        }
        // known float constants
        if segs.len() == 2 && segs[0] == "f64" {
            let bits = match last.as_str() {
                "INFINITY" => Some(f64::INFINITY),
                "NEG_INFINITY" => Some(f64::NEG_INFINITY),
                "MAX" => Some(f64::MAX),
                "MIN" => Some(f64::MIN),
                "MIN_POSITIVE" => Some(f64::MIN_POSITIVE),
                "EPSILON" => Some(f64::EPSILON),
                "NAN" => Some(f64::NAN),
                _ => None,
            };
            if let Some(v) = bits {
                let cur = Operand { val: Val::Lit(v.to_bits()), class: Class::Float };
                return self.postfix_chain(fr, cur, q, None);
            }
        }
        // place expression rooted at `base`
        let (mut cur, desc) = if segs.len() == 1 {
            if let Some(op) = fr.locals.get(&base) {
                (op.clone(), Some(base))
            } else if base == "self" {
                let d = fr.recv.clone().unwrap_or_else(|| "self".to_string());
                (Operand::other(d.clone()), Some(d))
            } else {
                (Operand::other(base.clone()), Some(base))
            }
        } else {
            let d = segs.join("::");
            (Operand::other(d.clone()), Some(d))
        };
        if let Some(d) = &desc {
            if cur.class == Class::Other && matches!(cur.val, Val::Leaf(_)) {
                cur.val = Val::Leaf(d.clone());
            }
        }
        self.postfix_chain(fr, cur, q, desc)
    }

    /// Apply postfix steps (`.field`, `.method(…)`, `[idx]`, `?`)
    /// until none match.
    fn postfix_chain(
        &mut self,
        fr: &mut Frame<'_>,
        mut cur: Operand,
        mut p: usize,
        mut desc: Option<String>,
    ) -> (Operand, usize) {
        loop {
            let (v, np, stepped) = self.postfix_step(fr, cur, p, desc.clone());
            if !stepped {
                return (v, np);
            }
            // descriptor continuity: leaf results keep their chain
            desc = match &v.val {
                Val::Leaf(d) if !d.starts_with("<opq") => Some(d.clone()),
                _ => None,
            };
            cur = v;
            p = np;
        }
    }

    /// One postfix step. Returns `(operand, next, stepped)`: when no
    /// postfix construct starts at `p`, `cur` is handed back unchanged
    /// with `stepped == false`.
    #[allow(clippy::too_many_lines)]
    fn postfix_step(
        &mut self,
        fr: &mut Frame<'_>,
        cur: Operand,
        p: usize,
        desc: Option<String>,
    ) -> (Operand, usize, bool) {
        let code = fr.code;
        match code.get(p) {
            Some("?") => (cur, p + 1, true),
            Some(".") => {
                let Some(name) = code.get(p + 1) else { return (cur, p, false) };
                if code.kind(p + 1) == TokenKind::Int {
                    // tuple field `.0`
                    let d = desc.map(|d| format!("{d}.{name}"));
                    let v = d.map_or_else(
                        || Operand::other(String::new()),
                        |d| Operand::leaf(d, Class::Other),
                    );
                    return (v, p + 2, true);
                }
                if name == "await" {
                    return (cur, p + 2, true);
                }
                let name = name.to_string();
                let mut q = p + 2;
                if code.get(q) == Some("::") && code.get(q + 1) == Some("<") {
                    q = skip_angles(code, q + 1).unwrap_or(q + 2);
                }
                if code.get(q) == Some("(") {
                    let line = code.line(p + 1);
                    let recv = Recv { op: cur, desc };
                    let (v, n) = self.call(fr, &name, Some(recv), q, line);
                    return (v, n, true);
                }
                // field access
                let d = desc.map(|d| format!("{d}.{name}"));
                let cls = self.facts.fields.get(&name).copied().unwrap_or(Class::Other);
                let v = match d {
                    Some(d) => Operand::leaf(d, cls),
                    None => Operand { val: self.fresh().val, class: cls },
                };
                (v, p + 2, true)
            }
            Some("[") => {
                let close = code.match_bracket(p, "[", "]").unwrap_or(p);
                // range index ⇒ slicing (class preserved)
                let mut depth = 0i32;
                let mut is_range = false;
                for r in p + 1..close {
                    match code.text(r) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        ".." | "..=" if depth == 0 => is_range = true,
                        _ => {}
                    }
                }
                if p + 1 < close {
                    let (_, _) = self.expr(fr, p + 1, 0);
                }
                let (cls, suffix) = if is_range {
                    (cur.class, "[..]")
                } else {
                    let c = match cur.class {
                        Class::FloatSlice => Class::Float,
                        _ => Class::Other,
                    };
                    (c, "[#]")
                };
                let v = match desc {
                    Some(d) => Operand::leaf(format!("{d}{suffix}"), cls),
                    None => Operand { val: self.fresh().val, class: cls },
                };
                (v, close + 1, true)
            }
            _ => (cur, p, false),
        }
    }

    /// A call — plain (`name(args)`) or method (`recv.name(args)`).
    /// `open` is the `(`.
    #[allow(clippy::too_many_lines)]
    fn call(
        &mut self,
        fr: &mut Frame<'_>,
        name: &str,
        recv: Option<Recv>,
        open: usize,
        line: u32,
    ) -> (Operand, usize) {
        let code = fr.code;
        let close = code.match_bracket(open, "(", ")").unwrap_or(open);
        // parse the arguments (ops inside args are always traced)
        let mut args = Vec::new();
        let mut q = open + 1;
        while q < close {
            let (v, n) = self.expr(fr, q, 4);
            args.push(v);
            q = if code.get(n) == Some(",") { n + 1 } else { n.max(q + 1) };
            if n >= close {
                break;
            }
        }
        let next = close + 1;
        // hoisted call: stands for `div(float-arg, <hoisted>)`
        if fr.hoists.contains(name) {
            if let Some(id) = self.stack.last().copied() {
                self.hoists_used.insert((id, name.to_string()));
            }
            let num = args
                .iter()
                .find(|a| a.class == Class::Float)
                .cloned()
                .unwrap_or_else(|| self.fresh());
            let res = self.emit(
                OpKind::Div,
                vec![num, Operand { val: Val::Hoisted, class: Class::Float }],
                line,
                Class::Float,
            );
            return (res, next);
        }
        // dropped: untraced(…) declarations, plus calls through a local
        // binding (a closure or fn-typed parameter like the kernels'
        // `select` chooser — its ops belong to the caller's phase, not
        // the Lindley skeleton)
        if fr.dropped.contains(name) || (recv.is_none() && fr.locals.contains_key(name)) {
            return (Operand::other(String::new()), next);
        }
        // same-group or declared inline
        let inline_id = self
            .group_fns
            .get(name)
            .copied()
            .or_else(|| fr.inlines.contains(name).then(|| self.find_fn(fr.file, name)).flatten());
        if let Some(id) = inline_id {
            let recv_desc = recv.and_then(|r| r.desc);
            self.extract_fn(id, Some(args), recv_desc);
            let cls = self.facts.returns.get(name).copied().unwrap_or(Class::Other);
            let mut v =
                if cls == Class::Float { self.fresh() } else { Operand::other(String::new()) };
            v.class = cls;
            return (v, next);
        }
        // intrinsic float methods
        if let Some(r) = &recv {
            let rf = r.op.class == Class::Float;
            let a0f = args.first().is_some_and(|a| a.class == Class::Float);
            match name {
                "max" | "min" if rf || a0f => {
                    let kind = if name == "max" { OpKind::Max } else { OpKind::Min };
                    let arg = args.into_iter().next().unwrap_or_else(|| self.fresh());
                    let res = self.emit(kind, vec![r.op.clone(), arg], line, Class::Float);
                    return (res, next);
                }
                "mul_add" if rf => {
                    let mut it = args.into_iter();
                    let a = it.next().unwrap_or_else(|| self.fresh());
                    let b = it.next().unwrap_or_else(|| self.fresh());
                    let res = self.emit(OpKind::MulAdd, vec![r.op.clone(), a, b], line, Class::Float);
                    return (res, next);
                }
                "abs" if rf => {
                    let res = self.emit(OpKind::Abs, vec![r.op.clone()], line, Class::Float);
                    return (res, next);
                }
                "sqrt" if rf => {
                    let res = self.emit(OpKind::Sqrt, vec![r.op.clone()], line, Class::Float);
                    return (res, next);
                }
                "recip" if rf => {
                    let v = Operand {
                        val: Val::Recip(Box::new(r.op.val.clone())),
                        class: Class::Float,
                    };
                    return (v, next);
                }
                "to_bits" if rf => {
                    return (Operand::other(String::new()), next);
                }
                "len" | "count" => {
                    let v = Operand {
                        val: self.fresh().val,
                        class: Class::Int,
                    };
                    return (v, next);
                }
                _ => {}
            }
        }
        // opaque call: traced iff any scalar-float flows in
        let mut floats: Vec<Operand> = Vec::new();
        if let Some(r) = &recv {
            if r.op.class == Class::Float {
                floats.push(r.op.clone());
            }
        }
        floats.extend(args.iter().filter(|a| a.class == Class::Float).cloned());
        let ret = self.facts.returns.get(name).copied().unwrap_or(Class::Other);
        if floats.is_empty() {
            // keep descriptor continuity for accessor chains:
            // `trace.arrivals()[i]`
            let v = match recv.and_then(|r| r.desc) {
                Some(d) => Operand::leaf(format!("{d}.{name}()"), ret),
                None => Operand { val: self.fresh().val, class: ret },
            };
            return (v, next);
        }
        let cls = if ret == Class::Other { Class::Float } else { ret };
        let res = self.emit(OpKind::Call(name.to_string()), floats, line, cls);
        (res, next)
    }

    /// Resolve an `inline(name)` target: same file first, else a unique
    /// workspace-wide match by fn name.
    fn find_fn(&self, file: usize, name: &str) -> Option<FnId> {
        let mut same_file = None;
        let mut global = Vec::new();
        for id in self.g.ids() {
            let it = self.g.item(id);
            if it.name == name && it.has_body && !it.in_test {
                if self.g.fns_file(id) == file {
                    same_file = Some(id);
                }
                global.push(id);
            }
        }
        same_file.or(if global.len() == 1 { global.first().copied() } else { None })
    }
}

/// A method-call receiver: its operand + descriptor chain.
struct Recv {
    op: Operand,
    desc: Option<String>,
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// A divergence between a member and the group's reference skeleton.
struct Divergence {
    /// Line in the member under test.
    line: u32,
    /// Line in the reference member.
    ref_line: u32,
    detail: String,
}

/// Compare two operand provenances under the group's lockstep
/// α-bijection: leaf descriptors bind pairwise on first co-occurrence,
/// then must agree forever after. `Hoisted` is a wildcard.
fn vals_match(
    a: &Val,
    b: &Val,
    ab: &mut BTreeMap<String, String>,
    ba: &mut BTreeMap<String, String>,
) -> bool {
    match (a, b) {
        (Val::Hoisted, _) | (_, Val::Hoisted) => true,
        (Val::Res(i), Val::Res(j)) => i == j,
        (Val::Lit(x), Val::Lit(y)) => x == y,
        (Val::Recip(x), Val::Recip(y)) => vals_match(x, y, ab, ba),
        (Val::Leaf(x), Val::Leaf(y)) => {
            match (ab.get(x), ba.get(y)) {
                (Some(mx), Some(my)) => mx == y && my == x,
                (None, None) => {
                    ab.insert(x.clone(), y.clone());
                    ba.insert(y.clone(), x.clone());
                    true
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// Ordered comparison of a member (`b`) against the reference (`a`).
fn compare_exact(a: &Skeleton, b: &Skeleton) -> Option<Divergence> {
    let mut ab = BTreeMap::new();
    let mut ba = BTreeMap::new();
    let n = a.ops.len().min(b.ops.len());
    for k in 0..n {
        let (oa, ob) = (&a.ops[k], &b.ops[k]);
        if oa.kind != ob.kind {
            return Some(Divergence {
                line: ob.line,
                ref_line: oa.line,
                detail: format!(
                    "op #{k} is `{}` here but `{}` in the reference",
                    ob.kind.name(),
                    oa.kind.name()
                ),
            });
        }
        if oa.args.len() != ob.args.len() {
            return Some(Divergence {
                line: ob.line,
                ref_line: oa.line,
                detail: format!(
                    "op #{k} `{}` takes {} operand(s) here but {} in the reference",
                    ob.kind.name(),
                    ob.args.len(),
                    oa.args.len()
                ),
            });
        }
        for (i, (va, vb)) in oa.args.iter().zip(&ob.args).enumerate() {
            if !vals_match(va, vb, &mut ab, &mut ba) {
                return Some(Divergence {
                    line: ob.line,
                    ref_line: oa.line,
                    detail: format!(
                        "op #{k} `{}`: operand {} has different provenance \
                         (a value renaming that was consistent so far no longer is)",
                        ob.kind.name(),
                        i
                    ),
                });
            }
        }
    }
    if a.ops.len() != b.ops.len() {
        let (line, ref_line, detail) = if b.ops.len() > n {
            (
                b.ops[n].line,
                a.ops.last().map_or(a.line, |o| o.line),
                format!(
                    "extra op #{n} `{}` beyond the reference's {} op(s)",
                    b.ops[n].kind.name(),
                    a.ops.len()
                ),
            )
        } else {
            (
                b.ops.last().map_or(b.line, |o| o.line),
                a.ops[n].line,
                format!(
                    "missing op #{n} `{}` — the reference has {} op(s), this member {}",
                    a.ops[n].kind.name(),
                    a.ops.len(),
                    b.ops.len()
                ),
            )
        };
        return Some(Divergence { line, ref_line, detail });
    }
    None
}

/// Ulp-group comparison: the arithmetic op *set* must match, order
/// exempt; `div` canonicalizes to `mul` (reciprocal rewrites are the
/// point of the block collector), comparisons / min / max / calls are
/// exempt entirely.
fn compare_ulp(a: &Skeleton, b: &Skeleton) -> Option<Divergence> {
    let setify = |s: &Skeleton| -> BTreeMap<String, u32> {
        let mut set = BTreeMap::new();
        for op in &s.ops {
            if !op.kind.is_arith() {
                continue;
            }
            let k = match op.kind {
                OpKind::Div => OpKind::Mul,
                ref k => k.clone(),
            };
            set.entry(k.name()).or_insert(op.line);
        }
        set
    };
    let (sa, sb) = (setify(a), setify(b));
    for (k, line) in &sb {
        if !sa.contains_key(k) {
            return Some(Divergence {
                line: *line,
                ref_line: a.line,
                detail: format!("ulp group: op `{k}` has no counterpart in the reference"),
            });
        }
    }
    for (k, line) in &sa {
        if !sb.contains_key(k) {
            return Some(Divergence {
                line: b.line,
                ref_line: *line,
                detail: format!("ulp group: reference op `{k}` is missing here"),
            });
        }
    }
    None
}

/// Specialization group: every monomorphization (each combination of
/// the guarding const-bool parameters) must execute a *subsequence* of
/// the all-demands-on op sequence — demand tiers may skip work, never
/// compute different work.
fn check_specialization(s: &Skeleton) -> Option<Divergence> {
    let consts: Vec<&String> = s.guard_consts.iter().collect();
    let k = consts.len().min(6);
    let active = |op: &Op, bits: usize| -> bool {
        op.guards.iter().all(|(name, pol)| {
            consts
                .iter()
                .position(|c| *c == name)
                .is_none_or(|i| ((bits >> i) & 1 == 1) == *pol)
        })
    };
    let full = (1usize << k) - 1;
    let reference: Vec<&Op> = s.ops.iter().filter(|o| active(o, full)).collect();
    for bits in 0..(1usize << k) {
        let combo: Vec<&Op> = s.ops.iter().filter(|o| active(o, bits)).collect();
        // subsequence check on (kind)
        let mut ri = 0usize;
        for op in &combo {
            while ri < reference.len() && reference[ri].kind != op.kind {
                ri += 1;
            }
            if ri == reference.len() {
                let combo_desc: Vec<String> = consts
                    .iter()
                    .enumerate()
                    .map(|(i, c)| format!("{c}={}", (bits >> i) & 1 == 1))
                    .collect();
                return Some(Divergence {
                    line: op.line,
                    ref_line: s.line,
                    detail: format!(
                        "monomorphization <{}> computes `{}` that the all-demands-on \
                         path never computes",
                        combo_desc.join(", "),
                        op.kind.name()
                    ),
                });
            }
            ri += 1;
        }
    }
    None
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// One enrolled member.
struct Member {
    id: FnId,
    ulp: bool,
    dline: u32,
}

/// Run the mirror tier over a prebuilt item graph. The driver builds
/// one graph and shares it across the workspace tiers' threads.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn check_graph(g: &Graph<'_>, cfg: &Config) -> Vec<Finding> {
    let mut codes: BTreeMap<usize, Code<'_>> = BTreeMap::new();
    for (i, pf) in g.files.iter().enumerate() {
        codes.insert(i, Code::new(&pf.file.src));
    }
    let facts = TypeFacts::build(&codes);
    // collect groups in declaration order (file × fn order)
    let mut groups: BTreeMap<String, Vec<Member>> = BTreeMap::new();
    for id in g.ids() {
        for (group, ulp, dline) in &g.item(id).mirrors {
            groups
                .entry(group.clone())
                .or_default()
                .push(Member { id, ulp: *ulp, dline: *dline });
        }
    }
    let mut out = Vec::new();
    let mut hoists_used: BTreeSet<(FnId, String)> = BTreeSet::new();
    let push = |out: &mut Vec<Finding>, g: &Graph<'_>, id: FnId, rule: &'static str, line: u32, message: String| {
        let file_idx = g.fns_file(id);
        let crate_id = &g.files[file_idx].file.crate_id;
        if !cfg.rule_applies(rule, crate_id) {
            return;
        }
        out.push(Finding {
            file: g.files[file_idx].file.rel.clone(),
            line,
            rule,
            message,
            waived: waived(g, file_idx, rule, line),
            severity: Severity::Deny,
        });
    };
    for (gname, members) in &groups {
        // mode consistency
        let ulp = members[0].ulp;
        if let Some(m) = members.iter().find(|m| m.ulp != ulp) {
            push(
                &mut out,
                g,
                m.id,
                "mirror-divergence",
                m.dline,
                format!(
                    "group `{gname}` mixes `mirrors({gname})` and `mirrors({gname}, ulp)` \
                     declarations — a group is either exact or ulp-bounded"
                ),
            );
            continue;
        }
        let group_fns: BTreeMap<String, FnId> = members
            .iter()
            .map(|m| (g.item(m.id).name.clone(), m.id))
            .collect();
        // extract every member
        let mut skels: Vec<(FnId, Skeleton)> = Vec::new();
        for m in members {
            let mut ex = Extractor {
                g,
                facts: &facts,
                codes: &codes,
                group_fns: group_fns.clone(),
                ops: Vec::new(),
                guards: Vec::new(),
                opaque: 0,
                f32_line: None,
                guard_consts: BTreeSet::new(),
                hoists_used: BTreeSet::new(),
                stack: Vec::new(),
            };
            ex.extract_fn(m.id, None, None);
            hoists_used.extend(ex.hoists_used.iter().cloned());
            let skel = Skeleton {
                ops: ex.ops,
                f32_line: ex.f32_line,
                guard_consts: ex.guard_consts,
                line: g.item(m.id).line,
            };
            if let Some(line) = skel.f32_line {
                push(
                    &mut out,
                    g,
                    m.id,
                    "mirror-mixed-precision",
                    line,
                    format!(
                        "`{}` (mirror group `{gname}`) touches `f32` — annotated kernels \
                         must be pure `f64`",
                        g.label(m.id)
                    ),
                );
            }
            skels.push((m.id, skel));
        }
        // single member: specialization (const-guarded) or orphan
        if members.len() == 1 {
            let (id, skel) = &skels[0];
            if skel.guard_consts.is_empty() {
                push(
                    &mut out,
                    g,
                    *id,
                    "mirror-orphan",
                    members[0].dline,
                    format!(
                        "group `{gname}` has a single member `{}` with no const-bool \
                         monomorphization guards — nothing to compare; add the paired \
                         kernel or drop the annotation",
                        g.label(*id)
                    ),
                );
            } else if let Some(d) = check_specialization(skel) {
                push(
                    &mut out,
                    g,
                    *id,
                    "mirror-divergence",
                    d.line,
                    format!("group `{gname}`: {}", d.detail),
                );
            }
            continue;
        }
        // multi-member: reference = first declared
        let (ref_id, ref_skel) = (skels[0].0, &skels[0].1);
        let ref_file = &g.file_of(ref_id).file.rel;
        for (id, skel) in &skels[1..] {
            let div = if ulp { compare_ulp(ref_skel, skel) } else { compare_exact(ref_skel, skel) };
            if let Some(d) = div {
                push(
                    &mut out,
                    g,
                    *id,
                    "mirror-divergence",
                    d.line,
                    format!(
                        "`{}` diverges from mirror group `{gname}` reference `{}` \
                         ({ref_file}:{}): {}",
                        g.label(*id),
                        g.label(ref_id),
                        d.ref_line,
                        d.detail
                    ),
                );
            }
        }
    }
    // stale hoists: declared on an enrolled fn but never consumed by
    // any extraction that walked it
    for id in g.ids() {
        let item = g.item(id);
        if item.mirrors.is_empty() {
            continue;
        }
        for (name, dline) in &item.mirror_hoists {
            if !hoists_used.contains(&(id, name.clone())) {
                let file_idx = g.fns_file(id);
                let crate_id = &g.files[file_idx].file.crate_id;
                if !cfg.rule_applies("mirror-stale-hoist", crate_id) {
                    continue;
                }
                out.push(Finding {
                    file: g.files[file_idx].file.rel.clone(),
                    line: *dline,
                    rule: "mirror-stale-hoist",
                    message: format!(
                        "hoist `{name}` on `{}` matched no parameter or call — the \
                         declaration is stale",
                        g.label(id)
                    ),
                    waived: waived(g, file_idx, "mirror-stale-hoist", *dline),
                    severity: Severity::Deny,
                });
            }
        }
    }
    out
}
