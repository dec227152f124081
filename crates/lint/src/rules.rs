//! The three rule families: determinism, unit-safety, panic hygiene.
//!
//! All rules are token-pattern checks over [`crate::lexer`] output — no
//! type information. Where a faithful "only flag HashMap *iteration*"
//! check would need type inference, the rule instead bans the hash-ordered
//! container type outright in the configured simulation crates; that is
//! both mechanically checkable and strictly stronger (see DESIGN.md,
//! "Static analysis & determinism guarantees").

use crate::diagnostics::{Diagnostic, Rule};
use crate::lexer::{Token, TokenKind};

/// Which rule families apply to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// Determinism rules (time sources, ambient RNG, hash-ordered maps).
    pub determinism: bool,
    /// Unit-safety rules (raw time arithmetic, float equality).
    pub units: bool,
    /// Panic-hygiene rules (`unwrap`/`expect`/`panic!`-family).
    pub panics: bool,
    /// Print-hygiene rule (`println!`-family in crate library code).
    pub prints: bool,
    /// Hot-path allocation rule (`.clone()` of frame values in the
    /// simulation hot-path crates).
    pub hot_path: bool,
    /// Fault-path hygiene rule (`unwrap`/`expect` in the fault crate and
    /// at the injector call sites): a fault injector that panics turns a
    /// simulated failure into a real one.
    pub fault_path: bool,
    /// Ordering-hygiene rule (`Ordering::Relaxed` outside the designated
    /// counter modules of the ordering-scoped crates).
    pub ordering: bool,
    /// Bounded-queue rule (unbounded channel constructors and
    /// capacity-less `VecDeque` queues in the streaming crates): every
    /// producer→consumer queue must carry an explicit capacity so
    /// overload surfaces as backpressure.
    pub bounded_channel: bool,
}

/// Index spans (token ranges) belonging to `#[cfg(test)]` items; rules do
/// not apply inside them.
#[must_use]
pub fn cfg_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let close = match matching(tokens, i + 1, "[", "]") {
                Some(c) => c,
                None => break,
            };
            if attr_is_cfg_test(&tokens[i + 2..close]) {
                if let Some(end) = item_end(tokens, close + 1) {
                    spans.push((i, end));
                    i = end + 1;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Whether the attribute tokens are exactly `cfg(test)` — `cfg(not(test))`
/// and friends keep their code linted.
fn attr_is_cfg_test(attr: &[Token]) -> bool {
    let idents: Vec<&str> = attr.iter().filter_map(Token::ident).collect();
    idents == ["cfg", "test"]
}

/// Finds the token index closing the delimiter opened at `open_idx`.
fn matching(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Finds the end of the item starting at `start` (first top-level `;`, or
/// the brace block's closing `}`), skipping further attributes.
fn item_end(tokens: &[Token], start: usize) -> Option<usize> {
    let mut i = start;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            i = matching(tokens, i + 1, "[", "]")? + 1;
        } else if t.is_punct(";") {
            return Some(i);
        } else if t.is_punct("{") {
            return matching(tokens, i, "{", "}");
        } else {
            i += 1;
        }
    }
    None
}

/// Runs the enabled rule families over one file's tokens, returning
/// every raw finding. Allow filtering happens centrally (in
/// [`crate::allow::Allows::apply`]) so directives can be tracked as
/// used or stale.
#[must_use]
pub fn check(path: &str, tokens: &[Token], rules: RuleSet) -> Vec<Diagnostic> {
    let skip = cfg_test_spans(tokens);
    let skipped = |idx: usize| skip.iter().any(|&(a, b)| idx >= a && idx <= b);
    let aliases = unit_typed_aliases(tokens);
    let mut diags = Vec::new();

    let mut push = |token: &Token, rule: Rule, message: String| {
        diags.push(Diagnostic {
            path: path.to_owned(),
            line: token.line,
            col: token.col,
            rule,
            message,
        });
    };

    for (i, t) in tokens.iter().enumerate() {
        if skipped(i) {
            continue;
        }
        if rules.determinism {
            determinism_at(tokens, i, t, &mut push);
        }
        if rules.units {
            units_at(tokens, i, t, &aliases, &mut push);
        }
        if rules.panics {
            panics_at(tokens, i, t, &mut push);
        }
        if rules.prints {
            prints_at(tokens, i, t, &mut push);
        }
        if rules.hot_path {
            hot_path_at(tokens, i, t, &mut push);
        }
        if rules.fault_path {
            fault_path_at(tokens, i, t, &mut push);
        }
        if rules.ordering {
            ordering_at(tokens, i, t, &mut push);
        }
        if rules.bounded_channel {
            bounded_channel_at(tokens, i, t, &mut push);
        }
    }
    diags
}

fn determinism_at(
    tokens: &[Token],
    i: usize,
    t: &Token,
    push: &mut impl FnMut(&Token, Rule, String),
) {
    let Some(ident) = t.ident() else { return };
    match ident {
        "Instant" | "SystemTime" => push(
            t,
            Rule::DeterminismTime,
            format!(
                "`{ident}` reads the wall clock, which differs across runs; \
                 simulation code must derive time from the scheduler's virtual clock"
            ),
        ),
        "thread_rng" => push(
            t,
            Rule::DeterminismRng,
            "`thread_rng` draws from ambient per-thread state; derive randomness from \
             `MasterSeed::stream` so a seed reproduces the run"
                .to_owned(),
        ),
        "random" => {
            let qualified_rand =
                i >= 2 && tokens[i - 1].is_punct("::") && tokens[i - 2].ident() == Some("rand");
            if qualified_rand {
                push(
                    t,
                    Rule::DeterminismRng,
                    "`rand::random` draws from ambient per-thread state; derive randomness \
                     from `MasterSeed::stream` so a seed reproduces the run"
                        .to_owned(),
                );
            }
        }
        "HashMap" | "HashSet" => {
            let btree = if ident == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            push(
                t,
                Rule::DeterminismMap,
                format!(
                    "`{ident}` iterates in per-process hash order, which can reorder \
                     simulation events between runs; use `{btree}` or an explicitly \
                     sorted snapshot"
                ),
            );
        }
        _ => {}
    }
}

/// Arithmetic operators the unit-safety rule guards.
const ARITH_OPS: &[&str] = &["+", "-", "*", "/", "%", "+=", "-=", "*=", "/=", "%="];

/// Identifiers that denote microsecond quantities.
fn is_time_ident(ident: &str) -> bool {
    ident.ends_with("_us") || ident.ends_with("_usec") || matches!(ident, "slot" | "sifs" | "difs")
}

/// Whether the token can end an expression (making a following `-`/`*`
/// binary rather than unary).
fn ends_expression(t: &Token) -> bool {
    match &t.kind {
        TokenKind::Ident(_) | TokenKind::Int | TokenKind::Float | TokenKind::Text => true,
        TokenKind::Punct(p) => p == ")" || p == "]" || p == "?",
    }
}

/// Locals bound straight from a same-named field — `let sifs =
/// timing.sifs;` — carry the field's unit type (`SimDuration`), not a
/// raw integer, so arithmetic on them is already unit-checked. Collects
/// those alias names for the whole file.
fn unit_typed_aliases(tokens: &[Token]) -> std::collections::BTreeSet<String> {
    let mut aliases = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].ident() == Some("let") {
            // `let [mut] NAME = ... ;` — record NAME if the initializer
            // reads a field of the same name.
            let mut j = i + 1;
            if tokens.get(j).and_then(Token::ident) == Some("mut") {
                j += 1;
            }
            let Some(name) = tokens.get(j).and_then(Token::ident) else {
                i += 1;
                continue;
            };
            if tokens.get(j + 1).is_some_and(|t| t.is_punct("=")) {
                let mut k = j + 2;
                while k < tokens.len() && !tokens[k].is_punct(";") {
                    if tokens[k].is_punct(".")
                        && tokens.get(k + 1).and_then(Token::ident) == Some(name)
                    {
                        aliases.insert(name.to_owned());
                        break;
                    }
                    k += 1;
                }
            }
        }
        i += 1;
    }
    aliases
}

fn units_at(
    tokens: &[Token],
    i: usize,
    t: &Token,
    aliases: &std::collections::BTreeSet<String>,
    push: &mut impl FnMut(&Token, Rule, String),
) {
    let TokenKind::Punct(op) = &t.kind else {
        return;
    };

    if op == "==" || op == "!=" {
        let float_adjacent = (i > 0 && tokens[i - 1].kind == TokenKind::Float)
            || tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Float);
        if float_adjacent {
            push(
                t,
                Rule::FloatEq,
                format!(
                    "`{op}` on floating-point values is representation-sensitive; compare \
                     with an explicit tolerance, e.g. `(a - b).abs() < EPS`"
                ),
            );
        }
        return;
    }

    if !ARITH_OPS.contains(&op.as_str()) {
        return;
    }
    // Binary position only: `a - b`, not `-b` / `*ptr` / `&mut` noise.
    let binary = op.ends_with('=') || (i > 0 && ends_expression(&tokens[i - 1]));
    if !binary {
        return;
    }
    let prev = if i > 0 { Some(&tokens[i - 1]) } else { None };
    let next = tokens.get(i + 1);
    // Float-typed arithmetic is out of scope for the integer-time rule.
    if prev.is_some_and(|p| p.kind == TokenKind::Float)
        || next.is_some_and(|n| n.kind == TokenKind::Float)
    {
        return;
    }
    // A time-named operand is exempt when it is provably unit-typed:
    // a field access (`timing.sifs` — unit quantities live in typed
    // struct fields) or a local aliasing such a field.
    let exempt = |idx: usize| {
        let field_access = idx > 0 && tokens[idx - 1].is_punct(".");
        let aliased = tokens[idx]
            .ident()
            .is_some_and(|name| aliases.contains(name));
        field_access || aliased
    };
    let offender = [i.checked_sub(1), Some(i + 1)]
        .into_iter()
        .flatten()
        .filter(|&idx| idx < tokens.len() && !exempt(idx))
        .map(|idx| &tokens[idx])
        .find(|tok| tok.ident().is_some_and(is_time_ident));
    if let Some(offender) = offender {
        let name = offender.ident().unwrap_or_default();
        push(
            offender,
            Rule::UnitMixedArith,
            format!(
                "raw integer arithmetic on time quantity `{name}`; convert through \
                 `SimDuration`/`SimTime` (crates/sim/src/time.rs) or the unit types in \
                 crates/phy/src/units.rs so units stay checked"
            ),
        );
    }
}

/// Macros whose expansion is a panic.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn panics_at(tokens: &[Token], i: usize, t: &Token, push: &mut impl FnMut(&Token, Rule, String)) {
    let Some(ident) = t.ident() else { return };
    let after_dot = i > 0 && tokens[i - 1].is_punct(".");
    let called = tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
    match ident {
        "unwrap" if after_dot && called => push(
            t,
            Rule::PanicUnwrap,
            "`.unwrap()` in library code; return a `Result`, handle the `None`/`Err` arm, \
             or justify the invariant with `// lint:allow(panic-unwrap) — <invariant>`"
                .to_owned(),
        ),
        "expect" if after_dot && called => push(
            t,
            Rule::PanicExpect,
            "`.expect(..)` in library code; return a `Result` or justify the invariant \
             with `// lint:allow(panic-expect) — <invariant>`"
                .to_owned(),
        ),
        _ if PANIC_MACROS.contains(&ident)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
        {
            push(
                t,
                Rule::PanicMacro,
                format!(
                    "`{ident}!` in library code; return a typed error or justify with \
                     `// lint:allow(panic-macro) — <invariant>`"
                ),
            );
        }
        _ => {}
    }
}

/// Macros that write straight to the process's stdio streams.
const PRINT_MACROS: &[&str] = &["print", "println", "eprint", "eprintln"];

fn prints_at(tokens: &[Token], i: usize, t: &Token, push: &mut impl FnMut(&Token, Rule, String)) {
    let Some(ident) = t.ident() else { return };
    if PRINT_MACROS.contains(&ident) && tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) {
        push(
            t,
            Rule::PrintMacro,
            format!(
                "`{ident}!` in crate library code writes to raw stdio; emit a typed \
                 `airguard_obs::ObsEvent` so output stays structured, or justify with `// lint:allow(print-macro) — <reason>`"
            ),
        );
    }
}

/// Flags `.clone()` where the receiver identifier names a frame
/// (`frame.clone()`, `self.pending_frame.clone()`, `frames.clone()`).
/// A deep frame copy on the hot path defeats the shared-`Rc` design:
/// `FrameRef::share` bumps a refcount instead. Purely lexical — a
/// frame-typed binding with an unrelated name slips through, which is
/// the usual trade for a no-type-info linter.
fn hot_path_at(tokens: &[Token], i: usize, t: &Token, push: &mut impl FnMut(&Token, Rule, String)) {
    if t.ident() != Some("clone")
        || i < 2
        || !tokens[i - 1].is_punct(".")
        || !tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
    {
        return;
    }
    let Some(receiver) = tokens[i - 2].ident() else {
        return;
    };
    if receiver.to_ascii_lowercase().contains("frame") {
        push(
            t,
            Rule::HotPathClone,
            format!(
                "`{receiver}.clone()` deep-copies a frame on the simulation hot path; \
                 share the allocation with `FrameRef::share` (a refcount bump), pass \
                 `&Frame`, or justify with `// lint:allow(hot-path-clone) — <reason>`"
            ),
        );
    }
}

/// Flags `.unwrap()` / `.expect(..)` on the fault-injection paths. The
/// injectors exist to *model* failure: a panic inside one aborts the
/// very cell whose degradation it was supposed to measure, and — worse —
/// converts an injected fault into a harness failure that the sweep's
/// retry/watchdog machinery then misattributes. Stricter than the
/// general panic rules: it also covers files whose crates are otherwise
/// allowed to panic, and carries its own ID so a blanket
/// `lint:allow(panic-unwrap)` cannot silence it.
fn fault_path_at(
    tokens: &[Token],
    i: usize,
    t: &Token,
    push: &mut impl FnMut(&Token, Rule, String),
) {
    let Some(ident) = t.ident() else { return };
    if ident != "unwrap" && ident != "expect" {
        return;
    }
    let after_dot = i > 0 && tokens[i - 1].is_punct(".");
    let called = tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
    if after_dot && called {
        push(
            t,
            Rule::FaultPathUnwrap,
            format!(
                "`.{ident}(..)` on a fault-injection path; a panicking injector aborts \
                 the cell it was degrading and masquerades as a harness failure — \
                 return/propagate the error, or justify the invariant with \
                 `// lint:allow(fault-path-unwrap) — <invariant>`"
            ),
        );
    }
}

/// Flags `Ordering::Relaxed` outside the designated counter modules.
/// Relaxed atomics are fine for monotone counters (the obs registry's
/// counters, the obs sink's enable mask) but silently wrong the
/// moment two atomics must be observed consistently; keeping every
/// other use SeqCst/Acquire-Release makes the exceptions auditable.
fn ordering_at(tokens: &[Token], i: usize, t: &Token, push: &mut impl FnMut(&Token, Rule, String)) {
    if t.ident() != Some("Relaxed")
        || i < 2
        || !tokens[i - 1].is_punct("::")
        || tokens[i - 2].ident() != Some("Ordering")
    {
        return;
    }
    push(
        t,
        Rule::OrderingRelaxed,
        "`Ordering::Relaxed` outside a designated counter module; use \
         `SeqCst`/`Acquire`/`Release`, move the counter into a module listed under \
         `[ordering] relaxed-exempt`, or justify with \
         `// lint:allow(ordering-relaxed) — <why relaxed is sound here>`"
            .to_owned(),
    );
}

/// Flags queue constructions with no capacity bound in the streaming
/// crates: `unbounded()` / `unbounded_channel()` constructors,
/// `mpsc::channel()` (std's unbounded flavour — `sync_channel` is the
/// bounded one), and `VecDeque::new()` (a queue type whose capacity
/// bound lives in the surrounding code, if anywhere; `with_capacity`
/// states it). A queue that can grow without limit turns overload into
/// silent memory growth instead of observable backpressure.
fn bounded_channel_at(
    tokens: &[Token],
    i: usize,
    t: &Token,
    push: &mut impl FnMut(&Token, Rule, String),
) {
    let Some(ident) = t.ident() else { return };
    let called = tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
    if !called {
        return;
    }
    let qualifier = |idx: usize, name: &str| {
        idx >= 2 && tokens[idx - 1].is_punct("::") && tokens[idx - 2].ident() == Some(name)
    };
    match ident {
        "unbounded" | "unbounded_channel" => push(
            t,
            Rule::BoundedChannel,
            format!(
                "`{ident}()` builds a queue with no capacity bound; use a bounded \
                 channel with an explicit overflow policy, or justify with \
                 `// lint:allow(bounded-channel) — <why growth is bounded>`"
            ),
        ),
        "channel" if qualifier(i, "mpsc") => push(
            t,
            Rule::BoundedChannel,
            "`mpsc::channel()` is unbounded; use `mpsc::sync_channel(cap)` (or the \
             crate's bounded queue) so overload surfaces as backpressure, or justify \
             with `// lint:allow(bounded-channel) — <why growth is bounded>`"
                .to_owned(),
        ),
        "new" if qualifier(i, "VecDeque") => push(
            t,
            Rule::BoundedChannel,
            "`VecDeque::new()` builds a grow-forever queue; state the bound with \
             `VecDeque::with_capacity(cap)` and enforce it at the push site, or \
             justify with `// lint:allow(bounded-channel) — <why growth is bounded>`"
                .to_owned(),
        ),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::{cfg_test_spans, check, RuleSet};
    use crate::diagnostics::Rule;
    use crate::lexer::lex;

    // `fault_path` stays off here: it flags the same `unwrap`/`expect`
    // tokens as the panic family (with a different rule ID), which would
    // double up every panic-family assertion below. It gets its own set.
    const ALL: RuleSet = RuleSet {
        determinism: true,
        units: true,
        panics: true,
        prints: true,
        hot_path: true,
        fault_path: false,
        ordering: true,
        bounded_channel: true,
    };

    const FAULT_ONLY: RuleSet = RuleSet {
        determinism: false,
        units: false,
        panics: false,
        prints: false,
        hot_path: false,
        fault_path: true,
        ordering: false,
        bounded_channel: false,
    };

    fn rules_hit(src: &str) -> Vec<Rule> {
        let lexed = lex(src);
        check("f.rs", &lexed.tokens, ALL)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn b() { y.unwrap(); } }\n";
        assert_eq!(rules_hit(src), vec![Rule::PanicUnwrap]);
        let lexed = lex(src);
        assert_eq!(cfg_test_spans(&lexed.tokens).len(), 1);
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nmod real { fn b() { y.unwrap(); } }\n";
        assert_eq!(rules_hit(src), vec![Rule::PanicUnwrap]);
    }

    #[test]
    fn determinism_patterns_fire() {
        assert_eq!(
            rules_hit("use std::time::Instant;"),
            vec![Rule::DeterminismTime]
        );
        assert_eq!(
            rules_hit("let t = SystemTime::now();"),
            vec![Rule::DeterminismTime]
        );
        assert_eq!(
            rules_hit("let mut r = rand::thread_rng();"),
            vec![Rule::DeterminismRng]
        );
        assert_eq!(
            rules_hit("let x: u8 = rand::random();"),
            vec![Rule::DeterminismRng]
        );
        assert_eq!(
            rules_hit("let m: HashMap<u32, u32> = HashMap::new();").len(),
            2
        );
        // `random` not qualified by `rand::` is someone else's method.
        assert!(rules_hit("let v = rng.random::<u64>();").is_empty());
    }

    #[test]
    fn unit_arith_flags_time_idents_only_in_integer_context() {
        assert_eq!(rules_hit("let x = now_us + 5;"), vec![Rule::UnitMixedArith]);
        assert_eq!(rules_hit("total_us += delta;"), vec![Rule::UnitMixedArith]);
        assert_eq!(rules_hit("let n = len / slot;"), vec![Rule::UnitMixedArith]);
        // Float context is exempt (the rule is about integer tick math).
        assert!(rules_hit("let f = x_us * 1.0e-6;").is_empty());
        // Non-time identifiers don't fire.
        assert!(rules_hit("let x = bytes + 5;").is_empty());
        // Unary minus is not binary arithmetic.
        assert!(rules_hit("let x = -slot_count;").is_empty());
    }

    #[test]
    fn unit_typed_operands_are_exempt() {
        // Field accesses hold unit-typed quantities (`MacTiming::sifs`
        // is a `SimDuration`), so arithmetic on them is already checked.
        assert!(rules_hit("let t = timing.sifs * 3;").is_empty());
        assert!(rules_hit("let t = self.cfg.timing.slot * 2;").is_empty());
        // A local bound from a same-named field keeps the field's type.
        assert!(rules_hit("let sifs = timing.sifs;\nlet t = sifs + cts;").is_empty());
        assert!(rules_hit("let difs = self.cfg.timing.difs;\nlet t = now + difs;").is_empty());
        // A bare local with no unit-typed provenance still fires.
        assert_eq!(
            rules_hit("fn f(difs: u64, now: u64) -> u64 { now + difs }"),
            vec![Rule::UnitMixedArith]
        );
    }

    #[test]
    fn float_eq_fires_on_literal_comparison() {
        assert_eq!(rules_hit("if x == 1.0 { }"), vec![Rule::FloatEq]);
        assert_eq!(rules_hit("if 0.5 != y { }"), vec![Rule::FloatEq]);
        assert!(rules_hit("if x == 1 { }").is_empty());
    }

    #[test]
    fn panic_family_fires() {
        assert_eq!(
            rules_hit("let v = m.get(&k).unwrap();"),
            vec![Rule::PanicUnwrap]
        );
        assert_eq!(
            rules_hit("let v = m.get(&k).expect(\"present\");"),
            vec![Rule::PanicExpect]
        );
        assert_eq!(rules_hit("panic!(\"boom\");"), vec![Rule::PanicMacro]);
        assert_eq!(rules_hit("unreachable!()"), vec![Rule::PanicMacro]);
        // Similar-but-different names are fine.
        assert!(rules_hit("let v = o.unwrap_or(0);").is_empty());
        assert!(rules_hit("std::panic::catch_unwind(f);").is_empty());
    }

    #[test]
    fn print_family_fires() {
        assert_eq!(rules_hit("println!(\"x = {x}\");"), vec![Rule::PrintMacro]);
        assert_eq!(rules_hit("eprintln!(\"warn\");"), vec![Rule::PrintMacro]);
        assert_eq!(rules_hit("print!(\".\");"), vec![Rule::PrintMacro]);
        assert_eq!(rules_hit("eprint!(\"!\");"), vec![Rule::PrintMacro]);
        // `writeln!` to an explicit sink and similar names are fine.
        assert!(rules_hit("writeln!(f, \"row\")?;").is_empty());
        assert!(rules_hit("self.println();").is_empty());
    }

    #[test]
    fn hot_path_clone_fires_on_frame_receivers() {
        assert_eq!(
            rules_hit("let copy = frame.clone();"),
            vec![Rule::HotPathClone]
        );
        assert_eq!(
            rules_hit("let f = self.pending_frame.clone();"),
            vec![Rule::HotPathClone]
        );
        assert_eq!(
            rules_hit("let all = frames.clone();"),
            vec![Rule::HotPathClone]
        );
        // Non-frame receivers, shares, and clone-adjacent names pass.
        assert!(rules_hit("let c = cfg.clone();").is_empty());
        assert!(rules_hit("let f = frame.share();").is_empty());
        assert!(rules_hit("let f = frame.clone_from(&other);").is_empty());
    }

    #[test]
    fn fault_path_rule_fires_independently_of_the_panic_family() {
        let hits = |src: &str| -> Vec<Rule> {
            let lexed = lex(src);
            check("f.rs", &lexed.tokens, FAULT_ONLY)
                .into_iter()
                .map(|d| d.rule)
                .collect()
        };
        assert_eq!(
            hits("let g = plan.burst_loss.unwrap();"),
            vec![Rule::FaultPathUnwrap]
        );
        assert_eq!(
            hits("let d = drift.get(&node).expect(\"registered\");"),
            vec![Rule::FaultPathUnwrap]
        );
        // Total methods and non-call mentions pass.
        assert!(hits("let g = plan.burst_loss.unwrap_or_default();").is_empty());
        assert!(hits("// unwrap is banned here").is_empty());
        // With both families on, the same token carries both rule IDs, so
        // allowing only the generic panic rule still leaves the
        // fault-path finding standing.
        let both = RuleSet {
            panics: true,
            ..FAULT_ONLY
        };
        let src = "let g = plan.burst_loss.unwrap(); // lint:allow(panic-unwrap) — tested above\n";
        let lexed = lex(src);
        let mut allows = crate::allow::scan("f.rs", &lexed);
        let rules: Vec<Rule> = allows
            .apply(check("f.rs", &lexed.tokens, both))
            .into_iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, vec![Rule::FaultPathUnwrap]);
        assert!(allows.unused("f.rs").is_empty(), "the directive was used");
    }

    #[test]
    fn ordering_relaxed_fires_on_qualified_use_only() {
        assert_eq!(
            rules_hit("mask.load(Ordering::Relaxed);"),
            vec![Rule::OrderingRelaxed]
        );
        assert_eq!(
            rules_hit("use std::sync::atomic::Ordering::Relaxed;"),
            vec![Rule::OrderingRelaxed]
        );
        // Other orderings and bare `Relaxed` mentions pass.
        assert!(rules_hit("mask.load(Ordering::SeqCst);").is_empty());
        assert!(rules_hit("let relaxed = Relaxed;").is_empty());
    }

    #[test]
    fn bounded_channel_flags_capacityless_queues_only() {
        assert_eq!(
            rules_hit("let (tx, rx) = mpsc::channel();"),
            vec![Rule::BoundedChannel]
        );
        assert_eq!(
            rules_hit("let (tx, rx) = flume::unbounded();"),
            vec![Rule::BoundedChannel]
        );
        assert_eq!(
            rules_hit("let (tx, rx) = tokio::sync::mpsc::unbounded_channel();"),
            vec![Rule::BoundedChannel]
        );
        assert_eq!(
            rules_hit("let q: VecDeque<u64> = VecDeque::new();"),
            vec![Rule::BoundedChannel]
        );
        // Capacity-carrying constructors pass.
        assert!(rules_hit("let (tx, rx) = mpsc::sync_channel(64);").is_empty());
        assert!(rules_hit("let q = VecDeque::with_capacity(64);").is_empty());
        // Someone else's `channel()` or `new()` is not a queue claim.
        assert!(rules_hit("let c = radio.channel();").is_empty());
        assert!(rules_hit("let v = Vec::new();").is_empty());
        // Mentions without a call are fine.
        assert!(rules_hit("// unbounded queues are banned here").is_empty());
    }

    #[test]
    fn allows_suppress_with_reason() {
        let src = "let v = m.get(&k).unwrap(); // lint:allow(panic-unwrap) — inserted above, cannot miss\n";
        let lexed = lex(src);
        let mut allows = crate::allow::scan("f.rs", &lexed);
        let diags = allows.apply(check("f.rs", &lexed.tokens, ALL));
        assert!(diags.is_empty());
    }
}
