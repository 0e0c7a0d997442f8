//! The six workspace rules.
//!
//! | id | check |
//! |----|-------|
//! | `no-unordered-collections` | `HashMap`/`HashSet` banned in sim-visible crates |
//! | `total-order-floats` | `.partial_cmp(...)` calls must be `total_cmp` |
//! | `no-wall-clock` | `Instant`/`SystemTime` forbidden outside the profiler |
//! | `no-alloc-in-hot-path` | `Vec::new`/`Vec::with_capacity`/`vec![]`/`Box::new`/`.clone()`/`.to_vec()` in hot modules |
//! | `no-unwrap-in-lib` | `.unwrap()` (and terse `.expect("..")`) in library code |
//! | `event-coverage` | `SchedEvent` ↔ `EventClass` ↔ `SchedRecord` ↔ `RecordFilter::KINDS` consistency |
//!
//! Rules run over the lexer's token stream. "Sim-visible" means the
//! crates whose state feeds simulation outputs ([`SIM_CRATES`]); test
//! modules (`#[cfg(test)]`, `#[test]`) are exempt from the state rules
//! but not from `no-wall-clock` or `total-order-floats`.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// Every rule id, in documentation order.
pub const RULE_IDS: [&str; 6] = [
    "no-unordered-collections",
    "total-order-floats",
    "no-wall-clock",
    "no-alloc-in-hot-path",
    "no-unwrap-in-lib",
    "event-coverage",
];

/// Crates whose state is visible to the simulation (container iteration
/// order, float comparisons, and clocks there decide replay outputs).
pub const SIM_CRATES: [&str; 6] = ["des", "sched", "pvm", "cluster", "model", "core"];

/// Hot modules: files on the per-event path where steady-state
/// allocation is banned (see `BENCH_core.json` for why).
pub const HOT_FILES: [&str; 3] = ["calendar.rs", "simulator.rs", "pool.rs"];

/// Hot modules named by path suffix — base names that would collide
/// with cold modules elsewhere (the flight recorder and the des crate
/// both have a `trace.rs`). `core/src/sim/trace.rs` hosts the
/// synthetic-trace sampler, `core/src/sim/read_ahead.rs` its batch
/// read-ahead and `sched/src/feed.rs` the chunked job feed, all on the
/// streamed-replay refill path; `cluster/src/discrete.rs` is the
/// discrete-model task sampler, which the paper's validation calls
/// about 3.7M times per 20,000-job run; the other three cluster modules
/// are the continuous-time, multi-job and SMP event loops.
pub const HOT_PATH_SUFFIXES: [&str; 7] = [
    "core/src/sim/trace.rs",
    "core/src/sim/read_ahead.rs",
    "sched/src/feed.rs",
    "cluster/src/discrete.rs",
    "cluster/src/continuous.rs",
    "cluster/src/multi.rs",
    "cluster/src/smp.rs",
];

/// Functions in hot modules that run at setup time, not per event.
/// Allocation there is fine without an allow.
const COLD_FN_PREFIXES: [&str; 2] = ["with_", "from_"];
const COLD_FN_NAMES: [&str; 2] = ["new", "default"];

/// One file prepared for linting.
pub struct FileCtx<'a> {
    /// Root-relative display path.
    pub file: &'a str,
    /// `crates/<name>/...` component, when the path has one.
    pub crate_name: Option<&'a str>,
    /// Path base name (`simulator.rs`).
    pub base_name: &'a str,
    pub toks: &'a [Tok],
    pub lines: &'a [&'a str],
    /// Line ranges (inclusive) covered by `#[cfg(test)]` / `#[test]`.
    pub test_spans: Vec<(u32, u32)>,
}

impl<'a> FileCtx<'a> {
    fn is_test_line(&self, line: u32) -> bool {
        self.test_spans
            .iter()
            .any(|(a, b)| (*a..=*b).contains(&line))
    }

    fn sim_visible(&self) -> bool {
        match self.crate_name {
            Some(c) => SIM_CRATES.contains(&c),
            // Paths outside `crates/<name>/` (e.g. lint fixtures) are
            // held to the full standard.
            None => true,
        }
    }

    fn is_hot(&self) -> bool {
        HOT_FILES.contains(&self.base_name)
            || HOT_PATH_SUFFIXES.iter().any(|s| self.file.ends_with(s))
    }

    fn diag(&self, tok: &Tok, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: self.file.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
            snippet: self
                .lines
                .get(tok.line as usize - 1)
                .unwrap_or(&"")
                .to_string(),
            width: tok.width(),
        }
    }
}

/// Compute the line spans covered by test-only items: any item whose
/// attributes include a `test` identifier (`#[cfg(test)] mod tests`,
/// `#[test] fn case()`), from the attribute to the item's closing brace.
pub fn test_spans(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let start_line = toks[i].line;
            let mut j = i + 2;
            let mut depth = 1u32;
            let mut has_test = false;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                } else if toks[j].is_ident("test") {
                    has_test = true;
                }
                j += 1;
            }
            if !has_test {
                i = j;
                continue;
            }
            // Find the item body: first `{` (span to matching `}`) or a
            // bare `;` (span to that line). Further attributes on the
            // same item are tolerated by just scanning forward.
            let mut k = j;
            let mut end_line = start_line;
            while k < toks.len() {
                if toks[k].is_punct('{') {
                    let mut bd = 1u32;
                    k += 1;
                    while k < toks.len() && bd > 0 {
                        if toks[k].is_punct('{') {
                            bd += 1;
                        } else if toks[k].is_punct('}') {
                            bd -= 1;
                        }
                        end_line = toks[k].line;
                        k += 1;
                    }
                    break;
                }
                if toks[k].is_punct(';') {
                    end_line = toks[k].line;
                    k += 1;
                    break;
                }
                end_line = toks[k].line;
                k += 1;
            }
            spans.push((start_line, end_line));
            i = k;
            continue;
        }
        i += 1;
    }
    spans
}

/// Run every per-file rule, returning raw (pre-suppression) findings.
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.sim_visible() {
        no_unordered_collections(ctx, &mut out);
        total_order_floats(ctx, &mut out);
        no_wall_clock(ctx, &mut out);
        no_unwrap_in_lib(ctx, &mut out);
    }
    if ctx.is_hot() {
        no_alloc_in_hot_path(ctx, &mut out);
    }
    out
}

/// R1: `HashMap`/`HashSet` in sim-visible, non-test code.
fn no_unordered_collections(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for t in ctx.toks {
        if t.kind != TokKind::Ident || ctx.is_test_line(t.line) {
            continue;
        }
        let replacement = match t.text.as_str() {
            "HashMap" => "BTreeMap",
            "HashSet" => "BTreeSet",
            _ => continue,
        };
        out.push(ctx.diag(
            t,
            "no-unordered-collections",
            format!(
                "`{}` iterates in nondeterministic order; sim-visible state must use \
                 `{replacement}`, `Vec`, or a slab",
                t.text
            ),
        ));
    }
}

/// R2: `.partial_cmp(` calls — f64 sort keys must use `total_cmp`.
fn total_order_floats(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for w in ctx.toks.windows(3) {
        let [a, b, c] = w else { continue };
        if a.is_punct('.') && b.is_ident("partial_cmp") && c.is_punct('(') {
            out.push(
                ctx.diag(
                    b,
                    "total-order-floats",
                    "`partial_cmp` is not a total order on floats (NaN breaks sort/heap \
                 invariants); use `f64::total_cmp` for sort keys"
                        .to_string(),
                ),
            );
        }
    }
}

/// R3: `Instant`/`SystemTime` anywhere in sim-visible crates. The one
/// sanctioned reader (the profiler's host-time attribution) carries an
/// explicit allow.
fn no_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for t in ctx.toks {
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            out.push(ctx.diag(
                t,
                "no-wall-clock",
                format!(
                    "`{}` reads the host clock, which breaks replay determinism; \
                     sim code must use `SimTime` (host timing belongs to the profiler)",
                    t.text
                ),
            ));
        }
    }
}

/// R5: `.unwrap()` in non-test library code, plus `.expect("..")` whose
/// message is too terse to state an invariant.
fn no_unwrap_in_lib(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    const MIN_EXPECT_LEN: usize = 8;
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.is_test_line(toks[i].line) || !toks[i].is_punct('.') {
            continue;
        }
        let Some(name) = toks.get(i + 1) else {
            continue;
        };
        if name.is_ident("unwrap")
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            out.push(
                ctx.diag(
                    name,
                    "no-unwrap-in-lib",
                    "`unwrap()` hides the violated invariant; use `expect(\"invariant: ...\")` \
                 or a typed error the caller can react to"
                        .to_string(),
                ),
            );
        }
        if name.is_ident("expect") && toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            if let Some(msg) = toks.get(i + 3) {
                if msg.kind == TokKind::Str
                    && msg.text.trim().len() < MIN_EXPECT_LEN
                    && toks.get(i + 4).is_some_and(|t| t.is_punct(')'))
                {
                    out.push(ctx.diag(
                        name,
                        "no-unwrap-in-lib",
                        format!(
                            "expect message \"{}\" is too terse to state an invariant \
                             (< {MIN_EXPECT_LEN} chars); say what must hold and why",
                            msg.text
                        ),
                    ));
                }
            }
        }
    }
}

/// R4: allocation calls inside hot modules, outside setup functions.
fn no_alloc_in_hot_path(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    // Track the enclosing function per token via a brace-depth stack.
    let mut depth = 0u32;
    let mut nest = 0i32; // paren/bracket nesting, so `[u8; 3]` keeps a pending fn
    let mut pending_fn: Option<String> = None;
    let mut frames: Vec<(String, u32)> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("fn") {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokKind::Ident {
                    pending_fn = Some(name.text.clone());
                }
            }
        } else if t.is_punct('{') {
            if let Some(name) = pending_fn.take() {
                frames.push((name, depth));
            }
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if frames.last().is_some_and(|(_, d)| *d == depth) {
                frames.pop();
            }
        } else if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nest -= 1;
        } else if t.is_punct(';') && nest == 0 {
            // A trait-style `fn f();` declaration never opens a body.
            pending_fn = None;
        }

        if ctx.is_test_line(t.line) {
            continue;
        }
        let Some((fn_name, _)) = frames.last() else {
            continue; // not inside a function (type/item position)
        };
        let cold = COLD_FN_NAMES.contains(&fn_name.as_str())
            || COLD_FN_PREFIXES.iter().any(|p| fn_name.starts_with(p));
        if cold {
            continue;
        }

        // Constructor calls: Vec::new / Vec::with_capacity / Box::new,
        // and the vec![..] macro.
        let path = |ty: &str, ctor: &str| {
            t.is_ident(ty)
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident(ctor))
        };
        let call = if path("Vec", "new") {
            Some("Vec::new")
        } else if path("Vec", "with_capacity") {
            Some("Vec::with_capacity")
        } else if path("Box", "new") {
            Some("Box::new")
        } else if t.is_ident("vec")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
        {
            Some("vec![]")
        } else {
            None
        };
        if let Some(call) = call {
            out.push(ctx.diag(
                t,
                "no-alloc-in-hot-path",
                format!(
                    "`{call}` allocates inside hot function `{fn_name}` (hot modules \
                     must stay allocation-free in steady state; preallocate in a \
                     constructor or reuse a buffer)"
                ),
            ));
        }
        // Method calls: .clone() / .to_vec().
        if t.is_punct('.') {
            if let Some(name) = toks.get(i + 1) {
                if (name.is_ident("clone") || name.is_ident("to_vec"))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                {
                    out.push(ctx.diag(
                        name,
                        "no-alloc-in-hot-path",
                        format!(
                            "`.{}()` copies (and usually allocates) inside hot function \
                             `{fn_name}`; borrow or move instead",
                            name.text
                        ),
                    ));
                }
            }
        }
    }
}

/// An enum's defining file plus its variants as `(name, line, col)`.
type EnumDef = (String, Vec<(String, u32, u32)>);

/// Everything R6 needs from one file.
#[derive(Debug, Default)]
pub struct EventInfo {
    /// `enum SchedEvent` variants: name → (line, col), with file.
    pub sched_event: Option<EnumDef>,
    pub event_class: Option<EnumDef>,
    pub sched_record: Option<EnumDef>,
    /// Variant names listed in `EventClass::ALL`.
    pub all_array: Option<(String, Vec<String>, u32, u32)>,
    /// Class names listed in `RecordFilter::KINDS` (a `[&'static
    /// str; N]` of snake_case names, index i naming class i).
    pub filter_kinds: Option<(String, Vec<String>, u32, u32)>,
    /// Non-test `SchedRecord::X` / `EventClass::X` path usages, with
    /// the file they occur in.
    pub record_uses: Vec<(String, String)>,
    pub class_uses: Vec<(String, String)>,
}

/// Collect R6 facts from one file into `info`.
pub fn collect_event_info(ctx: &FileCtx<'_>, info: &mut EventInfo) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if toks[i].is_ident("enum") {
            if let Some(name) = toks.get(i + 1) {
                let slot = match name.text.as_str() {
                    "SchedEvent" => Some(&mut info.sched_event),
                    "EventClass" => Some(&mut info.event_class),
                    "SchedRecord" => Some(&mut info.sched_record),
                    _ => None,
                };
                if let Some(slot) = slot {
                    if slot.is_none() {
                        *slot = Some((ctx.file.to_string(), enum_variants(toks, i)));
                    }
                }
            }
        }
        // `ALL: [EventClass; N] = [Self::X, ...]` (or `EventClass::X`).
        if toks[i].is_ident("ALL") && info.all_array.is_none() {
            if let Some(listed) = all_array_variants(toks, i) {
                info.all_array = Some((ctx.file.to_string(), listed, toks[i].line, toks[i].col));
            }
        }
        // `KINDS: [&'static str; N] = ["...", ...]` — the record
        // filter's class-name table.
        if toks[i].is_ident("KINDS") && info.filter_kinds.is_none() {
            if let Some(listed) = kinds_array_strings(toks, i) {
                info.filter_kinds = Some((ctx.file.to_string(), listed, toks[i].line, toks[i].col));
            }
        }
        // Path usages `SchedRecord::X` / `EventClass::X` outside tests.
        if !ctx.is_test_line(toks[i].line)
            && (toks[i].is_ident("SchedRecord") || toks[i].is_ident("EventClass"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(v) = toks.get(i + 3) {
                if v.kind == TokKind::Ident && v.text.chars().next().is_some_and(char::is_uppercase)
                {
                    let uses = if toks[i].is_ident("SchedRecord") {
                        &mut info.record_uses
                    } else {
                        &mut info.class_uses
                    };
                    uses.push((ctx.file.to_string(), v.text.clone()));
                }
            }
        }
    }
}

/// Parse variant names from `enum Name { ... }` with `i` at `enum`.
fn enum_variants(toks: &[Tok], i: usize) -> Vec<(String, u32, u32)> {
    let mut out = Vec::new();
    let mut j = i + 2;
    // Skip to the opening brace (past generics, which this workspace's
    // event enums don't use anyway).
    while j < toks.len() && !toks[j].is_punct('{') {
        j += 1;
    }
    let mut depth = 0i32;
    let mut expect_variant = true;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 {
            if t.is_punct('#') {
                // Variant attribute: skip the [...] group.
                j += 1;
                if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                    let mut bd = 0i32;
                    while j < toks.len() {
                        if toks[j].is_punct('[') {
                            bd += 1;
                        } else if toks[j].is_punct(']') {
                            bd -= 1;
                            if bd == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                }
            } else if expect_variant && t.kind == TokKind::Ident {
                out.push((t.text.clone(), t.line, t.col));
                expect_variant = false;
            } else if t.is_punct(',') {
                expect_variant = true;
            }
        }
        j += 1;
    }
    out
}

/// Parse the variant names listed in `ALL: [...; N] = [ ... ]`.
fn all_array_variants(toks: &[Tok], i: usize) -> Option<Vec<String>> {
    // Require the declared element type to be EventClass.
    let mut j = i + 1;
    if !toks.get(j)?.is_punct(':') {
        return None;
    }
    let mut saw_event_class = false;
    while j < toks.len() && !toks[j].is_punct('=') {
        if toks[j].is_ident("EventClass") {
            saw_event_class = true;
        }
        j += 1;
    }
    if !saw_event_class || !toks.get(j + 1)?.is_punct('[') {
        return None;
    }
    let mut out = Vec::new();
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1
            && (t.is_ident("Self") || t.is_ident("EventClass"))
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(v) = toks.get(j + 3) {
                out.push(v.text.clone());
            }
        }
        j += 1;
    }
    Some(out)
}

/// Parse the string literals listed in `KINDS: [&'static str; N] =
/// ["...", ...]` with `i` at `KINDS`. Returns `None` unless the
/// declared element type mentions `str` (so unrelated `KINDS` consts
/// don't trip the rule).
fn kinds_array_strings(toks: &[Tok], i: usize) -> Option<Vec<String>> {
    let mut j = i + 1;
    if !toks.get(j)?.is_punct(':') {
        return None;
    }
    let mut saw_str = false;
    while j < toks.len() && !toks[j].is_punct('=') {
        if toks[j].is_ident("str") {
            saw_str = true;
        }
        j += 1;
    }
    if !saw_str || !toks.get(j + 1)?.is_punct('[') {
        return None;
    }
    let mut out = Vec::new();
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 && t.kind == TokKind::Str {
            out.push(t.text.clone());
        }
        j += 1;
    }
    Some(out)
}

/// `SchedRecord::SegmentStart` → `segment_start`, the naming scheme
/// both `SchedRecord::kind_name` and `RecordFilter::KINDS` follow.
fn camel_to_snake(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// R6: cross-file event coverage. Call once after every file has been
/// collected.
pub fn event_coverage(info: &EventInfo, lines_of: &dyn Fn(&str, u32) -> String) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let (Some((ev_file, events)), Some((cl_file, classes))) =
        (&info.sched_event, &info.event_class)
    else {
        // No event vocabulary in the linted set — rule is silent.
        return out;
    };
    let mut diag = |file: &str, line: u32, col: u32, message: String| {
        out.push(Diagnostic {
            file: file.to_string(),
            line,
            col,
            rule: "event-coverage",
            message,
            snippet: lines_of(file, line),
            width: 1,
        });
    };
    let class_names: BTreeMap<&str, ()> =
        classes.iter().map(|(n, _, _)| (n.as_str(), ())).collect();
    let event_names: BTreeMap<&str, ()> = events.iter().map(|(n, _, _)| (n.as_str(), ())).collect();

    for (name, line, col) in events {
        if !class_names.contains_key(name.as_str()) {
            diag(
                ev_file,
                *line,
                *col,
                format!(
                    "`SchedEvent::{name}` has no matching `EventClass` variant — the \
                     profiler cannot attribute it"
                ),
            );
        }
    }
    for (name, line, col) in classes {
        if !event_names.contains_key(name.as_str()) {
            diag(
                cl_file,
                *line,
                *col,
                format!("`EventClass::{name}` matches no `SchedEvent` variant (dead class)"),
            );
        }
    }
    match &info.all_array {
        Some((file, listed, line, col)) => {
            for (name, ..) in classes {
                if !listed.contains(name) {
                    diag(
                        file,
                        *line,
                        *col,
                        format!(
                            "`EventClass::ALL` is missing `{name}` — exports and \
                             profiles will silently drop it"
                        ),
                    );
                }
            }
        }
        None => {
            if let Some((_, line, col)) = classes.first() {
                diag(
                    cl_file,
                    *line,
                    *col,
                    "`EventClass` has no parseable `ALL: [EventClass; N]` array".to_string(),
                );
            }
        }
    }
    if let Some((rec_file, records)) = &info.sched_record {
        for (name, line, col) in records {
            let emitted = info
                .record_uses
                .iter()
                .any(|(f, v)| v == name && f != rec_file);
            if !emitted {
                diag(
                    rec_file,
                    *line,
                    *col,
                    format!(
                        "`SchedRecord::{name}` is never emitted outside its definition — \
                         the trace schema drifted from the engine"
                    ),
                );
            }
        }
    }
    // `RecordFilter::KINDS` must mirror the `SchedRecord` enum exactly:
    // index i names class i, so a variant added without extending the
    // filter (or vice versa) silently misroutes the mask and sampling.
    if let (Some((rec_file, records)), Some((kinds_file, kinds, kline, kcol))) =
        (&info.sched_record, &info.filter_kinds)
    {
        let snake: Vec<String> = records.iter().map(|(n, _, _)| camel_to_snake(n)).collect();
        for ((name, line, col), s) in records.iter().zip(&snake) {
            if !kinds.contains(s) {
                diag(
                    rec_file,
                    *line,
                    *col,
                    format!(
                        "`SchedRecord::{name}` is missing from `RecordFilter::KINDS` — \
                         filters cannot address it by name"
                    ),
                );
            }
        }
        for kind in kinds {
            if !snake.contains(kind) {
                diag(
                    kinds_file,
                    *kline,
                    *kcol,
                    format!(
                        "`RecordFilter::KINDS` lists `{kind}`, which matches no \
                         `SchedRecord` variant"
                    ),
                );
            }
        }
        if kinds.len() == snake.len()
            && kinds.iter().all(|k| snake.contains(k))
            && kinds.iter().zip(&snake).any(|(a, b)| a != b)
        {
            diag(
                kinds_file,
                *kline,
                *kcol,
                "`RecordFilter::KINDS` order must match `SchedRecord` declaration \
                 order (index i names class i)"
                    .to_string(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_of<'a>(
        file: &'a str,
        crate_name: Option<&'a str>,
        base: &'a str,
        toks: &'a [Tok],
        lines: &'a [&'a str],
    ) -> FileCtx<'a> {
        FileCtx {
            file,
            crate_name,
            base_name: base,
            toks,
            lines,
            test_spans: test_spans(toks),
        }
    }

    fn check(src: &str, crate_name: Option<&str>, base: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = ctx_of("f.rs", crate_name, base, &lexed.toks, &lines);
        check_file(&ctx)
    }

    #[test]
    fn r1_flags_hash_collections_in_sim_crates_only() {
        let src = "struct S { m: HashMap<u32, u32>, s: HashSet<u32> }";
        assert_eq!(check(src, Some("pvm"), "vm.rs").len(), 2);
        assert_eq!(check(src, Some("bench"), "vm.rs").len(), 0);
        assert_eq!(check(src, None, "vm.rs").len(), 2, "unknown crate = strict");
    }

    #[test]
    fn r1_skips_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(check(src, Some("des"), "x.rs").is_empty());
    }

    #[test]
    fn r2_flags_calls_not_definitions() {
        let call = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let diags = check(call, Some("model"), "x.rs");
        assert!(diags.iter().any(|d| d.rule == "total-order-floats"));
        let def = "impl PartialOrd for T { fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) } }";
        assert!(check(def, Some("des"), "x.rs")
            .iter()
            .all(|d| d.rule != "total-order-floats"));
    }

    #[test]
    fn r3_flags_wall_clock() {
        let diags = check(
            "fn f() { let t = std::time::Instant::now(); }",
            Some("sched"),
            "x.rs",
        );
        assert_eq!(
            diags.iter().filter(|d| d.rule == "no-wall-clock").count(),
            1
        );
    }

    #[test]
    fn r4_flags_hot_files_outside_cold_fns() {
        let src = "impl C {\n fn new() -> Self { let v = Vec::new(); Self { v } }\n \
                   fn pop(&mut self) { let c = self.v.clone(); let b = Box::new(c); } }";
        let hot = check(src, Some("des"), "calendar.rs");
        assert_eq!(
            hot.iter()
                .filter(|d| d.rule == "no-alloc-in-hot-path")
                .count(),
            2,
            "clone + Box::new in pop, nothing in new: {hot:?}"
        );
        assert!(check(src, Some("des"), "other.rs")
            .iter()
            .all(|d| d.rule != "no-alloc-in-hot-path"));
    }

    #[test]
    fn r4_covers_the_discrete_task_sampler() {
        let src = "impl S {\n fn new() -> Self { let v = Vec::new(); Self { v } }\n \
                   fn run_task(&self) { let v: Vec<u64> = Vec::new(); } }";
        let lexed = lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let file = "crates/cluster/src/discrete.rs";
        let ctx = ctx_of(file, Some("cluster"), "discrete.rs", &lexed.toks, &lines);
        let lines: Vec<u32> = check_file(&ctx)
            .iter()
            .filter(|d| d.rule == "no-alloc-in-hot-path")
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, [3], "`Vec::new` in run_task, nothing in new");
    }

    #[test]
    fn r5_flags_unwrap_and_terse_expect_outside_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"bad\") }\n\
                   #[cfg(test)]\nmod tests { fn g(x: Option<u32>) { x.unwrap(); } }";
        let diags = check(src, Some("cluster"), "x.rs");
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.rule == "no-unwrap-in-lib")
                .count(),
            2,
            "{diags:?}"
        );
        let good = "fn f(x: Option<u32>) -> u32 { x.expect(\"invariant: x was set by validate\") }";
        assert!(check(good, Some("cluster"), "x.rs").is_empty());
    }

    #[test]
    fn r6_detects_missing_class_and_unemitted_record() {
        let sim = "enum SchedEvent { A { m: u32 }, B { j: u32 } }\n\
                   fn emit() { let _ = SchedRecord::Used; let _ = EventClass::A; }";
        let tr = "pub enum EventClass { A }\n\
                  impl EventClass { pub const ALL: [EventClass; 1] = [Self::A]; }\n\
                  pub enum SchedRecord { Used { j: u32 }, Never }";
        let (ls, lt) = (lex(sim), lex(tr));
        let (lns_s, lns_t): (Vec<&str>, Vec<&str>) = (sim.lines().collect(), tr.lines().collect());
        let cs = ctx_of("sim.rs", None, "sim.rs", &ls.toks, &lns_s);
        let ct = ctx_of("tr.rs", None, "tr.rs", &lt.toks, &lns_t);
        let mut info = EventInfo::default();
        collect_event_info(&cs, &mut info);
        collect_event_info(&ct, &mut info);
        let diags = event_coverage(&info, &|_, _| String::new());
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("`SchedEvent::B`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("`SchedRecord::Never`")),
            "{msgs:?}"
        );
        assert_eq!(diags.len(), 2, "{msgs:?}");
    }

    #[test]
    fn r6_detects_all_array_gap() {
        let tr = "enum SchedEvent { A, B }\n\
                  pub enum EventClass { A, B }\n\
                  impl EventClass { pub const ALL: [EventClass; 1] = [Self::A]; }";
        let l = lex(tr);
        let lns: Vec<&str> = tr.lines().collect();
        let c = ctx_of("tr.rs", None, "tr.rs", &l.toks, &lns);
        let mut info = EventInfo::default();
        collect_event_info(&c, &mut info);
        let diags = event_coverage(&info, &|_, _| String::new());
        assert!(diags
            .iter()
            .any(|d| d.message.contains("`EventClass::ALL` is missing `B`")));
    }

    #[test]
    fn r6_detects_record_filter_drift() {
        // `Suspend` has no KINDS entry; `eviction` names no variant;
        // both records are emitted elsewhere so only filter drift fires.
        let tr = "pub enum SchedRecord { Dispatch { m: u32 }, Suspend { m: u32 } }\n\
                  impl RecordFilter {\n\
                  pub const KINDS: [&'static str; 2] = [\"dispatch\", \"eviction\"];\n\
                  }";
        let emit = "fn f() { let _ = SchedRecord::Dispatch; let _ = SchedRecord::Suspend; }";
        let (lt, le) = (lex(tr), lex(emit));
        let (lns_t, lns_e): (Vec<&str>, Vec<&str>) = (tr.lines().collect(), emit.lines().collect());
        let ct = ctx_of("tr.rs", None, "tr.rs", &lt.toks, &lns_t);
        let ce = ctx_of("emit.rs", None, "emit.rs", &le.toks, &lns_e);
        let mut info = EventInfo::default();
        collect_event_info(&ct, &mut info);
        collect_event_info(&ce, &mut info);
        // No SchedEvent/EventClass in this set: only the record checks run.
        info.sched_event = Some(("x.rs".into(), vec![]));
        info.event_class = Some(("x.rs".into(), vec![]));
        info.all_array = Some(("x.rs".into(), vec![], 1, 1));
        let diags = event_coverage(&info, &|_, _| String::new());
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("`SchedRecord::Suspend` is missing from")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("lists `eviction`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn r6_detects_record_filter_order_drift() {
        let tr = "pub enum SchedRecord { Dispatch, Suspend }\n\
                  pub const KINDS: [&'static str; 2] = [\"suspend\", \"dispatch\"];";
        let emit = "fn f() { let _ = SchedRecord::Dispatch; let _ = SchedRecord::Suspend; }";
        let (lt, le) = (lex(tr), lex(emit));
        let (lns_t, lns_e): (Vec<&str>, Vec<&str>) = (tr.lines().collect(), emit.lines().collect());
        let ct = ctx_of("tr.rs", None, "tr.rs", &lt.toks, &lns_t);
        let ce = ctx_of("emit.rs", None, "emit.rs", &le.toks, &lns_e);
        let mut info = EventInfo::default();
        collect_event_info(&ct, &mut info);
        collect_event_info(&ce, &mut info);
        info.sched_event = Some(("x.rs".into(), vec![]));
        info.event_class = Some(("x.rs".into(), vec![]));
        info.all_array = Some(("x.rs".into(), vec![], 1, 1));
        let diags = event_coverage(&info, &|_, _| String::new());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("order must match"));
    }

    #[test]
    fn camel_to_snake_matches_kind_names() {
        assert_eq!(camel_to_snake("JobArrival"), "job_arrival");
        assert_eq!(camel_to_snake("SegmentPreempted"), "segment_preempted");
        assert_eq!(camel_to_snake("Eviction"), "eviction");
    }

    #[test]
    fn enum_variant_parser_handles_payloads_and_attrs() {
        let src = "pub enum SchedRecord {\n  #[doc = \"x\"]\n  A { m: u32, k: Kind },\n  B(u32),\n  C,\n}";
        let l = lex(src);
        let vars = enum_variants(&l.toks, 1);
        let names: Vec<&str> = vars.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }
}
