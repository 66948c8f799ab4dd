//! **L1 — budget discipline.** Every loop in a function whose signature
//! names `Budget` must charge or check it, directly or by passing the
//! `Budget` parameter on to a call. This makes the unbudgeted-Dijkstra
//! bug class structurally impossible: the shortest-path T-join solver
//! once shipped with a Dijkstra phase whose heap loop never touched the
//! budget, so a deadline could not interrupt the dominant cost of the
//! solve.
//!
//! Scope is decided by the signature, not the function name: any
//! non-test `fn` whose parameter list or return type mentions the `Budget`
//! type is covered, so renaming a budgeted function cannot take it out of
//! the lint. A loop satisfies the lint when the code it runs on every
//! iteration — its body (nested code included), plus a `while` loop's
//! condition — contains a call to `charge(…)` or `check(…)`, or passes
//! one of the function's `Budget`-typed parameters as a call argument.
//! Loops inside test-only blocks are out of scope like all test code.
//! Loops that are provably bounded (fixed small iteration counts, or work
//! already paid for by an enclosing charge) are suppressed per line with
//! the reason — the justification is part of the contract, not an escape
//! hatch.

use crate::lexer::TokenKind;
use crate::scanner::SourceFile;
use crate::{Finding, Lint};

/// Whether the code tokens of `span` contain the `Budget` type name.
fn names_budget(file: &SourceFile, span: (usize, usize)) -> bool {
    file.code_in_span(span).any(|ci| {
        file.tokens[file.code[ci]].kind == TokenKind::Ident && file.code_text(ci) == "Budget"
    })
}

/// Names of the parameters in signature `sig` whose type names `Budget`.
fn budget_params(file: &SourceFile, sig: (usize, usize)) -> Vec<String> {
    let range = file.code_in_span(sig);
    // The parameter list is the first `(` … `)` group of the signature.
    let Some(open) = range.clone().find(|&ci| file.code_text(ci) == "(") else {
        return Vec::new();
    };
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut name: Option<String> = None;
    let mut in_type = false;
    let mut typed_budget = false;
    for ci in open..range.end {
        let text = file.code_text(ci);
        // Punctuation lexes one char at a time: the `>` of a `->` arrow
        // (`impl Fn(u32) -> u32`) closes nothing.
        let arrow = text == ">" && file.code_text(ci - 1) == "-";
        match text {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" if !arrow => depth -= 1,
            _ => {}
        }
        let at_top = depth == 1;
        if (at_top && text == ",") || depth == 0 {
            if let (Some(n), true) = (name.take(), typed_budget) {
                params.push(n);
            }
            in_type = false;
            typed_budget = false;
            if depth == 0 {
                break;
            }
            continue;
        }
        if at_top && text == ":" {
            in_type = true;
        } else if in_type {
            typed_budget |= text == "Budget";
        } else if file.tokens[file.code[ci]].kind == TokenKind::Ident && text != "mut" {
            name = Some(text.to_string());
        }
    }
    params
}

/// Whether the code tokens of `span` charge or check a budget, or pass
/// one of `params` on as a call argument.
fn span_touches_budget(file: &SourceFile, span: (usize, usize), params: &[String]) -> bool {
    let range = file.code_in_span(span);
    for ci in range.clone() {
        let tok = &file.tokens[file.code[ci]];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = tok.text(&file.text);
        let next = (ci + 1 < file.code.len()).then(|| file.code_text(ci + 1));
        if next == Some("(") && (text == "charge" || text == "check") {
            return true;
        }
        if matches!(next, Some("," | ")")) && params.iter().any(|p| p == text) {
            return true;
        }
    }
    false
}

pub fn run(file: &SourceFile, out: &mut Vec<Finding>) {
    for f in &file.fns {
        let Some(body) = f.body else { continue };
        if file.in_test(body.0) || !names_budget(file, f.sig) {
            continue;
        }
        let params = budget_params(file, f.sig);
        for lp in &f.loops {
            if file.in_test(lp.body.0) || span_touches_budget(file, lp.per_iteration, &params) {
                continue;
            }
            out.push(Finding {
                path: file.path.clone(),
                line: lp.line,
                lint: Lint::L1,
                message: format!(
                    "loop in `{}` neither charges nor checks its Budget nor passes it on — a \
                     deadline or work cap cannot interrupt it (the unbudgeted-Dijkstra bug \
                     class)",
                    f.name
                ),
            });
        }
    }
}
