//! `lock-poison`: no `.lock().unwrap()` or `.lock().expect(..)`.
//!
//! The bug class: a worker panicking while holding a shared mutex poisons
//! it, and every *other* worker's `.lock().unwrap()` then cascades the
//! panic — one bad cell aborted whole sweeps until the `CdnShared` caches
//! were hardened.  An `.expect("...")` message changes nothing about the
//! cascade, so it fires too.  Library code must either recover
//! (`.lock().unwrap_or_else(PoisonError::into_inner)` — correct whenever the
//! protected data is structurally sound regardless of the panic, e.g.
//! monotone insert-only caches or single-store result slots) or turn the
//! poison into an error the caller handles.  A site where propagating the
//! panic is right carries a reasoned `lint:allow(lock-poison)`.

use super::{FileContext, Rule};
use crate::diag::Diagnostic;

pub struct LockPoison;

impl Rule for LockPoison {
    fn id(&self) -> &'static str {
        "lock-poison"
    }

    fn summary(&self) -> &'static str {
        "no .lock().unwrap()/.expect(..): recover via PoisonError::into_inner or return an error"
    }

    fn applies_to(&self, path: &str) -> bool {
        path.ends_with(".rs")
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        // `.lock()` chains wrap across lines, so scan the whole masked text.
        let masked = ctx.masked;
        let mut from = 0;
        while let Some(rel) = masked[from..].find(".lock()") {
            let at = from + rel;
            let rest = masked[at + ".lock()".len()..].trim_start();
            let call = if rest.starts_with(".unwrap()") {
                Some("unwrap()")
            } else if rest.starts_with(".expect(") {
                Some("expect(..)")
            } else {
                None
            };
            if let Some(call) = call {
                out.push(ctx.diag(
                    ctx.line_of(at),
                    self.id(),
                    format!(
                        "`.lock().{call}` cascades a poisoned mutex into every caller — \
                         use `.unwrap_or_else(PoisonError::into_inner)` when the data is \
                         sound across panics, or map the poison to an error"
                    ),
                ));
            }
            from = at + ".lock()".len();
        }
    }
}
