//! The rule engines. Each rule is a pure function from a [`FileCx`](crate::context::FileCx)
//! to diagnostics; policy scoping (which files a rule runs on) happens
//! in the driver, `#[cfg(test)]` scoping and waivers happen here.

pub mod determinism;
pub mod float_reduction;
pub mod panic_path;
pub mod unsafe_audit;

/// Rust keywords the indexing detector must not mistake for an indexed
/// expression (`return [a, b]` is an array literal, not indexing).
pub(crate) const EXPR_KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield", "async",
    "await", "box",
];
