//! The RC-linearity checker and the pieces it stands on, over the
//! flat-CFG form.
//!
//! The pass pipeline makes the compiler *rewrite* reference-count traffic;
//! this module *proves* facts about the result:
//!
//! - [`cfg::BlockGraph`] — a cached successor/predecessor/reverse-postorder
//!   view of one region's block graph (the raw [`crate::body::Body`] stores
//!   only successors, on terminators).
//! - [`rc_summary`] — value ownership classes and composable per-block
//!   reference-count effect summaries (net delta + minimum prefix dip per
//!   value).
//! - [`rc_check`] — the RC-linearity checker built on both: a forward walk
//!   proving every owned value is released exactly once on every path,
//!   with an explicit [`rc_check::RcVerdict::Unprovable`] verdict where
//!   aliasing defeats the per-value ledger (never a false positive).
//!
//! The checker is wired into [`crate::pass::PassManager::verify_rc`] (the
//! pipeline's `verify-rc` mode) and the `lssa lint` driver.

pub mod cfg;
pub mod rc_check;
pub mod rc_summary;

pub use cfg::BlockGraph;
pub use rc_check::{check_function, check_module, RcVerdict};
