//! Nested weighted queries over multiple semirings: the logic **FOG\[C\]**
//! and its evaluation (Theorem 26) — system **S9**, result (B)/(E).
//!
//! Section 7 of the paper introduces `FO[C]`: formulas typed by semirings,
//! with summation as quantification and *connectives* transporting values
//! between semirings (`<  : ℕ×ℕ → B`, `/ : ℚ×ℚ → ℚ`, the Iverson bracket
//! `[·]_S : B → S`, …). The tractable fragment `FOG[C]` requires every
//! connective application to be **guarded**:
//! `[R(x₁…x_l)]_S · c(φ¹, …, φ^k)` with all free variables of the `φⁱ`
//! among the guard's.
//!
//! Evaluation follows the paper's inductive proof verbatim: the top-most
//! guarded connectives are replaced by fresh weight symbols whose values
//! are computed by scanning the (linearly many) guard tuples and querying
//! Theorem 8 evaluators for the argument formulas; the resulting
//! connective-free formula is an ordinary weighted expression evaluated
//! by `agq-core`. Boolean-valued results additionally get the
//! constant-delay answer enumeration of Theorem 24 (result (E)) through
//! `agq-enumerate`.

mod convert;
mod eval;
mod formula;
mod value;

pub use convert::{to_expr, to_fo_formula};
pub use eval::{NestedError, NestedEvaluator, NestedResult};
pub use formula::{Connective, NestedFormula, TypeError};
pub use value::{MultiWeights, SemiringTag, Value, ValueCarrier};
