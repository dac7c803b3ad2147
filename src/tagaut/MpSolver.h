//===- tagaut/MpSolver.h - Deciding Monadic-Position constraints -*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision procedure for the paper's MP problem (Sec. 1): a
/// conjunction of a monadic constraint (regular memberships R′ + LIA
/// length constraints I′) and position constraints P′. Encodes via
/// `encodeSystem` and discharges with the QF-LIA solver, or with the MBQI
/// layer when ¬contains blocks are present.
///
/// This is the procedure behind Theorems 7.3 (NP, existential position
/// constraints) and 7.4 (NExpTime, flat ¬contains).
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_TAGAUT_MPSOLVER_H
#define POSTR_TAGAUT_MPSOLVER_H

#include "proof/Proof.h"
#include "tagaut/Encoder.h"

#include <functional>
#include <map>

namespace postr {
namespace tagaut {

struct MpOptions {
  lia::QfOptions Qf;
  lia::MbqiOptions Mbqi;
  /// Cap on connectivity-CEGAR rounds under SpanMode::Lazy before the
  /// solver answers Unknown. Each round adds one cut; real workloads
  /// converge in a handful.
  uint32_t MaxConnectivityCuts = 4096;
  /// Resource guard for the quantified (MBQI) path: tag automata with
  /// more transitions than this answer Unknown up-front, because even
  /// the incremental encoding of the outer instance grows with every
  /// accumulated lemma. 0 disables the guard. Overridable without a
  /// rebuild via the POSTR_MBQI_MAX_TA_TRANSITIONS environment variable
  /// (large-instance experiments).
  uint32_t MbqiMaxTaTransitions = 4000;
  /// Optional shared resource budget (deadline / memory cap / step limit
  /// / cancel, see base/Budget.h) governing the whole solve — the
  /// encoder, the automata shortcuts, and every QF/MBQI sub-solve that
  /// sets no budget of its own. Null means unlimited.
  postr::Budget *Budget = nullptr;
  EncoderOptions Encoder;
  /// Record an Unsat certificate into MpResult::Cert: the QF-LIA path
  /// logs a full DRUP + Farkas clause trace checkable by the independent
  /// kernel (proof/Check.h), while the automata-level short-circuits and
  /// the MBQI loop produce named trusted-rule records. Off by default —
  /// the solve is bit-identical and pays nothing.
  bool Certify = false;
};

struct MpResult {
  Verdict V = Verdict::Unknown;
  /// Why the verdict is Unknown, when a resource ran out: the budget's
  /// trip reason, or StepBudget when an engine-internal cap (connectivity
  /// cuts, MBQI candidates/offsets, tag-transition guard) was exhausted
  /// without tripping the shared budget. None for Sat/Unsat and for
  /// genuine incompleteness (non-flat ¬contains).
  StopReason Stop = StopReason::None;
  /// On Sat: a witnessing string assignment for every variable.
  std::map<VarId, Word> Assignment;
  /// On Sat: the full LIA model (integer variables the caller minted can
  /// be read off through their `lia::Var` handles).
  std::vector<int64_t> Model;
  /// With MpOptions::Certify, on Unsat: this call's refutation — either
  /// a named structural rule or a checkable QF clause trace.
  proof::DisjunctCert Cert;
};

/// Builds the I′ part: invoked after encoding with the per-variable
/// length terms so `x_i = len(y…)` constraints (Sec. 6.1) and plain LIA
/// atoms can be expressed over them. May return `A.trueF()`.
using IntConstraintBuilder = std::function<lia::FormulaId(
    lia::Arena &A, const std::map<VarId, lia::LinTerm> &LenTerms)>;

/// Simplex start rule for the quantifier-free contexts of a system:
/// Bland once any position predicate is present (the mismatch tag blocks
/// build the wide tableaus SparsestRow wanders on), otherwise
/// \p Requested — SparsestRow for a bare membership + length system,
/// unless the caller already chose Bland (word-equation splits, degraded
/// retries).
lia::PivotRule startRule(lia::PivotRule Requested,
                         const std::vector<PosPredicate> &Preds);

/// Decides R′ ∧ I′ ∧ P′. The caller owns \p A and may have minted integer
/// variables in it (e.g. for str.at position terms) before the call.
/// Returns Unknown when a ¬contains predicate ranges over a non-flat
/// language (callers apply the Sec. 8 heuristics first) or on resource
/// exhaustion.
MpResult solveMP(lia::Arena &A,
                 const std::map<VarId, automata::Nfa> &Langs,
                 const std::vector<PosPredicate> &Preds,
                 uint32_t AlphabetSize,
                 const IntConstraintBuilder &IntConstraints = nullptr,
                 const MpOptions &Opts = {});

} // namespace tagaut
} // namespace postr

#endif // POSTR_TAGAUT_MPSOLVER_H
