//===- lia/Mbqi.h - Model-based quantifier instantiation ---------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Model-based quantifier instantiation for the quantified LIA formulae
/// the ¬contains encoding produces (Sec. 6.4, Eq. 32):
///
///   ∃ #1 ( Outer(#1) ∧ ⋀_blocks ∀κ ( κ < 0 ∨ κ > Upper(#1)
///                                    ∨ ∃ #2 Inner(#1, κ, #2) ) )
///
/// The loop mirrors what the paper gets from Z3's MBQI engine [36]: find
/// a model of the outer (quantifier-free) part, then — because κ is
/// bounded by the concrete value of Upper under that model — check each
/// offset κ ∈ [0, Upper(M)] by a quantifier-free query with #1 fixed.
/// A refuted model is excluded with a blocking clause and the search
/// continues; the iteration and offset budgets bound the work (beyond
/// them we answer Unknown, exactly like an SMT solver's resource-out).
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_LIA_MBQI_H
#define POSTR_LIA_MBQI_H

#include "lia/Solver.h"

#include <vector>

namespace postr {
namespace lia {

/// One ∀κ block of the query (one per ¬contains predicate in the input).
struct ForallBlock {
  /// The universally quantified offset variable κ.
  Var Kappa;
  /// κ ranges over [0, eval(Upper)] under the outer model (LenDiff in the
  /// paper's Eq. 31/32); larger or negative offsets are trivially fine.
  LinTerm Upper;
  /// Inner formula over outer vars ∪ {κ} ∪ fresh inner vars. Inner vars
  /// are implicitly existential.
  FormulaId Inner;
  /// The inner-existential variables of Inner (everything minted for the
  /// block except κ). Instantiation lemmas clone Inner with these mapped
  /// to fresh variables.
  std::vector<Var> InnerVars;
};

/// Counters of one solveMbqi run, for benchmarks (`mbqi_counters` in
/// BENCH_hotpath.json) and triage. Accumulates when reused across calls.
struct MbqiStats {
  uint64_t Candidates = 0;    ///< outer models proposed
  uint64_t OuterSolves = 0;   ///< outer-context queries (incl. re-solves)
  uint64_t InnerQueries = 0;  ///< per-offset inner queries
  uint64_t InstLemmas = 0;    ///< quantifier-instantiation lemmas pushed
  uint64_t Blockers = 0;      ///< model-blocking clauses pushed
  uint64_t ContextReuses = 0; ///< solves served by an already-warm context
};

struct MbqiOptions {
  QfOptions Qf;
  /// Max outer candidate models to try before answering Unknown.
  uint32_t MaxCandidates = 64;
  /// Max enumerated offsets per candidate (guards degenerate models).
  int64_t MaxOffsets = 4096;
  /// Run on persistent IncrementalContexts (the default): one outer
  /// context accumulates blockers and instantiation lemmas, per-block
  /// inner contexts keep their encoding and pop only the pin/offset
  /// between offsets. false = re-encode every query from scratch — kept
  /// as the oracle for the incremental-vs-scratch property tests.
  bool Incremental = true;
  /// Optional counter sink (not synchronized — share only across
  /// single-threaded solves).
  MbqiStats *Stats = nullptr;
};

struct MbqiQuery {
  FormulaId Outer;            ///< quantifier-free part over outer vars
  std::vector<Var> OuterVars; ///< the #1 variables to fix for inner queries
  std::vector<ForallBlock> Blocks;
  /// Terms whose valuation identifies the *semantic content* of an outer
  /// model (for the ¬contains encoding: the per-A_◦-transition projection
  /// sums, which with flat languages pin the string assignment). Refuted
  /// models are blocked on these, so every run encoding the same refuted
  /// assignment is excluded at once. Empty → block on OuterVars directly.
  std::vector<LinTerm> BlockTerms;
};

/// Decides the query. On Sat, \p ModelOut (if non-null) receives the
/// outer model.
Verdict solveMbqi(Arena &A, const MbqiQuery &Q,
                  std::vector<int64_t> *ModelOut = nullptr,
                  const MbqiOptions &Opts = {});

} // namespace lia
} // namespace postr

#endif // POSTR_LIA_MBQI_H
