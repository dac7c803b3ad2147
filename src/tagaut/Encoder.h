//===- tagaut/Encoder.h - Position constraints to LIA ------------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central reduction: a conjunction of position predicates
/// over regularly-constrained variables (the R′ ∧ P′ part of the monadic
/// decomposition, Sec. 3) becomes one LIA formula over the Parikh tag
/// image of a single 2K+1-copy tag automaton (Secs. 5.3 and 6.5), plus
/// one ∀κ block per ¬contains predicate (Sec. 6.4) which the MBQI layer
/// discharges.
///
/// Supported predicates: t ≠ t, ¬prefixof, ¬suffixof, x = str.at(t, i),
/// x ≠ str.at(t, i), ¬contains(t, t) — exactly the P grammar of Sec. 2
/// (the x_i = len(·) form is handled by the caller through `LenTerms`).
///
/// Two deliberate deviations from the report's formulas, both validated
/// against the brute-force oracle and against Fig. 4's own example run:
///  1. Eq. (42) computes a copy-derived mismatch position as
///     Σ_{k≤l} #⟨P_k,v⟩, which over-counts by one (the sampled letter
///     itself carries the level-l P tag placed by rule 3 of Sec. 5.3);
///     we subtract 1 in the C_l case.
///  2. Eq. (27) for x ≠ str.at(t, i) omits the satisfying case
///     |x| = 0 ∧ InBounds (ε differs from any real character); we add it.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_TAGAUT_ENCODER_H
#define POSTR_TAGAUT_ENCODER_H

#include "lia/Mbqi.h"
#include "tagaut/Parikh.h"
#include "tagaut/TagAutomaton.h"

#include <map>
#include <vector>

namespace postr {
namespace tagaut {

/// Kinds of position predicates (Sec. 2 normal form, P component).
enum class PredKind {
  Diseq,       ///< x1…xn ≠ y1…ym
  NotPrefix,   ///< ¬prefixof(x1…xn, y1…ym)
  NotSuffix,   ///< ¬suffixof(x1…xn, y1…ym)
  StrAtEq,     ///< xs = str.at(y1…ym, t)
  StrAtNe,     ///< xs ≠ str.at(y1…ym, t)
  NotContains, ///< ¬contains(x1…xn, y1…ym), flat languages required
};

/// One position predicate over variable-occurrence sequences.
struct PosPredicate {
  PredKind Kind;
  /// Left side occurrences; for StrAt* this is xs (one variable, or the
  /// variables a word-equation split substituted for it).
  std::vector<VarId> Lhs;
  /// Right side occurrences.
  std::vector<VarId> Rhs;
  /// For StrAt*: the position term t (over arena integer variables),
  /// built by the caller in the same arena the encoder uses.
  lia::LinTerm AtPos;
};

/// Options controlling the construction (the ablation benches flip these).
struct EncoderOptions {
  /// Emit copy (C) transitions/constraints; required for completeness
  /// with shared mismatches across >= 2 predicates (Sec. 5.3).
  bool EmitCopies = true;
  /// Connectivity discipline for the outer Parikh formula. Lazy (the
  /// default) keeps the boolean abstraction near-conjunctive and relies
  /// on the solver's CEGAR cut loop; forced to Eager whenever a
  /// ¬contains block is present (the inner #2 instances sit under ∀κ
  /// where no cut loop can see their models, and EqualWords ties #1 to
  /// them transition-by-transition).
  SpanMode Span = SpanMode::Lazy;
  /// Optional shared resource budget (base/Budget.h), probed at the
  /// encoder's phase boundaries ("tagaut.encode") and threaded into the
  /// Parikh constructions ("tagaut.parikh"); tag-automaton and formula
  /// growth is charged against its memory cap. A trip makes encodeSystem
  /// return a PARTIAL encoding — callers must check Budget->exceeded()
  /// and discard it.
  postr::Budget *Budget = nullptr;
};

/// The result of encoding a system R′ ∧ P′.
struct SystemEncoding {
  /// Quantifier-free part over the #1 Parikh variables: PF_tag ∧ φ_Fair
  /// ∧ φ_Consistent ∧ φ_Copies ∧ ⋀ φ^i_Sat (Eq. 33).
  lia::FormulaId Outer = 0;
  /// One ∀κ block per ¬contains predicate (Eq. 32); empty otherwise.
  std::vector<lia::ForallBlock> Blocks;
  /// When Blocks is non-empty: the per-A_◦-transition projection sums of
  /// the outer Parikh counts (the #1 side of EqualWords, Eq. 30). With
  /// flat languages their valuation pins the string assignment, so MBQI
  /// blocks refuted candidates on them.
  std::vector<lia::LinTerm> BlockTerms;
  /// Per-variable length term #⟨L,x⟩ for the caller's I constraints
  /// (Sec. 6.1) and integer model decoding.
  std::map<VarId, lia::LinTerm> LenTerms;
  /// All #1 variables (for MBQI model blocking).
  std::vector<lia::Var> OuterVars;
  /// The span mode the outer Parikh formula was actually built with
  /// (Opts.Span, overridden to Eager when ¬contains blocks exist). When
  /// Lazy, the solver must run the connectivity CEGAR loop.
  SpanMode Span = SpanMode::Eager;

  /// Decodes a model of Outer (∧ the caller's I) into a string
  /// assignment by Euler-walking the transition counts.
  std::map<VarId, Word> decode(const std::vector<int64_t> &Model) const;

  // Construction internals, exposed for tests, decoding, and benches.
  TagTable Tags;
  VarConcat Vc;
  TagAutomaton Ta;
  ParikhFormula Pf;
};

/// Encodes the system. Preconditions (asserted): every language ε-free
/// and non-empty-language; every variable occurring in some predicate has
/// a language; alphabet non-empty; every variable of a NotContains
/// predicate has a flat language (check with `notContainsVarsFlat`).
SystemEncoding encodeSystem(lia::Arena &A,
                            const std::map<VarId, automata::Nfa> &Langs,
                            const std::vector<PosPredicate> &Preds,
                            uint32_t AlphabetSize,
                            const EncoderOptions &Opts = {});

/// True if every variable occurring in a NotContains predicate of
/// \p Preds has a flat language in \p Langs (Thm. 6.5's side condition).
bool notContainsVarsFlat(const std::map<VarId, automata::Nfa> &Langs,
                         const std::vector<PosPredicate> &Preds);

} // namespace tagaut
} // namespace postr

#endif // POSTR_TAGAUT_ENCODER_H
