//===- tagaut/Encoder.cpp - Position constraints to LIA --------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "tagaut/Encoder.h"

#include "base/Budget.h"

#include <algorithm>
#include <array>
#include <set>

using namespace postr;
using namespace postr::tagaut;
using lia::Arena;
using lia::Cmp;
using lia::FormulaId;
using lia::LinTerm;
using lia::Var;

namespace {

/// The per-run sample variables of Sec. 5.3: mismatch symbols m_{D,s},
/// shared-symbol chain c_l, and local mismatch positions p_{D,s}
/// (Appendix C). One instance per Parikh copy (#1 outer, #2 inner).
struct SampleVars {
  /// [D][side] mismatch symbol, in [0, |Γ|-1].
  std::vector<std::array<Var, 2>> M;
  /// [D][side] local mismatch position, >= 0.
  std::vector<std::array<Var, 2>> P;
  /// [l-1] shared symbol of the l-th sample, l = 1..2K.
  std::vector<Var> C;
};

/// Builds all sample/consistency machinery shared by the outer and inner
/// formula instances.
class SystemBuilder {
public:
  SystemBuilder(Arena &A, const std::vector<PosPredicate> &Preds,
                const VarConcat &Vc, TagTable &Tags, uint32_t AlphabetSize,
                bool EmitCopies)
      : A(A), Preds(Preds), Vc(Vc), Tags(Tags), Sigma(AlphabetSize),
        EmitCopies(EmitCopies), K(static_cast<uint32_t>(Preds.size())) {}

  SampleVars makeSampleVars(const std::string &Prefix);

  /// #⟨M_l,x,D,s,a⟩ under Parikh instance \p Pf.
  LinTerm misCount(const ParikhFormula &Pf, uint32_t L, VarId X, uint32_t D,
                   Side S, Symbol Sym) const {
    return Pf.tagTerm(
        Tags.intern(Tag::mismatch(static_cast<uint16_t>(L), X, D, S, Sym)));
  }
  /// Σ_a #⟨M_l,x,D,s,a⟩.
  LinTerm misCountAllSyms(const ParikhFormula &Pf, uint32_t L, VarId X,
                          uint32_t D, Side S) const {
    LinTerm Sum;
    for (Symbol Sym = 0; Sym < Sigma; ++Sym)
      Sum += misCount(Pf, L, X, D, S, Sym);
    return Sum;
  }
  /// #⟨C_l,x,D,s⟩ (zero term when copies are disabled or l < 2).
  LinTerm copyCount(const ParikhFormula &Pf, uint32_t L, VarId X, uint32_t D,
                    Side S) const {
    if (!EmitCopies || L < 2)
      return LinTerm();
    return Pf.tagTerm(
        Tags.intern(Tag::copy(static_cast<uint16_t>(L), X, D, S)));
  }
  /// #⟨P_l,x⟩.
  LinTerm posCount(const ParikhFormula &Pf, uint32_t L, VarId X) const {
    return Pf.tagTerm(
        Tags.intern(Tag::position(static_cast<uint16_t>(L), X)));
  }
  /// #⟨L,x⟩.
  LinTerm lenTerm(const ParikhFormula &Pf, VarId X) const {
    return Pf.tagTerm(Tags.intern(Tag::length(X)));
  }
  /// Σ_i #⟨L,occ_i⟩ over an occurrence sequence.
  LinTerm sideLen(const ParikhFormula &Pf,
                  const std::vector<VarId> &Occs) const {
    LinTerm Sum;
    for (VarId X : Occs)
      Sum += lenTerm(Pf, X);
    return Sum;
  }
  /// Σ_{u<i} #⟨L,occ_u⟩ — the prefix length before occurrence \p I.
  LinTerm prefixLen(const ParikhFormula &Pf, const std::vector<VarId> &Occs,
                    size_t I) const {
    LinTerm Sum;
    for (size_t U = 0; U < I; ++U)
      Sum += lenTerm(Pf, Occs[U]);
    return Sum;
  }

  /// φ_Fair (Eq. 17): at most one sample per predicate side.
  FormulaId buildFair(const ParikhFormula &Pf);
  /// φ_Consistent (Eq. 18): sampled symbols propagate into m/c vars.
  FormulaId buildConsistent(const ParikhFormula &Pf, const SampleVars &Sv);
  /// φ_Copies (Eq. 19): copy tags follow their source sample immediately.
  FormulaId buildCopies(const ParikhFormula &Pf);
  /// φ_Pos (Eq. 42, with the copy-case off-by-one fixed; see Encoder.h).
  FormulaId buildPositions(const ParikhFormula &Pf, const SampleVars &Sv);

  /// φ^k_∃(s,v) (Eq. 44): side \p S of predicate \p D sampled inside
  /// variable \p X.
  FormulaId existsIn(const ParikhFormula &Pf, uint32_t D, Side S,
                     VarId X) {
    LinTerm Sum;
    for (uint32_t L = 1; L <= 2 * K; ++L) {
      Sum += misCountAllSyms(Pf, L, X, D, S);
      Sum += copyCount(Pf, L, X, D, S);
    }
    return A.cmp(Sum, Cmp::Ge, LinTerm(1));
  }

  /// The mismatch disjunction ⋁_{i,j} (Eq. 45): both sides of predicate
  /// \p D sampled, aligned according to \p Kind, symbols compared with
  /// \p WantEqual. \p Offset is added to the left-hand global position
  /// (κ for ¬contains, 0 otherwise).
  FormulaId mismatchDisjunction(const ParikhFormula &Pf,
                                const SampleVars &Sv, uint32_t D,
                                PredKind Kind, const LinTerm &Offset,
                                bool WantEqual = false);

  /// φ^k_Sat for one predicate (quantifier-free kinds only).
  FormulaId buildPredicateSat(const ParikhFormula &Pf, const SampleVars &Sv,
                              uint32_t D);

  Arena &A;
  const std::vector<PosPredicate> &Preds;
  const VarConcat &Vc;
  TagTable &Tags;
  uint32_t Sigma;
  bool EmitCopies;
  uint32_t K;
};

SampleVars SystemBuilder::makeSampleVars(const std::string &Prefix) {
  SampleVars Sv;
  for (uint32_t D = 0; D < K; ++D) {
    std::array<Var, 2> MRow, PRow;
    for (int S = 0; S < 2; ++S) {
      MRow[S] = A.freshVar(Prefix + "m" + std::to_string(D) +
                               (S == 0 ? "L" : "R"),
                           0, Sigma == 0 ? 0 : Sigma - 1);
      PRow[S] = A.freshVar(Prefix + "p" + std::to_string(D) +
                               (S == 0 ? "L" : "R"),
                           0);
    }
    Sv.M.push_back(MRow);
    Sv.P.push_back(PRow);
  }
  for (uint32_t L = 1; L <= 2 * K; ++L)
    Sv.C.push_back(A.freshVar(Prefix + "c" + std::to_string(L), 0,
                              Sigma == 0 ? 0 : Sigma - 1));
  return Sv;
}

FormulaId SystemBuilder::buildFair(const ParikhFormula &Pf) {
  std::vector<FormulaId> Parts;
  for (uint32_t D = 0; D < K; ++D)
    for (Side S : {Side::L, Side::R}) {
      LinTerm Sum;
      for (uint32_t L = 1; L <= 2 * K; ++L)
        for (VarId X : Vc.Order) {
          Sum += misCountAllSyms(Pf, L, X, D, S);
          Sum += copyCount(Pf, L, X, D, S);
        }
      Parts.push_back(A.cmp(Sum, Cmp::Le, LinTerm(1)));
    }
  return A.conj(std::move(Parts));
}

FormulaId SystemBuilder::buildConsistent(const ParikhFormula &Pf,
                                         const SampleVars &Sv) {
  std::vector<FormulaId> Parts;
  for (uint32_t D = 0; D < K; ++D)
    for (Side S : {Side::L, Side::R}) {
      int SI = S == Side::L ? 0 : 1;
      for (uint32_t L = 1; L <= 2 * K; ++L) {
        for (Symbol Sym = 0; Sym < Sigma; ++Sym) {
          LinTerm Sum;
          for (VarId X : Vc.Order)
            Sum += misCount(Pf, L, X, D, S, Sym);
          if (Sum.isConstant())
            continue; // tag occurs on no transition
          Parts.push_back(A.implies(
              A.cmp(Sum, Cmp::Ge, LinTerm(1)),
              A.conj({A.cmp(LinTerm::variable(Sv.C[L - 1]), Cmp::Eq,
                            LinTerm(static_cast<int64_t>(Sym))),
                      A.cmp(LinTerm::variable(Sv.M[D][SI]), Cmp::Eq,
                            LinTerm(static_cast<int64_t>(Sym)))})));
        }
        if (L >= 2 && EmitCopies) {
          LinTerm Sum;
          for (VarId X : Vc.Order)
            Sum += copyCount(Pf, L, X, D, S);
          if (Sum.isConstant())
            continue;
          Parts.push_back(A.implies(
              A.cmp(Sum, Cmp::Ge, LinTerm(1)),
              A.conj({A.cmp(LinTerm::variable(Sv.C[L - 1]), Cmp::Eq,
                            LinTerm::variable(Sv.M[D][SI])),
                      A.cmp(LinTerm::variable(Sv.C[L - 1]), Cmp::Eq,
                            LinTerm::variable(Sv.C[L - 2]))})));
        }
      }
    }
  return A.conj(std::move(Parts));
}

FormulaId SystemBuilder::buildCopies(const ParikhFormula &Pf) {
  if (!EmitCopies)
    return A.trueF();
  std::vector<FormulaId> Parts;
  for (VarId X : Vc.Order) {
    // A C_{l+1} for x requires an M_l or C_l for x (Eq. 19, part 1).
    for (uint32_t L = 1; L + 1 <= 2 * K; ++L) {
      LinTerm Prev, Next;
      for (uint32_t D = 0; D < K; ++D)
        for (Side S : {Side::L, Side::R}) {
          Prev += misCountAllSyms(Pf, L, X, D, S);
          Prev += copyCount(Pf, L, X, D, S);
          Next += copyCount(Pf, L + 1, X, D, S);
        }
      if (Next.isConstant())
        continue;
      Parts.push_back(A.implies(A.cmp(Prev, Cmp::Le, LinTerm(0)),
                                A.cmp(Next, Cmp::Eq, LinTerm(0))));
    }
    // A level-l copy for x follows its source without consuming further
    // x-letters: #⟨P_l,x⟩ equals the number of level-(l-1) M samples in x
    // (1 when the source is an M — its own letter carries the P_l tag —
    // and 0 when chained after another copy). (Eq. 19, part 2.)
    for (uint32_t L = 2; L <= 2 * K; ++L) {
      LinTerm CSum;
      for (uint32_t D = 0; D < K; ++D)
        for (Side S : {Side::L, Side::R})
          CSum += copyCount(Pf, L, X, D, S);
      if (CSum.isConstant())
        continue;
      LinTerm MSum;
      for (uint32_t D = 0; D < K; ++D)
        for (Side S : {Side::L, Side::R})
          MSum += misCountAllSyms(Pf, L - 1, X, D, S);
      Parts.push_back(A.implies(A.cmp(CSum, Cmp::Ge, LinTerm(1)),
                                A.cmp(posCount(Pf, L, X), Cmp::Eq, MSum)));
    }
  }
  return A.conj(std::move(Parts));
}

FormulaId SystemBuilder::buildPositions(const ParikhFormula &Pf,
                                        const SampleVars &Sv) {
  std::vector<FormulaId> Parts;
  for (uint32_t D = 0; D < K; ++D)
    for (Side S : {Side::L, Side::R}) {
      int SI = S == Side::L ? 0 : 1;
      LinTerm PVar = LinTerm::variable(Sv.P[D][SI]);
      for (VarId X : Vc.Order) {
        LinTerm PosPrefix; // Σ_{k<=l} #⟨P_k,x⟩, accumulated over levels
        for (uint32_t L = 1; L <= 2 * K; ++L) {
          PosPrefix += posCount(Pf, L, X);
          // Direct sample M_l in x: p = Σ_{k<=l} #P_k,x — the sampled
          // letter itself carries P_{l+1} and is excluded.
          LinTerm MSum = misCountAllSyms(Pf, L, X, D, S);
          if (!MSum.isConstant())
            Parts.push_back(A.implies(A.cmp(MSum, Cmp::Ge, LinTerm(1)),
                                      A.cmp(PVar, Cmp::Eq, PosPrefix)));
          // Copy C_l of x's latest sample: the source letter was already
          // counted at its own level, hence the -1 (erratum fix, see
          // Encoder.h).
          LinTerm CSum = copyCount(Pf, L, X, D, S);
          if (!CSum.isConstant())
            Parts.push_back(
                A.implies(A.cmp(CSum, Cmp::Ge, LinTerm(1)),
                          A.cmp(PVar, Cmp::Eq, PosPrefix - LinTerm(1))));
        }
      }
    }
  return A.conj(std::move(Parts));
}

FormulaId SystemBuilder::mismatchDisjunction(const ParikhFormula &Pf,
                                             const SampleVars &Sv,
                                             uint32_t D, PredKind Kind,
                                             const LinTerm &Offset,
                                             bool WantEqual) {
  const PosPredicate &Pred = Preds[D];
  LinTerm PL = LinTerm::variable(Sv.P[D][0]);
  LinTerm PR = LinTerm::variable(Sv.P[D][1]);
  LinTerm ML = LinTerm::variable(Sv.M[D][0]);
  LinTerm MR = LinTerm::variable(Sv.M[D][1]);
  LinTerm TotalL = sideLen(Pf, Pred.Lhs) + Offset;
  LinTerm TotalR = sideLen(Pf, Pred.Rhs);

  std::vector<FormulaId> Cases;
  for (size_t I = 0; I < Pred.Lhs.size(); ++I)
    for (size_t J = 0; J < Pred.Rhs.size(); ++J) {
      LinTerm GlobalL = Offset + prefixLen(Pf, Pred.Lhs, I) + PL;
      LinTerm GlobalR = prefixLen(Pf, Pred.Rhs, J) + PR;
      FormulaId Align =
          Kind == PredKind::NotSuffix
              // ¬suffixof counts the mismatch from the end (Sec. 6.2).
              ? A.cmp(TotalL - GlobalL, Cmp::Eq, TotalR - GlobalR)
              : A.cmp(GlobalL, Cmp::Eq, GlobalR);
      Cases.push_back(A.conj({
          existsIn(Pf, D, Side::L, Pred.Lhs[I]),
          existsIn(Pf, D, Side::R, Pred.Rhs[J]),
          Align,
          A.cmp(ML, WantEqual ? Cmp::Eq : Cmp::Ne, MR),
      }));
    }
  return A.disj(std::move(Cases));
}

FormulaId SystemBuilder::buildPredicateSat(const ParikhFormula &Pf,
                                           const SampleVars &Sv,
                                           uint32_t D) {
  const PosPredicate &Pred = Preds[D];
  LinTerm TotalL = sideLen(Pf, Pred.Lhs);
  LinTerm TotalR = sideLen(Pf, Pred.Rhs);
  LinTerm Zero;

  switch (Pred.Kind) {
  case PredKind::Diseq:
    // φ^II_len ∨ mismatch (Eqs. 7, 15): unequal lengths or a mismatch at
    // one global position.
    return A.disj({A.cmp(TotalL, Cmp::Ne, TotalR),
                   mismatchDisjunction(Pf, Sv, D, Pred.Kind, Zero)});
  case PredKind::NotPrefix:
  case PredKind::NotSuffix:
    // φ^∗FIX_len (Eq. 22): the first argument strictly longer, or a
    // mismatch (aligned from the end for ¬suffixof).
    return A.disj({A.cmp(TotalL, Cmp::Gt, TotalR),
                   mismatchDisjunction(Pf, Sv, D, Pred.Kind, Zero)});
  case PredKind::StrAtEq:
  case PredKind::StrAtNe: {
    // Sec. 6.3. The left side is xs — one variable, or several when a
    // decomposition split it; the sample is its only letter whenever
    // |xs| = 1, and sits in whichever left variable holds that letter.
    LinTerm T = Pred.AtPos;
    FormulaId InBounds =
        A.conj({A.cmp(T, Cmp::Ge, LinTerm(0)), A.cmp(T, Cmp::Lt, TotalR)});
    LinTerm PR = LinTerm::variable(Sv.P[D][1]);
    // ⋁_{i,j}: the right-side sample sits exactly at position t (Eq. 25).
    std::vector<FormulaId> AtCases;
    for (size_t I = 0; I < Pred.Lhs.size(); ++I)
      for (size_t J = 0; J < Pred.Rhs.size(); ++J)
        AtCases.push_back(
            A.conj({existsIn(Pf, D, Side::L, Pred.Lhs[I]),
                    existsIn(Pf, D, Side::R, Pred.Rhs[J]),
                    A.cmp(T, Cmp::Eq, prefixLen(Pf, Pred.Rhs, J) + PR)}));
    FormulaId AtMatch = A.disj(std::move(AtCases));
    FormulaId SymCmp =
        A.cmp(LinTerm::variable(Sv.M[D][0]),
              Pred.Kind == PredKind::StrAtEq ? Cmp::Eq : Cmp::Ne,
              LinTerm::variable(Sv.M[D][1]));
    FormulaId Len0 = A.cmp(TotalL, Cmp::Eq, LinTerm(0));
    FormulaId Len1 = A.cmp(TotalL, Cmp::Eq, LinTerm(1));
    if (Pred.Kind == PredKind::StrAtEq)
      // (|xs|=0 ∧ ¬InBounds) ∨ (|xs|=1 ∧ InBounds ∧ same symbol) (Eq. 28)
      return A.disj({A.conj({Len0, A.neg(InBounds)}),
                     A.conj({Len1, InBounds, SymCmp, AtMatch})});
    // Eq. 27, plus the missing |xs| = 0 ∧ InBounds case (erratum fix).
    return A.disj({A.conj({A.cmp(TotalL, Cmp::Gt, LinTerm(0)),
                           A.neg(InBounds)}),
                   A.cmp(TotalL, Cmp::Gt, LinTerm(1)),
                   A.conj({Len0, InBounds}),
                   A.conj({Len1, InBounds, SymCmp, AtMatch})});
  }
  case PredKind::NotContains:
    assert(false && "NotContains has no quantifier-free Sat part");
    return A.trueF();
  }
  assert(false && "bad predicate kind");
  return A.trueF();
}

/// EqualWords(#1, #2) (Eq. 30): the two runs project to the same
/// multiset of A_◦ transitions. With flat languages this pins the same
/// string assignment.
FormulaId buildEqualWords(Arena &A, const TagAutomaton &Ta,
                          const VarConcat &Vc, const ParikhFormula &Pf1,
                          const ParikhFormula &Pf2) {
  std::vector<LinTerm> Sum1(Vc.BaseDelta.size()), Sum2(Vc.BaseDelta.size());
  for (uint32_t I = 0; I < Ta.transitions().size(); ++I) {
    uint32_t B = Ta.transitions()[I].BaseIdx;
    if (B == TaTransition::NoBase)
      continue;
    Sum1[B].addMonomial(Pf1.TransCount[I], 1);
    Sum2[B].addMonomial(Pf2.TransCount[I], 1);
  }
  std::vector<FormulaId> Parts;
  for (uint32_t B = 0; B < Vc.BaseDelta.size(); ++B)
    Parts.push_back(A.cmp(Sum1[B], Cmp::Eq, Sum2[B]));
  return A.conj(std::move(Parts));
}

} // namespace

bool postr::tagaut::notContainsVarsFlat(
    const std::map<VarId, automata::Nfa> &Langs,
    const std::vector<PosPredicate> &Preds) {
  std::set<VarId> Vars;
  for (const PosPredicate &P : Preds) {
    if (P.Kind != PredKind::NotContains)
      continue;
    Vars.insert(P.Lhs.begin(), P.Lhs.end());
    Vars.insert(P.Rhs.begin(), P.Rhs.end());
  }
  for (VarId X : Vars) {
    auto It = Langs.find(X);
    if (It == Langs.end() || !It->second.isFlat())
      return false;
  }
  return true;
}

SystemEncoding postr::tagaut::encodeSystem(
    lia::Arena &A, const std::map<VarId, automata::Nfa> &Langs,
    const std::vector<PosPredicate> &Preds, uint32_t AlphabetSize,
    const EncoderOptions &Opts) {
  assert(AlphabetSize > 0 && "alphabet must be non-empty");
#ifndef NDEBUG
  for (const auto &[X, Nfa] : Langs) {
    assert(!Nfa.hasEpsilon() && "variable automata must be epsilon-free");
    (void)X;
  }
  for (const PosPredicate &P : Preds) {
    for (VarId X : P.Lhs)
      assert(Langs.count(X) && "predicate variable without language");
    for (VarId X : P.Rhs)
      assert(Langs.count(X) && "predicate variable without language");
  }
  assert(notContainsVarsFlat(Langs, Preds) &&
         "NotContains requires flat languages (check before encoding)");
#endif

  SystemEncoding Enc;
  Budget *Bud = Opts.Budget;
  // Phase probe: true means keep going. On a trip the function returns
  // the partial encoding immediately; the caller checks Bud->exceeded().
  auto Probe = [Bud] { return !Bud || Bud->checkpoint("tagaut.encode"); };
  uint32_t FirstVar = A.numVars();
  Enc.Vc = buildVarConcat(Langs);
  SystemTaOptions TaOpts;
  TaOpts.NumPreds = static_cast<uint32_t>(Preds.size());
  TaOpts.AlphabetSize = AlphabetSize;
  // Copies are needed whenever two samples may target the same letter:
  // always with >= 2 predicates, and for x = str.at(...) even alone (the
  // two sides of e.g. x = str.at(x, 0) sample one physical letter). The
  // mismatch-style predicates require *different* symbols, so a shared
  // letter can never witness them.
  bool AnyStrAtEq = std::any_of(
      Preds.begin(), Preds.end(),
      [](const PosPredicate &P) { return P.Kind == PredKind::StrAtEq; });
  TaOpts.EmitCopies = Opts.EmitCopies && (Preds.size() > 1 || AnyStrAtEq);
  Enc.Ta = buildSystemTagAutomaton(Enc.Vc, TaOpts, Enc.Tags);
  if (Bud)
    Bud->chargeMem(Enc.Ta.transitions().size() * sizeof(TaTransition) +
                   Enc.Ta.numStates() * 16);
  if (!Probe())
    return Enc;
  bool AnyNotContains = std::any_of(
      Preds.begin(), Preds.end(),
      [](const PosPredicate &P) { return P.Kind == PredKind::NotContains; });
  Enc.Span = AnyNotContains ? SpanMode::Eager : Opts.Span;
  Enc.Pf = buildParikhFormula(Enc.Ta, A, "o.", Enc.Span, Bud);
  if (!Probe())
    return Enc;

  SystemBuilder B(A, Preds, Enc.Vc, Enc.Tags, AlphabetSize,
                  TaOpts.EmitCopies);
  SampleVars Sv = B.makeSampleVars("o.");

  for (VarId X : Enc.Vc.Order)
    Enc.LenTerms[X] = B.lenTerm(Enc.Pf, X);

  std::vector<FormulaId> OuterParts{Enc.Pf.Formula, B.buildFair(Enc.Pf),
                                    B.buildConsistent(Enc.Pf, Sv),
                                    B.buildCopies(Enc.Pf),
                                    B.buildPositions(Enc.Pf, Sv)};
  for (uint32_t D = 0; D < Preds.size(); ++D) {
    if (Preds[D].Kind == PredKind::NotContains)
      continue;
    OuterParts.push_back(B.buildPredicateSat(Enc.Pf, Sv, D));
  }
  Enc.Outer = A.conj(std::move(OuterParts));
  if (!Probe())
    return Enc;

  // One ∀κ block per ¬contains (Eq. 32): fresh #2 Parikh instance, same
  // words (EqualWords), and a mismatch for the offset κ.
  for (uint32_t D = 0; D < Preds.size(); ++D) {
    if (Preds[D].Kind != PredKind::NotContains)
      continue;
    if (!Probe())
      return Enc;
    std::string Prefix = "i" + std::to_string(D) + ".";
    lia::Var FirstInner = A.numVars();
    ParikhFormula Pf2 =
        buildParikhFormula(Enc.Ta, A, Prefix, SpanMode::Eager, Bud);
    SampleVars Sv2 = B.makeSampleVars(Prefix);
    lia::ForallBlock Block;
    Block.Kappa = A.freshVar(Prefix + "kappa", 0);
    Block.Upper = B.sideLen(Enc.Pf, Preds[D].Rhs) -
                  B.sideLen(Enc.Pf, Preds[D].Lhs);
    LinTerm Offset = LinTerm::variable(Block.Kappa);
    Block.Inner = A.conj({
        Pf2.Formula,
        buildEqualWords(A, Enc.Ta, Enc.Vc, Enc.Pf, Pf2),
        B.buildFair(Pf2),
        B.buildConsistent(Pf2, Sv2),
        B.buildCopies(Pf2),
        B.buildPositions(Pf2, Sv2),
        B.mismatchDisjunction(Pf2, Sv2, D, PredKind::NotContains, Offset),
    });
    // Everything minted for this block except κ is inner-existential;
    // the MBQI instantiation lemmas re-clone these per offset.
    for (lia::Var V = FirstInner; V < A.numVars(); ++V)
      if (V != Block.Kappa)
        Block.InnerVars.push_back(V);
    Enc.Blocks.push_back(std::move(Block));
  }

  // Outer variables (pinned for MBQI inner queries): the outer transition
  // counts — they determine the encoded assignment.
  for (lia::Var V : Enc.Pf.TransCount)
    Enc.OuterVars.push_back(V);
  // Semantic blocking terms: project outer counts onto A_◦ transitions
  // (the #1 side of EqualWords) so MBQI excludes a refuted *string
  // assignment* wholesale rather than one run of it.
  if (!Enc.Blocks.empty()) {
    std::vector<LinTerm> Sums(Enc.Vc.BaseDelta.size());
    for (uint32_t I = 0; I < Enc.Ta.transitions().size(); ++I) {
      uint32_t Base = Enc.Ta.transitions()[I].BaseIdx;
      if (Base != TaTransition::NoBase)
        Sums[Base].addMonomial(Enc.Pf.TransCount[I], 1);
    }
    Enc.BlockTerms = std::move(Sums);
  }
  (void)FirstVar;
  return Enc;
}

std::map<VarId, Word>
SystemEncoding::decode(const std::vector<int64_t> &Model) const {
  std::vector<uint32_t> Run = decodeRun(Ta, Pf, Model);
  std::map<VarId, Word> Assignment = runToAssignment(Ta, Tags, Run);
  // Variables whose word is empty do not appear in the run's S tags.
  for (VarId X : Vc.Order)
    Assignment.try_emplace(X, Word{});
  return Assignment;
}
