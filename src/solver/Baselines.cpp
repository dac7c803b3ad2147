//===- solver/Baselines.cpp - Comparison solvers ---------------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "solver/Baselines.h"

#include "base/Budget.h"
#include "strings/Eval.h"

#include <algorithm>

using namespace postr;
using namespace postr::solver;
using namespace postr::strings;
using automata::Nfa;
using tagaut::PredKind;

namespace {

//===----------------------------------------------------------------------===
// Eq-reduction baseline
//===----------------------------------------------------------------------===

/// One case-split branch of a reduced predicate: extra equations, extra
/// integer atoms, and languages for the fresh variables it introduces.
struct Branch {
  std::vector<eq::WordEquation> Equations;
  std::vector<NormIntAtom> IntAtoms;
  std::map<VarId, Nfa> Langs;
  /// True for under-approximating branches (non-flat ¬contains): their
  /// failure cannot contribute to an Unsat verdict.
  bool Approximate = false;
};

class EqReducer {
public:
  EqReducer(const Problem &P, const EqReductionOptions &Opts)
      : P(P), Opts(Opts),
        LocalBud(Budget::Limits{Opts.TimeoutMs, 0, 0, nullptr}),
        Bud(Opts.Budget ? Opts.Budget : &LocalBud) {}

  SolveResult run();

private:
  /// Budget probe between branch systems; records the first reason.
  bool stopped() {
    if (Bud->checkpoint("solver.disjunct"))
      return false;
    if (Stop == StopReason::None)
      Stop = Bud->reason();
    return true;
  }

  VarId fresh() { return NextFresh++; }
  VarId freshUniversal(Branch &B) {
    VarId X = fresh();
    B.Langs[X] = Nfa::universal(NF.Sigma.size());
    return X;
  }
  VarId freshLetter(Branch &B, Symbol A) {
    VarId X = fresh();
    B.Langs[X] = Nfa::fromWord(NF.Sigma.size(), {A});
    return X;
  }
  static IntTerm lenOfSeq(const std::vector<VarId> &Seq) {
    IntTerm T;
    for (VarId X : Seq)
      T.LenVars.push_back({X, 1});
    return T;
  }

  /// Expands one predicate into its reduction branches.
  std::vector<Branch> expand(const NormPred &Pred);

  /// Solves equations + atoms (no position predicates left).
  Verdict solveBranchSystem(const std::vector<eq::WordEquation> &Eqs,
                            const std::vector<NormIntAtom> &Atoms,
                            const std::map<VarId, Nfa> &Langs);

  const Problem &P;
  EqReductionOptions Opts;
  Budget LocalBud; ///< used when Opts.Budget is null
  Budget *Bud;
  StopReason Stop = StopReason::None;
  NormalForm NF;
  VarId NextFresh = 0;
};

std::vector<Branch> EqReducer::expand(const NormPred &Pred) {
  std::vector<Branch> Out;
  uint32_t Sigma = NF.Sigma.size();
  const std::vector<VarId> &L = Pred.Lhs;
  const std::vector<VarId> &R = Pred.Rhs;

  auto MismatchBranches = [&](bool FromEnd) {
    // L = p·a·u ∧ R = p·b·v with a ≠ b (mirrored around a common suffix
    // for ¬suffixof). One branch per ordered symbol pair.
    for (Symbol A = 0; A < Sigma; ++A)
      for (Symbol B = 0; B < Sigma; ++B) {
        if (A == B)
          continue;
        Branch Br;
        VarId Pv = freshUniversal(Br);
        VarId Uv = freshUniversal(Br);
        VarId Vv = freshUniversal(Br);
        VarId Ca = freshLetter(Br, A);
        VarId Cb = freshLetter(Br, B);
        if (!FromEnd) {
          Br.Equations.push_back({L, {Pv, Ca, Uv}});
          Br.Equations.push_back({R, {Pv, Cb, Vv}});
          // Equal mismatch position: |p| is shared, nothing more needed.
        } else {
          Br.Equations.push_back({L, {Uv, Ca, Pv}});
          Br.Equations.push_back({R, {Vv, Cb, Pv}});
        }
        Out.push_back(std::move(Br));
      }
  };

  switch (Pred.Kind) {
  case PredKind::Diseq: {
    Branch LenNe;
    LenNe.IntAtoms.push_back({lenOfSeq(L), lia::Cmp::Ne, lenOfSeq(R)});
    Out.push_back(std::move(LenNe));
    MismatchBranches(/*FromEnd=*/false);
    return Out;
  }
  case PredKind::NotPrefix:
  case PredKind::NotSuffix: {
    Branch LenGt;
    LenGt.IntAtoms.push_back({lenOfSeq(L), lia::Cmp::Gt, lenOfSeq(R)});
    Out.push_back(std::move(LenGt));
    MismatchBranches(Pred.Kind == PredKind::NotSuffix);
    return Out;
  }
  case PredKind::StrAtEq: {
    // Out of bounds: xs = ε ∧ (pos < 0 ∨ pos >= |R|).
    for (int Neg = 0; Neg < 2; ++Neg) {
      Branch Br;
      Br.IntAtoms.push_back(
          {lenOfSeq(L), lia::Cmp::Eq, IntTerm::constant(0)});
      if (Neg)
        Br.IntAtoms.push_back({Pred.AtPos, lia::Cmp::Lt,
                               IntTerm::constant(0)});
      else
        Br.IntAtoms.push_back({Pred.AtPos, lia::Cmp::Ge, lenOfSeq(R)});
      Out.push_back(std::move(Br));
    }
    // In bounds: R = p·xs·s with |p| = pos and |xs| = 1.
    {
      Branch Br;
      VarId Pv = freshUniversal(Br);
      VarId Sv = freshUniversal(Br);
      std::vector<VarId> Rhs{Pv};
      Rhs.insert(Rhs.end(), L.begin(), L.end());
      Rhs.push_back(Sv);
      Br.Equations.push_back({R, Rhs});
      Br.IntAtoms.push_back(
          {IntTerm::lenOf(Pv), lia::Cmp::Eq, Pred.AtPos});
      Br.IntAtoms.push_back(
          {lenOfSeq(L), lia::Cmp::Eq, IntTerm::constant(1)});
      Out.push_back(std::move(Br));
    }
    return Out;
  }
  case PredKind::StrAtNe: {
    // |xs| >= 2 always differs from ε / a single character.
    {
      Branch Br;
      Br.IntAtoms.push_back(
          {lenOfSeq(L), lia::Cmp::Ge, IntTerm::constant(2)});
      Out.push_back(std::move(Br));
    }
    // Out of bounds with xs non-empty.
    for (int Neg = 0; Neg < 2; ++Neg) {
      Branch Br;
      Br.IntAtoms.push_back(
          {lenOfSeq(L), lia::Cmp::Ge, IntTerm::constant(1)});
      if (Neg)
        Br.IntAtoms.push_back({Pred.AtPos, lia::Cmp::Lt,
                               IntTerm::constant(0)});
      else
        Br.IntAtoms.push_back({Pred.AtPos, lia::Cmp::Ge, lenOfSeq(R)});
      Out.push_back(std::move(Br));
    }
    // In bounds, xs = ε.
    {
      Branch Br;
      Br.IntAtoms.push_back(
          {lenOfSeq(L), lia::Cmp::Eq, IntTerm::constant(0)});
      Br.IntAtoms.push_back(
          {Pred.AtPos, lia::Cmp::Ge, IntTerm::constant(0)});
      Br.IntAtoms.push_back({Pred.AtPos, lia::Cmp::Lt, lenOfSeq(R)});
      Out.push_back(std::move(Br));
    }
    // In bounds, |xs| = 1 and the characters differ.
    for (Symbol A = 0; A < Sigma; ++A)
      for (Symbol B = 0; B < Sigma; ++B) {
        if (A == B)
          continue;
        Branch Br;
        VarId Pv = freshUniversal(Br);
        VarId Sv = freshUniversal(Br);
        VarId Ca = freshLetter(Br, A);
        VarId Cb = freshLetter(Br, B);
        Br.Equations.push_back({L, {Ca}});
        Br.Equations.push_back({R, {Pv, Cb, Sv}});
        Br.IntAtoms.push_back(
            {IntTerm::lenOf(Pv), lia::Cmp::Eq, Pred.AtPos});
        Out.push_back(std::move(Br));
      }
    return Out;
  }
  case PredKind::NotContains: {
    // No quantifier-free equation reduction exists (Sec. 1); the
    // baseline keeps only the |u| > |v| under-approximation.
    Branch Br;
    Br.IntAtoms.push_back({lenOfSeq(L), lia::Cmp::Gt, lenOfSeq(R)});
    Br.Approximate = true;
    Out.push_back(std::move(Br));
    return Out;
  }
  }
  assert(false && "bad predicate kind");
  return Out;
}

Verdict EqReducer::solveBranchSystem(
    const std::vector<eq::WordEquation> &Eqs,
    const std::vector<NormIntAtom> &Atoms,
    const std::map<VarId, Nfa> &Langs) {
  VarId Next = NextFresh;
  eq::StabilizeOptions StabOpts = Opts.Stabilize;
  if (!StabOpts.Budget)
    StabOpts.Budget = Bud;
  eq::StabilizeResult Stab = eq::stabilize(Langs, Eqs, Next, StabOpts);
  bool AnyUnknown = !Stab.Complete;
  if (!Stab.Complete && Stop == StopReason::None)
    Stop = Stab.Stop;
  for (const eq::Decomposition &D : Stab.Disjuncts) {
    if (stopped())
      return Verdict::Unknown;
    lia::Arena A;
    tagaut::IntConstraintBuilder IntBuilder =
        [&](lia::Arena &Ar, const std::map<VarId, lia::LinTerm> &LenTerms)
        -> lia::FormulaId {
      auto ToLin = [&](const IntTerm &T) {
        lia::LinTerm Out(T.Const);
        assert(T.IntVars.empty() &&
               "eq-reduction baseline supports length terms only");
        for (auto [X, C] : T.LenVars) {
          lia::LinTerm Sum;
          for (VarId Term : D.Subst.at(X))
            Sum += LenTerms.at(Term);
          Out += Sum * C;
        }
        return Out;
      };
      std::vector<lia::FormulaId> Parts;
      for (const NormIntAtom &Atom : Atoms)
        Parts.push_back(Ar.cmp(ToLin(Atom.Lhs), Atom.Op, ToLin(Atom.Rhs)));
      return Ar.conj(std::move(Parts));
    };
    tagaut::MpOptions MpOpts = Opts.Mp;
    if (!MpOpts.Budget)
      MpOpts.Budget = Bud;
    tagaut::MpResult R =
        tagaut::solveMP(A, D.Langs, {}, NF.Sigma.size(), IntBuilder, MpOpts);
    if (R.V == Verdict::Sat)
      return Verdict::Sat;
    if (R.V == Verdict::Unknown) {
      AnyUnknown = true;
      if (Stop == StopReason::None)
        Stop = R.Stop;
    }
  }
  return AnyUnknown ? Verdict::Unknown : Verdict::Unsat;
}

SolveResult EqReducer::run() {
  SolveResult Result;
  NF = normalize(P);
  NextFresh = NF.NextFresh;

  // Expand every predicate; take the cross product of branches.
  std::vector<std::vector<Branch>> PerPred;
  for (const NormPred &Pred : NF.Preds)
    PerPred.push_back(expand(Pred));

  uint64_t Total = 1;
  for (const std::vector<Branch> &B : PerPred) {
    Total *= B.size();
    if (Total > Opts.MaxBranches) {
      Result.V = Verdict::Unknown;
      Result.Stop = StopReason::StepBudget; // engine-internal branch cap
      return Result;
    }
  }

  bool AnyUnknown = false;
  std::vector<size_t> Idx(PerPred.size(), 0);
  for (uint64_t Count = 0; Count < Total; ++Count) {
    if (stopped()) {
      Result.V = Verdict::Unknown;
      Result.Stop = Stop;
      return Result;
    }
    std::vector<eq::WordEquation> Eqs = NF.Equations;
    std::vector<NormIntAtom> Atoms = NF.IntAtoms;
    std::map<VarId, Nfa> Langs = NF.Langs;
    bool Approximate = false;
    for (size_t I = 0; I < PerPred.size(); ++I) {
      const Branch &B = PerPred[I][Idx[I]];
      Eqs.insert(Eqs.end(), B.Equations.begin(), B.Equations.end());
      Atoms.insert(Atoms.end(), B.IntAtoms.begin(), B.IntAtoms.end());
      for (const auto &[X, Lang] : B.Langs)
        Langs.emplace(X, Lang);
      Approximate |= B.Approximate;
    }
    Verdict V = solveBranchSystem(Eqs, Atoms, Langs);
    if (V == Verdict::Sat) {
      Result.V = Verdict::Sat;
      return Result;
    }
    if (V == Verdict::Unknown)
      AnyUnknown = true;
    // Branches that only under-approximate cannot witness Unsat.
    bool AllApprox = Approximate;
    if (AllApprox && V == Verdict::Unsat)
      AnyUnknown = true;
    // Odometer.
    for (size_t I = 0; I < Idx.size(); ++I) {
      if (++Idx[I] < PerPred[I].size())
        break;
      Idx[I] = 0;
    }
  }
  Result.V = AnyUnknown ? Verdict::Unknown : Verdict::Unsat;
  if (Result.V == Verdict::Unknown)
    Result.Stop = Stop;
  return Result;
}

//===----------------------------------------------------------------------===
// Enumeration baseline
//===----------------------------------------------------------------------===

/// Longest accepted word if the language is finite; nullopt otherwise.
std::optional<uint32_t> finiteMaxLen(const Nfa &In) {
  Nfa A = In.trim();
  // Finite iff the trimmed automaton is acyclic; the longest path length
  // is then the max word length.
  uint32_t N = A.numStates();
  std::vector<uint32_t> Indegree(N, 0);
  for (const automata::Transition &T : A.transitions())
    ++Indegree[T.To];
  std::vector<uint32_t> Order, Stack;
  for (uint32_t Q = 0; Q < N; ++Q)
    if (Indegree[Q] == 0)
      Stack.push_back(Q);
  while (!Stack.empty()) {
    uint32_t Q = Stack.back();
    Stack.pop_back();
    Order.push_back(Q);
    auto [Begin, End] = A.outgoing(Q);
    for (const automata::Transition *T = Begin; T != End; ++T)
      if (--Indegree[T->To] == 0)
        Stack.push_back(T->To);
  }
  if (Order.size() != N)
    return std::nullopt; // cycle
  std::vector<uint32_t> Longest(N, 0);
  std::optional<uint32_t> Best;
  for (uint32_t Q : Order) {
    if (A.isFinal(Q))
      Best = Best ? std::max(*Best, Longest[Q]) : Longest[Q];
    auto [Begin, End] = A.outgoing(Q);
    for (const automata::Transition *T = Begin; T != End; ++T)
      Longest[T->To] = std::max(Longest[T->To], Longest[Q] + 1);
  }
  return Best ? Best : std::optional<uint32_t>(0);
}

} // namespace

SolveResult postr::solver::solveEqReduction(const Problem &P,
                                            const EqReductionOptions &Opts) {
  EqReducer R(P, Opts);
  return R.run();
}

SolveResult postr::solver::solveEnum(const Problem &P,
                                     const EnumOptions &Opts) {
  Budget Bud(Opts.Budget ? Opts.Budget->childLimits(Opts.TimeoutMs)
                         : Budget::Limits{Opts.TimeoutMs});

  SolveResult Result;
  NormalForm NF = normalize(P);
  ConcreteEvaluator Eval(P, NF.Sigma);

  if (P.numIntVars() > Opts.MaxIntVars) {
    Result.V = Verdict::Unknown;
    Result.Stop = StopReason::StepBudget; // engine-internal cap
    return Result;
  }

  // Word choices per original variable, shortest first (the guessing
  // profile: small models are found quickly).
  std::vector<VarId> Vars;
  std::vector<std::vector<Word>> Choices;
  bool Exhaustive = true;
  for (VarId X = 0; X < P.numStrVars(); ++X) {
    const Nfa &Lang = NF.Langs.at(X);
    if (Lang.isEmpty()) {
      Result.V = Verdict::Unsat;
      return Result;
    }
    std::optional<uint32_t> Fin = finiteMaxLen(Lang);
    if (!Fin || *Fin > Opts.MaxWordLen)
      Exhaustive = false;
    std::vector<Word> Words = Lang.enumerateWords(Opts.MaxWordLen);
    Bud.chargeMem(Words.size() * (sizeof(Word) + 8));
    if (Words.empty()) {
      // Non-empty language, but no word within the bound.
      Result.V = Verdict::Unknown;
      Result.Stop = StopReason::StepBudget;
      return Result;
    }
    if (!Bud.checkpoint("solver.enum")) {
      Result.V = Verdict::Unknown;
      Result.Stop = Bud.reason();
      return Result;
    }
    std::stable_sort(Words.begin(), Words.end(),
                     [](const Word &A, const Word &B) {
                       return A.size() < B.size();
                     });
    Vars.push_back(X);
    Choices.push_back(std::move(Words));
  }
  // Integer variable ranges.
  int64_t IntLo = -1, IntHi = Opts.MaxIntValue;
  if (P.numIntVars() > 0)
    Exhaustive = false; // integers are never exhaustively enumerable

  std::vector<size_t> Idx(Vars.size(), 0);
  uint64_t Steps = 0;
  for (;;) {
    std::map<VarId, Word> Strs;
    for (size_t I = 0; I < Vars.size(); ++I)
      Strs[Vars[I]] = Choices[I][Idx[I]];

    // Enumerate integer assignments for this word assignment.
    std::vector<int64_t> IntVals(P.numIntVars(), IntLo);
    for (;;) {
      // Budget probe (deadline, cancel, memory, steps) every 64
      // evaluations.
      if ((++Steps & 63) == 0 && !Bud.checkpoint("solver.enum")) {
        Result.V = Verdict::Unknown;
        Result.Stop = Bud.reason();
        return Result;
      }
      std::map<IntVarId, int64_t> Ints;
      for (IntVarId V = 0; V < P.numIntVars(); ++V)
        Ints[V] = IntVals[V];
      if (Eval.evalAll(Strs, Ints)) {
        Result.V = Verdict::Sat;
        Result.Words = std::move(Strs);
        Result.Ints = std::move(Ints);
        return Result;
      }
      // Integer odometer.
      size_t IPos = 0;
      while (IPos < IntVals.size() && ++IntVals[IPos] > IntHi) {
        IntVals[IPos] = IntLo;
        ++IPos;
      }
      if (IPos == IntVals.size())
        break;
    }

    // Word odometer.
    size_t Pos = 0;
    while (Pos < Idx.size() && ++Idx[Pos] == Choices[Pos].size()) {
      Idx[Pos] = 0;
      ++Pos;
    }
    if (Pos == Idx.size())
      break;
  }
  Result.V = Exhaustive ? Verdict::Unsat : Verdict::Unknown;
  if (Result.V == Verdict::Unknown)
    Result.Stop = StopReason::StepBudget; // enumeration bound exhausted
  return Result;
}
