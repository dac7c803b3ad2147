//===- solver/PositionSolver.cpp - The Z3-Noodler-pos pipeline -------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "solver/PositionSolver.h"

#include "base/Budget.h"
#include "solver/Baselines.h"
#include "strings/Eval.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>

using namespace postr;
using namespace postr::solver;
using namespace postr::strings;
using automata::Nfa;
using tagaut::PosPredicate;
using tagaut::PredKind;

namespace {

/// POSTR_SELFCHECK=paranoid turns on the Unsat-vs-enumeration cross-check
/// process-wide, without touching SolveOptions (read once; the usual
/// pattern for deployment knobs in this codebase).
bool paranoidSelfCheckEnv() {
  static const bool On = [] {
    const char *E = std::getenv("POSTR_SELFCHECK");
    return E && std::strcmp(E, "paranoid") == 0;
  }();
  return On;
}

/// POSTR_SELFCHECK=certify turns on certificate production + in-process
/// kernel verification for every Unsat, process-wide (see
/// SolveOptions::CertifyUnsat).
bool certifySelfCheckEnv() {
  static const bool On = [] {
    const char *E = std::getenv("POSTR_SELFCHECK");
    return E && std::strcmp(E, "certify") == 0;
  }();
  return On;
}

class Pipeline {
public:
  Pipeline(const Problem &P, const SolveOptions &Opts)
      : P(P), Opts(Opts),
        RootBud(Budget::Limits{Opts.TimeoutMs, Opts.MemLimitBytes,
                               Opts.StepLimit, nullptr}),
        Root(Opts.Budget ? Opts.Budget : &RootBud) {}

  SolveResult run();

private:
  SolveResult runImpl();

  /// The model-validation evaluator, built on first use (regex
  /// compilation is the expensive part) and shared by every disjunct.
  const ConcreteEvaluator &evaluator() {
    if (!Eval)
      Eval = std::make_unique<ConcreteEvaluator>(P, NF.Sigma);
    return *Eval;
  }
  /// Root budget probe between disjuncts; \p StopOut records the first
  /// trip reason.
  bool stopped(StopReason &StopOut) const {
    if (Root->checkpoint("solver.disjunct"))
      return false;
    if (StopOut == StopReason::None)
      StopOut = Root->reason();
    return true;
  }
  /// Limits of one disjunct's child budget: the root's remaining time,
  /// the full memory/step allowance (disjunct state is independent and
  /// freed when the disjunct finishes), and the root's cancel flag and a
  /// parent link so an external cancel or a root trip stops the disjunct
  /// mid-solve. All the deadline math lives in Budget::childLimits.
  Budget::Limits childLimits() const {
    return Root->childLimits(0, Opts.MemLimitBytes, Opts.StepLimit);
  }

  /// Applies a decomposition's substitution to an occurrence sequence.
  static std::vector<VarId> substSeq(const eq::Decomposition &D,
                                     const std::vector<VarId> &Occs) {
    std::vector<VarId> Out;
    for (VarId X : Occs) {
      const std::vector<VarId> &Rep = D.Subst.at(X);
      Out.insert(Out.end(), Rep.begin(), Rep.end());
    }
    return Out;
  }

  /// Solves one decomposition. On an Unknown caused by resource
  /// exhaustion, \p StopOut receives the reason (first one wins). A
  /// disjunct stopping on MemOut or StepBudget is retried once in
  /// degraded mode — Bland pivoting, reduced MBQI bounds — on a fresh
  /// child budget before giving up.
  Verdict solveDisjunct(const eq::Decomposition &D, SolveResult &Result,
                        StopReason &StopOut, proof::DisjunctCert *CertOut);

  const Problem &P;
  SolveOptions Opts;
  Budget RootBud; ///< used when Opts.Budget is null
  Budget *Root;
  NormalForm NF;
  SolveStats Stats;
  /// Certification state: on, the per-disjunct refutations (slot per
  /// stabilization disjunct), and whether stabilization covered the whole
  /// problem.
  bool CertifyOn = false;
  std::vector<proof::DisjunctCert> Certs;
  bool CertComplete = false;
  std::unique_ptr<ConcreteEvaluator> Eval;
  /// First self-check rejection across all disjuncts.
  ValidationFailure FirstFail;
};

Verdict Pipeline::solveDisjunct(const eq::Decomposition &D,
                                SolveResult &Result, StopReason &StopOut,
                                proof::DisjunctCert *CertOut) {
  std::map<VarId, Nfa> Langs = D.Langs;
  VarId NextLocal = NF.NextFresh + 1000000; // disjunct-local fresh ids
  auto EnsureNonEmptySeq = [&](std::vector<VarId> &Seq) {
    if (!Seq.empty())
      return;
    VarId E = NextLocal++;
    Langs.emplace(E, Nfa::epsilonLanguage(NF.Sigma.size()));
    Seq.push_back(E);
  };

  // The per-disjunct LIA arena exists up-front so that str.at position
  // terms (which may mention integer variables) can be lowered while the
  // predicates are substituted. Length handles are tied to the Parikh
  // image later, inside the IntConstraintBuilder callback.
  lia::Arena A;
  std::vector<lia::Var> IntHandles;
  for (IntVarId V = 0; V < NF.NumIntVars; ++V)
    IntHandles.push_back(A.freshVar("int." + P.intVarName(V)));
  std::map<VarId, lia::Var> LenHandles;
  auto LenHandle = [&](VarId X) {
    auto [It, Inserted] = LenHandles.try_emplace(X, 0);
    if (Inserted)
      It->second = A.freshVar("len.x" + std::to_string(X), 0);
    return It->second;
  };
  auto ToLinTerm = [&](const IntTerm &T) {
    lia::LinTerm Out(T.Const);
    for (auto [V, C] : T.IntVars)
      Out += lia::LinTerm::variable(IntHandles[V], C);
    for (auto [X, C] : T.LenVars)
      Out += lia::LinTerm::variable(LenHandle(X), C);
    return Out;
  };

  // Substitute the decomposition into P; divert non-flat ¬contains into
  // the |u| > |v| under-approximation (Sec. 8 heuristic).
  std::vector<PosPredicate> Preds;
  std::vector<std::pair<std::vector<VarId>, std::vector<VarId>>> ApproxLenGt;
  for (const NormPred &NP : NF.Preds) {
    PosPredicate Pred;
    Pred.Kind = NP.Kind;
    Pred.Lhs = substSeq(D, NP.Lhs);
    Pred.Rhs = substSeq(D, NP.Rhs);
    if (Pred.Kind == PredKind::StrAtEq || Pred.Kind == PredKind::StrAtNe) {
      EnsureNonEmptySeq(Pred.Lhs);
      Pred.AtPos = ToLinTerm(NP.AtPos);
    }
    if (Pred.Kind == PredKind::NotContains &&
        !tagaut::notContainsVarsFlat(Langs, {Pred})) {
      ApproxLenGt.push_back({Pred.Lhs, Pred.Rhs});
      continue;
    }
    Preds.push_back(std::move(Pred));
  }
  bool Approximated = !ApproxLenGt.empty();
  if (Approximated)
    Stats.UsedApproximation = true;
  bool HasIntSide = !NF.IntAtoms.empty() || Approximated;

  // PTime fast path (Thm. 7.1): a single eligible predicate, no I part.
  // It runs on its own child budget, so the LIA path below starts fresh.
  if (Opts.UseOcaFastPath && !HasIntSide && counter::isEligible(Preds)) {
    Budget FastBud(childLimits());
    counter::OneCounterOptions OcOpts;
    OcOpts.Budget = &FastBud;
    counter::OneCounterResult Oc = counter::decideSinglePredicate(
        Langs, Preds.front(), NF.Sigma.size(), OcOpts);
    Stats.OneCounterExpanded += Oc.Expanded;
    // A tripped budget ends the disjunct as Unknown with the trip's
    // reason; neither the LIA path nor a degraded retry follows.
    if (Oc.Stop != StopReason::None) {
      ++Stats.BudgetTrips;
      if (StopOut == StopReason::None)
        StopOut = Oc.Stop;
      return Verdict::Unknown;
    }
    if (Oc.V == Verdict::Unsat) {
      ++Stats.FastPathDecisions;
      if (CertOut) {
        // The PTime one-counter decision (Thm. 7.1) is a trusted engine;
        // its refutation is recorded by name (proof/Proof.h).
        CertOut->IsRule = true;
        CertOut->Rule = "one-counter";
      }
      return Verdict::Unsat;
    }
    if (Oc.V == Verdict::Sat && !Opts.BuildModel) {
      ++Stats.FastPathDecisions;
      return Verdict::Sat;
    }
    // Sat with a model requested, or Unknown: the LIA path below also
    // produces the witness.
  }

  ++Stats.MpCalls;
  for (const PosPredicate &Pred : Preds)
    if (Pred.Kind == PredKind::NotContains)
      Stats.UsedMbqi = true;

  tagaut::IntConstraintBuilder IntBuilder =
      [&](lia::Arena &Ar,
          const std::map<VarId, lia::LinTerm> &LenTerms) -> lia::FormulaId {
    std::vector<lia::FormulaId> Parts;
    // Convert the atoms first: ToLinTerm lazily mints length handles, and
    // every handle minted anywhere must be tied to the Parikh image below.
    for (const NormIntAtom &Atom : NF.IntAtoms)
      Parts.push_back(
          Ar.cmp(ToLinTerm(Atom.Lhs), Atom.Op, ToLinTerm(Atom.Rhs)));
    for (const auto &[U, V] : ApproxLenGt) {
      lia::LinTerm SumU, SumV;
      for (VarId T : U)
        SumU += LenTerms.at(T);
      for (VarId T : V)
        SumV += LenTerms.at(T);
      Parts.push_back(Ar.cmp(SumU, lia::Cmp::Gt, SumV));
    }
    // Tie every length handle to the Parikh length of its substitution.
    for (const auto &[X, Handle] : LenHandles) {
      lia::LinTerm Sum;
      for (VarId T : D.Subst.at(X))
        Sum += LenTerms.at(T);
      Parts.push_back(
          Ar.cmp(lia::LinTerm::variable(Handle), lia::Cmp::Eq, Sum));
    }
    return Ar.conj(std::move(Parts));
  };

  tagaut::MpOptions MpOpts = Opts.Mp;
  MpOpts.Certify = CertOut != nullptr;
  // A decomposition whose substitution actually split or renamed a
  // variable came out of word-equation solving (the thefuck/django
  // shapes — equality tests, positive prefix/suffix dispatch — whose
  // pipelines SparsestRow loses on): its QF contexts start on Bland.
  // Identity decompositions keep the caller's rule, and tagaut/MpSolver
  // switches to Bland when position predicates are present.
  for (const auto &[X, Rep] : D.Subst)
    if (Rep.size() != 1 || Rep.front() != X) {
      MpOpts.Qf.Pivot = lia::PivotRule::Bland;
      break;
    }

  // Child budget: the root's remaining time plus the full memory/step
  // allowance.
  Budget Child(childLimits());
  MpOpts.Budget = &Child;
  tagaut::MpResult R =
      tagaut::solveMP(A, Langs, Preds, NF.Sigma.size(), IntBuilder, MpOpts);
  // Root-level accounting: the disjunct's cumulative charges count
  // against the root cap too (the run loop's probe notices the trip).
  Root->chargeMem(Child.memCharged());

  // Graceful degradation: a disjunct stopping on MemOut/StepBudget gets
  // one cheaper shot — Bland pivoting (bounded fill-in) and reduced MBQI
  // bounds — on a fresh child budget. Timeout/Cancelled are not retried:
  // there is no time left to spend.
  if (R.V == Verdict::Unknown &&
      (R.Stop == StopReason::MemOut || R.Stop == StopReason::StepBudget)) {
    ++Stats.DegradedRetries;
    tagaut::MpOptions Deg = MpOpts;
    Deg.Qf.Pivot = lia::PivotRule::Bland;
    Deg.Mbqi.Qf.Pivot = lia::PivotRule::Bland;
    Deg.Mbqi.MaxCandidates = std::min<uint32_t>(Deg.Mbqi.MaxCandidates, 16);
    Deg.Mbqi.MaxOffsets = std::min<int64_t>(Deg.Mbqi.MaxOffsets, 512);
    // Fresh limits: the root's remaining time has shrunk by the first
    // attempt, so re-derive rather than reuse.
    Budget RetryBud(childLimits());
    Deg.Budget = &RetryBud;
    R = tagaut::solveMP(A, Langs, Preds, NF.Sigma.size(), IntBuilder, Deg);
    Root->chargeMem(RetryBud.memCharged());
  }
  if (R.V == Verdict::Unknown && R.Stop != StopReason::None) {
    ++Stats.BudgetTrips;
    if (StopOut == StopReason::None)
      StopOut = R.Stop;
  }

  if (R.V == Verdict::Sat) {
    // Project onto the original variables through the substitution map.
    Result.Words.clear();
    for (VarId X = 0; X < NF.NumOriginalVars; ++X) {
      Word W;
      for (VarId T : D.Subst.at(X)) {
        const Word &Part = R.Assignment.at(T);
        W.insert(W.end(), Part.begin(), Part.end());
      }
      Result.Words[X] = std::move(W);
    }
    Result.Ints.clear();
    for (IntVarId V = 0; V < NF.NumIntVars; ++V)
      Result.Ints[V] = R.Model[IntHandles[V]];
    if (Opts.TamperModel)
      Opts.TamperModel(Result.Words, Result.Ints);
    // Always-on self-check: every Sat model is re-validated against the
    // concrete semantics before it leaves the pipeline. An invalid model
    // is demoted to a structured Unknown (never a silent wrong answer).
    if (Opts.ValidateModels) {
      ++Stats.ModelsValidated;
      const ConcreteEvaluator &E = evaluator();
      for (size_t I = 0; I < P.assertions().size(); ++I) {
        if (E.evalOne(I, Result.Words, Result.Ints))
          continue;
        ++Stats.ValidationFailures;
        if (!FirstFail.Failed) {
          FirstFail.Failed = true;
          FirstFail.AssertionIndex = static_cast<uint32_t>(I);
          FirstFail.Detail = "Sat model falsifies assertion #" +
                             std::to_string(I);
        }
        return Verdict::Unknown;
      }
    }
    return Verdict::Sat;
  }
  if (R.V == Verdict::Unsat && Approximated)
    return Verdict::Unknown; // an under-approximation cannot prove Unsat
  if (R.V == Verdict::Unsat && CertOut)
    *CertOut = std::move(R.Cert);
  return R.V;
}

SolveResult Pipeline::run() {
  SolveResult R = runImpl();

  // Attach the first self-check rejection, if any. The demoted disjunct
  // already reported Unknown, so R.V reflects it; the diagnostic makes
  // the demotion visible to callers (CLI exit code 7, fuzz triage).
  if (FirstFail.Failed)
    R.Validation = FirstFail;

  // Paranoid mode: cross-check Unsat against the bounded enumeration
  // oracle. Its Sat is evaluator-certified, so a hit is a proven wrong
  // Unsat — demote and say so.
  if (R.V == Verdict::Unsat &&
      (Opts.ParanoidUnsatCheck || paranoidSelfCheckEnv())) {
    ++R.Stats.ParanoidChecks;
    EnumOptions EO;
    EO.MaxWordLen = Opts.ParanoidMaxWordLen;
    Budget ParanoidBud(
        Budget::Limits{0, 0, Opts.ParanoidStepLimit, nullptr});
    EO.Budget = &ParanoidBud;
    SolveResult OracleR = solveEnum(P, EO);
    if (OracleR.V == Verdict::Sat) {
      ++R.Stats.ValidationFailures;
      R.V = Verdict::Unknown;
      R.Stop = StopReason::None;
      R.Validation.Failed = true;
      R.Validation.AssertionIndex = ~0u;
      R.Validation.Detail =
          "paranoid self-check: enumeration oracle found a certified "
          "model for an Unsat verdict";
    }
  }

  // Certification gate: compose the per-disjunct refutations into the
  // whole-problem certificate and verify it in-process with the
  // independent kernel, through the same serialize → parse → check
  // pipeline external audits use. Acceptance is counted; rejection
  // demotes the Unsat to a structured Unknown — the certificate text is
  // kept either way so callers can save the evidence.
  if (R.V == Verdict::Unsat && CertifyOn) {
    proof::Certificate C;
    C.Complete = CertComplete;
    C.Disjuncts = std::move(Certs);
    if (Opts.TamperCert)
      Opts.TamperCert(C);
    R.CertText = proof::serialize(C);
    proof::CheckOutcome CO;
    if (Result<proof::Certificate> Parsed = proof::parse(R.CertText))
      CO = proof::checkCertificate(*Parsed);
    else
      CO.Error = "certificate failed to re-parse: " + Parsed.error();
    if (CO.Ok) {
      ++R.Stats.UnsatsCertified;
    } else {
      ++R.Stats.CertificationFailures;
      R.V = Verdict::Unknown;
      R.Stop = StopReason::None;
      R.Validation.Failed = true;
      R.Validation.AssertionIndex = ~0u;
      R.Validation.Detail = "certification failure: " + CO.Error;
    }
  }
  return R;
}

SolveResult Pipeline::runImpl() {
  SolveResult Result;
  StopReason AggStop = StopReason::None;

  NF = normalize(P);

  // Stabilization runs directly on the root budget (its growth — automata
  // products, subset constructions — is charged there).
  eq::StabilizeOptions StabOpts = Opts.Stabilize;
  if (!StabOpts.Budget)
    StabOpts.Budget = Root;
  eq::StabilizeResult Stab =
      eq::stabilize(NF.Langs, NF.Equations, NF.NextFresh, StabOpts);
  Stats.Disjuncts = static_cast<uint32_t>(Stab.Disjuncts.size());
  Stats.StabilizationIncomplete = !Stab.Complete;
  CertifyOn = Opts.CertifyUnsat || certifySelfCheckEnv();
  CertComplete = Stab.Complete;
  if (CertifyOn)
    Certs.assign(Stab.Disjuncts.size(), proof::DisjunctCert());
  if (!Stab.Complete && Stab.Stop != StopReason::None)
    AggStop = Stab.Stop;

  // Disjunct order: stabilization emits easy decompositions first, and
  // the first Sat answers for the whole problem.
  bool AnyUnknown = !Stab.Complete;
  for (size_t I = 0; I < Stab.Disjuncts.size(); ++I) {
    if (stopped(AggStop)) {
      AnyUnknown = true;
      break;
    }
    Verdict V = solveDisjunct(Stab.Disjuncts[I], Result, AggStop,
                              CertifyOn ? &Certs[I] : nullptr);
    if (V == Verdict::Sat) {
      Result.V = Verdict::Sat;
      Result.Stats = Stats;
      return Result;
    }
    if (V == Verdict::Unknown)
      AnyUnknown = true;
  }
  Result.V = AnyUnknown ? Verdict::Unknown : Verdict::Unsat;
  if (Result.V == Verdict::Unknown)
    Result.Stop = AggStop;
  Result.Stats = Stats;
  return Result;
}

} // namespace

SolveResult postr::solver::solveProblem(const Problem &P,
                                        const SolveOptions &Opts) {
  Pipeline Pipe(P, Opts);
  return Pipe.run();
}
