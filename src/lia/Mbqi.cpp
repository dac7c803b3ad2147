//===- lia/Mbqi.cpp - Model-based quantifier instantiation -----------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "lia/Mbqi.h"

#include "base/Budget.h"
#include "lia/Incremental.h"

#include <algorithm>
#include <map>
#include <memory>

using namespace postr;
using namespace postr::lia;

namespace {

/// Shared per-run plumbing of both MBQI implementations: the resource
/// budget, the per-query option derivation, and the fair size-bound
/// schedule.
struct MbqiRun {
  Arena &A;
  const MbqiQuery &Q;
  const MbqiOptions &Opts;
  MbqiStats Dummy;
  MbqiStats &St;
  /// The caller's budget (Opts.Qf.Budget; null = unlimited).
  Budget *Bud;
  // Fair length-bound schedule: propose small candidates first. The
  // size proxy (total transition count of the outer run) is bounded,
  // escalated to unbounded on exhaustion; easy Sat instances finish
  // within the first bound, and the final Unsat verdict is only ever
  // drawn from the unbounded query.
  LinTerm SizeTerm;
  int64_t SizeBound = 16;
  static constexpr int64_t MaxSizeBound = 64;

  MbqiRun(Arena &A, const MbqiQuery &Q, const MbqiOptions &Opts)
      : A(A), Q(Q), Opts(Opts), St(Opts.Stats ? *Opts.Stats : Dummy),
        Bud(Opts.Qf.Budget) {
    if (!Q.BlockTerms.empty())
      for (const LinTerm &T : Q.BlockTerms)
        SizeTerm += T;
    else
      for (Var V : Q.OuterVars)
        SizeTerm += LinTerm::variable(V);
  }

  /// Budget probe between candidates and offsets. True means stop now
  /// (the reason is recorded in the budget).
  bool stopped() { return Bud && !Bud->checkpoint("lia.mbqi"); }

  QfOptions subQf() const {
    // Sub-solves share this run's budget, so the deadline / memory cap /
    // cancel flag govern them directly — no remaining-time arithmetic.
    QfOptions O = Opts.Qf;
    // Never record clause traces here: an MBQI Unsat rests on blocking
    // clauses whose soundness comes from *inner* refutations, which a
    // single QF trace cannot express. MBQI verdicts enter certificates
    // as the trusted "mbqi" structural rule instead (proof/Proof.h).
    O.Proof = nullptr;
    return O;
  }

  /// The κ := K instantiation lemma for block \p B (the heart of MBQI
  /// [36]): the block demands, for THIS offset K, either K > Upper(#1)
  /// or a witness run with a mismatch at K. The κ := K instance is
  /// cloned with fresh inner variables — it prunes every future
  /// candidate lacking a mismatch at K, and can make the outer side
  /// unsatisfiable outright (the Unsat verdict depends on these lemmas,
  /// not on candidate exhaustion).
  FormulaId instantiationLemma(const ForallBlock &B, int64_t K) {
    std::map<Var, Var> Fresh;
    for (Var V : B.InnerVars)
      Fresh.emplace(V, A.freshVar(A.varName(V) + "$i", A.varLo(V),
                                  A.varHi(V)));
    FormulaId Inst = A.substitute(B.Inner, [&](Var V) {
      if (V == B.Kappa)
        return LinTerm(K);
      auto It = Fresh.find(V);
      return LinTerm::variable(It == Fresh.end() ? V : It->second);
    });
    ++St.InstLemmas;
    return A.disj({A.cmp(LinTerm(K), Cmp::Gt, B.Upper), Inst});
  }

  /// The blocking clause excluding outer model \p Model. Prefers the
  /// semantic block terms, which rule out every run encoding the same
  /// refuted content instead of just this run.
  FormulaId blocker(const std::vector<int64_t> &Model) {
    std::vector<FormulaId> Diff;
    if (!Q.BlockTerms.empty()) {
      Diff.reserve(Q.BlockTerms.size());
      for (const LinTerm &T : Q.BlockTerms)
        Diff.push_back(A.cmp(T, Cmp::Ne, LinTerm(T.eval(Model))));
    } else {
      Diff.reserve(Q.OuterVars.size());
      for (Var V : Q.OuterVars)
        Diff.push_back(
            A.cmp(LinTerm::variable(V), Cmp::Ne, LinTerm(Model[V])));
    }
    ++St.Blockers;
    return A.disj(std::move(Diff));
  }
};

/// The scratch implementation: every outer candidate and every inner
/// offset runs a from-scratch `solveQF` over a freshly re-conjoined
/// formula. Retained as the semantics oracle the incremental path is
/// property-tested against (and selectable via MbqiOptions::Incremental).
Verdict solveMbqiScratch(Arena &A, const MbqiQuery &Q,
                         std::vector<int64_t> *ModelOut,
                         const MbqiOptions &Opts) {
  MbqiRun R(A, Q, Opts);

  std::vector<FormulaId> Blockers;
  for (uint32_t Cand = 0; Cand < Opts.MaxCandidates; ++Cand) {
    if (R.stopped())
      return Verdict::Unknown;

    QfResult Outer;
    for (;;) {
      std::vector<FormulaId> OuterParts{Q.Outer};
      OuterParts.insert(OuterParts.end(), Blockers.begin(), Blockers.end());
      if (R.SizeBound <= MbqiRun::MaxSizeBound)
        OuterParts.push_back(
            A.cmp(R.SizeTerm, Cmp::Le, LinTerm(R.SizeBound)));
      ++R.St.OuterSolves;
      Outer = solveQF(A, A.conj(OuterParts), R.subQf());
      if (Outer.V == Verdict::Unsat && R.SizeBound <= MbqiRun::MaxSizeBound) {
        // Exhausted below the bound: go unbounded.
        R.SizeBound = MbqiRun::MaxSizeBound * 4;
        continue;
      }
      break;
    }
    if (Outer.V == Verdict::Unsat) {
      // Every outer model was either refuted by a concrete offset or the
      // outer part is unsatisfiable outright; both mean Unsat (the
      // unbounded query was the one that failed).
      return Verdict::Unsat;
    }
    if (Outer.V == Verdict::Unknown)
      return Verdict::Unknown;
    ++R.St.Candidates;

    // Pin the outer model for the inner queries.
    std::vector<FormulaId> Pin;
    Pin.reserve(Q.OuterVars.size());
    for (Var V : Q.OuterVars)
      Pin.push_back(
          A.cmp(LinTerm::variable(V), Cmp::Eq, LinTerm(Outer.Model[V])));
    FormulaId PinF = A.conj(Pin);

    bool AllBlocksHold = true;
    for (const ForallBlock &B : Q.Blocks) {
      int64_t Upper = B.Upper.eval(Outer.Model);
      if (Upper > Opts.MaxOffsets)
        return Verdict::Unknown;
      for (int64_t K = 0; K <= Upper && AllBlocksHold; ++K) {
        if (R.stopped())
          return Verdict::Unknown;
        FormulaId KEq =
            A.cmp(LinTerm::variable(B.Kappa), Cmp::Eq, LinTerm(K));
        ++R.St.InnerQueries;
        QfResult InnerR =
            solveQF(A, A.conj({B.Inner, PinF, KEq}), R.subQf());
        if (InnerR.V == Verdict::Unknown)
          return Verdict::Unknown;
        if (InnerR.V == Verdict::Unsat) {
          AllBlocksHold = false;
          Blockers.push_back(R.instantiationLemma(B, K));
        }
      }
      if (!AllBlocksHold)
        break;
    }

    if (AllBlocksHold) {
      if (ModelOut)
        *ModelOut = std::move(Outer.Model);
      return Verdict::Sat;
    }

    // Refuted: exclude this valuation and retry.
    Blockers.push_back(R.blocker(Outer.Model));
  }
  return Verdict::Unknown;
}

/// The incremental implementation (ISSUE 4 tentpole): one persistent
/// outer context accumulates blockers and instantiation lemmas as
/// level-0 assertions (never re-conjoined, never re-encoded; the learnt
/// clauses and the Simplex basis carry over), the size-bound schedule
/// rides as an assumption whose presence in the final-conflict core
/// tells bound exhaustion from genuine refutation without a second
/// solve, and per-block inner contexts encode `B.Inner` once — each
/// candidate pushes a scope with the model pin, each offset is a
/// two-literal κ = K assumption, and the pop between candidates retracts
/// only the pin.
Verdict solveMbqiIncremental(Arena &A, const MbqiQuery &Q,
                             std::vector<int64_t> *ModelOut,
                             const MbqiOptions &Opts) {
  MbqiRun R(A, Q, Opts);

  IncrementalContext Outer(A, R.subQf());
  Outer.assertFormula(Q.Outer);
  std::vector<std::unique_ptr<IncrementalContext>> Inner(Q.Blocks.size());

  // Atom memos: repeated size bounds, pins, and offsets re-solve against
  // the exact same formula ids, so the contexts' gate/atom caches hit
  // and the arena does not accumulate duplicate nodes.
  std::map<int64_t, FormulaId> SizeMemo;
  std::map<std::pair<Var, int64_t>, FormulaId> PinMemo;
  std::vector<std::map<int64_t, FormulaId>> KEqMemo(Q.Blocks.size());

  for (uint32_t Cand = 0; Cand < Opts.MaxCandidates; ++Cand) {
    if (R.stopped())
      return Verdict::Unknown;

    QfResult OuterR;
    for (;;) {
      std::vector<FormulaId> Assumps;
      if (R.SizeBound <= MbqiRun::MaxSizeBound) {
        auto It = SizeMemo.find(R.SizeBound);
        if (It == SizeMemo.end())
          It = SizeMemo
                   .emplace(R.SizeBound,
                            A.cmp(R.SizeTerm, Cmp::Le, LinTerm(R.SizeBound)))
                   .first;
        Assumps.push_back(It->second);
      }
      Outer.setOptions(R.subQf());
      if (Outer.numSolves() > 0)
        ++R.St.ContextReuses;
      ++R.St.OuterSolves;
      OuterR = Outer.solve(Assumps);
      if (OuterR.V == Verdict::Unsat && R.SizeBound <= MbqiRun::MaxSizeBound) {
        // Exhausted below the bound. The assumption core says whether the
        // bound even participated: if not, the refutation already holds
        // unbounded and the scratch path's re-solve is unnecessary.
        bool BoundBlamed = !Outer.unsatAssumptions().empty();
        R.SizeBound = MbqiRun::MaxSizeBound * 4;
        if (BoundBlamed)
          continue;
        break;
      }
      break;
    }
    if (OuterR.V == Verdict::Unsat)
      return Verdict::Unsat;
    if (OuterR.V == Verdict::Unknown)
      return Verdict::Unknown;
    ++R.St.Candidates;

    // Pin the outer model for the inner queries.
    std::vector<FormulaId> Pins;
    Pins.reserve(Q.OuterVars.size());
    for (Var V : Q.OuterVars) {
      auto Key = std::make_pair(V, OuterR.Model[V]);
      auto It = PinMemo.find(Key);
      if (It == PinMemo.end())
        It = PinMemo
                 .emplace(Key, A.cmp(LinTerm::variable(V), Cmp::Eq,
                                     LinTerm(OuterR.Model[V])))
                 .first;
      Pins.push_back(It->second);
    }

    bool AllBlocksHold = true;
    for (size_t BI = 0; BI < Q.Blocks.size(); ++BI) {
      const ForallBlock &B = Q.Blocks[BI];
      int64_t Upper = B.Upper.eval(OuterR.Model);
      if (Upper > Opts.MaxOffsets)
        return Verdict::Unknown;
      if (!Inner[BI]) {
        Inner[BI] = std::make_unique<IncrementalContext>(A, R.subQf());
        Inner[BI]->assertFormula(B.Inner);
      }
      IncrementalContext &IC = *Inner[BI];
      IC.push();
      for (FormulaId P : Pins)
        IC.assertFormula(P);
      for (int64_t K = 0; K <= Upper && AllBlocksHold; ++K) {
        if (R.stopped()) {
          IC.pop();
          return Verdict::Unknown;
        }
        auto It = KEqMemo[BI].find(K);
        if (It == KEqMemo[BI].end())
          It = KEqMemo[BI]
                   .emplace(K, A.cmp(LinTerm::variable(B.Kappa), Cmp::Eq,
                                     LinTerm(K)))
                   .first;
        IC.setOptions(R.subQf());
        if (IC.numSolves() > 0)
          ++R.St.ContextReuses;
        ++R.St.InnerQueries;
        QfResult InnerR = IC.solve({It->second});
        if (InnerR.V == Verdict::Unknown) {
          IC.pop();
          return Verdict::Unknown;
        }
        if (InnerR.V == Verdict::Unsat) {
          AllBlocksHold = false;
          Outer.assertFormula(R.instantiationLemma(B, K));
        }
      }
      IC.pop();
      if (!AllBlocksHold)
        break;
    }

    if (AllBlocksHold) {
      if (ModelOut)
        *ModelOut = std::move(OuterR.Model);
      return Verdict::Sat;
    }

    // Refuted: exclude this valuation and retry.
    Outer.assertFormula(R.blocker(OuterR.Model));
  }
  return Verdict::Unknown;
}

} // namespace

Verdict postr::lia::solveMbqi(Arena &A, const MbqiQuery &Q,
                              std::vector<int64_t> *ModelOut,
                              const MbqiOptions &Opts) {
  return Opts.Incremental ? solveMbqiIncremental(A, Q, ModelOut, Opts)
                          : solveMbqiScratch(A, Q, ModelOut, Opts);
}
