//===- lia/Incremental.cpp - Incremental QF_LIA solver contexts -----------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "lia/Incremental.h"

#include "base/Budget.h"
#include "base/Hash.h"
#include "lia/Sat.h"
#include "lia/Simplex.h"
#include "proof/Proof.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

using namespace postr;
using namespace postr::lia;

namespace {
using Clock = std::chrono::steady_clock;
} // namespace

/// The persistent DPLL(T) engine behind a context (and, through the
/// `solveQF` wrapper, behind every one-shot solve): the boolean structure
/// is Tseitin-encoded into the CDCL core once, and this class —
/// registered as the core's TheoryClient — mirrors every assigned atom
/// literal into Simplex bounds as the trail grows. Rational infeasibility
/// is detected immediately and explained by a small theory lemma
/// extracted from the conflicting tableau row; the (rare) integrality
/// conflicts are found by branch-and-bound on full boolean models.
///
/// Unlike the pre-incremental engine, everything survives `solve`
/// boundaries: the gate/atom caches, the learnt clauses and VSIDS order,
/// and the Simplex tableau with its basis. Per solve, the theory side
/// resets bounds to the intrinsic baseline (O(vars)), registers whatever
/// the arena minted since last time (appending — never rebuilding), and
/// re-marks the baseline.
class IncrementalContext::Impl : public TheoryClient {
public:
  Impl(Arena &A, const QfOptions &O) : A(A), Opts(O), Proof(O.Proof) {
    // The trace builder is latched at construction (not via setOptions):
    // attaching one mid-stream would miss the clause prefix already in
    // the CDCL core, leaving the trace unreplayable.
    Sat.setProof(Proof);
  }

  Arena &A;
  QfOptions Opts;
  /// Unsat-trace builder this context writes into, or null (no recording).
  proof::QfTraceBuilder *const Proof;

  QfResult solve(const std::vector<FormulaId> &Assumptions,
                 const ModelRefiner &Refine);
  void assertFormula(FormulaId F);
  void push();
  void pop();

  TRes onAssign(const std::vector<Lit> &Trail, size_t From,
                std::vector<Lit> &ConflictOut) override;
  void onBacktrack(size_t NewTrailSize) override;
  TRes onFinalModel(std::vector<Lit> &ConflictOut) override;

  // Bookkeeping shared with the public wrapper.
  std::vector<uint32_t> Selectors; ///< scope selector SAT vars (LIFO)
  std::vector<uint32_t> UnsatAssumps;
  QfSearchStats Cumulative;
  uint64_t Solves = 0;
#ifndef NDEBUG
  /// Original (unlowered) assertions per scope frame, for Sat-model
  /// validation; frame 0 holds the permanent assertions.
  std::vector<std::vector<FormulaId>> DebugAsserts{1};
#endif

private:
  /// One distinct theory atom `Term + Const <= 0` with its SAT variable
  /// and (once registered) the Simplex extended variable carrying its
  /// linear part.
  struct TheoryAtom {
    LinTerm Term; ///< arena-variable space
    uint32_t SatVar;
    uint32_t SimplexRow; ///< Simplex extended space; ~0u until registered
  };

  Lit encode(FormulaId F);
  uint32_t atomVar(FormulaId F);
  uint32_t atomVarForTerm(const LinTerm &T);
  FormulaId lowered(FormulaId F);
  /// Appends the assumption literals of lowered \p F to \p Out:
  /// conjunctions of atoms flatten to their atom literals (interned, no
  /// clause garbage); any other shape contributes its Tseitin gate.
  void flattenAssumption(FormulaId F, std::vector<Lit> &Out);
  /// Brings the theory side up to date with the arena and the atom set:
  /// bounds back to baseline, new problem variables and new atom rows
  /// appended, baseline re-marked, lattice lemmas for new atoms added.
  void prepareTheory();
  void addLatticeLemmasIncremental();
  /// Negations of the reason literals Simplex reports — a theory lemma.
  static void lemmaFromReasons(const std::vector<uint32_t> &Rs,
                               std::vector<Lit> &Out) {
    Out.clear();
    Out.reserve(Rs.size());
    for (uint32_t Code : Rs) {
      Lit L;
      L.Code = Code;
      Out.push_back(~L);
    }
  }
  /// Translates the Simplex's conflict certificate into proof format and
  /// stages it as the Pending cert for the theory lemma about to be
  /// emitted: Lit reasons pass through as literal codes, intrinsic-bound
  /// reasons map the extended var back to arena space, split reason
  /// codes become path-depth references.
  void stageConflictCert();
  /// The per-solve stop probe: all resource dimensions (deadline,
  /// memory, steps, cancellation) go through the caller's budget, if any.
  /// Records the first reason in Stop.
  bool stopped(const char *Site) {
    if (Bud && !Bud->checkpoint(Site)) {
      if (Stop == StopReason::None)
        Stop = Bud->reason();
      return true;
    }
    return false;
  }
  /// Translates an arena-space coefficient vector into Simplex extended
  /// space (ExtOf is strictly increasing, so sortedness is preserved).
  std::vector<std::pair<Var, int64_t>>
  translate(const std::vector<std::pair<Var, int64_t>> &Coeffs) const {
    std::vector<std::pair<Var, int64_t>> Out;
    Out.reserve(Coeffs.size());
    for (auto [V, C] : Coeffs)
      Out.push_back({ExtOf[V], C});
    return Out;
  }

  SatSolver Sat;
  /// Memoized Tseitin gates: lowered FormulaId -> encoded literal
  /// (shared subformulas encode once, across solves and scopes).
  std::unordered_map<FormulaId, Lit> GateOf;
  /// Memoized lowering, so re-asserting or re-assuming the same formula
  /// id does not re-run `Arena::lower` (which allocates fresh nodes).
  std::unordered_map<FormulaId, FormulaId> LoweredMemo;
  std::unique_ptr<Simplex> Theory;
  std::vector<TheoryAtom> Atoms;
  std::unordered_map<
      std::pair<std::vector<std::pair<Var, int64_t>>, int64_t>, uint32_t,
      AtomKeyHash>
      AtomIndex; ///< (coeffs, const) -> index into Atoms
  std::vector<uint32_t> AtomOfSatVar; ///< SAT var -> atom index or ~0u
  std::vector<uint32_t> ExtOf; ///< arena var -> Simplex extended var
  /// Simplex extended var -> arena var, ~0u for slack (atom) rows. Only
  /// maintained when recording proofs: certificate terms cite variables
  /// in arena space, the space the checker reconstructs.
  std::vector<uint32_t> ArenaOfExt;
  size_t AtomsRegistered = 0;  ///< prefix of Atoms with Simplex rows
  /// Incremental atom-lattice state: per canonical coefficient vector,
  /// the atom indices sorted by constant descending (strongest first).
  std::map<std::vector<std::pair<Var, int64_t>>, std::vector<uint32_t>>
      LatticeGroups;
  size_t LatticeDone = 0; ///< prefix of Atoms already chained
  /// Undo bookkeeping: for every trail literal that tightened a Simplex
  /// bound, the trail position, the Simplex mark to roll back to, and the
  /// literal itself.
  struct AssertRecord {
    size_t TrailPos;
    size_t Mark;
    Lit L;
  };
  std::vector<AssertRecord> Asserted;
  std::vector<int64_t> FinalModel;
  uint32_t TheoryConflicts = 0; ///< per-solve
  /// Active budget for the current solve (Opts.Budget; null = unlimited).
  Budget *Bud = nullptr;
  StopReason Stop = StopReason::None; ///< per-solve first stop reason
  // Triage counters (printed under POSTR_QF_STATS).
  uint64_t NumOnAssign = 0, NumRationalChecks = 0, NumFinalChecks = 0,
           NumSplits = 0;
  Clock::time_point Start = Clock::now();
  Clock::time_point LastTrace = Clock::now();

  void trace(const char *Where, size_t TrailSize) {
    if (!std::getenv("POSTR_QF_STATS"))
      return;
    Clock::time_point Now = Clock::now();
    if (Now - LastTrace < std::chrono::seconds(1))
      return;
    LastTrace = Now;
    std::fprintf(stderr,
                 "[qf-trace] %s assign=%llu lp=%llu piv=%llu scan=%llu "
                 "final=%llu split=%llu tconf=%u trail=%zu asserted=%zu\n",
                 Where, (unsigned long long)NumOnAssign,
                 (unsigned long long)NumRationalChecks,
                 (unsigned long long)(Theory ? Theory->numPivots() : 0),
                 (unsigned long long)(Theory ? Theory->numChecks() : 0),
                 (unsigned long long)NumFinalChecks,
                 (unsigned long long)NumSplits, TheoryConflicts, TrailSize,
                 Asserted.size());
  }
};

void IncrementalContext::Impl::stageConflictCert() {
  const Simplex::ConflictCert &C = Theory->conflictCert();
  proof::TheoryCert Out;
  Out.Leaves.reserve(C.Leaves.size());
  for (const Simplex::FarkasLeafRec &L : C.Leaves) {
    proof::FarkasLeaf PL;
    PL.Entries.reserve(L.Terms.size());
    for (const Simplex::FarkasTerm &T : L.Terms) {
      proof::FarkasEntry E;
      if (T.Reason == Simplex::NoReason) {
        // Intrinsic bound. Only problem variables carry baseline bounds
        // (slack rows register after the baseline snapshot), so the
        // extended var maps back to arena space.
        assert(T.ExtVar < ArenaOfExt.size() && ArenaOfExt[T.ExtVar] != ~0u &&
               "intrinsic bound cited on a slack row");
        E.K = proof::FarkasEntry::Kind::VarBound;
        E.Ref = ArenaOfExt[T.ExtVar];
        E.Upper = T.Upper;
      } else if (T.Reason >= Simplex::SplitBase) {
        E.K = proof::FarkasEntry::Kind::Split;
        E.Ref = T.Reason - Simplex::SplitBase;
        E.Upper = T.Upper;
      } else {
        E.K = proof::FarkasEntry::Kind::Lit;
        E.Ref = T.Reason;
      }
      E.Mult = {T.Mult.num(), T.Mult.den()};
      PL.Entries.push_back(std::move(E));
    }
    Out.Leaves.push_back(std::move(PL));
  }
  Out.Nodes.reserve(C.Nodes.size());
  for (const Simplex::CertNodeRec &N : C.Nodes) {
    proof::CertNode PN;
    PN.Leaf = N.Leaf;
    if (N.Leaf < 0) {
      assert(N.ExtVar < ArenaOfExt.size() && ArenaOfExt[N.ExtVar] != ~0u &&
             "integer split on a slack row");
      PN.Var = ArenaOfExt[N.ExtVar];
      PN.Floor = N.Floor;
    }
    PN.Down = N.Down;
    PN.Up = N.Up;
    Out.Nodes.push_back(PN);
  }
  Out.Root = C.Root;
  Proof->Pending = Proof->addCert(std::move(Out));
}

uint32_t IncrementalContext::Impl::atomVarForTerm(const LinTerm &T) {
  auto Key = std::make_pair(T.coeffs(), T.constant());
  auto It = AtomIndex.find(Key);
  if (It != AtomIndex.end())
    return Atoms[It->second].SatVar;
  TheoryAtom TA;
  TA.Term = T;
  TA.SatVar = Sat.newVar();
  TA.SimplexRow = ~0u; // registered at the next prepareTheory()
  if (Proof)
    Proof->atomDef(TA.SatVar, T.constant(), T.coeffs());
  AtomOfSatVar.resize(Sat.numVars(), ~0u);
  AtomOfSatVar[TA.SatVar] = static_cast<uint32_t>(Atoms.size());
  AtomIndex.emplace(std::move(Key), static_cast<uint32_t>(Atoms.size()));
  Atoms.push_back(std::move(TA));
  return Atoms.back().SatVar;
}

uint32_t IncrementalContext::Impl::atomVar(FormulaId F) {
  assert(A.kind(F) == FKind::Atom && A.atomCmp(F) == Cmp::Le &&
         "expected lowered atom");
  return atomVarForTerm(A.atomTerm(F));
}

Lit IncrementalContext::Impl::encode(FormulaId F) {
  auto Memo = GateOf.find(F);
  if (Memo != GateOf.end())
    return Memo->second;
  Lit Encoded = [&] {
    switch (A.kind(F)) {
    case FKind::Atom:
      return Lit(atomVar(F), /*Negated=*/false);
    case FKind::And: {
      uint32_t G = Sat.newVar();
      for (FormulaId C : A.children(F)) {
        Lit LC = encode(C);
        Sat.addClause({Lit(G, true), LC});
      }
      return Lit(G, false);
    }
    case FKind::Or: {
      uint32_t G = Sat.newVar();
      std::vector<Lit> Clause{Lit(G, true)};
      for (FormulaId C : A.children(F))
        Clause.push_back(encode(C));
      Sat.addClause(std::move(Clause));
      return Lit(G, false);
    }
    case FKind::True: {
      uint32_t G = Sat.newVar();
      Sat.addClause({Lit(G, false)});
      return Lit(G, false);
    }
    case FKind::False: {
      uint32_t G = Sat.newVar();
      Sat.addClause({Lit(G, true)});
      return Lit(G, false);
    }
    case FKind::Not:
      assert(false && "lowered formula contains Not");
      return Lit();
    }
    assert(false && "bad kind");
    return Lit();
  }();
  AtomOfSatVar.resize(Sat.numVars(), ~0u);
  GateOf[F] = Encoded;
  return Encoded;
}

FormulaId IncrementalContext::Impl::lowered(FormulaId F) {
  auto It = LoweredMemo.find(F);
  if (It != LoweredMemo.end())
    return It->second;
  FormulaId L = A.lower(F);
  LoweredMemo.emplace(F, L);
  return L;
}

void IncrementalContext::Impl::assertFormula(FormulaId F) {
  Lit G = encode(lowered(F));
  if (Selectors.empty())
    Sat.addClause({G});
  else
    Sat.addClause({Lit(Selectors.back(), true), G});
#ifndef NDEBUG
  DebugAsserts.back().push_back(F);
#endif
}

void IncrementalContext::Impl::push() {
  uint32_t S = Sat.newVar();
  AtomOfSatVar.resize(Sat.numVars(), ~0u);
  Selectors.push_back(S);
#ifndef NDEBUG
  DebugAsserts.emplace_back();
#endif
}

void IncrementalContext::Impl::pop() {
  assert(!Selectors.empty() && "pop without matching push");
  uint32_t S = Selectors.back();
  Selectors.pop_back();
  // Permanently disable the selector: every clause of the scope becomes
  // satisfied at level 0, so nothing has to be physically deleted and
  // every clause learned from the scope stays valid (it carries ¬s).
  Sat.addClause({Lit(S, true)});
#ifndef NDEBUG
  DebugAsserts.pop_back();
#endif
}

void IncrementalContext::Impl::flattenAssumption(FormulaId F,
                                                 std::vector<Lit> &Out) {
  FormulaId L = lowered(F);
  switch (A.kind(L)) {
  case FKind::True:
    return;
  case FKind::Atom:
    Out.push_back(Lit(atomVar(L), false));
    return;
  case FKind::And:
    for (FormulaId C : A.children(L)) {
      switch (A.kind(C)) {
      case FKind::Atom:
        Out.push_back(Lit(atomVar(C), false));
        break;
      case FKind::True:
        break;
      default:
        Out.push_back(encode(C));
        break;
      }
    }
    return;
  default:
    // False included: its gate is forced false at level 0, so assuming
    // it yields Unsat-under-assumptions with this formula in the core.
    Out.push_back(encode(L));
    return;
  }
}

void IncrementalContext::Impl::addLatticeLemmasIncremental() {
  // Atom-lattice lemmas, incrementally: theory-valid clauses between
  // atoms sharing a linear part, so the SAT core never explores boolean
  // models that are trivially theory-inconsistent. Each new atom chains
  // into its group's implication order (stronger constant → weaker) and
  // pairs against the negated-coefficients group; each unordered cross
  // pair is emitted exactly once — when its later atom arrives.
  // Lattice lemmas are theory-valid, not axioms: when recording, each
  // one is staged with the two-term Farkas certificate refuting its
  // negation (both cited atoms share a linear part up to sign, so the
  // variable parts cancel and the constants sum negative), and the
  // builder turns the addClause below into a certified Theory step.
  auto StagePair = [&](uint32_t CodeA, uint32_t CodeB) {
    proof::TheoryCert C;
    proof::FarkasLeaf L;
    L.Entries.push_back(
        {proof::FarkasEntry::Kind::Lit, CodeA, false, {1, 1}});
    L.Entries.push_back(
        {proof::FarkasEntry::Kind::Lit, CodeB, false, {1, 1}});
    C.Leaves.push_back(std::move(L));
    C.Nodes.push_back({0, 0, 0, -1, -1});
    C.Root = 0;
    Proof->Pending = Proof->addCert(std::move(C));
  };
  for (; LatticeDone < Atoms.size(); ++LatticeDone) {
    uint32_t AI = static_cast<uint32_t>(LatticeDone);
    const LinTerm &T = Atoms[AI].Term;
    std::vector<uint32_t> &Group = LatticeGroups[T.coeffs()];
    auto Pos = std::lower_bound(
        Group.begin(), Group.end(), AI, [&](uint32_t X, uint32_t Y) {
          return Atoms[X].Term.constant() > Atoms[Y].Term.constant();
        });
    size_t Idx = static_cast<size_t>(Pos - Group.begin());
    // Within a group, t + c <= 0 with larger c is stronger: link the new
    // atom to its neighbours (the chain stays transitively complete;
    // older neighbour-to-neighbour links become redundant but harmless).
    if (Idx > 0) {
      if (Proof) // 1·(stronger holds) + 1·(weaker fails): c_w - c_s - 1 < 0
        StagePair(Atoms[Group[Idx - 1]].SatVar * 2,
                  Atoms[AI].SatVar * 2 + 1);
      Sat.addClause({Lit(Atoms[Group[Idx - 1]].SatVar, true),
                     Lit(Atoms[AI].SatVar, false)});
    }
    if (Idx < Group.size()) {
      if (Proof)
        StagePair(Atoms[AI].SatVar * 2,
                  Atoms[Group[Idx]].SatVar * 2 + 1);
      Sat.addClause({Lit(Atoms[AI].SatVar, true),
                     Lit(Atoms[Group[Idx]].SatVar, false)});
    }
    Group.insert(Pos, AI);
    // Against the negated-coefficients group: t + c <= 0 and
    // -t + c' <= 0 clash iff c + c' > 0.
    std::vector<std::pair<Var, int64_t>> Neg = T.coeffs();
    for (auto &[V, K] : Neg)
      K = -K;
    auto It = LatticeGroups.find(Neg);
    if (It == LatticeGroups.end())
      continue;
    if (Group.size() * It->second.size() > 4096)
      continue; // quadratic pairing not worth it on huge groups
    for (uint32_t Y : It->second)
      if (T.constant() + Atoms[Y].Term.constant() > 0) {
        if (Proof) // 1·(t+c ≤ 0) + 1·(-t+c' ≤ 0): -c - c' < 0
          StagePair(Atoms[AI].SatVar * 2, Atoms[Y].SatVar * 2);
        Sat.addClause(
            {Lit(Atoms[AI].SatVar, true), Lit(Atoms[Y].SatVar, true)});
      }
  }
}

void IncrementalContext::Impl::prepareTheory() {
  if (!Theory) {
    // The start rule (picked by the encoding layers) is latched at first
    // use; setOptions after that changes budgets/deadlines but not the
    // rule of a live tableau.
    Theory = std::make_unique<Simplex>(0, Opts.Pivot);
    Theory->setInterrupt([this] { return stopped("lia.simplex"); });
    Theory->setCertRecording(Proof != nullptr);
  }
  Theory->setBudget(Bud);
  // The SAT core starts the next descent with an empty trail (it
  // backtracks to level 0 and replays the level-0 prefix through
  // onAssign), so drop our mirror records and reset the theory bounds to
  // the baseline wholesale — keeping the tableau basis and the current
  // assignment: the search warm-starts from the last feasible vertex.
  Asserted.clear();
  Theory->resetToBaseline();
  bool Grew = false;
  while (ExtOf.size() < A.numVars()) {
    Var V = static_cast<Var>(ExtOf.size());
    uint32_t Ext = Theory->addProblemVar(A.varLo(V), A.varHi(V));
    ExtOf.push_back(Ext);
    if (Proof) {
      if (ArenaOfExt.size() <= Ext)
        ArenaOfExt.resize(Ext + 1, ~0u);
      ArenaOfExt[Ext] = V;
      proof::VarBounds B;
      B.Var = V;
      B.HasLo = A.varLo(V) != INT64_MIN;
      B.HasHi = A.varHi(V) != INT64_MAX;
      B.Lo = B.HasLo ? A.varLo(V) : 0;
      B.Hi = B.HasHi ? A.varHi(V) : 0;
      if (B.HasLo || B.HasHi)
        Proof->varBounds(B);
    }
    Grew = true;
  }
  for (; AtomsRegistered < Atoms.size(); ++AtomsRegistered) {
    TheoryAtom &TA = Atoms[AtomsRegistered];
    if (TA.SimplexRow == ~0u) {
      TA.SimplexRow = Theory->rowFor(translate(TA.Term.coeffs()));
      Grew = true;
    }
  }
  if (Grew)
    Theory->markBaseline(); // fold the new intrinsic bounds in
  addLatticeLemmasIncremental();
}

TheoryClient::TRes
IncrementalContext::Impl::onAssign(const std::vector<Lit> &Trail, size_t From,
                                   std::vector<Lit> &ConflictOut) {
  if (stopped("lia.sat"))
    return TRes::Abort;
  ++NumOnAssign;
  trace("assign", Trail.size());
  bool Changed = false;
  for (size_t I = From; I < Trail.size(); ++I) {
    Lit L = Trail[I];
    uint32_t AtomIdx =
        L.var() < AtomOfSatVar.size() ? AtomOfSatVar[L.var()] : ~0u;
    if (AtomIdx == ~0u)
      continue;
    const TheoryAtom &TA = Atoms[AtomIdx];
    assert(TA.SimplexRow != ~0u &&
           "atom literal on the trail before theory registration");
    size_t M = Theory->mark();
    // Positive literal: linear part <= -c. Negative: over the integers,
    // ¬(t + c <= 0) is t + c >= 1, i.e. linear part >= 1 - c.
    bool Ok = L.negated()
                  ? Theory->assertLower(TA.SimplexRow,
                                        Rational(1 - TA.Term.constant()),
                                        L.Code)
                  : Theory->assertUpper(TA.SimplexRow,
                                        Rational(-TA.Term.constant()),
                                        L.Code);
    if (Theory->mark() != M) {
      Asserted.push_back({I, M, L});
      Changed = true;
    }
    if (!Ok) {
      ++TheoryConflicts;
      lemmaFromReasons(Theory->conflictReasons(), ConflictOut);
      if (Proof)
        stageConflictCert();
      return TRes::Conflict;
    }
  }
  if (Changed)
    ++NumRationalChecks;
  if (Changed && !Theory->checkRational()) {
    ++TheoryConflicts;
    if (TheoryConflicts > Opts.MaxTheoryConflicts) {
      // Engine-internal runaway cap: structured as StepBudget, but does
      // NOT trip a shared budget — siblings of this solve keep running.
      if (Stop == StopReason::None)
        Stop = StopReason::StepBudget;
      return TRes::Abort;
    }
    lemmaFromReasons(Theory->conflictReasons(), ConflictOut);
    if (Proof)
      stageConflictCert();
    return TRes::Conflict;
  }
  return TRes::Ok;
}

void IncrementalContext::Impl::onBacktrack(size_t NewTrailSize) {
  size_t M = SIZE_MAX;
  while (!Asserted.empty() && Asserted.back().TrailPos >= NewTrailSize) {
    M = Asserted.back().Mark;
    Asserted.pop_back();
  }
  if (M != SIZE_MAX)
    Theory->rollback(M);
}

TheoryClient::TRes
IncrementalContext::Impl::onFinalModel(std::vector<Lit> &ConflictOut) {
  if (stopped("lia.sat"))
    return TRes::Abort;
  // Rational feasibility holds by construction; look for an integer model.
  ++NumFinalChecks;
  trace("final", 0);
  TheoryResult R = Theory->checkInteger(FinalModel, Opts.TheoryNodeBudget);
  if (stopped("lia.sat"))
    return TRes::Abort; // cancel/deadline interrupted branch-and-bound
  if (R == TheoryResult::Sat)
    return TRes::Ok;
  ++TheoryConflicts;
  if (TheoryConflicts > Opts.MaxTheoryConflicts) {
    if (Stop == StopReason::None)
      Stop = StopReason::StepBudget;
    return TRes::Abort;
  }
  if (R == TheoryResult::Unsat) {
    // Integrality conflict: branch-and-bound reports the union of its
    // leaf explanations as a core over the asserted bounds.
    lemmaFromReasons(Theory->conflictReasons(), ConflictOut);
    if (Proof)
      stageConflictCert();
    return TRes::Conflict;
  }
  // Budget exhausted: split on demand. Mint the atom x ≤ ⌊β(x)⌋ for a
  // fractional variable and hand the case split to the CDCL core — its
  // two polarities assert x ≤ ⌊β⌋ / x ≥ ⌊β⌋+1, so clause learning takes
  // over the integrality branching that exhausted the local search.
  if (!Theory->checkRational())
    return TRes::Abort; // cannot happen: bounds only got looser
  if (stopped("lia.sat"))
    return TRes::Abort; // interrupted mid-check: the vertex is untrusted
  uint32_t Frac = ~0u;
  Var FracVar = 0;
  for (Var V = 0; V < ExtOf.size(); ++V)
    if (!Theory->value(ExtOf[V]).isInteger()) {
      Frac = ExtOf[V];
      FracVar = V;
      break;
    }
  if (Frac == ~0u) {
    // The relaxation vertex is integral after all; accept it.
    FinalModel.resize(ExtOf.size());
    for (Var V = 0; V < ExtOf.size(); ++V)
      FinalModel[V] = Theory->value(ExtOf[V]).asInt64();
    return TRes::Ok;
  }
  int64_t Floor = Theory->value(Frac).floor().asInt64();
  uint32_t SplitVar =
      atomVarForTerm(LinTerm::variable(FracVar) - LinTerm(Floor));
  Atoms[AtomOfSatVar[SplitVar]].SimplexRow = Frac;
  // β(Frac) is strictly between Floor and Floor+1, so neither polarity of
  // the split atom can already be asserted — the clause below genuinely
  // extends the boolean search space (progress is guaranteed). Prefer the
  // downward branch (x ≤ ⌊β⌋): counts are bounded below by 0, so downward
  // split chains terminate, whereas upward chains can ascend forever.
  Sat.setPolarity(SplitVar, true);
  ++NumSplits;
  ConflictOut.push_back(Lit(SplitVar, false));
  ConflictOut.push_back(Lit(SplitVar, true));
  return TRes::Conflict;
}

QfResult
IncrementalContext::Impl::solve(const std::vector<FormulaId> &Assumptions,
                                const ModelRefiner &Refine) {
  const bool Stats = std::getenv("POSTR_QF_STATS") != nullptr;
  Start = Clock::now();
  LastTrace = Start;
  TheoryConflicts = 0;
  UnsatAssumps.clear();
  ++Solves;
  QfResult Out;

  // Resolve the active budget for this solve (setOptions may have swapped
  // it). The context stays reusable after a trip: nothing below caches
  // the tripped budget beyond this call.
  Stop = StopReason::None;
  Bud = Opts.Budget;
  Sat.setBudget(Bud);

  // Assumption literals: active scope selectors first, then the caller's
  // formulas flattened. Remember which input index each literal serves so
  // an Unsat core maps back to assumption formulas.
  std::vector<Lit> Assume;
  Assume.reserve(Selectors.size() + Assumptions.size());
  for (uint32_t S : Selectors)
    Assume.push_back(Lit(S, false));
  std::unordered_map<uint32_t, uint32_t> IndexOfLit; // Lit code -> input idx
  for (uint32_t AI = 0; AI < Assumptions.size(); ++AI) {
    size_t Begin = Assume.size();
    flattenAssumption(Assumptions[AI], Assume);
    for (size_t I = Begin; I < Assume.size(); ++I)
      IndexOfLit.emplace(Assume[I].Code, AI);
  }

  if (stopped("lia.sat")) {
    Out.V = Verdict::Unknown;
    Out.Stop = Stop;
    Out.Stats.BudgetTrips = 1;
    Cumulative += Out.Stats;
    return Out;
  }
  prepareTheory();
  if (stopped("lia.sat")) {
    Out.V = Verdict::Unknown;
    Out.Stop = Stop;
    Out.Stats.BudgetTrips = 1;
    Cumulative += Out.Stats;
    return Out;
  }

  const SatStats SatBefore = Sat.stats();
  const SimplexStats TheoryBefore = Theory->stats();

  for (bool Done = false; !Done;) {
    switch (Sat.solve(this, Assume)) {
    case SatSolver::Res::Sat: {
      if (Refine) {
        std::optional<FormulaId> Cut = Refine(A, FinalModel);
        if (Cut) {
          // Conjoin the cut permanently and resume — keeping every
          // learned clause AND the tableau basis. prepareTheory()
          // re-baselines and registers whatever the cut minted.
          Lit CutLit = encode(lowered(*Cut));
#ifndef NDEBUG
          DebugAsserts.front().push_back(*Cut);
#endif
          prepareTheory();
          Sat.addClause({CutLit});
          continue;
        }
      }
      Out.V = Verdict::Sat;
      Out.Model = std::move(FinalModel);
      FinalModel.clear();
      Done = true;
      break;
    }
    case SatSolver::Res::Unsat:
      Out.V = Verdict::Unsat;
      if (!Sat.globallyUnsat()) {
        for (Lit L : Sat.assumptionCore()) {
          auto It = IndexOfLit.find(L.Code);
          if (It != IndexOfLit.end())
            UnsatAssumps.push_back(It->second);
        }
        std::sort(UnsatAssumps.begin(), UnsatAssumps.end());
        UnsatAssumps.erase(
            std::unique(UnsatAssumps.begin(), UnsatAssumps.end()),
            UnsatAssumps.end());
      }
      Done = true;
      break;
    case SatSolver::Res::Abort:
      Out.V = Verdict::Unknown;
      // Aborts come from stopped() (budget/cancel/deadline) or from the
      // MaxTheoryConflicts runaway cap; both recorded their reason.
      Out.Stop = Stop != StopReason::None ? Stop : StopReason::StepBudget;
      Done = true;
      break;
    }
  }

  const SatStats &SS = Sat.stats();
  Out.Stats.Conflicts = SS.Conflicts - SatBefore.Conflicts;
  Out.Stats.Propagations = SS.Propagations - SatBefore.Propagations;
  Out.Stats.Decisions = SS.Decisions - SatBefore.Decisions;
  Out.Stats.Restarts = SS.Restarts - SatBefore.Restarts;
  Out.Stats.Reductions = SS.Reductions - SatBefore.Reductions;
  Out.Stats.ClausesDeleted = SS.ClausesDeleted - SatBefore.ClausesDeleted;
  const SimplexStats &TS = Theory->stats();
  Out.Stats.Pivots = TS.Pivots - TheoryBefore.Pivots;
  Out.Stats.Checks = TS.Checks - TheoryBefore.Checks;
  Out.Stats.RowFillIn = TS.RowFillIn - TheoryBefore.RowFillIn;
  Out.Stats.MaxRowNnz = TS.MaxRowNnz; // high-water mark, not a delta
  Out.Stats.DenNormalizations =
      TS.DenNormalizations - TheoryBefore.DenNormalizations;
  Out.Stats.RuleSwitches = TS.RuleSwitches - TheoryBefore.RuleSwitches;
  Out.Stats.FenceRecoveries =
      TS.FenceRecoveries - TheoryBefore.FenceRecoveries;
  for (size_t R = 0; R < NumPivotRules; ++R)
    Out.Stats.PivotsByRule[R] =
        TS.PivotsByRule[R] - TheoryBefore.PivotsByRule[R];
  Out.Stats.TheoryConflicts = TheoryConflicts;
  if (Out.V == Verdict::Unknown && Out.Stop != StopReason::None)
    Out.Stats.BudgetTrips = 1;
  Cumulative += Out.Stats;

  if (std::getenv("POSTR_SIMPLEX_STATS"))
    std::fprintf(stderr,
                 "[simplex] pivots=%llu checks=%llu fill=%llu maxnnz=%llu "
                 "dennorm=%llu rule=%d switches=%llu\n",
                 (unsigned long long)TS.Pivots, (unsigned long long)TS.Checks,
                 (unsigned long long)TS.RowFillIn,
                 (unsigned long long)TS.MaxRowNnz,
                 (unsigned long long)TS.DenNormalizations,
                 static_cast<int>(Theory->activeRule()),
                 (unsigned long long)TS.RuleSwitches);
  if (Stats)
    std::fprintf(
        stderr,
        "[qf] v=%d atoms=%zu satvars=%u scopes=%zu assume=%zu tconf=%u "
        "confl=%llu prop=%llu dec=%llu piv=%llu ms=%lld\n",
        static_cast<int>(Out.V), Atoms.size(), Sat.numVars(),
        Selectors.size(), Assume.size(), TheoryConflicts,
        (unsigned long long)Out.Stats.Conflicts,
        (unsigned long long)Out.Stats.Propagations,
        (unsigned long long)Out.Stats.Decisions,
        (unsigned long long)Out.Stats.Pivots,
        static_cast<long long>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - Start)
                .count()));

#ifndef NDEBUG
  if (Out.V == Verdict::Sat) {
    assert(Out.Model.size() == ExtOf.size() && "model size mismatch");
    for (const std::vector<FormulaId> &Frame : DebugAsserts)
      for (FormulaId F : Frame)
        assert(A.eval(F, Out.Model) &&
               "model violates an active assertion");
    for (FormulaId F : Assumptions)
      assert(A.eval(F, Out.Model) && "model violates an assumption");
  }
#endif
  return Out;
}

//===----------------------------------------------------------------------===//
// Public wrapper
//===----------------------------------------------------------------------===//

IncrementalContext::IncrementalContext(Arena &A, const QfOptions &Opts)
    : I(std::make_unique<Impl>(A, Opts)) {}

IncrementalContext::~IncrementalContext() = default;

void IncrementalContext::setOptions(const QfOptions &O) { I->Opts = O; }

void IncrementalContext::assertFormula(FormulaId F) { I->assertFormula(F); }

void IncrementalContext::push() { I->push(); }

void IncrementalContext::pop() { I->pop(); }

size_t IncrementalContext::numScopes() const { return I->Selectors.size(); }

QfResult IncrementalContext::solve(const std::vector<FormulaId> &Assumptions,
                                   const ModelRefiner &Refine) {
  return I->solve(Assumptions, Refine);
}

const std::vector<uint32_t> &IncrementalContext::unsatAssumptions() const {
  return I->UnsatAssumps;
}

const QfSearchStats &IncrementalContext::cumulativeStats() const {
  return I->Cumulative;
}

uint64_t IncrementalContext::numSolves() const { return I->Solves; }
