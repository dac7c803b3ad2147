//===- tests/BudgetTest.cpp - Resource governance & fault injection ---------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// The shared Budget token (base/Budget.h) and the deterministic fault
// injector. The sweep test arms every registered probe site in turn and
// asserts the property the whole robustness layer exists for: a trip at
// any site unwinds cleanly into a *reasoned* Unknown and never flips a
// determinate verdict.
//
//===----------------------------------------------------------------------===//

#include "base/Budget.h"

#include "eq/Stabilize.h"
#include "lia/Incremental.h"
#include "regex/Regex.h"
#include "solver/Baselines.h"
#include "solver/BruteForce.h"
#include "solver/PositionSolver.h"
#include "tagaut/Encoder.h"
#include "tagaut/Parikh.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <thread>

using namespace postr;
using automata::Nfa;

namespace {

//===----------------------------------------------------------------------===
// Budget unit tests
//===----------------------------------------------------------------------===

TEST(BudgetTest, UnlimitedBudgetNeverTrips) {
  Budget B;
  for (int I = 0; I < 1000; ++I)
    EXPECT_TRUE(B.checkpoint("lia.sat"));
  EXPECT_FALSE(B.exceeded());
  EXPECT_EQ(B.reason(), StopReason::None);
  EXPECT_EQ(B.remainingMs(), ~0ull);
}

TEST(BudgetTest, StepLimitTripsDeterministically) {
  Budget B(Budget::Limits{0, 0, 5, nullptr});
  int Allowed = 0;
  while (B.checkpoint("lia.sat"))
    ++Allowed;
  EXPECT_EQ(Allowed, 5);
  EXPECT_EQ(B.reason(), StopReason::StepBudget);
  // Sticky: later probes keep refusing.
  EXPECT_FALSE(B.checkpoint("lia.sat"));
}

TEST(BudgetTest, MemCapTrips) {
  Budget B(Budget::Limits{0, 1024, 0, nullptr});
  EXPECT_TRUE(B.chargeMem(512));
  EXPECT_TRUE(B.chargeMem(512)); // exactly at the cap: still fine
  EXPECT_FALSE(B.chargeMem(1));
  EXPECT_EQ(B.reason(), StopReason::MemOut);
  EXPECT_EQ(B.memCharged(), 1025u);
  EXPECT_FALSE(B.checkpoint("nfa.intersect"));
}

TEST(BudgetTest, CancelFlagTrips) {
  std::atomic<bool> Cancel{false};
  Budget B(Budget::Limits{0, 0, 0, &Cancel});
  EXPECT_TRUE(B.checkpoint("eq.stabilize"));
  Cancel.store(true);
  EXPECT_FALSE(B.checkpoint("eq.stabilize"));
  EXPECT_EQ(B.reason(), StopReason::Cancelled);
}

TEST(BudgetTest, ChildSeesRootCancel) {
  // An external cancel raised on the root must stop a running descendant
  // at its next probe, even though nothing probes the root meanwhile.
  std::atomic<bool> Cancel{false};
  Budget Root(Budget::Limits{0, 0, 0, &Cancel});
  Budget Child(Root.childLimits());
  Budget Leaf(Child.childLimits());
  EXPECT_TRUE(Child.checkpoint("lia.sat"));
  EXPECT_TRUE(Leaf.checkpoint("lia.sat"));
  Cancel.store(true);
  EXPECT_FALSE(Child.checkpoint("lia.sat"));
  EXPECT_EQ(Child.reason(), StopReason::Cancelled);
  EXPECT_FALSE(Leaf.checkpoint("lia.sat"));
  EXPECT_EQ(Leaf.reason(), StopReason::Cancelled);
}

TEST(BudgetTest, DeadlineTrips) {
  Budget B(Budget::Limits{1, 0, 0, nullptr});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // The clock is only consulted every ~64th probe; 256 probes guarantee
  // several deadline checks.
  bool Tripped = false;
  for (int I = 0; I < 256 && !Tripped; ++I)
    Tripped = !B.checkpoint("lia.sat");
  EXPECT_TRUE(Tripped);
  EXPECT_EQ(B.reason(), StopReason::Timeout);
  EXPECT_EQ(B.remainingMs(), 0u);
}

TEST(BudgetTest, FirstReasonWins) {
  Budget B;
  EXPECT_EQ(B.trip(StopReason::MemOut), StopReason::MemOut);
  EXPECT_EQ(B.trip(StopReason::Timeout), StopReason::MemOut);
  EXPECT_EQ(B.reason(), StopReason::MemOut);
}

TEST(BudgetTest, ChildLimitsIntersectDeadlinesAndCaps) {
  // Parent with a deadline: the child gets min(cap, remaining), never 0
  // (0 would mean "no deadline" and unbound the child).
  Budget P(Budget::Limits{10000, 100, 1000, nullptr});
  Budget::Limits Tight = P.childLimits(/*CapMs=*/5000);
  EXPECT_GT(Tight.TimeoutMs, 0u);
  EXPECT_LE(Tight.TimeoutMs, 5000u);
  Budget::Limits Loose = P.childLimits(/*CapMs=*/50000);
  EXPECT_LE(Loose.TimeoutMs, 10000u);
  EXPECT_EQ(Tight.Parent, &P);
  // Mem/step limits: inherited by default, tighter-of-the-two when
  // overridden.
  EXPECT_EQ(Tight.MemLimitBytes, 100u);
  EXPECT_EQ(Tight.StepLimit, 1000u);
  EXPECT_EQ(P.childLimits(0, 50, 2000).MemLimitBytes, 50u);
  EXPECT_EQ(P.childLimits(0, 500, 2000).MemLimitBytes, 100u);
  EXPECT_EQ(P.childLimits(0, 0, 10).StepLimit, 10u);
  EXPECT_EQ(P.childLimits(0, 0, 5000).StepLimit, 1000u);
  // Parent without a deadline: only the explicit cap applies.
  Budget Free;
  EXPECT_EQ(Free.childLimits().TimeoutMs, 0u);
  EXPECT_EQ(Free.childLimits(7).TimeoutMs, 7u);
}

TEST(BudgetTest, NestedChildrenFirstReasonWins) {
  // A trip anywhere up the chain reaches every descendant at its next
  // probe, carrying the ancestor's reason.
  Budget Root;
  Budget Mid(Root.childLimits());
  Budget Leaf(Mid.childLimits());
  EXPECT_TRUE(Leaf.checkpoint("lia.sat"));
  Root.trip(StopReason::MemOut);
  EXPECT_FALSE(Leaf.checkpoint("lia.sat"));
  EXPECT_EQ(Leaf.reason(), StopReason::MemOut);
  EXPECT_FALSE(Mid.checkpoint("lia.sat"));
  EXPECT_EQ(Mid.reason(), StopReason::MemOut);

  // A child that already tripped locally keeps its own first reason even
  // when an ancestor trips with a different one afterwards — and its own
  // descendants inherit the child's reason, not the ancestor's.
  Budget Root2;
  Budget Mid2(Root2.childLimits());
  Mid2.trip(StopReason::StepBudget);
  Budget Leaf2(Mid2.childLimits());
  Root2.trip(StopReason::Timeout);
  EXPECT_FALSE(Leaf2.checkpoint("lia.sat"));
  EXPECT_EQ(Leaf2.reason(), StopReason::StepBudget);
  EXPECT_FALSE(Mid2.checkpoint("lia.sat"));
  EXPECT_EQ(Mid2.reason(), StopReason::StepBudget);
}

TEST(BudgetTest, StopReasonNamesAreStable) {
  EXPECT_STREQ(stopReasonName(StopReason::None), "none");
  EXPECT_STREQ(stopReasonName(StopReason::Timeout), "timeout");
  EXPECT_STREQ(stopReasonName(StopReason::Cancelled), "cancelled");
  EXPECT_STREQ(stopReasonName(StopReason::MemOut), "memout");
  EXPECT_STREQ(stopReasonName(StopReason::StepBudget), "stepbudget");
}

//===----------------------------------------------------------------------===
// Fault injector plumbing
//===----------------------------------------------------------------------===

/// Arms a process-wide injector for one scope and always disarms on the
/// way out, so a failing assertion cannot poison later tests.
struct ArmGuard {
  FaultInjector I;
  ArmGuard(const char *Site, uint64_t Nth, uint64_t Seed) : I(Site, Nth, Seed) {
    FaultInjector::arm(&I);
  }
  ~ArmGuard() { FaultInjector::arm(nullptr); }
};

TEST(FaultInjectTest, FiresExactlyOnNthProbe) {
  ArmGuard G("lia.sat", 3, 0);
  Budget B;
  EXPECT_TRUE(B.checkpoint("lia.sat"));
  EXPECT_TRUE(B.checkpoint("nfa.intersect")); // other sites don't count
  EXPECT_TRUE(B.checkpoint("lia.sat"));
  EXPECT_FALSE(B.checkpoint("lia.sat")); // third hit trips
  EXPECT_EQ(G.I.fired(), 1u);
  EXPECT_EQ(G.I.hits(), 3u);
  EXPECT_EQ(B.reason(), G.I.reason());
  // One-shot: a fresh budget sails past the already-spent injector.
  Budget B2;
  EXPECT_TRUE(B2.checkpoint("lia.sat"));
}

TEST(FaultInjectTest, EnvSpecParses) {
  ASSERT_EQ(setenv("POSTR_FAULT_INJECT", "lia.mbqi:2:7", 1), 0);
  FaultInjector *I = faultInjectorFromEnv();
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(FaultInjector::armed(), I);
  Budget B;
  EXPECT_TRUE(B.checkpoint("lia.mbqi"));
  EXPECT_FALSE(B.checkpoint("lia.mbqi"));
  EXPECT_EQ(B.reason(), I->reason());
  FaultInjector::arm(nullptr);
  unsetenv("POSTR_FAULT_INJECT");
}

TEST(FaultInjectTest, BadEnvSpecIsRejected) {
  ASSERT_EQ(setenv("POSTR_FAULT_INJECT", "no.such.site:1", 1), 0);
  EXPECT_EQ(faultInjectorFromEnv(), nullptr);
  ASSERT_EQ(setenv("POSTR_FAULT_INJECT", "missing-colon", 1), 0);
  EXPECT_EQ(faultInjectorFromEnv(), nullptr);
  unsetenv("POSTR_FAULT_INJECT");
  FaultInjector::arm(nullptr);
}

//===----------------------------------------------------------------------===
// Per-site workloads for the sweep
//===----------------------------------------------------------------------===

/// Random ε-free NFA with a spine (bench_hotpath's shape, smaller).
Nfa randomNfa(uint32_t NumStates, uint32_t Sigma, uint32_t ExtraEdges,
              uint32_t Seed) {
  std::mt19937 Rng(Seed);
  Nfa A(Sigma);
  A.addStates(NumStates);
  A.markInitial(0);
  A.markFinal(NumStates - 1);
  for (uint32_t Q = 0; Q + 1 < NumStates; ++Q)
    A.addTransition(Q, Rng() % Sigma, Q + 1);
  for (uint32_t E = 0; E < ExtraEdges; ++E)
    A.addTransition(Rng() % NumStates, Rng() % Sigma, Rng() % NumStates);
  return A;
}

/// Random tag automaton with real Parikh/Simplex load (bench's solve
/// stage, smaller).
tagaut::TagAutomaton randomTa(tagaut::TagTable &Tags, uint32_t NumStates,
                              uint32_t Seed) {
  std::mt19937 Rng(Seed);
  tagaut::TagAutomaton Ta;
  Ta.addStates(NumStates);
  Ta.markInitial(0);
  Ta.markFinal(NumStates - 1);
  for (uint32_t Q = 0; Q + 1 < NumStates; ++Q)
    Ta.addTransition({Q, Q + 1, 0, false,
                      {Tags.intern(tagaut::Tag::symbol(Rng() % 2))}});
  for (uint32_t E = 0; E < 2 * NumStates; ++E)
    Ta.addTransition({static_cast<uint32_t>(Rng() % NumStates),
                      static_cast<uint32_t>(Rng() % NumStates), 0, false,
                      {Tags.intern(tagaut::Tag::symbol(Rng() % 2))}});
  return Ta;
}

Verdict liaDriver() {
  tagaut::TagTable Tags;
  tagaut::TagAutomaton Ta = randomTa(Tags, 20, 4711);
  lia::Arena A;
  tagaut::ParikhFormula Pf =
      buildParikhFormula(Ta, A, "b.", tagaut::SpanMode::Eager);
  Budget Bud;
  lia::QfOptions O;
  O.Budget = &Bud;
  lia::QfResult R = lia::solveQF(A, Pf.Formula, O);
  if (R.V == Verdict::Unknown)
    EXPECT_NE(R.Stop, StopReason::None);
  return R.V;
}

Verdict mpDriver(std::vector<tagaut::PosPredicate> Preds,
                 std::map<VarId, std::string> Regexes) {
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  for (const auto &[X, Re] : Regexes)
    Langs[X] = regex::compileString(Re, Sigma);
  lia::Arena A;
  Budget Bud;
  tagaut::MpOptions O;
  O.Budget = &Bud;
  tagaut::MpResult R =
      solveMP(A, Langs, Preds, Sigma.size(), nullptr, O);
  if (R.V == Verdict::Unknown)
    EXPECT_NE(R.Stop, StopReason::None);
  return R.V;
}

struct SiteCase {
  const char *Site;
  std::function<Verdict()> Run;
};

std::vector<SiteCase> siteCases() {
  std::vector<SiteCase> Cases;

  Cases.push_back({"nfa.intersect", [] {
    Nfa A = randomNfa(24, 3, 48, 101), B = randomNfa(24, 3, 48, 202);
    Budget Bud;
    Nfa P = automata::intersect(A, B, &Bud);
    if (Bud.exceeded())
      return Verdict::Unknown; // partial product: discarded
    return P.isEmpty() ? Verdict::Unsat : Verdict::Sat;
  }});

  Cases.push_back({"nfa.determinize", [] {
    Nfa A = randomNfa(16, 3, 32, 303);
    Budget Bud;
    Nfa D = automata::determinize(A, &Bud);
    if (Bud.exceeded())
      return Verdict::Unknown;
    return D.isEmpty() ? Verdict::Unsat : Verdict::Sat;
  }});

  Cases.push_back({"nfa.epsilon", [] {
    // Concatenation introduces ε-links, so removal has real work.
    Nfa C = automata::concatenate(randomNfa(12, 3, 24, 404),
                                  randomNfa(12, 3, 24, 505));
    Budget Bud;
    Nfa E = C.removeEpsilon(&Bud);
    if (Bud.exceeded())
      return Verdict::Unknown;
    return E.isEmpty() ? Verdict::Unsat : Verdict::Sat;
  }});

  Cases.push_back({"eq.stabilize", [] {
    // xy = z with z fixed: completes (EqTest's ConcatenationSplit shape).
    Alphabet Sigma;
    std::map<VarId, Nfa> Langs;
    Langs[0] = regex::compileString("(a|b)*", Sigma);
    Langs[1] = regex::compileString("(a|b)*", Sigma);
    Langs[2] = regex::compileString("abab", Sigma);
    std::vector<eq::WordEquation> Eqs = {{{0, 1}, {2}}};
    VarId Fresh = 100;
    Budget Bud;
    eq::StabilizeOptions O;
    O.Budget = &Bud;
    eq::StabilizeResult R = eq::stabilize(Langs, Eqs, Fresh, O);
    if (!R.Complete) {
      EXPECT_NE(R.Stop, StopReason::None);
      return Verdict::Unknown;
    }
    return R.Disjuncts.empty() ? Verdict::Unsat : Verdict::Sat;
  }});

  Cases.push_back({"tagaut.encode", [] {
    Alphabet Sigma;
    std::map<VarId, Nfa> Langs;
    Langs[0] = regex::compileString("a{1,2}", Sigma);
    Langs[1] = regex::compileString("b{1,2}", Sigma);
    std::vector<tagaut::PosPredicate> Preds = {
        {tagaut::PredKind::Diseq, {0}, {1}, {}}};
    lia::Arena A;
    Budget Bud;
    tagaut::EncoderOptions EO;
    EO.Budget = &Bud;
    tagaut::SystemEncoding Enc =
        encodeSystem(A, Langs, Preds, Sigma.size(), EO);
    if (Bud.exceeded())
      return Verdict::Unknown; // partial encoding: discarded
    return Enc.Ta.transitions().empty() ? Verdict::Unsat : Verdict::Sat;
  }});

  Cases.push_back({"tagaut.parikh", [] {
    tagaut::TagTable Tags;
    tagaut::TagAutomaton Ta = randomTa(Tags, 10, 606);
    lia::Arena A;
    Budget Bud;
    buildParikhFormula(Ta, A, "t.", tagaut::SpanMode::Eager, &Bud);
    return Bud.exceeded() ? Verdict::Unknown : Verdict::Sat;
  }});

  Cases.push_back({"lia.sat", liaDriver});
  Cases.push_back({"lia.simplex", liaDriver});

  Cases.push_back({"lia.mbqi", [] {
    // ¬contains(x, y), x ∈ a, y ∈ aa: "a" occurs in "aa", Unsat — and no
    // pre-MBQI short-circuit applies (distinct vars, unequal languages),
    // so the verdict comes from the MBQI refutation loop.
    return mpDriver({{tagaut::PredKind::NotContains, {0}, {1}, {}}},
                    {{0, "a"}, {1, "aa"}});
  }});

  Cases.push_back({"solver.disjunct", [] {
    strings::Problem P;
    VarId U = P.strVar("u"), V = P.strVar("v");
    P.assertInRe(U, "a*");
    P.assertInRe(V, "a*");
    P.assertWordEq({strings::StrElem::var(U), strings::StrElem::var(V)},
                   {strings::StrElem::var(V), strings::StrElem::var(U)});
    P.assertDiseq({strings::StrElem::var(U)}, {strings::StrElem::var(V)});
    solver::SolveOptions O;
    O.TimeoutMs = 20000;
    solver::SolveResult R = solver::solveProblem(P, O);
    if (R.V == Verdict::Unknown)
      EXPECT_NE(R.Stop, StopReason::None);
    return R.V;
  }});

  Cases.push_back({"solver.enum", [] {
    strings::Problem P;
    VarId X = P.strVar("x");
    P.assertInRe(X, "(a|b){1,2}");
    P.assertDiseq({strings::StrElem::var(X)}, {strings::StrElem::lit("a")});
    solver::EnumOptions O;
    O.TimeoutMs = 20000;
    solver::SolveResult R = solver::solveEnum(P, O);
    if (R.V == Verdict::Unknown)
      EXPECT_NE(R.Stop, StopReason::None);
    return R.V;
  }});

  Cases.push_back({"solver.bruteforce", [] {
    Alphabet Sigma;
    std::map<VarId, Nfa> Langs;
    Langs[0] = regex::compileString("a|b", Sigma);
    Langs[1] = regex::compileString("a", Sigma);
    std::vector<tagaut::PosPredicate> Preds = {
        {tagaut::PredKind::Diseq, {0}, {1}, {}}};
    Budget Bud;
    solver::BruteForceOptions O;
    O.Budget = &Bud;
    solver::BruteForceResult R = solver::solveBruteForce(Langs, Preds, O);
    if (R.V == Verdict::Unknown)
      EXPECT_NE(R.Stop, StopReason::None);
    return R.V;
  }});

  Cases.push_back({"counter.walk", [] {
    // xy ≠ yx over (ab)*: Unsat, decided by the one-counter fast path
    // after tens of thousands of expanded pairs (dozens of probes).
    strings::Problem P;
    VarId X = P.strVar("x"), Y = P.strVar("y");
    P.assertInRe(X, "(ab)*");
    P.assertInRe(Y, "(ab)*");
    P.assertDiseq({strings::StrElem::var(X), strings::StrElem::var(Y)},
                  {strings::StrElem::var(Y), strings::StrElem::var(X)});
    solver::SolveOptions O;
    O.TimeoutMs = 20000;
    solver::SolveResult R = solver::solveProblem(P, O);
    if (R.V == Verdict::Unknown)
      EXPECT_NE(R.Stop, StopReason::None);
    else
      EXPECT_EQ(R.Stats.FastPathDecisions, 1u);
    return R.V;
  }});

  return Cases;
}

//===----------------------------------------------------------------------===
// The sweep: every registered site trips cleanly and never flips
//===----------------------------------------------------------------------===

TEST(FaultSweepTest, EverySiteRegisteredAndCovered) {
  std::vector<SiteCase> Cases = siteCases();
  const std::vector<const char *> &Names = faultSiteNames();
  ASSERT_EQ(Cases.size(), Names.size());
  for (const SiteCase &C : Cases) {
    bool Known = false;
    for (const char *N : Names)
      Known = Known || std::strcmp(N, C.Site) == 0;
    EXPECT_TRUE(Known) << "driver for unregistered site " << C.Site;
  }
}

TEST(FaultSweepTest, TripsUnwindCleanlyWithoutVerdictFlips) {
  for (const SiteCase &C : siteCases()) {
    FaultInjector::arm(nullptr);
    Verdict Oracle = C.Run();
    ASSERT_NE(Oracle, Verdict::Unknown)
        << C.Site << ": oracle workload must be determinate";
    for (uint64_t Nth : {1ull, 3ull}) {
      ArmGuard G(C.Site, Nth, /*Seed=*/Nth * 97 + 13);
      Verdict V = C.Run();
      if (Nth == 1)
        EXPECT_GE(G.I.fired(), 1u)
            << C.Site << ": workload never probes its own site";
      if (G.I.fired())
        EXPECT_TRUE(V == Verdict::Unknown || V == Oracle)
            << C.Site << ": injected " << stopReasonName(G.I.reason())
            << " flipped " << static_cast<int>(Oracle) << " to "
            << static_cast<int>(V);
      else
        EXPECT_EQ(V, Oracle) << C.Site;
    }
  }
}

//===----------------------------------------------------------------------===
// Tripped contexts stay reusable
//===----------------------------------------------------------------------===

TEST(FaultSweepTest, TrippedIncrementalContextIsReusable) {
  tagaut::TagTable Tags;
  tagaut::TagAutomaton Ta = randomTa(Tags, 14, 777);
  lia::Arena A;
  tagaut::ParikhFormula Pf =
      buildParikhFormula(Ta, A, "t.", tagaut::SpanMode::Eager);

  lia::QfResult Oracle = lia::solveQF(A, Pf.Formula);
  ASSERT_NE(Oracle.V, Verdict::Unknown);

  Budget Tripped;
  lia::QfOptions O;
  O.Budget = &Tripped;
  lia::IncrementalContext IC(A, O);
  IC.assertFormula(Pf.Formula);
  {
    ArmGuard G("lia.sat", 1, 5);
    lia::QfResult R = IC.solve();
    EXPECT_EQ(G.I.fired(), 1u);
    EXPECT_EQ(R.V, Verdict::Unknown);
    EXPECT_NE(R.Stop, StopReason::None);
  }
  // The context must survive the mid-solve unwind: re-solving on a fresh
  // budget with the injector disarmed matches the one-shot oracle.
  Budget Fresh;
  O.Budget = &Fresh;
  IC.setOptions(O);
  lia::QfResult R2 = IC.solve();
  EXPECT_EQ(R2.V, Oracle.V);
  EXPECT_EQ(R2.Stop, StopReason::None);
}

TEST(FaultSweepTest, TrippedSolveRetriesOnFreshBudget) {
  // End-to-end flavour of the same property: a solve stopped by a step
  // budget answers Unknown with the reason, and the identical problem
  // solved again without the cap gives the real verdict.
  strings::Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(ab)*");
  P.assertDiseq({strings::StrElem::var(X)}, {strings::StrElem::lit("ab")});

  solver::SolveOptions Full;
  Full.TimeoutMs = 20000;
  solver::SolveResult Oracle = solver::solveProblem(P, Full);
  ASSERT_NE(Oracle.V, Verdict::Unknown);

  solver::SolveOptions Tiny = Full;
  Tiny.StepLimit = 1;
  solver::SolveResult R = solver::solveProblem(P, Tiny);
  ASSERT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::StepBudget);

  solver::SolveResult Again = solver::solveProblem(P, Full);
  EXPECT_EQ(Again.V, Oracle.V);
  EXPECT_EQ(Again.Stop, StopReason::None);
}

TEST(BudgetTest, BruteForceTimeoutComposesWithSharedBudget) {
  // A tight child of an unlimited shared budget still stops the
  // enumeration: the child's own 1 ms deadline governs, where a bare
  // shared budget would allow minutes of enumeration.
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  Langs[0] = regex::compileString("(a|b)*", Sigma);
  Langs[1] = regex::compileString("(a|b)*", Sigma);
  // x != x never holds, so enumeration can only stop on a limit.
  std::vector<tagaut::PosPredicate> Preds = {
      {tagaut::PredKind::Diseq, {0}, {0}, {}}};

  Budget Unlimited(Budget::Limits{0, 0, 0, nullptr});
  Budget Tight(Unlimited.childLimits(/*CapMs=*/1));
  solver::BruteForceOptions O;
  O.MaxWordLen = 12;
  O.Budget = &Tight;
  solver::BruteForceResult R = solver::solveBruteForce(Langs, Preds, O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::Timeout);
}

TEST(BudgetTest, BruteForceSharedBudgetComposesWithTimeout) {
  // The other direction: a child with a generous deadline keeps the
  // step limit of its shared parent and still trips on it.
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  Langs[0] = regex::compileString("(a|b)*", Sigma);
  std::vector<tagaut::PosPredicate> Preds = {
      {tagaut::PredKind::Diseq, {0}, {0}, {}}};

  Budget Stepped(Budget::Limits{0, 0, 1, nullptr});
  Budget Generous(Stepped.childLimits(/*CapMs=*/20000));
  solver::BruteForceOptions O;
  O.MaxWordLen = 12;
  O.Budget = &Generous;
  solver::BruteForceResult R = solver::solveBruteForce(Langs, Preds, O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::StepBudget);
}

TEST(BudgetTest, EnumTimeoutComposesWithSharedBudget) {
  strings::Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(a|b)*");
  P.assertInRe(Y, "(a|b)*");
  P.assertDiseq({strings::StrElem::var(X)}, {strings::StrElem::var(X)});

  Budget Unlimited(Budget::Limits{0, 0, 0, nullptr});
  solver::EnumOptions O;
  O.MaxWordLen = 12;
  O.TimeoutMs = 1;
  O.Budget = &Unlimited;
  solver::SolveResult R = solver::solveEnum(P, O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::Timeout);
}

} // namespace
