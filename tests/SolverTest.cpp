//===- tests/SolverTest.cpp - End-to-end pipeline tests ----------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// End-to-end checks of the Z3-Noodler-pos pipeline (normalize →
// stabilize → tag/LIA), the baselines, and cross-solver agreement on the
// benchmark generators.
//
//===----------------------------------------------------------------------===//

#include "base/Budget.h"
#include "smtlib/Reader.h"
#include "solver/Baselines.h"
#include "solver/PositionSolver.h"
#include "strings/Eval.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

using namespace postr;
using solver::SolveOptions;
using solver::SolveResult;
using strings::AssertKind;
using strings::IntTerm;
using strings::Problem;
using strings::StrElem;

namespace {

SolveResult solve(const Problem &P, uint64_t TimeoutMs = 20000) {
  SolveOptions Opts;
  Opts.TimeoutMs = TimeoutMs;
  return solver::solveProblem(P, Opts);
}

TEST(PipelineTest, LiteralDisequalitySat) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){1,3}");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
  EXPECT_EQ(solve(P).V, Verdict::Sat);
}

TEST(PipelineTest, LiteralDisequalityUnsat) {
  // x forced to the single word "ab" and x != "ab".
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "ab");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
  EXPECT_EQ(solve(P).V, Verdict::Unsat);
}

TEST(PipelineTest, EquationPlusDisequality) {
  // The paper's flagship combination: E ∧ R ∧ P. uv = vu forces sharing;
  // u != v remains satisfiable (different powers).
  Problem P;
  VarId U = P.strVar("u"), V = P.strVar("v");
  P.assertInRe(U, "a*");
  P.assertInRe(V, "a*");
  P.assertWordEq({StrElem::var(U), StrElem::var(V)},
                 {StrElem::var(V), StrElem::var(U)});
  P.assertDiseq({StrElem::var(U)}, {StrElem::var(V)});
  EXPECT_EQ(solve(P).V, Verdict::Sat);
}

TEST(PipelineTest, PositivePredicatesBecomeEquations) {
  // prefixof + suffixof sandwich: x starts with "ab" and ends with "ba"
  // within length 4 — e.g. "abba".
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){0,4}");
  P.assertPred(AssertKind::Prefixof, {StrElem::lit("ab")},
               {StrElem::var(X)});
  P.assertPred(AssertKind::Suffixof, {StrElem::lit("ba")},
               {StrElem::var(X)});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  const Word &W = R.Words.at(X);
  EXPECT_GE(W.size(), 2u);
}

TEST(PipelineTest, LengthConstraintInteraction) {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "a*");
  P.assertInRe(Y, "b*");
  P.assertDiseq({StrElem::var(X)}, {StrElem::var(Y)});
  // Force |x| = |y| = 0: then x = y = ε and the disequality dies.
  P.assertIntAtom(IntTerm::lenOf(X) + IntTerm::lenOf(Y), lia::Cmp::Le,
                  IntTerm::constant(0));
  EXPECT_EQ(solve(P).V, Verdict::Unsat);
}

TEST(PipelineTest, StrAtThroughPipeline) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){3}");
  // x[1] = 'b' and x != "aba" and x[0] != 'b'.
  P.assertStrAt(true, StrElem::lit("b"), {StrElem::var(X)},
                IntTerm::constant(1));
  P.assertStrAt(false, StrElem::lit("b"), {StrElem::var(X)},
                IntTerm::constant(0));
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("aba")});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Words.at(X).size(), 3u);
}

TEST(PipelineTest, ModelValidatesAgainstConcreteSemantics) {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(ab|ba)+");
  P.assertInRe(Y, "(a|b){2}");
  P.assertPred(AssertKind::NotPrefixof, {StrElem::var(Y)},
               {StrElem::var(X)});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  // solveProblem(ValidateModels=true by default) already cross-checks;
  // re-validate explicitly through the public evaluator.
  strings::NormalForm N = strings::normalize(P);
  strings::ConcreteEvaluator Eval(P, N.Sigma);
  std::map<VarId, Word> Strs(R.Words.begin(), R.Words.end());
  std::map<strings::IntVarId, int64_t> Ints(R.Ints.begin(), R.Ints.end());
  EXPECT_TRUE(Eval.evalAll(Strs, Ints));
}

TEST(PipelineTest, CommutingPowersUnsatEndToEnd) {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(abc)*");
  P.assertInRe(Y, "(abc)*");
  P.assertDiseq({StrElem::var(X), StrElem::var(Y)},
                {StrElem::var(Y), StrElem::var(X)});
  EXPECT_EQ(solve(P).V, Verdict::Unsat);
}

TEST(PipelineTest, NotContainsRotationUnsatEndToEnd) {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(ab)*");
  P.assertInRe(Y, "(ab)*");
  P.assertPred(AssertKind::NotContains,
               {StrElem::var(X), StrElem::var(Y)},
               {StrElem::var(Y), StrElem::var(X)});
  EXPECT_EQ(solve(P).V, Verdict::Unsat);
}

//===----------------------------------------------------------------------===
// Baselines
//===----------------------------------------------------------------------===

TEST(BaselineTest, EnumFindsEasySat) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){1,2}");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("a")});
  solver::EnumOptions O;
  O.TimeoutMs = 5000;
  EXPECT_EQ(solver::solveEnum(P, O).V, Verdict::Sat);
}

TEST(BaselineTest, EnumCannotProveUnboundedUnsat) {
  // Commuting powers again: enum has infinitely many assignments to try.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(ab)*");
  P.assertInRe(Y, "(ab)*");
  P.assertDiseq({StrElem::var(X), StrElem::var(Y)},
                {StrElem::var(Y), StrElem::var(X)});
  solver::EnumOptions O;
  O.TimeoutMs = 1000;
  EXPECT_NE(solver::solveEnum(P, O).V, Verdict::Sat);
}

TEST(BaselineTest, EqReductionAgreesOnEasyCases) {
  for (int Case = 0; Case < 2; ++Case) {
    Problem P;
    VarId X = P.strVar("x");
    P.assertInRe(X, Case == 0 ? "ab" : "(a|b){1,2}");
    P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
    solver::EqReductionOptions O;
    O.TimeoutMs = 10000;
    Verdict Expect = Case == 0 ? Verdict::Unsat : Verdict::Sat;
    EXPECT_EQ(solver::solveEqReduction(P, O).V, Expect) << Case;
  }
}

//===----------------------------------------------------------------------===
// Cross-solver differential on small random pipelines
//===----------------------------------------------------------------------===

class PipelineDifferential : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PipelineDifferential, SolversNeverContradict) {
  std::mt19937 Rng(GetParam());
  static const char *Regexes[] = {"(a|b){0,2}", "a*", "ab|ba", "b{1,2}"};
  static const char *Lits[] = {"a", "b", "ab", "ba"};
  for (int Iter = 0; Iter < 8; ++Iter) {
    Problem P;
    VarId X = P.strVar("x"), Y = P.strVar("y");
    P.assertInRe(X, Regexes[Rng() % 4]);
    P.assertInRe(Y, Regexes[Rng() % 4]);
    for (int A = 0; A < 2; ++A) {
      const char *Lit = Lits[Rng() % 4];
      switch (Rng() % 4) {
      case 0:
        P.assertDiseq({StrElem::var(X)},
                      {StrElem::var(Y), StrElem::lit(Lit)});
        break;
      case 1:
        P.assertPred(AssertKind::NotPrefixof, {StrElem::lit(Lit)},
                     {StrElem::var(X)});
        break;
      case 2:
        P.assertWordEq({StrElem::var(X), StrElem::var(Y)},
                       {StrElem::var(Y), StrElem::lit(Lit)});
        break;
      default:
        P.assertPred(AssertKind::Suffixof, {StrElem::lit(Lit)},
                     {StrElem::var(Y)});
        break;
      }
    }
    SolveResult Ours = solve(P, 15000);
    solver::EnumOptions EO;
    EO.TimeoutMs = 3000;
    EO.MaxWordLen = 4;
    SolveResult Enum = solver::solveEnum(P, EO);
    // Never a hard contradiction; enum-Sat implies we cannot say Unsat,
    // and vice versa.
    if (Ours.V == Verdict::Sat)
      EXPECT_NE(Enum.V, Verdict::Unsat) << "iter " << Iter;
    if (Ours.V == Verdict::Unsat)
      EXPECT_NE(Enum.V, Verdict::Sat) << "iter " << Iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineDifferential,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

//===----------------------------------------------------------------------===
// External cancellation
//===----------------------------------------------------------------------===

TEST(PipelineTest, ExternalCancelStopsRunningDisjunct) {
  // django seed 97 #3 runs far past 20 s in one disjunct. A cancel raised
  // 300 ms in must stop that disjunct mid-solve, not only at the next
  // between-disjunct probe (which would let it run to the deadline).
  Problem P = bench::generate(bench::Family::Django, 97, 3);
  std::atomic<bool> Cancel{false};
  Budget Bud(Budget::Limits{20000, 0, 0, &Cancel});
  SolveOptions Opts;
  Opts.Budget = &Bud;
  auto Start = std::chrono::steady_clock::now();
  std::jthread Canceller([&Cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Cancel.store(true);
  });
  SolveResult R = solver::solveProblem(P, Opts);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - Start)
                .count();
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::Cancelled);
  EXPECT_LT(Ms, 2000);
}

TEST(SelfCheckTest, EmptySideEquationIsSat) {
  // Regression: `x = ""` substitutes every variable away, leaving a
  // zero-state system automaton whose Parikh formula must accept the
  // empty run (it used to demand "exactly one first state" over an empty
  // sum and answer Unsat). Found by the differential fuzzer.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertWordEq({}, {StrElem::var(X), StrElem::var(Y)});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_TRUE(R.Words.at(X).empty());
  EXPECT_TRUE(R.Words.at(Y).empty());
}

TEST(SelfCheckTest, CleanSatModelIsCountedValidated) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){1,3}");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_FALSE(R.Validation.Failed);
  EXPECT_GE(R.Stats.ModelsValidated, 1u);
  EXPECT_EQ(R.Stats.ValidationFailures, 0u);
}

TEST(SelfCheckTest, TamperedModelIsDemotedToUnknown) {
  // Corrupt every produced model through the test-only hook: the
  // always-on self-check must catch it and never let the Sat escape.
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "ab");
  SolveOptions Opts;
  Opts.TimeoutMs = 20000;
  Opts.TamperModel = [](std::map<VarId, Word> &Words,
                        std::map<strings::IntVarId, int64_t> &) {
    for (auto &[V, W] : Words)
      W.clear(); // ε no longer matches "ab"
  };
  SolveResult R = solver::solveProblem(P, Opts);
  EXPECT_EQ(R.V, Verdict::Unknown);
  ASSERT_TRUE(R.Validation.Failed);
  EXPECT_NE(R.Validation.Detail.find("falsifies"), std::string::npos);
  EXPECT_GE(R.Stats.ValidationFailures, 1u);
}

TEST(SelfCheckTest, ParanoidCrossCheckKeepsTrueUnsat) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "ab");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
  SolveOptions Opts;
  Opts.TimeoutMs = 20000;
  Opts.ParanoidUnsatCheck = true;
  SolveResult R = solver::solveProblem(P, Opts);
  EXPECT_EQ(R.V, Verdict::Unsat);
  EXPECT_FALSE(R.Validation.Failed);
  EXPECT_EQ(R.Stats.ParanoidChecks, 1u);
}

} // namespace
