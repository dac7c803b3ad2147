//===- tests/FuzzTest.cpp - Differential fuzzing subsystem tests ------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Deterministic smoke coverage of src/fuzz/: the generator/mutator, the
// differential check against the enumeration oracle, the delta-debugging
// shrinker (driven by the test-only model-tamper hook), byte-level reader
// fuzzing, and fault-injected no-verdict-flip runs. Everything is seeded,
// so a failure here replays byte for byte.
//
//===----------------------------------------------------------------------===//

#include "base/Budget.h"
#include "fuzz/Fuzz.h"
#include "smtlib/Printer.h"
#include "smtlib/Reader.h"
#include "solver/PositionSolver.h"

#include <gtest/gtest.h>

using namespace postr;
using fuzz::DiffOptions;
using fuzz::DiffResult;
using fuzz::FailureKind;
using fuzz::GenOptions;
using strings::Problem;

namespace {

/// splitmix64 combiner — the same per-iteration seed derivation the
/// postr_fuzz driver uses, so a failing index maps to a driver rerun.
uint64_t mix(uint64_t A, uint64_t B) {
  uint64_t X = A + 0x9e3779b97f4a7c15ull * (B + 1);
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// Suite-wide bounds: tight enough that 500 iterations stay in test
/// time, loose enough that most verdicts are determinate.
DiffOptions smokeOptions() {
  DiffOptions O;
  O.SolverStepLimit = 1'000;
  O.SolverMaxDisjuncts = 8;
  O.OracleStepLimit = 10'000;
  return O;
}

TEST(FuzzGenTest, GeneratorIsDeterministic) {
  for (uint64_t Seed : {1ull, 42ull, 0xdeadbeefull}) {
    Problem A = fuzz::generate(Seed);
    Problem B = fuzz::generate(Seed);
    EXPECT_EQ(smtlib::printProblem(A), smtlib::printProblem(B));
    Problem M1 = fuzz::mutate(A, Seed + 1);
    Problem M2 = fuzz::mutate(B, Seed + 1);
    EXPECT_EQ(smtlib::printProblem(M1), smtlib::printProblem(M2));
  }
}

TEST(FuzzGenTest, GeneratedProblemsParseBackExactly) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    Problem P = fuzz::generate(mix(7, Seed));
    std::string Text = smtlib::printProblem(P);
    Result<Problem> Q = smtlib::parseString(Text);
    ASSERT_TRUE(static_cast<bool>(Q)) << Q.error() << "\n" << Text;
    EXPECT_EQ(smtlib::printProblem(*Q), Text);
  }
}

TEST(FuzzDiffTest, Smoke500IterationsFindNothing) {
  DiffOptions O = smokeOptions();
  uint32_t Determinate = 0;
  for (uint64_t I = 0; I < 500; ++I) {
    uint64_t Seed = mix(1, I);
    Problem P = I % 4 == 3 ? fuzz::mutate(fuzz::generate(Seed), mix(Seed, 1))
                           : fuzz::generate(Seed);
    DiffResult D = fuzz::differentialCheck(P, O);
    EXPECT_EQ(D.Kind, FailureKind::None)
        << "iteration " << I << ": " << fuzz::failureKindName(D.Kind) << " — "
        << D.Detail << "\n" << smtlib::printProblem(P);
    if (D.SolverV != Verdict::Unknown && D.OracleV != Verdict::Unknown)
      ++Determinate;
  }
  // The check only bites when both sides answer; make sure the bounds
  // above do not silently degrade the sweep into skipped comparisons.
  EXPECT_GE(Determinate, 200u);
}

TEST(FuzzDiffTest, StrAtOverSplitLeftSideRegression) {
  // Iteration 62 of the smoke sweep (seed mix(1, 62)): stabilization
  // rewrites s1 into several variables, so the str.at predicate reaches
  // the tag-automaton encoder with a multi-variable left side. Sat, with
  // a validated model, and no disagreement with the oracle.
  Result<Problem> P = smtlib::parseString(
      "(declare-fun s0 () String)\n"
      "(declare-fun s1 () String)\n"
      "(assert (= (str.++ s1 s1 s1) (str.++ s1 \"b\" s0)))\n"
      "(assert (not (= s1 (str.at (str.++ \"ba\" s1) 0))))\n"
      "(assert (not (str.prefixof (str.++ \"aa\" s0) s1)))\n"
      "(assert (str.in_re s1 (re.opt (re.++ (re.++ (str.to_re \"b\") "
      "(str.to_re \"a\") re.allchar) (re.+ (str.to_re \"a\"))))))\n");
  ASSERT_TRUE(static_cast<bool>(P)) << P.error();
  solver::SolveResult R = solver::solveProblem(*P);
  EXPECT_EQ(R.V, Verdict::Sat);
  EXPECT_GE(R.Stats.ModelsValidated, 1u);
  EXPECT_EQ(R.Stats.ValidationFailures, 0u);
  DiffResult D = fuzz::differentialCheck(*P, smokeOptions());
  EXPECT_EQ(D.Kind, FailureKind::None)
      << fuzz::failureKindName(D.Kind) << " — " << D.Detail;
}

TEST(FuzzShrinkTest, ShrinksTamperedSatToMinimalRepro) {
  // Inject a model-corruption bug through the test-only hook: every Sat
  // turns into a self-check ValidationFailure. The shrinker must converge
  // to a small failing problem, and the .smt2 repro it implies must
  // round-trip through the reader and still fail.
  DiffOptions O = smokeOptions();
  O.TamperModel = [](std::map<VarId, Word> &Words,
                     std::map<strings::IntVarId, int64_t> &) {
    for (auto &[V, W] : Words)
      W.push_back(0);
  };
  auto Fails = [&O](const Problem &P) {
    return fuzz::differentialCheck(P, O).Kind == FailureKind::ValidationFailure;
  };

  // Find a seeded instance the injected bug bites.
  Problem Seeded = fuzz::generate(1);
  bool Found = false;
  for (uint64_t I = 0; I < 64 && !Found; ++I) {
    Seeded = fuzz::generate(mix(3, I));
    Found = Fails(Seeded);
  }
  ASSERT_TRUE(Found) << "no Sat instance in 64 seeds — generator regressed?";

  Problem Small = fuzz::shrink(Seeded, Fails);
  EXPECT_TRUE(Fails(Small));
  EXPECT_LE(fuzz::atomCount(Small), fuzz::atomCount(Seeded));
  EXPECT_LE(fuzz::problemWeight(Small), fuzz::problemWeight(Seeded));
  // A fully shrunk tampered-Sat witness is tiny — one surviving atom.
  EXPECT_EQ(fuzz::atomCount(Small), 1u);

  std::string Repro = smtlib::printProblem(Small);
  Result<Problem> Re = smtlib::parseString(Repro);
  ASSERT_TRUE(static_cast<bool>(Re)) << Re.error() << "\n" << Repro;
  EXPECT_TRUE(Fails(*Re)) << Repro;
}

TEST(FuzzReaderTest, ByteMutationsNeverCrashTheReader) {
  std::vector<std::string> Corpus;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    Corpus.push_back(smtlib::printProblem(fuzz::generate(mix(11, Seed))));
  Corpus.push_back("(declare-fun x () String)\n"
                   "(assert (str.in_re x (re.loop (str.to_re \"ab\") 1 4)))\n"
                   "(check-sat)\n(exit)\n");
  for (uint64_t I = 0; I < 300; ++I) {
    const std::string &Base = Corpus[I % Corpus.size()];
    std::string Mutated = fuzz::mutateBytes(Base, mix(13, I));
    Result<Problem> P = smtlib::parseString(Mutated);
    if (!P)
      continue; // structured rejection is the expected common case
    // Accepted mutants must still print/reparse to a fixpoint.
    std::string Text = smtlib::printProblem(*P);
    Result<Problem> Q = smtlib::parseString(Text);
    ASSERT_TRUE(static_cast<bool>(Q)) << Q.error() << "\n" << Text;
    EXPECT_EQ(smtlib::printProblem(*Q), Text);
  }
}

TEST(FuzzFaultTest, InjectedFaultsNeverFlipVerdicts) {
  DiffOptions O = smokeOptions();
  solver::SolveOptions SO;
  SO.StepLimit = O.SolverStepLimit;
  SO.Stabilize.MaxDisjuncts = O.SolverMaxDisjuncts;
  for (uint64_t I = 0; I < 24; ++I) {
    Problem P = fuzz::generate(mix(17, I));
    solver::SolveResult Clean = solver::solveProblem(P, SO);

    FaultInjector Inj("lia.simplex", 3, mix(19, I));
    FaultInjector::arm(&Inj);
    solver::SolveResult Faulted = solver::solveProblem(P, SO);
    FaultInjector::arm(nullptr);

    if (Clean.V == Verdict::Unknown || Faulted.V == Verdict::Unknown)
      continue; // a trip may only degrade, never flip
    EXPECT_EQ(Faulted.V, Clean.V) << "iteration " << I << "\n"
                                  << smtlib::printProblem(P);
  }
}

} // namespace
