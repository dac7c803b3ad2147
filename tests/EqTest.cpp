//===- tests/EqTest.cpp - Stabilization tests --------------------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// The monadic-decomposition property (Sec. 3) is the contract everything
// above relies on: every choice of words from a disjunct's languages,
// substituted through its map, must solve the original equations.
//
//===----------------------------------------------------------------------===//

#include "eq/Stabilize.h"
#include "regex/Regex.h"

#include <gtest/gtest.h>

#include <random>

using namespace postr;
using namespace postr::eq;
using automata::Nfa;

namespace {

struct Fixture {
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  std::vector<WordEquation> Eqs;
  VarId Next = 0;

  /// Declares a variable constrained to \p Re. Its letters join Sigma
  /// now; its language is compiled by finalize(), once the alphabet is
  /// closed — compiled here, an earlier variable's automaton would range
  /// over fewer letters than a later one's.
  VarId var(const std::string &Re) {
    VarId X = Next++;
    Result<regex::NodePtr> R = regex::parse(Re);
    assert(R && "bad regex in test");
    regex::collectAlphabet(**R, Sigma);
    PendingRegex.emplace_back(X, std::move(*R));
    return X;
  }

  void finalize() {
    for (auto &[X, Node] : PendingRegex)
      Langs[X] = regex::compile(*Node, Sigma);
    PendingRegex.clear();
  }

  StabilizeResult run(const StabilizeOptions &Opts = {}) {
    finalize();
    VarId Fresh = Next + 100;
    return stabilize(Langs, Eqs, Fresh, Opts);
  }

  std::vector<std::pair<VarId, regex::NodePtr>> PendingRegex;
};

/// Checks the monadic-decomposition contract on one disjunct by sampling
/// words (shortest word per terminal variable).
void checkDisjunct(const Fixture &F, const Decomposition &D) {
  std::map<VarId, Word> Terminal;
  for (const auto &[X, L] : D.Langs) {
    std::optional<Word> W = L.someWord();
    ASSERT_TRUE(W.has_value()) << "empty terminal language";
    Terminal[X] = *W;
  }
  auto WordOf = [&](VarId X) {
    Word Out;
    auto It = D.Subst.find(X);
    EXPECT_TRUE(It != D.Subst.end()) << "missing substitution";
    for (VarId T : It->second) {
      const Word &W = Terminal.at(T);
      Out.insert(Out.end(), W.begin(), W.end());
    }
    return Out;
  };
  for (const WordEquation &E : F.Eqs) {
    Word L, R;
    for (VarId X : E.Lhs) {
      Word W = WordOf(X);
      L.insert(L.end(), W.begin(), W.end());
    }
    for (VarId X : E.Rhs) {
      Word W = WordOf(X);
      R.insert(R.end(), W.begin(), W.end());
    }
    EXPECT_EQ(L, R) << "decomposition violates an input equation";
  }
  // And terminal languages respect the original regular constraints:
  // every original variable's substituted word is in its language.
  for (const auto &[X, L] : F.Langs)
    EXPECT_TRUE(L.accepts(WordOf(X)))
        << "substituted word escapes the original language of x" << X;
}

TEST(StabilizeTest, NoEquationsIsIdentity) {
  Fixture F;
  F.var("a*");
  F.var("b|c");
  StabilizeResult R = F.run();
  ASSERT_TRUE(R.Complete);
  ASSERT_EQ(R.Disjuncts.size(), 1u);
  checkDisjunct(F, R.Disjuncts[0]);
}

TEST(StabilizeTest, SimpleSyncEquation) {
  // x = y with x in a*, y in (aa)*: solutions are even powers of a.
  Fixture F;
  VarId X = F.var("a*"), Y = F.var("(aa)*");
  F.Eqs.push_back({{X}, {Y}});
  StabilizeResult R = F.run();
  ASSERT_TRUE(R.Complete);
  ASSERT_FALSE(R.Disjuncts.empty());
  for (const Decomposition &D : R.Disjuncts)
    checkDisjunct(F, D);
}

TEST(StabilizeTest, UnsatByLanguages) {
  // x = y with disjoint languages: no disjuncts.
  Fixture F;
  VarId X = F.var("a+"), Y = F.var("b+");
  F.Eqs.push_back({{X}, {Y}});
  StabilizeResult R = F.run();
  ASSERT_TRUE(R.Complete);
  EXPECT_TRUE(R.Disjuncts.empty());
}

TEST(StabilizeTest, ConcatenationSplit) {
  // xy = z: z in abab? any split works.
  Fixture F;
  VarId X = F.var("(a|b)*"), Y = F.var("(a|b)*"), Z = F.var("abab");
  F.Eqs.push_back({{X, Y}, {Z}});
  StabilizeResult R = F.run();
  ASSERT_TRUE(R.Complete);
  ASSERT_FALSE(R.Disjuncts.empty());
  for (const Decomposition &D : R.Disjuncts)
    checkDisjunct(F, D);
}

TEST(StabilizeTest, CommutationEquation) {
  // xy = yx over (ab)* languages: always satisfiable; decompositions
  // must still verify.
  Fixture F;
  VarId X = F.var("(ab)*"), Y = F.var("(ab)*");
  F.Eqs.push_back({{X, Y}, {Y, X}});
  StabilizeResult R = F.run({/*Fuel=*/2000, /*MaxDisjuncts=*/64});
  ASSERT_FALSE(R.Disjuncts.empty());
  for (const Decomposition &D : R.Disjuncts)
    checkDisjunct(F, D);
}

TEST(StabilizeTest, SystemOfTwoEquations) {
  Fixture F;
  VarId X = F.var("(a|b){0,3}"), Y = F.var("a*"), Z = F.var("(a|b){0,4}");
  F.Eqs.push_back({{X, Y}, {Z}});
  F.Eqs.push_back({{Y}, {X}});
  StabilizeResult R = F.run();
  ASSERT_FALSE(R.Disjuncts.empty());
  for (const Decomposition &D : R.Disjuncts)
    checkDisjunct(F, D);
}

TEST(StabilizeTest, FuelExhaustionIsReported) {
  // Quadratic equation with cyclic structure burns fuel; the result must
  // say so instead of silently claiming Unsat.
  Fixture F;
  VarId X = F.var("(a|b)*"), Y = F.var("(a|b)*"), Z = F.var("(a|b)*");
  F.Eqs.push_back({{X, Y, Z}, {Z, Y, X}});
  StabilizeResult R = F.run({/*Fuel=*/20, /*MaxDisjuncts=*/4});
  EXPECT_FALSE(R.Complete);
}

TEST(StabilizeTest, TinyBudgetsNeverFlipVerdicts) {
  // Cancellation/budget robustness, differentially: for random systems,
  // a run under a tiny deterministic budget (steps or bytes) must either
  // finish with the same answer as the unbudgeted oracle or report an
  // incomplete result carrying the budget's stop reason — never a wrong
  // determinate verdict (e.g. "Unsat" because branches were dropped).
  static const char *Regexes[] = {"(a|b)*", "a*", "(ab)*", "a{0,3}",
                                  "b(a|b){0,2}", "a+", "abab"};
  std::mt19937 Rng(20250808);
  for (int Iter = 0; Iter < 20; ++Iter) {
    Fixture F;
    uint32_t NumVars = 2 + Rng() % 3;
    std::vector<VarId> Vars;
    for (uint32_t I = 0; I < NumVars; ++I)
      Vars.push_back(F.var(Regexes[Rng() % 7]));
    uint32_t NumEqs = 1 + Rng() % 2;
    for (uint32_t E = 0; E < NumEqs; ++E) {
      WordEquation Eq;
      for (uint32_t I = 0, N = 1 + Rng() % 2; I < N; ++I)
        Eq.Lhs.push_back(Vars[Rng() % NumVars]);
      for (uint32_t I = 0, N = 1 + Rng() % 2; I < N; ++I)
        Eq.Rhs.push_back(Vars[Rng() % NumVars]);
      F.Eqs.push_back(Eq);
    }

    // Modest fuel keeps each run cheap; the differential property is
    // about budgets, not search depth, and both sides share the cap.
    StabilizeOptions Base;
    Base.Fuel = 200;
    Base.MaxDisjuncts = 16;
    StabilizeResult Oracle = F.run(Base);

    auto CheckAgainstOracle = [&](Budget &B, const char *What) {
      StabilizeOptions O = Base;
      O.Budget = &B;
      StabilizeResult R = F.run(O);
      if (R.Complete) {
        EXPECT_EQ(R.Stop, StopReason::None) << What;
        if (Oracle.Complete)
          EXPECT_EQ(R.Disjuncts.empty(), Oracle.Disjuncts.empty())
              << What << ": budgeted run flipped the verdict (iter "
              << Iter << ")";
      } else {
        // Dropped branches: must say why, and an empty disjunct list
        // means Unknown, not Unsat — which callers can only know
        // because Complete is false.
        EXPECT_NE(R.Stop, StopReason::None)
            << What << ": incomplete result without a stop reason";
      }
    };

    for (uint64_t Steps : {1ull, 2ull, 8ull, 64ull}) {
      Budget B(Budget::Limits{0, 0, Steps, nullptr});
      CheckAgainstOracle(B, "step budget");
    }
    for (uint64_t Bytes : {256ull, 4096ull, 1048576ull}) {
      Budget B(Budget::Limits{0, Bytes, 0, nullptr});
      CheckAgainstOracle(B, "memory budget");
    }
    // Pre-cancelled: must come back Cancelled without touching a branch.
    std::atomic<bool> Cancel{true};
    Budget B(Budget::Limits{0, 0, 0, &Cancel});
    StabilizeOptions O = Base;
    O.Budget = &B;
    StabilizeResult R = F.run(O);
    EXPECT_FALSE(R.Complete);
    EXPECT_EQ(R.Stop, StopReason::Cancelled);
  }
}

TEST(StabilizeTest, EmptyLanguageShortCircuit) {
  Fixture F;
  VarId X = F.var("a"), Y = F.var("b");
  F.finalize();
  F.Langs[Y] = automata::Nfa::emptyLanguage(F.Sigma.size());
  F.Eqs.push_back({{X}, {Y}});
  StabilizeResult R = F.run();
  EXPECT_TRUE(R.Complete);
  EXPECT_TRUE(R.Disjuncts.empty());
}

} // namespace
