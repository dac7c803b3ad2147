//===- tests/CounterTest.cpp - One-counter fast path tests ------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Differential-tests the PTime path of Theorem 7.1 against the NP
// tag-automaton/LIA path and against the brute-force oracle, and its walk
// search and cycle check against plain reference implementations.
//
//===----------------------------------------------------------------------===//

#include "counter/OneCounter.h"
#include "regex/Regex.h"
#include "solver/BruteForce.h"
#include "tagaut/MpSolver.h"

#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <map>
#include <random>
#include <set>

using namespace postr;
using namespace postr::counter;
using namespace postr::counter::detail;
using namespace postr::tagaut;
using automata::Nfa;

namespace {

struct Fixture {
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  VarId NextVar = 0;
  std::vector<std::pair<VarId, regex::NodePtr>> Pending;

  Fixture() {
    Sigma.intern('a');
    Sigma.intern('b');
  }
  VarId var(const std::string &Regex) {
    VarId X = NextVar++;
    Result<regex::NodePtr> R = regex::parse(Regex);
    assert(R && "bad regex in test");
    regex::collectAlphabet(**R, Sigma);
    Pending.emplace_back(X, std::move(*R));
    return X;
  }
  void finalize() {
    for (auto &[X, Node] : Pending)
      Langs[X] = regex::compile(*Node, Sigma);
    Pending.clear();
  }
  Verdict decide(const PosPredicate &Pred) {
    finalize();
    return decideSinglePredicate(Langs, Pred, Sigma.size()).V;
  }
};

TEST(OneCounterTest, Eligibility) {
  PosPredicate D{PredKind::Diseq, {0}, {1}, {}};
  PosPredicate C{PredKind::NotContains, {0}, {1}, {}};
  EXPECT_TRUE(isEligible({D}));
  EXPECT_FALSE(isEligible({C}));
  EXPECT_FALSE(isEligible({D, D}));
  EXPECT_FALSE(isEligible({}));
}

TEST(OneCounterTest, DiseqByLength) {
  Fixture F;
  VarId X = F.var("a*"), Y = F.var("b");
  EXPECT_EQ(F.decide({PredKind::Diseq, {X}, {Y}, {}}), Verdict::Sat);
}

TEST(OneCounterTest, DiseqUnsatIdentical) {
  Fixture F;
  VarId X = F.var("ab");
  EXPECT_EQ(F.decide({PredKind::Diseq, {X}, {X}, {}}), Verdict::Unsat);
}

TEST(OneCounterTest, DiseqMismatchOnly) {
  // x, y ∈ a|b, same length always; mismatch must be found.
  Fixture F;
  VarId X = F.var("a|b"), Y = F.var("a|b");
  EXPECT_EQ(F.decide({PredKind::Diseq, {X}, {Y}, {}}), Verdict::Sat);
}

TEST(OneCounterTest, CommutingPowersUnsat) {
  Fixture F;
  VarId X = F.var("aa"), Y = F.var("aaa");
  EXPECT_EQ(F.decide({PredKind::Diseq, {X, Y}, {Y, X}, {}}),
            Verdict::Unsat);
}

TEST(OneCounterTest, RepeatedVarMismatch) {
  // xy ≠ yx with x ∈ ab, y ∈ a (footnote 8 example) — Sat.
  Fixture F;
  VarId X = F.var("ab"), Y = F.var("a");
  EXPECT_EQ(F.decide({PredKind::Diseq, {X, Y}, {Y, X}, {}}), Verdict::Sat);
}

TEST(OneCounterTest, NotPrefixCases) {
  Fixture F;
  VarId X = F.var("a"), Y = F.var("ab*");
  EXPECT_EQ(F.decide({PredKind::NotPrefix, {X}, {Y}, {}}), Verdict::Unsat);

  Fixture F2;
  VarId X2 = F2.var("aa+"), Y2 = F2.var("a");
  EXPECT_EQ(F2.decide({PredKind::NotPrefix, {X2}, {Y2}, {}}),
            Verdict::Sat);
}

TEST(OneCounterTest, NotSuffixCases) {
  Fixture F;
  VarId X = F.var("b"), Y = F.var("(a|b)*b");
  EXPECT_EQ(F.decide({PredKind::NotSuffix, {X}, {Y}, {}}), Verdict::Unsat);

  Fixture F2;
  VarId X2 = F2.var("a|b"), Y2 = F2.var("(a|b)*b");
  EXPECT_EQ(F2.decide({PredKind::NotSuffix, {X2}, {Y2}, {}}),
            Verdict::Sat);
}

/// The key property: the PTime path agrees with the NP tag/LIA path and
/// the brute-force oracle on random single predicates.
TEST(OneCounterTest, DifferentialAgainstLiaPathAndOracle) {
  const char *Pool[] = {"a",      "b",  "ab",     "(a|b)*", "a*",
                        "(ab)*",  "a|b", "a+b*",  "ba|ab",  "a{1,3}",
                        "",       "b+",  "(ab)+", "(a|b){0,2}"};
  std::mt19937 Rng(31337);
  for (int Iter = 0; Iter < 60; ++Iter) {
    Fixture F;
    uint32_t NumVars = 1 + Rng() % 3;
    std::vector<VarId> Vars;
    for (uint32_t V = 0; V < NumVars; ++V)
      Vars.push_back(F.var(Pool[Rng() % (sizeof(Pool) / sizeof(char *))]));
    auto RandOccs = [&] {
      std::vector<VarId> Occs;
      uint32_t Len = 1 + Rng() % 2;
      for (uint32_t I = 0; I < Len; ++I)
        Occs.push_back(Vars[Rng() % Vars.size()]);
      return Occs;
    };
    PredKind Kind = static_cast<PredKind>(Rng() % 3); // Diseq/NotPre/NotSuf
    PosPredicate Pred{Kind, RandOccs(), RandOccs(), {}};

    Verdict Fast = F.decide(Pred);
    ASSERT_NE(Fast, Verdict::Unknown) << "budget hit on tiny instance";

    lia::Arena A;
    MpResult Slow = solveMP(A, F.Langs, {Pred}, F.Sigma.size());
    ASSERT_NE(Slow.V, Verdict::Unknown);
    EXPECT_EQ(Fast, Slow.V) << "iteration " << Iter;

    solver::BruteForceOptions BfOpts;
    BfOpts.MaxWordLen = 4;
    solver::BruteForceResult Bf = solver::solveBruteForce(F.Langs, {Pred},
                                                          BfOpts);
    if (Bf.V == Verdict::Sat)
      EXPECT_EQ(Fast, Verdict::Sat) << "iteration " << Iter;
  }
}

//===----------------------------------------------------------------------===
// Walk search and cycle check against reference implementations
//===----------------------------------------------------------------------===

/// Reference: nodes on some start→finish walk.
std::vector<bool> refRelevant(const WeightedGraph &G) {
  std::vector<std::vector<uint32_t>> Succ(G.NumNodes), Pred(G.NumNodes);
  for (const WeightedGraph::Edge &E : G.Edges) {
    Succ[E.From].push_back(E.To);
    Pred[E.To].push_back(E.From);
  }
  auto Reach = [&](const std::vector<bool> &Init,
                   const std::vector<std::vector<uint32_t>> &Adj) {
    std::vector<bool> Seen = Init;
    std::vector<uint32_t> Stack;
    for (uint32_t N = 0; N < G.NumNodes; ++N)
      if (Seen[N])
        Stack.push_back(N);
    while (!Stack.empty()) {
      uint32_t N = Stack.back();
      Stack.pop_back();
      for (uint32_t M : Adj[N])
        if (!Seen[M]) {
          Seen[M] = true;
          Stack.push_back(M);
        }
    }
    return Seen;
  };
  std::vector<bool> Fwd = Reach(G.Start, Succ), Bwd = Reach(G.Finish, Pred);
  std::vector<bool> Out(G.NumNodes);
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    Out[N] = Fwd[N] && Bwd[N];
  return Out;
}

/// Reference: Bellman–Ford over every relevant edge, |V| rounds.
bool refHasSignedCycle(const WeightedGraph &G, const std::vector<bool> &Rel,
                       int Sign) {
  std::vector<int64_t> Dist(G.NumNodes, 0);
  for (uint32_t Round = 0; Round < G.NumNodes; ++Round) {
    bool Changed = false;
    for (const WeightedGraph::Edge &E : G.Edges) {
      if (!Rel[E.From] || !Rel[E.To])
        continue;
      int64_t W = Sign > 0 ? -E.Weight : E.Weight;
      if (Dist[E.From] + W < Dist[E.To]) {
        Dist[E.To] = Dist[E.From] + W;
        Changed = true;
      }
    }
    if (!Changed)
      return false;
  }
  return true;
}

/// Reference: the clamped BFS with a std::set of visited pairs, charging
/// \p Budget once per expanded pair.
Verdict refExistsWalk(const WeightedGraph &G, WalkMode Mode,
                      uint64_t &Budget) {
  std::vector<bool> Rel = refRelevant(G);
  bool AnyRelStart = false;
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    if (Rel[N] && G.Start[N])
      AnyRelStart = true;
  if (!AnyRelStart)
    return Verdict::Unsat;
  int64_t MaxW = 1;
  uint32_t RelCount = 0;
  for (const WeightedGraph::Edge &E : G.Edges)
    MaxW = std::max<int64_t>(MaxW, std::llabs(E.Weight));
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    if (Rel[N])
      ++RelCount;
  if (Mode == WalkMode::AtLeastOne && refHasSignedCycle(G, Rel, +1))
    return Verdict::Sat;
  if (Mode == WalkMode::AtMostMinusOne && refHasSignedCycle(G, Rel, -1))
    return Verdict::Sat;
  int64_t Bound;
  if (Mode == WalkMode::ExactZero) {
    int64_t Expanded = static_cast<int64_t>(RelCount) * (MaxW + 1) + 2;
    Bound = std::min<int64_t>(Expanded * Expanded, 1 << 21);
  } else {
    Bound = static_cast<int64_t>(RelCount) * MaxW + 1;
  }
  std::vector<std::vector<std::pair<uint32_t, int64_t>>> Succ(G.NumNodes);
  for (const WeightedGraph::Edge &E : G.Edges)
    if (Rel[E.From] && Rel[E.To])
      Succ[E.From].push_back({E.To, E.Weight});
  std::set<std::pair<uint32_t, int64_t>> Seen;
  std::deque<std::pair<uint32_t, int64_t>> Queue;
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    if (Rel[N] && G.Start[N]) {
      Seen.insert({N, 0});
      Queue.push_back({N, 0});
    }
  while (!Queue.empty()) {
    auto [N, V] = Queue.front();
    Queue.pop_front();
    if (G.Finish[N] && ((Mode == WalkMode::ExactZero && V == 0) ||
                        (Mode == WalkMode::AtLeastOne && V >= 1) ||
                        (Mode == WalkMode::AtMostMinusOne && V <= -1)))
      return Verdict::Sat;
    if (Budget == 0)
      return Verdict::Unknown;
    --Budget;
    for (auto [M, W] : Succ[N]) {
      int64_t V2 = V + W;
      if (V2 > Bound || V2 < -Bound)
        continue;
      if (Seen.insert({M, V2}).second)
        Queue.push_back({M, V2});
    }
  }
  return Verdict::Unsat;
}

/// A random graph: weights in ±3, some self-loops and cycles of both
/// signs, a few nodes left unconnected or off every start→finish walk.
WeightedGraph randomGraph(std::mt19937 &Rng, uint32_t MaxNodes) {
  WeightedGraph G;
  G.addNodes(1 + Rng() % MaxNodes);
  uint32_t NumEdges = Rng() % (3 * G.NumNodes + 1);
  for (uint32_t E = 0; E < NumEdges; ++E) {
    uint32_t From = Rng() % G.NumNodes;
    uint32_t To = Rng() % 4 == 0 ? From : Rng() % G.NumNodes;
    G.Edges.push_back({From, To, static_cast<int64_t>(Rng() % 7) - 3});
  }
  for (uint32_t N = 0; N < G.NumNodes; ++N) {
    G.Start[N] = Rng() % 4 == 0;
    G.Finish[N] = Rng() % 3 == 0;
  }
  return G;
}

/// Verdicts seen per walk mode, to check the random graphs reach each.
using VerdictCounts = std::map<std::pair<WalkMode, Verdict>, int>;

/// Runs every walk mode of \p G under \p NodeBudget through both searches
/// and checks verdicts, expanded-pair counts and both cycle signs agree.
void expectSameAsReference(const WeightedGraph &G, uint64_t NodeBudget,
                           postr::Budget *Bud, int Iter,
                           VerdictCounts &Seen) {
  WalkGraph Wg(G);
  std::vector<bool> Rel = refRelevant(G);
  for (int Sign : {+1, -1})
    EXPECT_EQ(Wg.hasSignedCycle(Sign), refHasSignedCycle(G, Rel, Sign))
        << "graph " << Iter << " sign " << Sign;
  for (WalkMode Mode : {WalkMode::ExactZero, WalkMode::AtLeastOne,
                        WalkMode::AtMostMinusOne}) {
    uint64_t RefLeft = NodeBudget;
    Verdict Ref = refExistsWalk(G, Mode, RefLeft);
    WalkBudget B;
    B.NodesLeft = NodeBudget;
    B.Bud = Bud;
    Verdict New = Wg.existsWalk(Mode, B);
    ++Seen[{Mode, Ref}];
    EXPECT_EQ(New, Ref) << "graph " << Iter << " mode "
                        << static_cast<int>(Mode) << " budget " << NodeBudget;
    EXPECT_EQ(B.Expanded, NodeBudget - RefLeft) << "graph " << Iter;
    EXPECT_EQ(B.NodesLeft, RefLeft) << "graph " << Iter;
    EXPECT_EQ(B.Stop, StopReason::None) << "graph " << Iter;
  }
}

TEST(WalkSearchTest, MatchesReferenceOnRandomGraphs) {
  std::mt19937 Rng(4711);
  const uint64_t Budgets[] = {1, 2, 3, 8, 64, 1000, 50'000, ~0ull};
  postr::Budget Unlimited;
  VerdictCounts Seen;
  for (int Iter = 0; Iter < 3000; ++Iter) {
    WeightedGraph G = randomGraph(Rng, 8);
    uint64_t NodeBudget = Budgets[Rng() % std::size(Budgets)];
    expectSameAsReference(G, NodeBudget, Iter % 2 ? &Unlimited : nullptr,
                          Iter, Seen);
  }
  EXPECT_FALSE(Unlimited.exceeded());
  for (WalkMode Mode : {WalkMode::ExactZero, WalkMode::AtLeastOne,
                        WalkMode::AtMostMinusOne})
    for (Verdict V : {Verdict::Sat, Verdict::Unsat, Verdict::Unknown})
      EXPECT_GE((Seen[{Mode, V}]), 20)
          << "mode " << static_cast<int>(Mode) << " verdict "
          << verdictName(V) << " too rare to compare";
}

TEST(WalkSearchTest, MatchesReferenceAcrossManyPages) {
  // Even weights up to ±4098 on random edges, and the only finish behind
  // an odd-weight edge: no 0-weight walk exists, so the search visits
  // counter values many 4096-value pages apart until its budget runs
  // out, and the page table grows several times.
  std::mt19937 Rng(815);
  const int64_t Weights[] = {-4098, -2, 0, 2, 4098};
  VerdictCounts Seen;
  for (int Iter = 0; Iter < 40; ++Iter) {
    WeightedGraph G;
    G.addNodes(3 + Rng() % 6);
    uint32_t Sink = G.NumNodes - 1;
    G.Start[0] = G.Finish[Sink] = true;
    for (uint32_t E = 0; E < 3 * Sink; ++E)
      G.Edges.push_back({static_cast<uint32_t>(Rng() % Sink),
                         static_cast<uint32_t>(Rng() % Sink),
                         Weights[Rng() % 5]});
    G.Edges.push_back({Sink - 1, Sink, 1});
    expectSameAsReference(G, 20'000 + Rng() % 20'000, nullptr, Iter, Seen);
  }
  EXPECT_GE((Seen[{WalkMode::ExactZero, Verdict::Unknown}]), 10);
}

TEST(WalkSearchTest, BudgetProbeStopsTheSearch) {
  // No 0-weight walk exists (the finish is only reached at odd values)
  // and the counter range is wide, so the search runs until something
  // stops it.
  WeightedGraph G;
  G.addNodes(2);
  G.Start[0] = G.Finish[1] = true;
  G.Edges.push_back({0, 0, 2});
  G.Edges.push_back({0, 0, -1000});
  G.Edges.push_back({0, 1, 1});
  std::atomic<bool> Cancel{true};
  postr::Budget::Limits L;
  L.Cancel = &Cancel;
  postr::Budget Bud(L);
  WalkGraph Wg(G);
  WalkBudget B;
  B.NodesLeft = ~0ull;
  B.Bud = &Bud;
  EXPECT_EQ(Wg.existsWalk(WalkMode::ExactZero, B), Verdict::Unknown);
  EXPECT_EQ(B.Stop, StopReason::Cancelled);
  EXPECT_EQ(B.Expanded, 1024u) << "probed once per 1024 expansions";
}

TEST(OneCounterTest, BudgetTripCarriesStopReason) {
  // xy ≠ yx over (ab)*: Unsat only after a search long enough to probe.
  Fixture F;
  VarId X = F.var("(ab)*"), Y = F.var("(ab)*");
  F.finalize();
  PosPredicate Pred{PredKind::Diseq, {X, Y}, {Y, X}, {}};
  OneCounterResult Free = decideSinglePredicate(F.Langs, Pred,
                                                F.Sigma.size());
  ASSERT_EQ(Free.V, Verdict::Unsat);
  ASSERT_GE(Free.Expanded, 1024u);

  std::atomic<bool> Cancel{true};
  postr::Budget::Limits L;
  L.Cancel = &Cancel;
  postr::Budget Bud(L);
  OneCounterOptions Opts;
  Opts.Budget = &Bud;
  OneCounterResult Stopped =
      decideSinglePredicate(F.Langs, Pred, F.Sigma.size(), Opts);
  EXPECT_EQ(Stopped.V, Verdict::Unknown);
  EXPECT_EQ(Stopped.Stop, StopReason::Cancelled);
  EXPECT_EQ(Stopped.Expanded, 1024u);

  // An untripped budget changes nothing.
  postr::Budget Open;
  Opts.Budget = &Open;
  OneCounterResult Same =
      decideSinglePredicate(F.Langs, Pred, F.Sigma.size(), Opts);
  EXPECT_EQ(Same.V, Free.V);
  EXPECT_EQ(Same.Expanded, Free.Expanded);
  EXPECT_EQ(Same.Stop, StopReason::None);
}

} // namespace
