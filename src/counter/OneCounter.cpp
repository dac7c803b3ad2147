//===- counter/OneCounter.cpp - PTime single-predicate path ----------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "counter/OneCounter.h"

#include "tagaut/TagAutomaton.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>

using namespace postr;
using namespace postr::counter;
using namespace postr::counter::detail;
using namespace postr::tagaut;

namespace {

/// Visited (node, offset) pairs of one walk search, offset = counter +
/// Bound, as a paged bitmap: node N's row holds one bit per offset, cut
/// into pages of 4096 bits, and a flat open-addressing table (linear
/// probing, load at most 1/2) maps (node, page) to the page. Only the
/// pages the search touches are allocated.
class VisitedSet {
public:
  explicit VisitedSet(uint64_t RowBits)
      : PagesPerRow((RowBits + PageMask) >> PageShift), Slots(1u << LogSlots) {}

  /// Marks (N, Off); true if it was unmarked.
  bool insert(uint32_t N, uint64_t Off) {
    uint64_t *Page = page(N * PagesPerRow + (Off >> PageShift));
    uint64_t &Word = Page[(Off & PageMask) >> 6];
    uint64_t Bit = 1ull << (Off & 63);
    if (Word & Bit)
      return false;
    Word |= Bit;
    return true;
  }

private:
  static constexpr unsigned PageShift = 12;
  static constexpr uint64_t PageMask = (1ull << PageShift) - 1;
  static constexpr size_t PageWords = (PageMask + 1) / 64;
  static constexpr uint64_t NoKey = ~0ull;
  struct Slot {
    uint64_t Key = NoKey;
    uint64_t *Page = nullptr;
  };

  size_t slotOf(uint64_t Key) const {
    return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ull) >>
                               (64 - LogSlots));
  }

  uint64_t *page(uint64_t Key) {
    size_t Mask = Slots.size() - 1;
    for (size_t I = slotOf(Key);; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Key == Key)
        return S.Page;
      if (S.Key != NoKey)
        continue;
      Pages.push_back(std::make_unique<uint64_t[]>(PageWords));
      S = {Key, Pages.back().get()};
      if (2 * Pages.size() > Slots.size())
        grow();
      return Pages.back().get();
    }
  }

  void grow() {
    std::vector<Slot> Old(Slots.size() * 2);
    Old.swap(Slots);
    ++LogSlots;
    size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Key == NoKey)
        continue;
      size_t I = slotOf(S.Key);
      while (Slots[I].Key != NoKey)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  uint64_t PagesPerRow;
  unsigned LogSlots = 4;
  std::vector<Slot> Slots;
  std::vector<std::unique_ptr<uint64_t[]>> Pages;
};

} // namespace

namespace postr::counter::detail {

WalkGraph::WalkGraph(const WeightedGraph &G)
    : NumNodes(G.NumNodes), Finish(G.Finish) {
  // Both adjacency directions in CSR form, for the two reachability
  // passes that find the relevant nodes (those on a start→finish walk).
  std::vector<uint32_t> OutBegin(NumNodes + 1, 0), InBegin(NumNodes + 1, 0);
  for (const WeightedGraph::Edge &E : G.Edges) {
    ++OutBegin[E.From + 1];
    ++InBegin[E.To + 1];
    MaxW = std::max<int64_t>(MaxW, std::llabs(E.Weight));
  }
  for (uint32_t N = 0; N < NumNodes; ++N) {
    OutBegin[N + 1] += OutBegin[N];
    InBegin[N + 1] += InBegin[N];
  }
  std::vector<uint32_t> Out(G.Edges.size()), In(G.Edges.size());
  {
    std::vector<uint32_t> OutAt(OutBegin.begin(), OutBegin.end() - 1),
        InAt(InBegin.begin(), InBegin.end() - 1);
    for (const WeightedGraph::Edge &E : G.Edges) {
      Out[OutAt[E.From]++] = E.To;
      In[InAt[E.To]++] = E.From;
    }
  }
  auto Reach = [&](const std::vector<bool> &Init,
                   const std::vector<uint32_t> &Begin,
                   const std::vector<uint32_t> &Adj) {
    std::vector<bool> Seen = Init;
    std::vector<uint32_t> Stack;
    for (uint32_t N = 0; N < NumNodes; ++N)
      if (Seen[N])
        Stack.push_back(N);
    while (!Stack.empty()) {
      uint32_t N = Stack.back();
      Stack.pop_back();
      for (uint32_t I = Begin[N]; I < Begin[N + 1]; ++I)
        if (!Seen[Adj[I]]) {
          Seen[Adj[I]] = true;
          Stack.push_back(Adj[I]);
        }
    }
    return Seen;
  };
  std::vector<bool> Rel = Reach(G.Start, OutBegin, Out);
  std::vector<bool> Bwd = Reach(G.Finish, InBegin, In);
  for (uint32_t N = 0; N < NumNodes; ++N) {
    Rel[N] = Rel[N] && Bwd[N];
    if (!Rel[N])
      continue;
    ++RelCount;
    if (G.Start[N])
      Starts.push_back(N);
  }

  // Relevant edges grouped by source, each group in edge order (the BFS
  // expands successors in this order).
  SuccBegin.assign(NumNodes + 1, 0);
  for (const WeightedGraph::Edge &E : G.Edges)
    if (Rel[E.From] && Rel[E.To])
      ++SuccBegin[E.From + 1];
  for (uint32_t N = 0; N < NumNodes; ++N)
    SuccBegin[N + 1] += SuccBegin[N];
  Succ.resize(SuccBegin[NumNodes]);
  std::vector<uint32_t> At(SuccBegin.begin(), SuccBegin.end() - 1);
  for (const WeightedGraph::Edge &E : G.Edges)
    if (Rel[E.From] && Rel[E.To])
      Succ[At[E.From]++] = {E.To, E.Weight};
}

void WalkGraph::buildSccEdges() {
  SccBuilt = true;
  // Iterative Tarjan over the relevant subgraph.
  const uint32_t Unvisited = ~0u;
  std::vector<uint32_t> Index(NumNodes, Unvisited), Low(NumNodes),
      Comp(NumNodes, Unvisited);
  std::vector<bool> OnStack(NumNodes, false);
  std::vector<uint32_t> Stack;
  std::vector<std::pair<uint32_t, uint32_t>> Call; // (node, next edge)
  uint32_t NextIndex = 0, NumComps = 0;
  auto Visit = [&](uint32_t N) {
    Index[N] = Low[N] = NextIndex++;
    Stack.push_back(N);
    OnStack[N] = true;
    Call.push_back({N, SuccBegin[N]});
  };
  for (uint32_t Root = 0; Root < NumNodes; ++Root) {
    if (Index[Root] != Unvisited)
      continue;
    Visit(Root);
    while (!Call.empty()) {
      uint32_t N = Call.back().first;
      if (Call.back().second < SuccBegin[N + 1]) {
        uint32_t M = Succ[Call.back().second++].first;
        if (Index[M] == Unvisited)
          Visit(M);
        else if (OnStack[M])
          Low[N] = std::min(Low[N], Index[M]);
        continue;
      }
      Call.pop_back();
      if (!Call.empty())
        Low[Call.back().first] = std::min(Low[Call.back().first], Low[N]);
      if (Low[N] != Index[N])
        continue;
      uint32_t Size = 0, M;
      do {
        M = Stack.back();
        Stack.pop_back();
        OnStack[M] = false;
        Comp[M] = NumComps;
        ++Size;
      } while (M != N);
      ++NumComps;
      MaxSccSize = std::max(MaxSccSize, Size);
    }
  }
  for (uint32_t N = 0; N < NumNodes; ++N)
    for (uint32_t I = SuccBegin[N]; I < SuccBegin[N + 1]; ++I)
      if (Comp[Succ[I].first] == Comp[N])
        SccEdges.push_back({N, Succ[I].first, Succ[I].second});
}

bool WalkGraph::hasSignedCycle(int Sign) {
  if (!SccBuilt)
    buildSccEdges();
  // Bellman–Ford from a virtual source reaching every node at 0, over the
  // intra-SCC edges only. Weights are negated for Sign=+1 so that
  // "negative cycle" detection finds positive cycles. Without such a
  // cycle every shortest path stays inside one SCC and has fewer than
  // MaxSccSize edges, so round MaxSccSize changes nothing.
  std::vector<int64_t> Dist(NumNodes, 0);
  for (uint32_t Round = 0; Round < MaxSccSize; ++Round) {
    bool Changed = false;
    for (const WeightedGraph::Edge &E : SccEdges) {
      int64_t W = Sign > 0 ? -E.Weight : E.Weight;
      if (Dist[E.From] + W < Dist[E.To]) {
        Dist[E.To] = Dist[E.From] + W;
        Changed = true;
      }
    }
    if (!Changed)
      return false;
  }
  return MaxSccSize != 0;
}

Verdict WalkGraph::existsWalk(WalkMode Mode, WalkBudget &B) {
  if (Starts.empty())
    return Verdict::Unsat;

  // For the monotone modes, an insertable cycle of the right sign makes
  // the target reachable as soon as any complete walk exists (which it
  // does: a relevant start exists); otherwise all walk values are
  // realized within the DAG-ish bound and the clamped BFS below is exact.
  if (Mode == WalkMode::AtLeastOne && hasSignedCycle(+1))
    return Verdict::Sat;
  if (Mode == WalkMode::AtMostMinusOne && hasSignedCycle(-1))
    return Verdict::Sat;

  // Clamped BFS over (node, value). For the monotone modes, cycles of the
  // right sign are gone, so values toward the target are bounded by
  // |Q|·MaxW and the search is exact. For ExactZero we use the quadratic
  // small-excursion bound.
  int64_t Bound;
  if (Mode == WalkMode::ExactZero) {
    int64_t Expanded = static_cast<int64_t>(RelCount) * (MaxW + 1) + 2;
    Bound = std::min<int64_t>(Expanded * Expanded, 1 << 21);
  } else {
    Bound = static_cast<int64_t>(RelCount) * MaxW + 1;
  }

  VisitedSet Seen(static_cast<uint64_t>(2 * Bound + 1));
  std::deque<std::pair<uint32_t, int64_t>> Queue;
  for (uint32_t N : Starts) {
    Seen.insert(N, static_cast<uint64_t>(Bound));
    Queue.push_back({N, 0});
  }
  while (!Queue.empty()) {
    auto [N, V] = Queue.front();
    Queue.pop_front();
    if (Finish[N]) {
      bool Hit = false;
      switch (Mode) {
      case WalkMode::ExactZero:
        Hit = V == 0;
        break;
      case WalkMode::AtLeastOne:
        Hit = V >= 1;
        break;
      case WalkMode::AtMostMinusOne:
        Hit = V <= -1;
        break;
      }
      if (Hit)
        return Verdict::Sat;
    }
    if (B.NodesLeft == 0)
      return Verdict::Unknown;
    --B.NodesLeft;
    if ((++B.Expanded & 1023) == 0 && B.Bud &&
        !B.Bud->checkpoint("counter.walk")) {
      B.Stop = B.Bud->reason();
      return Verdict::Unknown;
    }
    for (uint32_t I = SuccBegin[N]; I < SuccBegin[N + 1]; ++I) {
      auto [M, W] = Succ[I];
      int64_t V2 = V + W;
      if (V2 > Bound || V2 < -Bound)
        continue;
      if (Seen.insert(M, static_cast<uint64_t>(V2 + Bound)))
        Queue.push_back({M, V2});
    }
  }
  return Verdict::Unsat;
}

} // namespace postr::counter::detail

namespace {

/// Occurrence multiplicity of \p Z among the first \p Count entries.
int64_t multBefore(const std::vector<VarId> &Occs, size_t Count, VarId Z) {
  int64_t N = 0;
  for (size_t I = 0; I < Count && I < Occs.size(); ++I)
    if (Occs[I] == Z)
      ++N;
  return N;
}

/// Builds the length-difference graph: one node per A_◦ state, each
/// letter of variable z weighing occ_L(z) − occ_R(z) (complete walks
/// accumulate |L| − |R|).
WeightedGraph buildLengthGraph(const VarConcat &Vc,
                               const tagaut::PosPredicate &Pred) {
  WeightedGraph G;
  G.addNodes(Vc.numStates());
  for (uint32_t Q = 0; Q < Vc.numStates(); ++Q) {
    if (Vc.IsInitial[Q])
      G.Start[Q] = true;
    if (Vc.IsFinal[Q])
      G.Finish[Q] = true;
  }
  for (const VarConcat::BaseTransition &T : Vc.BaseDelta) {
    int64_t W = 0;
    if (T.Sym != VarConcat::Epsilon)
      W = multBefore(Pred.Lhs, Pred.Lhs.size(), T.Var) -
          multBefore(Pred.Rhs, Pred.Rhs.size(), T.Var);
    G.Edges.push_back({T.From, T.To, W});
  }
  return G;
}

/// Builds the three-phase mismatch graph of Appendix B for occurrence
/// pair (i, j). Phases: 0 = no sample yet; then |Γ| phases per
/// first-sampled side remembering the sampled symbol; finally ⊤ after
/// the second sample (symbols must differ). The counter tracks
/// g_L − g_R for ≠/¬prefixof and (|L|−g_L) − (|R|−g_R) for ¬suffixof.
WeightedGraph buildMismatchGraph(const VarConcat &Vc,
                                 const tagaut::PosPredicate &Pred,
                                 size_t I, size_t J, uint32_t Sigma) {
  bool FromEnd = Pred.Kind == tagaut::PredKind::NotSuffix;
  VarId Xi = Pred.Lhs[I], Yj = Pred.Rhs[J];
  uint32_t NumBase = Vc.numStates();

  // Phase layout: 0 = ⊥; 1 + s*Sigma + a = sampled first on side s with
  // symbol a; 1 + 2*Sigma = ⊤.
  uint32_t NumPhases = 2 + 2 * Sigma;
  auto Node = [&](uint32_t Q, uint32_t Phase) {
    return Phase * NumBase + Q;
  };
  uint32_t PhaseBot = 0, PhaseTop = 1 + 2 * Sigma;
  auto PhaseFirst = [&](int SideIdx, Symbol A) {
    return 1u + static_cast<uint32_t>(SideIdx) * Sigma + A;
  };

  WeightedGraph G;
  G.addNodes(NumBase * NumPhases);
  for (uint32_t Q = 0; Q < NumBase; ++Q) {
    if (Vc.IsInitial[Q])
      G.Start[Node(Q, PhaseBot)] = true;
    if (Vc.IsFinal[Q])
      G.Finish[Node(Q, PhaseTop)] = true;
  }

  // Letter weight toward g_L: multiplicity of z before occurrence i,
  // plus 1 inside occurrence i for letters strictly before the L-sample
  // (i.e. while the L sample is still pending). Mirrored for g_R. For
  // ¬suffixof the tracked value is (|L|−|R|) − (g_L−g_R), so the letter
  // weight gets the total-multiplicity difference added and the g-part
  // subtracted.
  auto LetterWeight = [&](VarId Z, bool LPending, bool RPending) {
    int64_t GL = multBefore(Pred.Lhs, I, Z) + ((Z == Xi && LPending) ? 1 : 0);
    int64_t GR = multBefore(Pred.Rhs, J, Z) + ((Z == Yj && RPending) ? 1 : 0);
    int64_t W = GL - GR;
    if (FromEnd)
      W = (multBefore(Pred.Lhs, Pred.Lhs.size(), Z) -
           multBefore(Pred.Rhs, Pred.Rhs.size(), Z)) -
          W;
    return W;
  };
  // The sampled letter itself: no strictly-before increment for its own
  // side, but the pending increment of the *other* side still applies.
  auto SampleWeight = [&](VarId Z, bool SampleIsL, bool OtherPending) {
    int64_t GL = multBefore(Pred.Lhs, I, Z) +
                 ((!SampleIsL && Z == Xi && OtherPending) ? 1 : 0);
    int64_t GR = multBefore(Pred.Rhs, J, Z) +
                 ((SampleIsL && Z == Yj && OtherPending) ? 1 : 0);
    int64_t W = GL - GR;
    if (FromEnd)
      W = (multBefore(Pred.Lhs, Pred.Lhs.size(), Z) -
           multBefore(Pred.Rhs, Pred.Rhs.size(), Z)) -
          W;
    return W;
  };

  for (const VarConcat::BaseTransition &T : Vc.BaseDelta) {
    if (T.Sym == VarConcat::Epsilon) {
      for (uint32_t Phase = 0; Phase < NumPhases; ++Phase)
        G.Edges.push_back({Node(T.From, Phase), Node(T.To, Phase), 0});
      continue;
    }
    VarId Z = T.Var;
    // Phase ⊥: both samples pending.
    G.Edges.push_back({Node(T.From, PhaseBot), Node(T.To, PhaseBot),
                       LetterWeight(Z, true, true)});
    // First sample on L (letters of x_i only).
    if (Z == Xi)
      G.Edges.push_back({Node(T.From, PhaseBot),
                         Node(T.To, PhaseFirst(0, T.Sym)),
                         SampleWeight(Z, /*SampleIsL=*/true, true)});
    // First sample on R.
    if (Z == Yj)
      G.Edges.push_back({Node(T.From, PhaseBot),
                         Node(T.To, PhaseFirst(1, T.Sym)),
                         SampleWeight(Z, /*SampleIsL=*/false, true)});
    for (Symbol A = 0; A < Sigma; ++A) {
      // Mid phase after an L-sample of symbol A: R still pending.
      G.Edges.push_back({Node(T.From, PhaseFirst(0, A)),
                         Node(T.To, PhaseFirst(0, A)),
                         LetterWeight(Z, false, true)});
      // Second sample on R: symbol must differ from A.
      if (Z == Yj && T.Sym != A)
        G.Edges.push_back({Node(T.From, PhaseFirst(0, A)),
                           Node(T.To, PhaseTop),
                           SampleWeight(Z, /*SampleIsL=*/false, false)});
      // Mid phase after an R-sample.
      G.Edges.push_back({Node(T.From, PhaseFirst(1, A)),
                         Node(T.To, PhaseFirst(1, A)),
                         LetterWeight(Z, true, false)});
      if (Z == Xi && T.Sym != A)
        G.Edges.push_back({Node(T.From, PhaseFirst(1, A)),
                           Node(T.To, PhaseTop),
                           SampleWeight(Z, /*SampleIsL=*/true, false)});
    }
    // Phase ⊤: both sampled.
    G.Edges.push_back({Node(T.From, PhaseTop), Node(T.To, PhaseTop),
                       LetterWeight(Z, false, false)});
  }
  return G;
}

} // namespace

bool postr::counter::isEligible(
    const std::vector<tagaut::PosPredicate> &Preds) {
  if (Preds.size() != 1)
    return false;
  switch (Preds.front().Kind) {
  case tagaut::PredKind::Diseq:
  case tagaut::PredKind::NotPrefix:
  case tagaut::PredKind::NotSuffix:
    return true;
  default:
    return false;
  }
}

OneCounterResult postr::counter::decideSinglePredicate(
    const std::map<VarId, automata::Nfa> &Langs,
    const tagaut::PosPredicate &Pred, uint32_t Sigma,
    const OneCounterOptions &Opts) {
  assert(isEligible({Pred}) && "fast path on ineligible predicate");
  OneCounterResult Out;
  for (const auto &[X, Nfa] : Langs) {
    (void)X;
    if (Nfa.isEmpty()) {
      Out.V = Verdict::Unsat;
      return Out;
    }
  }
  VarConcat Vc = buildVarConcat(Langs);
  WalkBudget B;
  B.NodesLeft = Opts.NodeBudget;
  B.Bud = Opts.Budget;
  auto Done = [&](Verdict V) {
    Out.V = V;
    Out.Stop = B.Stop;
    Out.Expanded = B.Expanded;
    return Out;
  };

  // Length branch. A NodeBudget Unknown here only skips to the mismatch
  // branch; a Budget trip ends the decision.
  WalkGraph LenG(buildLengthGraph(Vc, Pred));
  if (LenG.existsWalk(WalkMode::AtLeastOne, B) == Verdict::Sat)
    return Done(Verdict::Sat);
  if (B.Stop != StopReason::None)
    return Done(Verdict::Unknown);
  // ≠ also accepts |L| < |R|; ¬prefixof / ¬suffixof need |L| > |R|.
  if (Pred.Kind == tagaut::PredKind::Diseq) {
    if (LenG.existsWalk(WalkMode::AtMostMinusOne, B) == Verdict::Sat)
      return Done(Verdict::Sat);
    if (B.Stop != StopReason::None)
      return Done(Verdict::Unknown);
  }

  // Mismatch branch, one 0-reachability query per occurrence pair.
  bool SawUnknown = false;
  for (size_t I = 0; I < Pred.Lhs.size(); ++I)
    for (size_t J = 0; J < Pred.Rhs.size(); ++J) {
      WalkGraph G(buildMismatchGraph(Vc, Pred, I, J, Sigma));
      Verdict V = G.existsWalk(WalkMode::ExactZero, B);
      if (V == Verdict::Sat)
        return Done(Verdict::Sat);
      if (B.Stop != StopReason::None)
        return Done(Verdict::Unknown);
      if (V == Verdict::Unknown)
        SawUnknown = true;
    }
  return Done(SawUnknown ? Verdict::Unknown : Verdict::Unsat);
}
