//===- counter/OneCounter.h - PTime single-predicate path --------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The polynomial-time decision procedure of Theorem 7.1 / Appendix B for
/// a single ≠ / ¬prefixof / ¬suffixof predicate under regular constraints
/// (no I part): the predicate is reduced to walk problems on weighted
/// counter graphs built over the ε-concatenation A_◦:
///
///  * the *length branch* (|L| ≠ |R| resp. |L| > |R|) asks for a complete
///    walk whose accumulated per-letter weight occ_L(z) − occ_R(z) is
///    non-zero (resp. positive) — decidable exactly via reachable
///    co-reachable positive/negative cycles;
///  * the *mismatch branch* asks, per occurrence pair (i,j), for a
///    0-weight complete walk of the three-phase sampling automaton of
///    Appendix B (phases ⊥ / sampled-first-symbol / ⊤), where a letter of
///    variable z weighs (its multiplicity before occurrence i on the
///    left) − (before j on the right), with the strictly-before-sample
///    increments handled by the phase.
///
/// Each graph is prepared once (detail::WalkGraph): its relevant subgraph
/// — nodes on some start→finish walk — in CSR form, shared by every walk
/// query on it (≠ asks two on the length graph). The signed-cycle check
/// is Bellman–Ford restricted to edges inside one strongly connected
/// component, since every cycle lies inside one. The walk search is a
/// FIFO BFS over (node, counter) with the counter clamped to a
/// Valiant–Paterson-style quadratic excursion bound; visited pairs live
/// in a paged bitmap (4096 counter values per page, pages found through
/// an open-addressing table), so memory follows the pages the search
/// touches. Every expanded pair is charged against
/// OneCounterOptions::NodeBudget; if it runs out first the procedure
/// answers Unknown and the caller falls back to the NP tag/LIA path (this
/// never happens on the benchmark families; the differential suite
/// cross-checks both paths). The caller's Budget is probed at site
/// `counter.walk` once per 1024 expanded pairs, so a deadline or an
/// external cancel stops the search mid-walk.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_COUNTER_ONECOUNTER_H
#define POSTR_COUNTER_ONECOUNTER_H

#include "automata/Nfa.h"
#include "base/Base.h"
#include "base/Budget.h"
#include "tagaut/Encoder.h"

#include <map>

namespace postr {
namespace counter {

struct OneCounterOptions {
  /// Hard cap on expanded (state, counter) pairs across all searches of
  /// one decision.
  uint64_t NodeBudget = 5'000'000;
  /// Shared resource budget (deadline, steps, cancel flag), probed at
  /// site `counter.walk` once per 1024 expanded pairs; null means
  /// unlimited.
  postr::Budget *Budget = nullptr;
};

struct OneCounterResult {
  /// Unknown when NodeBudget ran out or Budget tripped.
  Verdict V = Verdict::Unknown;
  /// Budget's stop reason when it tripped; None otherwise (a NodeBudget
  /// exhaustion is not a resource stop: the caller falls back).
  StopReason Stop = StopReason::None;
  /// (state, counter) pairs expanded across all searches.
  uint64_t Expanded = 0;
};

/// True if the fast path applies: a single Diseq/NotPrefix/NotSuffix.
bool isEligible(const std::vector<tagaut::PosPredicate> &Preds);

/// Decides R ∧ P for one eligible predicate.
OneCounterResult
decideSinglePredicate(const std::map<VarId, automata::Nfa> &Langs,
                      const tagaut::PosPredicate &Pred, uint32_t AlphabetSize,
                      const OneCounterOptions &Opts = {});

namespace detail {

/// A weighted digraph with designated start/finish node sets.
struct WeightedGraph {
  struct Edge {
    uint32_t From, To;
    int64_t Weight;
  };
  uint32_t NumNodes = 0;
  std::vector<Edge> Edges;
  std::vector<bool> Start, Finish;

  uint32_t addNodes(uint32_t N) {
    uint32_t First = NumNodes;
    NumNodes += N;
    Start.resize(NumNodes, false);
    Finish.resize(NumNodes, false);
    return First;
  }
};

/// Does a start→finish walk with total weight =0, >=1 or <=-1 exist?
enum class WalkMode { ExactZero, AtLeastOne, AtMostMinusOne };

/// Search allowance shared by the walks of one decision.
struct WalkBudget {
  /// Pairs that may still be expanded (OneCounterOptions::NodeBudget).
  uint64_t NodesLeft = 0;
  /// Probed at `counter.walk` once per 1024 expansions; may be null.
  postr::Budget *Bud = nullptr;
  uint64_t Expanded = 0;
  /// Bud's reason once a probe failed.
  StopReason Stop = StopReason::None;
};

/// A WeightedGraph prepared for walk queries: its relevant subgraph in
/// CSR form (edges in their original order per source node), built once.
class WalkGraph {
public:
  explicit WalkGraph(const WeightedGraph &G);

  /// Exact decision for the monotone modes; for ExactZero a clamped BFS
  /// with a quadratic excursion bound. Unknown only when \p B runs out
  /// (NodesLeft reaches 0, or Bud trips and B.Stop is set).
  Verdict existsWalk(WalkMode Mode, WalkBudget &B);

  /// Is there a positive-weight (Sign=+1) or negative-weight (Sign=-1)
  /// cycle through relevant nodes?
  bool hasSignedCycle(int Sign);

private:
  void buildSccEdges();

  uint32_t NumNodes;
  std::vector<bool> Finish;
  /// Relevant start nodes, increasing.
  std::vector<uint32_t> Starts;
  uint32_t RelCount = 0;
  /// Largest |weight| over all edges (at least 1).
  int64_t MaxW = 1;
  /// Relevant→relevant edges of node N: Succ[SuccBegin[N] .. SuccBegin[N+1]).
  std::vector<uint32_t> SuccBegin;
  std::vector<std::pair<uint32_t, int64_t>> Succ;
  /// Relevant edges inside one strongly connected component, and the
  /// largest component size (built on the first cycle query).
  bool SccBuilt = false;
  std::vector<WeightedGraph::Edge> SccEdges;
  uint32_t MaxSccSize = 0;
};

} // namespace detail

} // namespace counter
} // namespace postr

#endif // POSTR_COUNTER_ONECOUNTER_H
