//===- perfbench/src/Corpus.cpp - Seeded workload draws -------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "smtlib/Printer.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>

using namespace postr;
using namespace postr::perfbench;
using strings::AssertKind;
using strings::IntTerm;
using strings::Problem;
using strings::StrElem;
using strings::StrSeq;

namespace {

/// Timed queries per position-hard run: 8 templates x 5 roots x 3
/// shape variants.
constexpr uint32_t PositionHardQueries = 120;
constexpr uint32_t PositionHardWarmup = 8;

/// Timed queries per symex pass. The draw gives each (family, cost
/// stratum) cell of the pool -- stratum A < 5 ms, B < 150 ms, C < 1.5 s
/// of recorded CPU -- its share of the pool (symexCells), so the pass has
/// the pool's measured traffic mix. The seed picks the B queries; the A
/// queries (whose single recorded reading does not pin their cost, and
/// which hold p50) and the C queries (which carry most of PAR-2, p90 and
/// peak memory) are the same cost-bin medians for every seed, in a
/// seeded order. 32 queries cost ~4.5 s of CPU, so a run reads every one
/// of them in six processes (README.md, "Noise lessons").
constexpr size_t SymexQueries = 32;
const char *const SymexFamilies[] = {"biopython", "django", "thefuck"};
constexpr char SymexStrata[] = {'A', 'B', 'C'};

/// serve-replay corpus: light pool queries of generator seeds up to
/// this one, plus cheap position-hard shapes.
constexpr uint32_t ServeMaxGenSeed = 14;
constexpr uint32_t ServePositionHardQueries = 24;
constexpr uint32_t ServeWarmup = 6;

std::mt19937_64 rngFor(uint32_t Seed, uint64_t Salt) {
  std::seed_seq S{Seed, static_cast<uint32_t>(Salt),
                  static_cast<uint32_t>(Salt >> 32)};
  return std::mt19937_64(S);
}

Verdict parseVerdict(const std::string &S) {
  if (S == "sat")
    return Verdict::Sat;
  if (S == "unsat")
    return Verdict::Unsat;
  return Verdict::Unknown;
}

bench::Family familyOf(const std::string &Name) {
  if (Name == "biopython")
    return bench::Family::Biopython;
  if (Name == "django")
    return bench::Family::Django;
  return bench::Family::Thefuck;
}

//===----------------------------------------------------------------------===//
// Position-hard templates (footnote 10)
//===----------------------------------------------------------------------===//
//
// Every variable ranges over (w^k)* for one primitive root w, so each
// side of a predicate denotes w^n with n the sum of its variables'
// exponents: sides commute, and the answer follows from the occurrence
// counts alone. With c(s) the per-variable occurrence vector of side s:
//   s != t                 is Unsat iff c(s) = c(t)
//   not-contains(s in t),
//   not-prefixof(s, t),
//   not-suffixof(s, t)     are Unsat iff c(s) <= c(t) componentwise
// (w^a is a factor, prefix and suffix of w^b exactly when a <= b). The
// non-commuting template pairs two roots u, v with uv != vu: xy != yx
// is then Sat (x = u, y = v) once both are non-empty.

enum class Tpl : uint8_t {
  DiseqSwap,      ///< xy != yx
  DiseqPerm,      ///< s != permutation(s)
  NotContainsPerm, ///< needle is a permutation of the haystack
  NotPrefixSub,   ///< needle's counts <= haystack's, ¬prefixof
  NotSuffixSub,   ///< same, ¬suffixof
  NotContainsSat, ///< needle has one occurrence too many
  NonCommuting,   ///< xy != yx over two roots that do not commute
  NonCommuting3,  ///< xyz != yxz, the same with a third variable
};
constexpr uint32_t NumTemplates = 8;

const char *tplName(Tpl T) {
  static const char *Names[] = {"diseq-swap",      "diseq-perm",
                                "notcontains-perm", "notprefix-sub",
                                "notsuffix-sub",   "notcontains-sat",
                                "noncommuting",    "noncommuting3"};
  return Names[static_cast<uint32_t>(T)];
}

// Roots of length three cost 10-50x more per query than these; one
// (aab) keeps the hard end in the draw without dominating the pass.
const char *const Roots[] = {"a", "ab", "ba", "aab", "b"};
constexpr uint32_t NumRoots = 5;
constexpr uint32_t HeavyRoot = 3; // aab
const std::pair<const char *, const char *> RootPairs[] = {
    {"ab", "ba"}, {"a", "b"}, {"b", "a"}, {"ba", "a"}, {"aab", "ab"}};

std::string starOf(const std::string &W, uint32_t K) {
  std::string Body;
  for (uint32_t I = 0; I < K; ++I)
    Body += W;
  return Body.size() == 1 ? Body + "*" : "(" + Body + ")*";
}

/// Builds template \p T over root \p Root. \p Variant (0..2) fixes the
/// shape that sets the cost (lengths, doubled periods, length floors);
/// \p Rng only picks which variables go where, so every seed draws the
/// same mix of costs.
Problem buildTemplate(Tpl T, uint32_t Root, uint32_t Variant,
                      std::mt19937_64 &Rng) {
  Problem P;
  const char *Names[] = {"x", "y", "z"};
  uint32_t NumVars = (T == Tpl::DiseqSwap || T == Tpl::NonCommuting) ? 2 : 3;
  std::vector<VarId> V;
  for (uint32_t I = 0; I < NumVars; ++I)
    V.push_back(P.strVar(Names[I]));
  bool NonComm = T == Tpl::NonCommuting || T == Tpl::NonCommuting3;
  if (NonComm) {
    auto [U, W] = RootPairs[Root];
    P.assertInRe(V[0], starOf(U, Variant == 1 ? 2 : 1));
    P.assertInRe(V[1], starOf(W, 1));
    if (NumVars == 3)
      P.assertInRe(V[2], starOf(U, 1));
  } else {
    // A needle with one occurrence too many is decided within the cap
    // only over the shorter roots.
    const char *W = Roots[T == Tpl::NotContainsSat ? Root % 3 : Root];
    for (uint32_t I = 0; I < NumVars; ++I)
      P.assertInRe(V[I], starOf(W, T == Tpl::DiseqSwap && I < Variant ? 2 : 1));
  }
  // The seed only decides which variable plays which role; with equal
  // languages that is a renaming, so every seed draws the same costs.
  // (The non-commuting templates give the roles different languages and
  // keep them fixed.)
  std::vector<VarId> R = V;
  if (!NonComm)
    std::shuffle(R.begin(), R.end(), Rng);
  // Shape \p Letters over the roles: 'a' is R[0], 'b' R[1], 'c' R[2].
  auto Sh = [&](const char *Letters) {
    StrSeq Out;
    for (const char *C = Letters; *C; ++C)
      Out.push_back(StrElem::var(R[*C - 'a']));
    return Out;
  };
  static const char *const PermShapes[][2] = {
      {"abc", "acb"}, {"aab", "aba"}, {"abb", "bab"}};
  static const char *const ContainsShapes[][2] = {
      {"ab", "ba"}, {"aab", "aba"}, {"abc", "cab"}};
  static const char *const SubShapes[][2] = {
      {"ab", "ba"}, {"ab", "bca"}, {"aba", "baa"}};
  static const char *const ContainsSatShapes[][2] = {
      {"aba", "ab"}, {"bab", "ab"}, {"cab", "ab"}};
  switch (T) {
  case Tpl::DiseqSwap:
    P.assertDiseq(Sh("ab"), Sh("ba"));
    break;
  case Tpl::DiseqPerm:
    P.assertDiseq(Sh(PermShapes[Variant][0]), Sh(PermShapes[Variant][1]));
    break;
  case Tpl::NotContainsPerm:
    P.assertPred(AssertKind::NotContains, Sh(ContainsShapes[Variant][0]),
                 Sh(ContainsShapes[Variant][1]));
    break;
  case Tpl::NotPrefixSub:
  case Tpl::NotSuffixSub:
    P.assertPred(T == Tpl::NotPrefixSub ? AssertKind::NotPrefixof
                                        : AssertKind::NotSuffixof,
                 Sh(SubShapes[Variant][0]), Sh(SubShapes[Variant][1]));
    break;
  case Tpl::NotContainsSat:
    P.assertPred(AssertKind::NotContains, Sh(ContainsSatShapes[Variant][0]),
                 Sh(ContainsSatShapes[Variant][1]));
    break;
  case Tpl::NonCommuting:
  case Tpl::NonCommuting3:
    // u^m v != v u^m for every m >= 1 exactly when uv != vu, so the
    // length floors keep the answer Sat.
    P.assertDiseq(Sh(NumVars == 3 ? "abc" : "ab"),
                  Sh(NumVars == 3 ? "bac" : "ba"));
    for (VarId X : V)
      P.assertIntAtom(IntTerm::lenOf(X), lia::Cmp::Ge,
                      IntTerm::constant(Variant == 2 ? 2 : 1));
    break;
  }
  return P;
}

Verdict tplAnswer(Tpl T) {
  return T >= Tpl::NotContainsSat ? Verdict::Sat : Verdict::Unsat;
}

/// Symex cost strata, from the recorded CPU time.
char stratumOf(double CpuMs) {
  return CpuMs < 5 ? 'A' : CpuMs < 150 ? 'B' : 'C';
}

/// Position-hard instance \p Index of the template design under \p Seed,
/// with its known answer.
Query positionHardQuery(uint32_t Seed, uint32_t Index) {
  Tpl T = static_cast<Tpl>(Index % NumTemplates);
  uint32_t Root = (Index / NumTemplates) % NumRoots;
  uint32_t Variant = (Index / (NumTemplates * NumRoots)) % 3;
  // The Sat ¬contains template's cost swings 5x with the renaming (the
  // order MBQI tries candidates in), and some renamings are not decided
  // within the cap; every seed takes the renaming of seed 1, which all
  // are. So do the cells over the heavy root: they hold p90 and most of
  // PAR-2, and the renaming alone changes one of their costs by up to 2x.
  bool FixedRenaming = T == Tpl::NotContainsSat || Root == HeavyRoot;
  std::mt19937_64 Rng = rngFor(FixedRenaming ? 1 : Seed,
                               0x5048000000000000ull | Index);
  Query Q;
  Q.Text = smtlib::printProblem(buildTemplate(T, Root, Variant, Rng));
  Q.Expected = tplAnswer(T);
  Q.Origin = std::string("ph/") + tplName(T) + "/" + std::to_string(Root) +
             "/" + std::to_string(Variant) + "/" + std::to_string(Index);
  return Q;
}

Query poolQuery(const PoolEntry &E) {
  Query Q;
  Q.Text = printPoolEntry(E);
  Q.Expected = E.Expected;
  Q.Origin = E.Family + "/" + std::to_string(E.GenSeed) + "/" +
             std::to_string(E.Index);
  Q.Heavy = stratumOf(E.CpuMs) == 'C';
  return Q;
}

/// Cost-binned draw: the pool entries matching \p Keep (and not yet in
/// \p Taken), sorted by recorded cost, are cut into \p Count equal bins
/// and the seed picks one of the three entries at each bin's middle --
/// or, with \p Fixed, every seed takes the middle entry itself. Every
/// seed thus draws the same cost profile, which keeps the figures of
/// different seeds close.
template <typename Pred>
void takeBinned(const std::vector<PoolEntry> &Pool, uint32_t Seed,
                uint64_t Salt, size_t Count, bool Fixed, Pred Keep,
                std::set<uint64_t> &Taken, std::vector<Query> &Out) {
  std::vector<const PoolEntry *> Cands;
  for (const PoolEntry &E : Pool)
    if (Keep(E) && !Taken.count(E.TextHash))
      Cands.push_back(&E);
  std::sort(Cands.begin(), Cands.end(),
            [](const PoolEntry *X, const PoolEntry *Y) {
              return X->CpuMs < Y->CpuMs;
            });
  Count = std::min(Count, Cands.size());
  std::mt19937_64 Rng = rngFor(Seed, Salt);
  for (size_t Bin = 0; Bin < Count; ++Bin) {
    size_t Lo = Bin * Cands.size() / Count;
    size_t Hi = (Bin + 1) * Cands.size() / Count;
    size_t Mid = (Lo + Hi) / 2;
    size_t First = std::max(Lo, Mid == 0 ? 0 : Mid - 1);
    size_t Last = std::min(Hi, Mid + 2);
    const PoolEntry &E =
        *Cands[Fixed ? Mid : First + Rng() % (Last - First)];
    Taken.insert(E.TextHash);
    Out.push_back(poolQuery(E));
  }
}

/// A (family, stratum) cell of the symex pool and its timed queries.
struct SymexCell {
  std::string Family;
  char Stratum;
  size_t Count;
};

/// Apportions SymexQueries over the pool's cells in proportion to their
/// sizes (largest remainder, ties to the earlier cell).
std::vector<SymexCell> symexCells(const std::vector<PoolEntry> &Pool) {
  std::vector<SymexCell> Cells;
  std::vector<size_t> Sizes;
  for (const char *F : SymexFamilies)
    for (char St : SymexStrata) {
      Cells.push_back({F, St, 0});
      Sizes.push_back(static_cast<size_t>(
          std::count_if(Pool.begin(), Pool.end(), [&](const PoolEntry &E) {
            return E.Family == F && stratumOf(E.CpuMs) == St;
          })));
    }
  size_t Total = 0, Given = 0;
  for (size_t N : Sizes)
    Total += N;
  if (Total == 0)
    return Cells;
  std::vector<size_t> Order;
  for (size_t I = 0; I < Cells.size(); ++I) {
    Cells[I].Count = SymexQueries * Sizes[I] / Total;
    Given += Cells[I].Count;
    Order.push_back(I);
  }
  std::stable_sort(Order.begin(), Order.end(), [&](size_t X, size_t Y) {
    return SymexQueries * Sizes[X] % Total > SymexQueries * Sizes[Y] % Total;
  });
  for (size_t K = 0; Given < SymexQueries; ++K, ++Given)
    ++Cells[Order[K]].Count;
  return Cells;
}

/// Position-hard queries for indices [Begin, End) under \p Seed. Each
/// index is a distinct (template, root, variant) cell, so no text
/// repeats; the texts are added to \p Seen.
void positionHardRange(uint32_t Seed, uint32_t Begin, uint32_t End,
                       std::set<std::string> &Seen, std::vector<Query> &Out) {
  for (uint32_t I = Begin; I < End; ++I) {
    Out.push_back(positionHardQuery(Seed, I));
    Seen.insert(Out.back().Text);
  }
}

/// Warm-up queries: the first \p Count distinct instances of the
/// repository's own footnote-10 generator (bench/workloads) at a fixed
/// seed, minus any text in \p Seen -- the same work for every seed.
void repoPositionHard(size_t Count, std::set<std::string> &Seen,
                      std::vector<Query> &Out) {
  for (uint32_t I = 0; Out.size() < Count && I < 256; ++I) {
    Query Q;
    Q.Text = smtlib::printProblem(
        bench::generate(bench::Family::PositionHard, 7, I));
    Q.Origin = "position-hard/7/" + std::to_string(I);
    if (Seen.insert(Q.Text).second)
      Out.push_back(std::move(Q));
  }
}

} // namespace

uint64_t perfbench::fnv1a(const std::string &S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string perfbench::fingerprint(const std::vector<Query> &Qs) {
  uint64_t H = fnv1a("perfbench-corpus-v1");
  for (const Query &Q : Qs) {
    H = fnv1a(Q.Text, H);
    H = fnv1a(verdictName(Q.Expected), H);
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

Result<std::vector<PoolEntry>> perfbench::loadPool(const std::string &Path) {
  using PoolResult = Result<std::vector<PoolEntry>>;
  std::ifstream In(Path);
  if (!In)
    return PoolResult::failure("cannot open pool file " + Path);
  std::vector<PoolEntry> Pool;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    PoolEntry E;
    std::string V, Hash;
    if (!(Fields >> E.Family >> E.GenSeed >> E.Index >> V >> E.CpuMs >>
          Hash))
      return PoolResult::failure("malformed pool line: " + Line);
    E.Expected = parseVerdict(V);
    E.TextHash = std::stoull(Hash, nullptr, 16);
    if (E.Expected == Verdict::Unknown)
      return PoolResult::failure(
          "pool entry without a determinate verdict: " + Line);
    Pool.push_back(E);
  }
  if (Pool.empty())
    return PoolResult::failure("empty pool file " + Path);
  return PoolResult::success(std::move(Pool));
}

std::string perfbench::printPoolEntry(const PoolEntry &E) {
  return smtlib::printProblem(
      bench::generate(familyOf(E.Family), E.GenSeed, E.Index));
}

Result<Draw> perfbench::drawSymex(const std::vector<PoolEntry> &Pool,
                                  uint32_t Seed) {
  Draw D;
  std::set<uint64_t> Taken;
  uint64_t Salt = 0;
  // Warm-up first, so it is the same for every seed: the median-cost B
  // query of each family.
  for (const char *F : SymexFamilies)
    takeBinned(
        Pool, Seed, ++Salt, 1, true,
        [F](const PoolEntry &E) {
          return E.Family == F && stratumOf(E.CpuMs) == 'B';
        },
        Taken, D.Warmup);
  for (const SymexCell &C : symexCells(Pool))
    takeBinned(
        Pool, Seed, ++Salt, C.Count, C.Stratum != 'B',
        [&C](const PoolEntry &E) {
          return E.Family == C.Family && stratumOf(E.CpuMs) == C.Stratum;
        },
        Taken, D.Timed);
  if (D.Timed.size() != SymexQueries || D.Warmup.size() != 3)
    return Result<Draw>::failure("symex pool too small for a " +
                                 std::to_string(SymexQueries) +
                                 "-query draw");
  std::shuffle(D.Timed.begin(), D.Timed.end(), rngFor(Seed, ++Salt));
  return Result<Draw>::success(std::move(D));
}

Draw perfbench::drawPositionHard(uint32_t Seed) {
  Draw D;
  std::set<std::string> Seen;
  positionHardRange(Seed, 0, PositionHardQueries, Seen, D.Timed);
  repoPositionHard(PositionHardWarmup, Seen, D.Warmup);
  return D;
}

Result<Draw> perfbench::drawServe(const std::vector<PoolEntry> &Pool,
                                  uint32_t Seed) {
  // The corpus is the same for every seed: the light pool queries of the
  // first generator seeds plus the cheap position-hard shapes. The seed
  // orders the cold pass and draws the revisit log (serveLog).
  Draw D;
  std::set<std::string> Seen;
  for (const PoolEntry &E : Pool)
    if (stratumOf(E.CpuMs) != 'C' && E.GenSeed <= ServeMaxGenSeed)
      D.Timed.push_back(poolQuery(E));
  positionHardRange(0, 0, ServePositionHardQueries, Seen, D.Timed);
  if (D.Timed.size() < 100)
    return Result<Draw>::failure(
        "symex pool too small for the serve-replay corpus");
  std::shuffle(D.Timed.begin(), D.Timed.end(), rngFor(Seed, 103));
  repoPositionHard(ServeWarmup, Seen, D.Warmup);
  return Result<Draw>::success(std::move(D));
}

std::vector<uint32_t> perfbench::serveLog(uint32_t N, uint32_t Seed,
                                          size_t &ColdLen) {
  std::vector<uint32_t> Log;
  for (uint32_t I = 0; I < N; ++I)
    Log.push_back(I);
  ColdLen = Log.size();
  // The revisit stream of bench_serve: 70% jump to a random query, 30%
  // re-ask the last one (a path constraint re-queried as exploration
  // deepens).
  std::mt19937_64 Rng = rngFor(Seed, 104);
  uint32_t Recent = 0;
  for (uint32_t I = 0; I < 3 * N; ++I) {
    if (Rng() % 100 < 70)
      Recent = static_cast<uint32_t>(Rng() % N);
    Log.push_back(Recent);
  }
  return Log;
}
