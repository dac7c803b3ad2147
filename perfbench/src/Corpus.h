//===- perfbench/src/Corpus.h - Seeded workload draws -----------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs of the three benchmark workloads, as printed SMT-LIB text
/// with the verdict each must produce:
///
///   symex          a stratified draw from the recorded pool of
///                  biopython / django / thefuck instances
///                  (data/symex_pool.tsv)
///   position-hard  footnote-10 formulae from a template whose answer is
///                  known by construction
///   serve-replay   a corpus drawn from both pools, replayed as a cold
///                  pass and a revisit-biased log
///
/// Every draw is a pure function of the workload seed; the timed draw
/// and the warm-up draw are disjoint and no text repeats in either.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_PERFBENCH_CORPUS_H
#define POSTR_PERFBENCH_CORPUS_H

#include "base/Base.h"
#include "strings/Ast.h"

#include <cstdint>
#include <string>
#include <vector>

namespace postr {
namespace perfbench {

/// One benchmark query: the SMT-LIB text the solver receives, and what
/// the verdict gate expects of it.
struct Query {
  std::string Text;
  Verdict Expected = Verdict::Unknown;
  /// Where the query comes from: "django/11/7" (family/genseed/index),
  /// "ph/diseq-perm/1/2/41" (template/root/variant/index).
  std::string Origin;
  /// A symex query of the heavy cost stratum (>= 150 ms recorded), which
  /// light passes leave out.
  bool Heavy = false;
};

/// One entry of the recorded symex pool.
struct PoolEntry {
  std::string Family;
  uint32_t GenSeed = 0;
  uint32_t Index = 0;
  Verdict Expected = Verdict::Unknown;
  double CpuMs = 0;
  uint64_t TextHash = 0;
};

struct Draw {
  std::vector<Query> Timed;
  std::vector<Query> Warmup;
};

/// FNV-1a over \p S, continuing from \p H.
uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ull);

/// Hex fingerprint of the printed timed corpus (text and expected
/// verdict of every query, in order).
std::string fingerprint(const std::vector<Query> &Qs);

/// Reads the tab-separated pool file; fails on a malformed line.
Result<std::vector<PoolEntry>> loadPool(const std::string &Path);

/// Prints the pool entry's generated problem (bench/workloads).
std::string printPoolEntry(const PoolEntry &E);

Result<Draw> drawSymex(const std::vector<PoolEntry> &Pool, uint32_t Seed);
Draw drawPositionHard(uint32_t Seed);
Result<Draw> drawServe(const std::vector<PoolEntry> &Pool, uint32_t Seed);

/// The serve-replay request log over a corpus of \p N queries: a cold
/// pass in order, then a revisit stream biased toward recent queries.
/// Returns the cold-pass length in \p ColdLen.
std::vector<uint32_t> serveLog(uint32_t N, uint32_t Seed, size_t &ColdLen);

} // namespace perfbench
} // namespace postr

#endif // POSTR_PERFBENCH_CORPUS_H
