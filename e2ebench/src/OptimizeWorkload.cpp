//===- e2ebench/src/OptimizeWorkload.cpp - optimize-ir --------------------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// optimize-ir: the Section 6.4 compile path. A rewrite::Pass built from the
/// verified corpus runs single-threaded over generated lite-IR functions —
/// matching, folding and DCE, no solver. Functions are generated in chunks
/// outside the timed region; only Pass::run is timed. Every function's
/// output is checked against its original by lite::checkRefinementByExecution
/// on the first pass, and later passes must reproduce the first pass's
/// output sizes.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "corpus/Corpus.h"
#include "liteir/IRGen.h"
#include "liteir/Interp.h"
#include "rewrite/PassDriver.h"

#include <algorithm>
#include <memory>
#include <sched.h>
#include <sys/resource.h>

using namespace alive;
using namespace bench;

namespace {

constexpr unsigned SetupBuilds = 31;
constexpr unsigned ChunkFunctions = 500;
constexpr unsigned RefinementTrials = 32;

/// The pass and the parsed rules its rewriters point into.
struct BuiltPass {
  std::vector<std::unique_ptr<ir::Transform>> Rules;
  std::unique_ptr<rewrite::Pass> P;
  double ParseS = 0; ///< corpus::parseCorrectCorpus
  double BuildS = 0; ///< the rewrite::Pass constructor
};

std::unique_ptr<BuiltPass> buildPass() {
  auto B = std::make_unique<BuiltPass>();
  auto T0 = Clock::now();
  B->Rules = corpus::parseCorrectCorpus();
  B->ParseS = secondsSince(T0);
  std::vector<const ir::Transform *> Ptrs;
  for (const auto &T : B->Rules)
    Ptrs.push_back(T.get());
  T0 = Clock::now();
  B->P = std::make_unique<rewrite::Pass>(std::move(Ptrs));
  B->BuildS = secondsSince(T0);
  return B;
}

/// Builds the pass SetupBuilds times, spread over every CPU like a pass,
/// and keeps the last; \p ParseMs and \p BuildMs receive every build's two
/// parts.
std::unique_ptr<BuiltPass> buildPasses(std::vector<double> &ParseMs,
                                       std::vector<double> &BuildMs) {
  std::unique_ptr<BuiltPass> B;
  CpuShares Shares;
  for (unsigned I = 0; I != SetupBuilds; ++I) {
    Shares.moveTo(I, SetupBuilds);
    B.reset();
    B = buildPass();
    ParseMs.push_back(B->ParseS * 1000.0);
    BuildMs.push_back(B->BuildS * 1000.0);
  }
  return B;
}

double threadCpuSeconds() {
  struct rusage RU = {};
  getrusage(RUSAGE_THREAD, &RU);
  return static_cast<double>(RU.ru_utime.tv_sec + RU.ru_stime.tv_sec) +
         static_cast<double>(RU.ru_utime.tv_usec + RU.ru_stime.tv_usec) / 1e6;
}

struct IrPass {
  double WallS = 0, CpuS = 0;
  std::vector<double> RunMs;       ///< Pass::run per function
  std::vector<uint32_t> SizesOut;  ///< instructions per function after
  rewrite::PassStats Stats;
  uint64_t InstrsIn = 0, InstrsOut = 0;
  uint64_t OutHash = 0;   ///< FNV-1a of every optimized function's text
  uint64_t Violations = 0; ///< refinement failures (when checked)
};

IrPass runIrPass(const Inputs &In, const rewrite::Pass &P, bool Check) {
  IrPass R;
  R.OutHash = fnv1a("");
  std::vector<rewrite::PassStats> Stats;
  CpuShares Shares;
  for (unsigned Base = 0; Base < In.NumFunctions; Base += ChunkFunctions) {
    Shares.moveTo(Base, In.NumFunctions);
    const unsigned N = std::min(ChunkFunctions, In.NumFunctions - Base);
    std::vector<std::unique_ptr<lite::Function>> Fs;
    for (unsigned I = 0; I != N; ++I) {
      Fs.push_back(lite::generateFunction(In.FirstFunctionSeed + Base + I));
      R.InstrsIn += Fs.back()->body().size();
    }
    Stats.clear();
    const double Cpu0 = threadCpuSeconds();
    auto Chunk0 = Clock::now();
    for (auto &F : Fs) {
      auto T0 = Clock::now();
      Stats.push_back(P.run(*F));
      R.RunMs.push_back(secondsSince(T0) * 1000.0);
    }
    R.WallS += secondsSince(Chunk0);
    R.CpuS += threadCpuSeconds() - Cpu0;
    for (const rewrite::PassStats &S : Stats)
      R.Stats.merge(S);
    for (unsigned I = 0; I != N; ++I) {
      const lite::Function &F = *Fs[I];
      R.SizesOut.push_back(static_cast<uint32_t>(F.body().size()));
      R.InstrsOut += F.body().size();
      if (!Check)
        continue;
      R.OutHash = fnv1a(F.str(), R.OutHash);
      const uint64_t Seed = In.FirstFunctionSeed + Base + I;
      auto Original = lite::generateFunction(Seed);
      if (!F.verify().ok() ||
          !lite::checkRefinementByExecution(*Original, F, RefinementTrials,
                                            Seed * 7919 + 1)
               .ok())
        ++R.Violations;
    }
  }
  return R;
}

RunResult tracedRun(const Inputs &In) {
  RunResult R;
  std::vector<double> ParseMs, BuildMs;
  std::unique_ptr<BuiltPass> B = buildPasses(ParseMs, BuildMs);

  IrPass Ref = runIrPass(In, *B->P, /*Check=*/true);
  IrPass Tr = runIrPass(In, *B->P, /*Check=*/true);
  R.Attempted = 2ull * In.NumFunctions;
  R.Failed = Ref.Violations + Tr.Violations;
  R.ParityOk = Ref.OutHash == Tr.OutHash &&
               Ref.Stats.TotalFirings == Tr.Stats.TotalFirings;
  R.Notes.push_back(formatString(
      "parity: untraced %llu firings, output hash %016llx; traced %llu "
      "firings, output hash %016llx",
      static_cast<unsigned long long>(Ref.Stats.TotalFirings),
      static_cast<unsigned long long>(Ref.OutHash),
      static_cast<unsigned long long>(Tr.Stats.TotalFirings),
      static_cast<unsigned long long>(Tr.OutHash)));

  const rewrite::PassStats &S = Tr.Stats;
  R.M["parser.parse_ms"] = median(ParseMs);
  R.M["rewrite.pass_build_ms"] = median(BuildMs);
  R.M["rewrite.match_attempts"] = static_cast<double>(S.MatchAttempts);
  R.M["rewrite.firings"] = static_cast<double>(S.TotalFirings);
  R.M["rewrite.fire_frac"] =
      S.MatchAttempts ? static_cast<double>(S.TotalFirings) /
                            static_cast<double>(S.MatchAttempts)
                      : 0.0;
  R.M["rewrite.folded"] = static_cast<double>(S.Folded);
  R.M["rewrite.dead_removed"] = static_cast<double>(S.DeadRemoved);
  R.M["rewrite.iterations"] = static_cast<double>(S.Iterations);
  R.M["liteir.instrs_out_frac"] =
      Tr.InstrsIn ? static_cast<double>(Tr.InstrsOut) /
                        static_cast<double>(Tr.InstrsIn)
                  : 0.0;

  std::vector<std::pair<double, std::string>> ByFunction;
  for (size_t I = 0; I != Tr.RunMs.size(); ++I)
    ByFunction.push_back(
        {Tr.RunMs[I], "function seed " + std::to_string(In.FirstFunctionSeed + I)});
  R.Notes.push_back(formatString(
      "traced pass: %u functions, %.3f s in Pass::run, %llu -> %llu "
      "instructions",
      In.NumFunctions, Tr.WallS, static_cast<unsigned long long>(Tr.InstrsIn),
      static_cast<unsigned long long>(Tr.InstrsOut)));
  R.Notes.push_back("10 slowest functions (Pass::run):");
  for (std::string &L : slowest(ByFunction, 10, "ms"))
    R.Notes.push_back(std::move(L));
  return R;
}

} // namespace

RunResult bench::runOptimizeWorkload(const Env &E, const Inputs &In) {
  if (E.Trace)
    return tracedRun(In);

  RunResult R;
  std::vector<double> Setup;
  std::unique_ptr<BuiltPass> B;
  for (unsigned I = 0; I != SetupBuilds; ++I) {
    B.reset();
    B = buildPass();
    Setup.push_back(B->ParseS + B->BuildS);
  }

  std::vector<double> Wall, Cpu, RunMs;
  std::vector<uint32_t> FirstSizes;
  auto Start = Clock::now();
  do {
    // The first pass is checked for refinement; the pass is deterministic,
    // so later passes must reproduce its output sizes exactly.
    IrPass P = runIrPass(In, *B->P, /*Check=*/Wall.empty());
    R.Attempted += In.NumFunctions;
    R.Failed += P.Violations;
    if (Wall.empty())
      FirstSizes = P.SizesOut;
    else
      for (size_t I = 0; I != FirstSizes.size(); ++I)
        R.Failed += P.SizesOut[I] != FirstSizes[I];
    Wall.push_back(P.WallS);
    Cpu.push_back(P.CpuS);
    RunMs.insert(RunMs.end(), P.RunMs.begin(), P.RunMs.end());
  } while (secondsSince(Start) < E.Seconds);

  R.M["wall_s"] = median(Wall);
  R.M["cpu_s"] = median(Cpu);
  R.M["p50_ms"] = quantile(RunMs, 0.50);
  R.M["p95_ms"] = quantile(RunMs, 0.95);
  R.M["peak_rss_mb"] = procPeakRssMb(0);
  R.M["setup_s"] = median(Setup);
  R.Notes.push_back(formatString(
      "%zu passes over %u functions (first seed %llu); %zu per-function "
      "samples; %u pass builds",
      Wall.size(), In.NumFunctions,
      static_cast<unsigned long long>(In.FirstFunctionSeed), RunMs.size(),
      SetupBuilds));
  R.Notes.push_back(passList(Wall));
  return R;
}
