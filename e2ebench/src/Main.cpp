//===- e2ebench/src/Main.cpp - end-to-end benchmark entry point -----------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   e2ebench --workload W --seed N --seconds S --trace 0|1
///             --alivec PATH --alived PATH --dir DIR [--commit SHA]
///   e2ebench --self-test --alivec PATH --alived PATH --dir DIR
///   e2ebench --list-metrics
///
/// A timed run (--trace 0) prints the end-to-end metrics; a traced run
/// (--trace 1) prints the per-layer metrics after checking that it agrees
/// with an untraced pass. The last line of stdout is one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// Layers a workload does not reach read 0 in its traced run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sched.h>
#include <stdexcept>
#include <unistd.h>

using namespace bench;
namespace fs = std::filesystem;

namespace {

struct MetricDecl {
  const char *Name;
  const char *Unit;
};

/// Printed by every timed run; the same list as BENCHMARK.json.
const MetricDecl EndToEnd[] = {
    {"wall_s", "s"},       {"cpu_s", "s"},          {"p50_ms", "ms"},
    {"p95_ms", "ms"},      {"peak_rss_mb", "MB"},   {"setup_s", "s"},
};

/// Printed by every traced run; the same list as BENCHMARK.json.
const MetricDecl PerLayer[] = {
    {"parser.parse_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"typing.enum_ms", "ms"},
    {"typing.assignments", "count"},
    {"semantics.encode_ms", "ms"},
    {"semantics.terms", "count"},
    {"analysis.filter_ms", "ms"},
    {"analysis.discharge_frac", "ratio"},
    {"smt.check_ms", "ms"},
    {"smt.cold_queries", "count"},
    {"smt.incremental_reuses", "count"},
    {"smt.cache_hits", "count"},
    {"smt.cold_starts", "count"},
    {"smt.escalations", "count"},
    {"smt.z3_fallbacks", "count"},
    {"smt.unknowns", "count"},
    {"smt.preprocess_ms", "ms"},
    {"smt.rewrite_saved_frac", "ratio"},
    {"smt.cache_hit_frac", "ratio"},
    {"smt.cache_contention", "count"},
    {"verifier.item_p50_ms", "ms"},
    {"verifier.item_p95_ms", "ms"},
    {"verifier.largest_item_ms", "ms"},
    {"verifier.self_ms", "ms"},
    {"verifier.stall_s", "s"},
    {"service.batch_self_ms", "ms"},
    {"sched.ideal_wall_s", "s"},
    {"sched.efficiency", "ratio"},
    {"service.hit_rtt_p50_ms", "ms"},
    {"service.miss_rtt_p50_ms", "ms"},
    {"service.report_hits", "count"},
    {"service.report_misses", "count"},
    {"service.shed", "count"},
    {"service.timeouts", "count"},
    {"service.store_lookup_us", "us"},
    {"service.store_insert_us", "us"},
    {"service.store_open_ms", "ms"},
    {"rewrite.match_attempts", "count"},
    {"rewrite.firings", "count"},
    {"rewrite.fire_frac", "ratio"},
    {"rewrite.folded", "count"},
    {"rewrite.dead_removed", "count"},
    {"rewrite.iterations", "count"},
    {"rewrite.pass_build_ms", "ms"},
    {"liteir.instrs_out_frac", "ratio"},
};

struct Args {
  Env E;
  bool SelfTest = false;
  bool ListMetrics = false;
  std::string Commit = "unknown";
};

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: e2ebench --workload verify-corpus|infer-corpus|"
               "service-mixed|optimize-ir --seed N --seconds S --trace 0|1 "
               "--alivec PATH --alived PATH --dir DIR [--commit SHA]\n"
               "       e2ebench --self-test --alivec PATH --alived PATH "
               "--dir DIR\n"
               "       e2ebench --list-metrics\n",
               Why.c_str());
  std::exit(2);
}

uint64_t parseNumber(const std::string &Opt, const std::string &Text) {
  uint64_t V = 0;
  auto [End, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(), V);
  if (Ec != std::errc() || End != Text.data() + Text.size())
    usage(Opt + " expects a whole number, got '" + Text + "'");
  return V;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Opt = Argv[I];
    if (Opt == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (Opt == "--list-metrics") {
      A.ListMetrics = true;
      continue;
    }
    if (I + 1 == Argc)
      usage(Opt + " needs a value");
    std::string Val = Argv[++I];
    if (Opt == "--workload") {
      HaveWorkload = true;
      if (Val == "verify-corpus")
        A.E.W = Workload::VerifyCorpus;
      else if (Val == "infer-corpus")
        A.E.W = Workload::InferCorpus;
      else if (Val == "service-mixed")
        A.E.W = Workload::ServiceMixed;
      else if (Val == "optimize-ir")
        A.E.W = Workload::OptimizeIR;
      else
        usage("unknown workload '" + Val + "'");
    } else if (Opt == "--seed") {
      A.E.Seed = parseNumber(Opt, Val);
    } else if (Opt == "--seconds") {
      A.E.Seconds = static_cast<double>(parseNumber(Opt, Val));
    } else if (Opt == "--trace") {
      if (Val != "0" && Val != "1")
        usage("--trace expects 0 or 1");
      A.E.Trace = Val == "1";
    } else if (Opt == "--alivec") {
      A.E.Alivec = Val;
    } else if (Opt == "--alived") {
      A.E.Alived = Val;
    } else if (Opt == "--dir") {
      A.E.Dir = Val;
    } else if (Opt == "--commit") {
      A.Commit = Val;
    } else {
      usage("unknown option " + Opt);
    }
  }
  if (A.ListMetrics)
    return A;
  if (!A.SelfTest && !HaveWorkload)
    usage("--workload is required");
  if (A.E.Alivec.empty() || A.E.Alived.empty() || A.E.Dir.empty())
    usage("--alivec, --alived and --dir are required");
  return A;
}

unsigned onlineCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

/// Shortest text that reads back as the same double: all its digits.
std::string number(double V) {
  if (!std::isfinite(V))
    throw std::runtime_error("a metric is not a finite number");
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, End);
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  explicit ScratchDir(const std::string &Dir) : Dir(Dir) {
    fs::remove_all(Dir);
    fs::create_directories(Dir);
  }
  ~ScratchDir() {
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;
  std::string Dir;
};

void printRecord(const Args &A, const Inputs &In) {
  const Env &E = A.E;
  const size_t Entries =
      E.W == Workload::OptimizeIR ? In.NumFunctions : In.Items.size();
  std::printf(
      "run record: {\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
      "\"seconds\": %s, \"nproc\": %u, \"jobs\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"commit\": \"%s\", \"entries\": %zu, "
      "\"inputs_fnv1a\": \"%016llx\"}\n",
      workloadName(E.W), static_cast<unsigned long long>(E.Seed),
      E.Trace ? "true" : "false", number(E.Seconds).c_str(), E.Nproc, E.Jobs,
      E2EBENCH_BUILD_TYPE, E2EBENCH_COMPILER, A.Commit.c_str(), Entries,
      static_cast<unsigned long long>(In.Hash));
}

RunResult runWorkload(const Env &E, const Inputs &In) {
  switch (E.W) {
  case Workload::VerifyCorpus:
  case Workload::InferCorpus:
    return runBatchWorkload(E, In);
  case Workload::ServiceMixed:
    return runServiceWorkload(E, In);
  case Workload::OptimizeIR:
    return runOptimizeWorkload(E, In);
  }
  throw std::logic_error("unknown workload");
}

int runOne(const Args &A) {
  const Env &E = A.E;
  Inputs In = makeInputs(E.W, E.Seed);
  RunResult R = runWorkload(E, In);

  printRecord(A, In);
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  if (!R.ParityOk) {
    std::printf("error: the traced run disagrees with the untraced run; "
                "no per-layer numbers are reported\n");
    return 1;
  }

  const MetricDecl *Begin = E.Trace ? std::begin(PerLayer) : std::begin(EndToEnd);
  const MetricDecl *End = E.Trace ? std::end(PerLayer) : std::end(EndToEnd);
  for (const auto &[Name, V] : R.M)
    if (std::none_of(Begin, End, [&](const MetricDecl &D) {
          return Name == D.Name;
        }))
      throw std::runtime_error("undeclared metric " + Name);

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (const MetricDecl *D = Begin; D != End; ++D) {
    auto F = R.M.find(D->Name);
    const double V = F == R.M.end() ? 0.0 : F->second;
    std::printf("  %-28s %16s %s\n", D->Name, number(V).c_str(), D->Unit);
    if (D != Begin)
      Json += ", ";
    Json += "\"" + std::string(D->Name) + "\": {\"value\": " + number(V) +
            ", \"unit\": \"" + D->Unit + "\"}";
  }
  Json += "}}";
  std::printf("failed_frac: %llu/%llu\n",
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  std::printf("%s\n", Json.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Self-test
//===----------------------------------------------------------------------===//

/// Runs \p W on a slice of its inputs, timed and traced, and requires zero
/// failures and a holding parity guard.
bool selfTestSlice(Env E, Workload W, unsigned Slice) {
  E.W = W;
  E.Seconds = 0; // one pass, or one cycle
  Inputs In = makeInputs(W, E.Seed, Slice);
  bool Ok = true;
  for (bool Trace : {false, true}) {
    E.Trace = Trace;
    RunResult R = runWorkload(E, In);
    const bool Pass = R.Failed == 0 && R.Attempted > 0 && R.ParityOk;
    std::printf("%s %s slice of %u (%s): %llu/%llu failed%s\n",
                Pass ? "PASS" : "FAIL", workloadName(W), Slice,
                Trace ? "traced" : "timed",
                static_cast<unsigned long long>(R.Failed),
                static_cast<unsigned long long>(R.Attempted),
                R.ParityOk ? "" : ", parity broken");
    if (!Pass)
      for (const std::string &N : R.Notes)
        std::printf("  %s\n", N.c_str());
    Ok &= Pass;
  }
  return Ok;
}

/// Pins the failure count of one full alivec pass at the reference seed.
bool selfTestPin(const Env &E, const char *Mode, const Inputs &In,
                 uint64_t Expected) {
  writeFile(E.Dir + "/pin.opt", In.OptText);
  ProcResult P = runProcess({E.Alivec, Mode, "--jobs=" + std::to_string(E.Jobs),
                             E.Dir + "/pin.opt"},
                            E.Dir);
  BatchVerdicts V = parseBatchOutput(P.Out, In);
  uint64_t Failed = 0;
  bool OnlyKnown = true;
  for (const Item &It : In.Items) {
    auto F = V.ByLabel.find(It.Label);
    if (F != V.ByLabel.end() && verdictIsRight(It, F->second))
      continue;
    ++Failed;
    const bool Known = std::string(Mode) == "infer" && inferFailsAtSeed(It.Label);
    OnlyKnown &= Known;
    std::printf("  %s %s: %s\n", Known ? "known failure" : "FAILED",
                It.Label.c_str(),
                F == V.ByLabel.end() ? "no verdict" : F->second.c_str());
  }
  const bool Ok = Failed == Expected && OnlyKnown;
  std::printf("%s alivec %s over %zu entries: failed_frac %llu/%zu (pinned "
              "%llu/%zu), %.1f s\n",
              Ok ? "PASS" : "FAIL", Mode, In.Items.size(),
              static_cast<unsigned long long>(Failed), In.Items.size(),
              static_cast<unsigned long long>(Expected), In.Items.size(),
              P.WallS);
  return Ok;
}

int selfTest(const Args &A) {
  Env E = A.E;
  bool Ok = true;
  Ok &= selfTestSlice(E, Workload::VerifyCorpus, 24);
  Ok &= selfTestSlice(E, Workload::InferCorpus, 16);
  Ok &= selfTestSlice(E, Workload::ServiceMixed, 24);
  Ok &= selfTestSlice(E, Workload::OptimizeIR, 400);
  Ok &= selfTestPin(E, "verify", corpusInputs(false), 0);
  Ok &= selfTestPin(E, "infer", corpusInputs(true), 4);
  std::printf("%s\n", Ok ? "self-test passed" : "self-test FAILED");
  return Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (A.ListMetrics) {
    for (const MetricDecl &D : EndToEnd)
      std::printf("end_to_end %s %s\n", D.Name, D.Unit);
    for (const MetricDecl &D : PerLayer)
      std::printf("per_layer %s %s\n", D.Name, D.Unit);
    return 0;
  }
  A.E.Nproc = onlineCpus();
  A.E.Jobs = std::min(4u, A.E.Nproc);
  try {
    ScratchDir Scratch(A.E.Dir);
    return A.SelfTest ? selfTest(A) : runOne(A);
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "error: %s\n", Ex.what());
    return 1;
  }
}
