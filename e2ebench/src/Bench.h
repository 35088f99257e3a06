//===- e2ebench/src/Bench.h - end-to-end benchmark driver -------*- C++ -*-===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the end-to-end benchmark: workloads, their
/// seeded inputs, the run environment, metric collection, and the process
/// helpers that launch the program's own entry points (alivec, alived).
/// The benchmark reaches the program's modules only through their public
/// headers; every per-layer number is timed from the benchmark's side of a
/// public call.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_BENCH_H
#define E2EBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <sched.h>
#include <string>
#include <sys/types.h>
#include <vector>

namespace bench {

enum class Workload { VerifyCorpus, InferCorpus, ServiceMixed, OptimizeIR };

const char *workloadName(Workload W);

/// One corpus transform as the benchmark hands it to the program.
struct Item {
  std::string Label; ///< "File/Name": the Name: header alivec prints
  std::string Text;  ///< "Name: <Label>\n<Alive DSL>\n"
  bool ExpectCorrect = false;
};

/// Everything a workload feeds the program, generated from one seed.
struct Inputs {
  std::vector<Item> Items; ///< transforms, in the order they are sent
  std::string OptText;     ///< Items as one .opt file
  /// service-mixed: the pass (0-3) of a cycle in which each item's report
  /// is not pre-warmed; the other three passes replay it from the store.
  std::vector<unsigned> ColdPass;
  uint64_t FirstFunctionSeed = 0; ///< optimize-ir: lite::generateFunction
  unsigned NumFunctions = 0;      ///< seeds [First, First + Num)
  uint64_t Hash = 0; ///< FNV-1a over everything the program receives
};

/// Inputs of workload \p W at \p Seed. \p Slice > 0 keeps only that many
/// items or functions (the self-test's small runs).
Inputs makeInputs(Workload W, uint64_t Seed, unsigned Slice = 0);

/// corpus::fullCorpus() in corpus order (only ExpectCorrect entries when
/// \p CorrectOnly), with ExpectCorrect as ground truth.
Inputs corpusInputs(bool CorrectOnly);

/// The infer-corpus entries that fail at the reference seed; the timed
/// workload leaves them out so that no operation fails.
bool inferFailsAtSeed(const std::string &Label);

/// Knobs every workload sees.
struct Env {
  Workload W = Workload::VerifyCorpus;
  uint64_t Seed = 1;
  double Seconds = 10;   ///< measuring time; every workload runs >= 1 pass
  bool Trace = false;    ///< per-layer run instead of the timed run
  unsigned Jobs = 1;     ///< J = min(4, nproc)
  unsigned Nproc = 1;
  std::string Alivec;    ///< program binaries under test
  std::string Alived;
  std::string Dir;       ///< private scratch directory for this run
};

/// Metric values by declared name (see Main.cpp for names and units).
using Metrics = std::map<std::string, double>;

/// What one run measured and checked.
struct RunResult {
  uint64_t Attempted = 0; ///< items (transforms, requests, functions) run
  uint64_t Failed = 0;    ///< items whose output was wrong or missing
  bool ParityOk = true;   ///< traced run agreed with the untraced run
  Metrics M;
  std::vector<std::string> Notes; ///< human-readable report lines
};

RunResult runBatchWorkload(const Env &E, const Inputs &In);
RunResult runServiceWorkload(const Env &E, const Inputs &In);
RunResult runOptimizeWorkload(const Env &E, const Inputs &In);

//===----------------------------------------------------------------------===//
// Measurement helpers
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Linear-interpolated quantile (\p Q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }
double sum(const std::vector<double> &V);

/// The \p N largest (value, label) pairs as report lines, each with its
/// share of \p Total.
std::vector<std::string>
slowest(std::vector<std::pair<double, std::string>> Items, size_t N,
        const char *Unit);

/// "pass wall (s): 0.812 0.797 ..." for the run's notes.
std::string passList(const std::vector<double> &WallS);

/// Spreads a measurement's steps evenly over every CPU the process may use,
/// moving the calling thread (and so the children it starts) once per
/// share, and restores its CPU set when destroyed. On a shared host each
/// CPU's speed drifts on its own: a single-threaded measurement that stays
/// on one CPU inherits that CPU's drift, and runs minutes apart differed by
/// over 20% that way.
class CpuShares {
public:
  CpuShares();
  ~CpuShares();
  CpuShares(const CpuShares &) = delete;
  CpuShares &operator=(const CpuShares &) = delete;

  /// Runs the caller on the CPU whose share holds step \p I of \p N.
  void moveTo(size_t I, size_t N);

private:
  cpu_set_t Saved;
  std::vector<int> Cpus;
  size_t Current = SIZE_MAX;
};

uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ULL);
uint64_t splitmix64(uint64_t &State);

std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

void writeFile(const std::string &Path, const std::string &Text);
std::string readFile(const std::string &Path);

/// A finished child process, observed through wait4.
struct ProcResult {
  int Exit = -1;       ///< exit code, or -1 when killed by a signal
  double WallS = 0;    ///< launch to reap
  double CpuS = 0;     ///< user + system CPU of the child
  double PeakRssMb = 0;
  std::string Out;     ///< captured stdout
};

/// Runs \p Argv to completion with stdout captured and stderr discarded.
ProcResult runProcess(const std::vector<std::string> &Argv,
                      const std::string &Dir);

/// Starts \p Argv in the background with output sent to \p LogPath.
pid_t spawnProcess(const std::vector<std::string> &Argv,
                   const std::string &LogPath);

/// CPU seconds (user + system) that \p Pid has used so far, from /proc.
double procCpuSeconds(pid_t Pid);
/// Peak resident set of \p Pid in MB (VmHWM), from /proc; pid 0 = self.
double procPeakRssMb(pid_t Pid);

/// Batch verdicts as alivec prints them, per transform label.
struct BatchVerdicts {
  std::map<std::string, std::string> ByLabel; ///< label -> verdict text
  uint64_t ColdQueries = 0; ///< from the summary's "solver:" line
  uint64_t Reuses = 0;
  uint64_t CacheHits = 0;
  uint64_t StoreHits = 0;
};

/// Parses the stdout of `alivec verify|infer` (or one alived response),
/// keeping the verdicts of \p In's items. Verify verdicts read "correct",
/// "incorrect", "unknown" or "error"; infer verdicts read "infeasible" or
/// "feasible:" plus the inferred flags.
BatchVerdicts parseBatchOutput(const std::string &Out, const Inputs &In);

/// True when \p Verdict is the right answer for \p It.
bool verdictIsRight(const Item &It, const std::string &Verdict);

/// Counts items of \p In whose verdict in \p V is missing or wrong.
uint64_t countWrong(const Inputs &In, const BatchVerdicts &V);

/// The parity guard: identical verdicts, and identical solver work. At
/// J > 1 the query cache races (two workers that miss on one key both
/// solve it), which moves checks between the cold, reuse and hit columns
/// but never changes their sum — so only the sum is compared there.
bool sameVerdictsAndWork(const BatchVerdicts &A, const BatchVerdicts &B,
                         unsigned Jobs, std::vector<std::string> &Notes);

} // namespace bench

#endif // E2EBENCH_BENCH_H
