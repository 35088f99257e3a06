//===- e2ebench/src/Support.cpp - inputs, processes, statistics -----------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "corpus/Corpus.h"
#include "liteir/IRGen.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <numeric>
#include <signal.h>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace bench;

namespace {

/// The two infer-corpus entries that wait out the 60 s query deadline and
/// the two that infer reports infeasible although verify proves them. The
/// timed workload leaves them out so that no operation fails; the
/// self-test pins them (4/288) so their fix shows there.
const char *const InferFailingAtSeed[] = {
    "AndOrXor/and-undef-refines-x",
    "AndOrXor/xor-undef-undef-is-undef",
    "LoadStoreAlloca/gep-gep-merge",
    "LoadStoreAlloca/store-of-just-loaded-value",
};

/// Functions per optimize-ir pass: enough that one pass runs about a
/// second, so the per-function p95 rests on hundreds of samples per pass.
constexpr unsigned OptimizeFunctions = 15000;

} // namespace

bool bench::inferFailsAtSeed(const std::string &Label) {
  for (const char *L : InferFailingAtSeed)
    if (Label == L)
      return true;
  return false;
}

Inputs bench::corpusInputs(bool CorrectOnly) {
  Inputs In;
  for (const alive::corpus::CorpusEntry &E : alive::corpus::fullCorpus()) {
    if (CorrectOnly && !E.ExpectCorrect)
      continue;
    Item It;
    It.Label = std::string(E.File) + "/" + E.Name;
    It.Text = "Name: " + It.Label + "\n" + E.Text + "\n";
    It.ExpectCorrect = E.ExpectCorrect;
    In.OptText += It.Text + "\n";
    In.Items.push_back(std::move(It));
  }
  In.Hash = fnv1a(In.OptText);
  return In;
}

const char *bench::workloadName(Workload W) {
  switch (W) {
  case Workload::VerifyCorpus:
    return "verify-corpus";
  case Workload::InferCorpus:
    return "infer-corpus";
  case Workload::ServiceMixed:
    return "service-mixed";
  case Workload::OptimizeIR:
    return "optimize-ir";
  }
  return "?";
}

uint64_t bench::fnv1a(const std::string &S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

uint64_t bench::splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

Inputs bench::makeInputs(Workload W, uint64_t Seed, unsigned Slice) {
  Inputs In;
  if (W == Workload::OptimizeIR) {
    uint64_t State = Seed;
    // A seeded window of the generator's 32-bit seed space.
    In.FirstFunctionSeed = splitmix64(State) & 0xffffffffULL;
    In.NumFunctions = Slice ? Slice : OptimizeFunctions;
    In.Hash = fnv1a("");
    for (unsigned I = 0; I != In.NumFunctions; ++I)
      In.Hash = fnv1a(
          alive::lite::generateFunction(In.FirstFunctionSeed + I)->str(),
          In.Hash);
    return In;
  }

  for (Item &It : corpusInputs(W == Workload::InferCorpus).Items)
    if (W != Workload::InferCorpus || !inferFailsAtSeed(It.Label))
      In.Items.push_back(std::move(It));

  if (W == Workload::ServiceMixed) {
    // Seeded request order (Fisher-Yates). Position modulo four picks the
    // pass in which an item is cold, so every pass has a quarter of the
    // corpus cold, spread evenly through its requests.
    uint64_t State = Seed;
    for (size_t I = In.Items.size(); I > 1; --I)
      std::swap(In.Items[I - 1], In.Items[splitmix64(State) % I]);
  }
  if (Slice && Slice < In.Items.size())
    In.Items.resize(Slice);
  for (size_t I = 0; I != In.Items.size(); ++I) {
    In.OptText += In.Items[I].Text + "\n";
    if (W == Workload::ServiceMixed)
      In.ColdPass.push_back(static_cast<unsigned>(I % 4));
  }

  In.Hash = fnv1a(In.OptText);
  for (unsigned P : In.ColdPass)
    In.Hash = fnv1a(std::to_string(P), In.Hash);
  return In;
}

//===----------------------------------------------------------------------===//
// Statistics and formatting
//===----------------------------------------------------------------------===//

double bench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double bench::sum(const std::vector<double> &V) {
  return std::accumulate(V.begin(), V.end(), 0.0);
}

std::string bench::formatString(const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  va_list Ap2;
  va_copy(Ap2, Ap);
  int N = std::vsnprintf(nullptr, 0, Fmt, Ap);
  va_end(Ap);
  std::string S(N > 0 ? static_cast<size_t>(N) : 0, '\0');
  if (N > 0)
    std::vsnprintf(S.data(), S.size() + 1, Fmt, Ap2);
  va_end(Ap2);
  return S;
}

std::vector<std::string>
bench::slowest(std::vector<std::pair<double, std::string>> Items, size_t N,
               const char *Unit) {
  double Total = 0;
  for (const auto &[V, L] : Items)
    Total += V;
  std::sort(Items.begin(), Items.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  std::vector<std::string> Lines;
  for (size_t I = 0; I != std::min(N, Items.size()); ++I)
    Lines.push_back(formatString(
        "  %2zu. %-48s %10.3f %s  %5.1f%% of the serial sum", I + 1,
        Items[I].second.c_str(), Items[I].first, Unit,
        Total > 0 ? 100.0 * Items[I].first / Total : 0.0));
  return Lines;
}

std::string bench::passList(const std::vector<double> &WallS) {
  std::string S = "pass wall (s):";
  for (double W : WallS)
    S += formatString(" %.3f", W);
  return S;
}

CpuShares::CpuShares() {
  CPU_ZERO(&Saved);
  if (sched_getaffinity(0, sizeof(Saved), &Saved) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved))
        Cpus.push_back(C);
}

CpuShares::~CpuShares() {
  if (!Cpus.empty())
    sched_setaffinity(0, sizeof(Saved), &Saved);
}

void CpuShares::moveTo(size_t I, size_t N) {
  if (Cpus.empty() || !N)
    return;
  size_t Share = I * Cpus.size() / N;
  if (Share == Current)
    return;
  Current = Share;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Share], &One);
  sched_setaffinity(0, sizeof(One), &One);
}

void bench::writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  if (!Out)
    throw std::runtime_error("cannot write " + Path);
}

std::string bench::readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

namespace {

/// posix_spawn with stdout and stderr redirected to files.
pid_t spawnRedirected(const std::vector<std::string> &Argv,
                      const std::string &OutPath,
                      const std::string &ErrPath) {
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, OutPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO, ErrPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Pid = 0;
  int Err = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(),
                        environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Err)
    throw std::runtime_error("cannot start " + Argv[0] + ": " +
                             std::strerror(Err));
  return Pid;
}

} // namespace

ProcResult bench::runProcess(const std::vector<std::string> &Argv,
                             const std::string &Dir) {
  const std::string OutPath = Dir + "/stdout.txt";
  ProcResult R;
  auto T0 = Clock::now();
  pid_t Pid = spawnRedirected(Argv, OutPath, "/dev/null");
  int Status = 0;
  struct rusage RU = {};
  if (wait4(Pid, &Status, 0, &RU) != Pid)
    throw std::runtime_error("wait4 failed for " + Argv[0]);
  R.WallS = secondsSince(T0);
  R.CpuS = static_cast<double>(RU.ru_utime.tv_sec + RU.ru_stime.tv_sec) +
           static_cast<double>(RU.ru_utime.tv_usec + RU.ru_stime.tv_usec) /
               1e6;
  R.PeakRssMb = static_cast<double>(RU.ru_maxrss) / 1024.0;
  R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  R.Out = readFile(OutPath);
  return R;
}

pid_t bench::spawnProcess(const std::vector<std::string> &Argv,
                          const std::string &LogPath) {
  return spawnRedirected(Argv, LogPath, LogPath);
}

double bench::procCpuSeconds(pid_t Pid) {
  // Fields 14 and 15 of /proc/PID/stat, after the parenthesized command.
  std::string Stat = readFile("/proc/" + std::to_string(Pid) + "/stat");
  size_t Close = Stat.rfind(')');
  if (Close == std::string::npos)
    throw std::runtime_error("cannot read /proc stat of the daemon");
  std::istringstream In(Stat.substr(Close + 2));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (int I = 3; I <= 15 && In >> Field; ++I) {
    if (I == 14)
      UTime = std::stoull(Field);
    if (I == 15)
      STime = std::stoull(Field);
  }
  return static_cast<double>(UTime + STime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double bench::procPeakRssMb(pid_t Pid) {
  std::string Path =
      Pid ? "/proc/" + std::to_string(Pid) + "/status" : "/proc/self/status";
  std::istringstream In(readFile(Path));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in " + Path);
}

//===----------------------------------------------------------------------===//
// alivec output
//===----------------------------------------------------------------------===//

BatchVerdicts bench::parseBatchOutput(const std::string &Out,
                                      const Inputs &In) {
  BatchVerdicts V;
  std::istringstream Lines(Out);
  std::string Line;
  std::string Feasible; // label of the infer block being read
  while (std::getline(Lines, Line)) {
    if (!Feasible.empty() && Line.rfind("  ", 0) == 0) {
      // "  source %r       needs nsw": keep it with single spaces.
      std::istringstream Words(Line);
      std::string W;
      while (Words >> W)
        V.ByLabel[Feasible] += " " + W;
      V.ByLabel[Feasible] += ";";
      continue;
    }
    Feasible.clear();
    if (Line.empty() || Line[0] == ' ' || Line[0] == '-')
      continue;
    if (Line.back() == ':' && Line.find(' ') == std::string::npos) {
      Feasible = Line.substr(0, Line.size() - 1);
      V.ByLabel[Feasible] = "feasible:";
      continue;
    }
    size_t Sp = Line.find(' ');
    if (Sp == std::string::npos)
      continue;
    std::string Label = Line.substr(0, Sp);
    size_t Rest = Line.find_first_not_of(' ', Sp);
    if (Rest == std::string::npos)
      continue;
    std::string Status = Line.substr(Rest);
    if (Status.rfind("correct (", 0) == 0)
      V.ByLabel[Label] = "correct";
    else if (Status == "INCORRECT")
      V.ByLabel[Label] = "incorrect";
    else if (Status.rfind("unknown:", 0) == 0)
      V.ByLabel[Label] = "unknown";
    else if (Status.rfind("infeasible:", 0) == 0)
      V.ByLabel[Label] = "infeasible";
    else if (Status.find("ERROR") != std::string::npos)
      V.ByLabel[Label] = "error";
  }
  // Counterexample lines ("Example:", "%x i4 = ...") are not items.
  std::map<std::string, std::string> Known;
  for (const Item &It : In.Items)
    if (auto F = V.ByLabel.find(It.Label); F != V.ByLabel.end())
      Known.insert(*F);
  V.ByLabel = std::move(Known);
  // "     solver: N cold queries | N incremental reuses | N cache hits |
  //  N store hits | N cold starts"
  if (size_t P = Out.find("solver: "); P != std::string::npos) {
    unsigned long long C = 0, R = 0, H = 0, S = 0;
    if (std::sscanf(Out.c_str() + P,
                    "solver: %llu cold queries | %llu incremental reuses | "
                    "%llu cache hits | %llu store hits",
                    &C, &R, &H, &S) == 4) {
      V.ColdQueries = C;
      V.Reuses = R;
      V.CacheHits = H;
      V.StoreHits = S;
    }
  }
  return V;
}

bool bench::verdictIsRight(const Item &It, const std::string &Verdict) {
  if (Verdict.rfind("feasible:", 0) == 0)
    return It.ExpectCorrect;
  return Verdict == (It.ExpectCorrect ? "correct" : "incorrect");
}

uint64_t bench::countWrong(const Inputs &In, const BatchVerdicts &V) {
  uint64_t Wrong = 0;
  for (const Item &It : In.Items) {
    auto F = V.ByLabel.find(It.Label);
    if (F == V.ByLabel.end() || !verdictIsRight(It, F->second))
      ++Wrong;
  }
  return Wrong;
}

bool bench::sameVerdictsAndWork(const BatchVerdicts &A, const BatchVerdicts &B,
                                unsigned Jobs,
                                std::vector<std::string> &Notes) {
  bool Ok = true;
  for (const auto &[Label, Verdict] : A.ByLabel) {
    auto F = B.ByLabel.find(Label);
    if (F == B.ByLabel.end() || F->second != Verdict) {
      Notes.push_back("parity: " + Label + " untraced '" + Verdict +
                      "' traced '" +
                      (F == B.ByLabel.end() ? "<missing>" : F->second) + "'");
      Ok = false;
    }
  }
  if (A.ByLabel.size() != B.ByLabel.size()) {
    Notes.push_back("parity: verdict counts differ");
    Ok = false;
  }
  auto Line = [](const BatchVerdicts &V) {
    return formatString("%llu cold | %llu reuses | %llu cache hits | %llu "
                        "store hits",
                        static_cast<unsigned long long>(V.ColdQueries),
                        static_cast<unsigned long long>(V.Reuses),
                        static_cast<unsigned long long>(V.CacheHits),
                        static_cast<unsigned long long>(V.StoreHits));
  };
  const bool NoHits =
      A.CacheHits + A.StoreHits + B.CacheHits + B.StoreHits == 0;
  const bool Exact = Jobs == 1 || NoHits;
  const bool WorkOk =
      Exact ? A.ColdQueries == B.ColdQueries && A.Reuses == B.Reuses &&
                  A.CacheHits == B.CacheHits && A.StoreHits == B.StoreHits
            : A.ColdQueries + A.Reuses + A.CacheHits + A.StoreHits ==
                  B.ColdQueries + B.Reuses + B.CacheHits + B.StoreHits;
  Notes.push_back(formatString("parity (%s): untraced %s; traced %s",
                               Exact ? "exact" : "sum of checks",
                               Line(A).c_str(), Line(B).c_str()));
  return Ok && WorkOk;
}
