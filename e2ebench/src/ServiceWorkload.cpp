//===- e2ebench/src/ServiceWorkload.cpp - service-mixed -------------------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// service-mixed: an alived daemon on a warm store, driven by a closed-loop
/// load generator that sends every corpus transform once as a
/// single-transform verify request. Three quarters of the reports are
/// pre-warmed (store replays, no solver); the cold quarter is verified and
/// appended to the store.
///
/// A cycle is four passes, each on its own warm store: pass q leaves the
/// q-th quarter of the seeded order cold. Over a cycle every transform is
/// cold exactly once, so the cycle's cost does not depend on which seed put
/// the few expensive transforms in which quarter, and the run reports
/// per-pass figures averaged over whole cycles.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "parser/Parser.h"
#include "service/BatchRunner.h"
#include "service/RemoteClient.h"
#include "service/ResultStore.h"
#include "service/Server.h"
#include "verifier/ReportIO.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <signal.h>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace alive;
using namespace bench;
namespace fs = std::filesystem;
using support::json::Value;

namespace {

constexpr unsigned PassesPerCycle = 4;

/// "3 closed-loop connections, fewer if nproc < 4".
unsigned connectionsFor(const Env &E) {
  return E.Nproc >= 4 ? 3 : std::max(1u, E.Nproc - 1);
}

std::string socketPath(const Env &E) { return E.Dir + "/alived.sock"; }

std::string warmStore(const Env &E, unsigned Pass) {
  return E.Dir + "/warm" + std::to_string(Pass);
}

/// Passes of one cycle: four, or fewer for slices of under four items.
unsigned passesPerCycle(const Inputs &In) {
  return static_cast<unsigned>(
      std::min<size_t>(PassesPerCycle, In.Items.size()));
}

/// Builds each pass's warm store with `alivec verify --store`, the way a
/// user warms one, and checks the verdicts it records.
uint64_t buildWarmStores(const Env &E, const Inputs &In) {
  uint64_t Wrong = 0;
  for (unsigned P = 0; P != passesPerCycle(In); ++P) {
    Inputs Warm;
    for (size_t I = 0; I != In.Items.size(); ++I)
      if (In.ColdPass[I] != P) {
        Warm.Items.push_back(In.Items[I]);
        Warm.OptText += In.Items[I].Text + "\n";
      }
    const std::string File = E.Dir + "/warm.opt";
    writeFile(File, Warm.OptText);
    ProcResult R = runProcess({E.Alivec, "verify",
                               "--jobs=" + std::to_string(E.Jobs),
                               "--store=" + warmStore(E, P), File},
                              E.Dir);
    Wrong += countWrong(Warm, parseBatchOutput(R.Out, Warm));
  }
  return Wrong;
}

/// An alived process serving one pass; stopped (SIGTERM, graceful drain)
/// and reaped when it goes out of scope.
class Daemon {
public:
  Daemon(const Env &E, const std::string &StoreDir) : Sock(socketPath(E)) {
    auto T0 = Clock::now();
    Pid = spawnProcess({E.Alived, "--socket=" + Sock, "--store=" + StoreDir,
                        "--workers=" + std::to_string(E.Jobs)},
                       E.Dir + "/alived.log");
    // Ready once it answers `stats`: the store is open and the socket is
    // bound. Plain callServer probes keep the client's breaker out of it.
    while (true) {
      service::Request Req;
      Req.Verb = "stats";
      auto Resp = service::callServer(Sock, Req);
      if (Resp.ok() && Resp.get().StatusStr == "ok")
        break;
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = 0;
        throw std::runtime_error("alived exited during start-up; see " +
                                 E.Dir + "/alived.log");
      }
      if (secondsSince(T0) > 60) {
        stop();
        throw std::runtime_error("alived did not answer stats within 60 s");
      }
      usleep(200);
    }
    SetupS = secondsSince(T0);
  }

  ~Daemon() { stop(); }

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  Value stats() const {
    service::Request Req;
    Req.Verb = "stats";
    auto Resp = service::callServer(Sock, Req);
    if (!Resp.ok())
      throw std::runtime_error("stats: " + Resp.message());
    return Resp.get().Stats;
  }

  void stop() {
    if (!Pid)
      return;
    kill(Pid, SIGTERM);
    auto T0 = Clock::now();
    int Status = 0;
    while (waitpid(Pid, &Status, WNOHANG) != Pid) {
      if (secondsSince(T0) > 20) {
        kill(Pid, SIGKILL);
        waitpid(Pid, &Status, 0);
        break;
      }
      usleep(1000);
    }
    Pid = 0;
  }

  pid_t Pid = 0;
  double SetupS = 0;

private:
  std::string Sock;
};

/// One request's outcome, indexed like Inputs::Items.
struct Reply {
  double RttMs = 0;
  std::string Verdict; ///< as parseBatchOutput reads it; empty on failure
};

struct PassResult {
  double WallS = 0, CpuS = 0, RssMb = 0, SetupS = 0;
  std::vector<Reply> Replies;
  uint64_t Wrong = 0;
  Value Stats; ///< the daemon's `stats` after the pass (when asked for)
};

/// Sends every item once over \p Conns closed-loop connections.
std::vector<Reply> sendAll(const Env &E, const Inputs &In, unsigned Conns) {
  std::vector<Reply> Replies(In.Items.size());
  std::atomic<size_t> Next{0};
  auto Client = [&] {
    service::RemoteClientConfig CC;
    CC.Address = socketPath(E);
    CC.MaxRetries = 0; // busy or a transport error is a failed request
    service::RemoteClient RC(CC);
    for (size_t I = Next++; I < In.Items.size(); I = Next++) {
      service::Request Req;
      Req.Verb = "verify";
      Req.Path = "request.opt";
      Req.Text = In.Items[I].Text;
      Req.Opts = {"--jobs=" + std::to_string(E.Jobs)};
      auto T0 = Clock::now();
      auto Resp = RC.call(Req);
      Replies[I].RttMs = secondsSince(T0) * 1000.0;
      if (!Resp.ok() || Resp.get().StatusStr != "ok")
        continue; // an empty verdict counts the request as failed
      Inputs One;
      One.Items.push_back(In.Items[I]);
      auto V = parseBatchOutput(Resp.get().Out, One);
      if (auto F = V.ByLabel.find(In.Items[I].Label); F != V.ByLabel.end())
        Replies[I].Verdict = F->second;
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Conns; ++C)
    Threads.emplace_back(Client);
  for (std::thread &T : Threads)
    T.join();
  return Replies;
}

PassResult runPass(const Env &E, const Inputs &In, unsigned Pass,
                   bool WantStats) {
  const std::string Store = E.Dir + "/pass";
  fs::remove_all(Store);
  fs::copy(warmStore(E, Pass), Store, fs::copy_options::recursive);

  PassResult R;
  Daemon D(E, Store);
  R.SetupS = D.SetupS;
  const double Cpu0 = procCpuSeconds(D.Pid);
  auto T0 = Clock::now();
  R.Replies = sendAll(E, In, connectionsFor(E));
  R.WallS = secondsSince(T0);
  R.CpuS = procCpuSeconds(D.Pid) - Cpu0;
  R.RssMb = procPeakRssMb(D.Pid);
  if (WantStats)
    R.Stats = D.stats();
  D.stop();
  for (size_t I = 0; I != In.Items.size(); ++I)
    if (!verdictIsRight(In.Items[I], R.Replies[I].Verdict))
      ++R.Wrong;
  return R;
}

/// Verdicts plus the daemon's solver roll-up, for the parity guard.
BatchVerdicts passVerdicts(const Inputs &In, const PassResult &P) {
  BatchVerdicts V;
  for (size_t I = 0; I != In.Items.size(); ++I)
    V.ByLabel[In.Items[I].Label] = P.Replies[I].Verdict;
  const Value &S = P.Stats.get("solver");
  V.ColdQueries = S.get("cold_queries").asUInt();
  V.Reuses = S.get("incremental_reuses").asUInt();
  V.CacheHits = S.get("cache_hits").asUInt();
  V.StoreHits = S.get("store_hits").asUInt();
  return V;
}

/// Replays the traced pass's report keys against a copy of its warm store
/// from the benchmark process: open, a lookup per request, and an insert of
/// the report the daemon computed for each cold one.
void replayStore(const Env &E, const Inputs &In, RunResult &R) {
  auto Opts = service::parseBatchOptions(
      "verify", {"--jobs=" + std::to_string(E.Jobs)});
  if (!Opts.ok())
    throw std::runtime_error(Opts.message());
  const verifier::VerifyConfig &Cfg = Opts.get().Cfg;

  auto Computed = service::ResultStore::open(E.Dir + "/pass");
  if (!Computed.ok())
    throw std::runtime_error("cannot open the pass store: " +
                             Computed.message());
  const std::string Copy = E.Dir + "/replay";
  fs::remove_all(Copy);
  fs::copy(warmStore(E, 0), Copy, fs::copy_options::recursive);
  auto T0 = Clock::now();
  auto Store = service::ResultStore::open(Copy);
  const double OpenMs = secondsSince(T0) * 1000.0;
  if (!Store.ok())
    throw std::runtime_error("cannot open the replay store: " +
                             Store.message());

  std::vector<double> LookupUs, InsertUs;
  uint64_t Hits = 0, Expected = 0;
  for (size_t I = 0; I != In.Items.size(); ++I) {
    auto T = parser::parseTransform(In.Items[I].Text);
    if (!T.ok())
      throw std::runtime_error("cannot parse " + In.Items[I].Label);
    const std::string Key = verifier::reportKey(*T.get(), Cfg, "verify");
    std::string Bytes;
    T0 = Clock::now();
    bool Hit = Store.get()->lookupReport(Key, Bytes);
    LookupUs.push_back(secondsSince(T0) * 1e6);
    Hits += Hit;
    Expected += In.ColdPass[I] != 0;
    if (Hit || !Computed.get()->lookupReport(Key, Bytes))
      continue;
    T0 = Clock::now();
    Store.get()->insertReport(Key, Bytes);
    InsertUs.push_back(secondsSince(T0) * 1e6);
  }
  if (Hits != Expected) {
    R.ParityOk = false;
    R.Notes.push_back(formatString(
        "store replay: %llu report hits, but %llu reports were pre-warmed",
        static_cast<unsigned long long>(Hits),
        static_cast<unsigned long long>(Expected)));
  }
  R.M["service.store_open_ms"] = OpenMs;
  R.M["service.store_lookup_us"] = median(LookupUs);
  R.M["service.store_insert_us"] = median(InsertUs);
  R.Notes.push_back(formatString(
      "store replay: %zu lookups, %zu inserts of computed reports",
      LookupUs.size(), InsertUs.size()));
}

RunResult tracedRun(const Env &E, const Inputs &In) {
  RunResult R;
  R.Failed += buildWarmStores(E, In);

  PassResult Ref = runPass(E, In, 0, /*WantStats=*/true);
  PassResult Tr = runPass(E, In, 0, /*WantStats=*/true);
  R.Attempted += 2 * In.Items.size();
  R.Failed += Ref.Wrong + Tr.Wrong;
  R.ParityOk =
      sameVerdictsAndWork(passVerdicts(In, Ref), passVerdicts(In, Tr),
                          E.Jobs, R.Notes);

  std::vector<double> HitMs, MissMs;
  std::vector<std::pair<double, std::string>> ByRequest;
  for (size_t I = 0; I != In.Items.size(); ++I) {
    (In.ColdPass[I] != 0 ? HitMs : MissMs).push_back(Tr.Replies[I].RttMs);
    ByRequest.push_back({Tr.Replies[I].RttMs,
                         In.Items[I].Label +
                             (In.ColdPass[I] != 0 ? " (hit)" : " (miss)")});
  }
  const Value &Solver = Tr.Stats.get("solver");
  const Value &Counters = Tr.Stats.get("counters");
  R.M["service.hit_rtt_p50_ms"] = median(HitMs);
  R.M["service.miss_rtt_p50_ms"] = median(MissMs);
  R.M["service.report_hits"] =
      static_cast<double>(Solver.get("report_hits").asUInt());
  R.M["service.report_misses"] =
      static_cast<double>(Solver.get("report_misses").asUInt());
  R.M["service.shed"] =
      static_cast<double>(Counters.get("requests_shed_total").asUInt());
  R.M["service.timeouts"] =
      static_cast<double>(Counters.get("requests_timeout_total").asUInt());
  replayStore(E, In, R);

  R.Notes.push_back(formatString(
      "traced pass: %zu requests (%zu pre-warmed, %zu cold) over %u "
      "connections, %.3f s",
      In.Items.size(), HitMs.size(), MissMs.size(), connectionsFor(E),
      Tr.WallS));
  R.Notes.push_back("10 slowest requests (client round trip):");
  for (std::string &L : slowest(ByRequest, 10, "ms"))
    R.Notes.push_back(std::move(L));
  return R;
}

} // namespace

RunResult bench::runServiceWorkload(const Env &E, const Inputs &In) {
  if (E.Trace)
    return tracedRun(E, In);

  RunResult R;
  R.Failed += buildWarmStores(E, In);

  std::vector<double> Wall, Cpu, Rss, Setup, Rtt;
  auto Start = Clock::now();
  do {
    double CycleWall = 0, CycleCpu = 0, CycleRss = 0;
    const unsigned Passes = passesPerCycle(In);
    for (unsigned P = 0; P != Passes; ++P) {
      PassResult PR = runPass(E, In, P, /*WantStats=*/false);
      R.Attempted += In.Items.size();
      R.Failed += PR.Wrong;
      CycleWall += PR.WallS;
      CycleCpu += PR.CpuS;
      CycleRss += PR.RssMb;
      Setup.push_back(PR.SetupS);
      for (const Reply &Rep : PR.Replies)
        Rtt.push_back(Rep.RttMs);
    }
    Wall.push_back(CycleWall / Passes);
    Cpu.push_back(CycleCpu / Passes);
    Rss.push_back(CycleRss / Passes);
  } while (secondsSince(Start) < E.Seconds);

  R.M["wall_s"] = median(Wall);
  R.M["cpu_s"] = median(Cpu);
  R.M["p50_ms"] = quantile(Rtt, 0.50);
  R.M["p95_ms"] = quantile(Rtt, 0.95);
  R.M["peak_rss_mb"] = median(Rss);
  R.M["setup_s"] = median(Setup);
  R.Notes.push_back(formatString(
      "%zu cycles of %u daemon passes, %zu requests each over %u "
      "connections; %zu round-trip samples; %zu daemon launches",
      Wall.size(), passesPerCycle(In), In.Items.size(), connectionsFor(E),
      Rtt.size(), Setup.size()));
  R.Notes.push_back(passList(Wall));
  return R;
}
