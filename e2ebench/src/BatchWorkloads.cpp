//===- e2ebench/src/BatchWorkloads.cpp - verify-corpus, infer-corpus ------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two batch workloads. The timed run launches `alivec verify|infer
/// --jobs=J` over the corpus file, exactly as a user would; the traced run
/// drives the same transforms in-process through the public calls of each
/// layer, spread over J workers the way the batch pool spreads them.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Lint.h"
#include "analysis/StaticFilter.h"
#include "parser/Parser.h"
#include "service/BatchRunner.h"
#include "service/ResultStore.h"
#include "smt/QueryCache.h"
#include "smt/Session.h"
#include "support/ThreadPool.h"
#include "typing/TypeConstraints.h"
#include "verifier/Verifier.h"

#include <algorithm>
#include <stdexcept>

using namespace alive;
using namespace bench;

namespace {

/// Launches of alivec on an empty file that make up the setup_s sample.
constexpr unsigned SetupLaunches = 31;

const char *modeOf(Workload W) {
  return W == Workload::InferCorpus ? "infer" : "verify";
}

std::vector<std::string> alivecArgs(const Env &E, const std::string &File) {
  return {E.Alivec, modeOf(E.W), "--jobs=" + std::to_string(E.Jobs), File};
}

/// One alivec pass over the corpus file, with its output checked.
struct Pass {
  ProcResult P;
  BatchVerdicts V;
  uint64_t Wrong = 0;
};

Pass runPass(const Env &E, const Inputs &In, const std::string &File) {
  Pass R;
  R.P = runProcess(alivecArgs(E, File), E.Dir);
  R.V = parseBatchOutput(R.P.Out, In);
  R.Wrong = countWrong(In, R.V);
  return R;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// Time the current thread spent inside backend session checks.
thread_local double CheckSeconds = 0;

/// Times every check of the backend session it wraps. It sits where
/// VerifyConfig::SessionFactory puts it — inside the cache decorator — and
/// classifies each check exactly as the decorators classify one another,
/// so the verifier's accounting is unchanged.
class TimingSession final : public smt::SolverSession {
public:
  explicit TimingSession(std::unique_ptr<smt::SolverSession> Inner)
      : Inner(std::move(Inner)) {}

  void add(smt::TermRef T) override { Inner->add(T); }
  void push() override { Inner->push(); }
  void pop() override { Inner->pop(); }
  std::string name() const override { return "timed(" + Inner->name() + ")"; }

protected:
  smt::CheckResult checkImpl(const std::vector<smt::TermRef> &Assumptions,
                             const smt::ResourceLimits *Override) override {
    smt::SolverStats Before = Inner->stats();
    auto T0 = Clock::now();
    smt::CheckResult R = Inner->check(Assumptions, Override);
    CheckSeconds += secondsSince(T0);
    smt::SolverStats D = Inner->stats().deltaSince(Before);
    Stats.Escalations += D.Escalations;
    Stats.FragmentFallbacks += D.FragmentFallbacks;
    Stats.FaultsInjected += D.FaultsInjected;
    Stats.ColdStarts += D.ColdStarts;
    if (D.CacheHits)
      ServedFromCache = true;
    else if (D.StoreHits)
      ServedFromStore = true;
    else if (D.IncrementalReuses)
      WarmReuse = true;
    return R;
  }

private:
  std::unique_ptr<smt::SolverSession> Inner;
};

/// The hybrid backend's escalation budgets as the verifier derives them:
/// probe at a tenth of the deadline and 2000 conflicts, then the full
/// native budget, then Z3 under the whole deadline.
smt::EscalationConfig verifierEscalation(const verifier::VerifyConfig &Cfg) {
  smt::ResourceLimits L = Cfg.Limits;
  if (!L.DeadlineMs)
    L.DeadlineMs = Cfg.TimeoutMs;
  smt::EscalationConfig Esc;
  Esc.Full = L;
  Esc.Probe = L;
  Esc.Probe.ConflictBudget =
      L.ConflictBudget ? std::max<uint64_t>(1, L.ConflictBudget / 10) : 2000;
  if (L.DeadlineMs)
    Esc.Probe.DeadlineMs = std::max(1u, L.DeadlineMs / 10);
  Esc.Z3TimeoutMs = L.DeadlineMs;
  return Esc;
}

const char *verdictName(verifier::Verdict V) {
  switch (V) {
  case verifier::Verdict::Correct:
    return "correct";
  case verifier::Verdict::Incorrect:
    return "incorrect";
  case verifier::Verdict::Unknown:
    return "unknown";
  case verifier::Verdict::TypeError:
  case verifier::Verdict::EncodeError:
    break;
  }
  return "error";
}

/// The verdict text parseBatchOutput reads from alivec infer's report.
std::string inferVerdict(const verifier::AttrInferenceResult &R) {
  if (!R.Feasible)
    return "infeasible";
  auto Flags = [](unsigned F) {
    std::string S;
    if (F & ir::AttrNSW)
      S += " nsw";
    if (F & ir::AttrNUW)
      S += " nuw";
    if (F & ir::AttrExact)
      S += " exact";
    return S.empty() ? std::string(" (none)") : S;
  };
  std::string V = "feasible:";
  for (const auto &[I, F] : R.SrcFlags)
    V += " source " + I + " needs" + Flags(F) + ";";
  for (const auto &[I, F] : R.TgtFlags)
    V += " target " + I + " may carry" + Flags(F) + ";";
  return V;
}

/// Per-transform layer times of the traced run.
struct ItemTrace {
  double LintS = 0, TypingS = 0, EncodeS = 0, FilterS = 0, CheckS = 0;
  double ItemS = 0; ///< the verifier::verify / inferAttributes call
  unsigned Assignments = 0;
  uint64_t Terms = 0;
  unsigned Proven = 0; ///< conditions the static filter discharged
  std::string Verdict;
  smt::SolverStats Stats;
  bool Stalled = false; ///< ended Unknown on the query deadline
};

ItemTrace traceItem(const ir::Transform &T, bool Infer,
                    const verifier::VerifyConfig &Cfg) {
  ItemTrace R;
  auto T0 = Clock::now();
  if (!Infer) {
    (void)analysis::lintTransform(T);
    R.LintS = secondsSince(T0);
  }

  T0 = Clock::now();
  auto Sys = typing::TypeConstraintSystem::fromTransform(T);
  auto Types = typing::enumerateTypesNative(Sys, Cfg.Types);
  R.TypingS = secondsSince(T0);
  if (Types.ok()) {
    R.Assignments = static_cast<unsigned>(Types.get().size());
    for (const typing::TypeAssignment &A : Types.get()) {
      smt::TermContext Ctx;
      T0 = Clock::now();
      semantics::Encoder Enc(Ctx, T, A, Cfg.Encoding);
      (void)Enc.encode(/*InferAttrs=*/Infer);
      R.EncodeS += secondsSince(T0);
      R.Terms += Ctx.numTerms();
      if (!Infer && Cfg.StaticFilter) {
        T0 = Clock::now();
        R.Proven += analysis::analyzeRefinement(T, A, Cfg.Encoding.PtrWidth)
                        .dischargeable();
        R.FilterS += secondsSince(T0);
      }
    }
  }

  CheckSeconds = 0;
  T0 = Clock::now();
  if (Infer) {
    verifier::AttrInferenceResult IR = verifier::inferAttributes(T, Cfg);
    R.ItemS = secondsSince(T0);
    R.Verdict = inferVerdict(IR);
    R.Stats = IR.Stats;
    R.Stalled = IR.WhyUnknown == smt::UnknownReason::Deadline;
  } else {
    verifier::VerifyResult VR = verifier::verify(T, Cfg);
    R.ItemS = secondsSince(T0);
    R.Verdict = verdictName(VR.V);
    R.Stats = VR.Stats;
    R.Stalled = VR.WhyUnknown == smt::UnknownReason::Deadline;
  }
  R.CheckS = CheckSeconds;
  return R;
}

verifier::VerifyConfig cliConfig(const Env &E) {
  auto Opts = service::parseBatchOptions(
      modeOf(E.W), {"--jobs=" + std::to_string(E.Jobs)});
  if (!Opts.ok())
    throw std::runtime_error(Opts.message());
  return Opts.get().Cfg;
}

/// service.batch_self_ms: the batch pipeline's own time — splitting,
/// parsing, lint, report lookup and rendering — as one serial in-process
/// service::runBatch over a store that replays every report, so no
/// transform is verified. (Subtracting per-transform verify time from a
/// cold serial run leaves a difference of two ~2.5 s figures that moved by
/// hundreds of ms between identical runs.)
double batchSelfMs(const Env &E, const Inputs &In) {
  auto Opened = service::ResultStore::open(E.Dir + "/batch-store");
  if (!Opened.ok())
    throw std::runtime_error("cannot open a store: " + Opened.message());
  std::shared_ptr<service::ResultStore> Store = Opened.take();
  auto Run = [&](unsigned Jobs) {
    auto Opts = service::parseBatchOptions(
        "verify", {"--jobs=" + std::to_string(Jobs)});
    if (!Opts.ok())
      throw std::runtime_error(Opts.message());
    service::BatchOutcome Out =
        service::runBatch(Opts.get(), "corpus.opt", In.OptText, Store, nullptr);
    if (countWrong(In, parseBatchOutput(Out.Out, In)))
      throw std::runtime_error("in-process runBatch gave a wrong verdict");
    return Out;
  };
  (void)Run(E.Jobs); // fills the store
  auto T0 = Clock::now();
  service::BatchOutcome Replay = Run(1);
  const double Ms = secondsSince(T0) * 1000.0;
  if (Replay.ReportHits != In.Items.size())
    throw std::runtime_error("the store did not replay every report");
  return Ms;
}

RunResult tracedRun(const Env &E, const Inputs &In, const std::string &File) {
  RunResult R;
  const bool Infer = E.W == Workload::InferCorpus;

  // The untraced reference: one alivec pass, as in the timed run (after
  // the same untimed warm-up pass on verify-corpus).
  if (!Infer)
    (void)runPass(E, In, File);
  Pass Ref = runPass(E, In, File);
  R.Attempted += In.Items.size();
  R.Failed += Ref.Wrong;

  auto T0 = Clock::now();
  auto Parsed = parser::parseTransforms(In.OptText);
  double ParseS = secondsSince(T0);
  if (!Parsed.ok())
    throw std::runtime_error("corpus does not parse: " + Parsed.message());
  const auto &Ts = Parsed.get();

  verifier::VerifyConfig Cfg = cliConfig(E);
  auto Cache = std::make_shared<smt::QueryCache>(
      1 << 16, smt::QueryCache::shardCountForJobs(E.Jobs));
  Cfg.Cache = Cache;
  if (!Infer) {
    // On infer the hook would replace AttrInfer's own backend choice.
    smt::EscalationConfig Esc = verifierEscalation(Cfg);
    Cfg.SessionFactory = [Esc](smt::TermContext &) {
      return std::make_unique<TimingSession>(smt::createGuardedSession(Esc));
    };
  }

  std::vector<ItemTrace> Traces(Ts.size());
  T0 = Clock::now();
  {
    support::ThreadPool Pool(E.Jobs);
    for (size_t I = 0; I != Ts.size(); ++I)
      Pool.submit([&, I] {
        try {
          Traces[I] = traceItem(*Ts[I], Infer, Cfg);
        } catch (const std::exception &Ex) {
          Traces[I].Verdict = std::string("error: ") + Ex.what();
        }
      });
    Pool.wait();
  }
  double TracedWallS = secondsSince(T0);

  BatchVerdicts Traced;
  smt::SolverStats Sum;
  std::vector<double> ItemMs;
  std::vector<std::pair<double, std::string>> ByItem;
  double Lint = 0, Typing = 0, Encode = 0, Filter = 0, Check = 0, Stall = 0;
  uint64_t Assignments = 0, Terms = 0, Proven = 0;
  for (size_t I = 0; I != Ts.size(); ++I) {
    const ItemTrace &T = Traces[I];
    Traced.ByLabel[Ts[I]->Name] = T.Verdict;
    Sum.merge(T.Stats);
    ItemMs.push_back(T.ItemS * 1000.0);
    ByItem.push_back({T.ItemS * 1000.0, Ts[I]->Name});
    Lint += T.LintS;
    Typing += T.TypingS;
    Encode += T.EncodeS;
    Filter += T.FilterS;
    Check += T.CheckS;
    if (T.Stalled)
      Stall += T.ItemS;
    Assignments += T.Assignments;
    Terms += T.Terms;
    Proven += T.Proven;
  }
  Traced.ColdQueries = Sum.Queries;
  Traced.Reuses = Sum.IncrementalReuses;
  Traced.CacheHits = Sum.CacheHits;
  Traced.StoreHits = Sum.StoreHits;
  R.Failed += countWrong(In, Traced);
  R.Attempted += In.Items.size();
  R.ParityOk = sameVerdictsAndWork(Ref.V, Traced, E.Jobs, R.Notes);

  const double ItemSumMs = sum(ItemMs);
  const double LargestMs =
      ItemMs.empty() ? 0 : *std::max_element(ItemMs.begin(), ItemMs.end());
  const double IdealS = std::max(ItemSumMs / E.Jobs, LargestMs) / 1000.0;
  smt::QueryCacheStats CS = Cache->stats();

  Metrics &M = R.M;
  M["parser.parse_ms"] = ParseS * 1000.0;
  M["analysis.lint_ms"] = Lint * 1000.0;
  M["typing.enum_ms"] = Typing * 1000.0;
  M["typing.assignments"] = static_cast<double>(Assignments);
  M["semantics.encode_ms"] = Encode * 1000.0;
  M["semantics.terms"] = static_cast<double>(Terms);
  M["analysis.filter_ms"] = Filter * 1000.0;
  M["analysis.discharge_frac"] =
      !Infer && Assignments ? static_cast<double>(Proven) / (3.0 * Assignments)
                            : 0.0;
  M["smt.check_ms"] = Check * 1000.0;
  M["smt.cold_queries"] = static_cast<double>(Sum.Queries);
  M["smt.incremental_reuses"] = static_cast<double>(Sum.IncrementalReuses);
  M["smt.cache_hits"] = static_cast<double>(Sum.CacheHits);
  M["smt.cold_starts"] = static_cast<double>(Sum.ColdStarts);
  M["smt.escalations"] = static_cast<double>(Sum.Escalations);
  M["smt.z3_fallbacks"] = static_cast<double>(Sum.FragmentFallbacks);
  M["smt.unknowns"] = static_cast<double>(Sum.UnknownAnswers);
  M["smt.preprocess_ms"] = static_cast<double>(Sum.PreprocessUs) / 1000.0;
  M["smt.rewrite_saved_frac"] =
      Sum.RewriteGateCalls ? static_cast<double>(Sum.RewriteSavedGates) /
                                 static_cast<double>(Sum.RewriteGateCalls)
                           : 0.0;
  M["smt.cache_hit_frac"] = CS.hitRate();
  M["smt.cache_contention"] = static_cast<double>(CS.Contention);
  M["verifier.item_p50_ms"] = quantile(ItemMs, 0.50);
  M["verifier.item_p95_ms"] = quantile(ItemMs, 0.95);
  M["verifier.largest_item_ms"] = LargestMs;
  // On infer-corpus no session hook times the solver, so the solver's time
  // stays inside the verifier's self time there.
  M["verifier.self_ms"] = ItemSumMs - (Typing + Encode + Filter + Check) * 1000.0;
  M["verifier.stall_s"] = Stall;
  if (!Infer)
    M["service.batch_self_ms"] = batchSelfMs(E, In);
  M["sched.ideal_wall_s"] = IdealS;
  M["sched.efficiency"] = Ref.P.WallS > 0 ? IdealS / Ref.P.WallS : 0.0;

  R.Notes.push_back(formatString(
      "untraced pass %.3f s; traced pass %.3f s over %zu transforms at J=%u "
      "(%zu per-item samples)",
      Ref.P.WallS, TracedWallS, Ts.size(), E.Jobs, ItemMs.size()));
  R.Notes.push_back("10 slowest transforms (verifier::" +
                    std::string(Infer ? "inferAttributes" : "verify") +
                    " time):");
  for (std::string &L : slowest(ByItem, 10, "ms"))
    R.Notes.push_back(std::move(L));
  return R;
}

} // namespace

RunResult bench::runBatchWorkload(const Env &E, const Inputs &In) {
  const std::string File = E.Dir + "/corpus.opt";
  const std::string Empty = E.Dir + "/empty.opt";
  writeFile(File, In.OptText);
  writeFile(Empty, "");

  if (E.Trace)
    return tracedRun(E, In, File);

  RunResult R;
  // setup_s: the same command on an empty file — process start, option
  // parsing and batch set-up without any transform.
  std::vector<double> Setup;
  for (unsigned I = 0; I != SetupLaunches; ++I)
    Setup.push_back(runProcess(alivecArgs(E, Empty), E.Dir).WallS);

  // The first verify pass after the machine idles often runs about twice
  // as long as the rest; one untimed pass keeps that out of the sample.
  // (An infer pass takes ~20 s, so infer-corpus measures its only pass.)
  if (E.W == Workload::VerifyCorpus) {
    Pass Warm = runPass(E, In, File);
    R.Attempted += In.Items.size();
    R.Failed += Warm.Wrong;
  }

  std::vector<double> Wall, Cpu, Rss;
  auto Start = Clock::now();
  do {
    Pass P = runPass(E, In, File);
    R.Attempted += In.Items.size();
    R.Failed += P.Wrong;
    Wall.push_back(P.P.WallS);
    Cpu.push_back(P.P.CpuS);
    Rss.push_back(P.P.PeakRssMb);
  } while (secondsSince(Start) < E.Seconds);

  // The user of a batch waits for the whole file — alivec prints nothing
  // before the batch ends — so a pass is the item whose latency counts.
  R.M["wall_s"] = median(Wall);
  R.M["cpu_s"] = median(Cpu);
  R.M["p50_ms"] = median(Wall) * 1000.0;
  R.M["p95_ms"] = quantile(Wall, 0.95) * 1000.0;
  R.M["peak_rss_mb"] = median(Rss);
  R.M["setup_s"] = median(Setup);
  R.Notes.push_back(formatString(
      "%zu passes of `alivec %s --jobs=%u` over %zu transforms; %zu set-up "
      "launches",
      Wall.size(), modeOf(E.W), E.Jobs, In.Items.size(), Setup.size()));
  R.Notes.push_back(passList(Wall));
  return R;
}
