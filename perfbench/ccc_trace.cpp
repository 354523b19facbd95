//===- perfbench/ccc_trace.cpp - Traced twin of ccc_serve -----------------===//
//
// Part of CASCC, an executable model of certified separate compilation for
// concurrent programs (PLDI 2019).
//
// Runs a ccc_serve request list through the same public calls
// frontend::runJob makes, and records one span around each call into a
// layer: parse, build, the static analyses, the compiler and validator,
// the exploration engine and its post-passes. Spans (name, start, end,
// parent, job) are kept in memory and written at exit (--spans). After
// each exploration it times single calls into the language step, world
// copy, hash, residue encoding and race prediction on a seeded sample of
// the explored node worlds; those samples run outside every span.
//
// Output, on stdout: one verdict record per check (the fields of a
// ccc_serve record that name the verdict), then a per-layer self-time
// table (lines starting with '#'), then one JSON summary line.
//
// Usage:
//   ccc_trace --requests FILE --spans FILE [--workers N]
//             [--no-fast-paths] [--sample-seed N]
//
//===----------------------------------------------------------------------===//

#include "analysis/FenceSynth.h"
#include "analysis/RaceDetector.h"
#include "analysis/Robustness.h"
#include "analysis/StaticRace.h"
#include "clight/ClightParser.h"
#include "compiler/Compiler.h"
#include "core/Explorer.h"
#include "core/World.h"
#include "frontend/Workload.h"
#include "support/JsonOut.h"
#include "validate/PassValidator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace ccc;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// One recorded span. Times are ms since the tracer started.
struct Span {
  std::string Name;
  double Start = 0.0;
  double End = 0.0;
  int Parent = -1;
  unsigned Job = 0;
};

/// In-memory span recorder with an implicit parent stack.
class Tracer {
public:
  int open(const std::string &Name, unsigned Job) {
    Spans.push_back(Span{Name, now(), 0.0, Stack.empty() ? -1 : Stack.back(),
                         Job});
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }

  void close(int Id) {
    Spans[Id].End = now();
    Stack.pop_back();
  }

  /// Adds a finished child of \p Parent measured by the engine itself.
  void addChild(int Parent, const std::string &Name, double Start,
                double End) {
    Spans.push_back(Span{Name, Start, End, Parent, Spans[Parent].Job});
  }

  const std::vector<Span> &spans() const { return Spans; }

  double now() const { return msBetween(T0, Clock::now()); }

private:
  Clock::time_point T0 = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// Opens a span for the lifetime of the object.
class Scoped {
public:
  Scoped(Tracer &T, const std::string &Name, unsigned Job)
      : T(T), Id(T.open(Name, Job)) {}
  ~Scoped() { T.close(Id); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;
  int id() const { return Id; }

private:
  Tracer &T;
  int Id;
};

/// Engine counters summed over every exploration of the run.
struct EngineTotals {
  unsigned Explorations = 0;
  std::size_t States = 0, Expanded = 0, Probes = 0, DedupHits = 0;
  std::size_t PeakFrontier = 0, StateBytes = 0, GraphBytes = 0;
  std::size_t TreeNodes = 0, AmpleHits = 0, FullExpansions = 0;
  std::size_t SleepPrunes = 0, EdgesAvoided = 0;
  double BuildMs = 0.0;
  /// Largest store + graph + page-pool bytes of any one exploration.
  std::size_t MaxAttributedBytes = 0;

  void add(const ExploreStats &S) {
    ++Explorations;
    States += S.States;
    Expanded += S.Expanded;
    Probes += S.Probes;
    DedupHits += S.DedupHits;
    PeakFrontier = std::max(PeakFrontier, S.PeakFrontier);
    StateBytes += S.StateBytes;
    GraphBytes += S.GraphBytes;
    TreeNodes += S.TreeNodes;
    AmpleHits += S.Por.AmpleHits;
    FullExpansions += S.Por.FullExpansions;
    SleepPrunes += S.Por.SleepPrunes;
    EdgesAvoided += S.Por.EdgesAvoided;
    BuildMs += S.BuildMs;
    MaxAttributedBytes =
        std::max(MaxAttributedBytes,
                 S.StateBytes + S.GraphBytes + S.PagePoolCapacityBytes);
  }
};

/// Per-call timings of single layer functions on sampled node worlds.
struct Samples {
  std::vector<double> SuccNs, CopyNs, HashNs, EncodeNs, PredictNs;
  std::size_t SuccCalls = 0, Succs = 0;
  double ProbeMs = 0.0;
  /// Folds every probed result so no call can be optimised away.
  uint64_t Sink = 0;
};

constexpr unsigned SamplesPerExploration = 16;

double nsOf(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}

void sampleWorlds(const Explorer<World> &E, std::mt19937_64 &Rng,
                  Samples &S) {
  const auto Start = Clock::now();
  const std::size_t N = E.numStates();
  for (unsigned I = 0; I < SamplesPerExploration && N > 0; ++I) {
    const World &W = E.world(Rng() % N);

    auto T0 = Clock::now();
    std::vector<GSucc<World>> Succs = W.succ();
    auto T1 = Clock::now();
    S.SuccNs.push_back(nsOf(T0, T1));
    ++S.SuccCalls;
    S.Succs += Succs.size();

    T0 = Clock::now();
    {
      World Copy(W);
      S.Sink += Copy.numThreads();
    }
    T1 = Clock::now();
    S.CopyNs.push_back(nsOf(T0, T1));

    T0 = Clock::now();
    S.Sink ^= W.hashKey();
    T1 = Clock::now();
    S.HashNs.push_back(nsOf(T0, T1));

    {
      StateStore Store;
      ResidueBuf Buf(Store);
      T0 = Clock::now();
      W.residueBytes(Buf);
      const uint32_t R = Buf.takeRoot();
      const uint32_t M = W.mem().residueRoot(Buf);
      T1 = Clock::now();
      S.Sink += R ^ M;
      S.EncodeNs.push_back(nsOf(T0, T1));
    }

    if (W.racePredictable()) {
      for (ThreadId T = 0; T < W.numThreads(); ++T) {
        T0 = Clock::now();
        S.Sink += W.predictFor(T).size();
        T1 = Clock::now();
        S.PredictNs.push_back(nsOf(T0, T1));
      }
    }
  }
  S.ProbeMs += msBetween(Start, Clock::now());
}

struct Options {
  std::string RequestsPath;
  std::string SpansPath;
  unsigned Workers = 1;
  bool FastPaths = true;
  uint64_t SampleSeed = 1;
};

/// Everything one run accumulates besides the spans.
struct Run {
  Options O;
  Tracer T;
  EngineTotals Engine;
  Samples Probe;
  std::mt19937_64 Rng;
  unsigned DrfChecks = 0, StaticCertified = 0, FencesInserted = 0;

  explicit Run(const Options &O) : O(O), Rng(O.SampleSeed) {}

  ExploreOptions exploreOptions() const {
    ExploreOptions E;
    E.Threads = O.Workers;
    return E;
  }

  /// The independence oracle the engine builds first thing in build(),
  /// timed as its own call on the same program.
  void timeIndependence(const Program &P, unsigned Job) {
    Scoped S(T, "analysis.independence", Job);
    std::shared_ptr<const PorOracle> Oracle = buildIndependenceOracle(P);
    Probe.Sink += Oracle != nullptr;
  }

  void buildEngine(Explorer<World> &E, const Program &P, unsigned Job) {
    timeIndependence(P, Job);
    Scoped S(T, "engine.build", Job);
    E.build(World::load(P, 0));
    // Divergence is the last thing build() does; the engine times it.
    const double End = T.now();
    T.addChild(S.id(), "post.divergence", End - E.stats().DivergenceMs, End);
  }

  /// Samples the finished exploration, then destroys it inside its own
  /// span: freeing every retained node world is a cost of its own.
  void finish(std::optional<Explorer<World>> &E, unsigned Job) {
    Engine.add(E->stats());
    sampleWorlds(*E, Rng, Probe);
    Scoped S(T, "engine.teardown", Job);
    E.reset();
  }

  void explore(Program &P, unsigned Job, std::string &Verdict,
               std::string &Hash) {
    std::optional<Explorer<World>> E;
    E.emplace(exploreOptions());
    buildEngine(*E, P, Job);
    Verdict = checkVerdictName(E->safetyVerdict());
    if (!E->truncated()) {
      Scoped S(T, "post.trace", Job);
      Hash = json::traceSetHash(E->traces());
    }
    finish(E, Job);
  }

  std::string drf(Program &P, unsigned Job) {
    if (O.FastPaths) {
      Scoped S(T, "analysis.robustness", Job);
      Probe.Sink += analysis::programRobustness(P).Modules.size();
    }
    analysis::StaticDrfReport Static;
    {
      Scoped S(T, "analysis.static_race", Job);
      Static = analysis::staticRaceAnalysis(P);
    }
    ++DrfChecks;
    StaticCertified += Static.certified();
    if (O.FastPaths && Static.certified())
      return checkVerdictName(CheckVerdict::Certified);
    std::optional<Explorer<World>> E;
    E.emplace(exploreOptions());
    buildEngine(*E, P, Job);
    RaceCheck C;
    {
      Scoped S(T, "post.race", Job);
      C = E->checkRace();
    }
    finish(E, Job);
    return checkVerdictName(C.verdict());
  }

  std::string robustness(Program &P, unsigned Job) {
    Scoped S(T, "analysis.robustness", Job);
    const analysis::ProgramRobustReport R = analysis::programRobustness(P);
    bool AnyNotRobust = false, AnyUnknown = false;
    for (const analysis::ModuleRobustInfo &M : R.Modules) {
      AnyNotRobust |= M.Report.Verdict == analysis::RobustVerdict::NotRobust;
      AnyUnknown |= M.Report.Verdict == analysis::RobustVerdict::Unknown;
    }
    return AnyNotRobust ? "not-robust" : AnyUnknown ? "unknown" : "robust";
  }

  std::string fenceSynth(Program &P, unsigned Job) {
    Scoped S(T, "analysis.fence_synth", Job);
    analysis::ProgramRepairReport Rep;
    analysis::repairAndApplyScFastPath(P, &Rep);
    FencesInserted += Rep.FencesInserted;
    return checkVerdictName(Rep.allRepaired() ? CheckVerdict::Certified
                                              : CheckVerdict::Inconclusive);
  }

  std::string passes(const frontend::WorkloadFile &W, unsigned Job) {
    unsigned Validated = 0;
    for (const frontend::ModuleSpec &M : W.Modules) {
      if (M.Lang != frontend::SrcLang::Clight)
        continue;
      std::string Err;
      std::shared_ptr<clight::Module> Mod;
      {
        Scoped S(T, "frontend.module_parse", Job);
        Mod = clight::parseModule(M.Source, Err);
      }
      if (!Mod)
        return "error";
      compiler::CompileResult R;
      {
        Scoped S(T, "compiler.compile", Job);
        R = compiler::compileClight(Mod);
      }
      if (!R.VerifyErrors.empty())
        return checkVerdictName(CheckVerdict::Refuted);
      Scoped S(T, "validate.pipeline", Job);
      for (const validate::PassResult &PR :
           validate::validatePipeline(R, validate::defaultSamples(*Mod)))
        if (!PR.Holds)
          return checkVerdictName(CheckVerdict::Refuted);
      ++Validated;
    }
    return checkVerdictName(Validated ? CheckVerdict::Certified
                                      : CheckVerdict::Inconclusive);
  }

  void record(const std::string &Job, const std::string &Check,
              const std::string &Verdict, const std::string &Hash) {
    std::printf("{\"job\": %s, \"check\": %s, \"verdict\": %s",
                json::str(Job).c_str(), json::str(Check).c_str(),
                json::str(Verdict).c_str());
    if (!Hash.empty())
      std::printf(", \"trace_hash\": %s", json::str(Hash).c_str());
    std::printf("}\n");
  }

  /// One request-list job: parse, then every check on a fresh build, as
  /// frontend::runJob does.
  void runJob(const std::string &Path, const std::string &Name,
              unsigned Job) {
    Scoped JobSpan(T, "server.job", Job);
    std::optional<frontend::WorkloadFile> W;
    {
      Scoped S(T, "frontend.parse", Job);
      std::ifstream In(Path);
      std::ostringstream SS;
      SS << In.rdbuf();
      frontend::ParseError PE;
      if (In)
        W = frontend::parseWorkload(SS.str(), PE);
    }
    if (!W) {
      record(Name, "parse", "error", "");
      return;
    }
    std::vector<frontend::CheckKind> Checks = W->Checks;
    if (Checks.empty())
      Checks.push_back(frontend::CheckKind::Explore);
    for (frontend::CheckKind K : Checks) {
      const std::string Check = frontend::checkKindName(K);
      Scoped CheckSpan(T, "server.check", Job);
      std::optional<Program> P;
      {
        Scoped S(T, "frontend.build", Job);
        std::string Err;
        P = frontend::buildProgram(*W, Err);
      }
      if (!P) {
        record(Name, Check, "error", "");
        continue;
      }
      std::string Verdict, Hash;
      switch (K) {
      case frontend::CheckKind::Explore:
        explore(*P, Job, Verdict, Hash);
        break;
      case frontend::CheckKind::Drf:
        Verdict = drf(*P, Job);
        break;
      case frontend::CheckKind::Robustness:
        Verdict = robustness(*P, Job);
        break;
      case frontend::CheckKind::FenceSynth:
        Verdict = fenceSynth(*P, Job);
        break;
      case frontend::CheckKind::Passes:
        Verdict = passes(*W, Job);
        break;
      }
      record(Name, Check, Verdict, Hash);
    }
  }
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const std::size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2.0;
}

/// Per-name totals of span self time (duration minus the part its
/// children cover), printed as a table and returned for the summary.
std::map<std::string, std::pair<double, unsigned>>
selfTimes(const std::vector<Span> &Spans) {
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildMs[S.Parent] += S.End - S.Start;
  std::map<std::string, std::pair<double, unsigned>> Out;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    auto &Slot = Out[Spans[I].Name];
    Slot.first += Spans[I].End - Spans[I].Start - ChildMs[I];
    ++Slot.second;
  }
  return Out;
}

bool writeSpans(const std::string &Path, const std::vector<Span> &Spans) {
  std::ofstream Out(Path);
  for (const Span &S : Spans)
    Out << "{\"name\": " << json::str(S.Name) << ", \"start_ms\": " << S.Start
        << ", \"end_ms\": " << S.End << ", \"parent\": " << S.Parent
        << ", \"job\": " << S.Job << "}\n";
  return static_cast<bool>(Out);
}

[[noreturn]] void usage(const std::string &Msg) {
  std::fprintf(stderr,
               "%s\nusage: ccc_trace --requests FILE --spans FILE "
               "[--workers N] [--no-fast-paths] [--sample-seed N]\n",
               Msg.c_str());
  std::exit(2);
}

Options parseArgs(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= argc)
        usage("missing value for " + A);
      return argv[++I];
    };
    if (A == "--requests")
      O.RequestsPath = Value();
    else if (A == "--spans")
      O.SpansPath = Value();
    else if (A == "--workers")
      O.Workers = static_cast<unsigned>(std::strtoul(Value().c_str(),
                                                     nullptr, 10));
    else if (A == "--sample-seed")
      O.SampleSeed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--no-fast-paths")
      O.FastPaths = false;
    else
      usage("unknown argument '" + A + "'");
  }
  if (O.RequestsPath.empty() || O.SpansPath.empty() || O.Workers == 0)
    usage("--requests, --spans and a positive --workers are required");
  return O;
}

} // namespace

int main(int argc, char **argv) {
  Run R(parseArgs(argc, argv));
  std::ifstream In(R.O.RequestsPath);
  if (!In)
    usage("cannot read '" + R.O.RequestsPath + "'");

  const auto Start = Clock::now();
  std::string Line;
  unsigned Job = 0;
  while (std::getline(In, Line)) {
    std::istringstream SS(Line);
    std::string Path, Tok;
    if (!(SS >> Path) || Path[0] == '#')
      continue;
    std::string Name = std::filesystem::path(Path).stem().string();
    while (SS >> Tok) {
      if (Tok.rfind("name=", 0) != 0)
        usage("unsupported request token '" + Tok + "'");
      Name = Tok.substr(5);
    }
    R.runJob(Path, Name, Job++);
  }
  const double WallMs = msBetween(Start, Clock::now());

  const std::vector<Span> &Spans = R.T.spans();
  if (!writeSpans(R.O.SpansPath, Spans)) {
    std::fprintf(stderr, "cannot write '%s'\n", R.O.SpansPath.c_str());
    return 1;
  }

  const auto Self = selfTimes(Spans);
  std::printf("# %-24s %12s %8s\n", "span", "self_ms", "count");
  for (const auto &[Name, V] : Self)
    std::printf("# %-24s %12.3f %8u\n", Name.c_str(), V.first, V.second);

  const EngineTotals &E = R.Engine;
  const Samples &P = R.Probe;
  std::string J = "{\"self_ms\": {";
  bool First = true;
  for (const auto &[Name, V] : Self) {
    J += (First ? "" : ", ") + json::str(Name) + ": " +
         std::to_string(V.first);
    First = false;
  }
  auto Num = [&J](const char *Key, double V) {
    J += std::string(", \"") + Key + "\": " + std::to_string(V);
  };
  J += "}";
  Num("wall_ms", WallMs);
  Num("probe_ms", P.ProbeMs);
  Num("drf_checks", R.DrfChecks);
  Num("static_certified", R.StaticCertified);
  Num("fences_inserted", R.FencesInserted);
  Num("explorations", E.Explorations);
  Num("states", static_cast<double>(E.States));
  Num("expanded", static_cast<double>(E.Expanded));
  Num("probes", static_cast<double>(E.Probes));
  Num("dedup_hits", static_cast<double>(E.DedupHits));
  Num("peak_frontier", static_cast<double>(E.PeakFrontier));
  Num("state_bytes", static_cast<double>(E.StateBytes));
  Num("graph_bytes", static_cast<double>(E.GraphBytes));
  Num("tree_nodes", static_cast<double>(E.TreeNodes));
  Num("por_ample_hits", static_cast<double>(E.AmpleHits));
  Num("por_full_expansions", static_cast<double>(E.FullExpansions));
  Num("por_sleep_prunes", static_cast<double>(E.SleepPrunes));
  Num("por_edges_avoided", static_cast<double>(E.EdgesAvoided));
  Num("engine_build_ms", E.BuildMs);
  Num("max_attributed_bytes", static_cast<double>(E.MaxAttributedBytes));
  Num("succ_ns", median(P.SuccNs));
  Num("succs_per_call",
      P.SuccCalls ? static_cast<double>(P.Succs) / P.SuccCalls : 0.0);
  Num("copy_ns", median(P.CopyNs));
  Num("hash_ns", median(P.HashNs));
  Num("encode_ns", median(P.EncodeNs));
  Num("predict_ns", median(P.PredictNs));
  Num("samples", static_cast<double>(P.SuccNs.size()));
  Num("sink", static_cast<double>(P.Sink & 0xff));
  J += "}";
  std::printf("%s\n", J.c_str());
  return 0;
}
