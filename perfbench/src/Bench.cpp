//===- perfbench/src/Bench.cpp - Benchmark plumbing -----------*- C++ -*-===//

#include "Bench.h"

#include "runtime/Engine.h"
#include "support/Support.h"
#include "telemetry/BenchReport.h"
#include "telemetry/Json.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>

#include <malloc.h>

namespace perfbench {

using ars::telemetry::Json;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  size_t I = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(I, V.size() - 1)];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double Sum = 0.0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

void InputHash::add(const std::string &Bytes) {
  add(static_cast<uint64_t>(Bytes.size()));
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001B3ULL;
  }
}

void InputHash::add(uint64_t V) {
  for (int I = 0; I != 8; ++I) {
    H ^= (V >> (8 * I)) & 0xFF;
    H *= 0x100000001B3ULL;
  }
}

std::string InputHash::hex() const {
  return ars::support::formatString("%016llx",
                                    static_cast<unsigned long long>(H));
}

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!std::isfinite(Value)) {
    fail("metric " + Name + " is not finite");
    Value = 0.0;
  }
  for (auto &M : Metrics)
    if (M.first == Name) {
      M.second = {Value, Unit};
      return;
    }
  Metrics.push_back({Name, {Value, Unit}});
}

void Result::fail(const std::string &What) {
  ++Failed;
  if (Errors.size() < 32)
    Errors.push_back(What);
}

std::string Result::json() const {
  Json Out = Json::object();
  Out.set("correct", Json::boolean(correct()));
  Out.set("attempted", Json::number(static_cast<double>(Attempted)));
  Out.set("failed", Json::number(static_cast<double>(Failed)));
  Json Ms = Json::object();
  for (const auto &M : Metrics) {
    Json One = Json::object();
    One.set("value", Json::number(M.second.first));
    One.set("unit", Json::str(M.second.second));
    Ms.set(M.first, std::move(One));
  }
  Out.set("metrics", std::move(Ms));
  return Out.write(0);
}

std::string envJson() {
  Json E = Json::object();
  E.set("nproc", Json::number(std::thread::hardware_concurrency()));
  E.set("compiler", Json::str(__VERSION__));
  E.set("build_type", Json::str(PERFBENCH_BUILD_TYPE));
  E.set("threaded_dispatch",
        Json::boolean(ars::runtime::threadedDispatchCompiled()));
  E.set("git_sha", Json::str(ars::telemetry::gitSha()));
  return E.write(0);
}

double peakRssMb() {
  // VmHWM rather than getrusage's maxrss: only VmHWM is lowered by
  // resetPeakRss().
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0.0;
}

bool resetPeakRss() {
  malloc_trim(0);
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
  Out.close();
  return !Out.fail();
}

//===--- Span recorder ---------------------------------------------------===//

namespace {

std::atomic<bool> TracingOn{false};
std::atomic<uint64_t> NextSpanId{1};

/// One thread's spans.  Buffers are owned by the registry so they outlive
/// the threads that filled them.
struct ThreadSpans {
  std::vector<SpanRecord> Recs;
  std::vector<size_t> Open; ///< indices of open spans, innermost last
};

std::mutex RegistryMu;
std::vector<std::unique_ptr<ThreadSpans>> Registry; // guarded by RegistryMu

ThreadSpans &threadSpans() {
  thread_local ThreadSpans *Mine = nullptr;
  if (!Mine) {
    auto Buf = std::make_unique<ThreadSpans>();
    Buf->Recs.reserve(1 << 12);
    Mine = Buf.get();
    std::lock_guard<std::mutex> L(RegistryMu);
    Registry.push_back(std::move(Buf));
  }
  return *Mine;
}

} // namespace

void setTracing(bool On) { TracingOn.store(On); }
bool tracing() { return TracingOn.load(std::memory_order_relaxed); }

Span::Span(const char *Name, uint64_t Request) {
  if (!tracing())
    return;
  ThreadSpans &T = threadSpans();
  SpanRecord R;
  R.Id = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  R.Name = Name;
  if (!T.Open.empty()) {
    const SpanRecord &P = T.Recs[T.Open.back()];
    R.Parent = P.Id;
    R.Request = P.Request;
  } else {
    R.Request = Request ? Request : R.Id;
  }
  Active = true;
  Index = T.Recs.size();
  T.Open.push_back(Index);
  R.StartNs = nowNs();
  T.Recs.push_back(R);
}

Span::~Span() {
  if (!Active)
    return;
  ThreadSpans &T = threadSpans();
  T.Recs[Index].EndNs = nowNs();
  T.Open.pop_back();
}

uint64_t Span::request() const {
  return Active ? threadSpans().Recs[Index].Request : 0;
}

std::vector<SpanRecord> collectSpans() {
  std::lock_guard<std::mutex> L(RegistryMu);
  std::vector<SpanRecord> All;
  for (const auto &T : Registry)
    All.insert(All.end(), T->Recs.begin(), T->Recs.end());
  std::sort(All.begin(), All.end(),
            [](const SpanRecord &A, const SpanRecord &B) {
              return A.Id < B.Id;
            });
  return All;
}

uint64_t spanMark() { return NextSpanId.load(); }

std::vector<SpanRecord> spansSince(uint64_t Mark) {
  std::vector<SpanRecord> All = collectSpans();
  All.erase(All.begin(),
            std::lower_bound(All.begin(), All.end(), Mark,
                             [](const SpanRecord &S, uint64_t M) {
                               return S.Id < M;
                             }));
  return All;
}

std::vector<double> selfTimesUs(const std::vector<SpanRecord> &Spans) {
  std::unordered_map<uint64_t, size_t> ById;
  ById.reserve(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    ById[Spans[I].Id] = I;
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = static_cast<double>(Spans[I].EndNs - Spans[I].StartNs) / 1e3;
  // Children run on their parent's thread inside its interval, so the
  // part of the parent they cover is exactly their duration.
  for (const SpanRecord &S : Spans) {
    if (!S.Parent)
      continue;
    auto It = ById.find(S.Parent);
    if (It != ById.end())
      Self[It->second] -= static_cast<double>(S.EndNs - S.StartNs) / 1e3;
  }
  return Self;
}

std::map<std::string, std::vector<double>>
selfTimesByName(const std::vector<SpanRecord> &Spans) {
  std::vector<double> Self = selfTimesUs(Spans);
  std::map<std::string, std::vector<double>> Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[Spans[I].Name].push_back(Self[I]);
  return Out;
}

bool writeSpans(const std::string &Path,
                const std::vector<SpanRecord> &Spans) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<double> Self = selfTimesUs(Spans);
  uint64_t Epoch = UINT64_MAX;
  for (const SpanRecord &S : Spans)
    Epoch = std::min(Epoch, S.StartNs);
  std::fprintf(F, "[\"id\",\"parent\",\"request\",\"name\",\"start_ns\","
                  "\"end_ns\",\"self_us\"]\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F, "[%llu,%llu,%llu,\"%s\",%llu,%llu,%.3f]\n",
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request), S.Name,
                 static_cast<unsigned long long>(S.StartNs - Epoch),
                 static_cast<unsigned long long>(S.EndNs - Epoch), Self[I]);
  }
  return std::fclose(F) == 0;
}

} // namespace perfbench
