//===- perfbench/src/Bench.h - Benchmark plumbing -------------*- C++ -*-===//
///
/// \file
/// Shared pieces of the repository benchmark: command-line options, the
/// result object printed as the last stdout line, order statistics, the
/// inputs hash, the environment fingerprint and the span recorder that
/// the traced run (--trace 1) uses to attribute time to layers.
///
/// Spans are recorded only around the benchmark's own calls into the
/// library's public functions; nothing inside src/ is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
uint64_t nowNs();

/// Parsed command line.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Self-test hook: "fold" perturbs the expected serial fold of the push
  /// workloads, "checksum" the expected MainResult of sample-suite.  Either
  /// must make the run fail.
  std::string Fault;
  std::string WorkDir = ".bench_out";
};

/// Median (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> V);
/// Nearest-rank quantile, \p Q in [0, 1]; 0 when empty.
double quantile(std::vector<double> V, double Q);
/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &V);
double mean(const std::vector<double> &V);

/// FNV-1a accumulator: the hash of every generated input of a run, so two
/// runs can be shown to have used identical inputs.
class InputHash {
public:
  void add(const std::string &Bytes);
  void add(uint64_t V);
  std::string hex() const;

private:
  uint64_t H = 0xCBF29CE484222325ULL;
};

/// What one invocation reports.  Metrics keep insertion order.
class Result {
public:
  void metric(const std::string &Name, double Value,
              const std::string &Unit);

  /// Counts \p N attempted operations.
  void attempted(uint64_t N = 1) { Attempted += N; }
  /// Records a failed operation or a failed end-of-run check; either
  /// makes the run incorrect and the command exit nonzero.
  void fail(const std::string &What);
  /// fail(\p What) unless \p Ok.
  void check(bool Ok, const std::string &What) {
    if (!Ok)
      fail(What);
  }

  bool correct() const { return Failed == 0; }
  const std::vector<std::string> &errors() const { return Errors; }

  /// The result as one line of JSON: correct, attempted, failed and
  /// metrics (name -> value and unit).
  std::string json() const;

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      Metrics;
};

/// Environment fingerprint as one JSON object: core count, compiler,
/// build type, engine dispatch, git revision (telemetry::gitSha).
std::string envJson();

/// Peak resident set size of this process (VmHWM), in MB.
double peakRssMb();
/// Hands the memory freed so far back to the system (malloc_trim) and
/// lowers the peak to the current resident set, so that peakRssMb()
/// covers only what follows.  False when the kernel refuses the reset.
bool resetPeakRss();

//===--- Span recorder ---------------------------------------------------===//

/// One timed interval.  Layer = the name up to the first '.'.
struct SpanRecord {
  uint64_t Id = 0;
  uint64_t Parent = 0;  ///< 0 = root span
  uint64_t Request = 0; ///< shared by every span of one operation
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

/// Turns recording on or off for the whole process (off by default; an
/// off recorder makes Span a no-op).
void setTracing(bool On);
bool tracing();

/// RAII span.  Parent and request id come from the innermost open span of
/// the calling thread; a root span takes \p Request (0 = fresh id).
class Span {
public:
  explicit Span(const char *Name, uint64_t Request = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Request id of this span (0 when tracing is off).
  uint64_t request() const;

private:
  bool Active = false;
  size_t Index = 0;
};

/// Every span recorded so far, from all threads, by id (call once the
/// recording threads have been joined).
std::vector<SpanRecord> collectSpans();

/// Id the next span will get: spansSince(spanMark()) taken later holds
/// exactly the spans opened in between.
uint64_t spanMark();
std::vector<SpanRecord> spansSince(uint64_t Mark);

/// Self time of each span in microseconds: duration minus the part its
/// children cover.  Same order as \p Spans.
std::vector<double> selfTimesUs(const std::vector<SpanRecord> &Spans);

/// Self times grouped by span name.
std::map<std::string, std::vector<double>>
selfTimesByName(const std::vector<SpanRecord> &Spans);

/// Writes \p Spans to \p Path as JSON lines: a header naming the fields,
/// then one array per span (times relative to the earliest start).
/// False on I/O failure.
bool writeSpans(const std::string &Path,
                const std::vector<SpanRecord> &Spans);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
