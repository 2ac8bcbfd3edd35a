//===- perfbench/src/main.cpp - Repository benchmark ----------*- C++ -*-===//
///
/// \file
/// perfbench --workload <sample-suite|push-shm|push-durable> --seed <n>
///           --seconds <s> --trace <0|1> [--workdir <dir>]
///
/// Runs one workload closed-loop for --seconds and prints, as the last
/// stdout line, {"correct", "attempted", "failed", "metrics"}: the
/// end-to-end metrics with --trace 0, the per-layer ledger with --trace 1.
/// Earlier lines carry the environment fingerprint and the hash of the
/// generated inputs.  Exits 1 when any correctness check fails, 2 on a
/// usage error.  README.md in this directory explains every metric.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Collection.h"
#include "Suite.h"

#include "profile/Overlap.h"
#include "profstore/ProfileIO.h"
#include "runtime/Engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

using namespace perfbench;
using namespace ars;

namespace {

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int SetupReps = 3;
/// Worker threads for set-up's reference and pool runs (the box has 4).
constexpr int SetupJobs = 4;
/// Traced window of the push workloads; its spans are one per call.
constexpr double PushTracedSeconds = 2.0;
/// The push workloads' measured window is split over this many roots, each
/// started fresh with fresh connections.  A root's latency holds for its
/// life but differs from root to root by up to 15% (where its reactor
/// threads run), so one root per run would make the run's figure a draw.
constexpr int PushRoots = 5;
/// Shards each connection pushes before the measured window; peak_rss_mb
/// is read after them, so it covers a fixed amount of serving whatever the
/// window's throughput.  The time limit only matters on a stalled host.
constexpr uint64_t PushWarmupShards = 20000;
constexpr double PushWarmupMaxSeconds = 10.0;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <sample-suite|push-shm|"
               "push-durable> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--workdir <dir>] [--fault <fold|checksum>]\n");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (!(O.Seconds > 0))
        return false;
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return false;
      O.Trace = V == "1";
    } else if (A == "--workdir") {
      O.WorkDir = V;
    } else if (A == "--fault") {
      if (V != "fold" && V != "checksum")
        return false;
      O.Fault = V;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return O.Workload == "sample-suite" || O.Workload == "push-shm" ||
         O.Workload == "push-durable";
}

double secondsSince(uint64_t T0) {
  return static_cast<double>(nowNs() - T0) / 1e9;
}

void emitCommon(const std::vector<double> &SetupS, double RssMb,
                double OpP50, Result &R) {
  R.metric("setup_s", median(SetupS), "s");
  R.metric("peak_rss_mb", RssMb, "MB");
  R.metric("op_p50_us", OpP50, "us");
}

void emitTraceOverhead(double TracedP50, double UntracedP50, Result &R) {
  R.metric("trace_overhead_pct",
           UntracedP50 > 0 ? (TracedP50 - UntracedP50) / UntracedP50 * 100
                           : 0.0,
           "%");
}

//===--- sample-suite -----------------------------------------------------===//

/// The seeded program order, repeated: whole passes until \p Seconds have
/// gone, so every program has the same number of operations.  Returns each
/// program's operation times in microseconds.
std::vector<std::vector<double>>
suiteWindow(const std::vector<SuiteProgram> &Progs,
            const std::vector<size_t> &Order,
            const std::vector<int64_t> &Expected, double Seconds,
            std::vector<SuiteOp> &FirstOps, Result &R) {
  std::vector<std::vector<double>> OpUs(Progs.size());
  const uint64_t T0 = nowNs();
  do {
    for (size_t I : Order) {
      R.attempted();
      SuiteOp Op = runSuiteOp(Progs[I], I, Expected[I], R);
      OpUs[I].push_back(Op.OpUs);
      if (FirstOps[I].Shard.empty()) {
        FirstOps[I] = std::move(Op);
      } else {
        // The simulation is deterministic: every repeat is bit-identical.
        R.check(runtime::serializeStats(Op.Stats) ==
                        runtime::serializeStats(FirstOps[I].Stats) &&
                    Op.Shard == FirstOps[I].Shard,
                std::string(Progs[I].W->Name) +
                    ": repeated operation is not bit-identical");
      }
    }
  } while (secondsSince(T0) < Seconds);
  return OpUs;
}

double geomeanOfMedians(const std::vector<std::vector<double>> &PerProgram) {
  std::vector<double> Meds;
  for (const std::vector<double> &V : PerProgram)
    Meds.push_back(median(V));
  return geomean(Meds);
}

/// The collection ledger on a probe shm root: the javac pool pushed once
/// in seeded order, then replayed and probed.  Lets sample-suite's traced
/// run report the same profstore/profserve metrics as the push workloads.
void probeCollection(const Options &O, Result &R) {
  ShardPool Pool;
  std::string Error;
  if (!buildShardPool(O.Seed, SetupJobs, &Pool, R, &Error)) {
    R.fail(Error);
    return;
  }
  Root Probe(false, O.WorkDir + "/probe-root", Pool.Fingerprint);
  if (!Probe.ok()) {
    R.fail("probe root: " + Probe.error());
    return;
  }
  Pushers One(Probe, Pool, O.Seed, 1, 1, 0);
  if (!One.connect(&Error)) {
    R.fail(Error);
    return;
  }
  // Long enough to push the pool a few times over.
  PushWindow W = One.run(0.05, true);
  R.attempted(W.Calls);
  R.check(W.Failures == 0, "probe push failed: " + W.FirstError);
  collectionLedger(Probe, Pool, W.Sequence, 1, O.WorkDir + "/replay-journal",
                   {}, R);
  checkFold(Probe, Pool, One.ackCounts(), false, R);
}

void runSampleSuite(const Options &O, Result &R, InputHash &H) {
  std::vector<double> SetupS;
  std::vector<SuiteProgram> Progs;
  for (int K = 0; K != SetupReps; ++K) {
    uint64_t T0 = nowNs();
    std::string Error;
    if (!setupSuite(true, SetupJobs, &Progs, &Error)) {
      R.fail("setup: " + Error);
      return;
    }
    SetupS.push_back(secondsSince(T0));
  }
  const std::vector<size_t> Order = suiteOrder(O.Seed, Progs.size());
  std::vector<int64_t> Expected;
  for (const SuiteProgram &SP : Progs)
    Expected.push_back(SP.Base.Stats.MainResult +
                       (O.Fault == "checksum" ? 1 : 0));
  for (size_t I : Order) {
    H.add(std::string(Progs[I].W->Name));
    H.add(std::string(Progs[I].W->Source));
    H.add(static_cast<uint64_t>(Progs[I].W->DefaultScale));
  }

  R.check(resetPeakRss(), "cannot reset the peak RSS");
  std::vector<SuiteOp> FirstOps(Progs.size());
  std::vector<std::vector<double>> OpUs = suiteWindow(
      Progs, Order, Expected, O.Trace ? O.Seconds / 2 : O.Seconds, FirstOps,
      R);
  const double OpP50 = geomeanOfMedians(OpUs);
  std::vector<double> P99s;
  double CycleMedianSum = 0.0;
  for (const std::vector<double> &V : OpUs) {
    P99s.push_back(quantile(V, 0.99));
    CycleMedianSum += median(V);
  }

  if (!O.Trace) {
    std::vector<double> CycleRatios, Overlaps;
    for (size_t P = 0; P != Progs.size(); ++P) {
      const SuiteOp &Op = FirstOps[P];
      const SuiteProgram &SP = Progs[P];
      CycleRatios.push_back(static_cast<double>(Op.Stats.Cycles) /
                            static_cast<double>(SP.Base.Stats.Cycles));
      profstore::DecodeResult D = profstore::decodeBundle(Op.Shard, SP.Hash);
      R.check(D.Ok, std::string(SP.W->Name) + ": shard does not decode");
      Overlaps.push_back(
          (profile::overlapPercent(SP.Exh.Profiles.CallEdges,
                                   D.Bundle.CallEdges) +
           profile::overlapPercent(SP.Exh.Profiles.FieldAccesses,
                                   D.Bundle.FieldAccesses)) /
          2.0);
    }
    emitCommon(SetupS, peakRssMb(), OpP50, R);
    R.metric("sim_overhead_pct", (geomean(CycleRatios) - 1.0) * 100.0, "%");
    R.metric("overlap_pct", mean(Overlaps), "%");
    return;
  }
  R.metric("op_p99_us", geomean(P99s), "us");
  R.metric("shards_per_s",
           static_cast<double>(Progs.size()) * 1e6 / CycleMedianSum, "1/s");

  // Traced run: one traced pass (each op beside a baseline run), then the
  // collection ledger on a probe root.
  setTracing(true);
  const uint64_t Mark = spanMark();
  EngineLedger L;
  tracedSuitePass(Progs, Order, L, R);
  std::vector<SpanRecord> Spans = spansSince(Mark);
  std::vector<std::vector<double>> TracedUs(Progs.size());
  for (const SuiteOp &Op : L.Ops)
    TracedUs[Op.Program].push_back(Op.OpUs);
  emitTraceOverhead(geomeanOfMedians(TracedUs), OpP50, R);
  emitEngineLedger(Progs, L, Spans, R);
  // Reconciliation: the five stage spans against their op spans.
  std::vector<double> Self = selfTimesUs(Spans);
  double StageUs = 0.0, OpSpanUs = 0.0;
  size_t Ops = 0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    std::string Name = Spans[I].Name;
    if (Name == "op.suite") {
      OpSpanUs += static_cast<double>(Spans[I].EndNs - Spans[I].StartNs) / 1e3;
      ++Ops;
    } else if (Name != "runtime.baseline") {
      StageUs += Self[I];
    }
  }
  probeCollection(O, R);
  R.metric("profserve.stage_sum_ratio",
           OpSpanUs > 0 ? StageUs / OpSpanUs : 0.0, "ratio");
  R.metric("profserve.unattributed_us",
           Ops ? (OpSpanUs - StageUs) / Ops : 0.0, "us");
}

//===--- push-shm / push-durable ------------------------------------------===//

void runPush(const Options &O, bool Durable, Result &R, InputHash &H) {
  const size_t Batch = Durable ? 16 : 1;
  const int PullEvery = Durable ? 8 : 0;
  std::unique_ptr<ShardPool> Pool;
  std::unique_ptr<Root> Target;
  std::unique_ptr<Pushers> Conns;
  // A fresh root with connected pushers, replacing any previous one.
  auto StartRoot = [&](const char *Stage) {
    // The old root goes first: the new one wipes and reuses its directory.
    Conns.reset();
    Target.reset();
    Target = std::make_unique<Root>(Durable, O.WorkDir + "/root",
                                    Pool->Fingerprint);
    if (!Target->ok()) {
      R.fail(std::string(Stage) + ": root: " + Target->error());
      return false;
    }
    Conns = std::make_unique<Pushers>(*Target, *Pool, O.Seed, 2, Batch,
                                      PullEvery);
    std::string Error;
    if (!Conns->connect(&Error)) {
      R.fail(std::string(Stage) + ": " + Error);
      return false;
    }
    return true;
  };
  // End-of-root checks: the pulled aggregate against the serial fold and,
  // on the durable root, one group-commit fsync per batch.
  auto CheckRoot = [&] {
    checkFold(*Target, *Pool, Conns->ackCounts(), O.Fault == "fold", R);
    if (!Durable)
      return;
    // Each acked batch was covered by an fsync, and no batch issued more
    // than one.  One fsync can cover both connections' batches when their
    // appends interleave, hence the lower bound of half.
    const uint64_t Syncs = Target->groupCommitSyncs();
    const uint64_t Batches = Conns->batchesSoFar();
    R.check(Syncs <= Batches && 2 * Syncs >= Batches,
            "journal group-commit syncs " + std::to_string(Syncs) +
                " outside [batches/2, batches] for " +
                std::to_string(Batches) + " batches");
  };
  auto Account = [&](const PushWindow &W) {
    R.attempted(W.Calls);
    for (uint64_t F = 0; F != W.Failures; ++F)
      R.fail("push call failed: " + W.FirstError);
  };

  std::vector<double> SetupS;
  for (int K = 0; K != SetupReps; ++K) {
    Conns.reset();
    Target.reset();
    uint64_t T0 = nowNs();
    Pool = std::make_unique<ShardPool>();
    std::string Error;
    if (!buildShardPool(O.Seed, SetupJobs, Pool.get(), R, &Error)) {
      R.fail("setup: " + Error);
      return;
    }
    if (!StartRoot("setup"))
      return;
    SetupS.push_back(secondsSince(T0));
  }
  Conns->hashInputs(H);
  R.check(resetPeakRss(), "cannot reset the peak RSS");

  const double WindowS = O.Trace ? O.Seconds / 2 : O.Seconds;
  const int Roots =
      std::max(1, std::min(PushRoots, static_cast<int>(WindowS)));
  PushWindow W;
  double RssMb = 0.0;
  for (int K = 0; K != Roots; ++K) {
    if (K > 0) {
      CheckRoot();
      if (!StartRoot("window"))
        return;
    }
    Account(Conns->run(PushWarmupMaxSeconds, false,
                       PushWarmupShards / Batch));
    if (K == 0)
      RssMb = peakRssMb();
    PushWindow Part = Conns->run(WindowS / Roots);
    Account(Part);
    W.absorb(std::move(Part));
  }
  const double OpP50 = W.p50Us();

  if (!O.Trace) {
    emitCommon(SetupS, RssMb, OpP50, R);
    R.metric("sim_overhead_pct", Pool->SimOverheadPct, "%");
    R.metric("overlap_pct", Pool->OverlapPct, "%");
  } else {
    R.metric("op_p99_us", W.p99Us(), "us");
    R.metric("shards_per_s", W.shardsPerSec(), "1/s");
    setTracing(true);
    const PushWindow Traced = Conns->run(PushTracedSeconds, true);
    Account(Traced);
    emitTraceOverhead(Traced.p50Us(), OpP50, R);
    double StageSum = collectionLedger(*Target, *Pool, Traced.Sequence,
                                       Batch, O.WorkDir + "/replay-journal",
                                       W.PullUs, R);
    R.metric("profserve.stage_sum_ratio",
             OpP50 > 0 ? StageSum / OpP50 : 0.0, "ratio");
    R.metric("profserve.unattributed_us", OpP50 - StageSum, "us");

    // One traced pass of the engine path, so the engine ledger is
    // reported here too.
    std::vector<SuiteProgram> Progs;
    std::string Error;
    if (!setupSuite(false, SetupJobs, &Progs, &Error)) {
      R.fail(Error);
    } else {
      const uint64_t Mark = spanMark();
      EngineLedger L;
      tracedSuitePass(Progs, suiteOrder(O.Seed, Progs.size()), L, R);
      emitEngineLedger(Progs, L, spansSince(Mark), R);
    }
  }
  CheckRoot();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    usage();
    return 2;
  }
  std::error_code Ec;
  std::filesystem::create_directories(O.WorkDir, Ec);
  std::printf("env: %s\n", envJson().c_str());
  std::fflush(stdout);

  Result R;
  InputHash H;
  H.add(O.Workload);
  if (O.Workload == "sample-suite")
    runSampleSuite(O, R, H);
  else
    runPush(O, O.Workload == "push-durable", R, H);
  setTracing(false);

  std::printf("inputs: %s\n", H.hex().c_str());
  if (O.Trace) {
    std::vector<SpanRecord> Spans = collectSpans();
    std::string Path = O.WorkDir + "/trace-" + O.Workload + ".jsonl";
    if (writeSpans(Path, Spans))
      std::printf("trace: %s (%zu spans)\n", Path.c_str(), Spans.size());
    else
      R.fail("cannot write " + Path);
  }
  for (const std::string &E : R.errors())
    std::fprintf(stderr, "perfbench: check failed: %s\n", E.c_str());
  std::printf("%s\n", R.json().c_str());
  return R.correct() ? 0 : 1;
}
