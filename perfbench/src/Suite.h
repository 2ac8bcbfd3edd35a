//===- perfbench/src/Suite.h - The ten-program engine path ----*- C++ -*-===//
///
/// \file
/// The `arsc run --profile-out` path for the ten suite programs: build,
/// instrument (Full-Duplication, call-edge + field-access, coalescing and
/// hoisting on), run at interval 1000, encode the profile.  sample-suite
/// loops over it; the push workloads run one traced pass of it so every
/// traced run reports the same engine ledger.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SUITE_H
#define PERFBENCH_SUITE_H

#include "Bench.h"

#include "harness/Experiment.h"
#include "workloads/Workloads.h"

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// One suite program with its reference runs.
struct SuiteProgram {
  const ars::workloads::Workload *W = nullptr;
  ars::harness::Program P;
  uint64_t Hash = 0;
  /// Baseline (yieldpoints only) and Exhaustive reference runs; empty
  /// stats unless the suite was set up with references.
  ars::harness::ExperimentResult Base;
  ars::harness::ExperimentResult Exh;
};

/// The sampled configuration every suite operation uses.
const ars::harness::RunConfig &sampledConfig();

/// Runs \p Count independent tasks on \p Jobs threads; Task(I) for every
/// I in [0, Count).
void parallelFor(size_t Count, int Jobs,
                 const std::function<void(size_t)> &Task);

/// Builds every suite program and, when \p References, runs its Baseline
/// and Exhaustive references on \p Jobs threads.
bool setupSuite(bool References, int Jobs, std::vector<SuiteProgram> *Out,
                std::string *Error);

/// What one operation produced.
struct SuiteOp {
  size_t Program = 0;
  uint64_t Request = 0; ///< span request id (traced operations)
  double OpUs = 0.0; ///< whole operation, call to encoded shard
  std::string Shard; ///< the encoded .arsp
  ars::runtime::RunStats Stats;
  // Deterministic transform figures of this operation.
  int BytecodeInsts = 0;
  int IrInsts = 0;     ///< code size before the transform
  int IrInstsOut = 0;  ///< code size after it
  int ChecksPlaced = 0;
  int ChecksCoalesced = 0;
};

/// Runs one operation on program \p Index.  With tracing on, the stages
/// are called one by one (frontend::compile, lowering, instrumentProgram,
/// runInstrumented, programHash + encodeBundle) under the spans of one
/// request; with tracing off the op is harness::buildProgram onwards.
/// Correctness checks (MainResult against \p ExpectedResult, Property 1
/// on every transformed function, the program hash against setup's) run
/// after the timed part and are recorded in \p R.
SuiteOp runSuiteOp(const SuiteProgram &SP, size_t Index,
                   int64_t ExpectedResult, Result &R);

/// Seeded order of the ten programs.
std::vector<size_t> suiteOrder(uint64_t Seed, size_t N);

/// Engine-layer ledger from a traced pass: every frontend/lowering/
/// sampling/runtime per-layer metric, per-program run times and the
/// host-time overhead against baseline runs made in the same pass.
struct EngineLedger {
  std::vector<SuiteOp> Ops;                    ///< traced operations
  std::vector<std::vector<double>> BaselineMs; ///< per program, host ms
};

/// One traced pass over \p Programs in \p Order: each program's operation
/// followed by an untimed-by-the-op baseline run (span runtime.baseline).
void tracedSuitePass(const std::vector<SuiteProgram> &Programs,
                     const std::vector<size_t> &Order, EngineLedger &L,
                     Result &R);

/// Emits the engine-layer per-layer metrics from \p L and the spans the
/// pass recorded (\p Spans holds no others).
void emitEngineLedger(const std::vector<SuiteProgram> &Programs,
                      const EngineLedger &L,
                      const std::vector<SpanRecord> &Spans, Result &R);

} // namespace perfbench

#endif // PERFBENCH_SUITE_H
