//===- perfbench/src/Suite.cpp - The ten-program engine path --*- C++ -*-===//

#include "Suite.h"

#include "frontend/Compiler.h"
#include "instr/Clients.h"
#include "ir/IRVerifier.h"
#include "lowering/Cleanup.h"
#include "lowering/Lowering.h"
#include "profstore/ProfileIO.h"
#include "sampling/Property1.h"
#include "support/Support.h"

#include <map>
#include <thread>

namespace perfbench {

using namespace ars;

namespace {

instr::CallEdgeInstrumentation CallEdges;
instr::FieldAccessInstrumentation FieldAccesses;

harness::RunConfig makeSampled() {
  harness::RunConfig C;
  C.Transform.M = sampling::Mode::FullDuplication;
  C.Transform.CoalesceChecks = true;
  C.Transform.HoistLoopProbes = true;
  C.Engine.SampleInterval = 1000;
  C.Clients = {&CallEdges, &FieldAccesses};
  return C;
}

harness::RunConfig makeExhaustive() {
  harness::RunConfig C;
  C.Transform.M = sampling::Mode::Exhaustive;
  C.Clients = {&CallEdges, &FieldAccesses};
  return C;
}

/// The traced twin of harness::buildProgram: the same calls, one span per
/// layer.
harness::BuildResult buildTraced(const std::string &Source) {
  harness::BuildResult Result;
  frontend::CompileResult Compiled;
  {
    Span S("frontend.compile");
    Compiled = frontend::compile(Source);
  }
  if (!Compiled.Ok) {
    Result.Error = Compiled.Error;
    return Result;
  }
  Span S("lowering.lower");
  lowering::LowerModuleResult Lowered = lowering::lowerModule(Compiled.M);
  if (!Lowered.Ok) {
    Result.Error = "lowering failed: " + Lowered.Error;
    return Result;
  }
  for (ir::IRFunction &F : Lowered.Funcs) {
    lowering::cleanupFunction(F);
    std::string Bad = ir::verifyFunction(F);
    if (!Bad.empty()) {
      Result.Error = "IR verifier: " + Bad;
      return Result;
    }
  }
  Result.P.M = std::move(Compiled.M);
  Result.P.Funcs = std::move(Lowered.Funcs);
  Result.Ok = true;
  return Result;
}

} // namespace

const harness::RunConfig &sampledConfig() {
  static const harness::RunConfig C = makeSampled();
  return C;
}

static const harness::RunConfig &exhaustiveConfig() {
  static const harness::RunConfig C = makeExhaustive();
  return C;
}

void parallelFor(size_t Count, int Jobs,
                 const std::function<void(size_t)> &Task) {
  // Static assignment: worker J runs tasks J, J + Jobs, ...  Each worker
  // then allocates the same things in every run, which keeps the process's
  // peak RSS from depending on which task happened to land where.
  auto Worker = [&](size_t J) {
    for (size_t I = J; I < Count; I += static_cast<size_t>(Jobs))
      Task(I);
  };
  std::vector<std::thread> Threads;
  for (int J = 1; J < Jobs; ++J)
    Threads.emplace_back(Worker, static_cast<size_t>(J));
  Worker(0);
  for (std::thread &T : Threads)
    T.join();
}

bool setupSuite(bool References, int Jobs, std::vector<SuiteProgram> *Out,
                std::string *Error) {
  const std::vector<workloads::Workload> &All = workloads::allWorkloads();
  std::vector<SuiteProgram> Progs(All.size());
  for (size_t I = 0; I != All.size(); ++I) {
    harness::BuildResult B = harness::buildProgram(All[I].Source);
    if (!B.Ok) {
      *Error = std::string(All[I].Name) + ": " + B.Error;
      return false;
    }
    Progs[I].W = &All[I];
    Progs[I].P = std::move(B.P);
    Progs[I].Hash = harness::programHash(Progs[I].P);
  }
  if (References) {
    // Tasks [0, N) are the baselines, [N, 2N) the exhaustive runs, so
    // striding mixes long and short runs on every worker.
    parallelFor(2 * Progs.size(), Jobs, [&](size_t T) {
      SuiteProgram &SP = Progs[T % Progs.size()];
      if (T < Progs.size())
        SP.Base = harness::runBaseline(SP.P, SP.W->DefaultScale);
      else
        SP.Exh =
            harness::runExperiment(SP.P, SP.W->DefaultScale,
                                   exhaustiveConfig());
    });
    for (const SuiteProgram &SP : Progs)
      if (!SP.Base.Stats.Ok || !SP.Exh.Stats.Ok) {
        *Error = std::string(SP.W->Name) + ": reference run failed: " +
                 SP.Base.Stats.Error + SP.Exh.Stats.Error;
        return false;
      }
  }
  *Out = std::move(Progs);
  return true;
}

SuiteOp runSuiteOp(const SuiteProgram &SP, size_t Index,
                   int64_t ExpectedResult, Result &R) {
  SuiteOp Op;
  Op.Program = Index;
  const harness::RunConfig &C = sampledConfig();
  const bool Traced = tracing();
  harness::BuildResult B;
  harness::InstrumentedProgram IP;
  harness::ExperimentResult Run;
  uint64_t Hash = 0;

  uint64_t T0 = nowNs();
  {
    Span OpSpan("op.suite");
    Op.Request = OpSpan.request();
    B = Traced ? buildTraced(SP.W->Source)
               : harness::buildProgram(SP.W->Source);
    if (B.Ok) {
      {
        Span S("sampling.transform");
        IP = harness::instrumentProgram(B.P, C.Clients, C.Transform);
      }
      {
        Span S("runtime.run");
        Run = harness::runInstrumented(B.P, IP, SP.W->DefaultScale, C);
      }
      Span S("profstore.encode");
      Hash = harness::programHash(B.P);
      Op.Shard = profstore::encodeBundle(Run.Profiles, Hash);
    }
  }
  Op.OpUs = static_cast<double>(nowNs() - T0) / 1e3;

  // Everything below is outside the timed operation.
  const std::string Who = SP.W->Name;
  if (!B.Ok) {
    R.fail(Who + ": build failed: " + B.Error);
    return Op;
  }
  Op.Stats = Run.Stats;
  if (!Run.Stats.Ok) {
    R.fail(Who + ": run failed: " + Run.Stats.Error);
    return Op;
  }
  R.check(Run.Stats.MainResult == ExpectedResult,
          Who + ": MainResult " + std::to_string(Run.Stats.MainResult) +
              " != baseline " + std::to_string(ExpectedResult));
  R.check(Hash == SP.Hash, Who + ": program hash differs from setup's");
  for (size_t F = 0; F != IP.Funcs.size(); ++F) {
    std::string Bad =
        sampling::checkProperty1Static(IP.Funcs[F], IP.Transforms[F],
                                       C.Transform);
    if (!Bad.empty()) {
      R.fail(Who + ": Property 1: " + Bad);
      break;
    }
  }
  for (const bytecode::FunctionDef &F : B.P.M.functions())
    Op.BytecodeInsts += static_cast<int>(F.Code.size());
  Op.IrInsts = IP.CodeSizeBefore;
  Op.IrInstsOut = IP.CodeSizeAfter;
  for (const sampling::TransformResult &T : IP.Transforms) {
    Op.ChecksPlaced += T.Stats.EntryChecks + T.Stats.BackedgeChecks +
                       T.Stats.BoundaryChecks + T.Stats.GuardedProbes;
    Op.ChecksCoalesced += T.Stats.ChecksCoalesced;
  }
  return Op;
}

std::vector<size_t> suiteOrder(uint64_t Seed, size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  support::Xorshift64 Rng(Seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
  return Order;
}

void tracedSuitePass(const std::vector<SuiteProgram> &Programs,
                     const std::vector<size_t> &Order, EngineLedger &L,
                     Result &R) {
  L.BaselineMs.resize(Programs.size());
  const harness::RunConfig BaseConfig; // Mode::Baseline, no clients
  for (size_t I : Order) {
    const SuiteProgram &SP = Programs[I];
    // Transform outside the timed interval, so the baseline's host time
    // compares with runtime.run's like for like.
    harness::InstrumentedProgram BaseIP = harness::instrumentProgram(
        SP.P, BaseConfig.Clients, BaseConfig.Transform);
    harness::ExperimentResult Base;
    double BaseMs = 0.0;
    {
      Span S("runtime.baseline");
      uint64_t T0 = nowNs();
      Base = harness::runInstrumented(SP.P, BaseIP, SP.W->DefaultScale,
                                      BaseConfig);
      BaseMs = static_cast<double>(nowNs() - T0) / 1e6;
    }
    R.attempted();
    if (!Base.Stats.Ok) {
      R.fail(std::string(SP.W->Name) + ": baseline failed");
      continue;
    }
    L.BaselineMs[I].push_back(BaseMs);
    L.Ops.push_back(runSuiteOp(SP, I, Base.Stats.MainResult, R));
  }
}

void emitEngineLedger(const std::vector<SuiteProgram> &Programs,
                      const EngineLedger &L,
                      const std::vector<SpanRecord> &Spans, Result &R) {
  std::vector<double> Self = selfTimesUs(Spans);
  std::map<uint64_t, size_t> ProgramOf;
  for (const SuiteOp &Op : L.Ops)
    ProgramOf[Op.Request] = Op.Program;
  std::map<std::string, std::vector<double>> ByName;
  std::vector<std::vector<double>> RunUs(Programs.size());
  double RunUsTotal = 0.0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    ByName[Spans[I].Name].push_back(Self[I]);
    if (std::string(Spans[I].Name) == "runtime.run") {
      auto It = ProgramOf.find(Spans[I].Request);
      if (It != ProgramOf.end()) {
        RunUs[It->second].push_back(Self[I]);
        RunUsTotal += Self[I];
      }
    }
  }

  // Deterministic figures: one operation per distinct program.
  std::vector<const SuiteOp *> First(Programs.size(), nullptr);
  uint64_t Insts = 0;
  for (const SuiteOp &Op : L.Ops) {
    Insts += Op.Stats.Instructions;
    if (!First[Op.Program])
      First[Op.Program] = &Op;
  }
  double Bc = 0, Ir = 0, IrOut = 0, Placed = 0, Coalesced = 0, Cycles = 0,
         DistinctInsts = 0, Checks = 0, Samples = 0, Bodies = 0;
  for (const SuiteOp *Op : First) {
    if (!Op)
      continue;
    Bc += Op->BytecodeInsts;
    Ir += Op->IrInsts;
    IrOut += Op->IrInstsOut;
    Placed += Op->ChecksPlaced;
    Coalesced += Op->ChecksCoalesced;
    Cycles += static_cast<double>(Op->Stats.Cycles);
    DistinctInsts += static_cast<double>(Op->Stats.Instructions);
    Checks += static_cast<double>(Op->Stats.CheckExecs);
    Samples += static_cast<double>(Op->Stats.SamplesTaken);
    Bodies += static_cast<double>(Op->Stats.ProbeBodiesRun);
  }

  R.metric("frontend.compile_us", median(ByName["frontend.compile"]), "us");
  R.metric("frontend.bytecode_insts", Bc, "count");
  R.metric("lowering.lower_us", median(ByName["lowering.lower"]), "us");
  R.metric("lowering.ir_insts", Ir, "count");
  R.metric("sampling.transform_us", median(ByName["sampling.transform"]),
           "us");
  R.metric("sampling.code_growth_pct", Ir > 0 ? (IrOut - Ir) / Ir * 100 : 0,
           "%");
  R.metric("sampling.checks_placed", Placed, "count");
  R.metric("sampling.checks_coalesced", Coalesced, "count");
  R.metric("runtime.ns_per_inst",
           Insts ? RunUsTotal * 1e3 / static_cast<double>(Insts) : 0.0,
           "ns");
  R.metric("runtime.cycles_per_inst",
           DistinctInsts > 0 ? Cycles / DistinctInsts : 0.0, "cycles");
  R.metric("runtime.check_execs", Checks, "count");
  R.metric("runtime.samples_taken", Samples, "count");
  R.metric("runtime.probe_bodies", Bodies, "count");
  for (size_t P = 0; P != Programs.size(); ++P) {
    double RunMs = median(RunUs[P]) / 1e3;
    double BaseMs = P < L.BaselineMs.size() ? median(L.BaselineMs[P]) : 0.0;
    std::string Name = Programs[P].W->Name;
    R.metric("runtime.run_ms." + Name, RunMs, "ms");
    R.metric("runtime.host_overhead_pct." + Name,
             BaseMs > 0 ? (RunMs - BaseMs) / BaseMs * 100 : 0.0, "%");
  }
}

} // namespace perfbench
