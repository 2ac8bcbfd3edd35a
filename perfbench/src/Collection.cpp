//===- perfbench/src/Collection.cpp - Push-path workloads -----*- C++ -*-===//

#include "Collection.h"

#include "Suite.h"

#include "harness/Experiment.h"
#include "instr/Clients.h"
#include "profile/Overlap.h"
#include "profserve/Protocol.h"
#include "profstore/Journal.h"
#include "profstore/ProfileIO.h"
#include "profstore/ProfileStore.h"
#include "sampling/Property1.h"
#include "shmem/ShmRing.h"
#include "support/Support.h"
#include "workloads/Workloads.h"

#include <filesystem>
#include <map>
#include <thread>

namespace perfbench {

using namespace ars;

namespace {

instr::CallEdgeInstrumentation PoolCallEdges;
instr::FieldAccessInstrumentation PoolFields;
instr::BlockCountInstrumentation PoolBlocks;
instr::ValueProfileInstrumentation PoolValues;
instr::EdgeCountInstrumentation PoolEdges;
instr::PathProfileInstrumentation PoolPaths;

const std::vector<const instr::Instrumentation *> PoolClients = {
    &PoolCallEdges, &PoolFields, &PoolBlocks,
    &PoolValues,    &PoolEdges,  &PoolPaths};

// Run i of the pool uses scale PoolScales[(i / 4) % 4] and interval
// PoolIntervals[i % 4], with a seeded 25% jitter.  (Scale sets a run's
// length, so this order spreads long runs over parallelFor's workers.)
constexpr int64_t PoolScales[] = {12, 24, 36, 48};
constexpr int64_t PoolIntervals[] = {100, 300, 1000, 3000};
constexpr size_t NumScales = 4;
constexpr size_t PoolSize = 32;

/// Replay caps: codec stages see at most this many shards of the
/// sequence; the fsync'd journal replay at most this many syncs.
constexpr size_t ReplayShards = 4096;
constexpr size_t ReplaySyncs = 128;
constexpr size_t ReplayBatch = 16;

/// Push windows are binned by the second a call completed in.
constexpr double BinSeconds = 1.0;

uint64_t mix(uint64_t A, uint64_t B) {
  uint64_t H = A * 0x9E3779B97F4A7C15ULL ^ (B + 0x7F4A7C159E3779B9ULL);
  H ^= H >> 31;
  H *= 0xBF58476D1CE4E5B9ULL;
  return H ^ (H >> 29);
}

double usSince(uint64_t T0) {
  return static_cast<double>(nowNs() - T0) / 1e3;
}

} // namespace

bool buildShardPool(uint64_t Seed, int Jobs, ShardPool *Out, Result &R,
                    std::string *Error) {
  const workloads::Workload *W = workloads::workloadByName("javac");
  harness::BuildResult B = harness::buildProgram(W->Source);
  if (!B.Ok) {
    *Error = "javac: " + B.Error;
    return false;
  }
  const harness::Program &P = B.P;
  ShardPool Pool;
  Pool.Fingerprint = harness::programHash(P);

  harness::RunConfig Sampled;
  Sampled.Transform = sampledConfig().Transform;
  Sampled.Clients = PoolClients;
  Sampled.Engine.RandomJitterPct = 25;
  harness::InstrumentedProgram IP =
      harness::instrumentProgram(P, Sampled.Clients, Sampled.Transform);
  for (size_t F = 0; F != IP.Funcs.size(); ++F) {
    std::string Bad = sampling::checkProperty1Static(
        IP.Funcs[F], IP.Transforms[F], Sampled.Transform);
    R.check(Bad.empty(), "javac pool: Property 1: " + Bad);
  }
  harness::RunConfig Exhaustive;
  Exhaustive.Transform.M = sampling::Mode::Exhaustive;
  Exhaustive.Clients = PoolClients;

  // Tasks: [0, 4) baselines, [4, 8) exhaustive references, then the pool.
  std::vector<harness::ExperimentResult> Base(NumScales), Exh(NumScales),
      Runs(PoolSize);
  parallelFor(2 * NumScales + PoolSize, Jobs, [&](size_t T) {
    if (T < NumScales) {
      Base[T] = harness::runBaseline(P, PoolScales[T]);
    } else if (T < 2 * NumScales) {
      Exh[T - NumScales] =
          harness::runExperiment(P, PoolScales[T - NumScales], Exhaustive);
    } else {
      size_t I = T - 2 * NumScales;
      harness::RunConfig C = Sampled;
      C.Engine.SampleInterval = PoolIntervals[I % 4];
      C.Engine.RandomSeed = mix(Seed, I);
      Runs[I] = harness::runInstrumented(
          P, IP, PoolScales[(I / NumScales) % NumScales], C);
    }
  });
  for (size_t S = 0; S != NumScales; ++S)
    if (!Base[S].Stats.Ok || !Exh[S].Stats.Ok) {
      *Error = "javac pool: reference run failed: " + Base[S].Stats.Error +
               Exh[S].Stats.Error;
      return false;
    }

  std::vector<double> CycleRatios, Overlaps;
  for (size_t I = 0; I != PoolSize; ++I) {
    const harness::ExperimentResult &Run = Runs[I];
    const size_t S = (I / NumScales) % NumScales;
    if (!Run.Stats.Ok) {
      *Error = "javac pool run failed: " + Run.Stats.Error;
      return false;
    }
    R.check(Run.Stats.MainResult == Base[S].Stats.MainResult,
            "javac pool run " + std::to_string(I) +
                ": MainResult differs from baseline");
    CycleRatios.push_back(static_cast<double>(Run.Stats.Cycles) /
                          static_cast<double>(Base[S].Stats.Cycles));
    Overlaps.push_back(
        (profile::overlapPercent(Exh[S].Profiles.CallEdges,
                                 Run.Profiles.CallEdges) +
         profile::overlapPercent(Exh[S].Profiles.FieldAccesses,
                                 Run.Profiles.FieldAccesses)) /
        2.0);
    Pool.Shards.push_back(
        profstore::encodeBundle(Run.Profiles, Pool.Fingerprint));
    profstore::DecodeResult D =
        profstore::decodeBundle(Pool.Shards.back(), Pool.Fingerprint);
    if (!D.Ok) {
      *Error = "javac pool shard does not decode: " + D.Error;
      return false;
    }
    R.check(profile::serializeBundle(D.Bundle) ==
                profile::serializeBundle(Run.Profiles),
            "javac pool shard does not round-trip");
    Pool.Bundles.push_back(std::move(D.Bundle));
  }
  Pool.SimOverheadPct = (geomean(CycleRatios) - 1.0) * 100.0;
  Pool.OverlapPct = mean(Overlaps);
  *Out = std::move(Pool);
  return true;
}

//===--- Root ------------------------------------------------------------===//

Root::Root(bool Durable, const std::string &Dir, uint64_t Fingerprint)
    : Dir(Dir) {
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  std::filesystem::create_directories(Dir, Ec);
  profserve::ServerConfig C;
  C.Workers = 2;
  C.Fingerprint = Fingerprint;
  C.RecoverOnStart = false;
  std::unique_ptr<profserve::Listener> L;
  if (Durable) {
    std::unique_ptr<profserve::TcpListener> T =
        profserve::listenTcp(0, &Error);
    if (!T)
      return;
    Dial = profserve::tcpDialer("127.0.0.1", T->port(), 5000);
    L = std::move(T);
    C.JournalPath = Dir + "/journal";
    C.JournalFsync = true;
  } else {
    std::unique_ptr<shmem::ShmListener> S =
        shmem::listenShm(Dir + "/shm", &Error);
    if (!S)
      return;
    Dial = shmem::shmDialer(Dir + "/shm");
    L = std::move(S);
  }
  Server = std::make_unique<profserve::ProfileServer>(std::move(L), C);
  Server->start();
}

uint64_t Root::groupCommitSyncs() {
  uint64_t Syncs = Server->stats().JournalSyncs;
  size_t Segments = profstore::Journal::listSegments(Dir + "/journal").size();
  if (Syncs == 0 || Segments == 0)
    return 0;
  uint64_t Journal = 1 + 2 * (static_cast<uint64_t>(Segments) - 1);
  return Syncs >= Journal ? Syncs - Journal : 0;
}

Root::~Root() {
  if (Server)
    Server->stop();
  Server.reset();
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

//===--- Pushers ---------------------------------------------------------===//

struct Pushers::Conn {
  std::unique_ptr<profserve::ProfileClient> Client;
  std::vector<uint32_t> Order; ///< seeded permutation of the pool
  size_t Next = 0;
  uint64_t Calls = 0;
};

Pushers::Pushers(Root &Target, const ShardPool &Pool, uint64_t Seed,
                 int Count, size_t Batch, int PullEvery)
    : Pool(Pool), Batch(Batch), PullEvery(PullEvery),
      AckCounts(Pool.Shards.size()) {
  for (int K = 0; K != Count; ++K) {
    auto C = std::make_unique<Conn>();
    profserve::ClientConfig CC;
    CC.Name = "perfbench";
    CC.Fingerprint = Pool.Fingerprint;
    CC.SessionId = 0x9E7F0000ULL + static_cast<uint64_t>(K) + 1;
    C->Client =
        std::make_unique<profserve::ProfileClient>(Target.dialer(), CC);
    C->Order.resize(Pool.Shards.size());
    for (size_t I = 0; I != C->Order.size(); ++I)
      C->Order[I] = static_cast<uint32_t>(I);
    support::Xorshift64 Rng(mix(Seed, 1000 + static_cast<uint64_t>(K)));
    for (size_t I = C->Order.size(); I > 1; --I)
      std::swap(C->Order[I - 1], C->Order[Rng.nextBelow(I)]);
    Conns.push_back(std::move(C));
  }
}

Pushers::~Pushers() {
  for (auto &C : Conns)
    C->Client->close();
}

bool Pushers::connect(std::string *Error) {
  for (auto &C : Conns) {
    profserve::ClientResult CR = C->Client->connect();
    if (!CR.Ok) {
      *Error = "pusher connect: " + CR.Error;
      return false;
    }
  }
  return true;
}

void Pushers::hashInputs(InputHash &H) const {
  for (const std::string &S : Pool.Shards)
    H.add(S);
  for (const auto &C : Conns)
    for (uint32_t I : C->Order)
      H.add(static_cast<uint64_t>(I));
  H.add(static_cast<uint64_t>(Batch));
  H.add(static_cast<uint64_t>(PullEvery));
}

namespace {

double binMedianOf(const std::vector<std::vector<float>> &Bins, double Q) {
  std::vector<double> PerBin;
  for (const std::vector<float> &B : Bins)
    if (!B.empty())
      PerBin.push_back(Q == 0.5 ? median({B.begin(), B.end()})
                                : quantile({B.begin(), B.end()}, Q));
  return median(PerBin);
}

} // namespace

double PushWindow::p50Us() const { return binMedianOf(BinUs, 0.5); }
double PushWindow::p99Us() const { return binMedianOf(BinUs, 0.99); }

double PushWindow::shardsPerSec() const {
  std::vector<double> Rates(BinShards.begin(), BinShards.end());
  return median(Rates) / BinSeconds;
}

void PushWindow::absorb(PushWindow &&Other) {
  for (size_t B = 0; B != Other.BinUs.size(); ++B) {
    BinUs.push_back(std::move(Other.BinUs[B]));
    BinShards.push_back(Other.BinShards[B]);
  }
  PullUs.insert(PullUs.end(), Other.PullUs.begin(), Other.PullUs.end());
  Sequence.insert(Sequence.end(), Other.Sequence.begin(),
                  Other.Sequence.end());
  Calls += Other.Calls;
  Failures += Other.Failures;
  if (FirstError.empty())
    FirstError = Other.FirstError;
}

PushWindow Pushers::run(double Seconds, bool RecordSequence,
                        uint64_t MaxCalls) {
  const size_t NumBins = static_cast<size_t>(Seconds / BinSeconds);
  const uint64_t BinNs = static_cast<uint64_t>(BinSeconds * 1e9);
  const uint64_t Start = nowNs();
  const uint64_t Deadline =
      Start + (NumBins ? NumBins * BinNs
                       : static_cast<uint64_t>(Seconds * 1e9));
  std::vector<PushWindow> Parts(Conns.size());
  std::vector<std::vector<uint64_t>> Acks(
      Conns.size(), std::vector<uint64_t>(Pool.Shards.size()));
  auto Loop = [&](Conn &C, PushWindow &W, std::vector<uint64_t> &Acked) {
    W.BinUs.resize(NumBins);
    W.BinShards.resize(NumBins);
    std::vector<uint32_t> Idx(Batch);
    std::vector<std::string> Shards(Batch);
    for (uint64_t Made = 0;
         nowNs() < Deadline && (MaxCalls == 0 || Made < MaxCalls); ++Made) {
      for (size_t B = 0; B != Batch; ++B) {
        Idx[B] = C.Order[C.Next++ % C.Order.size()];
        if (Batch > 1)
          Shards[B] = Pool.Shards[Idx[B]];
      }
      profserve::ClientResult CR;
      const uint64_t T0 = nowNs();
      {
        Span S(Batch > 1 ? "op.batch" : "op.push");
        CR = Batch > 1 ? C.Client->pushBatch(Shards)
                       : C.Client->pushEncoded(Pool.Shards[Idx[0]]);
      }
      const uint64_t Done = nowNs();
      ++W.Calls;
      ++C.Calls;
      if (CR.Ok) {
        for (uint32_t I : Idx)
          ++Acked[I];
        if (RecordSequence)
          W.Sequence.insert(W.Sequence.end(), Idx.begin(), Idx.end());
        const size_t Bin = static_cast<size_t>((Done - Start) / BinNs);
        if (Bin < NumBins) {
          W.BinUs[Bin].push_back(static_cast<float>(Done - T0) / 1e3f);
          W.BinShards[Bin] += Batch;
        }
      } else {
        ++W.Failures;
        if (W.FirstError.empty())
          W.FirstError = CR.Error;
      }
      if (PullEvery > 0 && C.Calls % static_cast<uint64_t>(PullEvery) == 0) {
        profserve::ProfileClient::PullResult PR;
        const uint64_t P0 = nowNs();
        {
          Span S("op.pull");
          PR = C.Client->pull();
        }
        const double PullUs = usSince(P0);
        ++W.Calls;
        if (PR.Ok) {
          W.PullUs.push_back(PullUs);
        } else {
          ++W.Failures;
          if (W.FirstError.empty())
            W.FirstError = "pull: " + PR.Error;
        }
      }
    }
  };
  std::vector<std::thread> Threads;
  for (size_t K = 0; K != Conns.size(); ++K)
    Threads.emplace_back(Loop, std::ref(*Conns[K]), std::ref(Parts[K]),
                         std::ref(Acks[K]));
  for (std::thread &T : Threads)
    T.join();

  PushWindow All;
  uint64_t WindowShards = 0;
  All.BinUs.resize(NumBins);
  All.BinShards.resize(NumBins);
  for (size_t K = 0; K != Parts.size(); ++K) {
    PushWindow &W = Parts[K];
    for (size_t B = 0; B != NumBins; ++B) {
      All.BinUs[B].insert(All.BinUs[B].end(), W.BinUs[B].begin(),
                          W.BinUs[B].end());
      All.BinShards[B] += W.BinShards[B];
    }
    All.PullUs.insert(All.PullUs.end(), W.PullUs.begin(), W.PullUs.end());
    All.Sequence.insert(All.Sequence.end(), W.Sequence.begin(),
                        W.Sequence.end());
    All.Calls += W.Calls;
    All.Failures += W.Failures;
    if (All.FirstError.empty())
      All.FirstError = W.FirstError;
    for (size_t I = 0; I != AckCounts.size(); ++I) {
      AckCounts[I] += Acks[K][I];
      WindowShards += Acks[K][I];
    }
  }
  AllBatches += WindowShards / Batch; // each acked call acked Batch shards
  return All;
}

//===--- Collection ledger -----------------------------------------------===//

double collectionLedger(Root &Target, const ShardPool &Pool,
                        const std::vector<uint32_t> &Sequence, size_t Batch,
                        const std::string &JournalBase,
                        const std::vector<double> &WindowPullUs, Result &R) {
  const uint64_t Fp = Pool.Fingerprint;
  const size_t N = std::min(Sequence.size(), ReplayShards);
  const uint64_t FirstId = spanMark();

  // Stage replay, one shard at a time, in the order the workload sent them.
  profile::ProfileBundle Agg;
  profstore::Journal::wipe(JournalBase);
  profstore::Journal::Config JC;
  JC.BasePath = JournalBase;
  JC.Fsync = true;
  profstore::Journal J(JC);
  std::string Err;
  R.check(J.open(0, {}, &Err), "replay journal open: " + Err);
  double DecodedBytes = 0.0, DecodeUs = 0.0, ShardBytes = 0.0;
  size_t Syncs = 0; // replayed sync calls
  for (size_t I = 0; I != N; ++I) {
    const uint32_t Idx = Sequence[I];
    const std::string &Arsp = Pool.Shards[Idx];
    ShardBytes += static_cast<double>(Arsp.size());
    {
      Span S("profstore.encode");
      R.check(profstore::encodeBundle(Pool.Bundles[Idx], Fp) == Arsp,
              "replay: re-encoded shard differs");
    }
    std::string Frame;
    {
      Span S("profserve.frame_encode");
      Frame = profserve::encodeFrame(profserve::MsgType::Push,
                                     profserve::encodePush(I + 1, Arsp));
    }
    {
      Span S("profserve.frame_parse");
      profserve::FrameParse FP =
          profserve::parseFrameBytes(Frame.data(), Frame.size());
      uint64_t Seq = 0;
      std::string Back;
      R.check(FP.Status == profserve::FrameStatus::Ok && !FP.NeedMore &&
                  profserve::decodePush(FP.F.Payload, &Seq, &Back) &&
                  Seq == I + 1 && Back == Arsp,
              "replay: push frame does not round-trip");
    }
    profstore::DecodeResult D;
    {
      Span S("profstore.decode");
      uint64_t T0 = nowNs();
      D = profstore::decodeBundle(Arsp, Fp);
      DecodeUs += usSince(T0);
    }
    DecodedBytes += static_cast<double>(Arsp.size());
    R.check(D.Ok, "replay: shard does not decode: " + D.Error);
    {
      Span S("profstore.merge");
      profstore::mergeBundle(Agg, D.Bundle);
    }
    if (Syncs < ReplaySyncs) {
      {
        Span S("profstore.journal_append");
        R.check(J.appendShard(1, I + 1, Arsp, &Err),
                "replay journal append: " + Err);
      }
      if ((I + 1) % Batch == 0) {
        Span S("profstore.journal_sync");
        R.check(J.sync(&Err), "replay journal sync: " + Err);
        ++Syncs;
      }
    }
    if ((I + 1) % Batch == 0) {
      // The ack of one call of the workload's kind.
      Span S("profserve.ack");
      std::string AckFrame;
      if (Batch > 1) {
        profserve::PushBatchAckMsg A;
        A.Count = A.Merged = Batch;
        A.Merges = I + 1;
        A.Fingerprint = Fp;
        AckFrame = profserve::encodeFrame(profserve::MsgType::PushBatchAck,
                                          profserve::encodePushBatchAck(A));
      } else {
        profserve::PushAckMsg A;
        A.Merges = A.Seq = I + 1;
        A.Fingerprint = Fp;
        AckFrame = profserve::encodeFrame(profserve::MsgType::PushAck,
                                          profserve::encodePushAck(A));
      }
      profserve::FrameParse FP =
          profserve::parseFrameBytes(AckFrame.data(), AckFrame.size());
      bool Ok = FP.Status == profserve::FrameStatus::Ok;
      if (Batch > 1) {
        profserve::PushBatchAckMsg A;
        Ok = Ok && profserve::decodePushBatchAck(FP.F.Payload, &A);
      } else {
        profserve::PushAckMsg A;
        Ok = Ok && profserve::decodePushAck(FP.F.Payload, &A);
      }
      R.check(Ok, "replay: ack frame does not round-trip");
    }
  }
  // Batch framing of the same sequence, ReplayBatch shards per frame.
  for (size_t I = 0; I + ReplayBatch <= N; I += ReplayBatch) {
    std::vector<profserve::BatchShard> Shards;
    for (size_t K = 0; K != ReplayBatch; ++K)
      Shards.push_back({I + K + 1, Pool.Shards[Sequence[I + K]]});
    std::string Frame;
    {
      Span S("profserve.batch_encode");
      Frame = profserve::encodeFrame(profserve::MsgType::PushBatch,
                                     profserve::encodePushBatch(Shards));
    }
    Span S("profserve.batch_decode");
    profserve::FrameParse FP =
        profserve::parseFrameBytes(Frame.data(), Frame.size());
    std::vector<profserve::BatchShard> Back;
    R.check(FP.Status == profserve::FrameStatus::Ok &&
                profserve::decodePushBatch(FP.F.Payload, &Back) &&
                Back.size() == ReplayBatch,
            "replay: batch frame does not round-trip");
  }
  J.close();
  profstore::Journal::wipe(JournalBase);

  // The live aggregate as PULL encodes it.
  profile::ProfileBundle Live = Target.server().merged();
  std::string LiveBytes;
  for (int K = 0; K != 20; ++K) {
    Span S("profstore.aggregate_encode");
    LiveBytes = profstore::encodeBundle(Live, Fp);
  }

  // Live probes against the root, which the workload has left idle.
  profserve::ClientConfig CC;
  CC.Name = "perfbench-probe";
  CC.Fingerprint = Fp;
  for (int K = 0; K != 20; ++K) {
    CC.SessionId = 0x9E7F8000ULL + static_cast<uint64_t>(K);
    profserve::ProfileClient C(Target.dialer(), CC);
    profserve::ClientResult CR;
    {
      Span S("profserve.connect");
      CR = C.connect();
    }
    R.check(CR.Ok, "probe connect: " + CR.Error);
    C.close();
  }
  CC.SessionId = 0x9E7F9000ULL;
  profserve::ProfileClient Probe(Target.dialer(), CC);
  R.check(Probe.connect().Ok, "probe connect failed");
  for (int K = 0; K != 500; ++K) {
    Span S("profserve.stats_rtt");
    R.check(Probe.stats().Ok, "probe STATS failed");
  }
  for (int K = 0; K != 30; ++K) {
    Span S("profserve.pull");
    R.check(Probe.pull().Ok, "probe PULL failed");
  }
  Probe.close();

  std::map<std::string, std::vector<double>> By =
      selfTimesByName(spansSince(FirstId));
  auto Med = [&](const char *Name) { return median(By[Name]); };

  profserve::StatsMsg St = Target.server().stats();
  const bool LiveJournal = St.JournalRecords > 0;

  R.metric("profstore.encode_us", Med("profstore.encode"), "us");
  R.metric("profstore.shard_bytes", N ? ShardBytes / N : 0.0, "bytes");
  R.metric("profstore.decode_us", Med("profstore.decode"), "us");
  R.metric("profstore.decode_mb_per_s",
           DecodeUs > 0 ? DecodedBytes / DecodeUs : 0.0, "MB/s");
  R.metric("profstore.merge_us", Med("profstore.merge"), "us");
  R.metric("profstore.journal_append_us", Med("profstore.journal_append"),
           "us");
  R.metric("profstore.journal_sync_us", Med("profstore.journal_sync"), "us");
  // On a journaled root the live counters; otherwise the replay's own,
  // less the fsync its open() issued.
  const uint64_t ReplayFsyncs = J.stats().Syncs;
  double SyncsPerBatch =
      LiveJournal
          ? (St.Batches ? static_cast<double>(Target.groupCommitSyncs()) /
                              static_cast<double>(St.Batches)
                        : 0.0)
          : (Syncs && ReplayFsyncs ? static_cast<double>(ReplayFsyncs - 1) /
                                         static_cast<double>(Syncs)
                                   : 0.0);
  R.metric("profserve.journal_syncs_per_batch", SyncsPerBatch, "ratio");
  R.metric("profstore.aggregate_encode_us",
           Med("profstore.aggregate_encode"), "us");
  R.metric("profstore.aggregate_bytes",
           static_cast<double>(LiveBytes.size()), "bytes");
  R.metric("profserve.connect_us", Med("profserve.connect"), "us");
  R.metric("profserve.stats_rtt_us", Med("profserve.stats_rtt"), "us");
  R.metric("profserve.frame_encode_us", Med("profserve.frame_encode"), "us");
  R.metric("profserve.frame_parse_us", Med("profserve.frame_parse"), "us");
  R.metric("profserve.batch_encode_us", Med("profserve.batch_encode"), "us");
  R.metric("profserve.batch_decode_us", Med("profserve.batch_decode"), "us");
  R.metric("profserve.ack_us", Med("profserve.ack"), "us");
  R.metric("profserve.pull_p50_us",
           WindowPullUs.empty() ? Med("profserve.pull") : median(WindowPullUs),
           "us");
  R.metric("profserve.merges", static_cast<double>(St.Merges), "count");
  R.metric("profserve.duplicates", static_cast<double>(St.Duplicates),
           "count");
  R.metric("profserve.rejects", static_cast<double>(St.Rejects), "count");
  R.metric("profserve.shed", static_cast<double>(St.Shed), "count");

  // The stages one call of the workload's kind blocks on, per call.
  double StageSum = Med("profserve.stats_rtt") + Med("profserve.ack") +
                    static_cast<double>(Batch) *
                        (Med("profstore.decode") + Med("profstore.merge"));
  if (Batch == 1)
    return StageSum + Med("profserve.frame_encode") +
           Med("profserve.frame_parse");
  return StageSum + Med("profserve.batch_encode") +
         Med("profserve.batch_decode") +
         static_cast<double>(Batch) * Med("profstore.journal_append") +
         Med("profstore.journal_sync");
}

void checkFold(Root &Target, const ShardPool &Pool,
               const std::vector<uint64_t> &AckCounts, bool PerturbFold,
               Result &R) {
  // mergeBundle is commutative and associative, so folding the acked
  // shards pool index by pool index gives the serial fold of any order.
  profile::ProfileBundle Expected;
  uint64_t Acked = 0;
  for (size_t I = 0; I != AckCounts.size(); ++I)
    for (uint64_t K = 0; K != AckCounts[I]; ++K, ++Acked)
      profstore::mergeBundle(Expected, Pool.Bundles[I]);
  if (PerturbFold && !Pool.Bundles.empty())
    profstore::mergeBundle(Expected, Pool.Bundles.front());

  profserve::ClientConfig CC;
  CC.Name = "perfbench-check";
  CC.Fingerprint = Pool.Fingerprint;
  CC.SessionId = 0x9E7FA000ULL;
  profserve::ProfileClient C(Target.dialer(), CC);
  profserve::ProfileClient::PullResult PR = C.pull();
  C.close();
  if (!PR.Ok) {
    R.fail("final pull failed: " + PR.Error);
    return;
  }
  profstore::DecodeResult D =
      profstore::decodeBundle(PR.RawBytes, Pool.Fingerprint);
  R.check(D.Ok, "final pull does not decode: " + D.Error);
  R.check(D.Ok && profile::serializeBundle(D.Bundle) ==
                      profile::serializeBundle(Expected),
          "pulled bundle differs from the serial fold of the acked shards");
  uint64_t Merges = Target.server().stats().Merges;
  R.check(Merges == Acked, "server merges " + std::to_string(Merges) +
                               " != acked shards " + std::to_string(Acked));
}

} // namespace perfbench
