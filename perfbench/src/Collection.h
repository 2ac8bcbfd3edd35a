//===- perfbench/src/Collection.h - Push-path workloads -------*- C++ -*-===//
///
/// \file
/// The collection-tier half of the benchmark: the seeded javac shard
/// pool, a root ProfileServer over shm or TCP, closed-loop pusher
/// connections, and the stage replay and live probes that make up the
/// traced run's collection ledger.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COLLECTION_H
#define PERFBENCH_COLLECTION_H

#include "Bench.h"

#include "profile/Profiles.h"
#include "profserve/Client.h"
#include "profserve/Server.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Sampled six-client profiles of javac: runs that differ in jitter seed,
/// sample interval and input scale, each encoded as one .arsp shard.
struct ShardPool {
  uint64_t Fingerprint = 0; ///< javac's programHash
  std::vector<std::string> Shards;
  std::vector<ars::profile::ProfileBundle> Bundles; ///< decoded Shards
  /// Geomean simulated-cycle overhead of the pool runs against baseline
  /// runs at the same scale, and their mean call-edge + field-access
  /// overlap with Exhaustive runs at the same scale.
  double SimOverheadPct = 0.0;
  double OverlapPct = 0.0;
};

/// Builds the pool for \p Seed on \p Jobs threads.  Every run's MainResult
/// is checked against its baseline and Property 1 against every
/// transformed function; failures go to \p R.
bool buildShardPool(uint64_t Seed, int Jobs, ShardPool *Out, Result &R,
                    std::string *Error);

/// A root collection server with two reactor workers.
class Root {
public:
  /// Shm (no journal) when !\p Durable; TCP on 127.0.0.1 with the
  /// fsync'd group-commit journal under \p Dir when \p Durable.
  Root(bool Durable, const std::string &Dir, uint64_t Fingerprint);
  ~Root();
  Root(const Root &) = delete;
  Root &operator=(const Root &) = delete;

  bool ok() const { return Server != nullptr; }
  const std::string &error() const { return Error; }
  ars::profserve::ProfileServer &server() { return *Server; }
  ars::profserve::Dialer dialer() const { return Dial; }

  /// The journal's fsyncs issued for batches: JournalSyncs minus the one
  /// at open and the two per segment rotation (0 without a journal).
  uint64_t groupCommitSyncs();

private:
  std::string Dir;
  std::string Error;
  ars::profserve::Dialer Dial;
  std::unique_ptr<ars::profserve::ProfileServer> Server;
};

/// One window of every pusher connection.  Calls are binned by the
/// second they completed in; the window's statistics are medians over the
/// bins, so a stall that covers less than half the window cannot move
/// them.
struct PushWindow {
  std::vector<std::vector<float>> BinUs; ///< call latencies (call to ack)
  std::vector<uint64_t> BinShards;       ///< shards acked
  std::vector<double> PullUs;
  std::vector<uint32_t> Sequence; ///< acked pool indices, when recorded
  uint64_t Calls = 0;             ///< push/batch and pull calls made
  uint64_t Failures = 0;
  std::string FirstError;

  /// Median over bins of the bin's median / 99th percentile latency.
  double p50Us() const;
  double p99Us() const;
  /// Median over bins of shards acked per second.
  double shardsPerSec() const;
  /// Appends \p Other's bins, pulls, sequence and counts, so that one
  /// window stands for several consecutive ones.
  void absorb(PushWindow &&Other);
};

/// Closed-loop pusher connections.  Each walks its own seeded permutation
/// of the pool, sending \p Batch shards per call (single-shard
/// pushEncoded when 1, pushBatch otherwise) and one pull() after every
/// \p PullEvery calls (0 = never).
class Pushers {
public:
  Pushers(Root &Target, const ShardPool &Pool, uint64_t Seed, int Count,
          size_t Batch, int PullEvery);
  ~Pushers();
  Pushers(const Pushers &) = delete;
  Pushers &operator=(const Pushers &) = delete;

  /// Connects every pusher; false + \p Error on failure.
  bool connect(std::string *Error);
  /// Runs every connection for \p Seconds (whole one-second bins count;
  /// a shorter window is unbinned), or until each has made \p MaxCalls
  /// push calls when that is nonzero.  \p RecordSequence keeps the acked
  /// pool indices in order.
  PushWindow run(double Seconds, bool RecordSequence = false,
                 uint64_t MaxCalls = 0);
  /// Times each pool shard was acked, over all windows.
  const std::vector<uint64_t> &ackCounts() const { return AckCounts; }
  uint64_t batchesSoFar() const { return AllBatches; }
  /// Feeds the seeded sequences into \p H.
  void hashInputs(InputHash &H) const;

private:
  struct Conn;
  const ShardPool &Pool;
  size_t Batch;
  int PullEvery;
  std::vector<std::unique_ptr<Conn>> Conns;
  std::vector<uint64_t> AckCounts;
  uint64_t AllBatches = 0;
};

/// Per-layer collection ledger.  Replays \p Sequence (pool indices, in the
/// order the workload pushed them) through the public stage functions
/// under spans, probes \p Root live (connect, STATS round trip, idle
/// pulls), and emits the profstore/profserve per-layer metrics.  Returns
/// the summed stage medians one call of \p Batch shards blocks on (with
/// the journal stages only when \p Batch > 1, as on the durable root).
/// \p WindowPullUs are the pulls the workload itself made (may be empty).
double collectionLedger(Root &Target, const ShardPool &Pool,
                        const std::vector<uint32_t> &Sequence, size_t Batch,
                        const std::string &JournalBase,
                        const std::vector<double> &WindowPullUs, Result &R);

/// Pulls the merged bundle from \p Target and checks it byte-identical to
/// the serial mergeBundle fold of every acked shard (\p AckCounts per
/// pool index, plus one extra shard when \p PerturbFold, the self-test's
/// wrong expectation), and the server's merge counter equal to the number
/// of acked shards.
void checkFold(Root &Target, const ShardPool &Pool,
               const std::vector<uint64_t> &AckCounts, bool PerturbFold,
               Result &R);

} // namespace perfbench

#endif // PERFBENCH_COLLECTION_H
