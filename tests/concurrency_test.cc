// Concurrency coverage for the multi-client execution paths: sharded
// buffer-pool latches, atomic virtual-clock / per-thread I/O attribution,
// concurrent-vs-serial differential answers on a shared engine, the plan
// cache under racing compilers, mutations racing statements, and the MPL
// throughput driver. The suite is the payload of the TSAN smoke job
// (tools/sanitize_smoke.sh with XBENCH_SANITIZE=thread).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/lock_rank.h"
#include "common/stopwatch.h"
#include "common/thread_io.h"
#include "common/worker_pool.h"
#include "obs/metrics.h"
#include "datagen/generator.h"
#include "engines/native_engine.h"
#include "engines/registry.h"
#include "harness/throughput.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "workload/runner.h"
#include "workload/session.h"

namespace xbench {
namespace {

using datagen::DbClass;
using engines::EngineKind;
using workload::QueryId;

datagen::GeneratedDatabase SmallDb(DbClass cls, uint64_t seed = 42,
                                   uint64_t bytes = 96 * 1024) {
  datagen::GenConfig config;
  config.target_bytes = bytes;
  config.seed = seed;
  return datagen::Generate(cls, config);
}

TEST(ConcurrentStorage, ShardedPoolKeepsDisjointPagesIntact) {
  storage::SimulatedDisk disk;
  constexpr int kThreads = 8;
  constexpr int kPagesPerThread = 4;
  constexpr int kRounds = 50;
  std::vector<storage::PageId> pages;
  for (int i = 0; i < kThreads * kPagesPerThread; ++i) {
    pages.push_back(disk.Allocate());
  }
  // Capacity below the working set so the threads continuously evict each
  // other's frames through the shared shards.
  storage::BufferPool pool(disk, 8);
  std::vector<std::thread> threads;
  std::atomic<int> corruptions{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int p = 0; p < kPagesPerThread; ++p) {
          const storage::PageId id = pages[t * kPagesPerThread + p];
          uint64_t stamp = (static_cast<uint64_t>(t) << 32) |
                           static_cast<uint64_t>(round);
          pool.WriteAt(id, 16, &stamp, sizeof(stamp));
          uint64_t readback = 0;
          pool.ReadAt(id, 16, &readback, sizeof(readback));
          if (readback != stamp) corruptions.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(corruptions.load(), 0);
  // Every write eventually lands on the disk image: flush and re-read the
  // final stamps through a fresh pool.
  pool.FlushAll();
  storage::BufferPool verify(disk, 8);
  for (int t = 0; t < kThreads; ++t) {
    for (int p = 0; p < kPagesPerThread; ++p) {
      uint64_t stamp = 0;
      verify.ReadAt(pages[t * kPagesPerThread + p], 16, &stamp,
                    sizeof(stamp));
      EXPECT_EQ(stamp >> 32, static_cast<uint64_t>(t));
      EXPECT_EQ(stamp & 0xffffffffull, kRounds - 1u);
    }
  }
}

TEST(ConcurrentStorage, VirtualClockAdvancesAreNotLost) {
  VirtualClock clock;
  constexpr int kThreads = 8;
  constexpr int kAdvances = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdvances; ++i) clock.AdvanceMicros(3);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(clock.ElapsedMicros(), 3ull * kThreads * kAdvances);
}

TEST(ConcurrentStorage, ThreadIoAttributionIsExactUnderConcurrency) {
  storage::SimulatedDisk disk;
  std::vector<storage::PageId> pages;
  for (int i = 0; i < 32; ++i) pages.push_back(disk.Allocate());
  storage::BufferPool pool(disk, 4);
  constexpr int kThreads = 4;
  constexpr int kReadsPerThread = 200;
  std::vector<workload::IoStats> deltas(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const workload::IoStats before = workload::ThreadIoSnapshot();
      uint64_t sink = 0;
      for (int i = 0; i < kReadsPerThread; ++i) {
        uint64_t value = 0;
        pool.ReadAt(pages[(t * 7 + i * 13) % pages.size()], 0, &value,
                    sizeof(value));
        sink += value;
      }
      deltas[t] =
          workload::IoStatsDelta(before, workload::ThreadIoSnapshot());
      ASSERT_EQ(sink, 0u);  // freshly allocated pages are zeroed
    });
  }
  for (std::thread& t : threads) t.join();
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t disk_reads = 0;
  for (const workload::IoStats& delta : deltas) {
    // Each thread accounts exactly its own page accesses, no more.
    EXPECT_EQ(delta.pool_hits + delta.pool_misses, kReadsPerThread);
    EXPECT_EQ(delta.disk_page_reads, delta.pool_misses);
    hits += delta.pool_hits;
    misses += delta.pool_misses;
    disk_reads += delta.disk_page_reads;
  }
  // And the per-thread deltas partition the engine-lifetime totals.
  EXPECT_EQ(pool.hits(), hits);
  EXPECT_EQ(pool.misses(), misses);
  EXPECT_EQ(disk.reads(), disk_reads);
}

void AddCounters(ThreadIoCounters& out, const ThreadIoCounters& in) {
  out.io_micros += in.io_micros;
  out.pool_hits += in.pool_hits;
  out.pool_misses += in.pool_misses;
  out.pool_evictions += in.pool_evictions;
  out.pool_writebacks += in.pool_writebacks;
  out.disk_page_reads += in.disk_page_reads;
  out.disk_page_writes += in.disk_page_writes;
  out.disk_bytes_read += in.disk_bytes_read;
  out.disk_bytes_written += in.disk_bytes_written;
}

TEST(ConcurrentStorage, WorkerPoolCreditsWorkerIoToTheCaller) {
  WorkerPool pool(3);
  VirtualClock clock;
  constexpr size_t kTotal = 256;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> off_caller{false};
  auto charge = [](size_t i) {
    ThreadIoCounters c;
    c.io_micros = i + 1;
    c.pool_hits = 1;
    c.pool_misses = i % 3;
    c.pool_evictions = i % 5;
    c.pool_writebacks = i % 7;
    c.disk_page_reads = i % 11;
    c.disk_page_writes = i % 13;
    c.disk_bytes_read = 4096 * (i % 17);
    c.disk_bytes_written = 4096 * (i % 19);
    return c;
  };
  ThreadIoCounters want = ThisThreadIo();
  for (size_t i = 0; i < kTotal; ++i) AddCounters(want, charge(i));
  Status status = pool.ParallelFor(kTotal, 4, [&](size_t i) {
    if (std::this_thread::get_id() != caller) {
      off_caller = true;
    } else if (i == 0) {
      // Hold the first morsel until a pool lane has run one, so the
      // worker-to-caller credit path is exercised, not just the caller's.
      for (int spin = 0; spin < 10000 && !off_caller; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ThreadIoCounters c = charge(i);
    clock.AdvanceMicros(c.io_micros);  // also charges ThisThreadIo()
    c.io_micros = 0;
    AddCounters(ThisThreadIo(), c);
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(off_caller.load()) << "no pool lane ran a morsel";
  const ThreadIoCounters got = ThisThreadIo();
  EXPECT_EQ(got.io_micros, want.io_micros);
  EXPECT_EQ(got.pool_hits, want.pool_hits);
  EXPECT_EQ(got.pool_misses, want.pool_misses);
  EXPECT_EQ(got.pool_evictions, want.pool_evictions);
  EXPECT_EQ(got.pool_writebacks, want.pool_writebacks);
  EXPECT_EQ(got.disk_page_reads, want.disk_page_reads);
  EXPECT_EQ(got.disk_page_writes, want.disk_page_writes);
  EXPECT_EQ(got.disk_bytes_read, want.disk_bytes_read);
  EXPECT_EQ(got.disk_bytes_written, want.disk_bytes_written);
}

TEST(ConcurrentSessions, AnswersMatchSerialBaselineOnEveryEngine) {
  const std::vector<QueryId> candidates = {QueryId::kQ5, QueryId::kQ8,
                                           QueryId::kQ14, QueryId::kQ17};
  for (EngineKind kind : workload::AllEngines()) {
    auto engine = workload::MakeEngine(kind);
    ASSERT_NE(engine, nullptr);
    const auto db = SmallDb(DbClass::kTcMd);
    ASSERT_TRUE(workload::BulkLoad(*engine, db).status.ok());
    const workload::QueryParams params =
        workload::DeriveParams(db.db_class, db.seeds);
    workload::RunOptions warm;
    warm.cold = false;
    // Serial baseline hashes on this thread; queries the engine cannot run
    // at all are dropped (they cannot run concurrently either).
    std::vector<QueryId> mix;
    std::vector<uint64_t> expected;
    workload::Session baseline(*engine, db.db_class, params, "serial");
    for (QueryId id : candidates) {
      workload::ExecutionResult result = baseline.Run(id, warm);
      if (result.status.code() == StatusCode::kUnsupported) continue;
      ASSERT_TRUE(result.status.ok())
          << engine->name() << " " << workload::QueryName(id) << ": "
          << result.status.ToString();
      mix.push_back(id);
      expected.push_back(workload::AnswerHash(
          workload::CanonicalizeAnswer(id, std::move(result.lines))));
    }
    ASSERT_FALSE(mix.empty()) << engine->name();
    // Concurrent sweep: every session re-runs the whole mix.
    constexpr int kSessions = 4;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        workload::Session session(*engine, db.db_class, params,
                                  "s" + std::to_string(s));
        for (size_t q = 0; q < mix.size(); ++q) {
          const size_t slot = (q + static_cast<size_t>(s)) % mix.size();
          workload::ExecutionResult result = session.Run(mix[slot], warm);
          if (!result.status.ok()) {
            failures.fetch_add(1);
            continue;
          }
          const uint64_t hash = workload::AnswerHash(
              workload::CanonicalizeAnswer(mix[slot],
                                           std::move(result.lines)));
          if (hash != expected[slot]) mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0) << engine->name();
    EXPECT_EQ(mismatches.load(), 0) << engine->name();
  }
}

TEST(ConcurrentSessions, RacingCompilersShareOnePlanCacheEntry) {
  engines::NativeEngine engine;
  const auto db = SmallDb(DbClass::kTcSd);
  ASSERT_TRUE(workload::BulkLoad(engine, db).status.ok());
  const workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);
  ASSERT_EQ(engine.plan_cache().size(), 0u);
  workload::RunOptions warm;
  warm.cold = false;
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // All threads compile the same statement at once; the cache must end up
  // with exactly one entry and every execution must succeed.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      workload::Session session(engine, db.db_class, params);
      workload::ExecutionResult result = session.Run(QueryId::kQ5, warm);
      if (!result.status.ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.plan_cache().size(), 1u);
}

TEST(ConcurrentSessions, MutationsSerializeAgainstInFlightStatements) {
  auto engine = workload::MakeEngine(EngineKind::kNative);
  const auto db = SmallDb(DbClass::kTcMd);
  ASSERT_TRUE(workload::BulkLoad(*engine, db).status.ok());
  const workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);
  workload::RunOptions warm;
  warm.cold = false;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    // Inserts + cold restarts race the reader statements below; the
    // collection lock must serialize them without deadlock or torn reads.
    for (int i = 0; i < 6; ++i) {
      engines::LoadDocument doc;
      doc.name = "hotplug" + std::to_string(i) + ".xml";
      doc.text = "<article><prolog><title>hotplug " + std::to_string(i) +
                 "</title></prolog><body><abstract>concurrent insert"
                 "</abstract></body></article>";
      if (!engine->InsertDocument(doc).ok()) failures.fetch_add(1);
      engine->ColdRestart();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      workload::Session session(*engine, db.db_class, params);
      // Each reader issues a minimum number of statements so the race is
      // exercised even when the writer finishes before the readers spin up.
      // Q17's `//` steps compile guided plans on a freshly validated
      // collection, so an insert that closes the guided-eval gate can land
      // between a statement's compile and its execute; the session must
      // fall back to an unguided plan instead of surfacing the rejection.
      int runs = 0;
      while (runs++ < 8 || !stop.load()) {
        workload::ExecutionResult result = session.Run(QueryId::kQ17, warm);
        if (!result.status.ok()) failures.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentSessions, IndexMaintenanceUnderMutationStaysConsistent) {
  auto engine = workload::MakeEngine(EngineKind::kNative);
  const auto db = SmallDb(DbClass::kTcMd);
  ASSERT_TRUE(workload::BulkLoad(*engine, db).status.ok());
  const workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);
  workload::Session ddl(*engine, db.db_class, params, "ddl");
  for (const engines::IndexSpec& spec :
       workload::Table3Indexes(db.db_class)) {
    ASSERT_TRUE(ddl.CreateIndex(spec).ok()) << spec.name;
  }
  engines::IndexSpec text;
  text.name = "words";
  text.kind = engines::IndexKind::kText;
  ASSERT_TRUE(ddl.CreateIndex(text).ok());

  workload::RunOptions probe;
  probe.cold = false;
  probe.compile.access_path.mode = xquery::plan::AccessPathMode::kForceIndex;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    // Inserts, deletes and cold restarts race index-probing statements;
    // every mutation must rebuild/extend the live indexes under the
    // collection lock, and the probes must never observe a half-updated
    // posting list (they would fail or return wrong answers below).
    for (int i = 0; i < 5; ++i) {
      engines::LoadDocument doc;
      doc.name = "mut" + std::to_string(i) + ".xml";
      doc.text = "<article id=\"AMUT" + std::to_string(i) +
                 "\"><prolog><title>mutation probe</title></prolog>"
                 "<body><abstract>xenu lives here</abstract></body>"
                 "</article>";
      if (!engine->InsertDocument(doc).ok()) failures.fetch_add(1);
      if (i % 2 == 0) {
        if (!engine->DeleteDocument(doc.name).ok()) failures.fetch_add(1);
      }
      engine->ColdRestart();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      workload::Session session(*engine, db.db_class, params);
      int runs = 0;
      while (runs++ < 8 || !stop.load()) {
        const QueryId id = runs % 2 == 0 ? QueryId::kQ5 : QueryId::kQ17;
        workload::ExecutionResult result = session.Run(id, probe);
        if (!result.status.ok()) failures.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Post-storm differential: forced index probes against the mutated
  // collection must be byte-identical to forced full scans, and survive
  // one more cold restart (indexes rebuild from the persisted documents).
  workload::RunOptions scan;
  scan.cold = false;
  scan.compile.access_path.mode = xquery::plan::AccessPathMode::kForceScan;
  workload::Session check(*engine, db.db_class, params, "check");
  for (int round = 0; round < 2; ++round) {
    if (round == 1) engine->ColdRestart();
    for (QueryId id : {QueryId::kQ5, QueryId::kQ17}) {
      workload::ExecutionResult scanned = check.Run(id, scan);
      workload::ExecutionResult probed = check.Run(id, probe);
      ASSERT_TRUE(scanned.status.ok());
      ASSERT_TRUE(probed.status.ok());
      EXPECT_NE(probed.access_path.find('('), std::string::npos)
          << workload::QueryName(id) << ": " << probed.access_path;
      EXPECT_EQ(scanned.lines, probed.lines) << workload::QueryName(id);
    }
  }
}

TEST(ConcurrentSessions, IndexDdlInvalidatesCachedPlansViaCatalogEpoch) {
  engines::NativeEngine engine;
  const auto db = SmallDb(DbClass::kTcSd);
  ASSERT_TRUE(workload::BulkLoad(engine, db).status.ok());
  const workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);
  workload::Session session(engine, db.db_class, params);
  engines::IndexSpec hw;
  hw.name = "hw";
  hw.path = "hw";
  ASSERT_TRUE(session.CreateIndex(hw).ok());

  workload::RunOptions autopath;
  autopath.cold = false;
  autopath.compile.access_path.mode = xquery::plan::AccessPathMode::kAuto;
  workload::ExecutionResult indexed = session.Run(QueryId::kQ5, autopath);
  ASSERT_TRUE(indexed.status.ok());
  EXPECT_NE(indexed.access_path.find("IndexScan(hw"), std::string::npos)
      << indexed.access_path;
  workload::ExecutionResult warm = session.Run(QueryId::kQ5, autopath);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.plan_cache_hit);

  // Dropping the index bumps the catalog epoch: the cached probing plan's
  // key no longer matches, so the next run re-plans against the new
  // catalog instead of executing a stale probe.
  ASSERT_TRUE(session.DropIndex("hw").ok());
  workload::ExecutionResult dropped = session.Run(QueryId::kQ5, autopath);
  ASSERT_TRUE(dropped.status.ok());
  EXPECT_FALSE(dropped.plan_cache_hit);
  EXPECT_EQ(dropped.access_path.find("IndexScan"), std::string::npos)
      << dropped.access_path;
  EXPECT_EQ(dropped.lines, indexed.lines);

  // Recreating it invalidates again, in the other direction.
  ASSERT_TRUE(session.CreateIndex(hw).ok());
  workload::ExecutionResult recreated = session.Run(QueryId::kQ5, autopath);
  ASSERT_TRUE(recreated.status.ok());
  EXPECT_FALSE(recreated.plan_cache_hit);
  EXPECT_NE(recreated.access_path.find("IndexScan(hw"), std::string::npos)
      << recreated.access_path;
  EXPECT_EQ(recreated.lines, indexed.lines);
}

TEST(EngineRegistry, ResolvesEveryKindAndRejectsUnknownNames) {
  engines::EngineRegistry& registry = engines::EngineRegistry::Default();
  for (EngineKind kind : workload::AllEngines()) {
    const char* name = engines::EngineKindRegistryName(kind);
    EXPECT_TRUE(registry.Contains(name)) << name;
    auto engine = registry.Create(name);
    ASSERT_TRUE(engine.ok()) << name;
    EXPECT_EQ(engine.value()->kind(), kind);
  }
  auto missing = registry.Create("postgres");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The error lists the registered names so flag typos self-explain.
  EXPECT_NE(missing.status().ToString().find("native"), std::string::npos);
  Status duplicate = registry.Register("native", [] {
    return std::unique_ptr<engines::XmlDbms>();
  });
  EXPECT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  // The rejected duplicate must not clobber the original factory.
  auto still_native = registry.Create("native");
  ASSERT_TRUE(still_native.ok());
  EXPECT_EQ(still_native.value()->kind(), EngineKind::kNative);
}

TEST(ConcurrentSessions, ColdRestartContractHoldsUnderRacingSessions) {
  // Runs the ColdRestart path (exclusive collection lock ->
  // ColdRestartLocked -> cache mutex + pool shard latches + disk mutex)
  // against racing reader sessions WITH runtime lock-rank enforcement
  // live. Any acquisition violating the DESIGN.md §9 order — including a
  // ColdRestartLocked override re-taking the collection lock — aborts the
  // process, so this test passing proves the REQUIRES contracts hold on
  // the whole restart path under contention.
  const bool was_enabled = lockrank::Enabled();
  lockrank::SetEnabled(true);
  obs::Counter& acquires =
      obs::MetricsRegistry::Default().GetCounter("xbench.lock.acquires");
  const uint64_t acquires_before = acquires.value();
  for (EngineKind kind : {EngineKind::kNative, EngineKind::kClob}) {
    auto engine = workload::MakeEngine(kind);
    const auto db = SmallDb(DbClass::kTcMd);
    ASSERT_TRUE(workload::BulkLoad(*engine, db).status.ok());
    const workload::QueryParams params =
        workload::DeriveParams(db.db_class, db.seeds);
    workload::RunOptions warm;
    warm.cold = false;
    std::atomic<int> failures{0};
    std::thread restarter([&] {
      for (int i = 0; i < 8; ++i) engine->ColdRestart();
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&] {
        workload::Session session(*engine, db.db_class, params);
        // Q17 is defined for TC/MD on both engines. A fixed statement
        // count, not "until the restarter stops": the collection lock
        // prefers readers, so looping readers could starve the restarter
        // forever on a slow (sanitized) build.
        for (int run = 0; run < 16; ++run) {
          if (!session.Run(QueryId::kQ17, warm).status.ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    restarter.join();
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(failures.load(), 0) << engines::EngineKindName(kind);
  }
  // Enforcement was actually live: the sessions' acquisitions were
  // tracked (and none violated, or we would not be here).
  EXPECT_GT(acquires.value(), acquires_before);
  EXPECT_EQ(obs::MetricsRegistry::Default()
                .GetCounter("xbench.lock.violations")
                .value(),
            0u);
  lockrank::SetEnabled(was_enabled);
}

TEST(ThroughputDriverTest, SweepScalesAndMatchesSerialHashes) {
  harness::ThroughputOptions options;
  options.engine = EngineKind::kNative;
  options.db_class = DbClass::kTcSd;
  options.mpls = {1, 4};
  options.ops_per_session = 4;
  auto run = harness::ThroughputDriver(options).Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const harness::ThroughputReport& report = run.value();
  ASSERT_EQ(report.mpls.size(), 2u);
  EXPECT_TRUE(report.AllAnswersMatchSerial());
  EXPECT_EQ(report.mpls[0].failures, 0u);
  EXPECT_EQ(report.mpls[1].failures, 0u);
  EXPECT_EQ(report.mpls[0].ops, 4u);
  EXPECT_EQ(report.mpls[1].ops, 16u);
  EXPECT_GT(report.mpls[0].qps, 0.0);
  // Percentiles come from the recorded per-statement latency histogram,
  // so they are positive and ordered.
  for (const harness::MplResult& row : report.mpls) {
    EXPECT_GT(row.mean_millis, 0.0);
    EXPECT_GT(row.p50_millis, 0.0);
    EXPECT_LE(row.p50_millis, row.p90_millis);
    EXPECT_LE(row.p90_millis, row.p99_millis);
    EXPECT_LE(row.p99_millis, row.p999_millis);
    EXPECT_TRUE(row.slo_ok);  // no SLO configured
  }
  EXPECT_TRUE(report.SloSatisfied());
  const std::string json = harness::ToJson(report);
  EXPECT_NE(json.find("\"answers_match_serial\":true"), std::string::npos);
  EXPECT_NE(json.find("\"p90_millis\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_millis\""), std::string::npos);
  EXPECT_NE(json.find("\"slo_satisfied\":true"), std::string::npos);
}

// Wall-clock qps only scales with free cores, so this ratio is kept out
// of tier-1; tools/static_gate.sh runs it on purpose.
TEST(ThroughputDriverTest, DISABLED_WallClockSpeedupAtMpl4) {
  harness::ThroughputOptions options;
  options.engine = EngineKind::kNative;
  options.db_class = DbClass::kTcSd;
  options.mpls = {1, 4};
  options.ops_per_session = 4;
  auto run = harness::ThroughputDriver(options).Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const harness::ThroughputReport& report = run.value();
  EXPECT_GT(report.SpeedupAt(4), 1.5);
}

TEST(ThroughputDriverTest, SloGateTripsOnTightThresholdOnly) {
  harness::ThroughputOptions options;
  options.engine = EngineKind::kNative;
  options.db_class = DbClass::kTcSd;
  options.mpls = {1};
  options.ops_per_session = 2;
  // No real statement finishes in a nanosecond: the gate must trip.
  options.slo_p99_millis = 1e-6;
  auto tight = harness::ThroughputDriver(options).Run();
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  EXPECT_FALSE(tight->SloSatisfied());
  ASSERT_EQ(tight->mpls.size(), 1u);
  EXPECT_FALSE(tight->mpls[0].slo_ok);
  EXPECT_NE(harness::ToJson(*tight).find("\"slo_satisfied\":false"),
            std::string::npos);
  // A generous threshold passes on the same workload.
  options.slo_p99_millis = 600000;
  auto generous = harness::ThroughputDriver(options).Run();
  ASSERT_TRUE(generous.ok()) << generous.status().ToString();
  EXPECT_TRUE(generous->SloSatisfied());
  EXPECT_TRUE(generous->mpls[0].slo_ok);
}

TEST(SessionProfileTest, CollectsPhaseAndOperatorTimes) {
  engines::NativeEngine engine;
  const auto db = SmallDb(DbClass::kTcSd);
  ASSERT_TRUE(workload::BulkLoad(engine, db).status.ok());
  const workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);
  workload::Session session(engine, db.db_class, params);
  workload::RunOptions options;
  options.cold = false;
  options.profile = true;
  workload::ExecutionResult first = session.Run(QueryId::kQ5, options);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(first.profile.collected);
  // First execution compiles: the parse/analyze/plan phases were timed
  // and the plan cache missed.
  EXPECT_FALSE(first.profile.compile_cache_hit);
  EXPECT_GE(first.profile.plan_millis, 0.0);
  EXPECT_GT(first.profile.engine_millis, 0.0);
  EXPECT_GT(first.profile.exec_millis, 0.0);
  // The per-operator self times partition the operator tree's run time:
  // they must sum to the profiled execution time within 5%.
  ASSERT_FALSE(first.plan_stats.operators.empty());
  double self_sum = 0;
  for (const xquery::exec::OperatorStats& op : first.plan_stats.operators) {
    EXPECT_GE(op.self_millis, 0.0);
    EXPECT_LE(op.self_millis, op.millis + 1e-9);
    self_sum += op.self_millis;
  }
  EXPECT_EQ(first.plan_stats.operators[0].depth, 0);
  EXPECT_NEAR(self_sum, first.profile.exec_millis,
              std::max(0.05 * first.profile.exec_millis, 0.5));
  // Second execution of the same statement hits the plan cache, so the
  // compile phases report zero.
  workload::ExecutionResult second = session.Run(QueryId::kQ5, options);
  ASSERT_TRUE(second.status.ok());
  ASSERT_TRUE(second.profile.collected);
  EXPECT_TRUE(second.profile.compile_cache_hit);
  EXPECT_EQ(second.profile.parse_millis, 0.0);
  EXPECT_EQ(second.profile.analyze_millis, 0.0);
  EXPECT_EQ(second.profile.plan_millis, 0.0);
  // Without --profile the phase breakdown is not collected.
  workload::ExecutionResult plain =
      session.Run(QueryId::kQ5, workload::RunOptions());
  ASSERT_TRUE(plain.status.ok());
  EXPECT_FALSE(plain.profile.collected);
}

}  // namespace
}  // namespace xbench
