#include <gtest/gtest.h>

#include "common/strings.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/heap_file.h"

namespace xbench::storage {
namespace {

TEST(DiskTest, AllocateAndRoundTrip) {
  SimulatedDisk disk;
  PageId id = disk.Allocate();
  Page page;
  page.bytes[0] = 42;
  disk.WritePage(id, page);
  Page read;
  disk.ReadPage(id, read);
  EXPECT_EQ(read.bytes[0], 42);
  EXPECT_EQ(disk.reads(), 1u);
  EXPECT_EQ(disk.writes(), 1u);
}

TEST(DiskTest, ChargesLatency) {
  DiskProfile profile;
  profile.random_read_micros = 100;
  profile.sequential_read_micros = 10;
  profile.write_micros = 20;
  SimulatedDisk disk(profile);
  PageId a = disk.Allocate();
  PageId b = disk.Allocate();
  Page page;
  disk.WritePage(a, page);   // 20
  disk.ReadPage(b, page);    // random (a+1==b -> sequential!) = 10
  EXPECT_EQ(disk.clock().ElapsedMicros(), 30u);
  disk.ReadPage(a, page);    // random = 100
  EXPECT_EQ(disk.clock().ElapsedMicros(), 130u);
  disk.ReadPage(b, page);    // sequential after a = 10
  EXPECT_EQ(disk.clock().ElapsedMicros(), 140u);
}

TEST(BufferPoolTest, HitsAvoidDiskReads) {
  SimulatedDisk disk;
  BufferPool pool(disk, 4);
  PageId id = disk.Allocate();
  pool.Fetch(id);
  pool.Fetch(id);
  pool.Fetch(id);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(disk.reads(), 1u);
}

TEST(BufferPoolTest, EvictsLruAndWritesBackDirty) {
  SimulatedDisk disk;
  BufferPool pool(disk, 2);
  PageId a = disk.Allocate();
  PageId b = disk.Allocate();
  PageId c = disk.Allocate();

  Page& fa = pool.Fetch(a);
  fa.bytes[0] = 7;
  pool.MarkDirty(a);
  pool.Fetch(b);
  pool.Fetch(c);  // evicts a (LRU), writing it back

  EXPECT_EQ(disk.writes(), 1u);
  Page check;
  disk.ReadPage(a, check);
  EXPECT_EQ(check.bytes[0], 7);
}

TEST(BufferPoolTest, CountsEvictionsAndWritebacks) {
  SimulatedDisk disk;
  BufferPool pool(disk, 2);
  PageId a = disk.Allocate();
  PageId b = disk.Allocate();
  PageId c = disk.Allocate();

  pool.Fetch(a);
  pool.MarkDirty(a);
  pool.Fetch(b);
  pool.Fetch(c);  // evicts dirty a -> one eviction, one writeback
  pool.Fetch(a);  // evicts clean b -> eviction without writeback

  EXPECT_EQ(pool.evictions(), 2u);
  EXPECT_EQ(pool.writebacks(), 1u);
  const PoolCounters counters = pool.counters();
  EXPECT_EQ(counters.misses, 4u);
  EXPECT_EQ(counters.evictions, 2u);
  EXPECT_EQ(counters.writebacks, 1u);
}

TEST(BufferPoolTest, FlushCountsWritebacks) {
  SimulatedDisk disk;
  BufferPool pool(disk, 8);
  PageId a = disk.Allocate();
  pool.Fetch(a);
  pool.MarkDirty(a);
  pool.FlushAll();
  EXPECT_EQ(pool.writebacks(), 1u);
  pool.FlushAll();  // now clean: nothing to write back
  EXPECT_EQ(pool.writebacks(), 1u);
}

TEST(BufferPoolTest, ResetCountersZeroesStatsOnly) {
  SimulatedDisk disk;
  BufferPool pool(disk, 8);
  PageId a = disk.Allocate();
  pool.Fetch(a);
  pool.Fetch(a);
  pool.ResetCounters();
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
  // Frames survive the reset: the next fetch is still a hit.
  pool.Fetch(a);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(BufferPoolTest, ColdRestartDropsEverything) {
  SimulatedDisk disk;
  BufferPool pool(disk, 8);
  PageId a = disk.Allocate();
  pool.Fetch(a);
  pool.ColdRestart();
  pool.Fetch(a);
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(HeapFileTest, AppendAndRead) {
  SimulatedDisk disk;
  BufferPool pool(disk, 16);
  HeapFile file(disk, pool);
  RecordId a = file.Append("hello");
  RecordId b = file.Append("world!");
  EXPECT_EQ(file.Read(a), "hello");
  EXPECT_EQ(file.Read(b), "world!");
  EXPECT_EQ(file.record_count(), 2u);
}

TEST(HeapFileTest, RecordsSpanPages) {
  SimulatedDisk disk;
  BufferPool pool(disk, 16);
  HeapFile file(disk, pool);
  std::string big(3 * kPageSize + 123, 'x');
  big[0] = 'A';
  big[big.size() - 1] = 'Z';
  RecordId id = file.Append(big);
  std::string read = file.Read(id);
  EXPECT_EQ(read.size(), big.size());
  EXPECT_EQ(read.front(), 'A');
  EXPECT_EQ(read.back(), 'Z');
  EXPECT_GE(disk.PageCount(), 4u);
}

TEST(HeapFileTest, ScanVisitsInAppendOrder) {
  SimulatedDisk disk;
  BufferPool pool(disk, 16);
  HeapFile file(disk, pool);
  std::vector<std::string> payloads{"a", "bb", "ccc", std::string(9000, 'd')};
  for (const auto& p : payloads) file.Append(p);

  std::vector<std::string> seen;
  file.Scan([&](RecordId, std::string_view payload) {
    seen.emplace_back(payload);
    return true;
  });
  EXPECT_EQ(seen, payloads);
}

TEST(HeapFileTest, ScanEarlyStop) {
  SimulatedDisk disk;
  BufferPool pool(disk, 16);
  HeapFile file(disk, pool);
  for (int i = 0; i < 10; ++i) file.Append(StrCat({"r", std::to_string(i)}));
  int count = 0;
  file.Scan([&](RecordId, std::string_view) { return ++count < 3; });
  EXPECT_EQ(count, 3);
}

TEST(HeapFileTest, EmptyRecordSupported) {
  SimulatedDisk disk;
  BufferPool pool(disk, 16);
  HeapFile file(disk, pool);
  RecordId id = file.Append("");
  EXPECT_EQ(file.Read(id), "");
}

TEST(HeapFileTest, LargeScanChargesIo) {
  SimulatedDisk disk;
  BufferPool pool(disk, 4);  // smaller than the file
  HeapFile file(disk, pool);
  for (int i = 0; i < 50; ++i) file.Append(std::string(4000, 'x'));
  pool.ColdRestart();
  const uint64_t before = disk.clock().ElapsedMicros();
  file.Scan([](RecordId, std::string_view) { return true; });
  EXPECT_GT(disk.clock().ElapsedMicros(), before);
}

}  // namespace
}  // namespace xbench::storage
