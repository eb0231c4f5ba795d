// Tests for the DRAM model: functional store, allocation, and the banked
// open-page timing behaviour the GEMM case study depends on.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/memory.hpp"

namespace hlsprof::sim {
namespace {

DramParams default_params() { return DramParams{}; }

/// Resident set size of this process in KiB (`VmRSS` in /proc).
long long vm_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

TEST(Memory, FunctionalReadWriteRoundTrip) {
  ExternalMemory mem(default_params(), 4096);
  const float v = 3.5f;
  mem.write_scalar(64, v);
  EXPECT_EQ(mem.read_scalar<float>(64), 3.5f);
  mem.write_scalar<std::int64_t>(128, -7);
  EXPECT_EQ(mem.read_scalar<std::int64_t>(128), -7);
}

TEST(Memory, BulkBytes) {
  ExternalMemory mem(default_params(), 4096);
  std::uint8_t src[16];
  for (int i = 0; i < 16; ++i) src[i] = std::uint8_t(i);
  mem.write_bytes(100, src, 16);
  std::uint8_t dst[16] = {};
  mem.read_bytes(100, dst, 16);
  EXPECT_EQ(std::memcmp(src, dst, 16), 0);
}

TEST(Memory, OutOfRangeAccessThrows) {
  ExternalMemory mem(default_params(), 128);
  std::uint8_t b = 0;
  EXPECT_THROW(mem.write_bytes(127, &b, 2), Error);
  EXPECT_THROW(mem.read_bytes(128, &b, 1), Error);
}

TEST(Memory, WrappingAddressThrows) {
  // `addr + n` wraps past 2^64 for addresses near the top; the bounds
  // check must still reject these rather than touch memory off the end.
  ExternalMemory mem(default_params(), 128);
  const addr_t top = ~addr_t{0} - 3;
  std::uint8_t buf[8] = {};
  EXPECT_THROW(mem.read_bytes(top, buf, 8), Error);
  EXPECT_THROW(mem.write_bytes(top, buf, 8), Error);
  EXPECT_THROW(mem.read_scalar<std::uint64_t>(top), Error);
  EXPECT_THROW(mem.write_scalar<std::uint64_t>(top, 1), Error);
}

TEST(Memory, UntouchedBytesReadAsZero) {
  constexpr std::size_t cap = std::size_t{4} << 20;
  ExternalMemory mem(default_params(), cap);
  const addr_t base = mem.allocate("all", cap);
  EXPECT_EQ(base, 0u);
  EXPECT_EQ(mem.read_scalar<std::uint8_t>(0), 0);
  EXPECT_EQ(mem.read_scalar<std::uint8_t>(cap - 1), 0);
  std::vector<std::uint8_t> span(8192, 0xAA);
  mem.read_bytes(cap / 2, span.data(), span.size());
  for (std::uint8_t b : span) ASSERT_EQ(b, 0);

  // A written region leaves its neighbours zero.
  const std::vector<std::uint8_t> ones(256, 0xFF);
  const addr_t at = cap / 4;
  mem.write_bytes(at, ones.data(), ones.size());
  EXPECT_EQ(mem.read_scalar<std::uint8_t>(at - 1), 0);
  EXPECT_EQ(mem.read_scalar<std::uint8_t>(at), 0xFF);
  EXPECT_EQ(mem.read_scalar<std::uint8_t>(at + ones.size() - 1), 0xFF);
  EXPECT_EQ(mem.read_scalar<std::uint8_t>(at + ones.size()), 0);
}

TEST(Memory, LargeCapacityCommitsOnlyTouchedPages) {
  // Capacity is reserved address space: a 1 GiB store whose last bytes
  // are the only ones touched must not become resident.
  const long long before = vm_rss_kib();
  ASSERT_GT(before, 0) << "cannot read VmRSS from /proc/self/status";
  constexpr std::size_t cap = std::size_t{1} << 30;
  ExternalMemory mem(default_params(), cap);
  EXPECT_EQ(mem.capacity(), cap);
  mem.write_scalar<std::int64_t>(cap - 8, -42);
  EXPECT_EQ(mem.read_scalar<std::int64_t>(cap - 8), -42);
  EXPECT_LT(vm_rss_kib() - before, 16 * 1024);
}

TEST(Memory, ZeroCapacityRejectsEveryAccess) {
  ExternalMemory mem(default_params(), 0);
  EXPECT_EQ(mem.capacity(), 0u);
  std::uint8_t b = 0;
  EXPECT_THROW(mem.allocate("one", 1), Error);
  EXPECT_THROW(mem.read_bytes(0, &b, 1), Error);
  EXPECT_THROW(mem.write_bytes(0, &b, 1), Error);
  EXPECT_THROW(mem.read_scalar<std::uint8_t>(0), Error);
  EXPECT_THROW(mem.write_scalar<std::uint8_t>(0, 1), Error);
}

TEST(Memory, AllocationIsAligned) {
  ExternalMemory mem(default_params(), 1 << 16);
  const addr_t a = mem.allocate("a", 10);
  const addr_t b = mem.allocate("b", 10);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
}

TEST(Memory, AllocationExhaustionThrows) {
  ExternalMemory mem(default_params(), 256);
  (void)mem.allocate("a", 200);
  EXPECT_THROW(mem.allocate("b", 200), Error);
}

TEST(Memory, HugeAllocationDoesNotOverflow) {
  // `aligned + bytes` used to wrap around addr_t for near-SIZE_MAX
  // requests, making the bounds check pass and allocate() hand out an
  // address far past capacity. Must throw instead.
  ExternalMemory mem(default_params(), 1 << 16);
  EXPECT_THROW(mem.allocate("huge", ~std::size_t{0} - 32), Error);
  EXPECT_THROW(mem.allocate("huge2", ~std::size_t{0}), Error);
  // The failed attempts must not corrupt the allocator.
  const addr_t a = mem.allocate("ok", 128);
  EXPECT_EQ(a % 64, 0u);
}

TEST(Memory, RowMissThenHit) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  const MemTiming first = mem.access(0, 0, 4, false);
  EXPECT_FALSE(first.row_hit);
  const MemTiming second = mem.access(100, 4, 4, false);
  EXPECT_TRUE(second.row_hit);
  EXPECT_LT(second.complete - second.accepted,
            first.complete - first.accepted);
}

TEST(Memory, HitLatencyMatchesParams) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  (void)mem.access(0, 0, 4, false);  // open the row
  const MemTiming hit = mem.access(1000, 8, 4, false);
  EXPECT_EQ(hit.complete, hit.accepted + p.base_latency);
}

TEST(Memory, MissLatencyIncludesPenalty) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  const MemTiming miss = mem.access(0, 0, 4, false);
  EXPECT_EQ(miss.complete, miss.accepted + p.base_latency +
                               p.row_miss_penalty);
}

TEST(Memory, DifferentRowsDifferentBanksOverlap) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  // Rows 0..3 land on banks 0..3 (row-granular interleave): back-to-back
  // requests at t=0,1,2,3 should all start service immediately after bus
  // acceptance, not queue behind one bank.
  cycle_t prev_complete = 0;
  for (int r = 0; r < 4; ++r) {
    const MemTiming t =
        mem.access(cycle_t(r), addr_t(r) * p.row_bytes, 4, false);
    EXPECT_EQ(t.accepted, cycle_t(r));  // bus free each cycle
    if (r > 0) {
      EXPECT_LE(t.complete, prev_complete + 2);
    }
    prev_complete = t.complete;
  }
}

TEST(Memory, SameBankQueues) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  // Same row id + num_banks stride -> same bank, different row -> the
  // second request waits for the first bank occupancy and misses again.
  const MemTiming a = mem.access(0, 0, 4, false);
  const MemTiming b =
      mem.access(1, addr_t(p.num_banks) * p.row_bytes, 4, false);
  EXPECT_FALSE(b.row_hit);
  EXPECT_GT(b.complete, a.complete);
}

TEST(Memory, BusSerializesAcceptance) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  const MemTiming a = mem.access(10, 0, 4, false);
  const MemTiming b = mem.access(10, 2048, 4, false);
  EXPECT_EQ(a.accepted, 10u);
  EXPECT_EQ(b.accepted, 10u + p.bus_accept_interval);
}

TEST(Memory, PostedWritesCompleteAtServiceStart) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  const MemTiming w = mem.access(5, 0, 4, true);
  // The thread only waits for acceptance into the bank queue.
  EXPECT_LT(w.complete, w.accepted + p.base_latency);
}

TEST(Memory, WideRequestsOccupyMoreBeats) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  (void)mem.access(0, 0, 4, false);  // open row 0
  // 128-byte request = 2 lines; a following same-row access queues behind
  // 2 hit-occupancy beats rather than 1.
  const MemTiming wide = mem.access(100, 64, 128, false);
  const MemTiming next = mem.access(100, 256, 4, false);
  EXPECT_TRUE(wide.row_hit);
  EXPECT_GE(next.complete, wide.accepted + 2 * p.hit_occupancy);
}

TEST(Memory, StatisticsAccumulate) {
  ExternalMemory mem(default_params(), 1 << 20);
  (void)mem.access(0, 0, 16, false);
  (void)mem.access(1, 16, 16, false);
  (void)mem.access(2, 0, 64, true);
  EXPECT_EQ(mem.reads(), 2);
  EXPECT_EQ(mem.writes(), 1);
  EXPECT_EQ(mem.bytes_read(), 32);
  EXPECT_EQ(mem.bytes_written(), 64);
  EXPECT_EQ(mem.row_hits() + mem.row_misses(), 3);
}

TEST(Memory, RejectsBadGeometry) {
  DramParams p;
  p.num_banks = 0;
  EXPECT_THROW(ExternalMemory(p, 1024), Error);
  DramParams q;
  q.row_bytes = 16;
  q.line_bytes = 64;
  EXPECT_THROW(ExternalMemory(q, 1024), Error);
}

}  // namespace
}  // namespace hlsprof::sim
