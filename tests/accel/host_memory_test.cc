#include "accel/host_memory.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "accel/controller.h"

namespace saffire {
namespace {

TEST(HostMemoryTest, Int8RoundTrip) {
  HostMemory mem(1024);
  mem.WriteInt8(0, -7);
  mem.WriteInt8(1023, 42);
  EXPECT_EQ(mem.ReadInt8(0), -7);
  EXPECT_EQ(mem.ReadInt8(1023), 42);
}

TEST(HostMemoryTest, Int32RoundTripLittleEndian) {
  HostMemory mem(1024);
  mem.WriteInt32(4, -123456789);
  EXPECT_EQ(mem.ReadInt32(4), -123456789);
  // Little-endian byte order.
  mem.WriteInt32(8, 0x01020304);
  EXPECT_EQ(mem.ReadInt8(8), 0x04);
  EXPECT_EQ(mem.ReadInt8(11), 0x01);
}

TEST(HostMemoryTest, BoundsChecked) {
  HostMemory mem(64);
  EXPECT_THROW(mem.ReadInt8(64), std::invalid_argument);
  EXPECT_THROW(mem.ReadInt8(-1), std::invalid_argument);
  EXPECT_THROW(mem.WriteInt32(61, 0), std::invalid_argument);
  EXPECT_THROW(mem.ReadInt32(64), std::invalid_argument);
}

TEST(HostMemoryTest, AlignmentEnforcedForInt32) {
  HostMemory mem(64);
  EXPECT_THROW(mem.ReadInt32(2), std::invalid_argument);
  EXPECT_THROW(mem.WriteInt32(6, 1), std::invalid_argument);
}

TEST(HostMemoryTest, MatrixRoundTrip) {
  HostMemory mem(4096);
  const auto m8 = Int8Tensor::FromRows({{1, -2, 3}, {4, 5, -6}});
  EXPECT_EQ(mem.WriteMatrix(0, m8), 6);
  EXPECT_EQ(mem.ReadInt8Matrix(0, 2, 3), m8);

  const auto m32 = Int32Tensor::FromRows({{100000, -2}, {3, 4}});
  EXPECT_EQ(mem.WriteMatrix(64, m32), 16);
  EXPECT_EQ(mem.ReadInt32Matrix(64, 2, 2), m32);
}

TEST(HostMemoryTest, AllocatorAlignsAndExhausts) {
  HostMemory mem(256);
  const auto a = mem.Allocate(10, 64);
  const auto b = mem.Allocate(10, 64);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 64);
  EXPECT_THROW(mem.Allocate(1000), std::invalid_argument);
  mem.FreeAll();
  EXPECT_EQ(mem.Allocate(10, 64), 0);
}

TEST(HostMemoryTest, AllocatorRejectsBadArgs) {
  HostMemory mem(256);
  EXPECT_THROW(mem.Allocate(0), std::invalid_argument);
  EXPECT_THROW(mem.Allocate(8, 3), std::invalid_argument);
}

// The storage is taken lazily from the OS, so untouched bytes must still
// read as zero anywhere in a full default-size DRAM.
TEST(HostMemoryTest, NeverWrittenBytesReadZero) {
  const std::int64_t size = AccelConfig{}.dram_bytes;
  HostMemory mem(size);
  EXPECT_EQ(mem.size(), size);
  for (const std::int64_t addr : {std::int64_t{0}, size / 2, size - 4}) {
    EXPECT_EQ(mem.ReadInt8(addr), 0) << addr;
    EXPECT_EQ(mem.ReadInt32(addr), 0) << addr;
  }
  EXPECT_EQ(mem.ReadInt8(size - 1), 0);

  mem.WriteInt32(mem.Allocate(4), -1);
  mem.FreeAll();
  const std::int64_t fresh = mem.Allocate(256);
  EXPECT_EQ(mem.ReadInt32(fresh + 4), 0);
  EXPECT_EQ(mem.ReadInt8(fresh + 255), 0);
  EXPECT_EQ(mem.size(), size);
}

TEST(HostMemoryTest, RejectsBadSizes) {
  EXPECT_THROW(HostMemory(0), std::invalid_argument);
  EXPECT_THROW(HostMemory(-5), std::invalid_argument);
}

}  // namespace
}  // namespace saffire
