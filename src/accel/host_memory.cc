#include "accel/host_memory.h"

#include "common/check.h"

namespace saffire {

HostMemory::HostMemory(std::int64_t size_bytes) {
  SAFFIRE_CHECK_MSG(size_bytes > 0 && size_bytes <= (std::int64_t{1} << 32),
                    "size_bytes=" << size_bytes);
  bytes_.reset(static_cast<std::uint8_t*>(
      std::calloc(static_cast<std::size_t>(size_bytes), 1)));
  SAFFIRE_CHECK_MSG(bytes_ != nullptr,
                    "cannot allocate " << size_bytes << " bytes of DRAM");
  size_ = size_bytes;
}

void HostMemory::CheckRange(std::int64_t addr, std::int64_t bytes) const {
  SAFFIRE_CHECK_MSG(addr >= 0 && bytes >= 0 && addr + bytes <= size(),
                    "access [" << addr << ", " << addr + bytes
                               << ") out of DRAM size " << size());
}

std::int8_t HostMemory::ReadInt8(std::int64_t addr) const {
  CheckRange(addr, 1);
  return static_cast<std::int8_t>(bytes_[static_cast<std::size_t>(addr)]);
}

void HostMemory::WriteInt8(std::int64_t addr, std::int8_t value) {
  CheckRange(addr, 1);
  bytes_[static_cast<std::size_t>(addr)] = static_cast<std::uint8_t>(value);
}

std::int32_t HostMemory::ReadInt32(std::int64_t addr) const {
  CheckRange(addr, 4);
  SAFFIRE_CHECK_MSG(addr % 4 == 0, "unaligned int32 read at " << addr);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | bytes_[static_cast<std::size_t>(addr + i)];
  }
  return static_cast<std::int32_t>(v);
}

void HostMemory::WriteInt32(std::int64_t addr, std::int32_t value) {
  CheckRange(addr, 4);
  SAFFIRE_CHECK_MSG(addr % 4 == 0, "unaligned int32 write at " << addr);
  auto v = static_cast<std::uint32_t>(value);
  for (int i = 0; i < 4; ++i) {
    bytes_[static_cast<std::size_t>(addr + i)] =
        static_cast<std::uint8_t>(v & 0xFF);
    v >>= 8;
  }
}

std::int64_t HostMemory::WriteMatrix(std::int64_t addr,
                                     const Int8Tensor& matrix) {
  SAFFIRE_CHECK(matrix.rank() == 2);
  CheckRange(addr, matrix.size());
  for (std::int64_t i = 0; i < matrix.size(); ++i) {
    WriteInt8(addr + i, matrix.flat(i));
  }
  return matrix.size();
}

std::int64_t HostMemory::WriteMatrix(std::int64_t addr,
                                     const Int32Tensor& matrix) {
  SAFFIRE_CHECK(matrix.rank() == 2);
  CheckRange(addr, matrix.size() * 4);
  for (std::int64_t i = 0; i < matrix.size(); ++i) {
    WriteInt32(addr + i * 4, matrix.flat(i));
  }
  return matrix.size() * 4;
}

Int8Tensor HostMemory::ReadInt8Matrix(std::int64_t addr, std::int64_t rows,
                                      std::int64_t cols) const {
  Int8Tensor out({rows, cols});
  CheckRange(addr, out.size());
  for (std::int64_t i = 0; i < out.size(); ++i) {
    out.flat(i) = ReadInt8(addr + i);
  }
  return out;
}

Int32Tensor HostMemory::ReadInt32Matrix(std::int64_t addr, std::int64_t rows,
                                        std::int64_t cols) const {
  Int32Tensor out({rows, cols});
  CheckRange(addr, out.size() * 4);
  for (std::int64_t i = 0; i < out.size(); ++i) {
    out.flat(i) = ReadInt32(addr + i * 4);
  }
  return out;
}

std::int64_t HostMemory::Allocate(std::int64_t bytes, std::int64_t alignment) {
  SAFFIRE_CHECK_MSG(bytes > 0, "bytes=" << bytes);
  SAFFIRE_CHECK_MSG(alignment > 0 && (alignment & (alignment - 1)) == 0,
                    "alignment=" << alignment);
  const std::int64_t aligned = (next_free_ + alignment - 1) & ~(alignment - 1);
  SAFFIRE_CHECK_MSG(aligned + bytes <= size(),
                    "DRAM exhausted: need " << bytes << " at " << aligned
                                            << ", size " << size());
  next_free_ = aligned + bytes;
  return aligned;
}

}  // namespace saffire
