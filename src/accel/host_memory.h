// Byte-addressed host DRAM model shared by the "CPU" (driver, im2col) and
// the accelerator's DMA (MVIN/MVOUT). Faults in memory are outside the
// paper's fault model (assumed ECC-protected), so accesses are functional.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "tensor/tensor.h"

namespace saffire {

class HostMemory {
 public:
  explicit HostMemory(std::int64_t size_bytes);

  std::int64_t size() const { return size_; }

  std::int8_t ReadInt8(std::int64_t addr) const;
  void WriteInt8(std::int64_t addr, std::int8_t value);
  std::int32_t ReadInt32(std::int64_t addr) const;  // little-endian, aligned
  void WriteInt32(std::int64_t addr, std::int32_t value);

  // Matrix helpers: row-major, contiguous. Return the byte size written.
  std::int64_t WriteMatrix(std::int64_t addr, const Int8Tensor& matrix);
  std::int64_t WriteMatrix(std::int64_t addr, const Int32Tensor& matrix);
  Int8Tensor ReadInt8Matrix(std::int64_t addr, std::int64_t rows,
                            std::int64_t cols) const;
  Int32Tensor ReadInt32Matrix(std::int64_t addr, std::int64_t rows,
                              std::int64_t cols) const;

  // Simple bump allocator for drivers staging operands; `alignment` must be
  // a power of two. Throws when DRAM is exhausted.
  std::int64_t Allocate(std::int64_t bytes, std::int64_t alignment = 64);
  // Releases everything allocated so far (the driver frees per-operation).
  void FreeAll() { next_free_ = 0; }

 private:
  struct FreeBytes {
    void operator()(std::uint8_t* bytes) const { std::free(bytes); }
  };

  void CheckRange(std::int64_t addr, std::int64_t bytes) const;

  // calloc'd rather than zero-filled up front: a block this large comes from
  // a fresh anonymous mapping, so each page is faulted in, already zero, only
  // when first touched. A default 64 MiB DRAM costs what a run stages in it.
  std::unique_ptr<std::uint8_t[], FreeBytes> bytes_;
  std::int64_t size_ = 0;
  std::int64_t next_free_ = 0;
};

}  // namespace saffire
