#ifndef AEDB_CRYPTO_SHA256_H_
#define AEDB_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace aedb::crypto {

/// Incremental SHA-256 (FIPS 180-4). Used for deterministic IVs, key
/// derivation labels, attestation measurements, and signature digests.
/// Buffering and padding live here; the compression function is the active
/// kernel (SHA-NI where the CPU has it, see crypto/kernels.h).
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256() { Reset(); }

  void Reset();
  void Update(Slice data);
  /// Finalizes and returns the 32-byte digest. The object must be Reset()
  /// before reuse.
  std::array<uint8_t, kDigestSize> Finish();

  /// One-shot convenience.
  static Bytes Hash(Slice data);

 private:
  void Compress(const uint8_t* blocks, size_t nblocks);

  uint32_t state_[8];
  uint64_t total_len_;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_;
};

}  // namespace aedb::crypto

#endif  // AEDB_CRYPTO_SHA256_H_
