#ifndef AEDB_CRYPTO_AES_H_
#define AEDB_CRYPTO_AES_H_

#include <cstdint>

#include "common/bytes.h"

namespace aedb::crypto {

/// AES-256 block cipher (FIPS 197). Only the 256-bit key size is supported,
/// matching the paper's AEAD_AES_256_CBC_HMAC_SHA_256 cell algorithm. The
/// key schedule is built here; the block functions are the active kernels
/// (AES-NI where the CPU has it, see crypto/kernels.h).
class Aes256 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 32;
  static constexpr int kRounds = 14;

  /// `key` must be exactly 32 bytes; the constructor expands the round keys.
  explicit Aes256(Slice key);

  void EncryptBlock(const uint8_t in[kBlockSize], uint8_t out[kBlockSize]) const;
  void DecryptBlock(const uint8_t in[kBlockSize], uint8_t out[kBlockSize]) const;

 private:
  /// Round keys in FIPS 197 byte order, one 16-byte block per round.
  alignas(16) uint8_t round_keys_[kBlockSize * (kRounds + 1)];
  /// Equivalent-inverse-cipher schedule (InvMixColumns applied to the middle
  /// encryption round keys), the shape both the Td tables and aesdec expect.
  alignas(16) uint8_t dec_round_keys_[kBlockSize * (kRounds + 1)];
};

}  // namespace aedb::crypto

#endif  // AEDB_CRYPTO_AES_H_
