#ifndef AEDB_CRYPTO_CELL_CODEC_H_
#define AEDB_CRYPTO_CELL_CODEC_H_

#include <memory>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"

namespace aedb::crypto {

/// Cell-level encryption scheme (paper §2.3).
enum class EncryptionScheme : uint8_t {
  /// AES-CBC with an IV derived from an HMAC of the plaintext: equal
  /// plaintexts yield equal ciphertexts (whole-value determinism, stronger
  /// than ECB's per-block determinism). Leaks the frequency distribution.
  kDeterministic = 1,
  /// IND-CPA-secure AES-CBC with a random IV.
  kRandomized = 2,
};

const char* EncryptionSchemeName(EncryptionScheme scheme);

/// \brief Implements AEAD_AES_256_CBC_HMAC_SHA_256, the cell encryption
/// algorithm of Always Encrypted (paper §2.3, Figure 1).
///
/// From the 32-byte column encryption key (CEK), three keys are derived with
/// HMAC-SHA-256 over UTF-16LE labels: an AES-256 encryption key, a MAC key and
/// an IV-generation key (the latter used only by the deterministic variant).
///
/// Cell layout:  version(1) | MAC(32) | IV(16) | AES-256-CBC ciphertext
///
/// The MAC authenticates version || IV || ciphertext. Per the paper, the MAC
/// is a *usability* feature (detecting garbage cells), not an integrity
/// guarantee against the strong adversary.
class CellCodec {
 public:
  static constexpr uint8_t kAlgorithmVersion = 0x01;
  static constexpr size_t kMacSize = 32;
  static constexpr size_t kIvSize = 16;
  /// version + MAC + IV + at least one AES block of ciphertext.
  static constexpr size_t kMinCellSize = 1 + kMacSize + kIvSize + 16;

  /// `cek` must be 32 bytes of key material.
  explicit CellCodec(Slice cek);

  /// Encrypts one cell value.
  Bytes Encrypt(Slice plaintext, EncryptionScheme scheme) const;

  /// Verifies the MAC and decrypts; fails with SecurityError on MAC mismatch
  /// and Corruption on malformed cells.
  Result<Bytes> Decrypt(Slice cell) const;

  /// Cheap structural check used by ingest paths (does not verify the MAC).
  static bool LooksLikeCell(Slice cell) {
    return cell.size() >= kMinCellSize && cell[0] == kAlgorithmVersion;
  }

 private:
  Bytes ComputeMac(Slice iv, Slice ciphertext) const;

  Aes256 enc_cipher_;
  /// Keyed HMAC midstates (MAC key, DET IV key), copied per cell so the
  /// per-cell cost is data compressions only (the codec is cached per CEK;
  /// cells are tiny).
  HmacSha256 mac_proto_;
  HmacSha256 iv_proto_;
};

}  // namespace aedb::crypto

#endif  // AEDB_CRYPTO_CELL_CODEC_H_
