#include "crypto/cell_codec.h"

#include <cassert>

#include "crypto/cbc.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"

namespace aedb::crypto {

namespace {

// Derivation labels mirror the product's (MS-TDS documented) strings.
constexpr std::string_view kEncLabel =
    "Microsoft SQL Server cell encryption key with encryption algorithm:"
    "AEAD_AES_256_CBC_HMAC_SHA_256 and key length:256";
constexpr std::string_view kMacLabel =
    "Microsoft SQL Server cell MAC key with encryption algorithm:"
    "AEAD_AES_256_CBC_HMAC_SHA_256 and key length:256";
constexpr std::string_view kIvLabel =
    "Microsoft SQL Server cell IV key with encryption algorithm:"
    "AEAD_AES_256_CBC_HMAC_SHA_256 and key length:256";

Bytes DeriveKey(Slice cek, std::string_view label) {
  return HmacSha256::Mac(cek, Utf16LeBytes(label));
}

}  // namespace

const char* EncryptionSchemeName(EncryptionScheme scheme) {
  switch (scheme) {
    case EncryptionScheme::kDeterministic: return "Deterministic";
    case EncryptionScheme::kRandomized: return "Randomized";
  }
  return "Unknown";
}

CellCodec::CellCodec(Slice cek)
    : enc_cipher_(Slice(DeriveKey(cek, kEncLabel))),
      mac_proto_(Slice(DeriveKey(cek, kMacLabel))),
      iv_proto_(Slice(DeriveKey(cek, kIvLabel))) {
  assert(cek.size() == 32);
}

Bytes CellCodec::ComputeMac(Slice iv, Slice ciphertext) const {
  HmacSha256 mac = mac_proto_;
  uint8_t version = kAlgorithmVersion;
  mac.Update(Slice(&version, 1));
  mac.Update(iv);
  mac.Update(ciphertext);
  return mac.Finish();
}

Bytes CellCodec::Encrypt(Slice plaintext, EncryptionScheme scheme) const {
  Bytes iv;
  if (scheme == EncryptionScheme::kDeterministic) {
    // IV = HMAC(iv_key, plaintext) truncated to the block size: whole-value
    // determinism (paper §2.3 — stronger than per-block ECB determinism).
    HmacSha256 mac = iv_proto_;
    mac.Update(plaintext);
    iv = mac.Finish();
    iv.resize(kIvSize);
  } else {
    iv = SecureRandom(kIvSize);
  }
  Bytes ciphertext = CbcEncrypt(enc_cipher_, iv, plaintext);
  Bytes mac = ComputeMac(iv, ciphertext);

  Bytes cell;
  cell.reserve(1 + mac.size() + iv.size() + ciphertext.size());
  cell.push_back(kAlgorithmVersion);
  cell.insert(cell.end(), mac.begin(), mac.end());
  cell.insert(cell.end(), iv.begin(), iv.end());
  cell.insert(cell.end(), ciphertext.begin(), ciphertext.end());
  return cell;
}

Result<Bytes> CellCodec::Decrypt(Slice cell) const {
  if (cell.size() < kMinCellSize) {
    return Status::Corruption("encrypted cell too short");
  }
  if (cell[0] != kAlgorithmVersion) {
    return Status::Corruption("unknown cell algorithm version");
  }
  Slice mac = cell.subslice(1, kMacSize);
  Slice iv = cell.subslice(1 + kMacSize, kIvSize);
  Slice ciphertext = cell.subslice(1 + kMacSize + kIvSize,
                                   cell.size() - 1 - kMacSize - kIvSize);
  Bytes expected = ComputeMac(iv, ciphertext);
  if (!ConstantTimeEquals(mac, expected)) {
    return Status::SecurityError("cell MAC verification failed");
  }
  return CbcDecrypt(enc_cipher_, iv, ciphertext);
}

}  // namespace aedb::crypto
