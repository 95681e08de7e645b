#ifndef AEDB_CRYPTO_DRBG_H_
#define AEDB_CRYPTO_DRBG_H_

#include "common/bytes.h"
#include "crypto/hmac.h"

namespace aedb::crypto {

/// HMAC-DRBG (SP 800-90A) over HMAC-SHA-256. All key material, IVs, nonces
/// and DH exponents in the system come from this generator.
class HmacDrbg {
 public:
  /// Instantiates with the given entropy input (plus optional personalization
  /// string, e.g. a component name).
  explicit HmacDrbg(Slice entropy, Slice personalization = Slice());

  /// Fills `out[0..n)` with pseudorandom bytes.
  void Generate(uint8_t* out, size_t n);
  Bytes Generate(size_t n);

  /// Mixes additional entropy into the state.
  void Reseed(Slice entropy);

 private:
  void UpdateState(Slice provided);
  /// V = HMAC(K, V), from the keyed midstate.
  void StepV();

  /// K as a keyed HMAC midstate, rebuilt only when K changes, so each
  /// HMAC(K, ...) costs its data compressions alone.
  HmacSha256 key_;
  Bytes v_;  // V
};

/// Process-wide DRBG seeded from std::random_device; thread-safe via a
/// thread_local instance. Use for all secrets.
void SecureRandom(uint8_t* out, size_t n);
Bytes SecureRandom(size_t n);

}  // namespace aedb::crypto

#endif  // AEDB_CRYPTO_DRBG_H_
