#ifndef AEDB_CRYPTO_KERNELS_H_
#define AEDB_CRYPTO_KERNELS_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define AEDB_CRYPTO_X86 1
#endif

namespace aedb::crypto::internal {

/// \brief The block-level kernels under `Sha256` and `Aes256`.
///
/// Everything above the block — SHA-256 padding, HMAC, CBC, `CellCodec`,
/// the DRBG, RSA/OAEP and attestation — is shared by every kernel set, so
/// each set computes exactly the same functions and only their speed differs.
/// AES round keys are the FIPS 197 byte-order schedule (15 × 16 bytes); the
/// decryption schedule is the equivalent inverse cipher's (InvMixColumns
/// applied to the middle round keys), which is what both the portable
/// Td-table code and `aesdec` expect.
struct Kernels {
  const char* name;
  /// Compresses `nblocks` consecutive 64-byte blocks into `state`.
  void (*sha256_compress)(uint32_t state[8], const uint8_t* blocks,
                          size_t nblocks);
  void (*aes256_encrypt)(const uint8_t* round_keys, const uint8_t in[16],
                         uint8_t out[16]);
  void (*aes256_decrypt)(const uint8_t* dec_round_keys, const uint8_t in[16],
                         uint8_t out[16]);
};

/// FIPS 180-4 reference compression and T-table AES: the fallback on CPUs
/// without the instructions, and the oracle the tests compare against.
const Kernels& PortableKernels();

/// SHA-NI and AES-NI where CPUID reports them; each instruction set the CPU
/// lacks falls back to its portable kernel.
const Kernels& HardwareKernels();
bool CpuHasShaNi();
bool CpuHasAesNi();

/// The kernels every `Sha256` and `Aes256` runs: `HardwareKernels()`,
/// chosen once on first use.
const Kernels& ActiveKernels();

/// Routes every `Sha256` and `Aes256` in the process through `kernels` for
/// the guard's lifetime, so a test or benchmark can run the same code above
/// the block level on both paths. Since all kernel sets compute the same
/// functions, a switch while other threads hash or encrypt is harmless.
class ScopedKernels {
 public:
  explicit ScopedKernels(const Kernels& kernels);
  ~ScopedKernels();
  ScopedKernels(const ScopedKernels&) = delete;
  ScopedKernels& operator=(const ScopedKernels&) = delete;

 private:
  const Kernels* previous_;
};

// The kernels, defined beside the classes they serve. The hardware ones are
// compiled for their instruction sets through target attributes, so the rest
// of the build keeps its flags; they fault on a CPU without them and are
// reached only when CpuHas*() holds.
void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t nblocks);
void Aes256EncryptPortable(const uint8_t* round_keys, const uint8_t in[16],
                           uint8_t out[16]);
void Aes256DecryptPortable(const uint8_t* dec_round_keys, const uint8_t in[16],
                           uint8_t out[16]);
#ifdef AEDB_CRYPTO_X86
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* blocks,
                         size_t nblocks);
void Aes256EncryptAesNi(const uint8_t* round_keys, const uint8_t in[16],
                        uint8_t out[16]);
void Aes256DecryptAesNi(const uint8_t* dec_round_keys, const uint8_t in[16],
                        uint8_t out[16]);
#endif

}  // namespace aedb::crypto::internal

#endif  // AEDB_CRYPTO_KERNELS_H_
