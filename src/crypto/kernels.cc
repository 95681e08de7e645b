#include "crypto/kernels.h"

#include <atomic>

namespace aedb::crypto::internal {

namespace {

struct CpuFeatures {
  bool sha_ni = false;
  bool aes_ni = false;
};

CpuFeatures DetectCpu() {
  CpuFeatures f;
#ifdef AEDB_CRYPTO_X86
  // Detection may run from another translation unit's static initializer,
  // before libgcc's own constructor has filled in the CPU model.
  __builtin_cpu_init();
  f.sha_ni = __builtin_cpu_supports("sha") &&
             __builtin_cpu_supports("sse4.1");
  f.aes_ni = __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse2");
#endif
  return f;
}

const CpuFeatures& Cpu() {
  static const CpuFeatures features = DetectCpu();
  return features;
}

Kernels MakeHardwareKernels() {
  Kernels k = PortableKernels();
#ifdef AEDB_CRYPTO_X86
  if (Cpu().sha_ni) k.sha256_compress = Sha256CompressShaNi;
  if (Cpu().aes_ni) {
    k.aes256_encrypt = Aes256EncryptAesNi;
    k.aes256_decrypt = Aes256DecryptAesNi;
  }
#endif
  if (Cpu().sha_ni) {
    k.name = Cpu().aes_ni ? "sha-ni+aes-ni" : "sha-ni+portable-aes";
  } else if (Cpu().aes_ni) {
    k.name = "portable-sha256+aes-ni";
  }
  return k;
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const Kernels& PortableKernels() {
  static const Kernels kernels{"portable", Sha256CompressPortable,
                               Aes256EncryptPortable, Aes256DecryptPortable};
  return kernels;
}

const Kernels& HardwareKernels() {
  static const Kernels kernels = MakeHardwareKernels();
  return kernels;
}

bool CpuHasShaNi() { return Cpu().sha_ni; }
bool CpuHasAesNi() { return Cpu().aes_ni; }

const Kernels& ActiveKernels() {
  const Kernels* k = g_active.load();
  if (__builtin_expect(k == nullptr, 0)) {
    // First use; a ScopedKernels installed meanwhile wins.
    const Kernels* expected = nullptr;
    g_active.compare_exchange_strong(expected, &HardwareKernels());
    k = g_active.load();
  }
  return *k;
}

ScopedKernels::ScopedKernels(const Kernels& kernels)
    : previous_(&ActiveKernels()) {
  g_active.store(&kernels);
}

ScopedKernels::~ScopedKernels() { g_active.store(previous_); }

}  // namespace aedb::crypto::internal
