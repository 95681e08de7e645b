#include "crypto/sha256.h"

#include <cstring>

#include "crypto/kernels.h"

#ifdef AEDB_CRYPTO_X86
#include <immintrin.h>
#endif

namespace aedb::crypto {

namespace {

alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

namespace {

void CompressBlock(uint32_t state[8], const uint8_t* p) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(p[4 * i]) << 24) |
           (static_cast<uint32_t>(p[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(p[4 * i + 2]) << 8) |
           static_cast<uint32_t>(p[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

namespace internal {

void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += Sha256::kBlockSize) {
    CompressBlock(state, blocks);
  }
}

#ifdef AEDB_CRYPTO_X86
// SHA-NI keeps the working variables as two vectors, ABEF and CDGH; each
// sha256rnds2 runs two rounds, and sha256msg1/msg2 extend the message
// schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void Sha256CompressShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // the last four message groups, w[g % 4] = W[g]
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i m;
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kByteSwap);
      } else {
        // W[g] = msg2(msg1(W[g-4], W[g-3]) + words 4g-7..4g-4, W[g-1])
        m = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        m = _mm_add_epi32(
            m, _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, w[(g + 3) & 3]);
      }
      w[g & 3] = m;
      __m128i wk = _mm_add_epi32(
          m, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif  // AEDB_CRYPTO_X86

}  // namespace internal

void Sha256::Compress(const uint8_t* blocks, size_t nblocks) {
  internal::ActiveKernels().sha256_compress(state_, blocks, nblocks);
}

void Sha256::Update(Slice data) {
  if (data.empty()) return;  // memcpy from a null Slice::data() is UB
  total_len_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (buffer_len_ > 0) {
    size_t take = kBlockSize - buffer_len_;
    if (take > n) take = n;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == kBlockSize) {
      Compress(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (n >= kBlockSize) {
    Compress(p, n / kBlockSize);
    p += n - n % kBlockSize;
    n %= kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  // Pad in one pass: the buffered bytes, 0x80, zeros, and the 64-bit
  // big-endian bit length fill one block, or two when fewer than 9 bytes of
  // the first are free.
  uint8_t tail[2 * kBlockSize] = {};
  std::memcpy(tail, buffer_, buffer_len_);
  tail[buffer_len_] = 0x80;
  size_t tail_len = buffer_len_ + 9 <= kBlockSize ? kBlockSize : 2 * kBlockSize;
  uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(tail, tail_len / kBlockSize);
  std::array<uint8_t, kDigestSize> out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Bytes Sha256::Hash(Slice data) {
  Sha256 h;
  h.Update(data);
  auto d = h.Finish();
  return Bytes(d.begin(), d.end());
}

}  // namespace aedb::crypto
