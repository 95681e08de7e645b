#include "crypto/aes.h"

#include <cassert>
#include <cstring>

#include "crypto/kernels.h"

#ifdef AEDB_CRYPTO_X86
#include <immintrin.h>
#endif

namespace aedb::crypto {

namespace {

// GF(2^8) multiply with the AES reduction polynomial x^8+x^4+x^3+x+1.
constexpr uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    bool hi = a & 0x80;
    a = static_cast<uint8_t>(a << 1);
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

struct SboxTables {
  uint8_t sbox[256] = {};
  uint8_t inv_sbox[256] = {};
};

// Generates the S-box from first principles (multiplicative inverse followed
// by the affine transform) instead of a hand-typed table.
constexpr SboxTables MakeSboxTables() {
  SboxTables t{};
  // Multiplicative inverses by brute force; inv(0) = 0 by convention.
  uint8_t inv[256] = {};
  for (int a = 1; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      if (GfMul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)) == 1) {
        inv[a] = static_cast<uint8_t>(b);
        break;
      }
    }
  }
  for (int i = 0; i < 256; ++i) {
    uint8_t x = inv[i];
    uint8_t y = static_cast<uint8_t>(
        x ^ static_cast<uint8_t>((x << 1) | (x >> 7)) ^
        static_cast<uint8_t>((x << 2) | (x >> 6)) ^
        static_cast<uint8_t>((x << 3) | (x >> 5)) ^
        static_cast<uint8_t>((x << 4) | (x >> 4)) ^ 0x63);
    t.sbox[i] = y;
    t.inv_sbox[y] = static_cast<uint8_t>(i);
  }
  return t;
}

constexpr SboxTables kTables = MakeSboxTables();

// T-tables fusing SubBytes + ShiftRows + MixColumns into four 256-entry word
// lookups per state column (the classic software formulation). Generated at
// compile time from the same GF(2^8) arithmetic as the S-box: Te0[x] packs
// the MixColumns contribution of S[x] landing in row 0 of a column —
// (2·S, S, S, 3·S) big-endian — and Te1..Te3 are its byte rotations. The
// decryption tables Td0..Td3 pack InvMixColumns of InvS[x]: (14, 9, 13, 11).
struct RoundTables {
  uint32_t te[4][256] = {};
  uint32_t td[4][256] = {};
};

constexpr uint32_t Ror8(uint32_t w) { return (w >> 8) | (w << 24); }

constexpr RoundTables MakeRoundTables() {
  RoundTables t{};
  for (int x = 0; x < 256; ++x) {
    uint8_t s = kTables.sbox[x];
    uint32_t e = (static_cast<uint32_t>(GfMul(s, 2)) << 24) |
                 (static_cast<uint32_t>(s) << 16) |
                 (static_cast<uint32_t>(s) << 8) |
                 static_cast<uint32_t>(GfMul(s, 3));
    uint8_t is = kTables.inv_sbox[x];
    uint32_t d = (static_cast<uint32_t>(GfMul(is, 14)) << 24) |
                 (static_cast<uint32_t>(GfMul(is, 9)) << 16) |
                 (static_cast<uint32_t>(GfMul(is, 13)) << 8) |
                 static_cast<uint32_t>(GfMul(is, 11));
    for (int r = 0; r < 4; ++r) {
      t.te[r][x] = e;
      t.td[r][x] = d;
      e = Ror8(e);
      d = Ror8(d);
    }
  }
  return t;
}

constexpr RoundTables kRound = MakeRoundTables();

constexpr uint8_t kRcon[15] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40,
                               0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d};

inline uint32_t SubWord(uint32_t w) {
  return (static_cast<uint32_t>(kTables.sbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(kTables.sbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(kTables.sbox[(w >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(kTables.sbox[w & 0xff]);
}

inline uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

// InvMixColumns of one packed column, via the decryption tables: Td_r[S[a]]
// is exactly the InvMixColumns contribution of byte a at row r.
inline uint32_t InvMixColumn(uint32_t w) {
  return kRound.td[0][kTables.sbox[(w >> 24) & 0xff]] ^
         kRound.td[1][kTables.sbox[(w >> 16) & 0xff]] ^
         kRound.td[2][kTables.sbox[(w >> 8) & 0xff]] ^
         kRound.td[3][kTables.sbox[w & 0xff]];
}

inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline void StoreBe32(uint8_t* p, uint32_t w) {
  p[0] = static_cast<uint8_t>(w >> 24);
  p[1] = static_cast<uint8_t>(w >> 16);
  p[2] = static_cast<uint8_t>(w >> 8);
  p[3] = static_cast<uint8_t>(w);
}

}  // namespace

Aes256::Aes256(Slice key) {
  assert(key.size() == kKeySize);
  constexpr int nk = 8;
  constexpr int nw = 4 * (kRounds + 1);
  uint32_t w[nw];
  for (int i = 0; i < nk; ++i) {
    w[i] = LoadBe32(key.data() + 4 * i);
  }
  for (int i = nk; i < nw; ++i) {
    uint32_t temp = w[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^
             (static_cast<uint32_t>(kRcon[i / nk]) << 24);
    } else if (i % nk == 4) {
      temp = SubWord(temp);
    }
    w[i] = w[i - nk] ^ temp;
  }
  // Equivalent inverse cipher: reverse the schedule and push the middle round
  // keys through InvMixColumns.
  for (int round = 0; round <= kRounds; ++round) {
    for (int c = 0; c < 4; ++c) {
      uint32_t enc = w[4 * round + c];
      uint32_t dec = w[4 * (kRounds - round) + c];
      if (round > 0 && round < kRounds) dec = InvMixColumn(dec);
      StoreBe32(round_keys_ + 4 * (4 * round + c), enc);
      StoreBe32(dec_round_keys_ + 4 * (4 * round + c), dec);
    }
  }
}

void Aes256::EncryptBlock(const uint8_t in[kBlockSize],
                          uint8_t out[kBlockSize]) const {
  internal::ActiveKernels().aes256_encrypt(round_keys_, in, out);
}

void Aes256::DecryptBlock(const uint8_t in[kBlockSize],
                          uint8_t out[kBlockSize]) const {
  internal::ActiveKernels().aes256_decrypt(dec_round_keys_, in, out);
}

namespace internal {

void Aes256EncryptPortable(const uint8_t* round_keys, const uint8_t in[16],
                           uint8_t out[16]) {
  const uint8_t* rk = round_keys;
  uint32_t s0 = LoadBe32(in) ^ LoadBe32(rk);
  uint32_t s1 = LoadBe32(in + 4) ^ LoadBe32(rk + 4);
  uint32_t s2 = LoadBe32(in + 8) ^ LoadBe32(rk + 8);
  uint32_t s3 = LoadBe32(in + 12) ^ LoadBe32(rk + 12);
  for (int round = 1; round < Aes256::kRounds; ++round) {
    rk += Aes256::kBlockSize;
    uint32_t t0 = kRound.te[0][s0 >> 24] ^ kRound.te[1][(s1 >> 16) & 0xff] ^
                  kRound.te[2][(s2 >> 8) & 0xff] ^ kRound.te[3][s3 & 0xff] ^
                  LoadBe32(rk);
    uint32_t t1 = kRound.te[0][s1 >> 24] ^ kRound.te[1][(s2 >> 16) & 0xff] ^
                  kRound.te[2][(s3 >> 8) & 0xff] ^ kRound.te[3][s0 & 0xff] ^
                  LoadBe32(rk + 4);
    uint32_t t2 = kRound.te[0][s2 >> 24] ^ kRound.te[1][(s3 >> 16) & 0xff] ^
                  kRound.te[2][(s0 >> 8) & 0xff] ^ kRound.te[3][s1 & 0xff] ^
                  LoadBe32(rk + 8);
    uint32_t t3 = kRound.te[0][s3 >> 24] ^ kRound.te[1][(s0 >> 16) & 0xff] ^
                  kRound.te[2][(s1 >> 8) & 0xff] ^ kRound.te[3][s2 & 0xff] ^
                  LoadBe32(rk + 12);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += Aes256::kBlockSize;
  const uint8_t* sb = kTables.sbox;
  StoreBe32(out, ((static_cast<uint32_t>(sb[s0 >> 24]) << 24) |
                  (static_cast<uint32_t>(sb[(s1 >> 16) & 0xff]) << 16) |
                  (static_cast<uint32_t>(sb[(s2 >> 8) & 0xff]) << 8) |
                  static_cast<uint32_t>(sb[s3 & 0xff])) ^
                     LoadBe32(rk));
  StoreBe32(out + 4, ((static_cast<uint32_t>(sb[s1 >> 24]) << 24) |
                      (static_cast<uint32_t>(sb[(s2 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(sb[(s3 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(sb[s0 & 0xff])) ^
                         LoadBe32(rk + 4));
  StoreBe32(out + 8, ((static_cast<uint32_t>(sb[s2 >> 24]) << 24) |
                      (static_cast<uint32_t>(sb[(s3 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(sb[(s0 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(sb[s1 & 0xff])) ^
                         LoadBe32(rk + 8));
  StoreBe32(out + 12, ((static_cast<uint32_t>(sb[s3 >> 24]) << 24) |
                       (static_cast<uint32_t>(sb[(s0 >> 16) & 0xff]) << 16) |
                       (static_cast<uint32_t>(sb[(s1 >> 8) & 0xff]) << 8) |
                       static_cast<uint32_t>(sb[s2 & 0xff])) ^
                          LoadBe32(rk + 12));
}

void Aes256DecryptPortable(const uint8_t* dec_round_keys, const uint8_t in[16],
                           uint8_t out[16]) {
  const uint8_t* rk = dec_round_keys;
  uint32_t s0 = LoadBe32(in) ^ LoadBe32(rk);
  uint32_t s1 = LoadBe32(in + 4) ^ LoadBe32(rk + 4);
  uint32_t s2 = LoadBe32(in + 8) ^ LoadBe32(rk + 8);
  uint32_t s3 = LoadBe32(in + 12) ^ LoadBe32(rk + 12);
  for (int round = 1; round < Aes256::kRounds; ++round) {
    rk += Aes256::kBlockSize;
    uint32_t t0 = kRound.td[0][s0 >> 24] ^ kRound.td[1][(s3 >> 16) & 0xff] ^
                  kRound.td[2][(s2 >> 8) & 0xff] ^ kRound.td[3][s1 & 0xff] ^
                  LoadBe32(rk);
    uint32_t t1 = kRound.td[0][s1 >> 24] ^ kRound.td[1][(s0 >> 16) & 0xff] ^
                  kRound.td[2][(s3 >> 8) & 0xff] ^ kRound.td[3][s2 & 0xff] ^
                  LoadBe32(rk + 4);
    uint32_t t2 = kRound.td[0][s2 >> 24] ^ kRound.td[1][(s1 >> 16) & 0xff] ^
                  kRound.td[2][(s0 >> 8) & 0xff] ^ kRound.td[3][s3 & 0xff] ^
                  LoadBe32(rk + 8);
    uint32_t t3 = kRound.td[0][s3 >> 24] ^ kRound.td[1][(s2 >> 16) & 0xff] ^
                  kRound.td[2][(s1 >> 8) & 0xff] ^ kRound.td[3][s0 & 0xff] ^
                  LoadBe32(rk + 12);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += Aes256::kBlockSize;
  const uint8_t* isb = kTables.inv_sbox;
  StoreBe32(out, ((static_cast<uint32_t>(isb[s0 >> 24]) << 24) |
                  (static_cast<uint32_t>(isb[(s3 >> 16) & 0xff]) << 16) |
                  (static_cast<uint32_t>(isb[(s2 >> 8) & 0xff]) << 8) |
                  static_cast<uint32_t>(isb[s1 & 0xff])) ^
                     LoadBe32(rk));
  StoreBe32(out + 4, ((static_cast<uint32_t>(isb[s1 >> 24]) << 24) |
                      (static_cast<uint32_t>(isb[(s0 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(isb[(s3 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(isb[s2 & 0xff])) ^
                         LoadBe32(rk + 4));
  StoreBe32(out + 8, ((static_cast<uint32_t>(isb[s2 >> 24]) << 24) |
                      (static_cast<uint32_t>(isb[(s1 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(isb[(s0 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(isb[s3 & 0xff])) ^
                         LoadBe32(rk + 8));
  StoreBe32(out + 12, ((static_cast<uint32_t>(isb[s3 >> 24]) << 24) |
                       (static_cast<uint32_t>(isb[(s2 >> 16) & 0xff]) << 16) |
                       (static_cast<uint32_t>(isb[(s1 >> 8) & 0xff]) << 8) |
                       static_cast<uint32_t>(isb[s0 & 0xff])) ^
                          LoadBe32(rk + 12));
}

#ifdef AEDB_CRYPTO_X86
// aesenc/aesdec run one full round each; the decryption schedule is the
// equivalent inverse cipher's, as aesdec expects.
__attribute__((target("aes,sse2"))) void Aes256EncryptAesNi(
    const uint8_t* round_keys, const uint8_t in[16], uint8_t out[16]) {
  const __m128i* rk = reinterpret_cast<const __m128i*>(round_keys);
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
      _mm_loadu_si128(rk));
  for (int round = 1; round < 14; ++round) {
    s = _mm_aesenc_si128(s, _mm_loadu_si128(rk + round));
  }
  s = _mm_aesenclast_si128(s, _mm_loadu_si128(rk + 14));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

__attribute__((target("aes,sse2"))) void Aes256DecryptAesNi(
    const uint8_t* dec_round_keys, const uint8_t in[16], uint8_t out[16]) {
  const __m128i* rk = reinterpret_cast<const __m128i*>(dec_round_keys);
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
      _mm_loadu_si128(rk));
  for (int round = 1; round < 14; ++round) {
    s = _mm_aesdec_si128(s, _mm_loadu_si128(rk + round));
  }
  s = _mm_aesdeclast_si128(s, _mm_loadu_si128(rk + 14));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}
#endif  // AEDB_CRYPTO_X86

}  // namespace internal

}  // namespace aedb::crypto
