#include "crypto/sha256.hh"

#include <cstring>

#include "crypto/stats.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace veil::crypto {

namespace {

const uint32_t kK[64] = {
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
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

inline uint32_t
loadBe32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return __builtin_bswap32(v);
}

// Word-oriented scalar compression: big-endian word loads, in-place
// 16-word circular message schedule, rounds unrolled 8 at a time via
// register renaming instead of the 8-way shift chain.
#define VEIL_SHA_S0(x) (rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22))
#define VEIL_SHA_S1(x) (rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25))
#define VEIL_SHA_G0(x) (rotr(x, 7) ^ rotr(x, 18) ^ ((x) >> 3))
#define VEIL_SHA_G1(x) (rotr(x, 17) ^ rotr(x, 19) ^ ((x) >> 10))
#define VEIL_SHA_RND(a, b, c, d, e, f, g, h, kw)                             \
    do {                                                                     \
        uint32_t t1 = (h) + VEIL_SHA_S1(e) + (((e) & (f)) ^ (~(e) & (g))) +  \
                      (kw);                                                  \
        uint32_t t2 = VEIL_SHA_S0(a) +                                       \
                      (((a) & (b)) ^ ((a) & (c)) ^ ((b) & (c)));             \
        (d) += t1;                                                           \
        (h) = t1 + t2;                                                       \
    } while (0)

void
compressScalar(uint32_t state[8], const uint8_t *p, size_t nblocks)
{
    uint32_t s0 = state[0], s1 = state[1], s2 = state[2], s3 = state[3];
    uint32_t s4 = state[4], s5 = state[5], s6 = state[6], s7 = state[7];
    while (nblocks-- > 0) {
        uint32_t w[16];
        for (int i = 0; i < 16; ++i)
            w[i] = loadBe32(p + 4 * i);

        uint32_t a = s0, b = s1, c = s2, d = s3;
        uint32_t e = s4, f = s5, g = s6, h = s7;

        for (int i = 0; i < 64; i += 8) {
            if (i >= 16) {
                for (int j = 0; j < 8; ++j) {
                    int idx = (i + j) & 15;
                    w[idx] = w[idx] + VEIL_SHA_G0(w[(idx + 1) & 15]) +
                             w[(idx + 9) & 15] +
                             VEIL_SHA_G1(w[(idx + 14) & 15]);
                }
            }
            VEIL_SHA_RND(a, b, c, d, e, f, g, h, kK[i + 0] + w[(i + 0) & 15]);
            VEIL_SHA_RND(h, a, b, c, d, e, f, g, kK[i + 1] + w[(i + 1) & 15]);
            VEIL_SHA_RND(g, h, a, b, c, d, e, f, kK[i + 2] + w[(i + 2) & 15]);
            VEIL_SHA_RND(f, g, h, a, b, c, d, e, kK[i + 3] + w[(i + 3) & 15]);
            VEIL_SHA_RND(e, f, g, h, a, b, c, d, kK[i + 4] + w[(i + 4) & 15]);
            VEIL_SHA_RND(d, e, f, g, h, a, b, c, kK[i + 5] + w[(i + 5) & 15]);
            VEIL_SHA_RND(c, d, e, f, g, h, a, b, kK[i + 6] + w[(i + 6) & 15]);
            VEIL_SHA_RND(b, c, d, e, f, g, h, a, kK[i + 7] + w[(i + 7) & 15]);
        }

        s0 += a;
        s1 += b;
        s2 += c;
        s3 += d;
        s4 += e;
        s5 += f;
        s6 += g;
        s7 += h;
        p += 64;
    }
    state[0] = s0;
    state[1] = s1;
    state[2] = s2;
    state[3] = s3;
    state[4] = s4;
    state[5] = s5;
    state[6] = s6;
    state[7] = s7;
}

#undef VEIL_SHA_S0
#undef VEIL_SHA_S1
#undef VEIL_SHA_G0
#undef VEIL_SHA_G1
#undef VEIL_SHA_RND

#if defined(__x86_64__)

// SHA-NI compression (the canonical ABEF/CDGH two-lane form). Indexing
// per 4-round group g with i = g & 3: schedule extension msg2 feeds
// m[i+1] for groups 3..14, msg1 feeds m[i+3] for groups 1..12.
__attribute__((target("sha,sse4.1,ssse3"))) void
compressShaNi(uint32_t state[8], const uint8_t *p, size_t nblocks)
{
    const __m128i mask =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i *>(&state[0]));
    __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(&state[4]));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);       // CDAB
    st1 = _mm_shuffle_epi32(st1, 0x1B);       // EFGH
    __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);    // ABEF
    st1 = _mm_blend_epi16(st1, tmp, 0xF0);         // CDGH

    while (nblocks-- > 0) {
        const __m128i save0 = st0;
        const __m128i save1 = st1;
        __m128i m[4];

        for (int g = 0; g < 16; ++g) {
            const int i = g & 3;
            if (g < 4) {
                m[i] = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(p + 16 * g));
                m[i] = _mm_shuffle_epi8(m[i], mask);
            }
            __m128i msg = _mm_add_epi32(
                m[i],
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(&kK[4 * g])));
            st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
            if (g >= 3 && g <= 14) {
                __m128i t = _mm_alignr_epi8(m[i], m[(i + 3) & 3], 4);
                m[(i + 1) & 3] = _mm_add_epi32(m[(i + 1) & 3], t);
                m[(i + 1) & 3] = _mm_sha256msg2_epu32(m[(i + 1) & 3], m[i]);
            }
            msg = _mm_shuffle_epi32(msg, 0x0E);
            st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
            if (g >= 1 && g <= 12)
                m[(i + 3) & 3] = _mm_sha256msg1_epu32(m[(i + 3) & 3], m[i]);
        }

        st0 = _mm_add_epi32(st0, save0);
        st1 = _mm_add_epi32(st1, save1);
        p += 64;
    }

    tmp = _mm_shuffle_epi32(st0, 0x1B);       // FEBA
    st1 = _mm_shuffle_epi32(st1, 0xB1);       // DCHG
    st0 = _mm_blend_epi16(tmp, st1, 0xF0);    // DCBA
    st1 = _mm_alignr_epi8(st1, tmp, 8);       // HGFE

    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[0]), st0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[4]), st1);
}

bool
shaNiAvailable()
{
    static const bool avail = __builtin_cpu_supports("sha") &&
                              __builtin_cpu_supports("sse4.1") &&
                              __builtin_cpu_supports("ssse3");
    return avail;
}

#else

bool
shaNiAvailable()
{
    return false;
}

#endif // __x86_64__

} // namespace

Sha256::Sha256(Impl impl) : totalLen_(0), bufLen_(0), impl_(impl)
{
    h_[0] = 0x6a09e667;
    h_[1] = 0xbb67ae85;
    h_[2] = 0x3c6ef372;
    h_[3] = 0xa54ff53a;
    h_[4] = 0x510e527f;
    h_[5] = 0x9b05688c;
    h_[6] = 0x1f83d9ab;
    h_[7] = 0x5be0cd19;
}

void
Sha256::compressBlocks(const uint8_t *p, size_t nblocks)
{
    noteSha256Blocks(nblocks);
#if defined(__x86_64__)
    if (impl_ == Impl::Auto && shaNiAvailable()) {
        compressShaNi(h_, p, nblocks);
        return;
    }
#endif
    compressScalar(h_, p, nblocks);
}

void
Sha256::update(const void *data, size_t len)
{
    // update(nullptr, 0) is legal; memcpy from nullptr is not, even for
    // zero bytes.
    if (len == 0)
        return;
    const auto *p = static_cast<const uint8_t *>(data);
    totalLen_ += len;
    if (bufLen_ > 0) {
        size_t take = std::min(len, sizeof(buf_) - bufLen_);
        std::memcpy(buf_ + bufLen_, p, take);
        bufLen_ += take;
        p += take;
        len -= take;
        if (bufLen_ == 64) {
            compressBlocks(buf_, 1);
            bufLen_ = 0;
        }
    }
    if (len >= 64) {
        size_t nblocks = len / 64;
        compressBlocks(p, nblocks);
        p += nblocks * 64;
        len -= nblocks * 64;
    }
    if (len > 0) {
        std::memcpy(buf_, p, len);
        bufLen_ = len;
    }
}

Digest
Sha256::finish()
{
    // Build the padded tail (1-2 blocks) in one buffer and compress it
    // with a single call instead of feeding padding byte by byte.
    uint8_t tail[128];
    size_t n = bufLen_;
    std::memcpy(tail, buf_, n);
    tail[n++] = 0x80;
    size_t total = (n <= 56) ? 64 : 128;
    std::memset(tail + n, 0, total - 8 - n);
    uint64_t bit_len = totalLen_ * 8;
    for (int i = 0; i < 8; ++i)
        tail[total - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
    compressBlocks(tail, total / 64);
    bufLen_ = 0;

    Digest out;
    for (int i = 0; i < 8; ++i) {
        out[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
        out[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
        out[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
        out[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
    }
    return out;
}

Digest
Sha256::hash(const void *data, size_t len)
{
    Sha256 ctx;
    ctx.update(data, len);
    return ctx.finish();
}

Digest
Sha256::hash(const Bytes &data)
{
    return hash(data.data(), data.size());
}

std::string
digestHex(const Digest &d)
{
    return hexEncode(d.data(), d.size());
}

} // namespace veil::crypto
