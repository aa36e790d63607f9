/**
 * @file
 * Fixed-width 256-bit arithmetic for the DH group and its Schnorr
 * exponent ring. Values are four little-endian 64-bit limbs on the
 * stack; nothing allocates.
 *
 * Both moduli in use are pseudo-Mersenne, m = 2^256 - c with a small c
 * (the group prime p has c = 0x1000003d1, the exponent ring q = p - 1
 * has c = 0x1000003d2). Since 2^256 = c (mod m), a 512-bit product
 * reduces by folding its high half back in multiplied by c, twice,
 * then at most one subtraction of m. One reduction therefore serves
 * both moduli; Montgomery reduction would need an odd modulus and so
 * cannot handle the even q. Exponentiation uses a 4-bit fixed window.
 * Not constant-time (simulation strength).
 */
#ifndef VEIL_CRYPTO_FIELD256_HH_
#define VEIL_CRYPTO_FIELD256_HH_

#include <array>
#include <compare>
#include <cstdint>
#include <optional>

#include "base/bytes.hh"

namespace veil::crypto {

/** Unsigned 256-bit integer. */
struct U256
{
    std::array<uint64_t, 4> w{}; ///< little-endian 64-bit limbs

    constexpr U256() = default;
    constexpr explicit U256(uint64_t v) : w{v, 0, 0, 0} {}
    constexpr explicit U256(const std::array<uint64_t, 4> &limbs) : w(limbs)
    {
    }

    /** Parse 32 big-endian bytes. */
    static U256 fromBytes(const uint8_t *be32);

    /** Parse big-endian bytes of any length; nullopt if the value
     *  needs more than 256 bits. */
    static std::optional<U256> fromBytes(const Bytes &be);

    /** Big-endian bytes, left-padded to @p len; the value must fit. */
    Bytes toBytes(size_t len = 32) const;

    bool isZero() const { return (w[0] | w[1] | w[2] | w[3]) == 0; }

    friend bool operator==(const U256 &, const U256 &) = default;

    friend std::strong_ordering
    operator<=>(const U256 &a, const U256 &b)
    {
        for (size_t i = 4; i-- > 0;) {
            if (a.w[i] != b.w[i])
                return a.w[i] <=> b.w[i];
        }
        return std::strong_ordering::equal;
    }
};

/** Arithmetic modulo m = 2^256 - c, for 0 < c < 2^64. Every operation
 *  accepts any 256-bit inputs, including ones >= m, and returns a
 *  value in [0, m). */
class PseudoMersenne
{
  public:
    constexpr explicit PseudoMersenne(uint64_t c)
        : c_(c), m_(std::array<uint64_t, 4>{0 - c, ~0ULL, ~0ULL, ~0ULL})
    {
    }

    const U256 &modulus() const { return m_; }

    /** a mod m. */
    U256 reduce(const U256 &a) const;

    /** (a + b) mod m. */
    U256 add(const U256 &a, const U256 &b) const;

    /** (a * b) mod m. */
    U256 mul(const U256 &a, const U256 &b) const;

    /** (base ^ exp) mod m; base^0 = 1. */
    U256 pow(const U256 &base, const U256 &exp) const;

  private:
    /** (hi * 2^256 + lo) mod m. */
    U256 fold(const std::array<uint64_t, 4> &lo, uint64_t hi) const;

    uint64_t c_;
    U256 m_;
};

} // namespace veil::crypto

#endif // VEIL_CRYPTO_FIELD256_HH_
