#include "crypto/field256.hh"

#include "base/log.hh"

namespace veil::crypto {

namespace {

using u128 = unsigned __int128;

/** x += c; returns the carry out of 2^256. */
bool
addSmall(U256 &x, uint64_t c)
{
    u128 t = c;
    for (uint64_t &limb : x.w) {
        t += limb;
        limb = static_cast<uint64_t>(t);
        t >>= 64;
    }
    return t != 0;
}

} // namespace

U256
U256::fromBytes(const uint8_t *be32)
{
    U256 out;
    for (size_t i = 0; i < 32; ++i)
        out.w[3 - i / 8] = (out.w[3 - i / 8] << 8) | be32[i];
    return out;
}

std::optional<U256>
U256::fromBytes(const Bytes &be)
{
    size_t skip = be.size() > 32 ? be.size() - 32 : 0;
    for (size_t i = 0; i < skip; ++i) {
        if (be[i] != 0)
            return std::nullopt;
    }
    uint8_t buf[32] = {};
    std::copy(be.begin() + skip, be.end(), buf + 32 - (be.size() - skip));
    return fromBytes(buf);
}

Bytes
U256::toBytes(size_t len) const
{
    Bytes out(len, 0);
    for (size_t pos = 0; pos < 32; ++pos) {
        auto b = static_cast<uint8_t>(w[pos / 8] >> (8 * (pos % 8)));
        if (pos < len)
            out[len - 1 - pos] = b;
        else
            ensure(b == 0, "U256::toBytes: value does not fit");
    }
    return out;
}

U256
PseudoMersenne::fold(const std::array<uint64_t, 4> &lo, uint64_t hi) const
{
    // hi * 2^256 = hi * c (mod m); hi * c + lo < 2^256 + 2^128.
    U256 r;
    u128 t = u128(hi) * c_;
    for (size_t i = 0; i < 4; ++i) {
        t += lo[i];
        r.w[i] = static_cast<uint64_t>(t);
        t >>= 64;
    }
    // A carry out of 2^256 folds in once more as + c; r is then below
    // 2^128, so this cannot carry again.
    if (t != 0)
        addSmall(r, c_);
    // r < 2^256 < 2m: r >= m exactly when r + c wraps past 2^256, and
    // the wrapped sum is then r - m.
    U256 s = r;
    return addSmall(s, c_) ? s : r;
}

U256
PseudoMersenne::reduce(const U256 &a) const
{
    return fold(a.w, 0);
}

U256
PseudoMersenne::add(const U256 &a, const U256 &b) const
{
    std::array<uint64_t, 4> sum;
    u128 t = 0;
    for (size_t i = 0; i < 4; ++i) {
        t += u128(a.w[i]) + b.w[i];
        sum[i] = static_cast<uint64_t>(t);
        t >>= 64;
    }
    return fold(sum, static_cast<uint64_t>(t));
}

U256
PseudoMersenne::mul(const U256 &a, const U256 &b) const
{
    // Schoolbook 4x4 limb product into 8 limbs.
    uint64_t p[8] = {};
    for (size_t i = 0; i < 4; ++i) {
        uint64_t carry = 0;
        for (size_t j = 0; j < 4; ++j) {
            u128 t = u128(a.w[i]) * b.w[j] + p[i + j] + carry;
            p[i + j] = static_cast<uint64_t>(t);
            carry = static_cast<uint64_t>(t >> 64);
        }
        p[i + 4] = carry;
    }
    // First fold: lo + hi * c, a 256-bit value plus one top limb.
    std::array<uint64_t, 4> lo;
    uint64_t carry = 0;
    for (size_t i = 0; i < 4; ++i) {
        u128 t = u128(p[i + 4]) * c_ + p[i] + carry;
        lo[i] = static_cast<uint64_t>(t);
        carry = static_cast<uint64_t>(t >> 64);
    }
    return fold(lo, carry);
}

U256
PseudoMersenne::pow(const U256 &base, const U256 &exp) const
{
    // table[i] = base^i; the exponent is consumed in 4-bit windows
    // from the top, skipping leading zero windows.
    std::array<U256, 16> table;
    table[1] = reduce(base);
    for (size_t i = 2; i < 16; ++i)
        table[i] = mul(table[i - 1], table[1]);

    U256 r(1);
    bool started = false;
    for (size_t i = 64; i-- > 0;) {
        unsigned win = (exp.w[i / 16] >> (4 * (i % 16))) & 0xf;
        if (started) {
            for (int k = 0; k < 4; ++k)
                r = mul(r, r);
        }
        if (win != 0) {
            r = started ? mul(r, table[win]) : table[win];
            started = true;
        }
    }
    return r;
}

} // namespace veil::crypto
