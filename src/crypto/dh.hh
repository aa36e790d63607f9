/**
 * @file
 * Finite-field Diffie-Hellman key agreement for the VeilMon secure user
 * channel (§5.1): the remote user and VeilMon exchange public keys via
 * the attestation report's report-data field, derive a shared secret,
 * and expand it into AES + HMAC session keys.
 *
 * Simulation-strength parameters: the group is Z_p^* for the 256-bit
 * secp256k1 field prime p = 2^256 - 0x1000003d1, generator 5. The
 * pseudo-Mersenne form lets field256.hh reduce with a fold instead of
 * a division (DESIGN.md §7). Swap in an RFC 3526 group, or a curve,
 * in a production port.
 */
#ifndef VEIL_CRYPTO_DH_HH_
#define VEIL_CRYPTO_DH_HH_

#include "crypto/drbg.hh"
#include "crypto/field256.hh"

namespace veil::crypto {

/** Group prime p = 2^256 - 0x1000003d1 (the secp256k1 field prime). */
inline constexpr PseudoMersenne kGroupPrime{0x1000003d1};

/** Exponent ring q = p - 1 = 2^256 - 0x1000003d2 (the Schnorr ring of
 *  sig.hh). Its modulus is also the upper bound p - 1 of the range
 *  checks on secrets and group elements. */
inline constexpr PseudoMersenne kGroupOrder{0x1000003d2};

/** Group generator. */
constexpr uint32_t kGroupGenerator = 5;

/** One party's DH key pair. */
struct DhKeyPair
{
    U256 secret;     ///< private exponent, 2 <= secret <= p-2
    Bytes publicKey; ///< g^secret mod p, big-endian, 32 bytes
};

/** Derived symmetric session keys. */
struct SessionKeys
{
    std::array<uint8_t, 16> encKey; ///< AES-128 key
    std::array<uint8_t, 32> macKey; ///< HMAC-SHA256 key
};

/**
 * Draw an exponent in [2, p-2] by rejection sampling: 32 bytes of
 * DRBG output per candidate, so the DRBG stream consumed depends only
 * on how many candidates are rejected.
 */
U256 drawExponent(HmacDrbg &drbg);

/** Generate a key pair from DRBG output. */
DhKeyPair dhGenerate(HmacDrbg &drbg);

/** Compute the 32-byte shared secret from our secret and their public. */
Bytes dhSharedSecret(const U256 &secret, const Bytes &their_public);

/** HKDF-like expansion of the shared secret into session keys. */
SessionKeys deriveSessionKeys(const Bytes &shared_secret);

} // namespace veil::crypto

#endif // VEIL_CRYPTO_DH_HH_
