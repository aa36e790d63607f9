/**
 * @file
 * Signatures over digests, in two strengths:
 *
 *  - Symmetric HMAC-SHA256 "signatures" under a provisioned key
 *    (signDigest / verifyDigest). Used where signer and verifier share
 *    a secret inside the TCB — the kernel-module signing path.
 *
 *  - Asymmetric Schnorr signatures over the DH group (asymSign /
 *    asymVerify). Used by the simulated PSP so that attestation
 *    reports and the platform certificate chain can be verified by a
 *    remote party holding only the platform's *public* root key — the
 *    verifier never needs (and never gets) signing material, so a
 *    compromised relay cannot forge reports. Simulation-strength
 *    parameters (the 256-bit DH group of dh.hh); swap for ECDSA/P-384
 *    in a production port — the chain-walk logic is unchanged.
 */
#ifndef VEIL_CRYPTO_SIG_HH_
#define VEIL_CRYPTO_SIG_HH_

#include "crypto/field256.hh"
#include "crypto/hmac.hh"

namespace veil::crypto {

class HmacDrbg;

/** A detached symmetric signature over a digest. */
using Signature = std::array<uint8_t, 32>;

/** Sign @p digest with @p key in the given domain ("psp", "module", ...). */
Signature signDigest(const Bytes &key, const std::string &domain,
                     const Digest &digest);

/** Constant-time verification. */
bool verifyDigest(const Bytes &key, const std::string &domain,
                  const Digest &digest, const Signature &sig);

// ---- Asymmetric (Schnorr over the dh.hh group) ----

/** A detached Schnorr signature: r (32 bytes) || s (32 bytes). */
using AsymSignature = std::array<uint8_t, 64>;

/** An asymmetric signing key pair. */
struct AsymKeyPair
{
    U256 secret;     ///< private exponent x, 2 <= x <= p-2
    Bytes publicKey; ///< y = g^x mod p, big-endian, 32 bytes
};

/** Generate a signing key pair from DRBG output. */
AsymKeyPair asymGenerate(HmacDrbg &drbg);

/**
 * Sign @p digest in @p domain. Deterministic: the nonce is derived
 * RFC 6979-style from the secret key and the message, so identical
 * inputs yield identical signatures (required by the simulator's
 * reproducibility contract).
 */
AsymSignature asymSign(const AsymKeyPair &key, const std::string &domain,
                       const Digest &digest);

/**
 * Verify @p sig over @p digest under @p public_key (32-byte big-endian
 * group element). Rejects degenerate public keys (y <= 1, y >= p-1)
 * and out-of-range signature components.
 */
bool asymVerify(const Bytes &public_key, const std::string &domain,
                const Digest &digest, const AsymSignature &sig);

} // namespace veil::crypto

#endif // VEIL_CRYPTO_SIG_HH_
