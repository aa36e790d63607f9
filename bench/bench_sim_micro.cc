/**
 * @file
 * Simulator micro-benchmarks (google-benchmark, wall-clock): throughput
 * of the substrate's primitives — RMP checks, page walks, checked guest
 * memory access, fiber switches, full domain-switch round trips, and
 * the crypto kernels. Not a paper figure; this keeps the harness honest
 * about its own costs.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "base/log.hh"
#include "common.hh"
#include "crypto/aes.hh"
#include "crypto/dh.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"
#include "crypto/sig.hh"
#include "sdk/vm.hh"
#include "snp/fault.hh"

using namespace veil;
using namespace veil::snp;

namespace {

MachineConfig
microConfig()
{
    LogConfig::setThreshold(LogLevel::Silent);
    MachineConfig cfg;
    cfg.memBytes = 16 * 1024 * 1024;
    cfg.numVcpus = 1;
    cfg.interruptsEnabled = false;
    return cfg;
}

void
BM_RmpCheck(benchmark::State &state)
{
    RmpTable rmp(4096);
    rmp.hvAssign(0x1000);
    rmp.pvalidate(Vmpl::Vmpl0, 0x1000, true);
    rmp.rmpadjust(Vmpl::Vmpl0, 0x1000, Vmpl::Vmpl3, kPermRw);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rmp.allowed(Vmpl::Vmpl3, 0x1234, Access::Read, Cpl::Supervisor));
    }
}
BENCHMARK(BM_RmpCheck);

void
BM_PageWalk(benchmark::State &state)
{
    GuestMemory mem(8 * 1024 * 1024);
    Gpa next = 0x100000;
    PageTableEditor editor(
        mem, [&next] { Gpa f = next; next += kPageSize; return f; },
        [](Gpa) {});
    Gpa cr3 = editor.createRoot();
    editor.map(cr3, 0x400000, 0x200000, PageFlags{true, true, false});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tryWalk(mem, cr3, 0x400123, Access::Read, Cpl::User));
    }
}
BENCHMARK(BM_PageWalk);

void
BM_CheckedGuestRead4K(benchmark::State &state)
{
    Machine m(microConfig());
    for (Gpa p = 0; p < 64 * kPageSize; p += kPageSize) {
        m.rmp().hvAssign(p);
        m.rmp().pvalidate(Vmpl::Vmpl0, p, true);
    }
    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    v.entry = [](Vcpu &) {};
    VmsaId id = m.addVmsa(std::move(v));
    Vcpu cpu(m, id);
    std::vector<uint8_t> buf(4096);
    for (auto _ : state)
        cpu.readPhys(8 * kPageSize, buf.data(), buf.size());
    state.SetBytesProcessed(int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_CheckedGuestRead4K);

// ---- Translation path ----
//
// Host ns/op for checked virtual accesses through a real 4-level
// table: every access is a full walk plus an RMP check.

struct XlateFixture
{
    static constexpr Gva kBase = 0x400000;
    static constexpr size_t kPages = 64;

    XlateFixture()
        : machine(microConfig()),
          editor(
              machine.memory(),
              [this] {
                  Gpa f = nextTable;
                  nextTable += kPageSize;
                  return f;
              },
              [](Gpa) {})
    {
        for (Gpa p = 0; p < Gpa(machine.memory().size()); p += kPageSize) {
            machine.rmp().hvAssign(p);
            machine.rmp().pvalidate(Vmpl::Vmpl0, p, true);
        }
        cr3 = editor.createRoot();
        for (size_t i = 0; i < kPages; ++i) {
            editor.map(cr3, kBase + i * kPageSize,
                       0x200000 + Gpa(i) * kPageSize,
                       PageFlags{true, true, false});
        }
        Vmsa v;
        v.vmpl = Vmpl::Vmpl0;
        v.cr3 = cr3;
        v.entry = [](Vcpu &) {};
        id = machine.addVmsa(std::move(v));
    }

    Machine machine;
    Gpa nextTable = 0x100000;
    PageTableEditor editor;
    Gpa cr3 = 0;
    VmsaId id = 0;
};

void
BM_XlateHotLoopRead8(benchmark::State &state)
{
    XlateFixture fx;
    Vcpu cpu(fx.machine, fx.id);
    uint64_t v = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(v = cpu.readObj<uint64_t>(fx.kBase + 0x123));
    state.SetBytesProcessed(int64_t(state.iterations()) * 8);
}
BENCHMARK(BM_XlateHotLoopRead8);

void
BM_XlateStridedRead4K(benchmark::State &state)
{
    XlateFixture fx;
    Vcpu cpu(fx.machine, fx.id);
    std::vector<uint8_t> buf(kPageSize);
    size_t page = 0;
    for (auto _ : state) {
        cpu.read(fx.kBase + page * kPageSize, buf.data(), buf.size());
        page = (page + 1) % XlateFixture::kPages;
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(kPageSize));
}
BENCHMARK(BM_XlateStridedRead4K);

void
BM_XlateReadCStr(benchmark::State &state)
{
    XlateFixture fx;
    // 256-char string crossing a page boundary (starts 128 bytes short
    // of the end of the first mapped page).
    std::string s(256, 'x');
    fx.machine.memory().write(0x200000 + kPageSize - 128, s.c_str(),
                              s.size() + 1);
    Vcpu cpu(fx.machine, fx.id);
    Gva va = XlateFixture::kBase + kPageSize - 128;
    for (auto _ : state)
        benchmark::DoNotOptimize(cpu.readCStr(va));
    state.SetBytesProcessed(int64_t(state.iterations()) * 256);
}
BENCHMARK(BM_XlateReadCStr);

void
BM_FiberSwitch(benchmark::State &state)
{
    Fiber f([] {
        for (;;)
            Fiber::yieldToScheduler();
    });
    for (auto _ : state)
        f.resume();
}
BENCHMARK(BM_FiberSwitch);

void
BM_DomainSwitchRoundTrip(benchmark::State &state)
{
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    LogConfig::setThreshold(LogLevel::Silent);
    sdk::VeilVm vm(cfg);
    vm.run([&](kern::Kernel &k, kern::Process &) {
        core::IdcbMessage ping;
        ping.op = static_cast<uint32_t>(core::VeilOp::Ping);
        for (auto _ : state)
            k.callMonitor(ping);
    });
}
BENCHMARK(BM_DomainSwitchRoundTrip)->Iterations(2000);

// ---- Crypto section ----
//
// Host throughput of the crypto kernels, including reference copies of
// the pre-overhaul (seed) byte-oriented implementations so the speedup
// is measured in-binary against identical compiler flags. Simulated
// cycle counts never depend on any of this (DESIGN.md §7).

namespace seedref {

// Byte-wise AES-128 exactly as shipped in the seed crypto module.
const uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16,
};

inline uint8_t
xtime(uint8_t x)
{
    return static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

struct SeedAes
{
    uint8_t roundKeys[11][16];

    explicit SeedAes(const crypto::AesKey &key)
    {
        std::memcpy(roundKeys[0], key.data(), 16);
        uint8_t rcon = 0x01;
        for (int r = 1; r <= 10; ++r) {
            uint8_t t[4];
            t[0] = static_cast<uint8_t>(kSbox[roundKeys[r - 1][13]] ^ rcon);
            t[1] = kSbox[roundKeys[r - 1][14]];
            t[2] = kSbox[roundKeys[r - 1][15]];
            t[3] = kSbox[roundKeys[r - 1][12]];
            for (int i = 0; i < 4; ++i)
                roundKeys[r][i] =
                    static_cast<uint8_t>(roundKeys[r - 1][i] ^ t[i]);
            for (int i = 4; i < 16; ++i)
                roundKeys[r][i] = static_cast<uint8_t>(roundKeys[r - 1][i] ^
                                                       roundKeys[r][i - 4]);
            rcon = xtime(rcon);
        }
    }

    crypto::AesBlock
    encryptBlock(const crypto::AesBlock &in) const
    {
        uint8_t s[16];
        for (int i = 0; i < 16; ++i)
            s[i] = static_cast<uint8_t>(in[i] ^ roundKeys[0][i]);
        for (int round = 1; round <= 10; ++round) {
            for (auto &b : s)
                b = kSbox[b];
            uint8_t t[16];
            for (int col = 0; col < 4; ++col)
                for (int row = 0; row < 4; ++row)
                    t[col * 4 + row] = s[((col + row) % 4) * 4 + row];
            std::memcpy(s, t, 16);
            if (round != 10) {
                for (int col = 0; col < 4; ++col) {
                    uint8_t *c = s + col * 4;
                    uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
                    c[0] = static_cast<uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^
                                                a2 ^ a3);
                    c[1] = static_cast<uint8_t>(a0 ^ xtime(a1) ^
                                                (xtime(a2) ^ a2) ^ a3);
                    c[2] = static_cast<uint8_t>(a0 ^ a1 ^ xtime(a2) ^
                                                (xtime(a3) ^ a3));
                    c[3] = static_cast<uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^
                                                xtime(a3));
                }
            }
            for (int i = 0; i < 16; ++i)
                s[i] = static_cast<uint8_t>(s[i] ^ roundKeys[round][i]);
        }
        crypto::AesBlock out;
        std::memcpy(out.data(), s, 16);
        return out;
    }

    void
    ctrXor(uint64_t nonce, uint64_t counter0, const uint8_t *in, uint8_t *out,
           size_t len) const
    {
        uint64_t counter = counter0;
        size_t off = 0;
        while (off < len) {
            crypto::AesBlock ctr_block;
            std::memcpy(ctr_block.data(), &nonce, 8);
            std::memcpy(ctr_block.data() + 8, &counter, 8);
            crypto::AesBlock ks = encryptBlock(ctr_block);
            size_t take = std::min<size_t>(16, len - off);
            for (size_t i = 0; i < take; ++i)
                out[off + i] = static_cast<uint8_t>(in[off + i] ^ ks[i]);
            off += take;
            ++counter;
        }
    }
};

// Straightforward per-block SHA-256 compress, as in the seed module.
const uint32_t kShaK[64] = {
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

void
shaCompress(uint32_t h_[8], const uint8_t block[64])
{
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (uint32_t(block[i * 4]) << 24) |
               (uint32_t(block[i * 4 + 1]) << 16) |
               (uint32_t(block[i * 4 + 2]) << 8) | uint32_t(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        uint32_t s0 =
            rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        uint32_t s1 =
            rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
    uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
    for (int i = 0; i < 64; ++i) {
        uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t t1 = h + s1 + ch + kShaK[i] + w[i];
        uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
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
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
    h_[5] += f;
    h_[6] += g;
    h_[7] += h;
}

crypto::Digest
shaHash(const uint8_t *data, size_t len)
{
    uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    size_t off = 0;
    for (; off + 64 <= len; off += 64)
        shaCompress(h, data + off);
    uint8_t tail[128];
    size_t rem = len - off;
    std::memcpy(tail, data + off, rem);
    tail[rem] = 0x80;
    size_t pad = (rem < 56) ? 64 : 128;
    std::memset(tail + rem + 1, 0, pad - rem - 1 - 8);
    uint64_t bits = uint64_t(len) * 8;
    for (int i = 0; i < 8; ++i)
        tail[pad - 8 + i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
    for (size_t b = 0; b < pad; b += 64)
        shaCompress(h, tail + b);
    crypto::Digest out;
    for (int i = 0; i < 8; ++i) {
        out[i * 4] = static_cast<uint8_t>(h[i] >> 24);
        out[i * 4 + 1] = static_cast<uint8_t>(h[i] >> 16);
        out[i * 4 + 2] = static_cast<uint8_t>(h[i] >> 8);
        out[i * 4 + 3] = static_cast<uint8_t>(h[i]);
    }
    return out;
}

} // namespace seedref

void
BM_CryptoSha256_4K(benchmark::State &state)
{
    std::vector<uint8_t> data(4096, 0xab);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::Sha256::hash(data.data(),
                                                      data.size()));
    state.SetBytesProcessed(int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_CryptoSha256_4K);

void
BM_CryptoSha256_4K_Portable(benchmark::State &state)
{
    std::vector<uint8_t> data(4096, 0xab);
    for (auto _ : state) {
        crypto::Sha256 ctx(crypto::Sha256::Impl::Portable);
        ctx.update(data.data(), data.size());
        benchmark::DoNotOptimize(ctx.finish());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_CryptoSha256_4K_Portable);

void
BM_CryptoSha256_4K_SeedRef(benchmark::State &state)
{
    std::vector<uint8_t> data(4096, 0xab);
    for (auto _ : state)
        benchmark::DoNotOptimize(seedref::shaHash(data.data(), data.size()));
    state.SetBytesProcessed(int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_CryptoSha256_4K_SeedRef);

void
BM_CryptoAesCtr4K(benchmark::State &state)
{
    crypto::AesKey key{};
    crypto::Aes128 aes(key);
    std::vector<uint8_t> in(4096, 0x11), out(4096);
    for (auto _ : state)
        crypto::aesCtrXor(aes, 1, 0, in.data(), out.data(), in.size());
    state.SetBytesProcessed(int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_CryptoAesCtr4K);

void
BM_CryptoAesCtr4K_SeedRef(benchmark::State &state)
{
    crypto::AesKey key{};
    seedref::SeedAes aes(key);
    std::vector<uint8_t> in(4096, 0x11), out(4096);
    for (auto _ : state)
        aes.ctrXor(1, 0, in.data(), out.data(), in.size());
    state.SetBytesProcessed(int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_CryptoAesCtr4K_SeedRef);

void
BM_CryptoAesBlock_Tables(benchmark::State &state)
{
    crypto::AesKey key{};
    crypto::Aes128 aes(key);
    crypto::AesBlock b{};
    for (auto _ : state)
        benchmark::DoNotOptimize(b = aes.encryptBlockTables(b));
    state.SetBytesProcessed(int64_t(state.iterations()) * 16);
}
BENCHMARK(BM_CryptoAesBlock_Tables);

void
BM_CryptoHmac64_Midstate(benchmark::State &state)
{
    Bytes key(32, 0x0b);
    crypto::HmacKey hk(key);
    std::vector<uint8_t> msg(64, 0x5a);
    for (auto _ : state)
        benchmark::DoNotOptimize(hk.mac(msg.data(), msg.size()));
    state.SetBytesProcessed(int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_CryptoHmac64_Midstate);

void
BM_CryptoHmac64_Rekey(benchmark::State &state)
{
    Bytes key(32, 0x0b);
    std::vector<uint8_t> msg(64, 0x5a);
    for (auto _ : state) {
        crypto::HmacSha256 h(key.data(), key.size());
        h.update(msg.data(), msg.size());
        benchmark::DoNotOptimize(h.finish());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_CryptoHmac64_Rekey);

void
BM_DhModExp(benchmark::State &state)
{
    // One full-width exponentiation mod p: a DH public key or shared
    // secret, and the unit cost of every Schnorr sign/verify.
    crypto::HmacDrbg drbg(Bytes{'m', 'e'});
    crypto::U256 exp = crypto::drawExponent(drbg);
    crypto::U256 base(crypto::kGroupGenerator);
    for (auto _ : state) {
        base = crypto::kGroupPrime.pow(base, exp);
        benchmark::DoNotOptimize(base);
    }
}
BENCHMARK(BM_DhModExp)->Unit(benchmark::kMicrosecond);

void
BM_SchnorrVerify(benchmark::State &state)
{
    // One certificate or report signature check (two exponentiations).
    crypto::HmacDrbg drbg(Bytes{'s', 'v'});
    crypto::AsymKeyPair kp = crypto::asymGenerate(drbg);
    crypto::Digest m = crypto::Sha256::hash("report", 6);
    crypto::AsymSignature sig = crypto::asymSign(kp, "psp-report", m);
    for (auto _ : state) {
        bool ok = crypto::asymVerify(kp.publicKey, "psp-report", m, sig);
        ensure(ok, "BM_SchnorrVerify: signature did not verify");
    }
}
BENCHMARK(BM_SchnorrVerify)->Unit(benchmark::kMicrosecond);

void
BM_FullVeilBoot(benchmark::State &state)
{
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    LogConfig::setThreshold(LogLevel::Silent);
    for (auto _ : state) {
        sdk::VeilVm vm(cfg);
        vm.run([](kern::Kernel &, kern::Process &) {});
    }
}
BENCHMARK(BM_FullVeilBoot)->Unit(benchmark::kMillisecond);

// Direct chrono comparison of the overhauled kernels against the seed
// reference, reported as a table (and to --json / VEIL_BENCH_JSON).
// Gates the host-speedup targets: >=3x on 4 KiB AES-CTR, >=2x on 4 KiB
// SHA-256.
void
cryptoSpeedupReport()
{
    using clock = std::chrono::steady_clock;
    constexpr size_t kLen = 4096;
    constexpr int kIters = 2000;

    auto mbps = [](double secs) {
        return double(kIters) * kLen / secs / (1024.0 * 1024.0);
    };
    auto time_of = [](auto &&fn) {
        auto t0 = clock::now();
        fn();
        return std::chrono::duration<double>(clock::now() - t0).count();
    };

    std::vector<uint8_t> in(kLen, 0x11), out(kLen);
    crypto::AesKey key{};
    crypto::Aes128 aes(key);
    seedref::SeedAes seed_aes(key);

    double t_aes_new = time_of([&] {
        for (int i = 0; i < kIters; ++i)
            crypto::aesCtrXor(aes, uint64_t(i), 0, in.data(), out.data(), kLen);
    });
    double t_aes_seed = time_of([&] {
        for (int i = 0; i < kIters; ++i)
            seed_aes.ctrXor(uint64_t(i), 0, in.data(), out.data(), kLen);
    });

    crypto::Digest d_new{}, d_seed{};
    double t_sha_new = time_of([&] {
        for (int i = 0; i < kIters; ++i) {
            in[0] = uint8_t(i);
            d_new = crypto::Sha256::hash(in.data(), kLen);
        }
    });
    double t_sha_seed = time_of([&] {
        for (int i = 0; i < kIters; ++i) {
            in[0] = uint8_t(i);
            d_seed = seedref::shaHash(in.data(), kLen);
        }
    });
    benchmark::DoNotOptimize(d_new);
    benchmark::DoNotOptimize(d_seed);

    double aes_speedup = t_aes_seed / t_aes_new;
    double sha_speedup = t_sha_seed / t_sha_new;

    bench::Table t("Crypto host speedup vs seed implementation (4 KiB ops)",
                   {"Kernel", "Seed MB/s", "Now MB/s", "Speedup"});
    t.addRow({"AES-128-CTR", bench::fmt("%.1f", mbps(t_aes_seed)),
              bench::fmt("%.1f", mbps(t_aes_new)),
              bench::fmt("%.1fx", aes_speedup)});
    t.addRow({"SHA-256", bench::fmt("%.1f", mbps(t_sha_seed)),
              bench::fmt("%.1f", mbps(t_sha_new)),
              bench::fmt("%.1fx", sha_speedup)});
    t.print();
    bench::gate("aes_ctr_4k_speedup_vs_seed", aes_speedup, ">=", 3);
    bench::gate("sha256_4k_speedup_vs_seed", sha_speedup, ">=", 2);
    bench::jsonMetric("aes_ctr_4k_speedup_vs_seed", aes_speedup, "x");
    bench::jsonMetric("sha256_4k_speedup_vs_seed", sha_speedup, "x");
    bench::jsonMetric("aes_ctr_4k_mbps", mbps(t_aes_new), "MB/s");
    bench::jsonMetric("sha256_4k_mbps", mbps(t_sha_new), "MB/s");
}

} // namespace

int
main(int argc, char **argv)
{
    veil::bench::jsonInit(&argc, argv, "bench_sim_micro");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    cryptoSpeedupReport();
    return veil::bench::gateFinish();
}
