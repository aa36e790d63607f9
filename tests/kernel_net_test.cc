/**
 * @file
 * Unit tests for the loopback-only TCP layer (kernel/net.cc): the
 * non-blocking edge cases the interleaved client/server state-machine
 * workloads depend on — accept on an empty backlog, recv after the
 * peer closed (drain, then orderly 0), backlog FIFO ordering, and
 * EAGAIN-driven handoff between the two halves of a connection.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "kernel/net.hh"
#include "kernel/uapi.hh"

namespace veil::kern {
namespace {

/** Bind + listen a fresh server socket on @p port. */
SockId
makeListener(NetStack &net, uint16_t port)
{
    SockId s = net.create();
    EXPECT_EQ(net.bind(s, port), 0);
    EXPECT_EQ(net.listen(s, 8), 0);
    return s;
}

int64_t
sendStr(NetStack &net, SockId s, const std::string &text)
{
    return net.send(s, reinterpret_cast<const uint8_t *>(text.data()),
                    text.size());
}

std::string
recvStr(NetStack &net, SockId s, size_t len, int64_t *rc = nullptr)
{
    std::string buf(len, '\0');
    int64_t n = net.recv(s, reinterpret_cast<uint8_t *>(buf.data()), len);
    if (rc)
        *rc = n;
    buf.resize(n > 0 ? size_t(n) : 0);
    return buf;
}

TEST(KernelNet, AcceptOnEmptyBacklogIsEagain)
{
    NetStack net;
    SockId srv = makeListener(net, 8080);
    EXPECT_EQ(net.accept(srv), -kEAGAIN);
    // Still EAGAIN after a drained handshake, not an error.
    SockId cli = net.create();
    ASSERT_EQ(net.connect(cli, 8080), 0);
    int64_t conn = net.accept(srv);
    ASSERT_GT(conn, 0);
    EXPECT_EQ(net.accept(srv), -kEAGAIN);
}

TEST(KernelNet, AcceptWithoutListenIsEinval)
{
    NetStack net;
    SockId s = net.create();
    EXPECT_EQ(net.accept(s), -kEINVAL);
    EXPECT_EQ(net.listen(s, 8), -kEINVAL); // listen needs a bound port
    EXPECT_EQ(net.accept(999), -kEBADF);
}

TEST(KernelNet, ConnectToUnboundPortIsRefused)
{
    NetStack net;
    SockId cli = net.create();
    EXPECT_EQ(net.connect(cli, 4242), -kECONNREFUSED);
}

TEST(KernelNet, BacklogPreservesConnectionOrder)
{
    NetStack net;
    SockId srv = makeListener(net, 9000);

    SockId clients[3];
    for (int i = 0; i < 3; ++i) {
        clients[i] = net.create();
        ASSERT_EQ(net.connect(clients[i], 9000), 0);
        ASSERT_EQ(sendStr(net, clients[i], std::string(1, char('a' + i))),
                  1);
    }

    // FIFO: first accept returns the first connector's server endpoint.
    for (int i = 0; i < 3; ++i) {
        int64_t conn = net.accept(srv);
        ASSERT_GT(conn, 0);
        int64_t rc = 0;
        std::string got = recvStr(net, conn, 4, &rc);
        EXPECT_EQ(rc, 1);
        EXPECT_EQ(got, std::string(1, char('a' + i)));
    }
    EXPECT_EQ(net.accept(srv), -kEAGAIN);
}

TEST(KernelNet, RecvAfterPeerCloseDrainsThenReturnsZero)
{
    NetStack net;
    SockId srv = makeListener(net, 9100);
    SockId cli = net.create();
    ASSERT_EQ(net.connect(cli, 9100), 0);
    int64_t conn = net.accept(srv);
    ASSERT_GT(conn, 0);

    ASSERT_EQ(sendStr(net, cli, "bye"), 3);
    net.close(cli);

    // Buffered bytes still readable after the close...
    int64_t rc = 0;
    EXPECT_EQ(recvStr(net, conn, 2, &rc), "by");
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(recvStr(net, conn, 8, &rc), "e");
    EXPECT_EQ(rc, 1);
    // ...then orderly EOF (0), repeatably, never EAGAIN.
    EXPECT_EQ(net.recv(conn, nullptr, 0), 0);
    std::string buf(4, '\0');
    EXPECT_EQ(net.recv(conn, reinterpret_cast<uint8_t *>(buf.data()), 4), 0);
    EXPECT_EQ(net.recv(conn, reinterpret_cast<uint8_t *>(buf.data()), 4), 0);
}

TEST(KernelNet, SendAfterPeerCloseIsEpipe)
{
    NetStack net;
    SockId srv = makeListener(net, 9200);
    SockId cli = net.create();
    ASSERT_EQ(net.connect(cli, 9200), 0);
    int64_t conn = net.accept(srv);
    ASSERT_GT(conn, 0);

    net.close(conn);
    EXPECT_EQ(sendStr(net, cli, "x"), -kEPIPE);
}

TEST(KernelNet, RecvAndSendOnUnconnectedSocket)
{
    NetStack net;
    SockId s = net.create();
    std::string buf(4, '\0');
    EXPECT_EQ(net.recv(s, reinterpret_cast<uint8_t *>(buf.data()), 4),
              -kENOTCONN);
    EXPECT_EQ(sendStr(net, s, "x"), -kENOTCONN);
    EXPECT_EQ(net.recv(999, reinterpret_cast<uint8_t *>(buf.data()), 4),
              -kEBADF);
}

TEST(KernelNet, BindConflictIsAddrInUse)
{
    NetStack net;
    makeListener(net, 9300);
    SockId other = net.create();
    EXPECT_EQ(net.bind(other, 9300), -kEADDRINUSE);
}

/**
 * Interleaved client/server state machines on one stack: every blocking
 * point surfaces as EAGAIN and the two halves make progress by turns —
 * the exact pattern the benchmark drivers (ApacheBench/memaslap
 * analogues) rely on.
 */
TEST(KernelNet, InterleavedStateMachinesProgressViaEagain)
{
    NetStack net;
    SockId srv = makeListener(net, 9400);

    constexpr int kRequests = 16;
    SockId cli = net.create();
    int64_t conn = -1;
    int sent = 0, served = 0, answered = 0;

    // Client connects; server hasn't accepted yet: recv on the client
    // is EAGAIN, not an error.
    ASSERT_EQ(net.connect(cli, 9400), 0);
    std::string buf(16, '\0');
    EXPECT_EQ(net.recv(cli, reinterpret_cast<uint8_t *>(buf.data()), 16),
              -kEAGAIN);

    // Round-robin the two state machines until the exchange completes.
    for (int step = 0; step < 1000 && answered < kRequests; ++step) {
        // Client turn: issue one request, then try to reap a reply.
        if (sent < kRequests && sent == answered) {
            ASSERT_EQ(sendStr(net, cli, "ping"), 4);
            ++sent;
        }
        int64_t rc = 0;
        std::string reply = recvStr(net, cli, 4, &rc);
        if (rc > 0) {
            EXPECT_EQ(reply, "pong");
            ++answered;
        } else {
            EXPECT_EQ(rc, -kEAGAIN);
        }

        // Server turn: accept once, then serve at most one request.
        if (conn < 0) {
            conn = net.accept(srv);
            if (conn < 0) {
                EXPECT_EQ(conn, -kEAGAIN);
                continue;
            }
        }
        std::string req = recvStr(net, conn, 4, &rc);
        if (rc > 0) {
            EXPECT_EQ(req, "ping");
            ASSERT_EQ(sendStr(net, conn, "pong"), 4);
            ++served;
        } else {
            EXPECT_EQ(rc, -kEAGAIN);
        }
    }
    EXPECT_EQ(sent, kRequests);
    EXPECT_EQ(served, kRequests);
    EXPECT_EQ(answered, kRequests);
    EXPECT_EQ(net.pending(cli), 0u);
    EXPECT_EQ(net.pending(conn), 0u);
}

/** Connected client socket and its accepted server side on @p port. */
std::pair<SockId, SockId>
makePair(NetStack &net, uint16_t port)
{
    SockId srv = makeListener(net, port);
    SockId cli = net.create();
    EXPECT_EQ(net.connect(cli, port), 0);
    int64_t conn = net.accept(srv);
    EXPECT_GT(conn, 0);
    return {cli, SockId(conn)};
}

TEST(KernelNet, SendsCoalesceAndShortReadsKeepOrder)
{
    NetStack net;
    auto [cli, conn] = makePair(net, 9500);
    ASSERT_EQ(sendStr(net, cli, "ab"), 2);
    ASSERT_EQ(sendStr(net, cli, "cde"), 3);
    ASSERT_EQ(sendStr(net, cli, "fghij"), 5);
    EXPECT_EQ(net.pending(conn), 10u);

    int64_t rc = 0;
    EXPECT_EQ(recvStr(net, conn, 4, &rc), "abcd");
    EXPECT_EQ(recvStr(net, conn, 3, &rc), "efg");
    EXPECT_EQ(recvStr(net, conn, 64, &rc), "hij");
    EXPECT_EQ(rc, 3);
    EXPECT_EQ(recvStr(net, conn, 64, &rc), "");
    EXPECT_EQ(rc, -kEAGAIN);
}

TEST(KernelNet, ShortRecvLeavesTheRestQueued)
{
    NetStack net;
    auto [cli, conn] = makePair(net, 9600);
    // Interleave sends with partial reads so the queue both drops and
    // compacts consumed bytes; the stream must stay exact throughout.
    std::string sent, got;
    uint8_t next = 0;
    for (int round = 0; round < 50; ++round) {
        std::string chunk(100 + round * 7, '\0');
        for (char &ch : chunk)
            ch = char(next++);
        ASSERT_EQ(sendStr(net, cli, chunk), int64_t(chunk.size()));
        sent += chunk;
        size_t before = net.pending(conn);
        size_t want = before / 2 + 1;
        int64_t rc = 0;
        got += recvStr(net, conn, want, &rc);
        ASSERT_EQ(rc, int64_t(want));
        EXPECT_EQ(net.pending(conn), before - want);
    }
    int64_t rc = 0;
    got += recvStr(net, conn, sent.size(), &rc);
    EXPECT_EQ(got, sent);
    EXPECT_EQ(net.pending(conn), 0u);
}

TEST(KernelNet, QueuedBytesDrainAfterPeerCloseThenZero)
{
    NetStack net;
    auto [cli, conn] = makePair(net, 9700);
    std::string payload(5000, 'x');
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = char('a' + i % 26);
    ASSERT_EQ(sendStr(net, cli, payload), int64_t(payload.size()));
    ASSERT_EQ(sendStr(net, cli, "tail"), 4);
    net.close(cli);

    std::string got;
    int64_t rc = 0;
    while (true) {
        std::string part = recvStr(net, conn, 777, &rc);
        if (rc <= 0)
            break;
        got += part;
    }
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(got, payload + "tail");
    EXPECT_EQ(recvStr(net, conn, 8, &rc), "");
    EXPECT_EQ(rc, 0);
}

} // namespace
} // namespace veil::kern
