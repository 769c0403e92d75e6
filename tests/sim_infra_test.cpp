// Unit tests for the simulator infrastructure pieces not covered by the
// protocol tests: the trace recorder, the interconnect (latency matrix,
// FIFO delivery, handler dispatch), and directory statistics.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/machine.hpp"

namespace sbq::sim {
namespace {

TEST(Trace, DisabledRecordsNothing) {
  Trace t(false);
  t.record(1, 0, "x", 1);
  EXPECT_TRUE(t.events().empty());
}

TEST(Trace, EnabledRecordsAndPrints) {
  Trace t(true);
  t.record(5, 2, "send GetM", 7, 3);
  t.record(9, 1, "abort", 8, 0);
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].time, 5u);
  EXPECT_EQ(t.events()[0].node, 2);
  EXPECT_EQ(t.events()[0].addr, 7u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("send GetM"), std::string::npos);
  EXPECT_NE(os.str().find("abort"), std::string::npos);
}

TEST(Trace, AddressFilter) {
  Trace t(true);
  t.record(1, 0, "a", 10);
  t.record(2, 0, "b", 20);
  std::ostringstream os;
  t.print(os, /*only_addr=*/20);
  EXPECT_EQ(os.str().find("addr=10"), std::string::npos);
  EXPECT_NE(os.str().find("addr=20"), std::string::npos);
}

TEST(Trace, ClearResets) {
  Trace t(true);
  t.record(1, 0, "a", 1);
  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(Trace, ToggleEnable) {
  Trace t(false);
  t.set_enabled(true);
  t.record(1, 0, "a", 1);
  t.set_enabled(false);
  t.record(2, 0, "b", 2);
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Interconnect, LatencyMatrix) {
  MachineConfig cfg;
  cfg.cores = 6;
  cfg.sockets = 3;  // 2 cores per socket
  Engine e;
  Interconnect net(e, cfg, nullptr);
  EXPECT_EQ(net.socket_of(0), 0);
  EXPECT_EQ(net.socket_of(1), 0);
  EXPECT_EQ(net.socket_of(2), 1);
  EXPECT_EQ(net.socket_of(5), 2);
  EXPECT_EQ(net.socket_of(net.directory_id()), 0);  // dir homed on socket 0
  EXPECT_EQ(net.latency(0, 1), cfg.intra_latency);
  EXPECT_EQ(net.latency(0, 2), cfg.inter_latency);
  EXPECT_EQ(net.latency(4, 5), cfg.intra_latency);
  EXPECT_EQ(net.latency(2, net.directory_id()), cfg.inter_latency);
}

// The engine handler for these tests: records every delivery (the only
// typed event a bare interconnect schedules) as (time, dst, msg).
struct Recorder {
  struct Delivery {
    Time t;
    CoreId dst;
    Message msg;
  };
  explicit Recorder(Engine& e) : e(e) {
    e.set_handler(&Recorder::on_event, this);
  }
  static void on_event(void* ctx, const Event& ev) {
    auto* r = static_cast<Recorder*>(ctx);
    EXPECT_EQ(ev.kind, EventKind::kDeliver);
    r->got.push_back({r->e.now(), ev.target, ev.msg});
  }
  Engine& e;
  std::vector<Delivery> got;
};

TEST(Interconnect, DeliversToHandlerWithLatency) {
  MachineConfig cfg;
  cfg.cores = 2;
  Engine e;
  Interconnect net(e, cfg, nullptr);
  Recorder rec(e);
  Message m{.addr = 5, .src = 0, .requester = 0, .type = MsgType::kInv};
  net.send(0, 1, m);
  e.run();
  ASSERT_EQ(rec.got.size(), 1u);
  EXPECT_EQ(rec.got[0].t, cfg.intra_latency);
  EXPECT_EQ(rec.got[0].dst, 1);
  EXPECT_EQ(rec.got[0].msg.type, MsgType::kInv);
  EXPECT_EQ(rec.got[0].msg.addr, Addr{5});
  EXPECT_EQ(rec.got[0].msg.src, 0);
  EXPECT_EQ(net.messages_sent(), 1u);
}

TEST(Interconnect, FifoPerPair) {
  MachineConfig cfg;
  cfg.cores = 2;
  Engine e;
  Interconnect net(e, cfg, nullptr);
  Recorder rec(e);
  for (Addr a = 1; a <= 5; ++a) {
    Message m{.addr = a, .src = 0, .requester = 0, .type = MsgType::kData};
    net.send(0, 1, m);
  }
  e.run();
  std::vector<Addr> order;
  for (const Recorder::Delivery& d : rec.got) {
    EXPECT_EQ(d.dst, 1);
    order.push_back(d.msg.addr);
  }
  EXPECT_EQ(order, (std::vector<Addr>{1, 2, 3, 4, 5}));
}

TEST(Interconnect, MessageTypeNames) {
  EXPECT_STREQ(msg_type_name(MsgType::kGetS), "GetS");
  EXPECT_STREQ(msg_type_name(MsgType::kGetM), "GetM");
  EXPECT_STREQ(msg_type_name(MsgType::kFwdGetS), "Fwd-GetS");
  EXPECT_STREQ(msg_type_name(MsgType::kFwdGetM), "Fwd-GetM");
  EXPECT_STREQ(msg_type_name(MsgType::kInv), "Inv");
  EXPECT_STREQ(msg_type_name(MsgType::kInvAck), "Inv-Ack");
  EXPECT_STREQ(msg_type_name(MsgType::kData), "Data");
}

TEST(DirectoryStats, CountsProtocolActions) {
  MachineConfig cfg;
  cfg.cores = 3;
  Machine m(cfg);
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).load(x);        // GetS
    co_await m.core(1).load(x);        // GetS
    co_await m.core(2).store(x, 1);    // GetM + 2 Inv
    co_await m.core(0).load(x);        // GetS -> Fwd-GetS (then WB -> S)
    co_await m.core(1).store(x, 2);    // GetM on S -> invalidation shower
  }(m, x));
  m.run();
  const ProtocolCounters s = m.stats().protocol();
  EXPECT_EQ(s.gets, 3u);
  EXPECT_EQ(s.getm, 2u);
  EXPECT_EQ(s.fwd_gets, 1u);
  EXPECT_EQ(s.fwd_getm, 0u);  // the WB landed before the second store
  EXPECT_EQ(s.inv, 4u);       // 2 for the first store, 2 for the second
}

TEST(MachineAlloc, SequentialNonNullAddresses) {
  Machine m(MachineConfig{.cores = 1});
  const Addr a = m.alloc(3);
  const Addr b = m.alloc();
  EXPECT_GE(a, 1u);  // address 0 is reserved as NULL
  EXPECT_EQ(b, a + 3);
}

}  // namespace
}  // namespace sbq::sim
