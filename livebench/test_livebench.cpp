// The benchmark's own helpers: the tail percentile, the payment ->
// instance -> floor-crossing join, and seeded input generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "livebench.hpp"

namespace zlb::livebench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  // 2000 samples: p99 is rank 1980, with 20 beyond it.
  const auto big = tail_percentile(ramp(2000), 0.99);
  EXPECT_DOUBLE_EQ(big.value, 1980.0);
  EXPECT_DOUBLE_EQ(big.q, 0.99);
  // 500 samples: p99 would leave 5 beyond; falls back to rank 490.
  const auto small = tail_percentile(ramp(500), 0.99);
  EXPECT_DOUBLE_EQ(small.value, 490.0);
  EXPECT_DOUBLE_EQ(small.q, 0.98);
  // The median of an odd sample is its middle element.
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(101), 0.5).value, 51.0);
  // Too few samples for any tail: the lowest rank, never out of range.
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(5), 0.99).value, 1.0);
  EXPECT_DOUBLE_EQ(tail_percentile({}, 0.5).value, 0.0);
}

TEST(CommitJoin, PaymentCommitsWhenTheFloorPassesItsInstance) {
  chain::Transaction a, b, late, absent;
  a.seq = 1;
  b.seq = 2;
  late.seq = 3;
  absent.seq = 4;
  chain::BlockStore store;
  chain::Block b3;
  b3.index = 3;
  b3.txs = {a, b};
  chain::Block b5;
  b5.index = 5;
  b5.proposer = 1;
  b5.txs = {late};
  chain::Block b9;  // a re-inclusion never moves a payment later
  b9.index = 9;
  b9.txs = {a};
  store.put(b3);
  store.put(b5);
  store.put(b9);

  const TxInstances where = tx_instances(store);
  EXPECT_EQ(where.at(a.id()), 3u);
  EXPECT_EQ(where.at(b.id()), 3u);
  EXPECT_EQ(where.at(late.id()), 5u);

  // floor 3 means instances 0..2 are committed; 4 means 3 is too.
  const std::vector<FloorStep> trace = {{0, 100}, {3, 200}, {4, 300}, {7, 450}};
  EXPECT_EQ(commit_time_ns(where, trace, a.id()), 300);
  EXPECT_EQ(commit_time_ns(where, trace, late.id()), 450);
  EXPECT_EQ(commit_time_ns(where, trace, absent.id()), -1);
  EXPECT_EQ(passed_at(trace, 7), -1);  // floor never went past 7
  EXPECT_EQ(passed_at(trace, 0), 200);
}

TEST(Payments, SameSeedGivesByteIdenticalPayments) {
  const Payments one = make_payments(7, 40, 3, 1);
  const Payments two = make_payments(7, 40, 3, 4);  // thread count is irrelevant
  const Payments other = make_payments(8, 40, 3, 1);
  ASSERT_EQ(one.frames.size(), 40u);
  EXPECT_EQ(one.frames, two.frames);
  EXPECT_EQ(one.target, two.target);
  EXPECT_NE(one.frames, other.frames);

  // Every payment verifies against a genesis its replicas all mint.
  chain::UtxoSet utxos;
  mint_genesis(utxos, one, 100);
  EXPECT_EQ(utxos.size(), 100u);
  for (const auto& tx : one.txs) {
    EXPECT_EQ(utxos.apply(tx), chain::TxCheck::kOk);
  }
  // Each target receives the same share of the load.
  std::vector<int> per(3, 0);
  for (const auto t : one.target) ++per.at(t);
  const auto [lo, hi] = std::minmax_element(per.begin(), per.end());
  EXPECT_LE(*hi - *lo, 1);
}

}  // namespace
}  // namespace zlb::livebench
