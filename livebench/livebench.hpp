// Helpers of the live-path benchmark that need no running cluster: the
// seeded payment set, the genesis that funds it, the tail percentile,
// and the join from a replica's committed-floor trace to per-payment
// commit time. Kept out of main.cpp so test_livebench.cpp can pin them.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "chain/store.hpp"
#include "chain/tx.hpp"
#include "chain/utxo.hpp"

namespace zlb::livebench {

/// Independent, pre-signed UTXO payments: payment i spends genesis coin
/// i (minted first, in order) and pays part of it to one sink address,
/// returning the change to its sender. No payment depends on another,
/// so any commit order is valid and none can fail for lack of funds.
struct Payments {
  std::uint64_t seed = 0;
  chain::Address sink{};
  std::vector<chain::Address> coin_owner;   ///< per payment
  std::vector<chain::Amount> coin_value;    ///< per payment
  std::vector<chain::Transaction> txs;
  std::vector<chain::TxId> ids;
  std::vector<Bytes> frames;                ///< length-prefixed wire form
  std::vector<std::uint32_t> target;        ///< submission target index
};

/// Builds `count` payments from `seed`, spread evenly over `targets`
/// submission targets. Signing fans out over `threads` threads; the
/// result is byte-identical for a given seed whatever `threads` is.
[[nodiscard]] Payments make_payments(std::uint64_t seed, std::size_t count,
                                     std::size_t targets,
                                     std::size_t threads);

/// Mints the coins the payments spend, then unrelated filler outputs
/// until the set holds `total` UTXOs. Every replica mints the same
/// sequence, so outpoints (counter-derived) agree cluster-wide.
void mint_genesis(chain::UtxoSet& utxos, const Payments& p,
                  std::size_t total);

/// Nearest-rank percentile of ascending `sorted` at `q`, with `q`
/// lowered until at least ten samples lie beyond it (the highest
/// percentile the sample supports). `q` reports the one used.
struct Percentile {
  double value = 0;
  double q = 0;
};
[[nodiscard]] Percentile tail_percentile(const std::vector<double>& sorted,
                                         double q);

/// One observed value of a replica's contiguous committed floor.
struct FloorStep {
  InstanceId floor = 0;
  std::int64_t at_ns = 0;
};

/// First time the floor passed instance `k` (floor > k); -1 if never.
/// `trace` is ascending in both fields.
[[nodiscard]] std::int64_t passed_at(const std::vector<FloorStep>& trace,
                                     InstanceId k);

using TxInstances =
    std::unordered_map<chain::TxId, InstanceId, crypto::Hash32Hasher>;

/// Lowest decided instance carrying each transaction in `store` — the
/// one whose in-order apply commits it.
[[nodiscard]] TxInstances tx_instances(const chain::BlockStore& store);

/// When payment `id` became committed on the replica whose store gave
/// `where` and whose floor gave `trace`; -1 if it never did.
[[nodiscard]] std::int64_t commit_time_ns(const TxInstances& where,
                                          const std::vector<FloorStep>& trace,
                                          const chain::TxId& id);

}  // namespace zlb::livebench
