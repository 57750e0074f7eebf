#include "livebench.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/sha256.hpp"
#include "net/frame.hpp"

namespace zlb::livebench {

namespace {

/// Senders are few enough to derive quickly and many enough that the
/// verifiers' decompressed-key memo is not one hot entry.
constexpr std::size_t kSenders = 256;

chain::Address address_from(std::uint64_t a, std::uint64_t b) {
  chain::Address out;
  std::uint64_t s = a ^ mix64(b);
  for (std::size_t i = 0; i < out.data.size(); i += 8) {
    const std::uint64_t v = splitmix64(s);
    for (std::size_t j = 0; j < 8 && i + j < out.data.size(); ++j) {
      out.data[i + j] = static_cast<std::uint8_t>(v >> (8 * j));
    }
  }
  return out;
}

crypto::PrivateKey sender_key(std::uint64_t seed, std::size_t j) {
  Writer w;
  w.string("livebench-sender");
  w.u64(seed);
  w.u64(j);
  const crypto::Hash32 h = crypto::sha256(BytesView(w.data().data(), w.data().size()));
  return crypto::PrivateKey::from_seed(BytesView(h.data(), h.size()));
}

}  // namespace

Payments make_payments(std::uint64_t seed, std::size_t count,
                       std::size_t targets, std::size_t threads) {
  Payments p;
  p.seed = seed;
  p.sink = address_from(seed, 0x51c);
  Rng rng(seed);

  const std::size_t senders = std::min(kSenders, std::max<std::size_t>(count, 1));
  std::vector<crypto::PrivateKey> keys;
  std::vector<crypto::PublicKey> pubs;
  keys.reserve(senders);
  for (std::size_t j = 0; j < senders; ++j) {
    keys.push_back(sender_key(seed, j));
    pubs.push_back(keys.back().public_key());
  }

  // Coins are minted first and in payment order, so coin i's outpoint
  // is the i-th genesis mint on every replica.
  chain::UtxoSet view;
  std::vector<chain::OutPoint> coins(count);
  std::vector<chain::Amount> pay(count);
  p.coin_owner.resize(count);
  p.coin_value.resize(count);
  p.target.resize(count);
  std::vector<std::uint32_t> round(targets);
  for (std::size_t i = 0; i < count; ++i) {
    p.coin_owner[i] = chain::Address::of(pubs[i % senders]);
    p.coin_value[i] = rng.uniform_int(2'000, 100'000);
    pay[i] = rng.uniform_int(1'000, p.coin_value[i] - 1);
    coins[i] = view.mint(p.coin_owner[i], p.coin_value[i]);
    // Each run of `targets` payments visits every target once, in a
    // seeded order: load is even, the interleaving is not fixed.
    if (i % targets == 0) {
      for (std::uint32_t t = 0; t < targets; ++t) round[t] = t;
      rng.shuffle(round);
    }
    p.target[i] = round[i % targets];
  }

  p.txs.resize(count);
  p.ids.resize(count);
  p.frames.resize(count);
  common::ThreadPool pool(threads > 0 ? threads - 1 : 0);
  pool.parallel_for(count, [&](std::size_t i) {
    const std::size_t j = i % senders;
    chain::Transaction& tx = p.txs[i];
    tx.seq = i + 1;
    chain::TxIn in;
    in.prev = coins[i];
    in.value = p.coin_value[i];
    in.pubkey = pubs[j];
    tx.inputs.push_back(in);
    tx.outputs.push_back(chain::TxOut{pay[i], p.sink});
    tx.outputs.push_back(
        chain::TxOut{p.coin_value[i] - pay[i], p.coin_owner[i]});
    const auto sig = keys[j].sign_digest(tx.body_digest()).to_bytes();
    std::copy(sig.begin(), sig.end(), tx.inputs[0].sig.begin());
    const Bytes body = tx.serialize();
    p.ids[i] = tx.id();
    p.frames[i] = net::encode_frame(BytesView(body.data(), body.size()));
  });
  return p;
}

void mint_genesis(chain::UtxoSet& utxos, const Payments& p,
                  std::size_t total) {
  for (std::size_t i = 0; i < p.coin_value.size(); ++i) {
    (void)utxos.mint(p.coin_owner[i], p.coin_value[i]);
  }
  for (std::size_t i = p.coin_value.size(); i < total; ++i) {
    (void)utxos.mint(address_from(p.seed, i), 1);
  }
}

Percentile tail_percentile(const std::vector<double>& sorted, double q) {
  Percentile out;
  const std::size_t n = sorted.size();
  if (n == 0) return out;
  // Nearest rank r = ceil(q n) leaves n - r samples beyond it.
  constexpr std::size_t kBeyond = 10;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kBeyond) rank = n > kBeyond ? n - kBeyond : 1;
  out.value = sorted[rank - 1];
  out.q = std::min(q, static_cast<double>(rank) / static_cast<double>(n));
  return out;
}

std::int64_t passed_at(const std::vector<FloorStep>& trace, InstanceId k) {
  const auto it = std::upper_bound(
      trace.begin(), trace.end(), k,
      [](InstanceId v, const FloorStep& s) { return v < s.floor; });
  return it == trace.end() ? -1 : it->at_ns;
}

TxInstances tx_instances(const chain::BlockStore& store) {
  TxInstances out;
  if (store.size() == 0) return out;
  for (InstanceId k = 0; k <= store.max_index(); ++k) {
    for (const auto& id : store.at_index(k)) {
      const chain::Block* block = store.get(id);
      if (block == nullptr) continue;
      for (const auto& tx : block->txs) out.try_emplace(tx.id(), k);
    }
  }
  return out;
}

std::int64_t commit_time_ns(const TxInstances& where,
                            const std::vector<FloorStep>& trace,
                            const chain::TxId& id) {
  const auto it = where.find(id);
  return it == where.end() ? -1 : passed_at(trace, it->second);
}

}  // namespace zlb::livebench
