// Bounded, idle-expiring registry of session public keys — the one session
// table implementation behind both tiers: EmbellishServer (slice or
// monolithic) and ShardCoordinator.
//
// Semantics:
//   - Register() overwrites an existing id (re-hello) with its new key, and
//     always admits an existing id. A fresh id is admitted while the table
//     is under max_sessions; when full, an idle sweep runs first so a table
//     of dead registrations can never lock genuine new sessions out
//     permanently.
//   - Touch() advances the entry's idle clock; callers invoke it for every
//     decodable frame naming the session, whatever its kind — a session
//     streaming only PIR or top-k traffic is just as alive as one
//     streaming PR queries.
//   - The idle clock is a caller-supplied logical time (handled frames;
//     servers have no wall clock of their own). Entries idle for more than
//     idle_frames are erased by amortized sweeps (every kSweepStride
//     registrations, and always before a fresh id is refused for
//     capacity), releasing superseded and abandoned Benaloh keys.
//
// Thread safety: a shared_mutex; Find/Touch take the shared side (Touch
// stores through an atomic so concurrent touches may race benignly — any
// of the racing timestamps keeps the session alive), Register the
// exclusive side.

#ifndef EMBELLISH_SERVER_SESSION_TABLE_H_
#define EMBELLISH_SERVER_SESSION_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/benaloh.h"

namespace embellish::server {

/// \brief Session-key registry with capacity and idle-expiry bounds.
class SessionTable {
 public:
  /// \brief One registered session. `pk == nullptr` means "absent".
  struct Entry {
    std::shared_ptr<const crypto::BenalohPublicKey> pk;
    std::shared_ptr<std::atomic<uint64_t>> last_seen;
  };

  /// \brief Registrations between amortized idle sweeps.
  static constexpr uint64_t kSweepStride = 256;

  /// \brief `idle_frames == 0` disables expiry.
  SessionTable(size_t max_sessions, uint64_t idle_frames)
      : max_sessions_(max_sessions), idle_frames_(idle_frames) {}

  /// \brief Copy of the entry for `session_id` (pk null when absent).
  Entry Find(uint64_t session_id) const;

  /// \brief Bumps the session's idle clock to `now` if registered.
  void Touch(uint64_t session_id, uint64_t now) const;

  /// \brief (Re-)registers the session at logical time `now`. Returns
  ///        false when a fresh id is refused because the table is full of
  ///        live sessions even after a sweep.
  bool Register(uint64_t session_id,
                std::shared_ptr<const crypto::BenalohPublicKey> pk,
                uint64_t now);

  size_t size() const;

  /// \brief A consistent copy of every live registration's (id, key) —
  ///        what a coordinator re-pushes to its slice servers at an epoch
  ///        cutover. Keys are shared, not copied.
  std::vector<std::pair<uint64_t,
                        std::shared_ptr<const crypto::BenalohPublicKey>>>
  Snapshot() const;

  /// \brief Total idle sessions swept so far (keys released).
  uint64_t expired_total() const {
    return expired_.load(std::memory_order_relaxed);
  }

 private:
  void SweepLocked(uint64_t now);  // requires mu_ held exclusively

  const size_t max_sessions_;
  const uint64_t idle_frames_;
  mutable std::shared_mutex mu_;
  std::unordered_map<uint64_t, Entry> sessions_;
  uint64_t since_sweep_ = 0;  // guarded by mu_
  std::atomic<uint64_t> expired_{0};
};

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_SESSION_TABLE_H_
